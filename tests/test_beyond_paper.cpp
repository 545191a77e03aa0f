// Beyond the paper's r <= n-1 envelope: the remark at the end of §2.2 says
// the partition algorithm also handles r >= n faults as long as no healthy
// node is walled in. These tests exercise that regime, plus failure
// injection on the machine and the library's error paths.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/ft_sorter.hpp"
#include "fault/scenario.hpp"
#include "sim/machine.hpp"
#include "sort/distribution.hpp"
#include "util/rng.hpp"

namespace ftsort {
namespace {

TEST(BeyondPaper, PartitionHandlesRGreaterThanN) {
  util::Rng rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    // Q_5 with up to 8 faults (n-1 would be 4).
    const std::size_t r = 5 + rng.below(4);
    const auto faults = fault::random_faults_no_isolation(5, r, rng);
    const auto result = partition::find_cutting_set(faults);
    EXPECT_TRUE(partition::is_single_fault_structure(
        faults, result.cutting_set.front()));
    // Pigeonhole: 2^m subcubes must fit r single faults.
    EXPECT_GE(1u << result.mincut, r);
  }
}

TEST(BeyondPaper, SortWithRGreaterThanN) {
  util::Rng rng(2);
  const auto keys = sort::gen_uniform(300, rng);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t r = 6 + rng.below(5);  // 6..10 faults on Q_6
    const auto faults = fault::random_faults_no_isolation(6, r, rng);
    const auto plan = partition::Plan::build(faults);
    if (plan.live_count() == 0) continue;  // degenerate; sorter rejects it
    core::FaultTolerantSorter sorter(6, faults);
    EXPECT_EQ(sorter.sort(keys).sorted, expected) << faults.to_string();
  }
}

TEST(BeyondPaper, QuarterOfTheMachineDead) {
  // 16 of 64 processors dead: a regime far outside the paper's analysis;
  // the algorithm must still sort (utilization degrades, correctness
  // must not).
  util::Rng rng(3);
  const auto keys = sort::gen_uniform(500, rng);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  for (int trial = 0; trial < 5; ++trial) {
    const auto faults = fault::random_faults_no_isolation(6, 16, rng);
    const auto plan = partition::Plan::build(faults);
    if (plan.live_count() == 0) continue;
    core::FaultTolerantSorter sorter(6, faults);
    EXPECT_EQ(sorter.sort(keys).sorted, expected);
  }
}

TEST(BeyondPaper, DanglingBoundCanExceedQuarterBeyondEnvelope) {
  // The N/4 dangling bound is only promised for r <= n-1; document (by
  // test) that beyond it the count can grow but never exceeds the healthy
  // population.
  util::Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const auto faults = fault::random_faults_no_isolation(5, 7, rng);
    const auto plan = partition::Plan::build(faults);
    EXPECT_LE(plan.dangling_count() + plan.live_count(),
              faults.healthy_count());
  }
}

TEST(FailureInjection, LostMessageDetectedAsDeadlock) {
  // Receiver waits for a tag the sender never uses: deadlock, reported
  // with the blocked node and channel.
  sim::Machine machine(1, fault::FaultSet(1));
  const auto program = [](sim::NodeCtx& ctx) -> sim::Task {
    if (ctx.id() == 0) {
      ctx.send(1, /*tag=*/1, {42});
    } else {
      sim::Message m = co_await ctx.recv(0, /*tag=*/2);  // wrong tag
      (void)m;
    }
  };
  try {
    machine.run(program);
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("node 1"), std::string::npos);
    EXPECT_NE(what.find("tag=2"), std::string::npos);
  }
}

TEST(FailureInjection, UnconsumedMessageFailsTheRun) {
  // A protocol that finishes while mail is still queued violates the
  // machine's completeness postcondition.
  sim::Machine machine(1, fault::FaultSet(1));
  const auto program = [](sim::NodeCtx& ctx) -> sim::Task {
    if (ctx.id() == 0) ctx.send(1, 1, {1});
    co_return;  // node 1 never receives
  };
  EXPECT_THROW(machine.run(program), ContractViolation);
}

TEST(FailureInjection, WrongPayloadSizeCaughtByProtocolChecks) {
  // The half-exchange checks its phase sizes; a mismatched partner block
  // (protocol misuse) is rejected rather than silently mis-sorting.
  sim::Machine machine(1, fault::FaultSet(1));
  const auto program = [](sim::NodeCtx& ctx) -> sim::Task {
    std::vector<sim::Key> block =
        ctx.id() == 0 ? std::vector<sim::Key>{1, 2, 3, 4}
                      : std::vector<sim::Key>{5, 6};  // wrong size
    const sort::ExchangeStep step{
        sim::Phase::MergeExchange, 0, ctx.id() ^ 1u,
        ctx.id() == 0 ? sort::SplitHalf::Lower : sort::SplitHalf::Upper};
    co_await sort::run_schedule(ctx, std::span(&step, 1), block,
                                sort::ExchangeProtocol::HalfExchange);
  };
  EXPECT_THROW(machine.run(program), std::runtime_error);
}

TEST(ErrorPaths, SorterRejectsMismatchedDimension) {
  EXPECT_THROW(core::FaultTolerantSorter(4, fault::FaultSet(5, {1})),
               ContractViolation);
}

TEST(ErrorPaths, SorterRejectsDisconnectedLinkConfiguration) {
  // Cutting every link of healthy node 0 strands it.
  cube::LinkSet dead(2, {cube::Link{0, 0}, cube::Link{0, 1}});
  EXPECT_THROW(
      core::FaultTolerantSorter(2, fault::FaultSet(2), dead),
      ContractViolation);
}

TEST(ErrorPaths, MachineRejectsReentrantRun) {
  sim::Machine machine(0, fault::FaultSet(0));
  const auto program = [&](sim::NodeCtx& ctx) -> sim::Task {
    (void)ctx;
    co_return;
  };
  // A run inside a run is impossible via the public API (run is
  // synchronous), so just check the happy path leaves it reusable.
  machine.run(program);
  machine.run(program);
  SUCCEED();
}

TEST(BeyondPaper, VeryLargeKeyCountsStaySorted) {
  util::Rng rng(5);
  const auto faults = fault::random_faults(6, 3, rng);
  const auto keys = sort::gen_uniform(1'000'000, rng);
  core::FaultTolerantSorter sorter(6, faults);
  const auto outcome = sorter.sort(keys);
  EXPECT_EQ(outcome.sorted.size(), keys.size());
  EXPECT_TRUE(std::is_sorted(outcome.sorted.begin(),
                             outcome.sorted.end()));
}

TEST(HostIo, SortsAndRaisesMakespan) {
  util::Rng rng(7);
  const auto faults = fault::random_faults(5, 2, rng);
  const auto keys = sort::gen_uniform(5'000, rng);
  core::SortConfig plain;
  core::SortConfig hosted;
  hosted.charge_host_io = true;
  const auto a = core::FaultTolerantSorter(5, faults, plain).sort(keys);
  const auto b = core::FaultTolerantSorter(5, faults, hosted).sort(keys);
  EXPECT_EQ(a.sorted, b.sorted);
  // The host link serialises all M keys twice (in and out).
  const double host_link_floor =
      2.0 * 5'000 * core::SortConfig{}.cost.t_transfer;
  EXPECT_GE(b.report.makespan, a.report.makespan + host_link_floor * 0.9);
}

TEST(HostIo, WorksWithFaultyLowAddresses) {
  // Entry selection must skip faulty/dangling low addresses.
  util::Rng rng(8);
  const auto keys = sort::gen_uniform(500, rng);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  core::SortConfig hosted;
  hosted.charge_host_io = true;
  const fault::FaultSet faults(4, {0, 1});
  const auto outcome =
      core::FaultTolerantSorter(4, faults, hosted).sort(keys);
  EXPECT_EQ(outcome.sorted, expected);
}

TEST(HostIo, ThreadedExecutorAgrees) {
  util::Rng rng(9);
  const auto faults = fault::random_faults(4, 2, rng);
  const auto keys = sort::gen_uniform(800, rng);
  core::SortConfig hosted;
  hosted.charge_host_io = true;
  core::SortConfig hosted_threaded = hosted;
  hosted_threaded.executor = core::Executor::Threaded;
  const auto a = core::FaultTolerantSorter(4, faults, hosted).sort(keys);
  const auto b =
      core::FaultTolerantSorter(4, faults, hosted_threaded).sort(keys);
  EXPECT_EQ(a.sorted, b.sorted);
  EXPECT_DOUBLE_EQ(a.report.makespan, b.report.makespan);
}

TEST(BeyondPaper, SingleNodeCube) {
  // Q_0: one processor, no faults possible, pure local sort.
  util::Rng rng(6);
  const auto keys = sort::gen_uniform(100, rng);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  core::FaultTolerantSorter sorter(0, fault::FaultSet(0));
  const auto outcome = sorter.sort(keys);
  EXPECT_EQ(outcome.sorted, expected);
  EXPECT_EQ(outcome.report.messages, 0u);
}

}  // namespace
}  // namespace ftsort
