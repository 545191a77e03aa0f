// Randomized equivalence sweep: the sequential scheduler and the
// thread-per-node MIMD executor must produce byte-identical RunReports —
// makespan, traffic, per-node clocks — for the same program, including runs
// where the fault injector kills processors mid-sort and the online
// recovery protocol renegotiates. The logical clocks depend only on message
// causality, never on host scheduling; this sweep is the evidence.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/ft_sorter.hpp"
#include "sort/distribution.hpp"
#include "util/rng.hpp"

namespace ftsort {
namespace {

struct Shape {
  const char* name;
  cube::Dim n;
  std::vector<cube::NodeId> static_faults;
  std::size_t keys;
};

const Shape kShapes[] = {
    {"q3_fault_free", 3, {}, 220},
    {"q3_one_fault", 3, {5}, 200},
    {"q4_two_faults", 4, {3, 12}, 340},
};

/// Outcome of one run, flattened for equality comparison. A degraded run
/// records the diagnostic instead of the report.
struct Result {
  bool degraded = false;
  std::string degrade_reason;
  std::vector<sort::Key> sorted;
  sim::RunReport report;
};

Result run_once(const Shape& shape, const std::vector<sort::Key>& keys,
                const sim::FaultInjector& injector, core::Executor exec) {
  core::SortConfig cfg;
  cfg.online_recovery = true;
  cfg.executor = exec;
  cfg.injector = injector;
  // Per-node, per-phase counters are charged from message causality only,
  // so the whole snapshot must match across executors too (compared in
  // expect_identical).
  cfg.record_metrics = true;
  // Same discipline for the per-link traffic matrix: integer counters
  // summed commutatively, so the snapshot is byte-identical too.
  cfg.record_link_stats = true;
  core::FaultTolerantSorter sorter(
      shape.n, fault::FaultSet(shape.n, shape.static_faults), cfg);
  Result r;
  try {
    auto out = sorter.sort(keys);
    r.sorted = std::move(out.sorted);
    r.report = std::move(out.report);
  } catch (const core::DegradationError& e) {
    r.degraded = true;
    r.degrade_reason = e.what();
  }
  return r;
}

void expect_identical(const Result& a, const Result& b,
                      const std::string& label) {
  ASSERT_EQ(a.degraded, b.degraded) << label;
  if (a.degraded) {
    EXPECT_EQ(a.degrade_reason, b.degrade_reason) << label;
    return;
  }
  EXPECT_EQ(a.sorted, b.sorted) << label;
  EXPECT_DOUBLE_EQ(a.report.makespan, b.report.makespan) << label;
  EXPECT_EQ(a.report.messages, b.report.messages) << label;
  EXPECT_EQ(a.report.keys_sent, b.report.keys_sent) << label;
  EXPECT_EQ(a.report.key_hops, b.report.key_hops) << label;
  EXPECT_EQ(a.report.comparisons, b.report.comparisons) << label;
  EXPECT_EQ(a.report.messages_dropped, b.report.messages_dropped) << label;
  EXPECT_EQ(a.report.timeouts, b.report.timeouts) << label;
  EXPECT_EQ(a.report.node_clocks, b.report.node_clocks) << label;
  EXPECT_EQ(a.report.killed_nodes, b.report.killed_nodes) << label;
  EXPECT_TRUE(a.report.metrics == b.report.metrics) << label;
  EXPECT_TRUE(a.report.phases == b.report.phases) << label;
  EXPECT_TRUE(a.report.links == b.report.links) << label;
  EXPECT_TRUE(a.report.reindex_audit == b.report.reindex_audit) << label;
  // A payload buffer belongs to one node at a time, so the pool ledger
  // follows each node's program order and not the host's timing.
  EXPECT_EQ(a.report.pool_delta.checkouts, b.report.pool_delta.checkouts)
      << label;
  EXPECT_EQ(a.report.pool_delta.fresh, b.report.pool_delta.fresh) << label;
  EXPECT_EQ(a.report.pool_delta.grows, b.report.pool_delta.grows) << label;
  EXPECT_EQ(a.report.pool_delta.returns, b.report.pool_delta.returns)
      << label;
  // Conservation must hold on every swept run: the traffic matrix's total
  // key-hops is exactly the aggregate scalar (drops included on both
  // sides).
  EXPECT_EQ(a.report.links.grand_total().key_hops, a.report.key_hops)
      << label;
}

class ExecutorEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExecutorEquivalence, InjectedFaultRunsMatchByteForByte) {
  const Shape& shape = kShapes[GetParam()];
  // Baseline makespan of the fault-free-injection run, used to place kill
  // times somewhere meaningful.
  util::Rng seed_rng(0xabcdef);
  const auto probe_keys = sort::gen_uniform(shape.keys, seed_rng);
  const Result probe = run_once(shape, probe_keys, {},
                                core::Executor::Sequential);
  ASSERT_FALSE(probe.degraded);
  const sim::SimTime t0 = probe.report.makespan;

  for (std::uint64_t seed = 1; seed <= 55; ++seed) {
    util::Rng rng(seed * 1000003 + GetParam());
    const auto keys = sort::gen_uniform(shape.keys, rng);

    sim::FaultInjector injector;
    // Half the seeds run fault-free; the rest kill 1-2 random healthy
    // nodes (possibly the coordinator — the degrade paths must agree too).
    if (seed % 2 == 0) {
      const int kills = 1 + static_cast<int>(rng.below(2));
      for (int k = 0; k < kills; ++k) {
        cube::NodeId victim;
        do {
          victim =
              static_cast<cube::NodeId>(rng.below(cube::num_nodes(shape.n)));
        } while (fault::FaultSet(shape.n, shape.static_faults)
                     .is_faulty(victim));
        injector.kill_node_at(victim, (0.05 + 0.9 * rng.uniform01()) * t0);
      }
    }

    const Result seq =
        run_once(shape, keys, injector, core::Executor::Sequential);
    const Result thr =
        run_once(shape, keys, injector, core::Executor::Threaded);
    expect_identical(seq, thr,
                     std::string(shape.name) + " seed " +
                         std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(AllShapes, ExecutorEquivalence,
                         ::testing::Values(std::size_t{0}, std::size_t{1},
                                           std::size_t{2}),
                         [](const auto& param_info) {
                           return kShapes[param_info.param].name;
                         });

// The coalesced exchange under cut-through routing (the full exchange, as
// a cut-through configuration sets it) must preserve executor
// equivalence: fewer, larger messages through the same pool, byte-identical
// reports across schedulers.
TEST(ExecutorEquivalence, CoalescedCutThroughRunsMatchByteForByte) {
  const Shape& shape = kShapes[2];  // q4_two_faults
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed * 7919);
    const auto keys = sort::gen_uniform(shape.keys, rng);
    Result results[2];
    for (const auto exec :
         {core::Executor::Sequential, core::Executor::Threaded}) {
      core::SortConfig cfg;
      cfg.executor = exec;
      cfg.cost = sim::CostModel::wormhole();
      cfg.protocol = sort::ExchangeProtocol::FullExchange;
      cfg.record_metrics = true;
      cfg.record_link_stats = true;
      core::FaultTolerantSorter sorter(
          shape.n, fault::FaultSet(shape.n, shape.static_faults), cfg);
      auto out = sorter.sort(keys);
      Result& r = results[exec == core::Executor::Threaded ? 1 : 0];
      r.sorted = std::move(out.sorted);
      r.report = std::move(out.report);
    }
    expect_identical(results[0], results[1],
                     "coalesced seed " + std::to_string(seed));
  }
}

// Offline (non-recovery) sorts must stay equivalent as well — the injector
// rewrite must not disturb the fault-free fast path.
TEST(ExecutorEquivalence, OfflineSortsMatchAcrossExecutors) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    util::Rng rng(seed);
    const auto keys = sort::gen_uniform(150, rng);
    core::SortConfig seq_cfg;
    core::SortConfig thr_cfg;
    thr_cfg.executor = core::Executor::Threaded;
    core::FaultTolerantSorter a(3, fault::FaultSet(3, {2}), seq_cfg);
    core::FaultTolerantSorter b(3, fault::FaultSet(3, {2}), thr_cfg);
    const auto ra = a.sort(keys);
    const auto rb = b.sort(keys);
    EXPECT_EQ(ra.sorted, rb.sorted);
    EXPECT_DOUBLE_EQ(ra.report.makespan, rb.report.makespan);
    EXPECT_EQ(ra.report.messages, rb.report.messages);
    EXPECT_EQ(ra.report.node_clocks, rb.report.node_clocks);
  }
}

}  // namespace
}  // namespace ftsort
