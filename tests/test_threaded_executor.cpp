// Tests for the MIMD (worker-pool) executor: identical results and logical
// times to the deterministic scheduler, its stall detection, and the pool's
// two promises: node programs run concurrently, on a bounded pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <thread>

#include "core/ft_sorter.hpp"
#include "fault/scenario.hpp"
#include "sim/machine.hpp"
#include "sort/distribution.hpp"
#include "util/rng.hpp"

namespace ftsort {
namespace {

TEST(ThreadedExecutor, PingPongMatchesSequential) {
  const auto make_program = [](std::vector<sim::Key>& sink) {
    return [&sink](sim::NodeCtx& ctx) -> sim::Task {
      if (ctx.id() == 0) {
        ctx.send(1, 1, {5, 6, 7});
        sim::Message reply = co_await ctx.recv(1, 2);
        sink = reply.payload.vec();
      } else {
        sim::Message msg = co_await ctx.recv(0, 1);
        ctx.send(0, 2, std::move(msg.payload));
      }
    };
  };
  std::vector<sim::Key> seq_sink;
  std::vector<sim::Key> thr_sink;
  sim::Machine a(1, fault::FaultSet(1));
  const auto seq = a.run(make_program(seq_sink));
  sim::Machine b(1, fault::FaultSet(1));
  const auto thr = b.run_threaded(make_program(thr_sink));
  EXPECT_EQ(seq_sink, thr_sink);
  EXPECT_DOUBLE_EQ(seq.makespan, thr.makespan);
  EXPECT_EQ(seq.messages, thr.messages);
  EXPECT_EQ(seq.keys_sent, thr.keys_sent);
}

TEST(ThreadedExecutor, AllToAllExchangeCompletes) {
  // Every node sends to every other node and receives from every other
  // node — maximal mailbox contention.
  const cube::Dim n = 4;
  sim::Machine machine(n, fault::FaultSet(n));
  std::vector<std::uint64_t> sums(cube::num_nodes(n), 0);
  const auto program = [&](sim::NodeCtx& ctx) -> sim::Task {
    for (cube::NodeId v = 0; v < cube::num_nodes(n); ++v)
      if (v != ctx.id())
        ctx.send(v, 7, {static_cast<sim::Key>(ctx.id())});
    for (cube::NodeId v = 0; v < cube::num_nodes(n); ++v) {
      if (v == ctx.id()) continue;
      sim::Message msg = co_await ctx.recv(v, 7);
      sums[ctx.id()] += static_cast<std::uint64_t>(msg.payload[0]);
    }
  };
  const auto report = machine.run_threaded(program);
  const std::uint64_t total = (16 * 15) / 2;  // sum of all ids
  for (cube::NodeId u = 0; u < cube::num_nodes(n); ++u)
    EXPECT_EQ(sums[u], total - u);
  EXPECT_EQ(report.messages, 16u * 15u);
}

TEST(ThreadedExecutor, StallDetection) {
  sim::Machine machine(1, fault::FaultSet(1));
  const auto program = [](sim::NodeCtx& ctx) -> sim::Task {
    sim::Message msg = co_await ctx.recv(ctx.id() ^ 1u, 9);  // never sent
    (void)msg;
  };
  EXPECT_THROW(machine.run_threaded(program), sim::DeadlockError);
}

TEST(ThreadedExecutor, NodeExceptionPropagates) {
  sim::Machine machine(1, fault::FaultSet(1));
  const auto program = [](sim::NodeCtx& ctx) -> sim::Task {
    if (ctx.id() == 1) throw std::runtime_error("thread boom");
    co_return;
  };
  EXPECT_THROW(machine.run_threaded(program), std::runtime_error);
}

TEST(ThreadedExecutor, FullSortMatchesSequentialExactly) {
  util::Rng rng(31);
  const auto faults = fault::random_faults(5, 3, rng);
  const auto keys = sort::gen_uniform(2'000, rng);
  core::SortConfig seq_cfg;
  core::SortConfig thr_cfg;
  thr_cfg.executor = core::Executor::Threaded;
  const auto seq = core::FaultTolerantSorter(5, faults, seq_cfg).sort(keys);
  const auto thr = core::FaultTolerantSorter(5, faults, thr_cfg).sort(keys);
  EXPECT_EQ(seq.sorted, thr.sorted);
  EXPECT_DOUBLE_EQ(seq.report.makespan, thr.report.makespan);
  EXPECT_EQ(seq.report.messages, thr.report.messages);
  EXPECT_EQ(seq.report.comparisons, thr.report.comparisons);
  EXPECT_EQ(seq.report.node_clocks, thr.report.node_clocks);
}

TEST(ThreadedExecutor, SixtyFourThreadsSortQ6) {
  util::Rng rng(32);
  const auto faults = fault::random_faults(6, 5, rng);
  const auto keys = sort::gen_uniform(4'000, rng);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  core::SortConfig cfg;
  cfg.executor = core::Executor::Threaded;
  const auto outcome =
      core::FaultTolerantSorter(6, faults, cfg).sort(keys);
  EXPECT_EQ(outcome.sorted, expected);
}

TEST(ThreadedExecutor, RunsNodeProgramsConcurrently) {
  // Each node program arrives, then waits outside any NodeCtx call until
  // both have arrived: only two coroutines running at once see 2. The
  // wall-clock limit turns a serialising pool into a failure, not a hang.
  sim::Machine machine(1, fault::FaultSet(1));
  std::atomic<int> arrived{0};
  std::array<int, 2> seen{};
  const auto program = [&](sim::NodeCtx& ctx) -> sim::Task {
    arrived.fetch_add(1);
    const auto limit =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < 2 && std::chrono::steady_clock::now() < limit)
      std::this_thread::yield();
    seen[ctx.id()] = arrived.load();
    co_return;
  };
  machine.run_threaded(program);
  EXPECT_EQ(seen[0], 2);
  EXPECT_EQ(seen[1], 2);
}

TEST(ThreadedExecutor, UsesABoundedWorkerPool) {
  // The benchmark's plumbing-bound shape: 253 healthy nodes on Q_8.
  util::Rng rng(1);
  const auto faults = fault::random_faults(8, 3, rng);
  const auto keys = sort::gen_uniform(4'096, rng);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  core::SortConfig cfg;
  cfg.executor = core::Executor::Threaded;
  cfg.profile_host = true;
  const auto outcome = core::FaultTolerantSorter(8, faults, cfg).sort(keys);
  EXPECT_EQ(outcome.sorted, expected);
  EXPECT_EQ(outcome.report.host.shards.size(),
            std::min<std::size_t>(
                253, std::max(2u, std::thread::hardware_concurrency())));
}

TEST(ThreadedExecutor, MachineReusableAcrossExecutors) {
  sim::Machine machine(1, fault::FaultSet(1));
  const auto program = [](sim::NodeCtx& ctx) -> sim::Task {
    if (ctx.id() == 0) ctx.send(1, 1, {1});
    else {
      sim::Message m = co_await ctx.recv(0, 1);
      (void)m;
    }
  };
  const auto a = machine.run(program);
  const auto b = machine.run_threaded(program);
  const auto c = machine.run(program);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.makespan, c.makespan);
}

}  // namespace
}  // namespace ftsort
