// DeadlockError diagnostics: a stalled program must fail fast with a
// message naming every blocked node and the (src, tag) channel it awaits,
// identically on both executors.
#include <gtest/gtest.h>

#include <string>

#include "core/ft_sorter.hpp"
#include "sim/machine.hpp"
#include "sort/distribution.hpp"
#include "util/rng.hpp"

namespace ftsort {
namespace {

// Node 0 awaits (1, 9); node 1 awaits (2, 8); nodes 2 and 3 exit at once.
// Nothing is ever sent: a genuine deadlock with two distinct blocked waits.
sim::Machine::Program stalled_program() {
  return [](sim::NodeCtx& ctx) -> sim::Task {
    if (ctx.id() == 0) {
      co_await ctx.recv(1, 9);
    } else if (ctx.id() == 1) {
      co_await ctx.recv(2, 8);
    }
    co_return;
  };
}

TEST(Deadlock, MessageNamesEveryBlockedNodeAndChannel) {
  sim::Machine machine(2, fault::FaultSet(2));
  try {
    machine.run(stalled_program());
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("node 0 waits for src=1 tag=9"), std::string::npos)
        << what;
    EXPECT_NE(what.find("node 1 waits for src=2 tag=8"), std::string::npos)
        << what;
    // Finished nodes are not blamed.
    EXPECT_EQ(what.find("node 2"), std::string::npos) << what;
    EXPECT_EQ(what.find("node 3"), std::string::npos) << what;
  }
}

TEST(Deadlock, ThreadedExecutorReportsTheSameBlockedSet) {
  std::string seq_what;
  std::string thr_what;
  {
    sim::Machine machine(2, fault::FaultSet(2));
    try {
      machine.run(stalled_program());
    } catch (const sim::DeadlockError& e) {
      seq_what = e.what();
    }
  }
  {
    sim::Machine machine(2, fault::FaultSet(2));
    try {
      machine.run_threaded(stalled_program());
    } catch (const sim::DeadlockError& e) {
      thr_what = e.what();
    }
  }
  ASSERT_FALSE(seq_what.empty());
  EXPECT_EQ(seq_what, thr_what);
}

TEST(Deadlock, PartialWaitChainIsFullyListed) {
  // A chain: 0 waits on 1, 1 waits on 2, 2 waits on 3, 3 exits. All three
  // blocked nodes must appear.
  const auto program = [](sim::NodeCtx& ctx) -> sim::Task {
    if (ctx.id() < 3) co_await ctx.recv(ctx.id() + 1, 4);
    co_return;
  };
  sim::Machine machine(2, fault::FaultSet(2));
  try {
    machine.run(program);
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    const std::string what = e.what();
    for (int u = 0; u < 3; ++u) {
      EXPECT_NE(what.find("node " + std::to_string(u) + " waits for src=" +
                          std::to_string(u + 1) + " tag=4"),
                std::string::npos)
          << what;
    }
  }
}

// Without online recovery, a mid-sort death leaves the victim's partners
// blocked forever — the run must end in DeadlockError (never a hang), with
// the same diagnostic on both executors. This is the offline-diagnosis
// model's failure mode that the recovery engine exists to fix.
TEST(Deadlock, InjectedDeathWithoutRecoveryDeadlocksDeterministically) {
  util::Rng rng(5);
  const auto keys = sort::gen_uniform(160, rng);

  // Baseline makespan to aim the kill mid-run.
  core::SortConfig probe;
  core::FaultTolerantSorter probe_sorter(3, fault::FaultSet(3), probe);
  const sim::SimTime t0 = probe_sorter.sort(keys).report.makespan;

  const auto run = [&](core::Executor exec) -> std::string {
    core::SortConfig cfg;
    cfg.executor = exec;
    cfg.injector.kill_node_at(6, 0.5 * t0);
    core::FaultTolerantSorter sorter(3, fault::FaultSet(3), cfg);
    try {
      sorter.sort(keys);
    } catch (const sim::DeadlockError& e) {
      return e.what();
    }
    return {};
  };

  const std::string seq_what = run(core::Executor::Sequential);
  const std::string thr_what = run(core::Executor::Threaded);
  ASSERT_FALSE(seq_what.empty()) << "sequential run did not deadlock";
  EXPECT_EQ(seq_what, thr_what);
  EXPECT_NE(seq_what.find("waits for src="), std::string::npos);
}

// Pinned failure-explainer scenario: node 0 is inside the paper's Step 5
// merge-exchange when its partner is killed by the injector, so the
// deadlock message must carry (a) the blocked set with its wait-for
// channel, (b) the ambient-phase tag of each blocked node, and (c) the
// diagnosis naming the injected kill as root cause with the transitively
// stalled set — byte-identical on both executors.
TEST(Deadlock, PhaseTagAndRootCauseAreIdenticalAcrossExecutors) {
  const auto program = [](sim::NodeCtx& ctx) -> sim::Task {
    if (ctx.id() == 0) {
      const sim::PhaseSpan span = ctx.span(sim::Phase::MergeExchange);
      co_await ctx.recv(1, 7);
    } else if (ctx.id() == 1) {
      // Blocks on a channel nobody serves; the injector reaps it at t=1.
      co_await ctx.recv(0, 99);
    }
    co_return;
  };
  const auto run = [&](bool threaded) -> std::string {
    sim::Machine machine(2, fault::FaultSet(2));
    sim::FaultInjector injector;
    injector.kill_node_at(1, 1.0);
    machine.set_injector(std::move(injector));
    machine.trace().enable();
    try {
      if (threaded)
        machine.run_threaded(program);
      else
        machine.run(program);
    } catch (const sim::DeadlockError& e) {
      return e.what();
    }
    return {};
  };

  const std::string seq_what = run(false);
  const std::string thr_what = run(true);
  ASSERT_FALSE(seq_what.empty()) << "expected DeadlockError";
  // Blocked set + channel + phase tag.
  EXPECT_NE(seq_what.find("node 0 waits for src=1 tag=7 "
                          "[step5_merge_exchange]"),
            std::string::npos)
      << seq_what;
  // Root cause and blast radius from the attached diagnosis.
  EXPECT_NE(seq_what.find("injected kill of node 1"), std::string::npos)
      << seq_what;
  EXPECT_NE(seq_what.find("stalled (transitively): [0]"), std::string::npos)
      << seq_what;
  // The victim is dead, not blocked: it must not be blamed as a waiter.
  EXPECT_EQ(seq_what.find("node 1 waits for"), std::string::npos)
      << seq_what;
  EXPECT_EQ(seq_what, thr_what);
}

}  // namespace
}  // namespace ftsort
