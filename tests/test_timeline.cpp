// Sim-time sampler (sim::Timeline) and the recovery-latency
// decomposition (RunReport::recovery_latency).
//
// Both are logical-clock artifacts: every series is bucketed by
// deterministic event timestamps, never host scheduling, so snapshots
// must be identical across executors, and enabling either must charge
// zero simulated time. The suites all start with "Timeline" so the tsan
// preset's name filter picks them up.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/ft_sorter.hpp"
#include "core/outcome.hpp"
#include "fault/scenario.hpp"
#include "sim/exporters.hpp"
#include "sim/phase.hpp"
#include "sort/distribution.hpp"
#include "util/rng.hpp"

namespace ftsort {
namespace {

// The pinned fig7 flagship (fault-free path) and the pinned recovery
// scenario (node 6 dies mid-sort), as used across the observability
// suites — same seeds, so golden values stay comparable.

core::SortOutcome run_fig7(core::Executor exec, bool timeline,
                           double tick = 1000.0,
                           std::size_t trace_capacity = 0) {
  util::Rng rng(1706);
  const fault::FaultSet faults = fault::random_faults(6, 2, rng);
  const auto keys = sort::gen_uniform(3'200, rng);
  core::SortConfig cfg;
  cfg.protocol = sort::ExchangeProtocol::FullExchange;
  cfg.executor = exec;
  cfg.record_metrics = true;
  cfg.record_trace = true;
  cfg.record_link_stats = true;
  cfg.trace_capacity = trace_capacity;
  cfg.record_timeline = timeline;
  cfg.timeline_tick = tick;
  const core::FaultTolerantSorter sorter(6, faults, cfg);
  return sorter.sort(keys);
}

core::SortOutcome run_recovery(core::Executor exec, bool timeline = true) {
  util::Rng rng(1703);
  const fault::FaultSet faults = fault::random_faults(3, 1, rng);
  const auto keys = sort::gen_uniform(200, rng);
  core::SortConfig cfg;
  cfg.executor = exec;
  cfg.online_recovery = true;
  cfg.injector.kill_node_at(6, 2000.0);
  cfg.record_metrics = true;
  cfg.record_trace = true;
  cfg.record_timeline = timeline;
  const core::FaultTolerantSorter sorter(3, faults, cfg);
  return sorter.sort(keys);
}

// ---------------------------------------------------------------------------
// Sampler basics: off by default, free when on, deterministic across
// executors.

TEST(TimelineSampler, DisabledByDefaultAndChargesNoSimTime) {
  const core::SortOutcome off = run_fig7(core::Executor::Sequential, false);
  EXPECT_FALSE(off.report.timeline.enabled);
  EXPECT_TRUE(off.report.timeline.empty());

  const core::SortOutcome on = run_fig7(core::Executor::Sequential, true);
  EXPECT_TRUE(on.report.timeline.enabled);
  EXPECT_FALSE(on.report.timeline.empty());
  // Sampling is observation only: every logical outcome is untouched.
  EXPECT_DOUBLE_EQ(off.report.makespan, on.report.makespan);
  EXPECT_EQ(off.report.comparisons, on.report.comparisons);
  EXPECT_EQ(off.report.messages, on.report.messages);
  EXPECT_EQ(off.report.key_hops, on.report.key_hops);
  EXPECT_TRUE(off.report.metrics == on.report.metrics);
  EXPECT_EQ(off.sorted, on.sorted);
}

TEST(TimelineSampler, ExecutorsProduceIdenticalSnapshots) {
  const core::SortOutcome seq = run_fig7(core::Executor::Sequential, true);
  const core::SortOutcome thr = run_fig7(core::Executor::Threaded, true);
  ASSERT_TRUE(seq.report.timeline.enabled);
  EXPECT_TRUE(seq.report.timeline == thr.report.timeline);
  EXPECT_GT(seq.report.timeline.ticks, 0u);
  EXPECT_EQ(seq.report.timeline.num_nodes, 64u);
  EXPECT_EQ(seq.report.timeline.dim, 6);
}

TEST(TimelineSampler, SeriesConserveAndPhaseRowsAreWellFormed) {
  const core::SortOutcome out = run_fig7(core::Executor::Sequential, true);
  const sim::TimelineSnapshot& tl = out.report.timeline;
  ASSERT_GT(tl.ticks, 0u);
  EXPECT_EQ(tl.dropped, 0u);

  // Nothing is in flight after the run: every enqueue was dequeued,
  // every checked-out payload buffer returned, every key landed.
  const std::size_t last = tl.ticks - 1;
  EXPECT_EQ(tl.total_queue_depth(last), 0);
  EXPECT_EQ(tl.total_pool_in_use(last), 0);
  for (const auto& dim_row : tl.keys_in_flight) {
    ASSERT_EQ(dim_row.size(), tl.ticks);
    EXPECT_EQ(dim_row.back(), 0);
  }
  // Depths are counts: never negative at any tick on any node.
  std::int64_t peak = 0;
  for (std::size_t t = 0; t < tl.ticks; ++t) {
    const std::int64_t q = tl.total_queue_depth(t);
    EXPECT_GE(q, 0) << "tick " << t;
    EXPECT_GE(tl.total_pool_in_use(t), 0) << "tick " << t;
    peak = std::max(peak, q);
  }
  EXPECT_GT(peak, 0);  // the sort did communicate

  // Phase rows carry either a real phase or the idle filler.
  ASSERT_EQ(tl.phase.size(), tl.num_nodes);
  for (const auto& row : tl.phase) {
    ASSERT_EQ(row.size(), tl.ticks);
    for (const std::uint8_t p : row)
      EXPECT_TRUE(p == sim::TimelineSnapshot::kIdle ||
                  p < sim::kPhaseCount);
  }
}

TEST(TimelineSampler, TickCapCountsDropsInsteadOfGrowing) {
  // A pathologically fine tick overflows the 4096-tick budget; the
  // sampler must saturate and count, never allocate unboundedly or
  // perturb the run.
  const core::SortOutcome out =
      run_fig7(core::Executor::Sequential, true, /*tick=*/0.25);
  const sim::TimelineSnapshot& tl = out.report.timeline;
  EXPECT_GT(tl.dropped, 0u);
  EXPECT_LE(tl.ticks, sim::kTimelineMaxTicks);
  const core::SortOutcome plain = run_fig7(core::Executor::Sequential, false);
  EXPECT_DOUBLE_EQ(out.report.makespan, plain.report.makespan);
}

// ---------------------------------------------------------------------------
// Exports: the metrics-JSON timeline block and the Perfetto counter
// tracks, including how the sampler interacts with ring eviction.

TEST(TimelineExport, MetricsJsonCarriesTimelineBlock) {
  const core::SortOutcome out = run_fig7(core::Executor::Sequential, true);
  std::ostringstream os;
  sim::write_metrics_json(os, out.report);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"timeline\": {\"enabled\": true"), std::string::npos);
  EXPECT_NE(json.find("\"samples\": ["), std::string::npos);
  EXPECT_NE(json.find("\"phase_mix\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"keys_in_flight\""), std::string::npos);
  // No recovery in this run: the decomposition stays a stub.
  EXPECT_NE(json.find("\"recovery_latency\": {\"enabled\": false}"),
            std::string::npos);
}

TEST(TimelineExport, ValidatorAcceptsTimelineCounterTracks) {
  const core::SortOutcome out = run_fig7(core::Executor::Sequential, true);
  sim::ChromeTraceOptions opts;
  opts.cost = &out.report.cost;
  opts.timeline = &out.report.timeline;
  std::ostringstream os;
  sim::write_chrome_trace(os, out.trace_events, 64, opts);
  const std::string json = os.str();
  std::string error;
  EXPECT_TRUE(sim::validate_chrome_trace(json, &error)) << error;
  EXPECT_NE(json.find("timeline_queue_depth"), std::string::npos);
  EXPECT_NE(json.find("timeline_pool_in_use"), std::string::npos);
  EXPECT_NE(json.find("timeline_keys_in_flight"), std::string::npos);
}

TEST(TimelineExport, SamplerSurvivesFlightRecorderEviction) {
  // A tiny ring evicts most trace events; the sampler keeps its own
  // storage, so the timeline must come out identical to the
  // full-capacity run's, alongside a nonzero trace_dropped count.
  const core::SortOutcome full = run_fig7(core::Executor::Sequential, true);
  const core::SortOutcome ring =
      run_fig7(core::Executor::Sequential, true, 1000.0,
               /*trace_capacity=*/64);
  EXPECT_EQ(full.report.trace_dropped, 0u);
  EXPECT_GT(ring.report.trace_dropped, 0u);
  EXPECT_TRUE(full.report.timeline == ring.report.timeline);

  // The timeline counter tracks stand alone: with every span evicted,
  // an export of just the sampler series still validates.
  sim::ChromeTraceOptions opts;
  opts.trace_dropped = ring.report.trace_dropped;
  opts.timeline = &ring.report.timeline;
  std::ostringstream os;
  sim::write_chrome_trace(os, {}, 64, opts);
  std::string error;
  EXPECT_TRUE(sim::validate_chrome_trace(os.str(), &error)) << error;
}

// ---------------------------------------------------------------------------
// Recovery-latency decomposition: the stages telescope exactly, agree
// with the detect watermark, and are executor-identical.

TEST(TimelineRecoveryLatency, StagesTelescopeExactlyToTheMakespan) {
  for (const core::Executor exec :
       {core::Executor::Sequential, core::Executor::Threaded}) {
    const core::SortOutcome out = run_recovery(exec);
    const sim::RecoveryLatency& rl = out.report.recovery_latency;
    ASSERT_TRUE(rl.enabled);
    ASSERT_FALSE(rl.episodes.empty());

    // Episode 0 is the injected kill of node 6 at t=2000.
    EXPECT_EQ(rl.episodes.front().attempt, 0u);
    ASSERT_FALSE(rl.episodes.front().dead.empty());
    EXPECT_EQ(rl.episodes.front().dead.front(), 6u);
    EXPECT_DOUBLE_EQ(rl.episodes.front().inject, 2000.0);

    // Stages are non-negative and contiguous within each episode...
    double total = 0.0;
    for (const sim::RecoveryEpisode& ep : rl.episodes) {
      EXPECT_GE(ep.detection(), 0.0);
      EXPECT_GE(ep.roll_call(), 0.0);
      EXPECT_GE(ep.salvage(), 0.0);
      EXPECT_GE(ep.restart(), 0.0);
      EXPECT_LE(ep.detect_first, ep.detect_confirm);
      total += ep.total();
    }
    // ...and telescope exactly: episode k's restart ends where episode
    // k+1's fault injects, so the stage sums cover injection-to-finish
    // with no gap and no overlap.
    EXPECT_DOUBLE_EQ(total,
                     out.report.makespan - rl.episodes.front().inject);
  }
}

TEST(TimelineRecoveryLatency, AgreesWithTheDetectWatermark) {
  const core::SortOutcome out = run_recovery(core::Executor::Sequential);
  const sim::RecoveryLatency& rl = out.report.recovery_latency;
  ASSERT_TRUE(rl.enabled);
  const double detect = core::detect_time(out.report);

  // The coordinator's final roll-call timeout fires exactly at the
  // diagnosis detect watermark (a timed-out receive's NodeCtx::take moves
  // the clock to the deadline), so confirmation and watermark match bit
  // for bit — and everything after the watermark is salvage + restart.
  EXPECT_DOUBLE_EQ(rl.episodes.back().detect_confirm, detect);
  EXPECT_DOUBLE_EQ(rl.episodes.back().rollcall_end, detect);
  EXPECT_DOUBLE_EQ(rl.salvage_total() + rl.restart_total(),
                   out.report.makespan - detect);
}

TEST(TimelineRecoveryLatency, ExecutorsProduceIdenticalDecompositions) {
  const core::SortOutcome seq = run_recovery(core::Executor::Sequential);
  const core::SortOutcome thr = run_recovery(core::Executor::Threaded);
  EXPECT_TRUE(seq.report.recovery_latency == thr.report.recovery_latency);
  EXPECT_TRUE(seq.report.timeline == thr.report.timeline);
}

TEST(TimelineRecoveryLatency, MetricsJsonCarriesEpisodes) {
  const core::SortOutcome out = run_recovery(core::Executor::Sequential);
  std::ostringstream os;
  sim::write_metrics_json(os, out.report);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"recovery_latency\": {\"enabled\": true"),
            std::string::npos);
  EXPECT_NE(json.find("\"episodes\": ["), std::string::npos);
  for (const char* key :
       {"detection_total", "roll_call_total", "salvage_total",
        "restart_total", "inject", "detect_first", "detect_confirm",
        "rollcall_end", "salvage_end", "restart_end", "dead"})
    EXPECT_NE(json.find(std::string("\"") + key + "\""), std::string::npos)
        << key;
}

}  // namespace
}  // namespace ftsort
