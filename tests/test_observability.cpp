// Observability suite: per-node per-phase metrics, phase spans, the
// critical-path breakdown, per-run pool deltas, and the JSON exporters.
//
// The metrics registry and span taxonomy are logical (charged from message
// causality, never host scheduling), so everything asserted here must hold
// byte-identically on both executors; the concurrency tests run under TSan
// via the tsan preset's test filter.
#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/ft_sorter.hpp"
#include "fault/scenario.hpp"
#include "sim/exporters.hpp"
#include "sort/distribution.hpp"
#include "util/rng.hpp"

namespace ftsort {
namespace {

// ---------------------------------------------------------------------------
// Trace under the threaded executor: the trace has no lock of its own, so
// every record() of a threaded run happens under the machine lock. TSan is
// the real assertion; the sequence must still be dense and each node's own
// events must keep program order.

TEST(ObservabilityTrace, ThreadedRunRecordsUnderTheMachineLock) {
  sim::Machine machine(2, fault::FaultSet(2));  // Q_2: four nodes
  machine.trace().enable();
  constexpr int kCharges = 2'000;
  const auto program = [](sim::NodeCtx& ctx) -> sim::Task {
    for (int i = 0; i < kCharges; ++i) ctx.charge_compares(1);
    co_return;
  };
  machine.run_threaded(program);
  const std::vector<sim::TraceEvent> events = machine.trace().snapshot();
  ASSERT_EQ(events.size(), 4u * kCharges);
  std::vector<double> last(4, 0.0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const sim::TraceEvent& ev = events[i];
    EXPECT_EQ(ev.seq, i);
    EXPECT_GT(ev.time, last[ev.node]) << "event " << i;
    last[ev.node] = ev.time;
  }
}

// ---------------------------------------------------------------------------
// Span mechanics: spans switch the ambient phase, nest, restore on exit
// and charge no simulated time.

TEST(ObservabilityTrace, SpansNestAndRestoreAmbientPhase) {
  sim::Machine machine(1, fault::FaultSet(1));  // Q_1: two nodes
  machine.trace().enable();
  machine.metrics().enable(machine.size());
  const auto program = [](sim::NodeCtx& ctx) -> sim::Task {
    EXPECT_EQ(ctx.phase(), sim::Phase::Unattributed);
    {
      const sim::PhaseSpan outer = ctx.span(sim::Phase::LocalSort);
      EXPECT_EQ(ctx.phase(), sim::Phase::LocalSort);
      ctx.charge_compares(10);
      {
        const sim::PhaseSpan inner = ctx.span(sim::Phase::MergeExchange);
        EXPECT_EQ(ctx.phase(), sim::Phase::MergeExchange);
        ctx.charge_compares(5);
      }
      EXPECT_EQ(ctx.phase(), sim::Phase::LocalSort);
      ctx.charge_compares(1);
    }
    EXPECT_EQ(ctx.phase(), sim::Phase::Unattributed);
    ctx.charge_compares(2);
    co_return;
  };
  const sim::RunReport report = machine.run(program);

  const sim::MetricsSnapshot& m = report.metrics;
  ASSERT_FALSE(m.empty());
  EXPECT_EQ(m.total(sim::Phase::LocalSort).comparisons, 22u);
  EXPECT_EQ(m.total(sim::Phase::MergeExchange).comparisons, 10u);
  EXPECT_EQ(m.total(sim::Phase::Unattributed).comparisons, 4u);
  EXPECT_EQ(m.grand_total().comparisons, report.comparisons);

  // Two nested spans per node appear as balanced begin/end events, and a
  // span costs nothing: the report must match an uninstrumented run.
  std::size_t begins = 0;
  std::size_t ends = 0;
  for (const sim::TraceEvent& ev : machine.trace().snapshot()) {
    begins += ev.kind == sim::EventKind::SpanBegin;
    ends += ev.kind == sim::EventKind::SpanEnd;
  }
  EXPECT_EQ(begins, 4u);
  EXPECT_EQ(ends, 4u);

  sim::Machine plain(1, fault::FaultSet(1));
  const auto bare = [](sim::NodeCtx& ctx) -> sim::Task {
    ctx.charge_compares(18);
    co_return;
  };
  const sim::RunReport plain_report = plain.run(bare);
  EXPECT_DOUBLE_EQ(report.makespan, plain_report.makespan);
}

// ---------------------------------------------------------------------------
// The pinned fig7 scenario (bench_harness's flagship): per-phase totals must
// sum exactly to the RunReport aggregates on both executors, and the two
// executors must produce byte-identical snapshots and breakdowns.

core::SortOutcome run_pinned_fig7(core::Executor exec) {
  util::Rng rng(1706);
  const fault::FaultSet faults = fault::random_faults(6, 2, rng);
  const auto keys = sort::gen_uniform(3'200, rng);
  core::SortConfig cfg;
  cfg.protocol = sort::ExchangeProtocol::FullExchange;
  cfg.executor = exec;
  cfg.record_metrics = true;
  cfg.record_trace = true;
  cfg.record_link_stats = true;
  const core::FaultTolerantSorter sorter(6, faults, cfg);
  return sorter.sort(keys);
}

TEST(ObservabilityMetrics, PhaseTotalsSumToReportAggregates) {
  for (const core::Executor exec :
       {core::Executor::Sequential, core::Executor::Threaded}) {
    const core::SortOutcome out = run_pinned_fig7(exec);
    const sim::PhaseCounters grand = out.report.metrics.grand_total();
    EXPECT_EQ(grand.comparisons, out.report.comparisons);
    EXPECT_EQ(grand.keys_sent, out.report.keys_sent);
    EXPECT_EQ(grand.key_hops, out.report.key_hops);
    EXPECT_EQ(grand.messages, out.report.messages);
    EXPECT_EQ(grand.messages_dropped, out.report.messages_dropped);
    EXPECT_EQ(grand.timeouts, out.report.timeouts);

    // The breakdown's slices are the same totals, phase by phase.
    sim::PhaseCounters from_slices;
    for (const sim::PhaseBreakdown::Slice& s : out.report.phases.slices)
      from_slices += s.counters;
    EXPECT_TRUE(from_slices == grand);
  }
}

TEST(ObservabilityMetrics, ExecutorsProduceIdenticalSnapshots) {
  const core::SortOutcome seq = run_pinned_fig7(core::Executor::Sequential);
  const core::SortOutcome thr = run_pinned_fig7(core::Executor::Threaded);
  EXPECT_TRUE(seq.report.metrics == thr.report.metrics);
  EXPECT_TRUE(seq.report.phases == thr.report.phases);
  EXPECT_DOUBLE_EQ(seq.report.makespan, thr.report.makespan);
}

// Golden breakdown for the pinned scenario. These values are behavior: a
// diff means either the algorithm's work moved between phases or the
// attribution rules changed — both belong in a review, not in noise.
TEST(ObservabilityMetrics, GoldenPhaseBreakdownFig7) {
  const core::SortOutcome out = run_pinned_fig7(core::Executor::Sequential);
  const sim::PhaseBreakdown& bd = out.report.phases;
  ASSERT_FALSE(bd.empty());
  ASSERT_TRUE(bd.has_critical_path);

  const auto& local = bd.of(sim::Phase::LocalSort);
  EXPECT_EQ(local.counters.comparisons, 27'075u);
  EXPECT_EQ(local.counters.messages, 0u);
  EXPECT_DOUBLE_EQ(local.critical_time, 860.0);

  const auto& subcube = bd.of(sim::Phase::SubcubeSort);
  EXPECT_EQ(subcube.counters.comparisons, 46'800u);
  EXPECT_EQ(subcube.counters.keys_sent, 46'800u);
  EXPECT_EQ(subcube.counters.messages, 900u);
  EXPECT_DOUBLE_EQ(subcube.critical_time, 7'838.0);

  const auto& merge = bd.of(sim::Phase::MergeExchange);
  EXPECT_EQ(merge.counters.comparisons, 3'224u);
  EXPECT_EQ(merge.counters.keys_sent, 3'224u);
  EXPECT_EQ(merge.counters.messages, 62u);
  EXPECT_DOUBLE_EQ(merge.critical_time, 1'768.0);

  const auto& resort = bd.of(sim::Phase::Resort);
  EXPECT_EQ(resort.counters.comparisons, 15'600u);
  EXPECT_EQ(resort.counters.keys_sent, 17'160u);
  EXPECT_EQ(resort.counters.messages, 330u);
  EXPECT_DOUBLE_EQ(resort.critical_time, 4'264.0);

  // Nothing leaks into the catch-all bucket, and the walk telescopes to the
  // makespan exactly.
  EXPECT_TRUE(bd.of(sim::Phase::Unattributed).counters ==
              sim::PhaseCounters{});
  EXPECT_DOUBLE_EQ(bd.of(sim::Phase::Unattributed).critical_time, 0.0);
  EXPECT_DOUBLE_EQ(bd.critical_total, out.report.makespan);
  EXPECT_DOUBLE_EQ(out.report.makespan, 14'730.0);
}

TEST(ObservabilityMetrics, OffByDefaultLeavesReportEmpty) {
  util::Rng rng(1706);
  const fault::FaultSet faults = fault::random_faults(6, 2, rng);
  const auto keys = sort::gen_uniform(400, rng);
  const core::FaultTolerantSorter sorter(6, faults, core::SortConfig{});
  const core::SortOutcome out = sorter.sort(keys);
  EXPECT_TRUE(out.report.metrics.empty());
  EXPECT_TRUE(out.report.phases.empty());
  EXPECT_TRUE(out.trace_events.empty());
}

// ---------------------------------------------------------------------------
// Pool accounting: the pools stay warm over the Machine's lifetime, and
// pool_delta is this run's slice of their ledger.

TEST(ObservabilityPool, PoolDeltaIsPerRunWhilePoolIsCumulative) {
  sim::Machine machine(2, fault::FaultSet(2));
  const auto program = [](sim::NodeCtx& ctx) -> sim::Task {
    if (ctx.id() == 0) {
      // The span overload copies through the sender's buffer pool (the
      // vector&& overload adopts storage and would bypass it).
      const std::vector<sim::Key> payload{1, 2, 3};
      ctx.send(1, 1, std::span<const sim::Key>(payload));
    } else if (ctx.id() == 1) {
      const sim::Message m = co_await ctx.recv(0, 1);
      (void)m;
    }
    co_return;
  };
  const sim::RunReport r1 = machine.run(program);
  const sim::RunReport r2 = machine.run(program);
  ASSERT_GT(r1.pool_delta.checkouts, 0u);
  // Identical runs, identical per-run deltas...
  EXPECT_EQ(r1.pool_delta.checkouts, r2.pool_delta.checkouts);
  EXPECT_EQ(r1.pool_delta.returns, r2.pool_delta.returns);
  // ...except that the second run reuses the buffer the first one returned.
  EXPECT_EQ(r1.pool_delta.heap_allocations(), 1u);
  EXPECT_EQ(r2.pool_delta.heap_allocations(), 0u);
}

// ---------------------------------------------------------------------------
// Exporters: structurally valid JSON with the shapes CI's schema gate and
// Perfetto both rely on.

bool braces_balance(const std::string& text) {
  long depth = 0;
  for (char c : text) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return depth == 0;
}

TEST(ObservabilityExport, ChromeTraceIsWellFormed) {
  const core::SortOutcome out = run_pinned_fig7(core::Executor::Sequential);
  ASSERT_FALSE(out.trace_events.empty());
  std::ostringstream os;
  sim::write_chrome_trace(os, out.trace_events, 64);
  const std::string json = os.str();
  EXPECT_TRUE(braces_balance(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);  // span begin
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);  // span end
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);  // flow start
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);  // flow finish
  EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);
}

TEST(ObservabilityExport, CounterTracksDecomposeTrafficPerDimension) {
  const core::SortOutcome out = run_pinned_fig7(core::Executor::Sequential);
  ASSERT_FALSE(out.trace_events.empty());
  sim::ChromeTraceOptions opts;
  opts.cost = &out.report.cost;
  opts.trace_dropped = out.report.trace_dropped;
  std::ostringstream os;
  sim::write_chrome_trace(os, out.trace_events, 64, opts);
  const std::string json = os.str();
  EXPECT_TRUE(braces_balance(json));
  // Both counter tracks present, sampled with "C" events, one series per
  // cube dimension.
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"keys_in_flight\""), std::string::npos);
  EXPECT_NE(json.find("\"link_busy_us\""), std::string::npos);
  for (int d = 0; d < 6; ++d)
    EXPECT_NE(json.find("\"dim" + std::to_string(d) + "\""),
              std::string::npos)
        << d;
  // Eviction annotation rides as metadata (count 0: complete export).
  EXPECT_NE(json.find("\"trace_dropped\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 0"), std::string::npos);
  // The plain overload emits no counters.
  std::ostringstream plain;
  sim::write_chrome_trace(plain, out.trace_events, 64);
  EXPECT_EQ(plain.str().find("\"ph\": \"C\""), std::string::npos);
}

TEST(ObservabilityExport, ValidatorAcceptsCounterTracks) {
  const core::SortOutcome out = run_pinned_fig7(core::Executor::Sequential);
  sim::ChromeTraceOptions opts;
  opts.cost = &out.report.cost;
  std::ostringstream os;
  sim::write_chrome_trace(os, out.trace_events, 64, opts);
  std::string error;
  EXPECT_TRUE(sim::validate_chrome_trace(os.str(), &error)) << error;
  // A counter needs its timestamp: stripping "ts" must fail validation.
  EXPECT_FALSE(sim::validate_chrome_trace(
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["
      "{\"name\": \"keys_in_flight\", \"ph\": \"C\", \"pid\": 0, "
      "\"args\": {\"dim0\": 1}}]}"));
}

TEST(ObservabilityExport, MetricsJsonContainsEveryPhaseAndKey) {
  const core::SortOutcome out = run_pinned_fig7(core::Executor::Sequential);
  std::ostringstream os;
  sim::write_metrics_json(os, out.report);
  const std::string json = os.str();
  EXPECT_TRUE(braces_balance(json));
  // Stable shape: every phase appears even when all-zero (this is what
  // bench/metrics_schema.json pins for external consumers).
  for (std::size_t p = 0; p < sim::kPhaseCount; ++p)
    EXPECT_NE(json.find(std::string("\"phase\": \"") +
                        sim::phase_name(static_cast<sim::Phase>(p)) + "\""),
              std::string::npos)
        << sim::phase_name(static_cast<sim::Phase>(p));
  for (const char* key :
       {"schema_version", "makespan", "makespan_detect",
        "makespan_post_recovery", "totals", "pool_delta", "trace_dropped",
        "diagnosis", "host_profile", "critical_path", "phases",
        "msg_size_hist", "critical_time", "critical_comm",
        "critical_compute", "recv_wait", "send_busy",
        // v3: per-dimension link rollup and the §3 re-index audit.
        "links", "per_dimension", "traversals", "key_hops", "busy",
        "utilization", "reindex_audit", "measured_h", "measured_total",
        "measured_all_h", "measured_all_total", "candidates", "predicted_h",
        "predicted_total", "chosen",
        // v4: the active cost model, so ftdiag can refuse cross-model diffs.
        "cost_model", "routing", "t_compare", "t_transfer", "t_startup",
        // v5: recovery-latency decomposition and the sim-time sampler
        // (enabled:false stubs here — this run recorded neither).
        "recovery_latency", "timeline",
        // v6: key-lineage custody audit (enabled:false stub here).
        "lineage",
        // v7: wall-clock watchdog verdict (enabled:false stub here).
        "watchdog"})
    EXPECT_NE(json.find(std::string("\"") + key + "\""), std::string::npos)
        << key;
  EXPECT_NE(json.find("\"schema_version\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"watchdog\": {\"enabled\": false}"),
            std::string::npos);
  EXPECT_NE(json.find("\"cost_model\": {\"name\": \"ncube7\", \"routing\": "
                      "\"store_and_forward\""),
            std::string::npos);
  EXPECT_NE(json.find("\"links\": {\"enabled\": true"), std::string::npos);
}

TEST(ObservabilityExport, MetricsJsonStubsLinkBlocksWhenDisabled) {
  // Without record_link_stats the v3 blocks collapse to enabled:false
  // stubs, keeping the document shape parseable for every consumer.
  util::Rng rng(1706);
  const fault::FaultSet faults = fault::random_faults(6, 2, rng);
  const auto keys = sort::gen_uniform(400, rng);
  core::SortConfig cfg;
  cfg.record_metrics = true;
  const core::FaultTolerantSorter sorter(6, faults, cfg);
  const core::SortOutcome out = sorter.sort(keys);
  std::ostringstream os;
  sim::write_metrics_json(os, out.report);
  const std::string json = os.str();
  EXPECT_TRUE(braces_balance(json));
  EXPECT_NE(json.find("\"links\": {\"enabled\": false}"), std::string::npos);
  EXPECT_NE(json.find("\"reindex_audit\": {\"enabled\": false}"),
            std::string::npos);
  // v5 blocks stub out the same way when nothing was recorded.
  EXPECT_NE(json.find("\"recovery_latency\": {\"enabled\": false}"),
            std::string::npos);
  EXPECT_NE(json.find("\"timeline\": {\"enabled\": false}"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Flight recorder: the trace is a bounded ring (capacity 0 = unbounded)
// sharded per node; evictions keep the newest events, are counted, and
// never perturb logical results.

TEST(FlightRecorder, BoundedRingKeepsNewestAndCountsDrops) {
  sim::Trace trace;
  trace.enable();
  trace.set_capacity(8);
  for (int i = 0; i < 20; ++i)
    trace.record({static_cast<double>(i), 0, sim::EventKind::Compute, 0, 0,
                  1, 0});
  EXPECT_EQ(trace.size(), 8u);
  EXPECT_EQ(trace.dropped(), 12u);
  const auto events = trace.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  // Overwrite-oldest: the survivors are the last 8 records.
  EXPECT_DOUBLE_EQ(events.front().time, 12.0);
  EXPECT_DOUBLE_EQ(events.back().time, 19.0);
}

TEST(FlightRecorder, ShardedSnapshotMergesInRecordOrder) {
  sim::Trace trace;
  trace.enable();
  trace.reshard(4);
  for (int i = 0; i < 12; ++i)
    trace.record({static_cast<double>(i), static_cast<cube::NodeId>(i % 4),
                  sim::EventKind::Compute, 0, 0, 1, 0});
  const auto events = trace.snapshot();
  ASSERT_EQ(events.size(), 12u);
  // The global sequence stamp restores record order across shards.
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_DOUBLE_EQ(events[i].time, static_cast<double>(i));
}

TEST(FlightRecorder, TruncatedRecorderLeavesGoldenReportIntact) {
  const core::SortOutcome full = run_pinned_fig7(core::Executor::Sequential);
  ASSERT_EQ(full.report.trace_dropped, 0u);

  util::Rng rng(1706);
  const fault::FaultSet faults = fault::random_faults(6, 2, rng);
  const auto keys = sort::gen_uniform(3'200, rng);
  core::SortConfig cfg;
  cfg.protocol = sort::ExchangeProtocol::FullExchange;
  cfg.record_metrics = true;
  cfg.record_trace = true;
  cfg.trace_capacity = 16;  // tiny ring: most events evicted
  const core::FaultTolerantSorter sorter(6, faults, cfg);
  const core::SortOutcome cut = sorter.sort(keys);

  EXPECT_GT(cut.report.trace_dropped, 0u);
  EXPECT_LT(cut.trace_events.size(), full.trace_events.size());
  // Eviction degrades only attribution; every logical result and metric
  // charged outside the trace is untouched.
  EXPECT_DOUBLE_EQ(cut.report.makespan, full.report.makespan);
  EXPECT_EQ(cut.report.comparisons, full.report.comparisons);
  EXPECT_EQ(cut.report.messages, full.report.messages);
  EXPECT_EQ(cut.report.keys_sent, full.report.keys_sent);
  EXPECT_TRUE(cut.report.metrics == full.report.metrics);
}

TEST(FlightRecorder, RecorderOnOffLeavesReportIdentical) {
  util::Rng rng(1706);
  const fault::FaultSet faults = fault::random_faults(6, 2, rng);
  const auto keys = sort::gen_uniform(800, rng);
  core::SortConfig off;
  core::SortConfig on;
  on.record_trace = true;
  on.trace_capacity = 32;
  const core::SortOutcome a =
      core::FaultTolerantSorter(6, faults, off).sort(keys);
  const core::SortOutcome b =
      core::FaultTolerantSorter(6, faults, on).sort(keys);
  EXPECT_DOUBLE_EQ(a.report.makespan, b.report.makespan);
  EXPECT_EQ(a.report.comparisons, b.report.comparisons);
  EXPECT_EQ(a.report.messages, b.report.messages);
  EXPECT_EQ(a.report.keys_sent, b.report.keys_sent);
  EXPECT_EQ(a.sorted, b.sorted);
}

// ---------------------------------------------------------------------------
// Host profiling: wall-clock scheduler counters populate on the threaded
// executor, and — being charged outside simulated time — never move a
// single logical result.

TEST(ObservabilityHost, ProfilingPopulatesCountersWithoutChangingResults) {
  const core::SortOutcome plain = run_pinned_fig7(core::Executor::Threaded);
  EXPECT_FALSE(plain.report.host.enabled);

  util::Rng rng(1706);
  const fault::FaultSet faults = fault::random_faults(6, 2, rng);
  const auto keys = sort::gen_uniform(3'200, rng);
  core::SortConfig cfg;
  cfg.protocol = sort::ExchangeProtocol::FullExchange;
  cfg.executor = core::Executor::Threaded;
  cfg.record_metrics = true;
  cfg.record_trace = true;
  cfg.profile_host = true;
  const core::FaultTolerantSorter sorter(6, faults, cfg);
  const core::SortOutcome profiled = sorter.sort(keys);

  ASSERT_TRUE(profiled.report.host.enabled);
  const sim::SchedShardProfile total = profiled.report.host.total();
  EXPECT_GT(total.tasks_resumed, 0u);
  EXPECT_GT(total.cv_wakeups + total.spurious_wakeups, 0u);
  // One shard per worker: 62 healthy nodes share a bounded pool.
  EXPECT_EQ(profiled.report.host.shards.size(),
            std::min<std::size_t>(
                62, std::max(2u, std::thread::hardware_concurrency())));

  // Wall-clock observation, logical silence: every simulated-time and
  // traffic field matches the unprofiled run exactly.
  EXPECT_DOUBLE_EQ(profiled.report.makespan, plain.report.makespan);
  EXPECT_EQ(profiled.report.comparisons, plain.report.comparisons);
  EXPECT_EQ(profiled.report.messages, plain.report.messages);
  EXPECT_EQ(profiled.report.keys_sent, plain.report.keys_sent);
  EXPECT_TRUE(profiled.report.metrics == plain.report.metrics);
  EXPECT_EQ(profiled.sorted, plain.sorted);
}

// ---------------------------------------------------------------------------
// Trace schema: the Perfetto export passes the structural validator, and
// the validator actually rejects broken documents.

core::SortOutcome run_pinned_recovery(core::Executor exec) {
  util::Rng rng(1703);
  const fault::FaultSet faults = fault::random_faults(3, 1, rng);
  const auto keys = sort::gen_uniform(200, rng);
  core::SortConfig cfg;
  cfg.executor = exec;
  cfg.online_recovery = true;
  cfg.injector.kill_node_at(6, 2000.0);
  cfg.record_metrics = true;
  cfg.record_trace = true;
  const core::FaultTolerantSorter sorter(3, faults, cfg);
  return sorter.sort(keys);
}

TEST(TraceSchema, ChromeTraceExportValidates) {
  const core::SortOutcome out =
      run_pinned_recovery(core::Executor::Sequential);
  ASSERT_FALSE(out.trace_events.empty());
  std::ostringstream os;
  sim::write_chrome_trace(os, out.trace_events, 8);
  const std::string json = os.str();
  std::string error;
  EXPECT_TRUE(sim::validate_chrome_trace(json, &error)) << error;
  // Fault instants carry their phase so ftdiag explain can reconstruct
  // the causal chain offline.
  EXPECT_NE(json.find("\"kill\""), std::string::npos);
  EXPECT_NE(json.find("\"timeout\""), std::string::npos);
}

TEST(TraceSchema, ValidatorRejectsBrokenDocuments) {
  const core::SortOutcome out =
      run_pinned_recovery(core::Executor::Sequential);
  std::ostringstream os;
  sim::write_chrome_trace(os, out.trace_events, 8);
  const std::string json = os.str();

  EXPECT_FALSE(sim::validate_chrome_trace("{}"));
  EXPECT_FALSE(sim::validate_chrome_trace(json.substr(0, json.size() / 2)));
  // Flip one span end into a begin: per-track balance must catch it.
  std::string unbalanced = json;
  const std::size_t at = unbalanced.find("\"ph\": \"E\"");
  ASSERT_NE(at, std::string::npos);
  unbalanced[at + 8] = 'B';
  std::string why;
  EXPECT_FALSE(sim::validate_chrome_trace(unbalanced, &why));
  EXPECT_FALSE(why.empty());
}

// ---------------------------------------------------------------------------
// Diagnosis: a recovered run still explains the fault it survived, the
// same way on both executors.

TEST(Diagnosis, RecoveryRunNamesInjectedKillAcrossExecutors) {
  const core::SortOutcome seq =
      run_pinned_recovery(core::Executor::Sequential);
  const core::SortOutcome thr = run_pinned_recovery(core::Executor::Threaded);
  ASSERT_FALSE(seq.sorted.empty());
  const sim::Diagnosis& diag = seq.report.diagnosis;
  ASSERT_TRUE(diag.triggered());
  EXPECT_EQ(diag.kind, sim::Diagnosis::Kind::TimeoutBurst);
  EXPECT_EQ(diag.root_kind, sim::Diagnosis::RootKind::NodeKill);
  EXPECT_EQ(diag.root_node, 6u);
  // The victim's own logical clock at death (it lags the global schedule
  // time of the kill), deterministic across executors.
  EXPECT_GT(diag.root_time, 0.0);
  EXPECT_FALSE(diag.waits.empty());
  EXPECT_FALSE(diag.stalled.empty());
  EXPECT_NE(diag.to_string().find("injected kill of node 6"),
            std::string::npos)
      << diag.to_string();
  // Same logical evidence, same explanation, either executor.
  EXPECT_TRUE(diag == thr.report.diagnosis);
  EXPECT_EQ(diag.to_string(), thr.report.diagnosis.to_string());
}

TEST(Diagnosis, EvictionDegradesSilentPeerVerdict) {
  // Only wait edges survived the ring; the event that would name the real
  // root may be among the evicted ones.
  sim::DiagnosisInput in;
  in.waits.push_back({/*node=*/2, /*src=*/5, /*tag=*/7, /*time=*/100.0,
                      sim::Phase::MergeExchange, /*expired=*/true});
  in.waits.push_back({/*node=*/3, /*src=*/2, /*tag=*/7, /*time=*/120.0,
                      sim::Phase::MergeExchange, /*expired=*/false});

  sim::DiagnosisInput complete = in;
  const sim::Diagnosis trusted =
      sim::diagnose(std::move(complete), sim::Diagnosis::Kind::TimeoutBurst);
  EXPECT_EQ(trusted.root_kind, sim::Diagnosis::RootKind::MissingPartner);
  EXPECT_EQ(trusted.trace_dropped, 0u);

  in.trace_dropped = 41;
  const sim::Diagnosis degraded =
      sim::diagnose(std::move(in), sim::Diagnosis::Kind::TimeoutBurst);
  EXPECT_EQ(degraded.root_kind, sim::Diagnosis::RootKind::Evicted);
  EXPECT_EQ(degraded.trace_dropped, 41u);
  // Same wait-for closure either way: eviction changes the confidence of
  // the verdict, not the stalled set.
  EXPECT_EQ(degraded.stalled, trusted.stalled);
  EXPECT_NE(degraded.to_string().find("root evicted (trace_dropped=41)"),
            std::string::npos)
      << degraded.to_string();
  EXPECT_EQ(std::string("evicted"),
            sim::diagnosis_root_kind_name(sim::Diagnosis::RootKind::Evicted));
}

TEST(Diagnosis, SurvivingKillEvidenceIsNotDegradedByEviction) {
  // A tiny flight recorder drops most of the run, but the victim's death
  // is still visible in live node state: the diagnosis must keep naming
  // the kill while reporting how much of the ring was lost.
  util::Rng rng(1703);
  const fault::FaultSet faults = fault::random_faults(3, 1, rng);
  const auto keys = sort::gen_uniform(200, rng);
  core::SortConfig cfg;
  cfg.online_recovery = true;
  cfg.injector.kill_node_at(6, 2000.0);
  cfg.record_metrics = true;
  cfg.record_trace = true;
  cfg.trace_capacity = 16;
  const core::FaultTolerantSorter sorter(3, faults, cfg);
  const core::SortOutcome out = sorter.sort(keys);
  ASSERT_FALSE(out.sorted.empty());
  EXPECT_GT(out.report.trace_dropped, 0u);
  const sim::Diagnosis& diag = out.report.diagnosis;
  ASSERT_TRUE(diag.triggered());
  EXPECT_EQ(diag.root_kind, sim::Diagnosis::RootKind::NodeKill);
  EXPECT_EQ(diag.root_node, 6u);
  EXPECT_EQ(diag.trace_dropped, out.report.trace_dropped);
}

}  // namespace
}  // namespace ftsort
