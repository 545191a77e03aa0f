// ftdiag: offline failure explanation and differential diagnosis, driven
// in-process through tools/ftdiag.hpp. The acceptance scenario is the
// pinned recovery_q3_kill6 shape from bench_harness: `ftdiag explain` on
// its exported trace must name the injected kill of node 6, the paper
// step it interrupted, and the transitively stalled set — identically
// from either executor's trace.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/ft_sorter.hpp"
#include "fault/scenario.hpp"
#include "sim/exporters.hpp"
#include "sim/link_stats.hpp"
#include "sim/watchdog.hpp"
#include "sort/distribution.hpp"
#include "tools/ftdiag.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace ftsort {
namespace {

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
  cfg.record_link_stats = true;
  const core::FaultTolerantSorter sorter(3, faults, cfg);
  return sorter.sort(keys);
}

std::string chrome_trace_of(const core::SortOutcome& out) {
  std::ostringstream os;
  sim::write_chrome_trace(os, out.trace_events, 8);
  return os.str();
}

/// Write `text` to a temp file in the test's working directory and return
/// the path (tests run single-process; fixed names do not collide).
std::string write_temp(const char* name, const std::string& text) {
  const std::string path = std::string("ftdiag_test_") + name + ".json";
  std::ofstream out(path);
  out << text;
  return path;
}

// ---------------------------------------------------------------------------
// explain

TEST(FtdiagExplain, NamesInjectedKillPhaseAndStalledSet) {
  const core::SortOutcome out =
      run_pinned_recovery(core::Executor::Sequential);
  const tools::ExplainResult res =
      tools::explain_trace_json(chrome_trace_of(out));
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GT(res.timeout_events, 0u);
  EXPECT_GE(res.kill_events, 1u);
  ASSERT_TRUE(res.diagnosis.triggered());
  EXPECT_EQ(res.diagnosis.kind, sim::Diagnosis::Kind::TimeoutBurst);
  EXPECT_EQ(res.diagnosis.root_kind, sim::Diagnosis::RootKind::NodeKill);
  EXPECT_EQ(res.diagnosis.root_node, 6u);
  EXPECT_FALSE(res.diagnosis.stalled.empty());
  // The rendered report names the root cause, the interrupted paper
  // step, and the blast radius.
  EXPECT_NE(res.text.find("injected kill of node 6"), std::string::npos)
      << res.text;
  EXPECT_NE(res.text.find("during phase"), std::string::npos) << res.text;
  EXPECT_NE(res.text.find("stalled (transitively):"), std::string::npos)
      << res.text;
}

TEST(FtdiagExplain, IdenticalFromEitherExecutorsTrace) {
  const tools::ExplainResult seq = tools::explain_trace_json(
      chrome_trace_of(run_pinned_recovery(core::Executor::Sequential)));
  const tools::ExplainResult thr = tools::explain_trace_json(
      chrome_trace_of(run_pinned_recovery(core::Executor::Threaded)));
  ASSERT_TRUE(seq.ok) << seq.error;
  ASSERT_TRUE(thr.ok) << thr.error;
  EXPECT_TRUE(seq.diagnosis == thr.diagnosis);
  EXPECT_EQ(seq.text, thr.text);
}

TEST(FtdiagExplain, AgreesWithInProcessDiagnosisRoot) {
  const core::SortOutcome out =
      run_pinned_recovery(core::Executor::Sequential);
  const tools::ExplainResult res =
      tools::explain_trace_json(chrome_trace_of(out));
  ASSERT_TRUE(res.ok) << res.error;
  // Offline reconstruction and the in-process RunReport diagnosis feed
  // the same builder; they must agree on what broke.
  EXPECT_EQ(res.diagnosis.kind, out.report.diagnosis.kind);
  EXPECT_EQ(res.diagnosis.root_kind, out.report.diagnosis.root_kind);
  EXPECT_EQ(res.diagnosis.root_node, out.report.diagnosis.root_node);
  EXPECT_EQ(res.diagnosis.root_phase, out.report.diagnosis.root_phase);
  EXPECT_EQ(res.diagnosis.stalled, out.report.diagnosis.stalled);
}

TEST(FtdiagExplain, RejectsNonTraceInput) {
  EXPECT_FALSE(tools::explain_trace_json("{}").ok);
  EXPECT_FALSE(tools::explain_trace_json("not json at all").ok);
}

TEST(FtdiagExplain, EvictedTraceDegradesToExplicitEvidenceLoss) {
  // A ring-truncated trace: the kill that actually broke the run was
  // evicted; only one expired wait and the eviction-count metadata event
  // survive. The explainer must refuse the silent-peer verdict.
  const char* head = R"({"traceEvents": [
    {"name": "timeout", "ph": "i", "pid": 0, "tid": 2, "ts": 3100.0,
     "args": {"phase": "step5_merge_exchange", "src": 6, "tag": 9}},)";
  const char* evicted = R"(
    {"name": "trace_dropped", "ph": "M", "pid": 0, "args": {"count": 57}}
  ]})";
  const char* complete = R"(
    {"name": "trace_dropped", "ph": "M", "pid": 0, "args": {"count": 0}}
  ]})";

  const tools::ExplainResult lossy =
      tools::explain_trace_json(std::string(head) + evicted);
  ASSERT_TRUE(lossy.ok) << lossy.error;
  ASSERT_TRUE(lossy.diagnosis.triggered());
  EXPECT_EQ(lossy.diagnosis.root_kind, sim::Diagnosis::RootKind::Evicted);
  EXPECT_EQ(lossy.diagnosis.trace_dropped, 57u);
  EXPECT_NE(lossy.text.find("root evicted (trace_dropped=57)"),
            std::string::npos)
      << lossy.text;

  // The same evidence from a complete trace is a confident verdict.
  const tools::ExplainResult full =
      tools::explain_trace_json(std::string(head) + complete);
  ASSERT_TRUE(full.ok) << full.error;
  EXPECT_EQ(full.diagnosis.root_kind,
            sim::Diagnosis::RootKind::MissingPartner);
  EXPECT_EQ(full.diagnosis.root_node, 6u);
}

// ---------------------------------------------------------------------------
// diff

TEST(FtdiagDiff, FlagsSyntheticPhaseRegressionInMetricsFormat) {
  const core::SortOutcome out =
      run_pinned_recovery(core::Executor::Sequential);
  std::ostringstream a_os;
  sim::write_metrics_json(a_os, out.report);

  // Synthetic regression: one phase's critical path grows 50%, charged to
  // compute.
  sim::RunReport slowed = out.report;
  bool scaled = false;
  for (sim::PhaseBreakdown::Slice& s : slowed.phases.slices)
    if (s.phase == sim::Phase::RecoverySort && s.critical_time > 0.0) {
      s.critical_compute += 0.5 * s.critical_time;
      s.critical_time *= 1.5;
      scaled = true;
    }
  ASSERT_TRUE(scaled) << "pinned scenario lost its recovery_sort phase";
  std::ostringstream b_os;
  sim::write_metrics_json(b_os, slowed);

  const tools::DiffResult res =
      tools::diff_json(a_os.str(), b_os.str(), 20.0);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.regressions, 1u);
  const tools::PhaseDelta* hit = nullptr;
  for (const tools::PhaseDelta& d : res.deltas)
    if (d.regression) hit = &d;
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->phase, "recovery_sort");
  EXPECT_NEAR(hit->delta_pct, 50.0, 0.1);
  EXPECT_EQ(hit->attribution, "compute");
  EXPECT_NE(res.text.find("recovery_sort"), std::string::npos) << res.text;
  EXPECT_NE(res.text.find("REGRESSION"), std::string::npos) << res.text;

  // The CLI exit code carries the verdict: 1 for a regression, 0 clean.
  const std::string pa = write_temp("metrics_a", a_os.str());
  const std::string pb = write_temp("metrics_b", b_os.str());
  const char* diff_args[] = {"ftdiag", "diff", pa.c_str(), pb.c_str(),
                             "--threshold", "20"};
  std::ostringstream cli_out;
  std::ostringstream cli_err;
  EXPECT_EQ(tools::run_cli(6, diff_args, cli_out, cli_err), 1);
  EXPECT_NE(cli_out.str().find("recovery_sort"), std::string::npos);
  const char* same_args[] = {"ftdiag", "diff", pa.c_str(), pa.c_str()};
  EXPECT_EQ(tools::run_cli(4, same_args, cli_out, cli_err), 0);
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(FtdiagDiff, AttributesBenchFormatRegressionToScenarioAndPhase) {
  const char* base = R"({
  "bench": "sort", "schema_version": 2, "mode": "smoke",
  "scenarios": [
    {
      "name": "fig7_q6_r2",
      "makespan": 1000,
      "phases": {
        "step3_local_sort": {"comparisons": 10, "critical_time": 400},
        "step5_merge_exchange": {"comparisons": 5, "critical_time": 600}
      }
    },
    {
      "name": "recovery_q3_kill6",
      "makespan": 500,
      "phases": {
        "recovery_sort": {"comparisons": 7, "critical_time": 500}
      }
    }
  ]
})";
  std::string slowed = base;
  const std::size_t at = slowed.find("\"critical_time\": 600");
  ASSERT_NE(at, std::string::npos);
  slowed.replace(at, 20, "\"critical_time\": 900");

  const tools::DiffResult res = tools::diff_json(base, slowed, 20.0);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.regressions, 1u);
  const tools::PhaseDelta* hit = nullptr;
  for (const tools::PhaseDelta& d : res.deltas)
    if (d.regression) hit = &d;
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->scenario, "fig7_q6_r2");
  EXPECT_EQ(hit->phase, "step5_merge_exchange");
  EXPECT_NEAR(hit->delta_pct, 50.0, 0.1);
}

TEST(FtdiagDiff, GateIsSymmetric) {
  // An unexplained 2x speedup in a deterministic simulator is as
  // suspicious as a slowdown: both sides of the threshold flag.
  const char* base = R"({"bench": "sort", "scenarios": [
    {"name": "s", "makespan": 100,
     "phases": {"gather": {"critical_time": 100}}}]})";
  const char* fast = R"({"bench": "sort", "scenarios": [
    {"name": "s", "makespan": 50,
     "phases": {"gather": {"critical_time": 50}}}]})";
  const tools::DiffResult res = tools::diff_json(base, fast, 20.0);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.regressions, 1u);
}

TEST(FtdiagDiff, RefusesToCompareRunsUnderDifferentCostModels) {
  // critical_time is measured in cost-model units; a diff across models
  // would report the model change as a phase regression. The gate refuses
  // outright (CLI exit 2) instead of producing a misleading verdict.
  const char* saf = R"({"bench": "sort", "scenarios": [
    {"name": "s", "makespan": 100,
     "cost_model": {"name": "ncube7", "routing": "store_and_forward",
       "t_compare": 2, "t_transfer": 8, "t_startup": 0},
     "phases": {"gather": {"critical_time": 100}}}]})";
  const char* ct = R"({"bench": "sort", "scenarios": [
    {"name": "s", "makespan": 80,
     "cost_model": {"name": "wormhole", "routing": "cut_through",
       "t_compare": 2, "t_transfer": 8, "t_startup": 350},
     "phases": {"gather": {"critical_time": 80}}}]})";
  const tools::DiffResult res = tools::diff_json(saf, ct, 20.0);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("cost model mismatch"), std::string::npos);
  EXPECT_NE(res.error.find("wormhole"), std::string::npos);
  // Same model on both sides compares normally...
  EXPECT_TRUE(tools::diff_json(saf, saf, 20.0).ok);
  // ...and files predating the cost_model block (no signature) still
  // compare, for backward compatibility with archived exports.
  const char* legacy = R"({"bench": "sort", "scenarios": [
    {"name": "s", "makespan": 100,
     "phases": {"gather": {"critical_time": 100}}}]})";
  EXPECT_TRUE(tools::diff_json(legacy, ct, 20.0).ok);

  // Metrics-format exports carry the signature at the top level and are
  // gated the same way.
  const core::SortOutcome out =
      run_pinned_recovery(core::Executor::Sequential);
  std::ostringstream a_os;
  sim::write_metrics_json(a_os, out.report);
  std::string other = a_os.str();
  const std::size_t at = other.find("\"ncube7\"");
  ASSERT_NE(at, std::string::npos);
  other.replace(at, 8, "\"custom\"");
  const tools::DiffResult mres = tools::diff_json(a_os.str(), other, 20.0);
  EXPECT_FALSE(mres.ok);
  EXPECT_NE(mres.error.find("cost model mismatch"), std::string::npos);
}

// ---------------------------------------------------------------------------
// hotspots

TEST(FtdiagHotspots, RanksDimensionsAndAttributesCommFromMetricsFormat) {
  const core::SortOutcome out =
      run_pinned_recovery(core::Executor::Sequential);
  std::ostringstream os;
  sim::write_metrics_json(os, out.report);
  const tools::HotspotsResult res = tools::hotspots_report(os.str(), 2);
  ASSERT_TRUE(res.ok) << res.error;
  // The report leads with the hottest dimension by busy time; under
  // ncube7 (t_startup = 0) that is also the max-key_hops dimension.
  std::uint64_t max_hops = 0;
  int max_dim = 0;
  for (cube::Dim d = 0; d < out.report.links.dim; ++d) {
    const std::uint64_t h = out.report.links.dim_total(d).key_hops;
    if (h > max_hops) {
      max_hops = h;
      max_dim = static_cast<int>(d);
    }
  }
  const std::string lead = "dim " + std::to_string(max_dim) + ":";
  const std::size_t lead_at = res.text.find(lead);
  ASSERT_NE(lead_at, std::string::npos) << res.text;
  for (cube::Dim d = 0; d < out.report.links.dim; ++d) {
    const std::string other = "dim " + std::to_string(d) + ":";
    const std::size_t at = res.text.find(other);
    if (at != std::string::npos) {
      EXPECT_GE(at, lead_at) << res.text;
    }
  }
  EXPECT_NE(res.text.find("comm by phase:"), std::string::npos) << res.text;
  // --top 2 keeps the ranking to two rows.
  std::size_t rows = 0;
  for (std::size_t at = res.text.find("    dim "); at != std::string::npos;
       at = res.text.find("    dim ", at + 1))
    ++rows;
  EXPECT_EQ(rows, 2u);
}

TEST(FtdiagHotspots, DiffGateIsSymmetricOnPerDimensionTraffic) {
  const char* base = R"({"bench": "sort", "scenarios": [
    {"name": "s", "makespan": 100, "link_key_hops": 1000,
     "link_dimensions": {
       "0": {"traversals": 10, "key_hops": 600, "busy": 4800, "utilization": 0.5},
       "1": {"traversals": 8, "key_hops": 400, "busy": 3200, "utilization": 0.3}
     }}]})";
  // Traffic migrates from dim 1 onto dim 0; the total is unchanged, so
  // only the per-dimension gate can see it — in both directions.
  const char* skewed = R"({"bench": "sort", "scenarios": [
    {"name": "s", "makespan": 100, "link_key_hops": 1000,
     "link_dimensions": {
       "0": {"traversals": 10, "key_hops": 900, "busy": 7200, "utilization": 0.7},
       "1": {"traversals": 8, "key_hops": 100, "busy": 800, "utilization": 0.1}
     }}]})";
  const tools::HotspotsResult res = tools::hotspots_diff(base, skewed, 20.0);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.regressions, 2u);  // +50% on dim 0 AND -75% on dim 1
  bool saw_up = false;
  bool saw_down = false;
  for (const tools::DimDelta& d : res.deltas) {
    if (d.regression && d.delta_pct > 0.0) saw_up = true;
    if (d.regression && d.delta_pct < 0.0) saw_down = true;
  }
  EXPECT_TRUE(saw_up);
  EXPECT_TRUE(saw_down);
  // Identical files compare clean.
  EXPECT_EQ(tools::hotspots_diff(base, base, 20.0).regressions, 0u);

  // CLI wiring: exit 1 on the skewed pair, 0 on the identical pair.
  const std::string pa = write_temp("hotspots_a", base);
  const std::string pb = write_temp("hotspots_b", skewed);
  std::ostringstream cli_out;
  std::ostringstream cli_err;
  const char* diff_args[] = {"ftdiag", "hotspots", pa.c_str(), pb.c_str(),
                             "--threshold", "20"};
  EXPECT_EQ(tools::run_cli(6, diff_args, cli_out, cli_err), 1);
  EXPECT_NE(cli_out.str().find("REGRESSION"), std::string::npos);
  const char* same_args[] = {"ftdiag", "hotspots", pa.c_str(), pa.c_str()};
  EXPECT_EQ(tools::run_cli(4, same_args, cli_out, cli_err), 0);
  const char* report_args[] = {"ftdiag", "hotspots", pa.c_str()};
  EXPECT_EQ(tools::run_cli(3, report_args, cli_out, cli_err), 0);
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(FtdiagHotspots, RejectsExportsWithoutLinkTelemetry) {
  // v3 metrics export with telemetry off: explicit stub, explicit error.
  EXPECT_FALSE(
      tools::hotspots_report(R"({"makespan": 1, "links": {"enabled": false},
                                 "phases": []})",
                             0)
          .ok);
  // Pre-v3 export and bench files without link columns are errors too.
  EXPECT_FALSE(tools::hotspots_report(R"({"makespan": 1, "phases": []})", 0)
                   .ok);
  EXPECT_FALSE(
      tools::hotspots_report(
          R"({"scenarios": [{"name": "s", "makespan": 1}]})", 0)
          .ok);
}

TEST(FtdiagDiff, RejectsMalformedAndMismatchedInput) {
  EXPECT_FALSE(tools::diff_json("{}", "{}", 20.0).ok);
  const char* bench = R"({"scenarios": [{"name": "s", "makespan": 1}]})";
  const char* metrics = R"({"makespan": 1, "phases": []})";
  EXPECT_FALSE(tools::diff_json(bench, metrics, 20.0).ok);

  std::ostringstream cli_out;
  std::ostringstream cli_err;
  const char* no_args[] = {"ftdiag"};
  EXPECT_EQ(tools::run_cli(1, no_args, cli_out, cli_err), 2);
  const char* missing[] = {"ftdiag", "explain", "/nonexistent/trace.json"};
  EXPECT_EQ(tools::run_cli(3, missing, cli_out, cli_err), 2);
  // The usage text advertises every subcommand and the schema ceilings.
  EXPECT_NE(cli_err.str().find("history"), std::string::npos);
  EXPECT_NE(cli_err.str().find("supported schemas"), std::string::npos);
}

// ---------------------------------------------------------------------------
// schema compatibility: files newer than the build (or, for the
// exact-version campaign reader, older) are refused with a versioned
// message, never misparsed into zero-filled tables.

TEST(FtdiagSchema, RefusesFilesNewerThanTheBuildWithVersionedMessage) {
  const tools::DiffResult metrics = tools::diff_json(
      R"({"schema_version": 99, "makespan": 1, "phases": []})",
      R"({"schema_version": 99, "makespan": 1, "phases": []})", 20.0);
  EXPECT_FALSE(metrics.ok);
  EXPECT_NE(metrics.error.find("schema v99"), std::string::npos)
      << metrics.error;
  EXPECT_NE(metrics.error.find("reads up to v7"), std::string::npos)
      << metrics.error;

  const tools::HotspotsResult bench = tools::hotspots_report(
      R"({"schema_version": 7, "scenarios": [{"name": "s",
          "link_dimensions": {"0": {"key_hops": 1}}}]})",
      0);
  EXPECT_FALSE(bench.ok);
  EXPECT_NE(bench.error.find("reads up to v3"), std::string::npos)
      << bench.error;

  // Campaign bucket keys changed meaning across versions: a v4 file gets
  // the versioned refusal instead of zeroed latency columns.
  const tools::CampaignCliResult old = tools::campaign_report(
      R"({"campaign": "fault_mc", "schema_version": 4,
          "buckets": [{"r": 0, "trials": 1}]})");
  EXPECT_FALSE(old.ok);
  EXPECT_NE(old.error.find("schema v4"), std::string::npos) << old.error;
  EXPECT_NE(old.error.find("reads v7"), std::string::npos) << old.error;
}

// ---------------------------------------------------------------------------
// history: trend gate over the append-only BENCH_history.jsonl.

namespace {

/// One synthetic history line in the bench_harness shape.
std::string history_line(const char* mode, const char* build,
                         double makespan, double wall_ns) {
  std::ostringstream os;
  os << R"({"bench": "sort", "schema_version": 3, "mode": ")" << mode
     << R"(", "build": ")" << build
     << R"(", "scenarios": [{"name": "fig7", "wall_ns": )" << wall_ns
     << R"(, "makespan": )" << makespan << R"(, "comparisons": 7}]})"
     << "\n";
  return os.str();
}

}  // namespace

TEST(FtdiagHistory, StableSeriesPassesAndRegressionTrips) {
  std::string stable;
  for (int i = 0; i < 5; ++i)
    stable += history_line("smoke", "release", 100.0, 5e6);
  const tools::HistoryResult ok =
      tools::history_trends(stable, "makespan", 3, 20.0);
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.regressions, 0u);
  ASSERT_EQ(ok.trends.size(), 1u);
  EXPECT_EQ(ok.trends[0].scenario, "fig7");
  EXPECT_EQ(ok.trends[0].entries, 5u);
  EXPECT_DOUBLE_EQ(ok.trends[0].drift_pct, 0.0);

  // Last-3 window settles 30% above the baseline median: beyond ±20%.
  std::string drifted;
  for (int i = 0; i < 2; ++i)
    drifted += history_line("smoke", "release", 100.0, 5e6);
  for (int i = 0; i < 3; ++i)
    drifted += history_line("smoke", "release", 130.0, 5e6);
  const tools::HistoryResult bad =
      tools::history_trends(drifted, "makespan", 3, 20.0);
  ASSERT_TRUE(bad.ok) << bad.error;
  EXPECT_EQ(bad.regressions, 1u);
  ASSERT_EQ(bad.trends.size(), 1u);
  EXPECT_TRUE(bad.trends[0].regression);
  EXPECT_DOUBLE_EQ(bad.trends[0].baseline, 100.0);
  EXPECT_DOUBLE_EQ(bad.trends[0].recent, 130.0);
  EXPECT_NE(bad.text.find("REGRESSION"), std::string::npos) << bad.text;

  // The gate is symmetric: an unexplained speedup is just as suspect.
  std::string faster;
  for (int i = 0; i < 2; ++i)
    faster += history_line("smoke", "release", 100.0, 5e6);
  for (int i = 0; i < 3; ++i)
    faster += history_line("smoke", "release", 70.0, 5e6);
  EXPECT_EQ(tools::history_trends(faster, "makespan", 3, 20.0).regressions,
            1u);
}

TEST(FtdiagHistory, GroupsByModeAndBuildAndSkipsShortGroups) {
  // Same scenario name in smoke/full and release/debug: four distinct
  // groups; the full and debug singletons are too short to trend.
  std::string mixed;
  mixed += history_line("smoke", "release", 100.0, 5e6);
  mixed += history_line("smoke", "release", 500.0, 5e6);  // +400% drift
  mixed += history_line("full", "release", 9999.0, 9e9);
  mixed += history_line("smoke", "debug", 100.0, 8e7);
  const tools::HistoryResult res =
      tools::history_trends(mixed, "makespan", 3, 20.0);
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_EQ(res.trends.size(), 1u);
  EXPECT_EQ(res.trends[0].mode, "smoke");
  EXPECT_EQ(res.trends[0].build, "release");
  EXPECT_EQ(res.short_groups, 2u);
  EXPECT_EQ(res.regressions, 1u);  // the smoke/release jump, nothing else
}

TEST(FtdiagHistory, SkipsCorruptLinesWithACountAndNeverFails) {
  std::string text;
  text += history_line("smoke", "release", 100.0, 5e6);
  text += "not json at all\n";
  // A truncated append (crashed writer): braces never close.
  text += R"({"bench": "sort", "mode": "smoke", "scenarios": [{"name")";
  text += "\n";
  text += history_line("smoke", "release", 100.0, 5e6);
  const tools::HistoryResult res =
      tools::history_trends(text, "makespan", 3, 20.0);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.lines, 2u);
  EXPECT_EQ(res.skipped_lines, 2u);
  ASSERT_EQ(res.trends.size(), 1u);
  EXPECT_EQ(res.trends[0].entries, 2u);
  EXPECT_NE(res.text.find("skipped 2 corrupt"), std::string::npos)
      << res.text;
}

TEST(FtdiagHistory, NotesAGroupWhoseSamplesSpanHosts) {
  // bench_harness stamps each line with the host's usable CPUs; lines
  // from before the stamp count as "unknown". Mixed stamps keep one
  // group and one gate, plus a note naming the values on wall times.
  const auto stamped = [](const char* nproc) {
    std::string line = history_line("smoke", "release", 100.0, 5e6);
    line.insert(1, std::string(R"("nproc": )") + nproc + ", ");
    return line;
  };
  const std::string mixed = history_line("smoke", "release", 100.0, 5e6) +
                            stamped("4") + stamped("4") + stamped("16");
  const tools::HistoryResult res =
      tools::history_trends(mixed, "wall_ns", 3, 20.0);
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_EQ(res.trends.size(), 1u);
  EXPECT_EQ(res.trends[0].entries, 4u);
  EXPECT_EQ(res.regressions, 0u);
  EXPECT_EQ(res.trends[0].nprocs,
            (std::vector<std::string>{"unknown", "4", "16"}));
  EXPECT_NE(res.text.find("note: samples span nproc unknown, 4, 16"),
            std::string::npos)
      << res.text;

  // One host throughout: no note.
  const tools::HistoryResult same = tools::history_trends(
      stamped("4") + stamped("4"), "wall_ns", 3, 20.0);
  ASSERT_TRUE(same.ok) << same.error;
  EXPECT_EQ(same.text.find("note:"), std::string::npos) << same.text;

  // Simulated metrics do not depend on the host: no note on them.
  for (const char* simulated : {"makespan", "comparisons"}) {
    const tools::HistoryResult sim =
        tools::history_trends(mixed, simulated, 3, 20.0);
    ASSERT_TRUE(sim.ok) << sim.error;
    for (const tools::HistoryTrend& t : sim.trends)
      EXPECT_TRUE(t.nprocs.empty()) << simulated;
    EXPECT_EQ(sim.text.find("note:"), std::string::npos) << sim.text;
  }
}

TEST(FtdiagHistory, ExitCodesMatchTheCliContract) {
  std::string stable;
  std::string drifted;
  for (int i = 0; i < 4; ++i) {
    stable += history_line("smoke", "release", 100.0, 5e6);
    drifted += history_line("smoke", "release", i < 2 ? 100.0 : 200.0, 5e6);
  }
  const std::string ps = write_temp("hist_stable", stable);
  const std::string pd = write_temp("hist_drift", drifted);
  std::ostringstream out;
  std::ostringstream err;
  const char* clean[] = {"ftdiag", "history", ps.c_str()};
  EXPECT_EQ(tools::run_cli(3, clean, out, err), 0);
  const char* trip[] = {"ftdiag", "history", pd.c_str(), "--last", "2"};
  EXPECT_EQ(tools::run_cli(5, trip, out, err), 1);
  // wall_ns is flat in both fixtures: metric selection flips the verdict.
  const char* wall[] = {"ftdiag",  "history", pd.c_str(),
                        "--metric", "wall_ns"};
  EXPECT_EQ(tools::run_cli(5, wall, out, err), 0);
  const char* bad_metric[] = {"ftdiag",  "history", ps.c_str(),
                              "--metric", "bogus"};
  EXPECT_EQ(tools::run_cli(5, bad_metric, out, err), 2);
  const char* bad_flag[] = {"ftdiag", "history", ps.c_str(), "--nope", "1"};
  EXPECT_EQ(tools::run_cli(5, bad_flag, out, err), 2);
  const char* missing[] = {"ftdiag", "history", "/nonexistent/hist.jsonl"};
  EXPECT_EQ(tools::run_cli(3, missing, out, err), 2);
  std::remove(ps.c_str());
  std::remove(pd.c_str());
}

// ---------------------------------------------------------------------------
// degenerate inputs: every reader refuses an empty or hollow file with
// exit 2 and a message naming what is missing — never a zero-filled
// table (exit 0) that would read as "all clear" in CI.

TEST(FtdiagDegenerate, EmptyMetricsFileExitsTwoFromEveryReader) {
  const std::string empty = write_temp("empty", "");
  std::ostringstream out;
  std::ostringstream err;
  const char* diff[] = {"ftdiag", "diff", empty.c_str(), empty.c_str()};
  EXPECT_EQ(tools::run_cli(4, diff, out, err), 2);
  const char* hot[] = {"ftdiag", "hotspots", empty.c_str()};
  EXPECT_EQ(tools::run_cli(3, hot, out, err), 2);
  const char* explain[] = {"ftdiag", "explain", empty.c_str()};
  EXPECT_EQ(tools::run_cli(3, explain, out, err), 2);
  const char* stuck[] = {"ftdiag", "stuck", empty.c_str()};
  EXPECT_EQ(tools::run_cli(3, stuck, out, err), 2);
  // Each refusal names the structure it was looking for.
  EXPECT_NE(err.str().find("phases"), std::string::npos) << err.str();
  EXPECT_NE(err.str().find("traceEvents"), std::string::npos) << err.str();
  EXPECT_NE(err.str().find("watchdog_dump"), std::string::npos) << err.str();
  std::remove(empty.c_str());
}

std::string read_fixture(const char* relative) {
  std::ifstream in(std::string(FTSORT_SOURCE_DIR) + "/" + relative,
                   std::ios::binary);
  EXPECT_TRUE(in) << relative;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(FtdiagDegenerate, BrokenDocumentsExitTwoWithTheParseOffset) {
  // Every checked-in fixture and generated export, cut to half its bytes
  // or followed by garbage: each reader refuses with the parser's message,
  // which names the byte offset — never a clean-looking report.
  const core::SortOutcome run =
      run_pinned_recovery(core::Executor::Sequential);
  std::ostringstream metrics;
  sim::write_metrics_json(metrics, run.report);
  std::vector<std::string> docs = {metrics.str(), chrome_trace_of(run)};
  for (const char* fixture :
       {"BENCH_sort.json", "bench/BENCH_baseline.json",
        "bench/BENCH_campaign_baseline.json", "bench/metrics_schema.json",
        "bench/campaign_schema.json"})
    docs.push_back(read_fixture(fixture));
  for (const std::string& doc : docs) {
    for (const std::string& broken :
         {doc.substr(0, doc.size() / 2), doc + "\n}garbage"}) {
      const std::string parse_error = util::json::parse(broken).error;
      ASSERT_NE(parse_error.find(" at byte "), std::string::npos);
      const std::string path = write_temp("broken", broken);
      const char* p = path.c_str();
      const std::vector<std::vector<const char*>> commands = {
          {"explain", p},  {"diff", p, p},     {"hotspots", p},
          {"hotspots", p, p}, {"campaign", p}, {"campaign", p, p},
          {"history", p},  {"lineage", p},     {"lineage", p, "--audit"},
          {"stuck", p}};
      for (const std::vector<const char*>& c : commands) {
        std::vector<const char*> argv = {"ftdiag"};
        argv.insert(argv.end(), c.begin(), c.end());
        std::ostringstream out;
        std::ostringstream err;
        EXPECT_EQ(tools::run_cli(static_cast<int>(argv.size()), argv.data(),
                                 out, err),
                  2)
            << c[0];
        EXPECT_TRUE(out.str().empty()) << c[0] << ": " << out.str();
        // history parses line by line, so it names the first line's error.
        const std::string& expected =
            std::string(c[0]) == "history" ? " at byte " : parse_error;
        EXPECT_NE(err.str().find(expected), std::string::npos)
            << c[0] << ": " << err.str();
      }
      std::string why;
      EXPECT_FALSE(sim::validate_chrome_trace(broken, &why));
      EXPECT_NE(why.find(parse_error), std::string::npos) << why;
      std::remove(p);
    }
  }
}

TEST(FtdiagDegenerate, BrokenHistoryLinesAreSkippedUntilNoneParse) {
  const std::string jsonl = read_fixture("bench/BENCH_history.jsonl");
  const std::string half = jsonl.substr(0, jsonl.size() / 2);
  const tools::HistoryResult cut =
      tools::history_trends(half, "makespan", 3, 20.0);
  ASSERT_TRUE(cut.ok) << cut.error;
  EXPECT_GE(cut.lines, 1u);
  EXPECT_EQ(cut.skipped_lines, half.back() == '\n' ? 0u : 1u);
  const tools::HistoryResult garbage =
      tools::history_trends(jsonl + "}garbage\n", "makespan", 3, 20.0);
  ASSERT_TRUE(garbage.ok) << garbage.error;
  EXPECT_EQ(garbage.skipped_lines, 1u);
  EXPECT_NE(garbage.text.find("skipped 1 corrupt"), std::string::npos);

  // Nothing parses: exit 2, naming the first line's parse error.
  const std::string first = jsonl.substr(0, jsonl.find('\n'));
  const std::string path =
      write_temp("broken_history", first.substr(0, first.size() / 2) + "\n");
  std::ostringstream out;
  std::ostringstream err;
  const char* args[] = {"ftdiag", "history", path.c_str()};
  EXPECT_EQ(tools::run_cli(3, args, out, err), 2);
  EXPECT_TRUE(out.str().empty());
  EXPECT_NE(err.str().find("line 1: unexpected end of input at byte"),
            std::string::npos)
      << err.str();
  std::remove(path.c_str());
}

TEST(FtdiagDegenerate, ZeroTrialCampaignIsRefusedNotReportedClean) {
  const std::string path = write_temp(
      "zero_campaign",
      R"({"campaign": "fault_mc", "schema_version": 7, "seed": 1, "n": 3,
          "r_max": 0, "scenarios": 0, "keys": 16, "executor": "sequential",
          "watchdog": {"trips": 0, "near_misses": 0}, "partial": false,
          "buckets": [], "trials": []})");
  std::ostringstream out;
  std::ostringstream err;
  const char* args[] = {"ftdiag", "campaign", path.c_str()};
  EXPECT_EQ(tools::run_cli(3, args, out, err), 2);
  EXPECT_NE(err.str().find("buckets"), std::string::npos) << err.str();
  std::remove(path.c_str());
}

TEST(FtdiagDegenerate, NearMissOnlyDumpDecodesAndExitsZero) {
  // A record-policy run that brushed the deadline but never aborted:
  // `stuck` decodes it (exit 0 — no trip recorded) so operators can read
  // near-miss dumps without tripping CI.
  sim::WatchdogReport rep;
  rep.enabled = true;
  rep.abort_on_trip = false;
  rep.deadline_ms = 50;
  rep.interval_ms = 5;
  rep.trips = 0;
  rep.near_misses = 3;
  rep.effective_deadline_ms = 50;
  rep.stall_ms = 61;
  rep.slots.push_back({"node 0", 12, 61, "merge_split", false});
  rep.slots.push_back({"node 1", 40, 2, "route", false});
  const std::string path = write_temp(
      "near_miss_dump",
      sim::render_watchdog_dump(rep, sim::WatchdogDumpContext{}));
  std::ostringstream out;
  std::ostringstream err;
  const char* args[] = {"ftdiag", "stuck", path.c_str()};
  EXPECT_EQ(tools::run_cli(3, args, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("near misses: 3"), std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("most silent: node 0"), std::string::npos)
      << out.str();
  EXPECT_EQ(out.str().find("STUCK"), std::string::npos) << out.str();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ftsort
