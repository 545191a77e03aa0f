// Key-lineage provenance (sim::Lineage, RunReport::lineage) and the
// `ftdiag lineage` CLI.
//
// Lineage is a logical-clock artifact like Timeline: custody commits at
// deterministic merge points and hop charges are integer sums, so
// snapshots must be byte-identical across executors, enabling the flag
// must charge zero simulated time, and the conservation invariant —
// Σ per-key per-dimension hops + untracked == LinkStats key_hops — must
// hold exactly. The suites all start with "Lineage" so the tsan preset's
// name filter picks them up.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/ft_sorter.hpp"
#include "core/outcome.hpp"
#include "fault/scenario.hpp"
#include "sim/exporters.hpp"
#include "sim/lineage.hpp"
#include "sim/link_stats.hpp"
#include "sort/distribution.hpp"
#include "tools/ftdiag.hpp"
#include "util/rng.hpp"

namespace ftsort {
namespace {

// The pinned fig7 flagship (no kills, static faults only) and the pinned
// recovery scenario (node 6 dies mid-sort) — the same seeds the other
// observability suites use, so golden values stay comparable.

core::SortOutcome run_fig7(core::Executor exec, bool lineage) {
  util::Rng rng(1706);
  const fault::FaultSet faults = fault::random_faults(6, 2, rng);
  const auto keys = sort::gen_uniform(3'200, rng);
  core::SortConfig cfg;
  cfg.protocol = sort::ExchangeProtocol::FullExchange;
  cfg.executor = exec;
  cfg.record_metrics = true;
  cfg.record_link_stats = true;
  cfg.record_lineage = lineage;
  const core::FaultTolerantSorter sorter(6, faults, cfg);
  return sorter.sort(keys);
}

core::SortOutcome run_recovery(core::Executor exec, bool lineage = true) {
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
  cfg.record_lineage = lineage;
  const core::FaultTolerantSorter sorter(3, faults, cfg);
  return sorter.sort(keys);
}

std::vector<sort::Key> recovery_expected() {
  util::Rng rng(1703);
  (void)fault::random_faults(3, 1, rng);
  auto keys = sort::gen_uniform(200, rng);
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Per-dimension conservation against LinkStats: both sides charge at
/// NodeCtx::send from the same router path, so equality is exact.
void expect_conserves_hops(const sim::LineageSnapshot& lin,
                           const sim::LinkStatsSnapshot& links) {
  ASSERT_TRUE(lin.enabled);
  ASSERT_FALSE(links.empty());
  for (cube::Dim d = 0; d < links.dim; ++d)
    EXPECT_EQ(lin.hops_by_dim(d) + lin.untracked[static_cast<std::size_t>(d)],
              links.dim_total(d).key_hops)
        << "dimension " << d;
}

std::string metrics_json_of(const core::SortOutcome& out) {
  std::ostringstream os;
  sim::write_metrics_json(os, out.report);
  return os.str();
}

/// Fixed-name temp files: tests run single-process, no collisions.
std::string write_temp(const char* name, const std::string& text) {
  const std::string path = std::string("lineage_test_") + name + ".json";
  std::ofstream f(path);
  f << text;
  return path;
}

// ---------------------------------------------------------------------------
// Tracker basics: off by default, observation only, deterministic.

TEST(LineageTracker, DisabledByDefaultAndObservationOnly) {
  const core::SortOutcome off = run_fig7(core::Executor::Sequential, false);
  EXPECT_FALSE(off.report.lineage.enabled);
  EXPECT_TRUE(off.report.lineage.empty());
  EXPECT_TRUE(off.report.lineage.keys.empty());

  const core::SortOutcome on = run_fig7(core::Executor::Sequential, true);
  ASSERT_TRUE(on.report.lineage.enabled);
  EXPECT_FALSE(on.report.lineage.empty());
  // Tracking is observation only: every logical outcome — and therefore
  // every golden — is untouched by the flag.
  EXPECT_DOUBLE_EQ(off.report.makespan, on.report.makespan);
  EXPECT_EQ(off.report.comparisons, on.report.comparisons);
  EXPECT_EQ(off.report.messages, on.report.messages);
  EXPECT_EQ(off.report.key_hops, on.report.key_hops);
  EXPECT_TRUE(off.report.metrics == on.report.metrics);
  EXPECT_TRUE(off.report.links == on.report.links);
  EXPECT_EQ(off.sorted, on.sorted);
}

TEST(LineageTracker, ExecutorsProduceIdenticalSnapshots) {
  const core::SortOutcome seq = run_fig7(core::Executor::Sequential, true);
  const core::SortOutcome thr = run_fig7(core::Executor::Threaded, true);
  ASSERT_TRUE(seq.report.lineage.enabled);
  EXPECT_TRUE(seq.report.lineage == thr.report.lineage);
}

TEST(LineageTracker, FaultFreeAuditIsExactAndConservesHops) {
  const core::SortOutcome out = run_fig7(core::Executor::Sequential, true);
  const sim::LineageSnapshot& lin = out.report.lineage;
  ASSERT_TRUE(lin.enabled);
  EXPECT_EQ(lin.dim, 6);

  // Every id accounted: real ids equal the input size, the rest padding.
  EXPECT_EQ(lin.assigned, lin.keys.size());
  EXPECT_EQ(lin.assigned - lin.dummies, 3'200u);

  // Exact no-loss/no-dup audit over the gathered output.
  ASSERT_TRUE(lin.audit.checked);
  EXPECT_TRUE(lin.audit.ok);
  EXPECT_TRUE(lin.audit.lost.empty());
  EXPECT_TRUE(lin.audit.duplicated.empty());
  EXPECT_EQ(lin.audit.salvaged, 0u);
  EXPECT_EQ(lin.resolve_mismatches, 0u);

  // Without recovery traffic every payload word a node sends is a block
  // it holds, so the conservation equation closes with zero untracked.
  EXPECT_EQ(lin.untracked_total(), 0u);
  expect_conserves_hops(lin, out.report.links);
}

// ---------------------------------------------------------------------------
// Recovery: salvage custody, witnesses, and the audit across a death.

TEST(LineageRecovery, AuditSurvivesAKillAndSalvagesThroughWitnesses) {
  const core::SortOutcome out = run_recovery(core::Executor::Sequential);
  ASSERT_EQ(out.sorted, recovery_expected());
  const sim::LineageSnapshot& lin = out.report.lineage;
  ASSERT_TRUE(lin.enabled);
  ASSERT_TRUE(lin.audit.checked);
  EXPECT_TRUE(lin.audit.ok) << lin.audit.lost.size() << " lost, "
                            << lin.audit.duplicated.size() << " duplicated";

  // Node 6 died holding keys: they must have been salvaged, and every
  // salvaged custody chain must pass through a recorded witness.
  EXPECT_GT(lin.audit.salvaged, 0u);
  EXPECT_EQ(lin.audit.witnessed_salvaged, lin.audit.salvaged);
  for (const sim::LineageKeyRecord& k : lin.keys) {
    if (!k.salvaged) continue;
    const auto it = std::find_if(k.chain.begin(), k.chain.end(),
                                 [](const sim::LineageEvent& ev) {
                                   return ev.kind ==
                                          sim::LineageEventKind::Salvage;
                                 });
    ASSERT_NE(it, k.chain.end());
    EXPECT_NE(it->peer, sim::kLineageNoWitness);
  }

  // Conservation still closes exactly; recovery's control/witness/fan-out
  // words are the untracked remainder.
  expect_conserves_hops(lin, out.report.links);
}

TEST(LineageRecovery, ExecutorsProduceIdenticalSnapshots) {
  const core::SortOutcome seq = run_recovery(core::Executor::Sequential);
  const core::SortOutcome thr = run_recovery(core::Executor::Threaded);
  ASSERT_TRUE(seq.report.lineage.enabled);
  EXPECT_TRUE(seq.report.lineage == thr.report.lineage);
}

// ---------------------------------------------------------------------------
// The audit as a detector: rerunning it against a tampered output names
// the violated ids, and the campaign classification turns that into
// RunOutcome::Corrupt.

TEST(LineageAudit, TamperedOutputNamesLostAndDuplicatedIds) {
  core::SortOutcome out = run_recovery(core::Executor::Sequential);
  ASSERT_TRUE(out.report.lineage.audit.ok);

  // Lose the smallest key, duplicate the largest: exactly the corruption
  // a value-level multiset comparison can localize but not attribute.
  std::vector<sort::Key> tampered = out.sorted;
  const sort::Key lost_value = tampered.front();
  const sort::Key dup_value = tampered.back();
  tampered.erase(tampered.begin());
  tampered.push_back(dup_value);

  sim::audit_lineage(out.report.lineage, tampered);
  const sim::LineageAudit& audit = out.report.lineage.audit;
  ASSERT_TRUE(audit.checked);
  EXPECT_FALSE(audit.ok);
  ASSERT_EQ(audit.lost.size(), 1u);
  EXPECT_EQ(audit.lost[0].value, lost_value);
  // The named id really is an id of that value.
  ASSERT_LT(audit.lost[0].id, out.report.lineage.keys.size());
  EXPECT_EQ(out.report.lineage.keys[audit.lost[0].id].value, lost_value);
  ASSERT_EQ(audit.duplicated.size(), 1u);
  EXPECT_EQ(audit.duplicated[0].value, dup_value);
  EXPECT_EQ(audit.duplicated[0].extra, 1u);
}

TEST(LineageCorruptClassification, AuditFailureClassifiesCorrupt) {
  for (const core::Executor exec :
       {core::Executor::Sequential, core::Executor::Threaded}) {
    core::SortOutcome out = run_recovery(exec);
    ASSERT_EQ(out.sorted, recovery_expected());
    // The value-level check passed and the audit passed: recovered.
    EXPECT_EQ(core::classify_completed(out.report, true),
              core::RunOutcome::CompletedRecovered);

    // A failed custody audit vetoes completion exactly like a failed
    // value comparison — the campaign runner ANDs the two verdicts.
    std::vector<sort::Key> tampered = out.sorted;
    tampered.front() = tampered.back();
    sim::audit_lineage(out.report.lineage, tampered);
    const bool sorted_ok =
        tampered == recovery_expected() && out.report.lineage.audit.ok;
    EXPECT_FALSE(sorted_ok);
    EXPECT_EQ(core::classify_completed(out.report, sorted_ok),
              core::RunOutcome::Corrupt);
  }
}

// ---------------------------------------------------------------------------
// Metrics JSON surface: schema v6 block when on, enabled:false stub off.

TEST(LineageMetricsJson, BlockCarriesAuditTrailsAndStubWhenOff) {
  const core::SortOutcome on = run_recovery(core::Executor::Sequential);
  const std::string json = metrics_json_of(on);
  EXPECT_NE(json.find("\"schema_version\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"lineage\": {"), std::string::npos);
  EXPECT_NE(json.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(json.find("\"audit\": {"), std::string::npos);
  EXPECT_NE(json.find("\"top_travelers\": ["), std::string::npos);
  EXPECT_NE(json.find("\"trail\": \"A,"), std::string::npos);

  const core::SortOutcome off =
      run_recovery(core::Executor::Sequential, false);
  const std::string stub = metrics_json_of(off);
  EXPECT_NE(stub.find("\"lineage\": {"), std::string::npos);
  EXPECT_NE(stub.find("\"enabled\": false"), std::string::npos);
  EXPECT_EQ(stub.find("\"top_travelers\""), std::string::npos);
}

TEST(LineageMetricsJson, ChromeTraceCarriesLineageSummary) {
  const core::SortOutcome out = run_recovery(core::Executor::Sequential);
  std::ostringstream os;
  sim::ChromeTraceOptions topts;
  topts.lineage = &out.report.lineage;
  sim::write_chrome_trace(os, out.trace_events, 8, topts);
  const std::string trace = os.str();
  EXPECT_NE(trace.find("lineage_summary"), std::string::npos);
  EXPECT_NE(trace.find("\"audit_ok\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// ftdiag lineage: the 0/1/2 exit contract, and naming corrupted ids.

TEST(LineageFtdiagCli, CleanReportExitsZeroInEveryMode) {
  const core::SortOutcome out = run_recovery(core::Executor::Sequential);
  const std::string path = write_temp("clean", metrics_json_of(out));
  std::ostringstream cli_out;
  std::ostringstream cli_err;

  const char* summary[] = {"ftdiag", "lineage", path.c_str()};
  EXPECT_EQ(tools::run_cli(3, summary, cli_out, cli_err), 0);
  EXPECT_NE(cli_out.str().find("audit: OK"), std::string::npos)
      << cli_out.str();

  const char* audit[] = {"ftdiag", "lineage", path.c_str(), "--audit"};
  EXPECT_EQ(tools::run_cli(4, audit, cli_out, cli_err), 0);

  const char* key[] = {"ftdiag", "lineage", path.c_str(), "--key", "0"};
  cli_out.str({});
  EXPECT_EQ(tools::run_cli(5, key, cli_out, cli_err), 0);
  EXPECT_NE(cli_out.str().find("custody trail"), std::string::npos)
      << cli_out.str();

  const char* top[] = {"ftdiag", "lineage", path.c_str(), "--top", "3"};
  cli_out.str({});
  EXPECT_EQ(tools::run_cli(5, top, cli_out, cli_err), 0);
  EXPECT_NE(cli_out.str().find("top 3 traveler"), std::string::npos)
      << cli_out.str();
}

TEST(LineageFtdiagCli, ViolatedAuditExitsOneAndNamesIds) {
  core::SortOutcome out = run_recovery(core::Executor::Sequential);
  std::vector<sort::Key> tampered = out.sorted;
  const sort::Key lost_value = tampered.front();
  tampered.erase(tampered.begin());
  tampered.push_back(tampered.back());
  sim::audit_lineage(out.report.lineage, tampered);
  ASSERT_FALSE(out.report.lineage.audit.ok);
  const std::uint64_t lost_id = out.report.lineage.audit.lost[0].id;

  const std::string path = write_temp("corrupt", metrics_json_of(out));
  std::ostringstream cli_out;
  std::ostringstream cli_err;
  const char* args[] = {"ftdiag", "lineage", path.c_str()};
  EXPECT_EQ(tools::run_cli(3, args, cli_out, cli_err), 1);
  const std::string text = cli_out.str();
  EXPECT_NE(text.find("VIOLATED"), std::string::npos) << text;
  EXPECT_NE(text.find("LOST id " + std::to_string(lost_id)),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("DUPLICATED value"), std::string::npos) << text;
  (void)lost_value;
}

TEST(LineageFtdiagCli, UsageAndParseErrorsExitTwo) {
  std::ostringstream cli_out;
  std::ostringstream cli_err;

  const char* missing[] = {"ftdiag", "lineage", "lineage_no_such.json"};
  EXPECT_EQ(tools::run_cli(3, missing, cli_out, cli_err), 2);

  const char* no_file[] = {"ftdiag", "lineage"};
  EXPECT_EQ(tools::run_cli(2, no_file, cli_out, cli_err), 2);

  // A run with lineage off exports the stub: a parse-level refusal.
  const core::SortOutcome off =
      run_recovery(core::Executor::Sequential, false);
  const std::string stub = write_temp("stub", metrics_json_of(off));
  const char* off_args[] = {"ftdiag", "lineage", stub.c_str()};
  EXPECT_EQ(tools::run_cli(3, off_args, cli_out, cli_err), 2);
  EXPECT_NE(cli_err.str().find("record_lineage off"), std::string::npos)
      << cli_err.str();

  // Unknown id in the per-key detail.
  const core::SortOutcome on = run_recovery(core::Executor::Sequential);
  const std::string path = write_temp("clean2", metrics_json_of(on));
  const char* bad_key[] = {"ftdiag", "lineage", path.c_str(), "--key",
                           "999999"};
  EXPECT_EQ(tools::run_cli(5, bad_key, cli_out, cli_err), 2);

  // The modes are exclusive.
  const char* both[] = {"ftdiag", "lineage", path.c_str(), "--audit",
                        "--top", "3"};
  EXPECT_EQ(tools::run_cli(6, both, cli_out, cli_err), 2);
}

TEST(LineageFtdiagCli, VersionPrintsSchemaTable) {
  std::ostringstream cli_out;
  std::ostringstream cli_err;
  const char* args[] = {"ftdiag", "--version"};
  EXPECT_EQ(tools::run_cli(2, args, cli_out, cli_err), 0);
  const std::string text = cli_out.str();
  EXPECT_NE(text.find("metrics JSON: up to v8"), std::string::npos) << text;
  EXPECT_NE(text.find("bench JSON: up to v3"), std::string::npos) << text;
  EXPECT_NE(text.find("campaign JSON: exactly v7"), std::string::npos)
      << text;
  EXPECT_NE(text.find("watchdog JSON: up to v1"), std::string::npos) << text;
}

}  // namespace
}  // namespace ftsort
