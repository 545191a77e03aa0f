// Differential diagnosis CLI (ftdiag): library half, linked by the
// `ftdiag` executable and by tests/test_ftdiag.cpp.
//
// `explain_trace_json` replays the failure evidence an exported Chrome
// trace holds (timeout/kill instant markers, each carrying its paper
// phase) through sim::diagnose, producing the same Diagnosis the
// simulator attaches to RunReport — but offline, from a file. Because
// both paths feed the one builder, `ftdiag explain trace.json` and the
// in-process report can never disagree about the root cause.
//
// `diff_json` compares two metrics/bench JSON exports phase by phase and
// attributes the critical-path delta (comm vs compute where the export
// carries the split), so a perf regression names the paper step that
// paid for it instead of a bare makespan number. It understands both
// shapes the repo emits: sim::write_metrics_json (single run, `"phases"`
// array) and bench_harness (`"scenarios"` array with nested `"phases"`
// objects).
//
// Every reader parses its input with util/json.hpp and navigates by key,
// so any valid formatting of a document gives the same result; invalid
// JSON is an error (`ok == false`, exit 2) naming the byte offset.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/diagnosis.hpp"

namespace ftsort::tools {

/// Result of reconstructing a Diagnosis from a Chrome-trace JSON export.
struct ExplainResult {
  bool ok = false;     ///< parse succeeded (diagnosis may still be empty)
  std::string error;   ///< first parse problem when !ok
  std::uint64_t timeout_events = 0;  ///< timeout instants found
  std::uint64_t kill_events = 0;     ///< kill instants found
  sim::Diagnosis diagnosis;
  std::string text;  ///< deterministic human-readable report
};

ExplainResult explain_trace_json(const std::string& json);

/// One compared (scenario, phase) pair. `scenario` is empty for the
/// single-run metrics format.
struct PhaseDelta {
  std::string scenario;
  std::string phase;
  double before = 0.0;  ///< critical_time in the first file (µs)
  double after = 0.0;   ///< critical_time in the second file (µs)
  double delta_pct = 0.0;
  bool regression = false;  ///< |delta_pct| beyond the threshold
  std::string attribution;  ///< "comm" / "compute" when the split exists
};

struct DiffResult {
  bool ok = false;
  std::string error;
  double threshold_pct = 0.0;
  std::vector<PhaseDelta> deltas;  ///< every compared phase, in file order
  std::size_t regressions = 0;
  std::string text;  ///< rendered report, one line per delta + summary
};

/// Compare per-phase critical path between two JSON exports. The gate is
/// symmetric: a phase that got ±`threshold_pct` percent slower OR faster
/// is flagged, because an unexplained speedup in a deterministic
/// simulator is as suspicious as a slowdown.
DiffResult diff_json(const std::string& a, const std::string& b,
                     double threshold_pct);

/// One per-cube-dimension traffic delta from `hotspots_diff`.
struct DimDelta {
  std::string scenario;  ///< empty for the single-run metrics format
  int dim = 0;
  double before = 0.0;  ///< key_hops in the first file
  double after = 0.0;   ///< key_hops in the second file
  double delta_pct = 0.0;
  bool regression = false;  ///< |delta_pct| beyond the threshold
};

struct HotspotsResult {
  bool ok = false;
  std::string error;
  double threshold_pct = 0.0;   ///< diff mode only
  std::size_t regressions = 0;  ///< diff mode only
  std::vector<DimDelta> deltas;
  std::string text;  ///< deterministic rendered report
};

/// Single-file report: rank cube dimensions by wire busy time (top
/// `top_k`, all when 0) and attribute communication volume per paper
/// phase. Understands both link-telemetry shapes the repo emits:
/// sim::write_metrics_json (`"links"` block) and bench_harness
/// (`"link_dimensions"` per scenario). Scenarios without link telemetry
/// (kernel micros) are skipped; a document with none at all is an error.
HotspotsResult hotspots_report(const std::string& json, std::size_t top_k);

/// Two-file diff over per-dimension key_hops (plus the per-run total).
/// The gate is symmetric, like diff_json: traffic that moved by more than
/// ±`threshold_pct` percent in either direction on any dimension is a
/// regression — the counters are deterministic, so any unexplained shift
/// means the routing or the algorithm changed.
HotspotsResult hotspots_diff(const std::string& a, const std::string& b,
                             double threshold_pct);

/// One per-r-bucket delta from `campaign_diff`.
struct BucketDelta {
  int r = 0;
  /// P(complete | r) in the two files and its delta in percentage points.
  double prob_before = 0.0;
  double prob_after = 0.0;
  double prob_delta_pts = 0.0;
  /// mean_slowdown in the two files and its relative delta in percent.
  double slowdown_before = 0.0;
  double slowdown_after = 0.0;
  double slowdown_delta_pct = 0.0;
  bool regression = false;  ///< either delta beyond the threshold
};

struct CampaignCliResult {
  bool ok = false;
  std::string error;
  double threshold_pct = 0.0;   ///< diff mode only
  std::size_t regressions = 0;  ///< diff mode only
  bool monotone = true;  ///< report mode: completion curve non-increasing
  std::vector<BucketDelta> deltas;  ///< diff mode only
  std::string text;  ///< deterministic rendered report
};

/// Single-file summary of a schema-v5 campaign JSON block
/// (campaign::write_campaign_json): header, outcome rollup, the per-r
/// reliability/slowdown table, and a monotonicity verdict on the
/// completion curve.
CampaignCliResult campaign_report(const std::string& json);

/// Two-file diff over the per-r reliability curves. The gate is
/// symmetric, like diff_json: a bucket whose completion probability
/// moved by more than ±`threshold_pct` percentage points, or whose mean
/// slowdown moved by more than ±`threshold_pct` percent, in either
/// direction, is a regression — campaigns are deterministic in their
/// seed, so same-spec reports must match exactly (threshold 0 is the
/// default and a meaningful gate).
CampaignCliResult campaign_diff(const std::string& a, const std::string& b,
                                double threshold_pct);

/// One (scenario, mode, build) trend line from `history_trends`.
struct HistoryTrend {
  std::string scenario;
  std::string mode;   ///< "smoke" | "full"
  std::string build;  ///< "release" | "debug"
  std::size_t entries = 0;  ///< history lines contributing a sample
  double baseline = 0.0;    ///< median of the pre-window samples
  double recent = 0.0;      ///< median of the last-k window
  double drift_pct = 0.0;   ///< (recent - baseline) / baseline, percent
  bool regression = false;  ///< |drift_pct| beyond the threshold
  std::string sparkline;    ///< one block glyph per sample, min..max scaled
  /// Distinct host `nproc` stamps of the samples, first-appearance order;
  /// "unknown" for lines written before bench_harness stamped them.
  /// Collected for `wall_ns` only, the one host-dependent metric.
  std::vector<std::string> nprocs;
};

struct HistoryResult {
  bool ok = false;
  std::string error;
  std::string metric;          ///< "makespan" | "wall_ns" | "comparisons"
  std::size_t last_k = 0;
  double threshold_pct = 0.0;
  std::size_t lines = 0;          ///< well-formed history lines parsed
  std::size_t skipped_lines = 0;  ///< corrupt/truncated lines skipped
  std::size_t short_groups = 0;   ///< groups with < 2 samples (no trend)
  std::vector<HistoryTrend> trends;  ///< first-appearance order
  std::size_t regressions = 0;
  std::string text;  ///< deterministic rendered report
};

/// Key-lineage report over a schema-v6 metrics JSON export
/// (sim::write_metrics_json with record_lineage on).
struct LineageCliResult {
  bool ok = false;
  std::string error;
  bool audit_checked = false;  ///< the no-loss/no-dup audit ran
  bool audit_ok = false;       ///< ...and passed
  std::size_t lost = 0;        ///< named lost ids
  std::size_t duplicated = 0;  ///< named duplicated values
  std::string text;            ///< deterministic rendered report
};

/// `key < 0, top_n == 0, !audit_only`: summary (rollup, audit verdict
/// with every lost/duplicated id named, top travelers). `key >= 0`: that
/// id's full record with its custody trail decoded event by event.
/// `top_n > 0`: the top-N travelers by link crossings from the per-key
/// detail. `audit_only`: just the verdict and the named violations.
LineageCliResult lineage_report(const std::string& json, long key,
                                std::size_t top_n, bool audit_only);

/// Trend gate over a bench_harness BENCH_history.jsonl: one appended
/// line per bench run, each carrying per-scenario wall_ns / makespan /
/// comparisons. Samples group by (scenario, mode, build) — smoke and
/// full runs, release and debug builds, must never be compared against
/// each other. Per group the last `last_k` samples (clamped so at least
/// one older sample remains) are summarized by their median and held
/// against the median of everything before the window; the gate is
/// symmetric, like diff_json, because the simulator metrics are
/// deterministic. Corrupt or truncated lines (a crashed bench run, a
/// partial append) are skipped and counted, never fatal. For `wall_ns`,
/// a group whose samples carry more than one host `nproc` stamp gets a
/// note naming them (unstamped lines count as "unknown"); the gate
/// ignores it.
HistoryResult history_trends(const std::string& jsonl,
                             const std::string& metric, std::size_t last_k,
                             double threshold_pct);

/// One heartbeat row decoded from a watchdog black-box dump.
struct StuckSlot {
  std::string slot;        ///< "node 3", "scheduler", "worker 0", ...
  std::uint64_t beats = 0;
  std::uint64_t age_ms = 0;   ///< wall ms since this slot last advanced
  std::string activity;       ///< decoded phase / trial index / "-"
  bool terminal = false;      ///< slot retired in order (never a suspect)
};

struct StuckResult {
  bool ok = false;
  std::string error;
  std::string origin;  ///< "machine" | "campaign" (who armed the watchdog)
  std::uint64_t trips = 0;        ///< abort-policy trips in the dump
  std::uint64_t near_misses = 0;  ///< record-policy breaches in the dump
  std::vector<StuckSlot> slots;   ///< live slots most-silent-first
  std::string text;  ///< deterministic rendered report
};

/// Decode a watchdog black-box dump (sim::write_watchdog_dump) into a
/// root-cause verdict: the trip header, the stall arithmetic (measured
/// silence vs the configured and effective deadlines), the replayed
/// Diagnosis when the dump carries one, and the full heartbeat table
/// sorted most-silent-first so the culprit slot leads. Terminal slots
/// (threads that retired in order) are listed last and never named as
/// the most-silent suspect.
StuckResult stuck_report(const std::string& json);

/// Full CLI: `ftdiag diff A B [--threshold PCT]`,
/// `ftdiag explain TRACE.json`, `ftdiag hotspots FILE [--top K]`,
/// `ftdiag hotspots A B [--threshold PCT]`,
/// `ftdiag campaign FILE`, `ftdiag campaign A B [--threshold PCT]`,
/// `ftdiag history FILE.jsonl [--metric M] [--last K] [--threshold PCT]`,
/// `ftdiag lineage METRICS.json [--key ID | --top N | --audit]`,
/// `ftdiag stuck DUMP.json` (a watchdog black-box dump), or
/// `ftdiag --version` (the schema table, from util/schema.hpp).
/// Returns the process exit code: 0 = clean, 1 = diff found a
/// regression beyond the threshold (for `lineage`: the custody audit is
/// violated; for `stuck`: the dump records at least one abort trip),
/// 2 = usage or parse error.
int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err);

}  // namespace ftsort::tools
