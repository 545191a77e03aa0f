// Campaign aggregation: per-trial rows -> per-r reliability buckets ->
// one serializable CampaignReport.
//
// Everything in a report is derived from deterministic logical counters
// (or fixed-order reductions of them), so the same campaign spec always
// serializes to the same bytes — the property the worker-count
// determinism tests compare with string equality. Floating-point
// reductions honour that by accumulating in trial-index order; quantiles
// use the nearest-rank rule on a sorted copy (no interpolation).
//
// The JSON layout is schema version util::kCampaignSchemaVersion: a flat
// header, an "outcomes" rollup, a "lineage" audit rollup, one "buckets"
// row per r with the reliability/slowdown curves, the recovery-latency
// stage percentiles, and the Diagnosis root-cause histogram, and a
// "trials_detail" array with one row per trial (including its lineage
// audit verdict) for replay cross-checks. bench/campaign_schema.json
// lists the required keys; `ftdiag campaign` is the reference reader.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/outcome.hpp"
#include "sim/diagnosis.hpp"

namespace ftsort::campaign {

inline constexpr std::size_t kRootKindCount = 5;  ///< Diagnosis::RootKind

/// Outcome and logical counters of one trial. Fully deterministic in
/// (campaign seed, trial index, executor-independent); `diagnosis` is
/// kept whole so replay tests can compare it structurally.
struct TrialResult {
  std::uint32_t index = 0;
  std::uint32_t scenario = 0;
  std::uint32_t r = 0;
  core::RunOutcome outcome = core::RunOutcome::Failed;
  sim::Diagnosis diagnosis;
  sim::SimTime makespan = 0.0;  ///< 0 when the run threw (degraded/deadlock)
  sim::SimTime detect = 0.0;    ///< fault-detection share of the makespan
  std::uint64_t comparisons = 0;
  std::uint64_t messages = 0;
  std::uint64_t key_hops = 0;
  std::uint64_t timeouts = 0;
  std::uint32_t deaths = 0;        ///< injector victims observed by the run
  double hotspot_share = 0.0;      ///< sim::hottest_dimension_share
  /// Recovery-latency decomposition summed over the run's episodes
  /// (RunReport::recovery_latency); all zero for trials that never
  /// entered recovery or did not commit.
  sim::SimTime detect_latency = 0.0;    ///< injection -> first detection
  sim::SimTime rollcall_latency = 0.0;  ///< detection -> roll-call done
  sim::SimTime salvage_latency = 0.0;   ///< roll-call -> salvage done
  sim::SimTime restart_latency = 0.0;   ///< salvage -> re-sort finished
  /// Key-lineage audit verdict (CampaignConfig::record_lineage): checked
  /// is true for trials whose gather completed with lineage on; ok, and
  /// the lost/duplicated counts, come from the exact custody audit.
  bool lineage_checked = false;
  bool lineage_ok = false;
  std::uint64_t lineage_lost = 0;
  std::uint64_t lineage_duplicated = 0;
  /// Wall-clock watchdog verdict of the trial's own run
  /// (CampaignConfig::watchdog): trips is nonzero exactly when the trial
  /// was aborted by its watchdog (outcome Deadlocked), near_misses counts
  /// record-policy breaches. Both zero on every healthy trial, so the
  /// serialized bytes stay deterministic with the watchdog armed.
  std::uint32_t watchdog_trips = 0;
  std::uint32_t watchdog_near_misses = 0;
  bool operator==(const TrialResult&) const = default;
};

/// Reliability statistics of one r bucket.
struct BucketStats {
  std::uint32_t r = 0;
  std::uint32_t trials = 0;
  std::uint32_t completed = 0;   ///< CompletedClean
  std::uint32_t recovered = 0;   ///< CompletedRecovered
  std::uint32_t degraded = 0;
  std::uint32_t deadlocked = 0;
  std::uint32_t corrupt = 0;
  std::uint32_t failed = 0;
  /// (completed + recovered) / trials — P(sort completes | r faults).
  double completion_probability = 0.0;
  /// Over trials that produced a result (completed + recovered):
  sim::SimTime mean_makespan = 0.0;
  sim::SimTime min_makespan = 0.0;
  sim::SimTime max_makespan = 0.0;
  sim::SimTime mean_detect = 0.0;
  /// mean_makespan / bucket-0 mean_makespan: the expected-slowdown curve
  /// (1.0 for r = 0; 0.0 when either bucket has no completions).
  double mean_slowdown = 0.0;
  /// Nearest-rank quantiles of hotspot_share over completing trials.
  double hotspot_p50 = 0.0;
  double hotspot_p90 = 0.0;
  double hotspot_max = 0.0;
  /// Nearest-rank quantiles of the recovery-latency stages over the
  /// bucket's *recovered* trials (CompletedRecovered only — clean runs
  /// have no episodes and would drag every percentile to zero).
  sim::SimTime detect_latency_p50 = 0.0;
  sim::SimTime detect_latency_p90 = 0.0;
  sim::SimTime rollcall_latency_p50 = 0.0;
  sim::SimTime rollcall_latency_p90 = 0.0;
  sim::SimTime salvage_latency_p50 = 0.0;
  sim::SimTime salvage_latency_p90 = 0.0;
  sim::SimTime restart_latency_p50 = 0.0;
  sim::SimTime restart_latency_p90 = 0.0;
  /// Diagnosis root causes over the bucket's non-clean trials, indexed by
  /// sim::Diagnosis::RootKind (None counts runs that lacked evidence).
  std::array<std::uint32_t, kRootKindCount> roots{};
  bool operator==(const BucketStats&) const = default;
};

/// Campaign identity echoed into the report header — everything needed
/// to re-run it, minus the worker count (a non-semantic knob that must
/// not influence the serialized bytes).
struct CampaignMeta {
  cube::Dim n = 0;
  std::size_t r_max = 0;
  std::uint32_t scenarios = 0;
  std::uint64_t seed = 0;
  std::size_t num_keys = 0;
  double link_cut_probability = 0.0;
  std::string executor;  ///< "sequential" | "threaded"
  sim::SimTime envelope = 0.0;
  bool operator==(const CampaignMeta&) const = default;
};

struct CampaignReport {
  CampaignMeta meta;
  std::vector<TrialResult> trials;   ///< index order
  std::vector<BucketStats> buckets;  ///< r = 0 .. r_max
  /// Campaign-wide outcome rollup, indexed by core::RunOutcome.
  std::array<std::uint32_t, core::kRunOutcomeCount> outcomes{};
  /// Key-lineage audit rollup: trials whose custody audit ran / passed.
  std::uint64_t lineage_audited = 0;
  std::uint64_t lineage_ok = 0;
  /// Watchdog rollup over all trials (zeros when no watchdog was armed).
  std::uint64_t watchdog_trips = 0;
  std::uint64_t watchdog_near_misses = 0;
  /// True when the campaign was cancelled (SIGINT flush, campaign-level
  /// watchdog trip under record policy) and only the completed trials
  /// were aggregated: `trials` then holds fewer rows than the universe.
  bool partial = false;

  /// Exact conservation: every bucket's class counts sum to its trial
  /// count and the bucket trial counts sum to trials.size().
  bool conserves_trials() const;
  /// The reliability curve is monotone non-increasing in r.
  bool completion_monotone() const;

  bool operator==(const CampaignReport&) const = default;
};

/// Reduce per-trial rows (in index order) to the full report.
CampaignReport aggregate_campaign(CampaignMeta meta,
                                  std::vector<TrialResult> trials);

/// Serialize as the util::kCampaignSchemaVersion campaign JSON block.
/// Byte-stable: fixed key order, util::json::Writer numbers (doubles
/// round-trip exactly), no locale dependence.
void write_campaign_json(std::ostream& os, const CampaignReport& report);

/// Human-readable per-r summary table (the `ftdiag campaign` rendering
/// builds on the same layout).
std::string campaign_summary(const CampaignReport& report);

}  // namespace ftsort::campaign
