#include "campaign/report.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/contracts.hpp"
#include "util/json.hpp"
#include "util/schema.hpp"

namespace ftsort::campaign {

namespace {

/// Nearest-rank quantile of an ascending-sorted vector (no
/// interpolation: deterministic and insensitive to fp rounding).
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

const char* root_name(std::size_t i) {
  return sim::diagnosis_root_kind_name(
      static_cast<sim::Diagnosis::RootKind>(i));
}

}  // namespace

bool CampaignReport::conserves_trials() const {
  std::uint64_t total = 0;
  for (const BucketStats& b : buckets) {
    if (static_cast<std::uint64_t>(b.completed) + b.recovered + b.degraded +
            b.deadlocked + b.corrupt + b.failed !=
        b.trials)
      return false;
    total += b.trials;
  }
  return total == trials.size();
}

bool CampaignReport::completion_monotone() const {
  for (std::size_t i = 1; i < buckets.size(); ++i)
    if (buckets[i].completion_probability >
        buckets[i - 1].completion_probability)
      return false;
  return true;
}

CampaignReport aggregate_campaign(CampaignMeta meta,
                                  std::vector<TrialResult> trials) {
  CampaignReport rep;
  rep.meta = std::move(meta);
  rep.buckets.resize(rep.meta.r_max + 1);
  for (std::size_t r = 0; r <= rep.meta.r_max; ++r)
    rep.buckets[r].r = static_cast<std::uint32_t>(r);

  // One pass in index order: counts and ordered sums.
  std::vector<std::vector<double>> hotspots(rep.buckets.size());
  // Recovery-latency stage samples, recovered trials only (clean runs
  // have no episodes and would drag the percentiles to zero).
  struct StageSamples {
    std::vector<double> detect, rollcall, salvage, restart;
  };
  std::vector<StageSamples> stages(rep.buckets.size());
  for (const TrialResult& t : trials) {
    FTSORT_REQUIRE(t.r < rep.buckets.size());
    BucketStats& b = rep.buckets[t.r];
    ++b.trials;
    ++rep.outcomes[static_cast<std::size_t>(t.outcome)];
    switch (t.outcome) {
      case core::RunOutcome::CompletedClean: ++b.completed; break;
      case core::RunOutcome::CompletedRecovered: ++b.recovered; break;
      case core::RunOutcome::Degraded: ++b.degraded; break;
      case core::RunOutcome::Deadlocked: ++b.deadlocked; break;
      case core::RunOutcome::Corrupt: ++b.corrupt; break;
      case core::RunOutcome::Failed: ++b.failed; break;
    }
    if (t.outcome != core::RunOutcome::CompletedClean)
      ++b.roots[static_cast<std::size_t>(t.diagnosis.root_kind)];
    if (core::outcome_completed(t.outcome)) {
      const std::uint32_t done = b.completed + b.recovered;
      b.mean_makespan += t.makespan;  // divided after the pass
      b.mean_detect += t.detect;
      b.min_makespan =
          done == 1 ? t.makespan : std::min(b.min_makespan, t.makespan);
      b.max_makespan = std::max(b.max_makespan, t.makespan);
      hotspots[t.r].push_back(t.hotspot_share);
    }
    if (t.lineage_checked) {
      ++rep.lineage_audited;
      if (t.lineage_ok) ++rep.lineage_ok;
    }
    rep.watchdog_trips += t.watchdog_trips;
    rep.watchdog_near_misses += t.watchdog_near_misses;
    if (t.outcome == core::RunOutcome::CompletedRecovered) {
      StageSamples& s = stages[t.r];
      s.detect.push_back(t.detect_latency);
      s.rollcall.push_back(t.rollcall_latency);
      s.salvage.push_back(t.salvage_latency);
      s.restart.push_back(t.restart_latency);
    }
  }

  for (std::size_t r = 0; r < rep.buckets.size(); ++r) {
    BucketStats& b = rep.buckets[r];
    const std::uint32_t done = b.completed + b.recovered;
    if (b.trials > 0)
      b.completion_probability =
          static_cast<double>(done) / static_cast<double>(b.trials);
    if (done > 0) {
      b.mean_makespan /= static_cast<double>(done);
      b.mean_detect /= static_cast<double>(done);
    }
    std::sort(hotspots[r].begin(), hotspots[r].end());
    b.hotspot_p50 = quantile(hotspots[r], 0.5);
    b.hotspot_p90 = quantile(hotspots[r], 0.9);
    b.hotspot_max = hotspots[r].empty() ? 0.0 : hotspots[r].back();
    StageSamples& s = stages[r];
    const auto pcts = [](std::vector<double>& v, double& p50, double& p90) {
      std::sort(v.begin(), v.end());
      p50 = quantile(v, 0.5);
      p90 = quantile(v, 0.9);
    };
    pcts(s.detect, b.detect_latency_p50, b.detect_latency_p90);
    pcts(s.rollcall, b.rollcall_latency_p50, b.rollcall_latency_p90);
    pcts(s.salvage, b.salvage_latency_p50, b.salvage_latency_p90);
    pcts(s.restart, b.restart_latency_p50, b.restart_latency_p90);
  }
  const double base = rep.buckets[0].mean_makespan;
  for (BucketStats& b : rep.buckets)
    b.mean_slowdown = (base > 0.0 && b.completed + b.recovered > 0)
                          ? b.mean_makespan / base
                          : 0.0;

  rep.trials = std::move(trials);
  return rep;
}

void write_campaign_json(std::ostream& os, const CampaignReport& rep) {
  using util::json::Writer;
  Writer w(os);
  w.begin_object(Writer::Layout::Lines);
  w.fields("campaign", "fault_mc", "schema_version",
           util::kCampaignSchemaVersion, "n", rep.meta.n, "r_max",
           rep.meta.r_max, "scenarios", rep.meta.scenarios, "trials",
           rep.trials.size(), "seed", rep.meta.seed, "num_keys",
           rep.meta.num_keys, "executor", rep.meta.executor,
           "link_cut_probability", rep.meta.link_cut_probability, "envelope",
           rep.meta.envelope);
  w.key("outcomes").begin_object();
  for (std::size_t i = 0; i < core::kRunOutcomeCount; ++i)
    w.fields(core::run_outcome_name(static_cast<core::RunOutcome>(i)),
             rep.outcomes[i]);
  w.end().key("lineage").begin_object();
  w.fields("audited", rep.lineage_audited, "ok", rep.lineage_ok);
  w.end().key("watchdog").begin_object();
  w.fields("trips", rep.watchdog_trips, "near_misses",
           rep.watchdog_near_misses);
  w.end().fields("partial", rep.partial);
  // One bucket per line group: counts, then each stage's statistics on a
  // continuation line under the bucket's opening brace.
  w.key("buckets").begin_array(Writer::Layout::Lines);
  for (const BucketStats& b : rep.buckets) {
    w.begin_object();
    w.fields("r", b.r, "trials", b.trials, "completed", b.completed,
             "recovered", b.recovered, "degraded", b.degraded, "deadlocked",
             b.deadlocked, "corrupt", b.corrupt, "failed", b.failed);
    w.wrap().fields("completion_probability", b.completion_probability,
                    "mean_makespan", b.mean_makespan, "min_makespan",
                    b.min_makespan, "max_makespan", b.max_makespan);
    w.wrap().fields("mean_detect", b.mean_detect, "mean_slowdown",
                    b.mean_slowdown);
    w.wrap().fields("hotspot_p50", b.hotspot_p50, "hotspot_p90",
                    b.hotspot_p90, "hotspot_max", b.hotspot_max);
    w.wrap().fields("detect_latency_p50", b.detect_latency_p50,
                    "detect_latency_p90", b.detect_latency_p90);
    w.wrap().fields("rollcall_latency_p50", b.rollcall_latency_p50,
                    "rollcall_latency_p90", b.rollcall_latency_p90);
    w.wrap().fields("salvage_latency_p50", b.salvage_latency_p50,
                    "salvage_latency_p90", b.salvage_latency_p90);
    w.wrap().fields("restart_latency_p50", b.restart_latency_p50,
                    "restart_latency_p90", b.restart_latency_p90);
    w.wrap().key("roots").begin_object();
    for (std::size_t k = 0; k < kRootKindCount; ++k)
      w.fields(root_name(k), b.roots[k]);
    w.end().end();
  }
  w.end().key("trials_detail").begin_array(Writer::Layout::Lines);
  for (const TrialResult& t : rep.trials) {
    w.begin_object();
    w.fields("index", t.index, "scenario", t.scenario, "r", t.r, "outcome",
             core::run_outcome_name(t.outcome), "root",
             sim::diagnosis_root_kind_name(t.diagnosis.root_kind), "makespan",
             t.makespan, "detect", t.detect, "deaths", t.deaths, "timeouts",
             t.timeouts, "comparisons", t.comparisons, "messages",
             t.messages, "key_hops", t.key_hops, "hotspot_share",
             t.hotspot_share, "detect_latency", t.detect_latency,
             "rollcall_latency", t.rollcall_latency, "salvage_latency",
             t.salvage_latency, "restart_latency", t.restart_latency,
             "lineage_checked", t.lineage_checked, "lineage_ok",
             t.lineage_ok, "lineage_lost", t.lineage_lost,
             "lineage_duplicated", t.lineage_duplicated, "watchdog_trips",
             t.watchdog_trips, "watchdog_near_misses",
             t.watchdog_near_misses);
    w.end();
  }
  w.end().end();
}

std::string campaign_summary(const CampaignReport& rep) {
  std::ostringstream os;
  os << "campaign fault_mc: Q_" << rep.meta.n << ", r <= " << rep.meta.r_max
     << ", " << rep.trials.size() << " trials (" << rep.meta.scenarios
     << " scenarios x " << rep.meta.r_max + 1 << " buckets), seed "
     << rep.meta.seed << ", " << rep.meta.executor << " executor\n";
  char line[224];
  std::snprintf(line, sizeof line,
                "%-4s %7s %10s %10s %9s %11s %12s %10s %12s %11s %12s %12s\n",
                "r", "trials", "completed", "recovered", "degraded",
                "P(complete)", "mean_slowdown", "det_share", "hotspot_p90",
                "detect_p50", "salvage_p50", "restart_p50");
  os << line;
  for (const BucketStats& b : rep.buckets) {
    const double det_share =
        b.mean_makespan > 0.0 ? b.mean_detect / b.mean_makespan : 0.0;
    std::snprintf(line, sizeof line,
                  "%-4u %7u %10u %10u %9u %11.3f %12.3f %10.3f %12.3f "
                  "%11.0f %12.0f %12.0f\n",
                  b.r, b.trials, b.completed, b.recovered, b.degraded,
                  b.completion_probability, b.mean_slowdown, det_share,
                  b.hotspot_p90, b.detect_latency_p50, b.salvage_latency_p50,
                  b.restart_latency_p50);
    os << line;
  }
  return os.str();
}

}  // namespace ftsort::campaign
