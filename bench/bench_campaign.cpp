// Monte Carlo campaign bench: drives campaign::run_campaign over the
// worker pool, reports trials/sec, and exports the schema-v4 campaign
// JSON (campaign/report.hpp).
//
// Usage:
//   bench_campaign [--smoke] [--out PATH] [--baseline PATH]
//                  [--schema PATH] [--workers N]
//
// `--smoke` shrinks the universe for a seconds-scale CI run; `--baseline`
// compares the per-bucket outcome counts against the checked-in
// bench/BENCH_campaign_baseline.json *exactly* — the campaign is
// deterministic in its seed, so the gate has no tolerance band: any
// outcome drift means the sampler, the recovery engine, or the simulator
// changed, and the baseline must be regenerated deliberately. `--schema`
// validates the export against the bench/campaign_schema.json
// required-keys list, same discipline as the metrics schema gate.
//
// Wall-clock trials/sec is meaningful in the `release` preset only; the
// smoke gate reads deterministic counters, so it is safe in any build.
//
// Exit codes: 0 clean, 1 gate failure, 2 usage error.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "core/outcome.hpp"
#include "util/json.hpp"

namespace {

using namespace ftsort;

/// A required key is one present as an object key anywhere in the parsed
/// export; a required outcome class one present in its `outcomes` rollup.
bool validate_schema(const util::json::Value& doc,
                     const std::string& schema_path) {
  const util::json::ParseResult schema = util::json::parse_file(schema_path);
  if (!schema.ok()) {
    std::fprintf(stderr, "FAIL: cannot read schema %s: %s\n",
                 schema_path.c_str(), schema.error.c_str());
    return false;
  }
  const std::vector<util::json::Value>& keys =
      schema.value["required_keys"].items();
  const std::vector<util::json::Value>& outcomes =
      schema.value["required_outcomes"].items();
  if (keys.empty() || outcomes.empty()) {
    std::fprintf(stderr, "FAIL: schema %s lists no required keys\n",
                 schema_path.c_str());
    return false;
  }
  const std::set<std::string> present = util::json::object_keys(doc);
  bool ok = true;
  for (const util::json::Value& k : keys)
    if (present.count(k.string()) == 0) {
      std::fprintf(stderr, "SCHEMA: missing required key \"%s\"\n",
                   k.string().c_str());
      ok = false;
    }
  for (const util::json::Value& o : outcomes)
    if (doc["outcomes"].find(o.string()) == nullptr) {
      std::fprintf(stderr, "SCHEMA: missing outcome class \"%s\"\n",
                   o.string().c_str());
      ok = false;
    }
  return ok;
}

/// The six per-bucket outcome counts, extracted in bucket order. The
/// exact-equality gate compares these and nothing else: makespans shift
/// whenever the cost model is retuned, but an outcome flip means the
/// *behaviour* of recovery under this fault universe changed.
struct BucketCounts {
  long r = -1;
  long counts[core::kRunOutcomeCount] = {};
  bool operator==(const BucketCounts&) const = default;
};

std::vector<BucketCounts> bucket_counts(const util::json::Value& doc) {
  std::vector<BucketCounts> rows;
  for (const util::json::Value& bucket : doc["buckets"].items()) {
    BucketCounts row;
    row.r = static_cast<long>(bucket["r"].number(-1.0));
    for (std::size_t i = 0; i < core::kRunOutcomeCount; ++i)
      row.counts[i] = static_cast<long>(
          bucket[core::run_outcome_name(static_cast<core::RunOutcome>(i))]
              .number(-1.0));
    rows.push_back(row);
  }
  return rows;
}

bool check_baseline(const util::json::Value& doc,
                    const std::string& baseline_path) {
  const util::json::ParseResult baseline =
      util::json::parse_file(baseline_path);
  if (!baseline.ok()) {
    std::fprintf(stderr, "FAIL: cannot read baseline %s: %s\n",
                 baseline_path.c_str(), baseline.error.c_str());
    return false;
  }
  const std::vector<BucketCounts> cur = bucket_counts(doc);
  const std::vector<BucketCounts> base = bucket_counts(baseline.value);
  if (cur.empty() || base.empty()) {
    std::fprintf(stderr, "FAIL: could not parse bucket counts (%zu vs %zu)\n",
                 cur.size(), base.size());
    return false;
  }
  if (cur == base) return true;
  std::fprintf(stderr,
               "FAIL: per-bucket outcome counts diverged from %s "
               "(deterministic campaign — regenerate the baseline only for "
               "an intended behaviour change)\n",
               baseline_path.c_str());
  for (std::size_t i = 0; i < cur.size() || i < base.size(); ++i) {
    const BucketCounts c = i < cur.size() ? cur[i] : BucketCounts{};
    const BucketCounts b = i < base.size() ? base[i] : BucketCounts{};
    if (c == b) continue;
    std::fprintf(stderr,
                 "  r=%ld: completed %ld/%ld recovered %ld/%ld degraded "
                 "%ld/%ld deadlocked %ld/%ld corrupt %ld/%ld failed %ld/%ld "
                 "(current/baseline)\n",
                 c.r, c.counts[0], b.counts[0], c.counts[1], b.counts[1],
                 c.counts[2], b.counts[2], c.counts[3], b.counts[3],
                 c.counts[4], b.counts[4], c.counts[5], b.counts[5]);
  }
  return false;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_campaign [--smoke] [--out PATH] "
               "[--baseline PATH] [--schema PATH] [--workers N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  std::string baseline_path;
  std::string schema_path;
  unsigned workers = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--schema" && i + 1 < argc) {
      schema_path = argv[++i];
    } else if (arg == "--workers" && i + 1 < argc) {
      const long w = std::strtol(argv[++i], nullptr, 10);
      if (w < 1) return usage();
      workers = static_cast<unsigned>(w);
    } else {
      return usage();
    }
  }

  campaign::CampaignConfig cfg;
  cfg.seed = 20260807;
  cfg.workers = workers;
  if (smoke) {
    // Seconds-scale universe: Q_5, 10 scenarios x r in 0..2 = 30 trials.
    cfg.universe.n = 5;
    cfg.universe.r_max = 2;
    cfg.universe.scenarios = 10;
    cfg.universe.num_keys = 128;
  } else {
    // The acceptance campaign: Q_7, 125 scenarios x r in 0..3 = 500 trials.
    cfg.universe.n = 7;
    cfg.universe.r_max = 3;
    cfg.universe.scenarios = 125;
    cfg.universe.num_keys = 256;
  }

  const auto t0 = std::chrono::steady_clock::now();
  const campaign::CampaignReport report = campaign::run_campaign(cfg);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();

  std::fputs(campaign::campaign_summary(report).c_str(), stdout);
  std::printf("trials/sec: %.2f (%zu trials, %.2fs wall, %u worker(s))\n",
              secs > 0.0 ? static_cast<double>(report.trials.size()) / secs
                         : 0.0,
              report.trials.size(), secs, workers);
  if (!report.conserves_trials()) {
    std::fprintf(stderr, "FAIL: trial-count conservation violated\n");
    return 1;
  }
  if (!report.completion_monotone()) {
    std::fprintf(stderr,
                 "FAIL: completion probability not monotone in r\n");
    return 1;
  }

  std::ostringstream json;
  campaign::write_campaign_json(json, report);
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::trunc);
    out << json.str();
    if (!out) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  if (schema_path.empty() && baseline_path.empty()) return 0;
  const util::json::ParseResult doc = util::json::parse(json.str());
  if (!doc.ok()) {
    std::fprintf(stderr, "FAIL: campaign JSON is invalid: %s\n",
                 doc.error.c_str());
    return 1;
  }
  if (!schema_path.empty() && !validate_schema(doc.value, schema_path))
    return 1;
  if (!baseline_path.empty() && !check_baseline(doc.value, baseline_path))
    return 1;
  return 0;
}
