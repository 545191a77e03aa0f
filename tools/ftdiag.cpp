#include "tools/ftdiag.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>

#include "core/outcome.hpp"
#include "sim/phase.hpp"
#include "util/json.hpp"
#include "util/schema.hpp"

namespace ftsort::tools {

namespace {

using util::json::Value;

/// Parses `text` into `doc`. Invalid JSON is refused with what the reader
/// expected and the byte offset where the text stopped being JSON.
bool read_doc(const std::string& text, const char* expected, Value* doc,
              std::string* err) {
  util::json::ParseResult parsed = util::json::parse(text);
  if (!parsed.ok()) {
    *err = std::string("invalid JSON (expected ") + expected +
           "): " + parsed.error;
    return false;
  }
  *doc = std::move(parsed.value);
  return true;
}

// Newest schema version each reader understands — derived from the one
// shared writer/reader table (util/schema.hpp), so the readers can never
// lag the writers. Files *older* than the ceiling still parse (new keys
// are additive and simply absent); files *newer* than the ceiling are
// refused with a versioned message instead of a silent misparse.
constexpr double kMetricsSchemaMax = util::kMetricsSchemaVersion;
constexpr double kBenchSchemaMax = util::kBenchSchemaVersion;
constexpr double kCampaignSchemaMax = util::kCampaignSchemaVersion;
constexpr double kWatchdogSchemaMax = util::kWatchdogDumpSchemaVersion;

/// Refuses documents newer than `ceiling`. `what` names the format in
/// the error ("metrics JSON", ...). A missing schema_version (hand-made
/// fixtures, pre-versioning files) passes: absent means v0.
bool check_schema_ceiling(const Value& doc, const char* what, double ceiling,
                          std::string* err) {
  const double sv = doc["schema_version"].number();
  if (sv <= ceiling) return true;
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s is schema v%g, this build reads up to v%g",
                what, sv, ceiling);
  *err = buf;
  return false;
}

// ---------------------------------------------------------------------------
// diff: parsed per-run phase samples.

struct PhaseSample {
  double critical_time = 0.0;
  double critical_comm = 0.0;
  double critical_compute = 0.0;
  bool has_split = false;  ///< comm/compute columns present (metrics format)
};

struct RunSample {
  std::string scenario;  ///< empty for the single-run metrics format
  double makespan = 0.0;
  /// Cost-model signature ("name/routing t_c=.. t_t=.. t_s=..") parsed
  /// from the export's cost_model block; empty for pre-v4 metrics /
  /// pre-v3 bench files that did not record one. Two runs only compare
  /// when their signatures are absent or equal — critical_time is in
  /// cost-model units, so cross-model deltas are meaningless.
  std::string cost_sig;
  // Ordered map: deterministic iteration -> deterministic report text.
  std::map<std::string, PhaseSample> phases;
};

struct ParsedDoc {
  bool ok = false;
  std::string error;
  bool bench_format = false;  ///< true = bench scenarios, false = metrics
  std::vector<RunSample> runs;
};

/// Signature of the `cost_model` block of `obj` (a whole metrics export
/// or one bench scenario object), or empty when the block is absent.
/// Formats the constants with %g so the signature does not depend on the
/// exporters' full-precision number format.
std::string cost_signature(const Value& obj) {
  const Value& cm = obj["cost_model"];
  if (!cm.is_object()) return {};
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s/%s t_c=%g t_t=%g t_s=%g",
                cm["name"].string().c_str(), cm["routing"].string().c_str(),
                cm["t_compare"].number(), cm["t_transfer"].number(),
                cm["t_startup"].number());
  return buf;
}

/// One phase's counters: an entry of the metrics `phases` array or a
/// member of a bench scenario's `phases` object.
void read_phase_counters(const Value& obj, PhaseSample* out) {
  out->critical_time = obj["critical_time"].number();
  out->critical_comm = obj["critical_comm"].number();
  out->critical_compute = obj["critical_compute"].number();
  out->has_split =
      obj["critical_comm"].is_number() && obj["critical_compute"].is_number();
}

/// Metrics format: top-level `"phases": [ {"phase": "name", ...}, ... ]`.
bool parse_metrics_doc(const Value& doc, ParsedDoc* out, std::string* err) {
  if (!check_schema_ceiling(doc, "metrics JSON", kMetricsSchemaMax, err))
    return false;
  const Value& phases = doc["phases"];
  if (!phases.is_array()) {
    *err = "metrics JSON without a \"phases\" array";
    return false;
  }
  RunSample run;
  run.makespan = doc["makespan"].number();
  run.cost_sig = cost_signature(doc);
  for (const Value& ph : phases.items()) {
    const std::string& name = ph["phase"].string();
    if (name.empty()) {
      *err = "phase entry without a \"phase\" name";
      return false;
    }
    read_phase_counters(ph, &run.phases[name]);
  }
  out->bench_format = false;
  out->runs.push_back(std::move(run));
  return true;
}

/// Bench format: `"scenarios": [ {"name": ..., "phases": { ... }}, ... ]`.
bool parse_bench_doc(const Value& doc, ParsedDoc* out, std::string* err) {
  if (!check_schema_ceiling(doc, "bench JSON", kBenchSchemaMax, err))
    return false;
  const Value& scenarios = doc["scenarios"];
  if (!scenarios.is_array()) {
    *err = "bench JSON without a \"scenarios\" array";
    return false;
  }
  for (const Value& sc : scenarios.items()) {
    RunSample run;
    run.scenario = sc["name"].string();
    if (run.scenario.empty()) {
      *err = "scenario without a \"name\"";
      return false;
    }
    run.makespan = sc["makespan"].number();
    run.cost_sig = cost_signature(sc);
    for (const auto& [name, counters] : sc["phases"].members())
      read_phase_counters(counters, &run.phases[name]);
    out->runs.push_back(std::move(run));
  }
  out->bench_format = true;
  return true;
}

ParsedDoc parse_doc(const std::string& text) {
  ParsedDoc doc;
  Value root;
  doc.ok = read_doc(text,
                    "a metrics export with a \"phases\" array or a bench "
                    "export with a \"scenarios\" array",
                    &root, &doc.error) &&
           (root.find("scenarios") != nullptr
                ? parse_bench_doc(root, &doc, &doc.error)
                : parse_metrics_doc(root, &doc, &doc.error));
  return doc;
}

void put_pct(std::ostream& os, double pct) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", pct);
  os << buf;
}

void put_us(std::ostream& os, double us) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", us);
  os << buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// explain

ExplainResult explain_trace_json(const std::string& json) {
  ExplainResult res;
  Value doc;
  if (!read_doc(json, "a Chrome trace with a \"traceEvents\" array", &doc,
                &res.error))
    return res;
  const Value* events = doc.find("traceEvents");
  if (events == nullptr) {
    res.error = "not a Chrome trace: missing \"traceEvents\"";
    return res;
  }
  if (!events->is_array()) {
    res.error = "traceEvents is not an array";
    return res;
  }

  sim::DiagnosisInput input;
  for (std::size_t i = 0; i < events->items().size(); ++i) {
    const Value& ev = events->items()[i];
    const std::string& name = ev["name"].string();
    const Value& args = ev["args"];
    if (name == "trace_dropped") {
      // Ring-eviction metadata (always exported, count 0 = complete
      // trace). A nonzero count makes diagnose() degrade a silent-peer
      // verdict to RootKind::Evicted instead of guessing from a partial
      // event stream.
      input.trace_dropped =
          static_cast<std::uint64_t>(args["count"].number());
      continue;
    }
    if (name != "timeout" && name != "kill") continue;
    if (!ev["ts"].is_number() || !ev["tid"].is_number()) {
      char buf[80];
      std::snprintf(buf, sizeof buf,
                    "fault instant without ts/tid: traceEvents[%zu]", i);
      res.error = buf;
      return res;
    }
    const double ts = ev["ts"].number();
    const sim::Phase phase = sim::phase_from_name(args["phase"].string());
    const auto node = static_cast<cube::NodeId>(ev["tid"].number());
    if (name == "timeout") {
      ++res.timeout_events;
      input.waits.push_back(
          {node, static_cast<cube::NodeId>(args["src"].number()),
           static_cast<sim::Tag>(args["tag"].number()), ts, phase,
           /*expired=*/true});
    } else {
      ++res.kill_events;
      input.kills.push_back({node, ts, phase});
    }
  }

  const sim::Diagnosis::Kind kind =
      res.timeout_events > 0  ? sim::Diagnosis::Kind::TimeoutBurst
      : res.kill_events > 0   ? sim::Diagnosis::Kind::NodeLoss
                              : sim::Diagnosis::Kind::None;
  res.diagnosis = sim::diagnose(std::move(input), kind);
  res.ok = true;

  std::ostringstream out;
  out << "ftdiag explain: " << res.timeout_events << " timeout(s), "
      << res.kill_events << " kill(s) in trace\n";
  if (res.diagnosis.triggered())
    out << res.diagnosis.to_string() << "\n";
  else
    out << "no failure evidence recorded; nothing to explain\n";
  res.text = out.str();
  return res;
}

// ---------------------------------------------------------------------------
// diff

DiffResult diff_json(const std::string& a, const std::string& b,
                     double threshold_pct) {
  DiffResult res;
  res.threshold_pct = threshold_pct;
  const ParsedDoc da = parse_doc(a);
  if (!da.ok) {
    res.error = "first file: " + da.error;
    return res;
  }
  const ParsedDoc db = parse_doc(b);
  if (!db.ok) {
    res.error = "second file: " + db.error;
    return res;
  }
  if (da.bench_format != db.bench_format) {
    res.error = "format mismatch: one file is a bench export, the other a "
                "metrics export";
    return res;
  }

  std::ostringstream out;
  out << "ftdiag diff (threshold \xC2\xB1";
  put_us(out, threshold_pct);
  out << "% on per-phase critical_time)\n";

  std::size_t compared = 0;
  for (const RunSample& ra : da.runs) {
    const RunSample* rb = nullptr;
    for (const RunSample& cand : db.runs)
      if (cand.scenario == ra.scenario) {
        rb = &cand;
        break;
      }
    if (rb == nullptr) continue;  // scenario dropped between runs
    // Refuse cross-model comparisons outright: critical_time is measured
    // in cost-model units, so a delta against a different model (or
    // routing mode) is noise dressed as a regression. Files predating the
    // cost_model block (empty signature) still compare for compatibility.
    if (!ra.cost_sig.empty() && !rb->cost_sig.empty() &&
        ra.cost_sig != rb->cost_sig) {
      res.error = "cost model mismatch" +
                  (ra.scenario.empty() ? std::string()
                                       : " in scenario " + ra.scenario) +
                  ": \"" + ra.cost_sig + "\" vs \"" + rb->cost_sig +
                  "\" — refusing to compare runs under different cost models";
      res.ok = false;
      return res;
    }
    const std::string where =
        ra.scenario.empty() ? std::string() : ra.scenario + " ";
    if (ra.makespan > 0.0 && rb->makespan > 0.0 &&
        ra.makespan != rb->makespan) {
      out << "  " << where << "makespan ";
      put_us(out, ra.makespan);
      out << " -> ";
      put_us(out, rb->makespan);
      out << " (";
      put_pct(out, 100.0 * (rb->makespan - ra.makespan) / ra.makespan);
      out << ")\n";
    }
    for (const auto& [phase, pa] : ra.phases) {
      const auto it = rb->phases.find(phase);
      if (it == rb->phases.end()) continue;
      const PhaseSample& pb = it->second;
      if (pa.critical_time == 0.0 && pb.critical_time == 0.0) continue;
      ++compared;
      PhaseDelta d;
      d.scenario = ra.scenario;
      d.phase = phase;
      d.before = pa.critical_time;
      d.after = pb.critical_time;
      d.delta_pct = pa.critical_time > 0.0
                        ? 100.0 * (pb.critical_time - pa.critical_time) /
                              pa.critical_time
                        : 100.0;
      d.regression = std::fabs(d.delta_pct) > threshold_pct;
      if (pa.has_split && pb.has_split) {
        const double dcomm = pb.critical_comm - pa.critical_comm;
        const double dcompute = pb.critical_compute - pa.critical_compute;
        d.attribution =
            std::fabs(dcomm) >= std::fabs(dcompute) ? "comm" : "compute";
      }
      if (d.regression || d.delta_pct != 0.0) {
        out << "  " << where << phase << ": critical_time ";
        put_us(out, d.before);
        out << " -> ";
        put_us(out, d.after);
        out << " (";
        put_pct(out, d.delta_pct);
        out << ")";
        if (!d.attribution.empty()) out << " [" << d.attribution << "]";
        if (d.regression) out << " REGRESSION";
        out << "\n";
      }
      if (d.regression) ++res.regressions;
      res.deltas.push_back(std::move(d));
    }
  }
  out << "summary: " << res.regressions << " regression(s) beyond \xC2\xB1";
  put_us(out, threshold_pct);
  out << "% across " << compared << " compared phase(s)\n";
  res.ok = true;
  res.text = out.str();
  return res;
}

// ---------------------------------------------------------------------------
// hotspots

namespace {

/// One cube dimension's parsed traffic rollup.
struct DimTraffic {
  double traversals = 0.0;
  double key_hops = 0.0;
  double busy = 0.0;
  double utilization = 0.0;
};

/// Link telemetry of one run (metrics export) or scenario (bench export).
struct LinkRun {
  std::string scenario;  ///< empty for the single-run metrics format
  double total_key_hops = 0.0;
  std::map<int, DimTraffic> dims;
  // Communication volume per phase: key_hops for the metrics format,
  // keys_sent for the bench format (which carries no per-phase hops).
  std::map<std::string, double> phase_comm;
};

DimTraffic read_dim_entry(const Value& obj) {
  return {obj["traversals"].number(), obj["key_hops"].number(),
          obj["busy"].number(), obj["utilization"].number()};
}

/// Metrics format: the `"links"` block plus per-phase `key_hops`.
bool parse_links_metrics(const Value& doc, std::vector<LinkRun>* runs,
                         std::string* err) {
  if (!check_schema_ceiling(doc, "metrics JSON", kMetricsSchemaMax, err))
    return false;
  const Value& links = doc["links"];
  if (!links.is_object()) {
    *err = "metrics JSON without a \"links\" block (schema v3 required)";
    return false;
  }
  if (!links["enabled"].boolean()) {
    *err = "run recorded no link telemetry (record_link_stats off)";
    return false;
  }
  LinkRun run;
  run.total_key_hops = links["total"]["key_hops"].number();
  for (const Value& entry : links["per_dimension"].items()) {
    const double d = entry["dim"].number(-1.0);
    if (d >= 0.0) run.dims[static_cast<int>(d)] = read_dim_entry(entry);
  }
  for (const Value& ph : doc["phases"].items()) {
    const std::string& name = ph["phase"].string();
    const double hops = ph["key_hops"].number();
    if (!name.empty() && hops > 0.0) run.phase_comm[name] = hops;
  }
  runs->push_back(std::move(run));
  return true;
}

/// Bench format: per-scenario `link_key_hops` / `"link_dimensions"`.
bool parse_links_bench(const Value& doc, std::vector<LinkRun>* runs,
                       std::string* err) {
  if (!check_schema_ceiling(doc, "bench JSON", kBenchSchemaMax, err))
    return false;
  const Value& scenarios = doc["scenarios"];
  if (!scenarios.is_array()) {
    *err = "bench JSON without a \"scenarios\" array";
    return false;
  }
  for (const Value& sc : scenarios.items()) {
    const Value& dims = sc["link_dimensions"];
    if (!dims.is_object()) continue;  // kernel micro: no link data
    LinkRun run;
    run.scenario = sc["name"].string();
    run.total_key_hops = sc["link_key_hops"].number();
    for (const auto& [dim, entry] : dims.members())
      run.dims[std::atoi(dim.c_str())] = read_dim_entry(entry);
    // Comm volume per phase: the bench rows carry keys_sent.
    for (const auto& [name, counters] : sc["phases"].members()) {
      const double keys = counters["keys_sent"].number();
      if (keys > 0.0) run.phase_comm[name] = keys;
    }
    runs->push_back(std::move(run));
  }
  if (runs->empty()) {
    *err = "no scenario carries link telemetry (link_dimensions)";
    return false;
  }
  return true;
}

bool parse_links_doc(const std::string& text, std::vector<LinkRun>* runs,
                     std::string* err) {
  Value doc;
  if (!read_doc(text,
                "a metrics export with a \"links\" block or a bench export "
                "with \"link_dimensions\"",
                &doc, err))
    return false;
  return doc.find("scenarios") != nullptr
             ? parse_links_bench(doc, runs, err)
             : parse_links_metrics(doc, runs, err);
}

}  // namespace

HotspotsResult hotspots_report(const std::string& json, std::size_t top_k) {
  HotspotsResult res;
  std::vector<LinkRun> runs;
  if (!parse_links_doc(json, &runs, &res.error)) return res;

  std::ostringstream out;
  out << "ftdiag hotspots (dimensions ranked by wire busy time)\n";
  for (const LinkRun& run : runs) {
    const std::string where =
        run.scenario.empty() ? std::string() : run.scenario + " ";
    out << "  " << where << "total key_hops ";
    put_us(out, run.total_key_hops);
    out << " across " << run.dims.size() << " dimension(s)\n";

    // Rank dimensions by busy time; ties broken by index for determinism.
    std::vector<std::pair<int, DimTraffic>> ranked(run.dims.begin(),
                                                   run.dims.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.second.busy != b.second.busy) return a.second.busy > b.second.busy;
      return a.first < b.first;
    });
    const std::size_t shown =
        top_k == 0 ? ranked.size() : std::min(top_k, ranked.size());
    for (std::size_t i = 0; i < shown; ++i) {
      const auto& [d, t] = ranked[i];
      out << "    dim " << d << ": busy ";
      put_us(out, t.busy);
      out << " us, key_hops ";
      put_us(out, t.key_hops);
      out << ", traversals ";
      put_us(out, t.traversals);
      out << ", utilization ";
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.3f", t.utilization);
      out << buf << "\n";
    }

    // Comm attribution: which paper phases pushed the traffic.
    double comm_total = 0.0;
    for (const auto& [name, v] : run.phase_comm) comm_total += v;
    if (comm_total > 0.0) {
      std::vector<std::pair<std::string, double>> phases(
          run.phase_comm.begin(), run.phase_comm.end());
      std::sort(phases.begin(), phases.end(),
                [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second > b.second;
                  return a.first < b.first;
                });
      out << "    comm by phase:";
      for (const auto& [name, v] : phases) {
        char pct[32];
        std::snprintf(pct, sizeof pct, "%.1f%%", 100.0 * v / comm_total);
        out << " " << name << " " << pct;
      }
      out << "\n";
    }
  }
  res.ok = true;
  res.text = out.str();
  return res;
}

HotspotsResult hotspots_diff(const std::string& a, const std::string& b,
                             double threshold_pct) {
  HotspotsResult res;
  res.threshold_pct = threshold_pct;
  std::vector<LinkRun> ra;
  std::vector<LinkRun> rb;
  std::string err;
  if (!parse_links_doc(a, &ra, &err)) {
    res.error = "first file: " + err;
    return res;
  }
  if (!parse_links_doc(b, &rb, &err)) {
    res.error = "second file: " + err;
    return res;
  }

  std::ostringstream out;
  out << "ftdiag hotspots diff (threshold \xC2\xB1";
  put_us(out, threshold_pct);
  out << "% on per-dimension key_hops)\n";
  std::size_t compared = 0;
  for (const LinkRun& run_a : ra) {
    const LinkRun* run_b = nullptr;
    for (const LinkRun& cand : rb)
      if (cand.scenario == run_a.scenario) {
        run_b = &cand;
        break;
      }
    if (run_b == nullptr) continue;  // scenario dropped between runs
    const std::string where =
        run_a.scenario.empty() ? std::string() : run_a.scenario + " ";
    // Union of dimensions: traffic appearing on a new dimension (or
    // vanishing from an old one) is exactly what this gate must catch.
    std::map<int, std::pair<double, double>> merged;
    for (const auto& [d, t] : run_a.dims) merged[d].first = t.key_hops;
    for (const auto& [d, t] : run_b->dims) merged[d].second = t.key_hops;
    merged[-1] = {run_a.total_key_hops, run_b->total_key_hops};  // the total
    for (const auto& [d, kv] : merged) {
      const auto [before, after] = kv;
      if (before == 0.0 && after == 0.0) continue;
      ++compared;
      DimDelta delta;
      delta.scenario = run_a.scenario;
      delta.dim = d;
      delta.before = before;
      delta.after = after;
      delta.delta_pct =
          before > 0.0 ? 100.0 * (after - before) / before : 100.0;
      delta.regression = std::fabs(delta.delta_pct) > threshold_pct;
      if (delta.regression || delta.delta_pct != 0.0) {
        out << "  " << where
            << (d < 0 ? std::string("total") : "dim " + std::to_string(d))
            << ": key_hops ";
        put_us(out, before);
        out << " -> ";
        put_us(out, after);
        out << " (";
        put_pct(out, delta.delta_pct);
        out << ")";
        if (delta.regression) out << " REGRESSION";
        out << "\n";
      }
      if (delta.regression) ++res.regressions;
      res.deltas.push_back(std::move(delta));
    }
  }
  out << "summary: " << res.regressions << " regression(s) beyond \xC2\xB1";
  put_us(out, threshold_pct);
  out << "% across " << compared << " compared counter(s)\n";
  res.ok = true;
  res.text = out.str();
  return res;
}

// ---------------------------------------------------------------------------
// campaign

namespace {

/// One parsed per-r bucket row of a campaign JSON block.
struct CampaignBucket {
  int r = 0;
  double trials = 0.0;
  double completed = 0.0;
  double recovered = 0.0;
  double degraded = 0.0;
  double completion_probability = 0.0;
  double mean_slowdown = 0.0;
  double hotspot_p90 = 0.0;
  double detect_latency_p50 = 0.0;
  double salvage_latency_p50 = 0.0;
  double restart_latency_p50 = 0.0;
};

/// Parsed header + buckets of a campaign document.
struct CampaignDoc {
  double n = 0.0;
  double r_max = 0.0;
  double scenarios = 0.0;
  double trials = 0.0;
  double seed = 0.0;
  std::string executor;
  std::string outcomes;  ///< the outcome rollup, rendered in writer order
  std::vector<CampaignBucket> buckets;
};

bool parse_campaign_doc(const std::string& text, CampaignDoc* out,
                        std::string* err) {
  Value doc;
  if (!read_doc(text, "a campaign export with a \"buckets\" array", &doc,
                err))
    return false;
  if (doc["campaign"].string() != "fault_mc") {
    *err = "not a campaign export: missing \"campaign\": \"fault_mc\"";
    return false;
  }
  // The campaign reader is exact-version: the bucket keys it relies on
  // changed meaning across versions, so both older and newer files get
  // the versioned refusal rather than zero-filled columns.
  const double sv = doc["schema_version"].number();
  if (sv != kCampaignSchemaMax) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "campaign JSON is schema v%g, this build reads v%g", sv,
                  kCampaignSchemaMax);
    *err = buf;
    return false;
  }
  out->n = doc["n"].number();
  out->r_max = doc["r_max"].number();
  out->scenarios = doc["scenarios"].number();
  out->trials = doc["trials"].number();
  out->seed = doc["seed"].number();
  out->executor = doc["executor"].string();
  const Value& outcomes = doc["outcomes"];
  if (outcomes.is_object()) {
    std::ostringstream line;
    for (std::size_t i = 0; i < core::kRunOutcomeCount; ++i) {
      const char* name =
          core::run_outcome_name(static_cast<core::RunOutcome>(i));
      line << (i != 0 ? ", " : "") << "\"" << name
           << "\": " << static_cast<long>(outcomes[name].number());
    }
    out->outcomes = line.str();
  }
  const Value& buckets = doc["buckets"];
  if (!buckets.is_array()) {
    *err = "campaign JSON without a \"buckets\" array";
    return false;
  }
  for (const Value& obj : buckets.items()) {
    const double r = obj["r"].number(-1.0);
    if (r < 0.0) {
      *err = "bucket object without an \"r\" field";
      return false;
    }
    CampaignBucket b;
    b.r = static_cast<int>(r);
    b.trials = obj["trials"].number();
    b.completed = obj["completed"].number();
    b.recovered = obj["recovered"].number();
    b.degraded = obj["degraded"].number();
    b.completion_probability = obj["completion_probability"].number();
    b.mean_slowdown = obj["mean_slowdown"].number();
    b.hotspot_p90 = obj["hotspot_p90"].number();
    b.detect_latency_p50 = obj["detect_latency_p50"].number();
    b.salvage_latency_p50 = obj["salvage_latency_p50"].number();
    b.restart_latency_p50 = obj["restart_latency_p50"].number();
    out->buckets.push_back(b);
  }
  if (out->buckets.empty()) {
    *err = "campaign JSON with an empty \"buckets\" array";
    return false;
  }
  return true;
}

}  // namespace

CampaignCliResult campaign_report(const std::string& json) {
  CampaignCliResult res;
  CampaignDoc doc;
  if (!parse_campaign_doc(json, &doc, &res.error)) return res;

  std::ostringstream out;
  out << "ftdiag campaign: Q_" << static_cast<int>(doc.n) << ", r <= "
      << static_cast<int>(doc.r_max) << ", "
      << static_cast<long>(doc.trials) << " trial(s) over "
      << static_cast<long>(doc.scenarios) << " scenario(s), seed "
      << static_cast<unsigned long long>(doc.seed) << ", " << doc.executor
      << " executor\n";
  if (!doc.outcomes.empty()) out << "  outcomes: " << doc.outcomes << "\n";
  char line[224];
  std::snprintf(line, sizeof line,
                "  %-3s %7s %10s %10s %9s %12s %14s %12s %11s %12s %12s\n",
                "r", "trials", "completed", "recovered", "degraded",
                "P(complete)", "mean_slowdown", "hotspot_p90", "detect_p50",
                "salvage_p50", "restart_p50");
  out << line;
  for (const CampaignBucket& b : doc.buckets) {
    std::snprintf(line, sizeof line,
                  "  %-3d %7ld %10ld %10ld %9ld %12.3f %14.3f %12.3f "
                  "%11.0f %12.0f %12.0f\n",
                  b.r, static_cast<long>(b.trials),
                  static_cast<long>(b.completed),
                  static_cast<long>(b.recovered),
                  static_cast<long>(b.degraded), b.completion_probability,
                  b.mean_slowdown, b.hotspot_p90, b.detect_latency_p50,
                  b.salvage_latency_p50, b.restart_latency_p50);
    out << line;
  }
  for (std::size_t i = 1; i < doc.buckets.size(); ++i)
    if (doc.buckets[i].completion_probability >
        doc.buckets[i - 1].completion_probability)
      res.monotone = false;
  out << "  completion curve: "
      << (res.monotone ? "monotone non-increasing in r"
                       : "NOT monotone (coupling violated?)")
      << "\n";
  res.ok = true;
  res.text = out.str();
  return res;
}

CampaignCliResult campaign_diff(const std::string& a, const std::string& b,
                                double threshold_pct) {
  CampaignCliResult res;
  res.threshold_pct = threshold_pct;
  CampaignDoc da;
  CampaignDoc db;
  std::string err;
  if (!parse_campaign_doc(a, &da, &err)) {
    res.error = "first file: " + err;
    return res;
  }
  if (!parse_campaign_doc(b, &db, &err)) {
    res.error = "second file: " + err;
    return res;
  }

  std::ostringstream out;
  out << "ftdiag campaign diff (threshold \xC2\xB1";
  put_us(out, threshold_pct);
  out << "% on P(complete) points and mean_slowdown)\n";
  std::size_t compared = 0;
  for (const CampaignBucket& ba : da.buckets) {
    const CampaignBucket* bb = nullptr;
    for (const CampaignBucket& cand : db.buckets)
      if (cand.r == ba.r) {
        bb = &cand;
        break;
      }
    if (bb == nullptr) continue;  // bucket dropped between campaigns
    ++compared;
    BucketDelta d;
    d.r = ba.r;
    d.prob_before = ba.completion_probability;
    d.prob_after = bb->completion_probability;
    d.prob_delta_pts =
        100.0 * (bb->completion_probability - ba.completion_probability);
    d.slowdown_before = ba.mean_slowdown;
    d.slowdown_after = bb->mean_slowdown;
    d.slowdown_delta_pct =
        ba.mean_slowdown > 0.0
            ? 100.0 * (bb->mean_slowdown - ba.mean_slowdown) /
                  ba.mean_slowdown
            : (bb->mean_slowdown != 0.0 ? 100.0 : 0.0);
    d.regression = std::fabs(d.prob_delta_pts) > threshold_pct ||
                   std::fabs(d.slowdown_delta_pct) > threshold_pct;
    if (d.regression || d.prob_delta_pts != 0.0 ||
        d.slowdown_delta_pct != 0.0) {
      char line[200];
      std::snprintf(line, sizeof line,
                    "  r=%d: P(complete) %.3f -> %.3f (%+.1f pts), "
                    "mean_slowdown %.3f -> %.3f (%+.1f%%)%s\n",
                    d.r, d.prob_before, d.prob_after, d.prob_delta_pts,
                    d.slowdown_before, d.slowdown_after,
                    d.slowdown_delta_pct,
                    d.regression ? " REGRESSION" : "");
      out << line;
    }
    if (d.regression) ++res.regressions;
    res.deltas.push_back(d);
  }
  out << "summary: " << res.regressions << " regression(s) beyond \xC2\xB1";
  put_us(out, threshold_pct);
  out << "% across " << compared << " compared bucket(s)\n";
  res.ok = true;
  res.text = out.str();
  return res;
}

// ---------------------------------------------------------------------------
// history

namespace {

/// Median of an unsorted sample set: sorted copy, average of the two
/// middles when even. Deterministic (no interpolation beyond the
/// midpoint average) and robust to a single outlier run.
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  if (v.size() % 2 == 1) return v[mid];
  return 0.5 * (v[mid - 1] + v[mid]);
}

/// Eight-step block sparkline (U+2581..U+2588) of `v` scaled min..max;
/// a flat series renders as the middle block.
std::string sparkline(const std::vector<double>& v) {
  double lo = v.empty() ? 0.0 : v[0];
  double hi = lo;
  for (const double x : v) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  std::string out;
  for (const double x : v) {
    int level = 3;  // flat series: middle block
    if (hi > lo) {
      level = static_cast<int>(8.0 * (x - lo) / (hi - lo));
      level = std::min(level, 7);
    }
    out += "\xE2\x96";
    out += static_cast<char>(0x81 + level);
  }
  return out;
}

}  // namespace

HistoryResult history_trends(const std::string& jsonl,
                             const std::string& metric, std::size_t last_k,
                             double threshold_pct) {
  HistoryResult res;
  res.metric = metric;
  res.last_k = last_k;
  res.threshold_pct = threshold_pct;
  if (metric != "makespan" && metric != "wall_ns" && metric != "comparisons") {
    res.error = "unknown history metric \"" + metric +
                "\" (makespan, wall_ns, comparisons)";
    return res;
  }
  if (last_k == 0) {
    res.error = "--last must be at least 1";
    return res;
  }

  // One sample group per (scenario, mode, build), in first-appearance
  // order: smoke vs full runs (different problem sizes) and release vs
  // debug builds (different wall clocks) must never share a trend line.
  struct Group {
    std::string scenario, mode, build;
    std::vector<double> samples;  ///< file order == time order
    std::vector<std::string> nprocs;  ///< distinct host stamps
  };
  std::vector<Group> groups;
  std::map<std::string, std::size_t> index;
  std::string first_error;  ///< why the first skipped line was skipped
  // Only wall times depend on the host; makespan and comparisons are
  // simulated, so their trends carry no host note.
  const bool host_timed = metric == "wall_ns";

  std::size_t begin = 0;
  std::size_t line_no = 0;
  while (begin < jsonl.size()) {
    std::size_t nl = jsonl.find('\n', begin);
    if (nl == std::string::npos) nl = jsonl.size();
    const std::string line = jsonl.substr(begin, nl - begin);
    begin = nl + 1;
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    // A well-formed history line is one JSON object holding a scenarios
    // array; anything else (a crashed bench run, a partial append, editor
    // damage) is skipped and counted, never fatal — history files are
    // append-only and must survive one bad writer.
    const util::json::ParseResult parsed = util::json::parse(line);
    const Value& scenarios = parsed.value["scenarios"];
    if (!scenarios.is_array()) {
      ++res.skipped_lines;
      if (first_error.empty()) {
        std::ostringstream why;
        why << "line " << line_no << ": "
            << (parsed.ok() ? "no \"scenarios\" array" : parsed.error);
        first_error = why.str();
      }
      continue;
    }
    const std::string& mode = parsed.value["mode"].string();
    const std::string& build = parsed.value["build"].string();
    // The host stamp does not split groups; it only annotates a wall-time
    // trend whose samples came from differently sized hosts.
    const Value& nproc_value = parsed.value["nproc"];
    const std::string nproc =
        nproc_value.is_number()
            ? std::to_string(std::llround(nproc_value.number()))
            : "unknown";
    bool any = false;
    for (const Value& obj : scenarios.items()) {
      const std::string& name = obj["name"].string();
      const Value& value = obj[metric];
      if (name.empty() || !value.is_number()) continue;
      const std::string key = name + "\x1f" + mode + "\x1f" + build;
      const auto it = index.find(key);
      std::size_t gi;
      if (it == index.end()) {
        gi = groups.size();
        index.emplace(key, gi);
        groups.push_back({name, mode, build, {}, {}});
      } else {
        gi = it->second;
      }
      Group& g = groups[gi];
      g.samples.push_back(value.number());
      if (host_timed && std::find(g.nprocs.begin(), g.nprocs.end(),
                                  nproc) == g.nprocs.end())
        g.nprocs.push_back(nproc);
      any = true;
    }
    if (any)
      ++res.lines;
    else
      ++res.skipped_lines;  // well-formed JSON but no usable sample
  }
  if (res.lines == 0) {
    res.error = "no well-formed history lines in file";
    if (!first_error.empty()) res.error += " (" + first_error + ")";
    return res;
  }

  std::ostringstream out;
  out << "ftdiag history (" << metric << ", last-" << last_k
      << " median vs baseline median, threshold \xC2\xB1";
  put_us(out, threshold_pct);
  out << "%)\n";
  if (res.skipped_lines > 0)
    out << "  warning: skipped " << res.skipped_lines
        << " corrupt history line(s)\n";

  for (const Group& g : groups) {
    const std::size_t n = g.samples.size();
    if (n < 2) {
      ++res.short_groups;  // one sample: nothing to trend against
      continue;
    }
    // Clamp the window so at least one sample remains as baseline.
    const std::size_t k = std::min(last_k, n - 1);
    HistoryTrend t;
    t.scenario = g.scenario;
    t.mode = g.mode;
    t.build = g.build;
    t.entries = n;
    t.baseline = median({g.samples.begin(),
                         g.samples.begin() + static_cast<std::ptrdiff_t>(
                                                 n - k)});
    t.recent = median({g.samples.end() - static_cast<std::ptrdiff_t>(k),
                       g.samples.end()});
    t.drift_pct = t.baseline != 0.0
                      ? 100.0 * (t.recent - t.baseline) / t.baseline
                      : (t.recent != 0.0 ? 100.0 : 0.0);
    t.regression = std::fabs(t.drift_pct) > threshold_pct;
    t.sparkline = sparkline(g.samples);
    t.nprocs = g.nprocs;
    out << "  " << t.scenario << " [" << t.mode << "/" << t.build
        << "] n=" << n << " baseline ";
    put_us(out, t.baseline);
    out << " recent ";
    put_us(out, t.recent);
    out << " (";
    put_pct(out, t.drift_pct);
    out << ") " << t.sparkline;
    if (t.regression) out << " REGRESSION";
    out << "\n";
    if (t.nprocs.size() > 1) {
      out << "    note: samples span nproc";
      for (std::size_t i = 0; i < t.nprocs.size(); ++i)
        out << (i == 0 ? " " : ", ") << t.nprocs[i];
      out << "\n";
    }
    if (t.regression) ++res.regressions;
    res.trends.push_back(std::move(t));
  }
  out << "summary: " << res.regressions << " regression(s) beyond \xC2\xB1";
  put_us(out, threshold_pct);
  out << "% across " << res.trends.size() << " trend(s)";
  if (res.short_groups > 0)
    out << "; " << res.short_groups << " group(s) too short to trend";
  out << "\n";
  res.ok = true;
  res.text = out.str();
  return res;
}

// ---------------------------------------------------------------------------
// lineage

namespace {

/// One row of the metrics export's per-key lineage detail.
struct LineageKeyRow {
  long id = -1;
  double value = 0.0;
  long origin = 0;
  long holder = 0;
  bool dummy = false;
  bool retired = false;
  bool lost = false;
  bool salvaged = false;
  long witness = -1;
  long witness_step = -1;
  double moves = 0.0;
  double hops = 0.0;
  std::string trail;
};

LineageKeyRow read_key_row(const Value& obj) {
  LineageKeyRow row;
  row.id = static_cast<long>(obj["id"].number(-1.0));
  row.value = obj["value"].number();
  row.origin = static_cast<long>(obj["origin"].number());
  row.holder = static_cast<long>(obj["holder"].number());
  row.dummy = obj["dummy"].boolean();
  row.retired = obj["retired"].boolean();
  row.lost = obj["lost"].boolean();
  row.salvaged = obj["salvaged"].boolean();
  row.witness = static_cast<long>(obj["witness"].number(-1.0));
  row.witness_step = static_cast<long>(obj["witness_step"].number(-1.0));
  row.moves = obj["moves"].number();
  row.hops = obj["hops"].number();
  row.trail = obj["trail"].string();
  return row;
}

/// Decode one `<code>,node,peer,step,phase` trail event (the codec of
/// sim::lineage_event_code + sim::write_metrics_json) into a prose line.
std::string decode_trail_event(const std::string& ev) {
  std::vector<std::string> f;
  std::size_t begin = 0;
  while (f.size() < 5) {
    const std::size_t comma = ev.find(',', begin);
    if (comma == std::string::npos) {
      f.push_back(ev.substr(begin));
      break;
    }
    f.push_back(ev.substr(begin, comma - begin));
    begin = comma + 1;
  }
  if (f.size() < 5 || f[0].size() != 1) return "malformed event \"" + ev + "\"";
  const std::string& node = f[1];
  const std::string& peer = f[2];
  const std::string& step = f[3];
  const std::string& phase = f[4];
  switch (f[0][0]) {
    case 'A': return "assigned to node " + node + " [" + phase + "]";
    case 'M':
      return "moved to node " + node + " from node " + peer + " at tag " +
             step + " [" + phase + "]";
    case 'S':
      return "salvaged to node " + node + " (witness node " + peer +
             ", step " + step + ") [" + phase + "]";
    case 'R':
      return "re-scattered to node " + node + " from node " + peer + " [" +
             phase + "]";
    case 'T': return "retired at node " + node + " [" + phase + "]";
    case 'L': return "LOST at node " + node + " [" + phase + "]";
    default: return "unknown event \"" + ev + "\"";
  }
}

}  // namespace

LineageCliResult lineage_report(const std::string& json, long key,
                                std::size_t top_n, bool audit_only) {
  LineageCliResult res;
  Value doc;
  if (!read_doc(json, "a metrics export with a \"lineage\" block", &doc,
                &res.error) ||
      !check_schema_ceiling(doc, "metrics JSON", kMetricsSchemaMax,
                            &res.error))
    return res;
  const Value& block = doc["lineage"];
  if (!block.is_object()) {
    res.error =
        "metrics JSON without a \"lineage\" block (schema v6 required)";
    return res;
  }
  if (!block["enabled"].boolean()) {
    res.error = "run recorded no lineage (record_lineage off)";
    return res;
  }

  const auto assigned = static_cast<long>(block["assigned"].number());
  const auto dummies = static_cast<long>(block["dummies"].number());
  const auto dropped = static_cast<long>(block["dropped_events"].number());
  const auto mismatches =
      static_cast<long>(block["resolve_mismatches"].number());
  const auto untracked = static_cast<long>(block["untracked_total"].number());

  // Audit block with the named violations.
  const Value& audit = block["audit"];
  if (!audit.is_object()) {
    res.error = "lineage block without an \"audit\" object";
    return res;
  }
  res.audit_checked = audit["checked"].boolean();
  res.audit_ok = audit["ok"].boolean();
  const auto salvaged = static_cast<long>(audit["salvaged"].number());
  const auto witnessed =
      static_cast<long>(audit["witnessed_salvaged"].number());
  const std::vector<Value>& lost_rows = audit["lost"].items();
  const std::vector<Value>& dup_rows = audit["duplicated"].items();
  res.lost = lost_rows.size();
  res.duplicated = dup_rows.size();

  // Per-key detail (needed for --key and --top).
  std::vector<LineageKeyRow> rows;
  for (const Value& obj : block["keys"].items()) {
    LineageKeyRow row = read_key_row(obj);
    if (row.id >= 0) rows.push_back(std::move(row));
  }

  std::ostringstream out;
  const auto put_verdict = [&] {
    if (!res.audit_checked)
      out << "  audit: NOT RUN (gather did not complete)\n";
    else if (res.audit_ok)
      out << "  audit: OK — every input key in the output exactly once\n";
    else
      out << "  audit: VIOLATED — " << res.lost << " lost, "
          << res.duplicated << " duplicated\n";
    for (const Value& r : lost_rows) {
      out << "    LOST id " << static_cast<long>(r["id"].number())
          << " value ";
      put_us(out, r["value"].number());
      out << " last holder node " << static_cast<long>(r["last_holder"].number())
          << " [" << r["phase"].string() << "]\n";
    }
    for (const Value& r : dup_rows) {
      const auto extra = static_cast<long>(r["extra"].number());
      out << "    DUPLICATED value ";
      put_us(out, r["value"].number());
      out << " x" << (extra + 1) << " (" << extra << " extra)\n";
    }
  };

  if (key >= 0) {
    const LineageKeyRow* row = nullptr;
    for (const LineageKeyRow& r : rows)
      if (r.id == key) {
        row = &r;
        break;
      }
    if (row == nullptr) {
      res.error = "no key with id " + std::to_string(key) +
                  " in the per-key detail (" + std::to_string(rows.size()) +
                  " emitted; the export caps detail at " +
                  std::to_string(static_cast<long>(
                      block["keys_emitted"].number())) +
                  " keys)";
      return res;
    }
    out << "ftdiag lineage: key id " << row->id << " value ";
    put_us(out, row->value);
    out << "\n  origin node " << row->origin << " -> final holder node "
        << row->holder << "; " << static_cast<long>(row->moves)
        << " custody move(s), " << static_cast<long>(row->hops)
        << " link hop(s)\n";
    if (row->dummy)
      out << "  dummy padding key" << (row->retired ? " (retired)" : "")
          << "\n";
    if (row->lost) out << "  LOST in custody\n";
    if (row->salvaged) out << "  salvaged off a dead node\n";
    if (row->witness >= 0)
      out << "  freshest witness: node " << row->witness << " at step "
          << row->witness_step << "\n";
    out << "  custody trail:\n";
    std::size_t begin = 0;
    const std::string& trail = row->trail;
    while (begin < trail.size()) {
      std::size_t semi = trail.find(';', begin);
      if (semi == std::string::npos) semi = trail.size();
      out << "    " << decode_trail_event(trail.substr(begin, semi - begin))
          << "\n";
      begin = semi + 1;
    }
    res.ok = true;
    res.text = out.str();
    return res;
  }

  if (top_n > 0) {
    std::stable_sort(rows.begin(), rows.end(),
                     [](const LineageKeyRow& a, const LineageKeyRow& b) {
                       return a.hops > b.hops;
                     });
    out << "ftdiag lineage: top " << std::min(top_n, rows.size())
        << " traveler(s) of " << rows.size() << " emitted key(s)\n";
    for (std::size_t i = 0; i < rows.size() && i < top_n; ++i) {
      const LineageKeyRow& r = rows[i];
      out << "  id " << r.id << " value ";
      put_us(out, r.value);
      out << ": " << static_cast<long>(r.hops) << " hop(s), "
          << static_cast<long>(r.moves) << " move(s), node " << r.origin
          << " -> node " << r.holder << (r.salvaged ? " [salvaged]" : "")
          << "\n";
    }
    res.ok = true;
    res.text = out.str();
    return res;
  }

  if (audit_only) {
    out << "ftdiag lineage audit\n";
    put_verdict();
    res.ok = true;
    res.text = out.str();
    return res;
  }

  out << "ftdiag lineage: " << assigned << " id(s) assigned (" << dummies
      << " dummy), " << rows.size() << " in per-key detail\n";
  put_verdict();
  out << "  salvage: " << salvaged << " key(s) salvaged, " << witnessed
      << " through a recorded witness\n";
  out << "  hops without a custodian id (control/witness/fan-out words): "
      << untracked << "\n";
  if (mismatches != 0)
    out << "  warning: " << mismatches << " resolve mismatch(es)\n";
  if (dropped != 0)
    out << "  warning: " << dropped
        << " chain event(s) dropped past the per-key cap\n";
  std::stable_sort(rows.begin(), rows.end(),
                   [](const LineageKeyRow& a, const LineageKeyRow& b) {
                     return a.hops > b.hops;
                   });
  const std::size_t shown = std::min<std::size_t>(5, rows.size());
  if (shown > 0) out << "  top travelers:\n";
  for (std::size_t i = 0; i < shown; ++i) {
    const LineageKeyRow& r = rows[i];
    out << "    id " << r.id << " value ";
    put_us(out, r.value);
    out << ": " << static_cast<long>(r.hops) << " hop(s), "
        << static_cast<long>(r.moves) << " move(s)\n";
  }
  res.ok = true;
  res.text = out.str();
  return res;
}

// ---------------------------------------------------------------------------
// stuck

StuckResult stuck_report(const std::string& json) {
  StuckResult res;
  Value doc;
  if (!read_doc(json, "a watchdog dump with a \"watchdog_dump\" marker",
                &doc, &res.error))
    return res;
  if (!doc["watchdog_dump"].boolean()) {
    res.error =
        "not a watchdog dump (missing \"watchdog_dump\" marker; expected "
        "sim::write_watchdog_dump output)";
    return res;
  }
  if (!check_schema_ceiling(doc, "watchdog JSON", kWatchdogSchemaMax,
                            &res.error))
    return res;
  res.origin = doc["origin"].string();
  if (res.origin.empty()) res.origin = "machine";
  const std::string& policy = doc["policy"].string();
  const auto count = [&](const char* field) {
    return static_cast<std::uint64_t>(doc[field].number());
  };
  res.trips = count("trips");
  res.near_misses = count("near_misses");
  const std::uint64_t deadline = count("deadline_ms");
  const std::uint64_t effective = count("effective_deadline_ms");
  const std::uint64_t interval = count("interval_ms");
  const std::uint64_t stall = count("stall_ms");

  const Value& heartbeats = doc["heartbeats"];
  if (!heartbeats.is_array()) {
    res.error = "watchdog dump without a \"heartbeats\" array";
    return res;
  }
  for (const Value& row : heartbeats.items()) {
    StuckSlot slot;
    slot.slot = row["slot"].string();
    slot.beats = static_cast<std::uint64_t>(row["beats"].number());
    slot.age_ms = static_cast<std::uint64_t>(row["age_ms"].number());
    slot.activity = row["activity"].string();
    slot.terminal = row["terminal"].boolean();
    res.slots.push_back(std::move(slot));
  }
  // Culprit-first ordering: live slots by silence, retired slots last.
  std::stable_sort(res.slots.begin(), res.slots.end(),
                   [](const StuckSlot& a, const StuckSlot& b) {
                     if (a.terminal != b.terminal) return !a.terminal;
                     return a.age_ms > b.age_ms;
                   });

  std::ostringstream out;
  out << "ftdiag stuck: " << res.origin << " watchdog dump ("
      << (policy.empty() ? "?" : policy) << " policy)\n";
  out << "  trips: " << res.trips << ", near misses: " << res.near_misses
      << "\n";
  out << "  silent for " << stall << " ms (deadline " << deadline
      << " ms, effective " << effective << " ms, polled every " << interval
      << " ms)\n";

  // The replayed Diagnosis, when the dump carries one: the root cause in
  // protocol terms, ahead of the raw heartbeat evidence.
  const Value& diagnosis = doc["diagnosis"];
  const std::string& summary = diagnosis["summary"].string();
  if (!summary.empty()) out << "  root cause: " << summary << "\n";
  const std::vector<Value>& stalled = diagnosis["stalled"].items();
  if (!stalled.empty()) {
    out << "  stalled nodes: [";
    for (std::size_t i = 0; i < stalled.size(); ++i)
      out << (i != 0 ? ", " : "") << static_cast<long>(stalled[i].number());
    out << "] in phase " << diagnosis["root_phase"].string() << "\n";
  }

  if (res.slots.empty()) {
    out << "  heartbeats: none recorded\n";
  } else {
    out << "  heartbeats (most silent first):\n";
    const StuckSlot* culprit = nullptr;
    for (const StuckSlot& s : res.slots) {
      out << "    " << s.slot << ": " << s.beats << " beat(s), silent "
          << s.age_ms << " ms, "
          << (s.terminal ? std::string("terminal")
                         : "activity " + s.activity)
          << "\n";
      if (culprit == nullptr && !s.terminal) culprit = &s;
    }
    if (culprit != nullptr)
      out << "  most silent: " << culprit->slot << " (" << culprit->age_ms
          << " ms without a heartbeat, activity " << culprit->activity
          << ")\n";
    else
      out << "  most silent: none (every slot retired in order)\n";
  }

  const Value& host = doc["host_profile"];
  if (host.is_object())
    out << "  host: " << static_cast<long>(host["shards"].number())
        << " shard(s), " << static_cast<long>(host["tasks_resumed"].number())
        << " task(s) resumed, "
        << static_cast<long>(host["quiescence_checks"].number())
        << " quiescence check(s)\n";

  out << "  verdict: "
      << (res.trips > 0
              ? "STUCK (watchdog aborted the run)"
              : res.near_misses > 0
                    ? "near miss only (record policy, run continued)"
                    : "no breach recorded")
      << "\n";
  res.ok = true;
  res.text = out.str();
  return res;
}

// ---------------------------------------------------------------------------
// CLI

namespace {

bool slurp(const std::string& path, std::string* out, std::string* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *err = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

int usage(std::ostream& err) {
  err << "usage: ftdiag diff <a.json> <b.json> [--threshold PCT]\n"
         "       ftdiag explain <trace.json>\n"
         "       ftdiag hotspots <file.json> [--top K]\n"
         "       ftdiag hotspots <a.json> <b.json> [--threshold PCT]\n"
         "       ftdiag campaign <report.json>\n"
         "       ftdiag campaign <a.json> <b.json> [--threshold PCT]\n"
         "       ftdiag history <history.jsonl> "
         "[--metric makespan|wall_ns|comparisons]\n"
         "                      [--last K] [--threshold PCT]\n"
         "       ftdiag lineage <metrics.json> [--key ID | --top N | "
         "--audit]\n"
         "       ftdiag stuck <dump.json>\n"
         "       ftdiag --version\n"
         "supported schemas:";
  for (const util::SchemaEntry& e : util::kSchemaTable)
    err << " " << e.format << " JSON " << (e.exact ? "v" : "up to v")
        << e.version << ",";
  err << "\n                   bench history JSONL\n"
         "exit codes: 0 clean, 1 regression beyond threshold "
         "(lineage: audit violated,\n"
         "            stuck: the dump records an abort trip), "
         "2 usage/parse error\n";
  return 2;
}

/// The shared tail of every subcommand: read the files at `paths`, run
/// `report` on their texts, and print the result — the report on stdout
/// with exit status `status(result)`, or the error on stderr with exit 2.
template <typename Report, typename Status>
int run_report(const std::string& cmd, std::vector<std::string> paths,
               std::ostream& out, std::ostream& err, Report report,
               Status status) {
  std::vector<std::string> texts(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    std::string why;
    if (!slurp(paths[i], &texts[i], &why)) {
      err << "ftdiag " << cmd << ": " << why << "\n";
      return 2;
    }
  }
  const auto res = report(texts);
  if (!res.ok) {
    err << "ftdiag " << cmd << ": " << res.error << "\n";
    return 2;
  }
  out << res.text;
  return status(res);
}

/// `--threshold PCT` value; false (a usage error) when not a number >= 0.
bool parse_threshold(const char* text, double* threshold) {
  char* end = nullptr;
  *threshold = std::strtod(text, &end);
  return end != text && *threshold >= 0.0;
}

const auto kRegressed = [](const auto& res) {
  return res.regressions > 0 ? 1 : 0;
};

}  // namespace

int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  if (argc < 2) return usage(err);
  const std::string cmd = argv[1];
  using Texts = std::vector<std::string>;

  if (cmd == "--version" || cmd == "version") {
    out << "ftdiag schemas:\n";
    for (const util::SchemaEntry& e : util::kSchemaTable)
      out << "  " << e.format << " JSON: "
          << (e.exact ? "exactly v" : "up to v") << e.version << "\n";
    return 0;
  }

  if (cmd == "explain") {
    if (argc != 3) return usage(err);
    return run_report(
        cmd, {argv[2]}, out, err,
        [](const Texts& t) { return explain_trace_json(t[0]); },
        [](const ExplainResult&) { return 0; });
  }

  if (cmd == "diff") {
    if (argc != 4 && argc != 6) return usage(err);
    double threshold = 20.0;
    if (argc == 6 && (std::string(argv[4]) != "--threshold" ||
                      !parse_threshold(argv[5], &threshold)))
      return usage(err);
    return run_report(
        cmd, {argv[2], argv[3]}, out, err,
        [&](const Texts& t) { return diff_json(t[0], t[1], threshold); },
        kRegressed);
  }

  if (cmd == "hotspots") {
    // One file = report mode (optionally --top K); two files = diff mode
    // (optionally --threshold PCT).
    if (argc == 3 || (argc == 5 && std::string(argv[3]) == "--top")) {
      std::size_t top_k = 0;
      if (argc == 5) {
        char* end = nullptr;
        const long k = std::strtol(argv[4], &end, 10);
        if (end == argv[4] || k <= 0) return usage(err);
        top_k = static_cast<std::size_t>(k);
      }
      return run_report(
          cmd, {argv[2]}, out, err,
          [&](const Texts& t) { return hotspots_report(t[0], top_k); },
          kRegressed);
    }
    if (argc == 4 || (argc == 6 && std::string(argv[4]) == "--threshold")) {
      double threshold = 20.0;
      if (argc == 6 && !parse_threshold(argv[5], &threshold))
        return usage(err);
      return run_report(
          cmd, {argv[2], argv[3]}, out, err,
          [&](const Texts& t) { return hotspots_diff(t[0], t[1], threshold); },
          kRegressed);
    }
    return usage(err);
  }

  if (cmd == "campaign") {
    // One file = summary report; two files = reliability-curve diff
    // (optionally --threshold PCT; default 0 — campaigns are
    // deterministic, so same-spec reports must match exactly).
    if (argc == 3)
      return run_report(
          cmd, {argv[2]}, out, err,
          [](const Texts& t) { return campaign_report(t[0]); }, kRegressed);
    if (argc == 4 || (argc == 6 && std::string(argv[4]) == "--threshold")) {
      double threshold = 0.0;
      if (argc == 6 && !parse_threshold(argv[5], &threshold))
        return usage(err);
      return run_report(
          cmd, {argv[2], argv[3]}, out, err,
          [&](const Texts& t) { return campaign_diff(t[0], t[1], threshold); },
          kRegressed);
    }
    return usage(err);
  }

  if (cmd == "history") {
    if (argc < 3) return usage(err);
    std::string metric = "makespan";
    std::size_t last_k = 3;
    double threshold = 20.0;
    for (int i = 3; i < argc; i += 2) {
      if (i + 1 >= argc) return usage(err);
      const std::string flag = argv[i];
      const char* val = argv[i + 1];
      if (flag == "--metric") {
        metric = val;
      } else if (flag == "--last") {
        char* end = nullptr;
        const long k = std::strtol(val, &end, 10);
        if (end == val || k <= 0) return usage(err);
        last_k = static_cast<std::size_t>(k);
      } else if (flag == "--threshold") {
        if (!parse_threshold(val, &threshold)) return usage(err);
      } else {
        return usage(err);
      }
    }
    return run_report(
        cmd, {argv[2]}, out, err,
        [&](const Texts& t) {
          return history_trends(t[0], metric, last_k, threshold);
        },
        kRegressed);
  }

  if (cmd == "lineage") {
    if (argc < 3) return usage(err);
    long key = -1;
    std::size_t top_n = 0;
    bool audit_only = false;
    int i = 3;
    while (i < argc) {
      const std::string flag = argv[i];
      if (flag == "--audit") {
        audit_only = true;
        i += 1;
      } else if (flag == "--key" && i + 1 < argc) {
        char* end = nullptr;
        key = std::strtol(argv[i + 1], &end, 10);
        if (end == argv[i + 1] || key < 0) return usage(err);
        i += 2;
      } else if (flag == "--top" && i + 1 < argc) {
        char* end = nullptr;
        const long n = std::strtol(argv[i + 1], &end, 10);
        if (end == argv[i + 1] || n <= 0) return usage(err);
        top_n = static_cast<std::size_t>(n);
        i += 2;
      } else {
        return usage(err);
      }
    }
    // The three modes are exclusive: each picks its own rendering.
    if ((key >= 0 ? 1 : 0) + (top_n > 0 ? 1 : 0) + (audit_only ? 1 : 0) > 1)
      return usage(err);
    return run_report(
        cmd, {argv[2]}, out, err,
        [&](const Texts& t) {
          return lineage_report(t[0], key, top_n, audit_only);
        },
        [](const LineageCliResult& r) {
          return (r.audit_checked && !r.audit_ok) ? 1 : 0;
        });
  }

  if (cmd == "stuck") {
    if (argc != 3) return usage(err);
    return run_report(
        cmd, {argv[2]}, out, err,
        [](const Texts& t) { return stuck_report(t[0]); },
        [](const StuckResult& r) { return r.trips > 0 ? 1 : 0; });
  }

  return usage(err);
}

}  // namespace ftsort::tools
