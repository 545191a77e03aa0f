// Machine-readable benchmark harness: runs pinned-seed end-to-end sorts
// (fig7/table shapes) and kernel microbenchmarks, and writes BENCH_sort.json
// so future changes have a perf trajectory to regress against.
//
// Usage:
//   bench_harness [--smoke] [--out PATH] [--baseline PATH]
//                 [--trace-out PATH] [--metrics-out PATH] [--schema PATH]
//
// `--smoke` shrinks every scenario for a seconds-scale CI run; `--baseline`
// re-parses the emitted JSON (catching malformed output) and compares the
// deterministic counters — comparisons, keys routed, messages, simulated
// makespan, heap allocations — against a committed baseline, exiting
// non-zero on a >20% regression. Wall time is never compared against the
// baseline (machine- and load-dependent); instead each SIMD kernel micro
// must beat its scalar twin from the same run, because its inner loop is
// exactly the kernel being scored.
//
// Observability: each end-to-end scenario also performs one *separate*
// instrumented run with sim::Metrics enabled — the timed reps (and their
// allocation ledger) stay uninstrumented — and BENCH_sort.json gains a
// per-phase block per scenario. `--metrics-out` writes the flagship
// fig7_q6_r2 scenario's full metrics JSON (sim::write_metrics_json);
// `--schema` validates that JSON against the checked-in
// bench/metrics_schema.json required-keys list; `--trace-out` writes the
// same run's Chrome/Perfetto trace (open at ui.perfetto.dev).
//
// Numbers are meaningful in the `release` preset only (-O3 -DNDEBUG); a
// debug build tags the JSON so a baseline from the wrong build type is
// obvious at review time.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sched.h>

#include "core/ft_sorter.hpp"
#include "fault/scenario.hpp"
#include "sim/exporters.hpp"
#include "sim/link_stats.hpp"
#include "sort/distribution.hpp"
#include "sort/merge_split_kernels.hpp"
#include "util/history.hpp"
#include "util/json.hpp"
#include "util/progress.hpp"
#include "util/rng.hpp"
#include "util/schema.hpp"

// ---------------------------------------------------------------------------
// Counting allocation hook: every operator new in the process bumps one
// relaxed atomic. Replacing the global operators is the one sanctioned way
// to observe allocator traffic without a profiler; keep the hook trivial so
// it never perturbs what it measures.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

// SIGINT/SIGTERM latch: the scenario loop checks it between scenarios
// and flushes a partial BENCH_sort.json instead of dropping the run.
std::atomic<int> g_bench_signal{0};
void bench_on_signal(int sig) { g_bench_signal.store(sig); }
}  // namespace

// GCC models the malloc-backed replacement operator new as malloc itself
// once it inlines these definitions (e.g. through std::function's
// manager), then flags the paired free() in the replacement delete as a
// mismatched-new-delete. This is exactly the sanctioned replacement
// pattern; the diagnostic is a false positive at these definitions.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace ftsort::bench {
namespace {

struct Metrics {
  std::string name;
  std::uint64_t wall_ns = 0;      ///< best-of-reps wall time, informational
  double makespan = 0.0;          ///< simulated time (0 for kernel micros)
  /// Detection/recovery split of the makespan: `makespan_detect` is the
  /// last recv_or_timeout expiry (fault detection, timeout-constant
  /// dominated), the rest is real post-recovery sort work. Both zero for
  /// fault-free scenarios and kernel micros.
  double makespan_detect = 0.0;
  double makespan_post_recovery = 0.0;
  std::uint64_t comparisons = 0;
  std::uint64_t keys_routed = 0;  ///< RunReport::keys_sent
  std::uint64_t messages = 0;
  std::uint64_t allocations = 0;  ///< operator-new calls in one timed rep
  std::uint64_t pool_heap_allocations = 0;  ///< pool fresh + grows
  std::uint64_t pool_checkouts = 0;
  /// Report of the separate instrumented run (metrics, phase breakdown);
  /// empty for kernel micros.
  sim::RunReport obs;
  /// Trace of the instrumented run; captured only when --trace-out needs it.
  std::vector<sim::TraceEvent> trace_events;
  /// Cost model the scenario's simulated time was charged under
  /// (end-to-end scenarios only — kernel micros have no simulated time).
  bool has_cost = false;
  sim::CostModel cost;
  /// Kernel backend a micro actually ran on ("scalar"/"simd"); empty for
  /// end-to-end scenarios.
  std::string kernel_backend;
};

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  std::uint64_t ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Run `body` `reps` times; keep the fastest rep's wall time and the
/// allocation delta of that same rep (the steady-state cost, not warm-up).
template <typename Body>
void measure(Metrics& m, int reps, Body&& body) {
  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
    const Timer timer;
    body();
    const std::uint64_t ns = timer.ns();
    if (rep == 0 || ns < m.wall_ns) {
      m.wall_ns = ns;
      m.allocations =
          g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    }
  }
}

Metrics run_end_to_end(const std::string& name, cube::Dim n,
                       std::size_t num_faults, std::size_t num_keys,
                       core::SortConfig cfg, std::uint64_t seed, int reps) {
  util::Rng rng(seed);
  const fault::FaultSet faults =
      num_faults == 0 ? fault::FaultSet(n)
                      : fault::random_faults(n, num_faults, rng);
  const auto keys = sort::gen_uniform(num_keys, rng);
  const core::FaultTolerantSorter sorter(n, faults, cfg);

  Metrics m;
  m.name = name;
  m.has_cost = true;
  m.cost = cfg.cost;
  core::SortOutcome outcome;
  measure(m, reps, [&] { outcome = sorter.sort(keys); });
  m.makespan = outcome.report.makespan;
  m.comparisons = outcome.report.comparisons;
  m.keys_routed = outcome.report.keys_sent;
  m.messages = outcome.report.messages;
  m.pool_heap_allocations = outcome.report.pool_delta.heap_allocations();
  m.pool_checkouts = outcome.report.pool_delta.checkouts;

  // One separate instrumented run per scenario: the per-phase block and the
  // exportable trace come from here, so the timed reps above stay free of
  // metrics/trace overhead and the allocation gate keeps measuring the real
  // hot path.
  core::SortConfig obs_cfg = cfg;
  obs_cfg.record_metrics = true;
  obs_cfg.record_trace = true;
  obs_cfg.record_link_stats = true;
  // The sim-time sampler rides the same instrumented run (zero sim-time
  // cost), so the metrics export and `--trace-out` carry a real timeline
  // block rather than the disabled stub.
  obs_cfg.record_timeline = true;
  // Key-lineage custody tracking also rides the instrumented run: the
  // metrics export carries the schema-v6 lineage block (with its exact
  // no-loss/no-dup audit) and the timed reps stay untouched.
  obs_cfg.record_lineage = true;
  // Host-side scheduler counters only mean something on the threaded
  // executor, and only perturb wall time there — charge them to the
  // instrumented run, never the timed reps.
  obs_cfg.profile_host = cfg.executor == core::Executor::Threaded;
  // The wall-clock watchdog rides the instrumented run too (generous
  // deadline): a wedged scenario becomes a black-box dump + abort instead
  // of a CI timeout, and the metrics export carries the full armed
  // watchdog block the schema gate requires. Heartbeats are wall-clock
  // only, so not a single exported sim-time byte moves.
  obs_cfg.watchdog.enabled = true;
  obs_cfg.watchdog.deadline_ms = 120000;
  const core::FaultTolerantSorter obs_sorter(n, faults, obs_cfg);
  core::SortOutcome obs_outcome = obs_sorter.sort(keys);
  m.obs = std::move(obs_outcome.report);
  m.trace_events = std::move(obs_outcome.trace_events);
  m.makespan_detect = sim::detect_time(m.obs);
  m.makespan_post_recovery = m.makespan - m.makespan_detect;
  return m;
}

// The kernel micros call the detail:: bodies directly, so the pairwise
// select and its `_simd` twin run side by side in one process (the
// merge-split has the scalar body only). Where the vector body is not
// compiled in or the CPU lacks AVX2, the twin runs the scalar body and is
// tagged "scalar".
using PairwiseKernel = void (*)(std::span<const sort::Key>,
                                std::span<const sort::Key>, sort::SplitHalf,
                                std::vector<sort::Key>&,
                                std::vector<sort::Key>&, std::uint64_t&);

/// Whether a micro asking for the vector body gets it; tags `m`.
bool use_simd(Metrics& m, bool simd) {
  const bool vector = simd && sort::simd_kernels_available();
  m.kernel_backend = vector ? "simd" : "scalar";
  return vector;
}

PairwiseKernel pairwise_body([[maybe_unused]] bool simd) {
#if FTSORT_SIMD_KERNELS
  if (simd) return sort::detail::pairwise_select_rev_into_simd;
#endif
  return sort::detail::pairwise_select_rev_into_scalar;
}

Metrics run_micro_merge_split(const std::string& name, std::size_t block,
                              int iters, int reps) {
  util::Rng rng(99);
  auto a = sort::gen_uniform(block, rng);
  auto b = sort::gen_uniform(block, rng);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());

  Metrics m;
  m.name = name;
  m.kernel_backend = "scalar";
  std::vector<sort::Key> out;
  std::uint64_t comparisons = 0;
  measure(m, reps, [&] {
    comparisons = 0;
    for (int i = 0; i < iters; ++i) {
      sort::merge_split_into(a, b, sort::SplitHalf::Lower, out, comparisons);
      sort::merge_split_into(a, b, sort::SplitHalf::Upper, out, comparisons);
    }
  });
  m.comparisons = comparisons;
  return m;
}

Metrics run_micro_pairwise(const std::string& name, bool simd,
                           std::size_t block, int iters, int reps) {
  util::Rng rng(98);
  const auto a = sort::gen_uniform(block, rng);
  const auto b = sort::gen_uniform(block, rng);

  Metrics m;
  m.name = name;
  const PairwiseKernel kernel = pairwise_body(use_simd(m, simd));
  std::vector<sort::Key> kept;
  std::vector<sort::Key> returned;
  std::uint64_t comparisons = 0;
  measure(m, reps, [&] {
    comparisons = 0;
    for (int i = 0; i < iters; ++i)
      kernel(a, b, sort::SplitHalf::Lower, kept, returned, comparisons);
  });
  m.comparisons = comparisons;
  return m;
}

// ---------------------------------------------------------------------------
// JSON out, through util::json::Writer. read_bench below reads it back;
// keep the counters in lockstep.

/// The real CMake config when the build system provides it (NDEBUG alone
/// cannot tell RelWithDebInfo from Release); `ftdiag history` groups its
/// trends by this tag.
const char* build_type() {
#ifdef FTSORT_BUILD_TYPE
  return FTSORT_BUILD_TYPE;
#elif defined(NDEBUG)
  return "release";
#else
  return "debug";
#endif
}

void write_json(const std::string& path, const std::vector<Metrics>& all,
                bool smoke) {
  using util::json::Writer;
  constexpr auto kLines = Writer::Layout::Lines;
  std::ofstream out(path);
  Writer w(out);
  // v1 = PR 2 (flat counters + phases); v2 adds the
  // makespan_detect/makespan_post_recovery split; v3 adds the
  // per-scenario cost_model block and the micros' kernel_backend tag.
  w.begin_object(kLines).fields(
      "bench", "sort", "schema_version", util::kBenchSchemaVersion, "mode",
      smoke ? "smoke" : "full", "build", build_type());
  w.key("scenarios").begin_array(kLines);
  for (const Metrics& m : all) {
    w.begin_object(kLines).fields("name", m.name);
    if (!m.kernel_backend.empty())
      w.fields("kernel_backend", m.kernel_backend);
    w.fields("wall_ns", m.wall_ns, "makespan", m.makespan, "makespan_detect",
             m.makespan_detect, "makespan_post_recovery",
             m.makespan_post_recovery, "comparisons", m.comparisons,
             "keys_routed", m.keys_routed, "messages", m.messages,
             "allocations", m.allocations, "pool_heap_allocations",
             m.pool_heap_allocations, "pool_checkouts", m.pool_checkouts,
             "link_key_hops", m.obs.links.grand_total().key_hops);
    // Cost model the simulated times were charged under — ftdiag refuses
    // to diff scenarios whose models differ.
    if (m.has_cost) {
      w.key("cost_model").begin_object();
      w.fields("name", m.cost.name(), "routing", m.cost.mode_name(),
               "t_compare", m.cost.t_compare, "t_transfer", m.cost.t_transfer,
               "t_startup", m.cost.t_startup);
      w.end();
    }
    // Per-dimension link rollup from the instrumented run: which cube
    // dimension carried the traffic, and how hot its wires ran.
    if (!m.obs.links.empty()) {
      const std::vector<double> util = sim::dimension_utilization(
          m.obs.links, m.obs.cost, m.obs.makespan);
      w.key("link_dimensions").begin_object(kLines);
      for (cube::Dim d = 0; d < m.obs.links.dim; ++d) {
        const sim::LinkCell cell = m.obs.links.dim_total(d);
        w.key(std::to_string(d)).begin_object();
        w.fields("traversals", cell.traversals, "key_hops", cell.key_hops,
                 "busy", sim::link_busy_time(cell, m.obs.cost), "utilization",
                 util[static_cast<std::size_t>(d)]);
        w.end();
      }
      w.end();
    }
    // Per-phase columns from the instrumented run. Empty phases are skipped.
    if (!m.obs.metrics.empty()) {
      w.key("phases").begin_object(kLines);
      for (const sim::PhaseBreakdown::Slice& sl : m.obs.phases.slices) {
        if (sl.counters == sim::PhaseCounters{} && sl.critical_time == 0.0)
          continue;
        w.key(sim::phase_name(sl.phase)).begin_object();
        w.fields("comparisons", sl.counters.comparisons, "keys_sent",
                 sl.counters.keys_sent, "messages", sl.counters.messages,
                 "critical_time", sl.critical_time);
        w.end();
      }
      w.end();
    }
    w.end();
  }
  w.end().end();
}

// Reader for BENCH_sort.json (write_json above). Every scenario must carry
// every counter in kScenarioCounters; a missing one, or invalid JSON, is
// the "malformed" failure the smoke test gates on.
constexpr const char* kScenarioCounters[] = {
    "wall_ns", "makespan", "makespan_detect", "makespan_post_recovery",
    "comparisons", "keys_routed", "messages", "allocations",
    "pool_heap_allocations", "pool_checkouts", "link_key_hops"};

struct ParsedScenario {
  std::string name;
  std::string kernel_backend;              ///< micros only; empty otherwise
  std::map<std::string, double> counters;  ///< kScenarioCounters by name
};

struct ParsedBench {
  std::string mode;
  std::vector<ParsedScenario> scenarios;
};

bool read_bench(const std::string& path, ParsedBench* out, std::string* why) {
  const util::json::ParseResult parsed = util::json::parse_file(path);
  if (!parsed.ok()) {
    *why = parsed.error;
    return false;
  }
  const util::json::Value& doc = parsed.value;
  if (!doc["mode"].is_string()) {
    *why = "no \"mode\"";
    return false;
  }
  out->mode = doc["mode"].string();
  for (const util::json::Value& sc : doc["scenarios"].items()) {
    ParsedScenario s;
    s.name = sc["name"].string();
    s.kernel_backend = sc["kernel_backend"].string();
    if (s.name.empty()) {
      *why = "scenario without a \"name\"";
      return false;
    }
    for (const char* key : kScenarioCounters) {
      if (!sc[key].is_number()) {
        *why = "scenario \"" + s.name + "\" without \"" + key + "\"";
        return false;
      }
      s.counters[key] = sc[key].number();
    }
    out->scenarios.push_back(std::move(s));
  }
  if (out->scenarios.empty()) {
    *why = "no scenarios";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Metrics-JSON schema gate. bench/metrics_schema.json lists the keys,
// per-phase counter fields, and phase names every metrics export must
// contain; a required key is one present as an object key anywhere in the
// parsed export, a required phase the "phase" of an entry in `phases` — a
// drift check between writer and consumers, not a JSON-schema engine.

bool validate_metrics_schema(const std::string& metrics_json,
                             const std::string& schema_path) {
  const util::json::ParseResult schema = util::json::parse_file(schema_path);
  if (!schema.ok()) {
    std::fprintf(stderr, "FAIL: cannot read schema %s: %s\n",
                 schema_path.c_str(), schema.error.c_str());
    return false;
  }
  const std::vector<util::json::Value>& keys =
      schema.value["required_keys"].items();
  const std::vector<util::json::Value>& phases =
      schema.value["required_phases"].items();
  if (keys.empty() || phases.empty()) {
    std::fprintf(stderr, "FAIL: schema %s lists no required keys\n",
                 schema_path.c_str());
    return false;
  }
  const util::json::ParseResult metrics = util::json::parse(metrics_json);
  if (!metrics.ok()) {
    std::fprintf(stderr, "SCHEMA: metrics JSON is invalid: %s\n",
                 metrics.error.c_str());
    return false;
  }
  const std::set<std::string> present = util::json::object_keys(metrics.value);
  std::set<std::string> phase_names;
  for (const util::json::Value& p : metrics.value["phases"].items())
    phase_names.insert(p["phase"].string());
  bool ok = true;
  for (const util::json::Value& k : keys)
    if (present.count(k.string()) == 0) {
      std::fprintf(stderr, "SCHEMA: missing required key \"%s\"\n",
                   k.string().c_str());
      ok = false;
    }
  for (const util::json::Value& p : phases)
    if (phase_names.count(p.string()) == 0) {
      std::fprintf(stderr, "SCHEMA: missing phase entry \"%s\"\n",
                   p.string().c_str());
      ok = false;
    }
  return ok;
}

/// >20% above baseline on any deterministic counter fails the gate.
bool check_regressions(const std::vector<ParsedScenario>& current,
                       const std::vector<ParsedScenario>& baseline) {
  bool ok = true;
  const auto gate = [&](const std::string& scenario, const char* metric,
                        double now, double base) {
    if (base > 0 && now > base * 1.2) {
      std::fprintf(stderr,
                   "REGRESSION %s.%s: %.0f vs baseline %.0f (+%.1f%%)\n",
                   scenario.c_str(), metric, now, base,
                   100.0 * (now / base - 1.0));
      ok = false;
    }
  };
  for (const ParsedScenario& base : baseline) {
    const ParsedScenario* now = nullptr;
    for (const ParsedScenario& s : current)
      if (s.name == base.name) now = &s;
    if (now == nullptr) {
      std::fprintf(stderr, "REGRESSION: scenario %s missing from output\n",
                   base.name.c_str());
      ok = false;
      continue;
    }
    // makespan_post_recovery is the recovery split: detection time is
    // pinned by the timeout constant, so a post-recovery blow-up is a
    // genuine algorithmic regression even when the total makespan hides it
    // behind a large detect share. link_key_hops is hop-weighted: it shows
    // the routing regressions keys_routed hides (the same keys pushed over
    // longer detours).
    for (const char* metric :
         {"makespan", "makespan_post_recovery", "comparisons", "keys_routed",
          "messages", "allocations", "pool_heap_allocations",
          "link_key_hops"})
      gate(base.name, metric, now->counters.at(metric),
           base.counters.at(metric));
  }
  return ok;
}

/// Same-run kernel gate: every micro that ran the vector body must beat
/// its scalar twin (the name without "_simd") from this very run. A micro
/// is exactly its kernel's inner loop, so a vector kernel that quietly
/// stopped vectorizing fails here — on any host, with no stored wall time.
bool check_simd_twins(const std::vector<ParsedScenario>& current) {
  bool ok = true;
  constexpr std::string_view kSuffix = "_simd";
  for (const ParsedScenario& simd : current) {
    if (!simd.name.ends_with(kSuffix)) continue;
    if (simd.kernel_backend != "simd") {
      std::printf("note: %s ran the scalar body here; twin gate skipped\n",
                  simd.name.c_str());
      continue;
    }
    const std::string twin =
        simd.name.substr(0, simd.name.size() - kSuffix.size());
    for (const ParsedScenario& scalar : current) {
      if (scalar.name != twin) continue;
      const double fast = simd.counters.at("wall_ns");
      const double slow = scalar.counters.at("wall_ns");
      if (fast >= slow) {
        std::fprintf(stderr, "REGRESSION %s: %.0f ns, not faster than %s "
                     "(%.0f ns)\n", simd.name.c_str(), fast, twin.c_str(),
                     slow);
        ok = false;
      }
    }
  }
  return ok;
}

/// Host stamp for the history line: the CPUs this process may run on (its
/// affinity mask, which a container or `taskset` may narrow) and the
/// 1-minute load average. Wall times from different hosts or loads are not
/// one trend; `ftdiag history` names the mix.
void put_host_stamp(util::json::Writer& w) {
  cpu_set_t set;
  const unsigned nproc = sched_getaffinity(0, sizeof set, &set) == 0
                             ? static_cast<unsigned>(CPU_COUNT(&set))
                             : std::thread::hardware_concurrency();
  w.fields("nproc", nproc).key("loadavg");
  double load = 0.0;
  if (getloadavg(&load, 1) == 1)
    w.fixed(load, 2);
  else
    w.null();
}

int harness_main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_sort.json";
  std::string baseline_path;
  std::string trace_path;
  std::string metrics_path;
  std::string schema_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--schema" && i + 1 < argc) {
      schema_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_harness [--smoke] [--out PATH] "
                   "[--baseline PATH] [--trace-out PATH] "
                   "[--metrics-out PATH] [--schema PATH]\n");
      return 2;
    }
  }

  const int reps = smoke ? 2 : 3;
  const std::size_t m_fig7 = smoke ? 3'200 : 32'000;
  const std::size_t m_table = smoke ? 1'000 : 10'000;
  const std::size_t m_recovery = smoke ? 200 : 2'000;
  const std::size_t micro_block = smoke ? 8'192 : 65'536;
  const int micro_iters = smoke ? 20 : 50;
  // Best of five: the twin gate compares two micro wall times, and a
  // millisecond micro costs nothing to repeat.
  const int micro_reps = 5;

  // Scenario list as (name, thunk) so the loop below owns liveness: the
  // live progress line names the scenario in flight, and SIGINT/SIGTERM
  // between scenarios flushes the completed prefix instead of losing it.
  std::vector<std::pair<std::string, std::function<Metrics()>>> plan;
  {  // Fig. 7 shape: Q_6, r = 2 random faults, full exchange.
    core::SortConfig cfg;
    cfg.protocol = sort::ExchangeProtocol::FullExchange;
    plan.emplace_back("fig7_q6_r2", [=] {
      return run_end_to_end("fig7_q6_r2", 6, 2, m_fig7, cfg, 1706, reps);
    });
  }
  {  // Same machine on the threaded executor.
    core::SortConfig cfg;
    cfg.protocol = sort::ExchangeProtocol::FullExchange;
    cfg.executor = core::Executor::Threaded;
    plan.emplace_back("fig7_q6_r2_threaded", [=] {
      return run_end_to_end("fig7_q6_r2_threaded", 6, 2, m_fig7, cfg, 1706,
                            reps);
    });
  }
  {  // Table 1 shape: Q_4, 2 faults, the paper's half exchange.
    core::SortConfig cfg;
    cfg.protocol = sort::ExchangeProtocol::HalfExchange;
    plan.emplace_back("table1_q4_half_f2", [=] {
      return run_end_to_end("table1_q4_half_f2", 4, 2, m_table, cfg, 1704,
                            reps);
    });
  }
  {  // Online recovery with a mid-run death.
    core::SortConfig cfg;
    cfg.online_recovery = true;
    cfg.injector.kill_node_at(6, 2000.0);
    plan.emplace_back("recovery_q3_kill6", [=] {
      return run_end_to_end("recovery_q3_kill6", 3, 1, m_recovery, cfg, 1703,
                            reps);
    });
  }
  {  // Fig. 7 shape under the cut-through model, paper protocol verbatim:
     // the 350 µs start-up term now dominates the half exchange's
     // 4-message/2-round shape.
    core::SortConfig cfg;
    cfg.cost = sim::CostModel::wormhole();
    cfg.protocol = sort::ExchangeProtocol::HalfExchange;
    plan.emplace_back("fig7_q6_r2_wormhole", [=] {
      return run_end_to_end("fig7_q6_r2_wormhole", 6, 2, m_fig7, cfg, 1706,
                            reps);
    });
  }
  {  // Same machine with the exchange coalesced into the full exchange:
     // same keys per direction, half the messages and rounds. The makespan
     // delta against fig7_q6_r2_wormhole is the measured end-to-end win of
     // coalescing.
    core::SortConfig cfg;
    cfg.cost = sim::CostModel::wormhole();
    cfg.protocol = sort::ExchangeProtocol::FullExchange;
    plan.emplace_back("fig7_q6_r2_wormhole_coalesced", [=] {
      return run_end_to_end("fig7_q6_r2_wormhole_coalesced", 6, 2, m_fig7,
                            cfg, 1706, reps);
    });
  }
  plan.emplace_back("micro_merge_split_into", [=] {
    return run_micro_merge_split("micro_merge_split_into", micro_block,
                                 micro_iters, micro_reps);
  });
  plan.emplace_back("micro_pairwise_rev_into", [=] {
    return run_micro_pairwise("micro_pairwise_rev_into", false, micro_block,
                              micro_iters, micro_reps);
  });
  plan.emplace_back("micro_pairwise_rev_into_simd", [=] {
    return run_micro_pairwise("micro_pairwise_rev_into_simd", true,
                              micro_block, micro_iters, micro_reps);
  });

  std::signal(SIGINT, bench_on_signal);
  std::signal(SIGTERM, bench_on_signal);

  std::vector<Metrics> all;
  bool interrupted = false;
  {
    util::ProgressLine progress;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (g_bench_signal.load() != 0) {
        interrupted = true;
        break;
      }
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      std::ostringstream line;
      line << "bench: " << i << "/" << plan.size() << " scenarios done, "
           << "running " << plan[i].first;
      if (i > 0)
        line << ", eta "
             << util::format_eta(elapsed / static_cast<double>(i) *
                                 static_cast<double>(plan.size() - i));
      progress.update(line.str());
      all.push_back(plan[i].second());
    }
  }

  if (interrupted) {
    // Partial flush: the completed prefix is still a valid BENCH_sort.json
    // (fewer scenarios). The history append is skipped — a truncated run
    // would poison the per-scenario trend groups — and the baseline gate
    // never runs. Exit 128+signal, shell convention for a signal death.
    const int sig = g_bench_signal.load();
    write_json(out_path, all, smoke);
    std::fprintf(stderr,
                 "interrupted by signal %d after %zu/%zu scenarios; wrote "
                 "partial %s (history append skipped)\n",
                 sig, all.size(), plan.size(), out_path.c_str());
    return 128 + sig;
  }

  write_json(out_path, all, smoke);

  // Re-parse what we just wrote: a malformed file fails here, not in some
  // future consumer.
  ParsedBench current;
  std::string why = "scenario count differs from the run";
  if (!read_bench(out_path, &current, &why) ||
      current.scenarios.size() != all.size()) {
    std::fprintf(stderr, "FAIL: %s is malformed: %s\n", out_path.c_str(),
                 why.c_str());
    return 1;
  }
  for (const ParsedScenario& s : current.scenarios) {
    const std::map<std::string, double>& c = s.counters;
    std::printf("%-22s wall=%9.3fms makespan=%12.1f cmp=%9.0f keys=%8.0f "
                "msgs=%6.0f allocs=%8.0f pool_heap=%6.0f\n",
                s.name.c_str(), c.at("wall_ns") / 1e6, c.at("makespan"),
                c.at("comparisons"), c.at("keys_routed"), c.at("messages"),
                c.at("allocations"), c.at("pool_heap_allocations"));
  }

  // Host-side scheduler profile of the threaded instrumented run. Printed,
  // never written into the scenario rows: the counters are wall-clock
  // artifacts of this machine, not properties of the algorithm.
  for (const Metrics& m : all)
    if (m.obs.host.enabled) {
      const sim::SchedShardProfile t = m.obs.host.total();
      std::printf("host-profile %-18s mutex_waits=%" PRIu64
                  " mutex_wait_ms=%.3f cv_wakeups=%" PRIu64
                  " spurious=%" PRIu64 " resumed=%" PRIu64
                  " quiescence=%" PRIu64 "/%" PRIu64
                  " pool_contended=%" PRIu64 "\n",
                  m.name.c_str(), t.mutex_waits,
                  static_cast<double>(t.mutex_wait_ns) / 1e6, t.cv_wakeups,
                  t.spurious_wakeups, t.tasks_resumed,
                  m.obs.host.quiescence_events, m.obs.host.quiescence_checks,
                  m.obs.host.pool_contended);
    }

  // Append a one-line summary to BENCH_history.jsonl next to --out, so
  // successive local runs accumulate a perf trajectory that survives
  // BENCH_sort.json being overwritten. Rotation (last-500 trim, the
  // unreadable-file guard) lives in util::append_history_line so tests
  // exercise the exact code the harness runs.
  {
    const std::size_t slash = out_path.find_last_of('/');
    const std::string history_path =
        (slash == std::string::npos ? std::string()
                                    : out_path.substr(0, slash + 1)) +
        "BENCH_history.jsonl";
    std::ostringstream hist;
    util::json::Writer w(hist);
    w.begin_object().fields("bench", "sort", "mode", smoke ? "smoke" : "full",
                            "build", build_type());
    put_host_stamp(w);
    w.key("scenarios").begin_array();
    for (const Metrics& m : all) {
      w.begin_object();
      w.fields("name", m.name, "wall_ns", m.wall_ns, "makespan", m.makespan,
               "comparisons", m.comparisons);
      w.end();
    }
    w.end().end();
    // The writer ends the document with a newline; the history adds its own.
    std::string line = hist.str();
    line.pop_back();
    const util::HistoryAppendResult hres =
        util::append_history_line(history_path, line);
    if (hres.rotated)
      std::printf("history: %s (%zu entries)\n", history_path.c_str(),
                  hres.entries);
    else if (hres.unreadable)
      std::fprintf(stderr,
                   "warning: %s exists but is unreadable; "
                   "skipping history rotation\n",
                   history_path.c_str());
    else
      // An unwritable history path degrades the trajectory, never the
      // bench: the gate's exit code must reflect the counters alone.
      std::fprintf(stderr, "warning: could not write %s\n",
                   history_path.c_str());
  }

  // Observability exports: the flagship fig7_q6_r2 scenario's instrumented
  // run backs both the Perfetto trace and the metrics JSON.
  const Metrics& flagship = all.front();
  if (!trace_path.empty()) {
    std::ostringstream tjson;
    // Counter tracks (per-dimension keys-in-flight / busy time) ride on the
    // instrumented run's cost model; the eviction count annotates whether
    // the export is ring-truncated.
    sim::ChromeTraceOptions topts;
    topts.cost = &flagship.obs.cost;
    topts.trace_dropped = flagship.obs.trace_dropped;
    topts.timeline = &flagship.obs.timeline;
    topts.lineage = &flagship.obs.lineage;
    sim::write_chrome_trace(
        tjson, flagship.trace_events,
        static_cast<std::uint32_t>(flagship.obs.metrics.nodes.size()), topts);
    // Shape-check before writing: a malformed export fails the smoke test
    // here, not when someone loads the file in Perfetto weeks later.
    if (!sim::validate_chrome_trace(tjson.str(), &why)) {
      std::fprintf(stderr, "FAIL: trace export invalid: %s\n", why.c_str());
      return 1;
    }
    std::ofstream tout(trace_path);
    tout << tjson.str();
    if (!tout) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("trace: %s (%zu events, validated)\n", trace_path.c_str(),
                flagship.trace_events.size());
  }
  if (!metrics_path.empty() || !schema_path.empty()) {
    std::ostringstream mjson;
    sim::write_metrics_json(mjson, flagship.obs);
    const std::string metrics_json = mjson.str();
    if (!metrics_path.empty()) {
      std::ofstream mout(metrics_path);
      mout << metrics_json;
      if (!mout) {
        std::fprintf(stderr, "FAIL: cannot write %s\n", metrics_path.c_str());
        return 1;
      }
      std::printf("metrics: %s\n", metrics_path.c_str());
    }
    if (!schema_path.empty()) {
      if (!validate_metrics_schema(metrics_json, schema_path)) {
        std::fprintf(stderr, "FAIL: metrics JSON violates %s\n",
                     schema_path.c_str());
        return 1;
      }
      std::printf("metrics schema OK (%s)\n", schema_path.c_str());
    }
  }

  if (!baseline_path.empty()) {
    ParsedBench baseline;
    if (!read_bench(baseline_path, &baseline, &why)) {
      std::fprintf(stderr, "FAIL: baseline %s is malformed: %s\n",
                   baseline_path.c_str(), why.c_str());
      return 1;
    }
    if (baseline.mode != current.mode) {
      std::fprintf(stderr,
                   "FAIL: baseline mode \"%s\" != current mode \"%s\" — "
                   "scenario sizes differ, counters are not comparable\n",
                   baseline.mode.c_str(), current.mode.c_str());
      return 1;
    }
    // Both gates run and report before the exit code is decided.
    const bool counters_ok =
        check_regressions(current.scenarios, baseline.scenarios);
    if (!check_simd_twins(current.scenarios) || !counters_ok) return 1;
    std::printf("baseline check OK (%zu scenarios, +20%% tolerance; SIMD "
                "micros beat their scalar twins)\n",
                baseline.scenarios.size());
  }
  return 0;
}

}  // namespace
}  // namespace ftsort::bench

int main(int argc, char** argv) {
  return ftsort::bench::harness_main(argc, argv);
}
