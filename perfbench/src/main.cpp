// ftbench: the host benchmark of the fault-tolerant sorter.
//
//   ftbench --workload bulk|fine [--seed N] [--seconds S] [--trace 0|1]
//           [--spans-out PATH] [--corrupt-first-output]
//
// One process, one caller, closed loop: each operation starts only after
// the previous one returned. Fault sets and keys come from --seed through
// fault::random_faults and sort::gen_uniform (campaign trials through the
// campaign's own seeded universe), so the library only sees generated
// inputs. Every output is checked; a failed check counts as a failed
// operation and makes the exit code 1.
//
// --trace 0 measures the end-to-end metrics. --trace 1 is a separate run
// that times calls into each module's public functions from outside,
// records them as spans (written to --spans-out when the run ends) and
// reports the per-layer metrics. README.md lists every metric and which
// end-to-end metric each layer metric is expected to move.
//
// The last line of stdout is the JSON result; everything before it is the
// human-readable report.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "core/analytic.hpp"
#include "core/ft_sorter.hpp"
#include "fault/scenario.hpp"
#include "partition/plan.hpp"
#include "sort/distribution.hpp"
#include "sort/merge_split.hpp"
#include "sort/sequential.hpp"
#include "support.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

// Counting allocation hook for sim.allocs_per_sort: every operator new in
// the process bumps one relaxed atomic.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// GCC flags the malloc-backed replacement operator new paired with free()
// as mismatched once it inlines them; this is the sanctioned replacement
// pattern.
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

namespace perfbench {
namespace {

using namespace ftsort;
using Clock = std::chrono::steady_clock;
using sort::Key;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workload shapes. Why each exists, and the sizing facts behind it, are in
// README.md; the numbers here are the contract later changes compare on.

struct SortShape {
  cube::Dim n;
  std::size_t faults;
  std::size_t keys;
};

/// Kernel-bound: ~16.9k keys per node, Step 3 heapsort dominates.
constexpr SortShape kBulk{6, 2, std::size_t{1} << 20};
/// Plumbing-bound: ~17 keys per node, 20k+ messages per sort.
constexpr SortShape kFine{8, 3, 4096};
/// The campaign layer, measured in traced runs of `fine`: Q_7, r_max = 3,
/// 2048 keys per trial, 40 scenarios (160 trials).
constexpr SortShape kCampaignShape{7, 3, 2048};
constexpr std::uint32_t kCampaignScenarios = 40;

/// Minimum sorts per measurement window, so that its median has ten
/// samples beyond it.
constexpr std::size_t kMinOps = 20;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
  bool corrupt_first_output = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ftbench: " << why
            << "\nusage: ftbench --workload bulk|fine [--seed N] "
               "[--seconds S] [--trace 0|1] [--spans-out PATH] "
               "[--corrupt-first-output]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--spans-out") {
        o.spans_out = value();
      } else if (a == "--corrupt-first-output") {
        o.corrupt_first_output = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (o.workload != "bulk" && o.workload != "fine")
    usage("--workload must be bulk or fine");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

// ---------------------------------------------------------------------------
// Environment stamp.

unsigned usable_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&set));
  return 0;
}

std::string load_average() {
  double la[3] = {0.0, 0.0, 0.0};
  if (getloadavg(la, 3) != 3) return "unknown";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f/%.2f/%.2f", la[0], la[1], la[2]);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Pins the calling thread to each usable CPU in turn, one measurement
/// window at a time, and restores the original affinity when destroyed.
/// Other tenants of a shared host slow some cores at a time; rotating lets
/// the quietest window find a quiet core as well as a quiet moment.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (std::size_t c = 0; c < static_cast<std::size_t>(CPU_SETSIZE); ++c)
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pin to the next CPU and return its number (-1 without affinity).
  int next() {
    if (cpus_.empty()) return -1;
    const std::size_t cpu = cpus_[next_++ % cpus_.size()];
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
    return static_cast<int>(cpu);
  }

 private:
  cpu_set_t original_;
  std::vector<std::size_t> cpus_;
  std::size_t next_ = 0;
};

void print_env(const Options& o, const char* when) {
  std::cout << "env(" << when << "): workload=" << o.workload
            << " seed=" << o.seed << " trace=" << (o.trace ? 1 : 0)
            << " nproc=" << usable_cpus() << " loadavg=" << load_average()
            << " compiler=\"gcc-compatible " << __VERSION__
            << "\" build=" << PERFBENCH_BUILD_TYPE
            << " kernel_backend="
            << (sort::active_kernel_backend() == sort::KernelBackend::Simd
                    ? "simd"
                    : "scalar")
            << '\n';
}

// ---------------------------------------------------------------------------
// Inputs and checks.

struct SortInputs {
  fault::FaultSet faults;
  std::vector<Key> keys;
  std::vector<Key> expected;  ///< std::sort of keys: the reference output
};

SortInputs make_inputs(const SortShape& shape, std::uint64_t seed) {
  util::Rng rng(seed);
  fault::FaultSet faults = fault::random_faults(shape.n, shape.faults, rng);
  std::vector<Key> keys = sort::gen_uniform(shape.keys, rng);
  std::vector<Key> expected = keys;
  std::sort(expected.begin(), expected.end());
  return {std::move(faults), std::move(keys), std::move(expected)};
}

/// One checked sort: counts the attempt, and a throw or an output that is
/// not std::sort of the input as a failure. Returns the outcome when the
/// call returned.
std::optional<core::SortOutcome> checked_sort(
    const core::FaultTolerantSorter& sorter, const SortInputs& in,
    Report& rep, bool corrupt = false) {
  rep.attempt();
  try {
    core::SortOutcome out = sorter.sort(in.keys);
    if (corrupt && !out.sorted.empty()) out.sorted.front() ^= 1;
    rep.check(out.sorted == in.expected,
              "sort output differs from std::sort of its input");
    return out;
  } catch (const std::exception& e) {
    rep.fail(std::string("sort threw: ") + e.what());
    return std::nullopt;
  }
}

campaign::CampaignConfig campaign_config(std::uint64_t seed) {
  campaign::CampaignConfig cfg;
  cfg.universe.n = kCampaignShape.n;
  cfg.universe.r_max = kCampaignShape.faults;
  cfg.universe.scenarios = kCampaignScenarios;
  cfg.universe.num_keys = kCampaignShape.keys;
  cfg.seed = seed;
  cfg.workers = 1;
  return cfg;
}

std::string campaign_json(const campaign::CampaignReport& report) {
  std::ostringstream os;
  campaign::write_campaign_json(os, report);
  return os.str();
}

/// The campaign output checks. Deliberately not completion_monotone():
/// monotonicity in r holds in practice, not by construction, and fails at
/// some seeds.
void check_campaign(const campaign::CampaignReport& report, bool lineage,
                    Report& rep) {
  rep.check(report.conserves_trials(), "campaign does not conserve trials");
  for (const campaign::TrialResult& t : report.trials) {
    const std::string id = "trial " + std::to_string(t.index) + ": ";
    rep.check(t.outcome != core::RunOutcome::Corrupt, id + "corrupt output");
    rep.check(t.outcome != core::RunOutcome::Failed, id + "harness failure");
    if (lineage && core::outcome_completed(t.outcome))
      rep.check(t.lineage_checked && t.lineage_ok,
                id + "completed without a passing lineage audit");
  }
}

struct TimedCampaign {
  campaign::CampaignReport report;
  double ms = 0.0;
};

std::optional<TimedCampaign> timed_campaign(
    const campaign::CampaignConfig& cfg, Report& rep) {
  rep.attempt(cfg.universe.trials());
  try {
    const auto t0 = Clock::now();
    campaign::CampaignReport report = campaign::run_campaign(cfg);
    const double ms = ms_since(t0);
    check_campaign(report, cfg.record_lineage, rep);
    return TimedCampaign{std::move(report), ms};
  } catch (const std::exception& e) {
    rep.fail(std::string("run_campaign threw: ") + e.what());
    return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// End-to-end runs (--trace 0).

void run_sort_end_to_end(const Options& o, const SortShape& shape,
                         Report& rep) {
  const SortInputs in = make_inputs(shape, o.seed);
  const core::SortConfig cfg;

  // Set-up is the partition plan and the sorter around it (key generation
  // excluded). It is repeated before every sort, which then runs on the
  // fresh sorter, so set-up samples interleave with the sorts.
  const auto set_up = [&](util::SampleSet* setup_s) {
    const auto t0 = Clock::now();
    partition::Plan plan = partition::Plan::build(in.faults);
    core::FaultTolerantSorter sorter(std::move(plan), cfg);
    if (setup_s != nullptr) setup_s->add(ms_since(t0) / 1e3);
    return sorter;
  };

  // Warm-up: fills the allocator and caches; checked, not timed.
  const auto warm = checked_sort(set_up(nullptr), in, rep);
  if (!warm) return;
  const double makespan = warm->report.makespan;

  // Windows of at least kMinOps sorts and one second, each pinned to the
  // next CPU. Every time metric comes from the quietest window.
  struct Window {
    int cpu = -1;
    util::SampleSet setup_s;
    util::SampleSet sort_ms;
  };
  std::vector<Window> windows;
  CpuRotation rotation;
  const auto loop_begin = Clock::now();
  while (windows.empty() || ms_since(loop_begin) < o.seconds * 1e3) {
    Window& w = windows.emplace_back();
    w.cpu = rotation.next();
    const auto window_begin = Clock::now();
    while (w.sort_ms.count() < kMinOps || ms_since(window_begin) < 1e3) {
      const core::FaultTolerantSorter sorter = set_up(&w.setup_s);
      const bool corrupt = o.corrupt_first_output && windows.size() == 1 &&
                           w.sort_ms.empty();
      const auto t0 = Clock::now();
      const auto out = checked_sort(sorter, in, rep, corrupt);
      const double ms = ms_since(t0);
      if (!out) return;
      rep.check(out->report.makespan == makespan,
                "simulated makespan differs between identical sorts");
      w.sort_ms.add(ms);
    }
  }

  std::size_t quiet = 0;
  std::size_t quiet_setup = 0;
  std::cout << "sort() wall, median per window (cpu):";
  for (std::size_t i = 0; i < windows.size(); ++i) {
    std::cout << ' ' << format_number(windows[i].sort_ms.median()) << " ("
              << windows[i].cpu << ')';
    if (windows[i].sort_ms.median() < windows[quiet].sort_ms.median())
      quiet = i;
    if (windows[i].setup_s.median() < windows[quiet_setup].setup_s.median())
      quiet_setup = i;
  }
  const util::SampleSet& best = windows[quiet].sort_ms;
  std::cout << " ms\nquietest window: p50 "
            << describe_percentile(best, 50, "ms") << ", p90 "
            << describe_percentile(best, 90, "ms") << '\n';
  const double p50 = best.median();
  rep.add("setup_s", windows[quiet_setup].setup_s.median(), "s");
  rep.add("sim_makespan_us", makespan, "sim_us");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.add("keys_per_s", static_cast<double>(shape.keys) / (p50 / 1e3),
          "keys/s");
  rep.add("sort_ms_p50", p50, "ms");
  // At the median: a mean would let one disturbed sort move it.
  rep.add("trials_per_s", 1e3 / p50, "trials/s");
}

// ---------------------------------------------------------------------------
// Traced runs (--trace 1): the per-layer split, timed from outside.

/// Half-exchange kernel sequence of one partner pair (both sides), exactly
/// as sort/spmd_bitonic.cpp runs it: pairwise select, two unimodal sorts
/// and a merge per side. `a` and `b` are ascending blocks of equal size.
struct KernelReplay {
  double ms = 0.0;
  std::uint64_t comparisons = 0;
};

KernelReplay replay_half_exchanges(std::span<const Key> a,
                                   std::span<const Key> b,
                                   std::uint64_t pairs) {
  const std::size_t n = a.size();
  const std::size_t h = n / 2;
  std::vector<Key> kept_lo, ret_lo, kept_hi, ret_hi, scratch, merged;
  KernelReplay r;
  const auto t0 = Clock::now();
  for (std::uint64_t p = 0; p < pairs; ++p) {
    sort::pairwise_select_rev_into(a.subspan(h), b.first(n - h),
                                   sort::SplitHalf::Lower, kept_lo, ret_lo,
                                   r.comparisons);
    sort::pairwise_select_rev_into(a.first(h), b.last(h),
                                   sort::SplitHalf::Upper, kept_hi, ret_hi,
                                   r.comparisons);
    sort::sort_unimodal(kept_lo, scratch, r.comparisons);
    sort::sort_unimodal(ret_hi, scratch, r.comparisons);
    sort::merge_sorted_into(kept_lo, ret_hi, merged, r.comparisons);
    sort::sort_unimodal(kept_hi, scratch, r.comparisons);
    sort::sort_unimodal(ret_lo, scratch, r.comparisons);
    sort::merge_sorted_into(kept_hi, ret_lo, merged, r.comparisons);
  }
  r.ms = ms_since(t0);
  return r;
}

/// The exchange phases the merge-kernel replay is split over, with the
/// analytic term each one corresponds to.
struct ExchangePhase {
  sim::Phase phase;
  double core::CostBreakdown::*predicted;
};
constexpr ExchangePhase kExchangePhases[] = {
    {sim::Phase::SubcubeSort, &core::CostBreakdown::intra_sort},
    {sim::Phase::MergeExchange, &core::CostBreakdown::inter_exchange},
    {sim::Phase::Resort, &core::CostBreakdown::inter_resort},
};

/// One sort() configuration of the instrument ledger.
struct Variant {
  std::string name;  ///< metric stem; "off" is every instrument off
  core::SortConfig cfg;
  util::SampleSet ms;
};

std::vector<Variant> ledger_variants() {
  std::vector<Variant> v;
  const auto add = [&v](std::string name, auto&& tweak) {
    core::SortConfig cfg;
    tweak(cfg);
    v.push_back({std::move(name), cfg, {}});
  };
  add("off", [](core::SortConfig&) {});
  add("trace", [](core::SortConfig& c) { c.record_trace = true; });
  add("metrics", [](core::SortConfig& c) { c.record_metrics = true; });
  add("link_stats", [](core::SortConfig& c) { c.record_link_stats = true; });
  add("timeline", [](core::SortConfig& c) { c.record_timeline = true; });
  add("lineage", [](core::SortConfig& c) { c.record_lineage = true; });
  add("watchdog", [](core::SortConfig& c) {
    c.watchdog.enabled = true;
    c.watchdog.deadline_ms = 120'000;
  });
  add("profile_host", [](core::SortConfig& c) { c.profile_host = true; });
  add("threaded",
      [](core::SortConfig& c) { c.executor = core::Executor::Threaded; });
  return v;
}

void trace_sort_layers(const Options& o, const SortShape& shape,
                       double budget_s, Report& rep, SpanRecorder& rec) {
  const SortInputs in = make_inputs(shape, o.seed);

  // partition: Plan::build on the workload's faults.
  util::SampleSet plan_ms;
  std::optional<partition::Plan> plan;
  for (int i = 0; i < 21; ++i) {
    rec.next_op();
    const auto span = rec.span("partition.plan");
    const auto t0 = Clock::now();
    plan.emplace(partition::Plan::build(in.faults));
    plan_ms.add(ms_since(t0));
  }
  rep.add("partition.plan_ms", plan_ms.median(), "ms");
  rep.add("partition.cutting_set",
          static_cast<double>(plan->search().cutting_set.size()), "count");
  rep.add("partition.mincut", static_cast<double>(plan->m()), "count");

  // core.analytic: the paper's T, term by term.
  const core::SortConfig base;
  core::CostBreakdown predicted;
  {
    rec.next_op();
    const auto span = rec.span("core.analytic");
    predicted = core::predicted_sort_time(*plan, shape.keys, base.cost);
  }
  rep.add("core.analytic.heapsort_us", predicted.heapsort, "sim_us");
  rep.add("core.analytic.intra_sort_us", predicted.intra_sort, "sim_us");
  rep.add("core.analytic.inter_exchange_us", predicted.inter_exchange,
          "sim_us");
  rep.add("core.analytic.inter_resort_us", predicted.inter_resort, "sim_us");

  // One observed sort: per-phase counters and the critical-path split.
  core::SortConfig observed_cfg = base;
  observed_cfg.record_metrics = true;
  observed_cfg.record_trace = true;
  std::optional<core::SortOutcome> observed;
  {
    rec.next_op();
    const auto span = rec.span("core.sort_observed");
    observed = checked_sort(core::FaultTolerantSorter(*plan, observed_cfg), in,
                            rep);
  }
  if (!observed) return;
  const sim::RunReport& obs = observed->report;
  const std::size_t block = observed->block_size;
  const auto phase_of = [&obs](sim::Phase p) -> const sim::PhaseBreakdown::Slice& {
    return obs.phases.of(p);
  };
  rep.add("sim.messages", static_cast<double>(obs.messages), "count");
  rep.add("sim.keys_sent", static_cast<double>(obs.keys_sent), "count");
  rep.add("sim.key_hops", static_cast<double>(obs.key_hops), "count");
  rep.add("sim.comparisons", static_cast<double>(obs.comparisons), "count");
  const sim::Phase shown[] = {sim::Phase::LocalSort, sim::Phase::SubcubeSort,
                              sim::Phase::MergeExchange, sim::Phase::Resort};
  for (const sim::Phase p : shown)
    rep.add(std::string("sim.phase.") + sim::phase_name(p) + ".critical_us",
            phase_of(p).critical_time, "sim_us");

  // Instrument ledger, core.sort_ms and the threaded executor: interleaved
  // rounds, so drift on the host hits every configuration alike. Each round
  // also times one bare sort (no span) for the tracing overhead.
  std::vector<Variant> variants = ledger_variants();
  std::vector<core::FaultTolerantSorter> sorters;
  for (const Variant& v : variants) sorters.emplace_back(*plan, v.cfg);
  util::SampleSet bare_ms;
  util::SampleSet allocs;
  const auto ledger_begin = Clock::now();
  for (int round = 0; round < 101; ++round) {
    if (round >= 3 && ms_since(ledger_begin) > budget_s * 1e3) break;
    for (std::size_t k = 0; k < variants.size(); ++k) {
      // A configuration slower than a quarter of the budget (lineage on
      // bulk takes tens of seconds) is sampled once.
      if (round > 0 && variants[k].ms.max() > budget_s * 250.0) continue;
      rec.next_op();
      const auto span = rec.span("core.sort." + variants[k].name);
      const std::uint64_t a0 = g_alloc_count.load(std::memory_order_relaxed);
      const auto t0 = Clock::now();
      const auto out = checked_sort(sorters[k], in, rep);
      const double ms = ms_since(t0);
      if (!out) return;
      variants[k].ms.add(ms);
      if (k == 0)
        allocs.add(static_cast<double>(
            g_alloc_count.load(std::memory_order_relaxed) - a0));
    }
    const auto t0 = Clock::now();
    if (!checked_sort(sorters[0], in, rep)) return;
    bare_ms.add(ms_since(t0));
  }
  const double sort_ms = variants[0].ms.median();
  rep.add("core.sort_ms", sort_ms, "ms");
  rep.add("sim.allocs_per_sort", allocs.median(), "count");
  rep.add("bench.trace_overhead_ms", sort_ms - bare_ms.median(), "ms");
  for (std::size_t k = 1; k + 1 < variants.size(); ++k)
    rep.add("sim.instr." + variants[k].name + "_ms",
            variants[k].ms.median() - sort_ms, "ms");
  const double threaded_ms = variants.back().ms.median();
  rep.add("sim.threaded_ms", threaded_ms, "ms");
  rep.add("sim.threaded_over_seq", threaded_ms / sort_ms, "ratio");
  {
    // pool_delta of a steady-state sort (the warm-up ones above filled the
    // pools' free lists only for their own machines; every sort builds a
    // fresh Machine, so this is the per-sort payload allocation count).
    const auto out = checked_sort(sorters[0], in, rep);
    if (!out) return;
    rep.add("sim.pool_heap_allocations",
            static_cast<double>(out->report.pool_delta.heap_allocations()),
            "count");
  }

  // sort: replays of the public kernels on the workload's own blocks.
  const int reps = 5;
  util::SampleSet distribute_ms, local_ms, gather_ms;
  std::uint64_t local_cmp = 0;
  sort::Distribution dist;
  for (int r = 0; r < reps; ++r) {
    rec.next_op();
    const auto span = rec.span("sort.distribute");
    const auto t0 = Clock::now();
    dist = sort::distribute_evenly(in.keys, plan->live_count());
    distribute_ms.add(ms_since(t0));
  }
  for (int r = 0; r < reps; ++r) {
    std::vector<std::vector<Key>> blocks = dist.blocks;
    std::uint64_t cmp = 0;
    rec.next_op();
    const auto span = rec.span("sort.local_sort");
    const auto t0 = Clock::now();
    for (std::vector<Key>& b : blocks)
      sort::local_sort(base.local_sort, b, cmp);
    local_ms.add(ms_since(t0));
    local_cmp = cmp;
  }
  const std::uint64_t step3_cmp =
      phase_of(sim::Phase::LocalSort).counters.comparisons;
  rep.check(local_cmp == step3_cmp,
            "sort.local_sort_cmp " + std::to_string(local_cmp) +
                " != step3_local_sort phase comparisons " +
                std::to_string(step3_cmp));

  // Merge kernels: two sorted blocks of the workload's block size, one
  // pair replay per four half-block messages the phase sent (a half
  // exchange is four messages of ⌊b/2⌋ or ⌈b/2⌉ keys; the log2 size
  // histogram tells them from Step 8's whole-block mirror swaps).
  const std::size_t half_buckets[] = {
      sim::PhaseCounters::size_bucket(block / 2),
      sim::PhaseCounters::size_bucket(block - block / 2)};
  const auto half_messages = [&](sim::Phase p) {
    const auto& hist = phase_of(p).counters.msg_size_hist;
    std::uint64_t count = hist[half_buckets[0]];
    if (half_buckets[1] != half_buckets[0]) count += hist[half_buckets[1]];
    return count;
  };
  std::vector<Key> a(in.keys.begin(),
                     in.keys.begin() + static_cast<std::ptrdiff_t>(block));
  std::vector<Key> b(in.keys.end() - static_cast<std::ptrdiff_t>(block),
                     in.keys.end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double merge_ms = 0.0;
  std::uint64_t merge_cmp = 0;
  std::vector<double> host_ms_of_phase;
  for (const ExchangePhase& ep : kExchangePhases) {
    const std::uint64_t pairs = half_messages(ep.phase) / 4;
    util::SampleSet ms;
    KernelReplay last;
    for (int r = 0; r < 3; ++r) {
      rec.next_op();
      const auto span =
          rec.span(std::string("sort.merge_kernel.") + sim::phase_name(ep.phase));
      last = replay_half_exchanges(a, b, pairs);
      ms.add(last.ms);
    }
    host_ms_of_phase.push_back(ms.median());
    merge_ms += ms.median();
    merge_cmp += last.comparisons;
  }

  std::vector<std::vector<Key>> sorted_blocks = dist.blocks;
  for (std::vector<Key>& bl : sorted_blocks) std::sort(bl.begin(), bl.end());
  for (int r = 0; r < reps; ++r) {
    rec.next_op();
    const auto span = rec.span("sort.gather");
    const auto t0 = Clock::now();
    const std::vector<Key> out = sort::gather_and_strip(sorted_blocks);
    gather_ms.add(ms_since(t0));
    rep.check(out.size() == in.keys.size(), "gather_and_strip lost keys");
  }

  rep.add("sort.distribute_ms", distribute_ms.median(), "ms");
  rep.add("sort.local_sort_ms", local_ms.median(), "ms");
  rep.add("sort.local_sort_cmp", static_cast<double>(local_cmp), "count");
  rep.add("sort.local_sort_share", local_ms.median() / sort_ms, "ratio");
  rep.add("sort.merge_kernel_ms", merge_ms, "ms");
  rep.add("sort.merge_kernel_cmp", static_cast<double>(merge_cmp), "count");
  rep.add("sort.gather_ms", gather_ms.median(), "ms");
  rep.add("sim.plumbing_ms",
          sort_ms - (distribute_ms.median() + local_ms.median() + merge_ms +
                     gather_ms.median()),
          "ms");

  std::cout << "\nphase split (" << o.workload << ", block " << block
            << " keys): predicted = core.analytic (sim us), simulated = "
               "critical path (sim us), host = sort.* replay (ms)\n";
  char line[160];
  std::snprintf(line, sizeof line, "  %-24s %14s %14s %12s\n", "phase",
                "predicted", "simulated", "host_ms");
  std::cout << line;
  const auto row = [&line](const char* name, double pred, double sim,
                           double host) {
    std::snprintf(line, sizeof line, "  %-24s %14.0f %14.0f %12.3f\n", name,
                  pred, sim, host);
    std::cout << line;
  };
  row(sim::phase_name(sim::Phase::LocalSort), predicted.heapsort,
      phase_of(sim::Phase::LocalSort).critical_time, local_ms.median());
  for (std::size_t i = 0; i < std::size(kExchangePhases); ++i)
    row(sim::phase_name(kExchangePhases[i].phase),
        predicted.*kExchangePhases[i].predicted,
        phase_of(kExchangePhases[i].phase).critical_time,
        host_ms_of_phase[i]);
  std::cout << "  core.sort_ms " << format_number(sort_ms)
            << " = replays + sim.plumbing_ms (estimate)\n\n";
}

/// The campaign layer, measured in traced runs of `fine`; traced runs of
/// `bulk` report these names with zero values.
void trace_campaign_layers(const Options& o, bool runs_campaigns,
                           double budget_s, Report& rep, SpanRecorder& rec) {
  static const char* const kOutcomes[] = {"completed",  "recovered",
                                          "degraded",   "deadlocked",
                                          "corrupt",    "failed"};
  const std::uint32_t buckets =
      static_cast<std::uint32_t>(kCampaignShape.faults) + 1;
  if (!runs_campaigns) {
    const std::pair<const char*, const char*> names[] = {
        {"campaign.calibrate_ms", "ms"},
        {"campaign.trial_ms_p90", "ms"},
        {"campaign.trials_per_s", "trials/s"},
        {"campaign.no_lineage_trials_per_s", "trials/s"},
        {"campaign.no_link_stats_trials_per_s", "trials/s"},
        {"campaign.p_complete", "ratio"},
        {"core.recovery.timeouts", "count"},
        {"core.recovery.detect_share", "ratio"}};
    for (const auto& [name, unit] : names) rep.add(name, 0.0, unit);
    for (std::uint32_t r = 0; r < buckets; ++r)
      rep.add("campaign.trial_ms_p50.r" + std::to_string(r), 0.0, "ms");
    for (const char* name : kOutcomes)
      rep.add(std::string("campaign.outcome.") + name, 0.0, "count");
    return;
  }

  const campaign::CampaignConfig cfg = campaign_config(o.seed);
  const std::uint32_t trials = cfg.universe.trials();

  util::SampleSet calibrate_ms;
  sim::SimTime envelope = 0.0;
  for (int i = 0; i < 5; ++i) {
    rec.next_op();
    const auto span = rec.span("campaign.calibrate_envelope");
    const auto t0 = Clock::now();
    envelope = campaign::calibrate_envelope(cfg);
    calibrate_ms.add(ms_since(t0));
  }
  rep.add("campaign.calibrate_ms", calibrate_ms.median(), "ms");

  // run_trial per index, whole passes until the overall p90 is readable.
  std::vector<util::SampleSet> bucket_ms(buckets);
  util::SampleSet all_ms;
  const auto pass_begin = Clock::now();
  while (all_ms.count() < 100 || ms_since(pass_begin) < budget_s * 0.4e3) {
    for (std::uint32_t i = 0; i < trials; ++i) {
      rep.attempt();
      rec.next_op();
      const auto span = rec.span("campaign.run_trial");
      const auto t0 = Clock::now();
      const campaign::TrialResult t =
          campaign::run_trial(cfg, envelope, i, core::Executor::Sequential);
      const double ms = ms_since(t0);
      rep.check(t.outcome != core::RunOutcome::Corrupt &&
                    t.outcome != core::RunOutcome::Failed,
                "trial " + std::to_string(i) + " corrupt or failed");
      bucket_ms[t.r].add(ms);
      all_ms.add(ms);
    }
  }
  for (std::uint32_t r = 0; r < buckets; ++r)
    rep.add("campaign.trial_ms_p50.r" + std::to_string(r),
            bucket_ms[r].median(), "ms");
  rep.add("campaign.trial_ms_p90", all_ms.percentile(90), "ms");
  std::cout << "trial wall p90 " << describe_percentile(all_ms, 90, "ms")
            << '\n';

  // run_campaign with the default instruments, without lineage and without
  // link stats.
  campaign::CampaignConfig no_lineage = cfg;
  no_lineage.record_lineage = false;
  campaign::CampaignConfig no_links = cfg;
  no_links.record_link_stats = false;
  const auto trials_per_s = [&](const campaign::CampaignConfig& c)
      -> std::optional<TimedCampaign> {
    rec.next_op();
    const auto span = rec.span("campaign.run_campaign");
    return timed_campaign(c, rep);
  };
  const auto with_all = trials_per_s(cfg);
  const auto without_lineage = trials_per_s(no_lineage);
  const auto without_links = trials_per_s(no_links);
  if (!with_all || !without_lineage || !without_links) return;
  const auto rate = [trials](const TimedCampaign& run) {
    return static_cast<double>(trials) / (run.ms / 1e3);
  };
  rep.add("campaign.trials_per_s", rate(*with_all), "trials/s");
  rep.add("campaign.no_lineage_trials_per_s", rate(*without_lineage),
          "trials/s");
  rep.add("campaign.no_link_stats_trials_per_s", rate(*without_links),
          "trials/s");

  const campaign::CampaignReport& report = with_all->report;
  for (std::size_t k = 0; k < std::size(kOutcomes); ++k)
    rep.add(std::string("campaign.outcome.") + kOutcomes[k],
            static_cast<double>(report.outcomes[k]), "count");
  rep.add("campaign.p_complete",
          report.buckets.back().completion_probability, "ratio");
  double timeouts = 0.0, detect = 0.0, makespan = 0.0;
  for (const campaign::TrialResult& t : report.trials) {
    timeouts += static_cast<double>(t.timeouts);
    detect += t.detect;
    makespan += t.makespan;
  }
  rep.add("core.recovery.timeouts", timeouts, "count");
  rep.add("core.recovery.detect_share",
          makespan > 0.0 ? detect / makespan : 0.0, "ratio");

  // Two run_campaign calls with one seed serialize byte for byte alike; a
  // few scenarios suffice.
  campaign::CampaignConfig small = cfg;
  small.universe.scenarios = 4;
  const auto small_a = timed_campaign(small, rep);
  const auto small_b = timed_campaign(small, rep);
  if (small_a && small_b)
    rep.check(campaign_json(small_a->report) == campaign_json(small_b->report),
              "two run_campaign calls with one seed differ");
}

/// The shape rules: each workload must keep the character it was chosen
/// for (README.md, "Shape checks"). Printed, not counted as failures: they
/// compare wall times, which a noisy host can push across a threshold, and
/// the benchmark's own tests assert them on a second seed.
void print_shape(const Options& o, const Report& rep) {
  const auto line = [&o](const std::string& rule, bool ok) {
    std::cout << "shape check (" << o.workload << "): " << rule << ": "
              << (ok ? "ok" : "VIOLATED") << '\n';
  };
  const double share = rep.value("sort.local_sort_share");
  if (o.workload == "bulk") {
    line("Step 3 replay share " + format_number(share) + " >= 0.30",
         share >= 0.30);
    return;
  }
  line("Step 3 replay share " + format_number(share) + " <= 0.05",
       share <= 0.05);
  const double ratio = rep.value("campaign.no_lineage_trials_per_s") /
                       rep.value("campaign.trials_per_s");
  line("campaign lineage-off speed-up " + format_number(ratio) + " >= 2",
       ratio >= 2.0);
}

int run(const Options& o) {
  print_env(o, "start");
  Report rep;
  SpanRecorder rec(o.trace);
  const bool fine = o.workload == "fine";
  const SortShape& shape = fine ? kFine : kBulk;
  if (!o.trace) {
    run_sort_end_to_end(o, shape, rep);
  } else {
    {
      rec.next_op();
      const auto root = rec.span("bench." + o.workload);
      trace_sort_layers(o, shape, o.seconds * (fine ? 0.4 : 0.8), rep, rec);
      trace_campaign_layers(o, fine, o.seconds, rep, rec);
    }
    for (const char* module : {"partition", "sort", "core", "campaign"})
      rep.add(std::string(module) + ".self_ms", rec.self_ms(module), "ms");
    if (rep.has("sort.local_sort_share") &&
        (!fine || rep.has("campaign.trials_per_s")))
      print_shape(o, rep);
    if (!o.spans_out.empty()) {
      std::ofstream out(o.spans_out);
      rec.write_json(out);
      if (!out) rep.fail("could not write spans to " + o.spans_out);
    }
  }
  print_env(o, "end");

  std::cout << "\nmetrics (" << o.workload << ", seed " << o.seed
            << (o.trace ? ", traced" : "") << "):\n";
  rep.print_table(std::cout);
  const double error_ratio =
      rep.attempted() == 0
          ? 1.0
          : static_cast<double>(rep.failed()) /
                static_cast<double>(rep.attempted());
  std::cout << "  error_ratio = " << format_number(error_ratio) << " ratio ("
            << rep.failed() << " failed of " << rep.attempted()
            << " attempted)\n";
  for (const std::string& f : rep.failures()) std::cout << "  FAILED: " << f << '\n';
  std::cout << rep.json_line() << std::endl;
  return rep.failed() == 0 && rep.attempted() > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::cerr << "ftbench: refusing to measure an unoptimized build (build "
               "type '"
            << PERFBENCH_BUILD_TYPE << "'); configure RelWithDebInfo or Release\n";
  return 2;
#else
  const perfbench::Options o = perfbench::parse(argc, argv);
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::cerr << "ftbench: " << e.what() << '\n';
    return 2;
  }
#endif
}
