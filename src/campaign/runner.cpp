#include "campaign/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/link_stats.hpp"
#include "sort/distribution.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace ftsort::campaign {

namespace {

std::vector<sort::Key> trial_keys(std::uint64_t keys_seed,
                                  std::size_t count) {
  util::Rng rng(keys_seed);
  return sort::gen_uniform(count, rng);
}

core::SortConfig trial_config(const CampaignConfig& cfg,
                              core::Executor executor,
                              const core::RecoveryConfig& recovery) {
  core::SortConfig sc;
  sc.online_recovery = true;
  sc.executor = executor;
  sc.recovery = recovery;
  // Degraded-trial diagnoses are reconstructed from flight-recorder
  // evidence after the nodes are torn down, so the trace must be on;
  // the bounded ring keeps campaign memory flat.
  sc.record_trace = true;
  sc.trace_capacity = cfg.trace_capacity;
  sc.record_link_stats = cfg.record_link_stats;
  sc.record_lineage = cfg.record_lineage;
  // Each trial's Machine monitors itself; the dump file stays a
  // pool-level concern (per-trial dumps from N workers would race over
  // one path, and the trial's verdict lands in the report anyway).
  sc.watchdog = cfg.watchdog;
  sc.watchdog.dump_path.clear();
  return sc;
}

std::uint32_t scheduled_kills(const TrialSpec& spec) {
  return static_cast<std::uint32_t>(
      std::count_if(spec.events.begin(), spec.events.end(),
                    [](const FaultEvent& ev) {
                      return ev.kind == FaultEvent::Kind::NodeKill;
                    }));
}

}  // namespace

core::RecoveryConfig calibrated_recovery(const CampaignConfig& cfg,
                                         sim::SimTime envelope) {
  core::RecoveryConfig tuned;
  // Soundness separations (recovery.hpp): collect dominates
  // makespan + detect (envelope >= makespan, so 8x clears it), verdict
  // dominates max_deaths x collect (max_deaths <= r_max here).
  tuned.detect_patience = envelope;
  tuned.collect_patience = 8.0 * envelope;
  tuned.verdict_patience =
      64.0 * static_cast<double>(cfg.universe.r_max + 1) * envelope;
  return tuned;
}

sim::SimTime calibrate_envelope(const CampaignConfig& cfg) {
  // Always sequential and fault-free: one calibration per campaign,
  // deterministic in the campaign seed alone. Patience tiers are
  // irrelevant here (no faults), so the library defaults are fine.
  const auto keys =
      trial_keys(scenario_seed(cfg.seed, 0, 0) ^ 0xca11b8a7ed000000ull,
                 cfg.universe.num_keys);
  core::FaultTolerantSorter sorter(
      cfg.universe.n, fault::FaultSet(cfg.universe.n),
      trial_config(cfg, core::Executor::Sequential, core::RecoveryConfig{}));
  const sim::SimTime makespan = sorter.sort(keys).report.makespan;
  FTSORT_ENSURE(makespan > 0.0);
  return makespan * cfg.universe.envelope_scale;
}

TrialResult run_trial(const CampaignConfig& cfg, sim::SimTime envelope,
                      std::uint32_t index, core::Executor executor) {
  const TrialSpec spec = sample_trial(cfg.universe, cfg.seed, index, envelope);
  TrialResult res;
  res.index = spec.index;
  res.scenario = spec.scenario;
  res.r = spec.r;

  const auto keys = trial_keys(spec.keys_seed, cfg.universe.num_keys);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());

  core::SortConfig sc =
      trial_config(cfg, executor, calibrated_recovery(cfg, envelope));
  sc.injector = spec.injector();

  try {
    const core::FaultTolerantSorter sorter(
        cfg.universe.n, fault::FaultSet(cfg.universe.n), sc);
    const core::SortOutcome out = sorter.sort(keys);
    const sim::RunReport& rep = out.report;
    // A trial only counts as completing when the value-level comparison
    // AND the custody audit agree — lineage can flag a loss+duplication
    // pair that happens to re-sort to the expected multiset of values
    // but shuffled provenance (it cannot here, values are compared too;
    // the audit is the independent witness that names the ids).
    res.lineage_checked = rep.lineage.enabled && rep.lineage.audit.checked;
    res.lineage_ok = rep.lineage.audit.ok;
    res.lineage_lost = rep.lineage.audit.lost.size();
    res.lineage_duplicated = rep.lineage.audit.duplicated.size();
    const bool sorted_ok = out.sorted == expected &&
                           (!res.lineage_checked || res.lineage_ok);
    res.outcome = core::classify_completed(rep, sorted_ok);
    res.diagnosis = rep.diagnosis;
    res.makespan = rep.makespan;
    res.detect = core::detect_time(rep);
    res.comparisons = rep.comparisons;
    res.messages = rep.messages;
    res.key_hops = rep.key_hops;
    res.timeouts = rep.timeouts;
    res.deaths = static_cast<std::uint32_t>(rep.killed_nodes.size());
    if (cfg.record_link_stats)
      res.hotspot_share = sim::hottest_dimension_share(rep.links);
    for (const sim::RecoveryEpisode& ep : rep.recovery_latency.episodes) {
      res.detect_latency += ep.detection();
      res.rollcall_latency += ep.roll_call();
      res.salvage_latency += ep.salvage();
      res.restart_latency += ep.restart();
    }
    res.watchdog_near_misses = rep.watchdog.near_misses;
  } catch (const core::DegradationError& e) {
    res.outcome = core::RunOutcome::Degraded;
    res.diagnosis = e.diagnosis();
    res.deaths = scheduled_kills(spec);
  } catch (const sim::WatchdogError& e) {
    // A host-level stall the trial's own watchdog aborted: classify with
    // the deadlocks (the sim-time analogue of "nothing can progress") and
    // keep the trip count as the distinguishing evidence.
    res.outcome = core::RunOutcome::Deadlocked;
    res.deaths = scheduled_kills(spec);
    res.watchdog_trips = e.report().trips;
    res.watchdog_near_misses = e.report().near_misses;
  } catch (const sim::DeadlockError&) {
    res.outcome = core::RunOutcome::Deadlocked;
    res.deaths = scheduled_kills(spec);
  } catch (const std::exception&) {
    res.outcome = core::RunOutcome::Failed;
    res.deaths = scheduled_kills(spec);
  }
  return res;
}

CampaignReport run_campaign(const CampaignConfig& cfg) {
  FTSORT_REQUIRE(cfg.workers >= 1);
  const sim::SimTime envelope = calibrate_envelope(cfg);
  const std::uint32_t trials = cfg.universe.trials();
  const std::uint32_t buckets = cfg.universe.buckets();

  // Pre-sized slot array + shared index counter: workers race only for
  // *which* trial to run next, never over where a result lands, so any
  // worker count produces the identical vector to reduce in index order.
  std::vector<TrialResult> results(trials);
  std::atomic<std::uint32_t> next{0};
  // Wall-clock telemetry: a done flag per slot (which results are safe to
  // aggregate after a cancel), completion counters for the progress line,
  // and an abort flag the pool-level watchdog sets on trip.
  std::vector<std::atomic<bool>> done(trials);
  std::vector<std::atomic<std::uint32_t>> bucket_done(buckets);
  std::atomic<std::uint32_t> done_total{0};
  std::atomic<bool> abort_pool{false};

  // Pool-level watchdog: one heartbeat slot per worker, beat per finished
  // trial (activity = the trial index). Catches a wedged worker even when
  // the trial-level watchdog is itself the wedged part.
  std::unique_ptr<sim::Watchdog> wd;
  std::vector<std::size_t> worker_slot(std::max(1u, cfg.workers), 0);
  if (cfg.watchdog.enabled) {
    wd = std::make_unique<sim::Watchdog>(cfg.watchdog);
    for (unsigned w = 0; w < std::max(1u, cfg.workers); ++w)
      worker_slot[w] = wd->add_slot("worker " + std::to_string(w));
    wd->on_trip([&abort_pool] { abort_pool.store(true); });
    wd->start();
  }

  const auto cancelled = [&cfg, &abort_pool] {
    return abort_pool.load(std::memory_order_relaxed) ||
           (cfg.cancel != nullptr &&
            cfg.cancel->load(std::memory_order_relaxed));
  };
  const auto worker = [&](unsigned w) {
    for (;;) {
      if (cancelled()) return;
      const std::uint32_t idx = next.fetch_add(1, std::memory_order_relaxed);
      if (idx >= trials) return;
      results[idx] = run_trial(cfg, envelope, idx, cfg.executor);
      done[idx].store(true, std::memory_order_release);
      bucket_done[results[idx].r].fetch_add(1, std::memory_order_relaxed);
      done_total.fetch_add(1, std::memory_order_acq_rel);
      if (wd != nullptr) wd->beat(worker_slot[w], idx);
    }
  };

  // Progress monitor: samples the counters at a human cadence and hands
  // the snapshot to the caller (the campaign_demo stderr line).
  std::atomic<bool> sweep_done{false};
  std::thread progress;
  if (cfg.on_progress) {
    progress = std::thread([&] {
      const auto t0 = std::chrono::steady_clock::now();
      auto last_change = t0;
      std::uint32_t last_done = 0;
      const auto sample = [&] {
        const auto now = std::chrono::steady_clock::now();
        const std::uint32_t d = done_total.load(std::memory_order_acquire);
        if (d != last_done) {
          last_done = d;
          last_change = now;
        }
        CampaignProgress p;
        p.done = d;
        p.total = trials;
        p.elapsed_s =
            std::chrono::duration<double>(now - t0).count();
        p.trials_per_sec = p.elapsed_s > 0.0 ? d / p.elapsed_s : 0.0;
        p.eta_s = p.trials_per_sec > 0.0 ? (trials - d) / p.trials_per_sec
                                         : 0.0;
        p.heartbeat_age_ms = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - last_change)
                .count());
        p.bucket_total = cfg.universe.scenarios;
        p.bucket_done.resize(buckets);
        for (std::uint32_t r = 0; r < buckets; ++r)
          p.bucket_done[r] = bucket_done[r].load(std::memory_order_relaxed);
        cfg.on_progress(p);
      };
      while (!sweep_done.load(std::memory_order_acquire)) {
        sample();
        std::this_thread::sleep_for(
            std::chrono::milliseconds(cfg.progress_interval_ms));
      }
      sample();  // final snapshot: done == total on a full sweep
    });
  }

  if (cfg.workers <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(cfg.workers);
    for (unsigned w = 0; w < cfg.workers; ++w)
      pool.emplace_back([&worker, w] { worker(w); });
    for (std::thread& t : pool) t.join();
  }
  sweep_done.store(true, std::memory_order_release);
  if (progress.joinable()) progress.join();

  sim::WatchdogReport wd_report;
  if (wd != nullptr) {
    wd->stop();
    wd_report = wd->report();
    sim::WatchdogDumpContext ctx;
    ctx.origin = "campaign";
    if (wd->tripped()) {
      const std::string dump_note =
          sim::dump_on_trip(cfg.watchdog.dump_path, wd_report, ctx);
      throw sim::WatchdogError(
          "campaign watchdog tripped: no trial completed for " +
              std::to_string(wd_report.stall_ms) + " ms (deadline " +
              std::to_string(wd_report.effective_deadline_ms) + " ms), " +
              std::to_string(done_total.load()) + "/" +
              std::to_string(trials) + " trials done" + dump_note,
          wd_report);
    }
    // Cancelled with a dump path configured: flush the heartbeat table
    // alongside the partial results (the SIGINT black box).
    if (cancelled() && !cfg.watchdog.dump_path.empty())
      sim::write_watchdog_dump(cfg.watchdog.dump_path, wd_report, ctx);
  }

  // A cancelled sweep aggregates only the completed prefix of slots; the
  // done flags (not the index counter) are the truth about which rows
  // hold a real TrialResult.
  const bool was_cancelled = cancelled();
  if (was_cancelled) {
    std::vector<TrialResult> completed;
    completed.reserve(done_total.load());
    for (std::uint32_t i = 0; i < trials; ++i)
      if (done[i].load(std::memory_order_acquire))
        completed.push_back(results[i]);
    results = std::move(completed);
  }

  CampaignMeta meta;
  meta.n = cfg.universe.n;
  meta.r_max = cfg.universe.r_max;
  meta.scenarios = cfg.universe.scenarios;
  meta.seed = cfg.seed;
  meta.num_keys = cfg.universe.num_keys;
  meta.link_cut_probability = cfg.universe.link_cut_probability;
  meta.executor =
      cfg.executor == core::Executor::Sequential ? "sequential" : "threaded";
  meta.envelope = envelope;
  CampaignReport report =
      aggregate_campaign(std::move(meta), std::move(results));
  report.partial = was_cancelled && report.trials.size() < trials;
  return report;
}

}  // namespace ftsort::campaign
