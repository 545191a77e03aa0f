// Campaign driver: run every trial of a fault universe on its own
// `Machine` across a worker pool, producing one `TrialResult` per trial.
//
// Determinism contract (the campaign's headline test target):
//   * Every trial is replayable from (campaign seed, trial index) alone —
//     `run_trial` is a pure function of the config plus those two values,
//     and reproduces the trial's outcome, counters, and full structured
//     Diagnosis on either executor.
//   * The worker count is a throughput knob, never a semantics knob:
//     workers pull trial indices from a shared counter and write results
//     into a pre-sized slot array, and aggregation reads that array in
//     index order after the pool joins. The resulting CampaignReport —
//     and its serialized JSON — is byte-identical for 1 worker and N.
//
// Trial isolation: each trial builds a fresh FaultTolerantSorter (its own
// Machine, pools, trace ring, metrics and link registries), so trials
// share no mutable state and the pool needs no locks beyond the index
// counter. A trial never throws out of the pool: every protocol-level
// failure is classified (core/outcome.hpp) and unexpected exceptions
// land in RunOutcome::Failed rather than tearing the campaign down.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "campaign/report.hpp"
#include "campaign/universe.hpp"
#include "core/ft_sorter.hpp"
#include "core/outcome.hpp"
#include "sim/watchdog.hpp"

namespace ftsort::campaign {

/// One sample of the campaign's live progress, handed to
/// CampaignConfig::on_progress from a monitor thread at a human cadence.
/// Pure wall-clock telemetry: nothing here feeds the report.
struct CampaignProgress {
  std::uint32_t done = 0;          ///< trials completed so far
  std::uint32_t total = 0;         ///< universe trial count
  double elapsed_s = 0.0;          ///< wall seconds since the sweep began
  double trials_per_sec = 0.0;     ///< done / elapsed
  double eta_s = 0.0;              ///< remaining / rate (0 until a rate exists)
  std::uint64_t heartbeat_age_ms = 0;  ///< wall ms since `done` last advanced
  std::vector<std::uint32_t> bucket_done;  ///< completed trials per r
  std::uint32_t bucket_total = 0;  ///< trials per bucket (= scenarios)
};

/// Everything a campaign needs beyond the universe shape.
struct CampaignConfig {
  UniverseConfig universe;
  std::uint64_t seed = 1;  ///< campaign seed; trials derive from (seed, index)
  /// Executor every trial runs under. The logical results are
  /// executor-independent (the equivalence suite pins this), so this is
  /// a wall-clock/coverage knob, not a semantics one.
  core::Executor executor = core::Executor::Sequential;
  /// Worker pool width; results are byte-identical for any value >= 1.
  unsigned workers = 1;
  /// Per-node flight-recorder ring of each trial (events). Bounded so a
  /// thousand-trial campaign's memory stays flat; big enough that the
  /// diagnosis of a single-fault trial never sees an eviction.
  std::size_t trace_capacity = 4096;
  /// Record each trial's per-link traffic matrix and reduce it to the
  /// hotspot-share scalar (sim/link_stats.hpp) before discarding it.
  bool record_link_stats = true;
  /// Run every trial with key-lineage provenance (sim/lineage.hpp) and
  /// keep the audit verdict: a completing trial is only classified clean
  /// when the exact no-loss/no-dup audit passes too, and a Corrupt trial
  /// carries the lost/duplicated counts instead of a bare value mismatch.
  bool record_lineage = true;
  /// Wall-clock watchdog (sim/watchdog.hpp). When enabled it is armed
  /// twice: once per trial (each trial's Machine monitors its own
  /// executor; a tripped trial lands in RunOutcome::Deadlocked with its
  /// trip count in TrialResult::watchdog_trips) and once over the worker
  /// pool itself (one heartbeat slot per worker, beat per finished trial).
  /// A pool-level abort trip stops the sweep, writes the black-box dump
  /// to `watchdog.dump_path`, and throws WatchdogError. Heartbeats are
  /// wall-clock-only, so the report bytes are identical with it on.
  sim::WatchdogConfig watchdog;
  /// Cooperative cancellation (the SIGINT/SIGTERM flush): when non-null
  /// and set, workers stop pulling new trials; run_campaign aggregates
  /// the completed prefix and marks the report partial.
  const std::atomic<bool>* cancel = nullptr;
  /// Live progress callback, invoked from a monitor thread every
  /// `progress_interval_ms` while the sweep runs (and once at the end).
  /// Callers own thread safety of whatever the callback touches.
  std::function<void(const CampaignProgress&)> on_progress;
  std::uint32_t progress_interval_ms = 250;
};

/// The patience tiers every trial runs with, derived from the envelope
/// (detect = envelope, collect = 8×, verdict = 64 × (r_max + 1) ×): they
/// keep the soundness separations recovery.hpp documents while staying on
/// the sort's own time scale. The library defaults leave orders of
/// magnitude between tiers, so a recovered trial would spend ~1e6 logical
/// units detecting a fault inside a ~1e3-unit sort and the slowdown curve
/// would measure nothing but patience. Deterministic in (cfg, envelope),
/// so replay sees identical tiers.
core::RecoveryConfig calibrated_recovery(const CampaignConfig& cfg,
                                         sim::SimTime envelope);

/// Fault-free calibration makespan × envelope headroom: the injection
/// window every trial of this campaign samples its fault times from.
/// One sequential fault-free run of the recovery engine on the
/// campaign's key count; deterministic in the campaign seed.
sim::SimTime calibrate_envelope(const CampaignConfig& cfg);

/// Run one trial, replayable in isolation. `executor` overrides the
/// config's executor (the replay tests drive both from one campaign).
TrialResult run_trial(const CampaignConfig& cfg, sim::SimTime envelope,
                      std::uint32_t index, core::Executor executor);

/// The full campaign: calibrate, sweep every trial over the worker pool,
/// aggregate. The returned report (and its JSON) depends only on
/// (cfg.universe, cfg.seed, cfg.executor, trial knobs) — never on
/// cfg.workers, the watchdog, cancel, or the progress callback (a
/// cancelled sweep is the one exception: it aggregates the completed
/// prefix and sets CampaignReport::partial). Throws sim::WatchdogError
/// when the pool-level watchdog trips under the abort policy.
CampaignReport run_campaign(const CampaignConfig& cfg);

}  // namespace ftsort::campaign
