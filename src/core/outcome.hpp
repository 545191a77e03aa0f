// Run-outcome classification: collapse the evidence one sort run leaves
// behind (RunReport counters, the structured Diagnosis, and whether the
// output verified) into a single categorical outcome.
//
// This is the reduction the Monte Carlo campaign engine (src/campaign/)
// aggregates over thousands of trials, but it is a property of a single
// run, so it lives in core next to the sorter that produces the report.
// The mapping is total and deterministic: every trial of a campaign lands
// in exactly one class, which is what makes trial-count conservation an
// exact invariant rather than a statistical one.
#pragma once

#include <cstdint>

#include "sim/cost_model.hpp"
#include "sim/machine.hpp"

namespace ftsort::core {

/// What one sort run amounted to, in decreasing order of happiness.
enum class RunOutcome : std::uint8_t {
  /// Sorted output, no timeouts, no deaths: the fault schedule never bit
  /// (empty, too late, or aimed at nodes the plan left idle).
  CompletedClean,
  /// Sorted output after the recovery protocol absorbed at least one
  /// timeout or death mid-run.
  CompletedRecovered,
  /// DegradationError: recovery gave up gracefully (no result, no hang).
  Degraded,
  /// DeadlockError: every live node blocked forever. Unreachable under
  /// online recovery (bounded waits); counted so a protocol bug that
  /// reintroduces it is visible in campaign aggregates, never silent.
  Deadlocked,
  /// The run "completed" but the output failed verification (not sorted,
  /// or not a permutation of the input). Must never happen; a campaign
  /// with a nonzero corrupt count is itself a failed campaign.
  Corrupt,
  /// The trial harness caught an unexpected exception (setup failure,
  /// bad_alloc, ...). Distinct from Degraded: this is the harness
  /// failing, not the protocol declining.
  Failed,
};

inline constexpr std::size_t kRunOutcomeCount = 6;

/// Stable machine-readable name: the key the campaign JSON exporter
/// writes and `ftdiag campaign` / the bench_campaign gate read back.
const char* run_outcome_name(RunOutcome o);

/// True for the two classes that produced a verified sorted result.
constexpr bool outcome_completed(RunOutcome o) {
  return o == RunOutcome::CompletedClean || o == RunOutcome::CompletedRecovered;
}

/// Classify a run that returned a report (i.e. did not throw).
/// `output_ok` is the caller's verification verdict on the sorted keys.
RunOutcome classify_completed(const sim::RunReport& report, bool output_ok);

/// The detection watermark (sim::detect_time): fault-detection share of a
/// report's makespan.
using sim::detect_time;

}  // namespace ftsort::core
