// Online recovery: sorting through processor deaths that happen mid-run.
//
// The paper assumes fault locations are known before the sort starts
// (off-line diagnosis, §1). This engine drops that assumption: a
// FaultInjector (sim/fault_injector.hpp) may kill processors while the sort
// is in flight, and the survivors renegotiate — detect the loss, grow the
// fault set, re-run the §2.2 partition search and §3 heuristic on it,
// salvage the dead processors' keys, and restart. The run commits when an
// attempt finishes with no new deaths; it raises DegradationError when the
// post-injection fault configuration no longer admits the single-fault
// subcube structure (or keys are provably lost), never hanging and never
// returning corrupt output.
//
// Protocol per attempt (full detail in DESIGN.md):
//   sort      every live node walks its core::node_schedule list — the
//             offline sorter's Steps 3-8, with the FullSort Step 8 — by
//             full-block swaps, one wire tag per list position, bounding
//             each partner wait by `detect_patience`; a timeout aborts the
//             attempt, keeping the pre-step block (sends are copies, so an
//             abort never needs rollback). Completed exchanges record a
//             *witness*: the partner's post-step block, recomputed locally
//             from the swapped data — which the half exchange never sends,
//             hence the whole-block swaps.
//   check-in  everyone reports FINISHED / ABORTED / IDLE to the
//             coordinator (lowest statically-healthy address); a processor
//             that misses roll call within `collect_patience` is dead —
//             timeouts during the sort are only hints, since a live node
//             blocked on a dead one times out too.
//   verdict   no deaths and no aborts: COMMIT. Deaths: the coordinator
//             grows the fault set, re-plans, and broadcasts RESTART with
//             the casualty list (or DEGRADE when re-planning fails).
//   salvage   survivors send their blocks plus witnesses for the dead;
//             the coordinator reconstructs each dead node's keys from the
//             freshest witness (falling back on the scatter record), checks
//             the pool against the input count and checksum, redistributes
//             over the new plan's live processors, and re-scatters.
#pragma once

#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "partition/plan.hpp"
#include "sim/cost_model.hpp"
#include "sim/diagnosis.hpp"
#include "sort/merge_split.hpp"

namespace ftsort::core {

struct SortConfig;
struct SortOutcome;

/// Logical-time patience tiers of the recovery protocol. Soundness needs
/// them well separated: a check-in may trail the coordinator's collection
/// start by the attempt's full clock divergence plus one detection timeout,
/// so collect_patience must dominate makespan + detect_patience; verdict
/// waits must in turn survive a whole collection round of timeouts,
/// verdict_patience > max_deaths * collect_patience. The defaults leave
/// three orders of magnitude between tiers — far beyond any makespan the
/// benchmarks produce.
struct RecoveryConfig {
  sim::SimTime detect_patience = 1e6;    ///< partner wait during the sort
  sim::SimTime collect_patience = 1e9;   ///< coordinator roll-call wait
  sim::SimTime verdict_patience = 1e12;  ///< wait on coordinator messages
  int max_attempts = 8;                  ///< restart cap before degrading
};

/// Raised when online recovery cannot complete the sort: the grown fault
/// set admits no single-fault partition, keys were irrecoverably lost to
/// concurrent deaths, the coordinator itself died, or the restart budget
/// ran out. The message always begins with "graceful degradation:".
///
/// When the engine still holds the machine at throw time it attaches the
/// structured failure explainer, so consumers that aggregate failures (the
/// campaign engine's root-cause histogram) get the same `Diagnosis` the
/// message renders — without parsing strings. `diagnosis().triggered()` is
/// false for degradations raised before any run evidence existed.
class DegradationError : public std::runtime_error {
 public:
  explicit DegradationError(const std::string& what)
      : std::runtime_error(what) {}
  DegradationError(const std::string& what, sim::Diagnosis diagnosis)
      : std::runtime_error(what), diagnosis_(std::move(diagnosis)) {}

  const sim::Diagnosis& diagnosis() const { return diagnosis_; }

 private:
  sim::Diagnosis diagnosis_;
};

/// The recovery-mode sort. `plan` is the diagnosis-time plan (attempt 0);
/// faults injected by `config.injector` are handled online as described
/// above. Requires config.charge_host_io == false.
SortOutcome recovery_sort(const partition::Plan& plan,
                          const SortConfig& config,
                          std::span<const sort::Key> keys);

}  // namespace ftsort::core
