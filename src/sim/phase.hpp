// Phase taxonomy for observability: every message, comparison, and charged
// microsecond of a run can be attributed to one phase of the paper's
// algorithm (Steps 1-8 of §3) or of the online-recovery protocol. The
// ambient phase of a node is set by RAII `PhaseSpan`s (sim/machine.hpp)
// opened by the algorithm layer; library kernels (spmd_bitonic) tag
// themselves only when the caller left the phase unattributed, so the
// algorithm's step-level tags always win.
#pragma once

#include <cstdint>
#include <string_view>

namespace ftsort::sim {

enum class Phase : std::uint8_t {
  Unattributed = 0,  ///< outside any span
  Scatter,           ///< Step 2: host scatter over the entry node
  LocalSort,         ///< Step 3a: per-node heapsort
  SubcubeSort,       ///< Step 3b: single-fault bitonic sort of a subcube
  MergeExchange,     ///< Steps 4-7: inter-subcube merge-split exchanges
  Resort,            ///< Step 8: intra-subcube re-sort after each exchange
  Gather,            ///< final gather back through the entry node
  Collective,        ///< a node program's own collective; no library kernel
                     ///< tags it, but metrics JSON keeps one slice per phase
  RecoverySort,      ///< recovery: the resilient sort attempt itself
  RecoveryCheckin,   ///< recovery: roll-call check-in
  RecoveryVerdict,   ///< recovery: verdict distribution / wait
  RecoverySalvage,   ///< recovery: witness collection and key salvage
  RecoveryRescatter, ///< recovery: re-partition and block re-scatter
};

inline constexpr std::size_t kPhaseCount = 13;

/// Stable machine-readable name (used by the JSON exporters and as the
/// Perfetto slice name). Maps spans back to the paper's step numbers.
constexpr const char* phase_name(Phase p) {
  switch (p) {
    case Phase::Unattributed: return "unattributed";
    case Phase::Scatter: return "step2_scatter";
    case Phase::LocalSort: return "step3_local_sort";
    case Phase::SubcubeSort: return "step3_subcube_bitonic";
    case Phase::MergeExchange: return "step5_merge_exchange";
    case Phase::Resort: return "step8_resort";
    case Phase::Gather: return "gather";
    case Phase::Collective: return "collective";
    case Phase::RecoverySort: return "recovery_sort";
    case Phase::RecoveryCheckin: return "recovery_checkin";
    case Phase::RecoveryVerdict: return "recovery_verdict";
    case Phase::RecoverySalvage: return "recovery_salvage";
    case Phase::RecoveryRescatter: return "recovery_rescatter";
  }
  return "?";
}

/// Inverse of phase_name(), for parsers (ftdiag, trace re-import).
/// Unknown names map to Phase::Unattributed.
constexpr Phase phase_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const Phase p = static_cast<Phase>(i);
    if (name == phase_name(p)) return p;
  }
  return Phase::Unattributed;
}

}  // namespace ftsort::sim
