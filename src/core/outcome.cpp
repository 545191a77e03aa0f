#include "core/outcome.hpp"

namespace ftsort::core {

const char* run_outcome_name(RunOutcome o) {
  switch (o) {
    case RunOutcome::CompletedClean: return "completed";
    case RunOutcome::CompletedRecovered: return "recovered";
    case RunOutcome::Degraded: return "degraded";
    case RunOutcome::Deadlocked: return "deadlocked";
    case RunOutcome::Corrupt: return "corrupt";
    case RunOutcome::Failed: return "failed";
  }
  return "?";
}

RunOutcome classify_completed(const sim::RunReport& report, bool output_ok) {
  if (!output_ok) return RunOutcome::Corrupt;
  // A run the protocol had to rescue shows it in the report: either a
  // processor died (killed_nodes) or a bounded wait expired (timeouts) —
  // a link cut never kills a node but always surfaces as timeouts.
  if (report.killed_nodes.empty() && report.timeouts == 0)
    return RunOutcome::CompletedClean;
  return RunOutcome::CompletedRecovered;
}

}  // namespace ftsort::core
