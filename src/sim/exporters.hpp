// Trace and metrics exporters.
//
// `write_chrome_trace` renders a run's TraceEvent stream in the Chrome
// trace_events JSON format (the "JSON Array Format" with a traceEvents
// wrapper), loadable in Perfetto (ui.perfetto.dev) or chrome://tracing:
// one named track per node, phase spans as nested B/E slices, message
// deliveries as flow arrows from the send to the matching receive, and
// kills/timeouts/drops as instant markers. SimTime is already µs, which is
// exactly the unit trace_events expect in `ts`.
//
// `write_metrics_json` renders a RunReport (with metrics enabled) as a flat
// JSON document: run totals plus one object per phase with that phase's
// counters and its critical-path share of the makespan. The shape is stable
// — every phase appears, in enum order, even when all-zero — and is
// validated in CI against bench/metrics_schema.json.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/machine.hpp"
#include "sim/trace.hpp"

namespace ftsort::sim {

/// Per-key detail cap of the metrics-JSON `lineage.keys` array: documents
/// past it keep the rollups and the audit but truncate the per-key trails
/// (`keys_emitted` < `keys_total` marks the cut — never silent).
inline constexpr std::size_t kLineageDetailCap = 4096;
/// Entries in the `lineage.top_travelers` rollup.
inline constexpr std::size_t kLineageTopTravelers = 8;

/// Optional extras for write_chrome_trace.
struct ChromeTraceOptions {
  /// When non-null, emit per-cube-dimension counter ("C") tracks derived
  /// from the message events: `keys_in_flight` (sent but not yet received
  /// or dropped, decomposed over the dimensions of src^dst) and
  /// `link_busy_us` (cumulative wire time charged per dimension under this
  /// cost model). The decomposition assumes minimal routing — exact for
  /// e-cube paths, an approximation for adaptive detours.
  const CostModel* cost = nullptr;
  /// Flight-recorder evictions for the exported run; recorded as a
  /// `trace_dropped` metadata event so offline consumers (ftdiag explain)
  /// can tell a complete export from a ring-truncated one.
  std::uint64_t trace_dropped = 0;
  /// When non-null and enabled, emit the sim-time sampler's series
  /// (RunReport::timeline) as counter ("C") tracks sampled at each tick
  /// boundary: `timeline_queue_depth` (messages arrived, not yet
  /// received), `timeline_pool_in_use` (payload buffers in flight), and
  /// `timeline_keys_in_flight` per cube dimension. Independent of the
  /// event-derived `keys_in_flight` track above: the sampler survives
  /// flight-recorder eviction, the event track does not.
  const TimelineSnapshot* timeline = nullptr;
  /// When non-null and enabled, emit a `lineage_summary` metadata ("M")
  /// event carrying the custody rollup (assigned ids, audit verdict,
  /// salvage counts, untracked hops). Deliberately *not* per-key flow
  /// arrows: custody commits have no deterministic timestamp — pair-step
  /// resolution order differs across executors — so a summary is the only
  /// annotation that keeps exports byte-comparable (DESIGN.md §7).
  const LineageSnapshot* lineage = nullptr;
};

/// Write the Chrome/Perfetto trace_events JSON for `events` (one run's
/// stream, e.g. Trace::snapshot()), with the counter tracks and metadata
/// `opts` asks for. `num_nodes` sizes the track metadata.
void write_chrome_trace(std::ostream& os,
                        const std::vector<TraceEvent>& events,
                        std::uint32_t num_nodes,
                        const ChromeTraceOptions& opts = {});

/// Structural validation of a trace_events JSON document as produced by
/// write_chrome_trace: valid JSON (util/json.hpp; a parse error names its
/// byte offset), the traceEvents wrapper, the required keys per event
/// (`name`/`ph`, plus `ts`/`pid`/`tid` outside metadata), known `ph`
/// codes, per-track span balance, flow ends bound to an earlier flow
/// start, and fault instants carrying their phase. Returns
/// false and fills `error` (when non-null) with the first problem found.
/// Intended for complete exports: a ring-truncated trace can legitimately
/// fail the span-balance and flow checks.
bool validate_chrome_trace(const std::string& json,
                           std::string* error = nullptr);

/// Write the flat metrics JSON for `report`. The per-phase array is filled
/// from `report.phases`; when metrics were disabled it is empty. The
/// `links` block carries the per-dimension traffic rollup (with busy time
/// and utilisation derived from `report.cost`) and `reindex_audit` the §3
/// predicted-vs-measured re-index overhead; both collapse to
/// `"enabled": false` stubs when link stats were not recorded.
void write_metrics_json(std::ostream& os, const RunReport& report);

}  // namespace ftsort::sim
