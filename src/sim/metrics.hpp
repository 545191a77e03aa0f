// Per-node, per-phase metrics registry of a simulation run.
//
// An instrument (sim/instrument.hpp): every event Machine charges (sends,
// receives, comparisons and local work, drops, timeouts) bumps the
// counters of the node's *ambient phase* (see sim/phase.hpp). The registry
// is a fixed-size per-node table sized once at enable time, so the hot
// path performs no allocation. Everything recorded is logical (derived
// from message causality, never from host scheduling), so per-phase totals
// are byte-identical across the sequential and threaded executors.
//
// Off by default; like every instrument, it costs nothing per event while
// off beyond Machine's one check for an active instrument.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "hypercube/address.hpp"
#include "sim/cost_model.hpp"
#include "sim/instrument.hpp"
#include "sim/phase.hpp"

namespace ftsort::sim {

/// Log2 message-size histogram buckets: bucket b counts payloads with
/// floor(log2(keys)) == b (empty payloads land in bucket 0), clamped above.
inline constexpr std::size_t kMsgSizeBuckets = 16;

/// Counters of one (node, phase) cell, or an aggregate over cells. All time
/// fields are logical SimTime (µs), deterministic across executors.
struct PhaseCounters {
  std::uint64_t messages = 0;        ///< sends issued in this phase
  std::uint64_t keys_sent = 0;       ///< Σ sent payload sizes
  std::uint64_t key_hops = 0;        ///< Σ payload size × hops
  std::uint64_t comparisons = 0;     ///< charged key comparisons
  std::uint64_t recvs = 0;           ///< messages received
  std::uint64_t keys_received = 0;   ///< Σ received payload sizes
  std::uint64_t messages_dropped = 0;  ///< sends lost to dead nodes/links
  std::uint64_t timeouts = 0;        ///< recv_or_timeout expirations
  std::uint64_t pool_checkouts = 0;  ///< payload buffers checked out
  SimTime send_busy = 0.0;     ///< link-injection time charged to senders
  SimTime compute_time = 0.0;  ///< compare + charge_time work
  SimTime recv_wait = 0.0;     ///< queue wait: arrival (or deadline) − clock
  std::array<std::uint32_t, kMsgSizeBuckets> msg_size_hist{};

  PhaseCounters& operator+=(const PhaseCounters& o);
  bool operator==(const PhaseCounters&) const = default;

  static std::size_t size_bucket(std::uint64_t keys);
};

/// One node's row: a fixed array indexed by Phase.
using NodePhaseCounters = std::array<PhaseCounters, kPhaseCount>;

/// Copyable point-in-time copy of the registry, carried in RunReport.
struct MetricsSnapshot {
  std::vector<NodePhaseCounters> nodes;  ///< index = machine address

  bool empty() const { return nodes.empty(); }
  /// Aggregate of one phase over all nodes.
  PhaseCounters total(Phase p) const;
  /// Aggregate of everything (all phases, all nodes).
  PhaseCounters grand_total() const;

  bool operator==(const MetricsSnapshot&) const = default;
};

class Metrics final : public Instrument {
 public:
  /// Size the table for `num_nodes` and start recording. Zeroes any
  /// previous contents. The only allocation the registry ever performs.
  void enable(std::uint32_t num_nodes) {
    nodes_.assign(num_nodes, NodePhaseCounters{});
    enabled_ = true;
  }

  /// Zero every counter, keeping the table allocation (run-to-run reuse).
  void on_run_start() override {
    for (NodePhaseCounters& row : nodes_) row.fill(PhaseCounters{});
  }
  void on_charge(const ChargeEvent& ev) override;
  void on_send(const SendEvent& ev) override;
  /// A drop is charged to the *sender's* row, under the phase the message
  /// was sent in.
  void on_post(const PostEvent& ev) override {
    if (ev.dropped) ++at(ev.msg.src, ev.msg.phase).messages_dropped;
  }
  void on_recv(const RecvEvent& ev) override;
  void on_timeout(const TimeoutEvent& ev) override;
  void on_kill(const KillEvent& ev) override {
    if (ev.checked_out) ++at(ev.node, ev.phase).pool_checkouts;
  }
  /// RunReport::metrics.
  void collect(RunReport& report) const override;

 private:
  PhaseCounters& at(cube::NodeId u, Phase p) {
    return nodes_[u][static_cast<std::size_t>(p)];
  }

  std::vector<NodePhaseCounters> nodes_;
};

// ---------------------------------------------------------------------------
// Phase breakdown: where the makespan went.

struct TraceEvent;  // sim/trace.hpp

/// Per-phase slice of a run: aggregate counters plus — when an event trace
/// was recorded — this phase's contribution to the makespan along the
/// critical path, split into communication (recv waits and message flight)
/// and computation.
struct PhaseBreakdown {
  struct Slice {
    Phase phase = Phase::Unattributed;
    PhaseCounters counters;         ///< totals over all nodes
    SimTime critical_time = 0.0;    ///< share of the makespan
    SimTime critical_comm = 0.0;
    SimTime critical_compute = 0.0;
    bool operator==(const Slice&) const = default;
  };
  /// One slice per Phase, in enum order (zero slices included so the
  /// exporters emit a stable shape).
  std::vector<Slice> slices;
  /// True when a trace was available and the critical-path walk ran; the
  /// per-slice critical_* fields are zero otherwise.
  bool has_critical_path = false;
  /// Σ critical_time over slices; equals the makespan (up to the walk's
  /// final segment landing at time 0) when has_critical_path.
  SimTime critical_total = 0.0;

  bool empty() const { return slices.empty(); }
  const Slice& of(Phase p) const {
    return slices[static_cast<std::size_t>(p)];
  }

  bool operator==(const PhaseBreakdown&) const = default;
};

/// Build the breakdown from a metrics snapshot and (optionally) the run's
/// trace events. The critical-path walk starts at the node that achieved
/// the makespan and follows time backwards: within a node it attributes
/// elapsed time to the phase of the event that closed each gap; at a
/// receive that had to wait it hops to the matching send on the peer, so
/// message flight is charged as communication on the receiver's phase.
/// `events` may be empty (counters only); deterministic across executors
/// because it uses only per-node event order and logical times.
PhaseBreakdown build_phase_breakdown(const MetricsSnapshot& metrics,
                                     const std::vector<TraceEvent>& events,
                                     SimTime makespan,
                                     const std::vector<SimTime>& node_clocks);

}  // namespace ftsort::sim
