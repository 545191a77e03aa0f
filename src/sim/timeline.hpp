// Time-resolved telemetry: the sim-time sampler and the recovery-latency
// decomposition.
//
// `Timeline` is an opt-in instrument (sim/instrument.hpp) that buckets
// event deltas by *logical* tick, so a finished run can be replayed as a
// time series: per-node pending-queue depth, in-flight keys per cube
// dimension, payload buffers in flight per node, and each node's active
// phase. Charging a delta never touches a node clock, so sampling has zero
// simulated-time cost and cannot change results.
//
// Determinism: sampling "current global state at tick boundaries" would be
// racy on the threaded executor (no global instant exists between
// quiescence points). Instead each hook adds an integer delta to the bucket
// of the *logical* time it describes (a message's arrival, a receive's
// post-wait clock). Bucketed integer sums are order-independent, so the
// snapshot is byte-identical across the sequential and threaded executors,
// like every other RunReport field.
//
// The series length is bounded by `kTimelineMaxTicks`; deltas addressed
// past the cap are counted in `dropped` instead of growing without bound
// (a recovery run's logical makespan can be ~1e9 µs).
#pragma once

#include <cstdint>
#include <vector>

#include "hypercube/address.hpp"
#include "sim/cost_model.hpp"
#include "sim/instrument.hpp"
#include "sim/phase.hpp"

namespace ftsort::sim {

/// Hard cap on the number of ticks a Timeline will materialise. Chosen so
/// a fully populated Q_10 snapshot stays in the tens of megabytes; pick a
/// coarser tick rather than raising it.
inline constexpr std::size_t kTimelineMaxTicks = 4096;

/// Immutable result of one sampled run, carried in RunReport::timeline.
/// All series are cumulative (prefix-summed) per tick and padded to a
/// common `ticks` length. With `dropped == 0`, the queue/pool/in-flight
/// series each return to zero in the final tick of a completed run: every
/// enqueue was matched by a dequeue or drop.
struct TimelineSnapshot {
  /// Phase ordinal used for ticks before a node's first charge and after
  /// its last: the node was idle (or dead), not in any phase.
  static constexpr std::uint8_t kIdle = 0xff;

  bool enabled = false;
  SimTime tick = 0.0;          ///< tick width in simulated µs
  std::uint32_t num_nodes = 0;
  cube::Dim dim = 0;
  std::size_t ticks = 0;       ///< common length of every series
  std::uint64_t dropped = 0;   ///< deltas past kTimelineMaxTicks, not recorded
  /// [node][tick]: messages arrived but not yet received at tick end.
  std::vector<std::vector<std::int64_t>> queue_depth;
  /// [node][tick]: payloads this node has sent that are not yet received
  /// or dropped at tick end (a received payload joins the receiver's pool,
  /// a dropped one returns to this node's; sim/buffer_pool.hpp).
  std::vector<std::vector<std::int64_t>> pool_in_use;
  /// [dim][tick]: keys on the wire crossing this cube dimension at tick
  /// end (multi-hop messages count on every dimension they traverse).
  std::vector<std::vector<std::int64_t>> keys_in_flight;
  /// [node][tick]: Phase ordinal the node was in when simulated time
  /// crossed the tick boundary; kIdle outside the node's active interval.
  std::vector<std::vector<std::uint8_t>> phase;

  bool empty() const { return !enabled; }
  std::int64_t total_queue_depth(std::size_t t) const {
    std::int64_t sum = 0;
    for (const auto& row : queue_depth) sum += row[t];
    return sum;
  }
  std::int64_t total_pool_in_use(std::size_t t) const {
    std::int64_t sum = 0;
    for (const auto& row : pool_in_use) sum += row[t];
    return sum;
  }
  bool operator==(const TimelineSnapshot&) const = default;
};

/// One recovery round that ended in a RESTART verdict: who was found dead
/// and where the simulated time between the fault and the next attempt
/// went. All boundaries are logical clocks read off the coordinator's
/// protocol path (core/recovery.cpp), so they are byte-identical across
/// executors. Stage accessors telescope: detection() + roll_call() +
/// salvage() + restart() == restart_end - inject for every episode.
struct RecoveryEpisode {
  std::uint32_t attempt = 0;            ///< attempt index that aborted
  std::vector<cube::NodeId> dead;       ///< nodes this roll call found dead
  SimTime inject = 0.0;         ///< earliest injector kill among `dead`
  SimTime detect_first = 0.0;   ///< coordinator's first timeout evidence
  SimTime detect_confirm = 0.0; ///< last roll-call timeout (the watermark)
  SimTime rollcall_end = 0.0;   ///< coordinator clock after the roll call
  SimTime salvage_end = 0.0;    ///< after witness salvage + verdict fan-out
  SimTime restart_end = 0.0;    ///< next episode's inject, or the makespan

  SimTime detection() const { return detect_first - inject; }
  SimTime roll_call() const { return rollcall_end - detect_first; }
  SimTime salvage() const { return salvage_end - rollcall_end; }
  SimTime restart() const { return restart_end - salvage_end; }
  SimTime total() const { return restart_end - inject; }
  bool operator==(const RecoveryEpisode&) const = default;
};

/// Per-run recovery-latency decomposition, carried in
/// RunReport::recovery_latency. `enabled` is true iff the run committed
/// through core::recovery_sort after at least one RESTART round. Summing
/// every stage over every episode telescopes exactly to
/// `makespan - episodes.front().inject` — and the final episode's
/// detect_confirm equals core::detect_time(report), so the salvage- and
/// restart-side stages partition `makespan_post_recovery` (see the pinned
/// RecoveryLatency tests). Stage values are raw clock differences; under
/// adversarial overlapping injections the restart stage of a non-final
/// episode can be negative (the next fault landed before salvage ended).
struct RecoveryLatency {
  bool enabled = false;
  std::vector<RecoveryEpisode> episodes;

  SimTime detection_total() const {
    SimTime s = 0.0;
    for (const auto& e : episodes) s += e.detection();
    return s;
  }
  SimTime roll_call_total() const {
    SimTime s = 0.0;
    for (const auto& e : episodes) s += e.roll_call();
    return s;
  }
  SimTime salvage_total() const {
    SimTime s = 0.0;
    for (const auto& e : episodes) s += e.salvage();
    return s;
  }
  SimTime restart_total() const {
    SimTime s = 0.0;
    for (const auto& e : episodes) s += e.restart();
    return s;
  }
  bool operator==(const RecoveryLatency&) const = default;
};

/// The sampler. Enable before a run (Machine::timeline()); Machine resets
/// it per run and collects it into RunReport::timeline.
class Timeline final : public Instrument {
 public:
  /// Arm the sampler for `num_nodes` nodes of a `dim`-cube with the given
  /// tick width (simulated µs, > 0). Idempotent per shape.
  void enable(std::uint32_t num_nodes, cube::Dim dim, SimTime tick);

  /// Clear all series for a new run.
  void on_run_start() override;
  // Every event adds its deltas at the logical time it describes and
  // records the node's phase up to its clock; none advances a clock.
  void on_charge(const ChargeEvent& ev) override {
    note_phase(ev.node, ev.clock, ev.phase);
  }
  void on_send(const SendEvent& ev) override;
  void on_post(const PostEvent& ev) override;
  void on_recv(const RecvEvent& ev) override;
  void on_timeout(const TimeoutEvent& ev) override {
    note_phase(ev.node, ev.clock, ev.phase);
  }
  /// Materialise the run's series (prefix sums, common padding) into
  /// RunReport::timeline.
  void collect(RunReport& report) const override;

 private:
  // One delta series: sparse per-tick sums plus its own high-water mark
  // (vector capacity growth is insertion-order dependent and must not
  // leak into the snapshot).
  struct Series {
    std::vector<std::int64_t> deltas;
    std::size_t max_tick = 0;
    bool touched = false;
  };
  struct NodeSeries {
    Series queue;
    Series pool;
    std::vector<std::uint8_t> phase;
    std::size_t cursor = 0;
  };

  /// Bucket index for a logical time, or kTimelineMaxTicks when past the
  /// cap (caller counts it as dropped).
  std::size_t bucket(SimTime t) const;
  static void add(Series& s, std::size_t idx, std::int64_t delta);
  /// Add `delta` to the sender's pool series and `delta * keys` to the
  /// in-flight series of every dimension of src^dst, in the bucket of
  /// `when`: a message entering (+1) or leaving (-1) the wire.
  void note_wire(cube::NodeId src, cube::NodeId dst, std::uint64_t keys,
                 SimTime when, std::int64_t delta);
  /// Add `delta` to node `u`'s queue series in the bucket of `when`.
  void note_queue(cube::NodeId u, SimTime when, std::int64_t delta);
  /// Record that node `u` was in `p` when its clock reached `now`; fills
  /// every tick boundary crossed since the node's previous sample.
  void note_phase(cube::NodeId u, SimTime now, Phase p);

  SimTime tick_ = 0.0;
  cube::Dim dim_ = 0;
  std::vector<NodeSeries> nodes_;
  std::vector<Series> dims_;  ///< keys in flight per dimension
  std::uint64_t dropped_ = 0;
};

}  // namespace ftsort::sim
