// Flight recorder for a simulation run: per-node, optionally bounded rings
// of trace events, used by debugging dumps, the demo examples, the
// observability exporters (sim/exporters.hpp), and the failure explainers
// (sim/diagnosis.hpp). An instrument (sim/instrument.hpp): it turns each
// event Machine reports into one TraceEvent. Disabled by default;
// recording is O(1) per event when enabled.
//
// Besides the raw message/compute events, the trace records *span* events
// (SpanBegin/SpanEnd) emitted by PhaseSpan (sim/machine.hpp): every event
// carries the node's ambient Phase at the time it happened, which is what
// the Perfetto exporter turns into one labelled track per node and the
// PhaseBreakdown critical-path walk uses for attribution.
//
// Rings: events land in the ring of the node they describe (Drop events
// are recorded by the sender onto the destination node's ring). Every
// record() happens on the sequential executor's one thread or under the
// threaded executor's machine lock, so a plain sequence number stamped in
// record() orders all events, and snapshot() merges the rings back into one
// stream by it. On the sequential executor the sequence order is exactly
// the historical append order; on the threaded executor each node's own
// events keep program order, and a Send is always sequenced before the
// matching Recv (the send is recorded before the message is posted, and
// the receive after), which is what the exporter's flow pairing and the
// PhaseBreakdown walk rely on.
//
// Bounding: set_capacity(N) caps each node's ring at N events; once full,
// the oldest retained event is overwritten and counted in dropped(). The
// default capacity 0 means unbounded, which preserves the exact historical
// behaviour. Eviction never costs simulated time, so golden reports are
// byte-identical with the recorder enabled, disabled, or bounded.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hypercube/address.hpp"
#include "sim/cost_model.hpp"
#include "sim/instrument.hpp"
#include "sim/message.hpp"
#include "sim/phase.hpp"

namespace ftsort::sim {

enum class EventKind {
  Send,
  Recv,
  Compute,
  Drop,
  Timeout,
  Kill,
  SpanBegin,  ///< a PhaseSpan opened; `phase` is the span's phase
  SpanEnd,    ///< the matching close
};

struct TraceEvent {
  SimTime time = 0.0;
  cube::NodeId node = 0;
  EventKind kind = EventKind::Compute;
  cube::NodeId peer = 0;   ///< other endpoint for Send/Recv
  Tag tag = 0;
  std::uint64_t keys = 0;  ///< payload size or comparison count
  int hops = 0;
  Phase phase = Phase::Unattributed;  ///< node's ambient phase
  std::uint64_t seq = 0;  ///< global record order, stamped by record()
};

/// Lower-case name of an event kind ("send", "span_begin", ...), as the
/// watchdog dump's trace tail spells it.
const char* event_kind_name(EventKind k);

/// Human-readable dump of `events` (one line per event), truncated to
/// `max_lines`. Formatted only where it is printed: a long recovery trace
/// takes longer to format than to record.
std::string format_trace(std::span<const TraceEvent> events,
                         std::size_t max_lines = 200);

/// Key of the (src, dst, tag) channel a Send and its Recv share; delivery
/// is FIFO per channel, which is what pairs them.
constexpr std::uint64_t flow_key(cube::NodeId src, cube::NodeId dst,
                                 Tag tag) {
  return (std::uint64_t{src} << 48) | (std::uint64_t{dst} << 32) | tag;
}

class Trace final : public Instrument {
 public:
  explicit Trace(std::uint32_t num_shards = 1) { reshard(num_shards); }

  void enable(bool on = true) { enabled_ = on; }

  /// Size the ring array, one ring per node. Events for out-of-range
  /// node ids fall back to ring 0. Drops all retained events and resets
  /// the dropped counter.
  void reshard(std::uint32_t num_shards);

  /// Bound each node's ring to `per_node_events` retained events
  /// (0 = unbounded). Applies lazily from the next record(); shrinking
  /// below a ring's current size evicts its oldest events on the next
  /// record() into that ring.
  void set_capacity(std::size_t per_node_events) { capacity_ = per_node_events; }

  /// Stamp and retain `ev`; a disabled trace ignores it.
  void record(TraceEvent ev);

  /// Drop all retained events and zero the dropped counter. The global
  /// sequence keeps counting (run-start watermarks stay monotonic).
  void clear();

  /// Retained events across all rings.
  std::size_t size() const;

  /// Total events evicted by ring overflow since the last clear().
  std::uint64_t dropped() const;

  /// Copy of the retained events merged across rings in global record
  /// order (ascending seq).
  std::vector<TraceEvent> snapshot() const;
  /// snapshot() restricted to the current (or most recent) run: the
  /// events stamped at or after its run-start watermark.
  std::vector<TraceEvent> run_events() const;
  /// Ring evictions since the current (or most recent) run started.
  std::uint64_t run_dropped() const;

  /// Takes the run-start watermarks; the rings keep earlier runs' events.
  void on_run_start() override;
  // Each event becomes one TraceEvent, with two exceptions: charge_time
  // work records none (the critical-path walk charges it to the event
  // before it), and a post records one only when it drops the message —
  // on the destination's ring, under the phase the message was sent in.
  void on_charge(const ChargeEvent& ev) override {
    if (ev.comparisons != 0)
      record({ev.clock, ev.node, EventKind::Compute, 0, 0, ev.comparisons, 0,
              ev.phase});
  }
  void on_span(const SpanEvent& ev) override {
    record({ev.clock, ev.node,
            ev.begin ? EventKind::SpanBegin : EventKind::SpanEnd, 0, 0, 0, 0,
            ev.phase});
  }
  void on_send(const SendEvent& ev) override {
    const Message& m = ev.msg;
    record({m.sent_at, m.src, EventKind::Send, m.dst, m.tag,
            m.payload.size(), m.hops, m.phase});
  }
  void on_post(const PostEvent& ev) override {
    const Message& m = ev.msg;
    if (ev.dropped)
      record({m.arrival, m.dst, EventKind::Drop, m.src, m.tag,
              m.payload.size(), m.hops, m.phase});
  }
  void on_recv(const RecvEvent& ev) override {
    record({ev.clock, ev.node, EventKind::Recv, ev.msg.src, ev.msg.tag,
            ev.msg.payload.size(), ev.msg.hops, ev.phase});
  }
  void on_timeout(const TimeoutEvent& ev) override {
    record({ev.clock, ev.node, EventKind::Timeout, ev.src, ev.tag, 0, 0,
            ev.phase});
  }
  void on_kill(const KillEvent& ev) override {
    record({ev.clock, ev.node, EventKind::Kill, 0, 0, 0, 0, ev.phase});
  }
  /// RunReport::trace_dropped.
  void collect(RunReport& report) const override;

 private:
  // One ring per node. `ring` grows up to the capacity; once full `head`
  // is the index of the oldest retained event and new events overwrite it.
  struct Ring {
    std::vector<TraceEvent> ring;
    std::size_t head = 0;
    std::uint64_t dropped = 0;
  };

  std::size_t capacity_ = 0;  // 0 = unbounded
  std::uint64_t next_seq_ = 0;
  std::uint64_t run_start_ = 0;     ///< next_seq_ at run start
  std::uint64_t dropped_mark_ = 0;  ///< dropped() at run start
  std::vector<Ring> rings_;
};

}  // namespace ftsort::sim
