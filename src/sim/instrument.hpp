// One interface for the simulator's instruments.
//
// Machine reports every event it charges exactly once — local work, a
// phase span opening or closing, a send, a post, a receive, a timeout, a
// death — to the run's active instruments: those of Trace, Metrics,
// LinkStats, Timeline and Lineage enabled when the run started. Each
// instrument owns the rules that turn events into its counters, so a new
// one needs no change to Machine; with every instrument off a charge site
// costs one predictable branch and builds no event. Events are logical
// (simulated times, counts that follow from message causality), so what an
// instrument records is identical on both executors. Every call happens on
// the sequential executor's one thread or under the threaded executor's
// machine lock, so instruments need no locking of their own.
#pragma once

#include <cstdint>
#include <span>

#include "hypercube/address.hpp"
#include "sim/cost_model.hpp"
#include "sim/message.hpp"
#include "sim/phase.hpp"

namespace ftsort::sim {

struct RunReport;  // sim/machine.hpp

/// `comparisons` key comparisons (charge_compares) or none (charge_time),
/// worth `work` µs; `clock` is the node's clock after the charge.
struct ChargeEvent {
  cube::NodeId node;
  Phase phase;
  SimTime clock;
  std::uint64_t comparisons;
  SimTime work;
};

/// A PhaseSpan opened (`begin`) or closed; `phase` is the span's own.
struct SpanEvent {
  cube::NodeId node;
  Phase phase;
  SimTime clock;
  bool begin;
};

/// `msg` was sent (its payload still at hand, before post()); `clock` is
/// the sender's after `injection`. `path` is the router walk (path[0] =
/// src), empty unless an active instrument wants_path(). `checked_out`:
/// the payload buffer was just taken from the sender's pool.
struct SendEvent {
  const Message& msg;
  SimTime clock;
  SimTime injection;
  std::span<const cube::NodeId> path;
  bool checked_out;
};

/// `msg` reached its destination's mailbox, or was `dropped` (destination
/// dead on arrival, or the direct link cut before the send).
struct PostEvent {
  const Message& msg;
  bool dropped;
};

/// `node` took `msg` from its mailbox; the receive moved its clock by
/// `waited`, to `clock`.
struct RecvEvent {
  cube::NodeId node;
  Phase phase;
  SimTime clock;
  SimTime waited;
  const Message& msg;
};

/// `node`'s recv_or_timeout on (src, tag) expired; the expiry moved its
/// clock by `waited`, to `clock`.
struct TimeoutEvent {
  cube::NodeId node;
  cube::NodeId src;
  Tag tag;
  Phase phase;
  SimTime clock;
  SimTime waited;
};

/// `node` reached its kill time and died; `checked_out`: at a send whose
/// payload buffer it had just taken from its pool.
struct KillEvent {
  cube::NodeId node;
  Phase phase;
  SimTime clock;
  bool checked_out;
};

class Instrument {
 public:
  /// Records the run; Machine reads it once, at run start.
  bool enabled() const { return enabled_; }
  /// True when on_send reads SendEvent::path.
  virtual bool wants_path() const { return false; }

  /// Called on every instrument, enabled or not, when a run starts.
  virtual void on_run_start() {}
  virtual void on_charge(const ChargeEvent&) {}
  virtual void on_span(const SpanEvent&) {}
  virtual void on_send(const SendEvent&) {}
  virtual void on_post(const PostEvent&) {}
  virtual void on_recv(const RecvEvent&) {}
  virtual void on_timeout(const TimeoutEvent&) {}
  virtual void on_kill(const KillEvent&) {}
  /// Copy the run's results into the report (enabled instruments only).
  virtual void collect(RunReport& report) const = 0;

 protected:
  /// Instruments are members of their Machine, never deleted through
  /// this base.
  ~Instrument() = default;

  bool enabled_ = false;
};

}  // namespace ftsort::sim
