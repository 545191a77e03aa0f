#include "sim/timeline.hpp"

#include <algorithm>
#include <bit>

#include "sim/machine.hpp"
#include "util/contracts.hpp"

namespace ftsort::sim {

void Timeline::enable(std::uint32_t num_nodes, cube::Dim dim, SimTime tick) {
  FTSORT_REQUIRE(num_nodes > 0);
  FTSORT_REQUIRE(tick > 0.0);
  enabled_ = true;
  tick_ = tick;
  dim_ = dim;
  nodes_.resize(num_nodes);
  dims_.resize(static_cast<std::size_t>(dim));
  on_run_start();
}

void Timeline::on_run_start() {
  std::fill(nodes_.begin(), nodes_.end(), NodeSeries{});
  std::fill(dims_.begin(), dims_.end(), Series{});
  dropped_ = 0;
}

std::size_t Timeline::bucket(SimTime t) const {
  if (t < 0.0) return 0;
  const double idx = t / tick_;
  if (idx >= static_cast<double>(kTimelineMaxTicks)) return kTimelineMaxTicks;
  return static_cast<std::size_t>(idx);
}

void Timeline::add(Series& s, std::size_t idx, std::int64_t delta) {
  if (idx >= s.deltas.size())
    s.deltas.resize(std::max(idx + 1, s.deltas.size() * 2), 0);
  s.deltas[idx] += delta;
  s.max_tick = s.touched ? std::max(s.max_tick, idx) : idx;
  s.touched = true;
}

void Timeline::note_queue(cube::NodeId u, SimTime when, std::int64_t delta) {
  const std::size_t idx = bucket(when);
  if (idx == kTimelineMaxTicks) {
    ++dropped_;
    return;
  }
  add(nodes_[u].queue, idx, delta);
}

void Timeline::note_wire(cube::NodeId src, cube::NodeId dst,
                         std::uint64_t keys, SimTime when,
                         std::int64_t delta) {
  const std::size_t idx = bucket(when);
  if (idx == kTimelineMaxTicks) {
    ++dropped_;
    return;
  }
  add(nodes_[src].pool, idx, delta);
  const std::int64_t k = delta * static_cast<std::int64_t>(keys);
  for (std::uint32_t diff = src ^ dst; diff != 0; diff &= diff - 1)
    add(dims_[static_cast<std::size_t>(std::countr_zero(diff))], idx, k);
}

void Timeline::note_phase(cube::NodeId u, SimTime now, Phase p) {
  NodeSeries& node = nodes_[u];
  std::size_t upto = bucket(now);
  if (upto == kTimelineMaxTicks) upto = kTimelineMaxTicks - 1;
  if (node.cursor > upto) return;
  if (upto >= node.phase.size())
    node.phase.resize(std::max(upto + 1, node.phase.size() * 2),
                      TimelineSnapshot::kIdle);
  for (std::size_t t = node.cursor; t <= upto; ++t)
    node.phase[t] = static_cast<std::uint8_t>(p);
  node.cursor = upto + 1;
}

void Timeline::on_send(const SendEvent& ev) {
  const Message& m = ev.msg;
  note_wire(m.src, m.dst, m.payload.size(), m.sent_at, +1);
  note_phase(m.src, ev.clock, m.phase);
}

void Timeline::on_post(const PostEvent& ev) {
  const Message& m = ev.msg;
  if (ev.dropped)
    // A dropped message leaves the wire (and its buffer returns to the
    // sender) at its would-be arrival; same deltas as a delivery.
    note_wire(m.src, m.dst, m.payload.size(), m.arrival, -1);
  else
    note_queue(m.dst, m.arrival, +1);
}

void Timeline::on_recv(const RecvEvent& ev) {
  note_queue(ev.node, ev.clock, -1);
  note_wire(ev.msg.src, ev.node, ev.msg.payload.size(), ev.clock, -1);
  note_phase(ev.node, ev.clock, ev.phase);
}

void Timeline::collect(RunReport& report) const {
  TimelineSnapshot& out = report.timeline;
  out.enabled = true;
  out.tick = tick_;
  out.num_nodes = static_cast<std::uint32_t>(nodes_.size());
  out.dim = dim_;
  out.dropped = dropped_;

  // Common padded length: the latest tick any series or phase row touched.
  // Deterministic — high-water marks depend only on the (identical) event
  // set, never on vector growth order.
  std::size_t ticks = 0;
  const auto cover = [&ticks](const Series& s) {
    if (s.touched) ticks = std::max(ticks, s.max_tick + 1);
  };
  for (const NodeSeries& node : nodes_) {
    cover(node.queue);
    cover(node.pool);
    ticks = std::max(ticks, node.cursor);
  }
  for (const Series& d : dims_) cover(d);
  out.ticks = ticks;

  const auto cumulate = [ticks](const Series& s) {
    std::vector<std::int64_t> row(ticks, 0);
    std::int64_t running = 0;
    for (std::size_t t = 0; t < ticks; ++t) {
      if (t < s.deltas.size()) running += s.deltas[t];
      row[t] = running;
    }
    return row;
  };
  for (const NodeSeries& node : nodes_) {
    out.queue_depth.push_back(cumulate(node.queue));
    out.pool_in_use.push_back(cumulate(node.pool));
    std::vector<std::uint8_t> row(ticks, TimelineSnapshot::kIdle);
    std::copy(node.phase.begin(),
              node.phase.begin() +
                  static_cast<std::ptrdiff_t>(std::min(node.cursor, ticks)),
              row.begin());
    out.phase.push_back(std::move(row));
  }
  for (const Series& d : dims_) out.keys_in_flight.push_back(cumulate(d));
}

}  // namespace ftsort::sim
