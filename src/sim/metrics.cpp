#include "sim/metrics.hpp"

#include <bit>
#include <cstddef>
#include <unordered_map>

#include "sim/machine.hpp"
#include "sim/trace.hpp"
#include "util/contracts.hpp"

namespace ftsort::sim {

PhaseCounters& PhaseCounters::operator+=(const PhaseCounters& o) {
  messages += o.messages;
  keys_sent += o.keys_sent;
  key_hops += o.key_hops;
  comparisons += o.comparisons;
  recvs += o.recvs;
  keys_received += o.keys_received;
  messages_dropped += o.messages_dropped;
  timeouts += o.timeouts;
  pool_checkouts += o.pool_checkouts;
  send_busy += o.send_busy;
  compute_time += o.compute_time;
  recv_wait += o.recv_wait;
  for (std::size_t b = 0; b < kMsgSizeBuckets; ++b)
    msg_size_hist[b] += o.msg_size_hist[b];
  return *this;
}

std::size_t PhaseCounters::size_bucket(std::uint64_t keys) {
  const std::size_t b =
      keys == 0 ? 0 : static_cast<std::size_t>(std::bit_width(keys) - 1);
  return b < kMsgSizeBuckets ? b : kMsgSizeBuckets - 1;
}

PhaseCounters MetricsSnapshot::total(Phase p) const {
  PhaseCounters sum;
  for (const NodePhaseCounters& row : nodes)
    sum += row[static_cast<std::size_t>(p)];
  return sum;
}

PhaseCounters MetricsSnapshot::grand_total() const {
  PhaseCounters sum;
  for (std::size_t p = 0; p < kPhaseCount; ++p)
    sum += total(static_cast<Phase>(p));
  return sum;
}

void Metrics::on_charge(const ChargeEvent& ev) {
  PhaseCounters& pc = at(ev.node, ev.phase);
  pc.comparisons += ev.comparisons;
  pc.compute_time += ev.work;
}

void Metrics::on_send(const SendEvent& ev) {
  PhaseCounters& pc = at(ev.msg.src, ev.msg.phase);
  const std::uint64_t keys = ev.msg.payload.size();
  if (ev.checked_out) ++pc.pool_checkouts;
  ++pc.messages;
  pc.keys_sent += keys;
  pc.key_hops += keys * static_cast<std::uint64_t>(ev.msg.hops);
  pc.send_busy += ev.injection;
  ++pc.msg_size_hist[PhaseCounters::size_bucket(keys)];
}

void Metrics::on_recv(const RecvEvent& ev) {
  PhaseCounters& pc = at(ev.node, ev.phase);
  ++pc.recvs;
  pc.keys_received += ev.msg.payload.size();
  pc.recv_wait += ev.waited;
}

void Metrics::on_timeout(const TimeoutEvent& ev) {
  PhaseCounters& pc = at(ev.node, ev.phase);
  ++pc.timeouts;
  pc.recv_wait += ev.waited;
}

void Metrics::collect(RunReport& report) const {
  report.metrics = MetricsSnapshot{nodes_};
}

PhaseBreakdown build_phase_breakdown(
    const MetricsSnapshot& metrics, const std::vector<TraceEvent>& events,
    SimTime makespan, const std::vector<SimTime>& node_clocks) {
  PhaseBreakdown out;
  if (metrics.empty()) return out;
  out.slices.resize(kPhaseCount);
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    out.slices[p].phase = static_cast<Phase>(p);
    out.slices[p].counters = metrics.total(static_cast<Phase>(p));
  }
  if (events.empty() || makespan <= 0.0) return out;

  // Group event indices by node, preserving per-node record order — each
  // node's own events are recorded in its program order on both executors,
  // so the walk below is executor-independent. Drop events are recorded
  // from the *sender's* thread onto the destination's stream (their
  // interleaving is executor-dependent) and never lie on the destination's
  // execution path, so they are excluded.
  const std::size_t num_nodes = metrics.nodes.size();
  std::vector<std::vector<std::uint32_t>> per_node(num_nodes);
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> sends;
  for (std::uint32_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    if (ev.kind == EventKind::Drop) continue;
    if (ev.node >= num_nodes) continue;
    per_node[ev.node].push_back(i);
    if (ev.kind == EventKind::Send)
      sends[flow_key(ev.node, ev.peer, ev.tag)].push_back(i);
  }

  const auto attribute = [&out](Phase p, SimTime dt, bool comm) {
    if (dt <= 0.0) return;
    PhaseBreakdown::Slice& s = out.slices[static_cast<std::size_t>(p)];
    s.critical_time += dt;
    (comm ? s.critical_comm : s.critical_compute) += dt;
    out.critical_total += dt;
  };

  // Start at the node that achieved the makespan and walk time backwards.
  cube::NodeId cur_node = 0;
  for (cube::NodeId u = 0; u < node_clocks.size(); ++u)
    if (node_clocks[u] == makespan) {
      cur_node = u;
      break;
    }
  SimTime cur_time = makespan;
  std::vector<std::ptrdiff_t> cursor(num_nodes);
  for (std::size_t u = 0; u < num_nodes; ++u)
    cursor[u] = static_cast<std::ptrdiff_t>(per_node[u].size()) - 1;

  // Every iteration consumes an event or closes a gap; the hop consumes
  // the Recv before moving, so the walk terminates within O(events).
  std::size_t budget = events.size() + num_nodes + 8;
  while (cur_time > 0.0 && budget-- > 0) {
    const std::vector<std::uint32_t>& seq = per_node[cur_node];
    std::ptrdiff_t& c = cursor[cur_node];
    while (c >= 0 && events[seq[static_cast<std::size_t>(c)]].time > cur_time)
      --c;
    if (c < 0) {
      // No event precedes cur_time on this node (e.g. the path reached a
      // node's pre-first-event setup); close the walk here.
      attribute(Phase::Unattributed, cur_time, /*comm=*/false);
      break;
    }
    const TraceEvent& ev = events[seq[static_cast<std::size_t>(c)]];
    if (cur_time > ev.time) {
      // Post-event activity with no closing event of its own (e.g. send
      // injection time, charge_time): attribute to the ambient phase.
      attribute(ev.phase, cur_time - ev.time, /*comm=*/false);
      cur_time = ev.time;
      continue;
    }
    const SimTime prev_time =
        c > 0 ? events[seq[static_cast<std::size_t>(c - 1)]].time : 0.0;
    if (ev.kind == EventKind::Recv && ev.time > prev_time) {
      // The receive moved the clock: the message (wait + flight) is on the
      // critical path. Hop to the matching send on the peer; per-channel
      // FIFO makes "latest send at or before the receive" the right match.
      const auto it = sends.find(flow_key(ev.peer, ev.node, ev.tag));
      const std::uint32_t* match = nullptr;
      if (it != sends.end()) {
        for (auto rit = it->second.rbegin(); rit != it->second.rend();
             ++rit) {
          if (events[*rit].time <= ev.time) {
            match = &*rit;
            break;
          }
        }
      }
      if (match != nullptr) {
        const TraceEvent& send = events[*match];
        attribute(ev.phase, ev.time - send.time, /*comm=*/true);
        --c;  // the Recv is consumed
        cur_node = send.node;
        cur_time = send.time;
        continue;
      }
    }
    const bool comm =
        ev.kind == EventKind::Recv || ev.kind == EventKind::Timeout;
    attribute(ev.phase, ev.time - prev_time, comm);
    cur_time = prev_time;
    --c;
  }
  out.has_critical_path = true;
  return out;
}

}  // namespace ftsort::sim
