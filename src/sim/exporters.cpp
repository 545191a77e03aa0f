#include "sim/exporters.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <deque>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <unordered_map>

#include "sim/link_stats.hpp"
#include "util/json.hpp"
#include "util/schema.hpp"

namespace ftsort::sim {

namespace {

/// Shortest round-trip decimal form, locale-independent.
void put_double(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

void put_counters(std::ostream& os, const PhaseCounters& pc) {
  os << "\"messages\": " << pc.messages
     << ", \"keys_sent\": " << pc.keys_sent
     << ", \"key_hops\": " << pc.key_hops
     << ", \"comparisons\": " << pc.comparisons
     << ", \"recvs\": " << pc.recvs
     << ", \"keys_received\": " << pc.keys_received
     << ", \"messages_dropped\": " << pc.messages_dropped
     << ", \"timeouts\": " << pc.timeouts
     << ", \"pool_checkouts\": " << pc.pool_checkouts
     << ", \"send_busy\": ";
  put_double(os, pc.send_busy);
  os << ", \"compute_time\": ";
  put_double(os, pc.compute_time);
  os << ", \"recv_wait\": ";
  put_double(os, pc.recv_wait);
  os << ", \"msg_size_hist\": [";
  for (std::size_t b = 0; b < kMsgSizeBuckets; ++b)
    os << (b != 0 ? ", " : "") << pc.msg_size_hist[b];
  os << "]";
}

/// (src, dst, tag) key for pairing sends with their receives (per-channel
/// delivery is FIFO, so a queue of pending flow ids per channel suffices).
std::uint64_t flow_channel(cube::NodeId src, cube::NodeId dst, Tag tag) {
  return (static_cast<std::uint64_t>(src) << 48) |
         (static_cast<std::uint64_t>(dst) << 32) |
         static_cast<std::uint64_t>(tag);
}

void put_event_common(std::ostream& os, const char* name, const char* cat,
                      const char* ph, SimTime ts, cube::NodeId tid) {
  os << "{\"name\": \"" << name << "\", \"cat\": \"" << cat
     << "\", \"ph\": \"" << ph << "\", \"ts\": ";
  put_double(os, ts);
  os << ", \"pid\": 0, \"tid\": " << tid;
}

}  // namespace

void write_chrome_trace(std::ostream& os,
                        const std::vector<TraceEvent>& events,
                        std::uint32_t num_nodes) {
  write_chrome_trace(os, events, num_nodes, ChromeTraceOptions{});
}

void write_chrome_trace(std::ostream& os,
                        const std::vector<TraceEvent>& events,
                        std::uint32_t num_nodes,
                        const ChromeTraceOptions& opts) {
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (std::uint32_t u = 0; u < num_nodes; ++u) {
    sep();
    os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
          "\"tid\": "
       << u << ", \"args\": {\"name\": \"node " << u << "\"}}";
  }
  sep();
  os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
        "\"args\": {\"name\": \"hypercube\"}}";
  sep();
  os << "{\"name\": \"trace_dropped\", \"ph\": \"M\", \"pid\": 0, "
        "\"args\": {\"count\": "
     << opts.trace_dropped << "}}";
  if (opts.lineage != nullptr && opts.lineage->enabled) {
    const LineageSnapshot& lin = *opts.lineage;
    sep();
    os << "{\"name\": \"lineage_summary\", \"ph\": \"M\", \"pid\": 0, "
          "\"args\": {\"assigned\": "
       << lin.assigned << ", \"dummies\": " << lin.dummies
       << ", \"audit_checked\": " << (lin.audit.checked ? "true" : "false")
       << ", \"audit_ok\": " << (lin.audit.ok ? "true" : "false")
       << ", \"lost\": " << lin.audit.lost.size()
       << ", \"duplicated\": " << lin.audit.duplicated.size()
       << ", \"salvaged\": " << lin.audit.salvaged
       << ", \"witnessed_salvaged\": " << lin.audit.witnessed_salvaged
       << ", \"untracked_hops\": " << lin.untracked_total() << "}}";
  }

  // Sim-time sampler tracks (sim/timeline.hpp): one counter sample per
  // tick boundary. Emitted up front — Perfetto orders by ts, and the
  // sampler's series are complete even when the event stream below was
  // ring-truncated.
  if (opts.timeline != nullptr && opts.timeline->enabled) {
    const TimelineSnapshot& tl = *opts.timeline;
    for (std::size_t t = 0; t < tl.ticks; ++t) {
      const SimTime ts = static_cast<double>(t) * tl.tick;
      sep();
      put_event_common(os, "timeline_queue_depth", "timeline", "C", ts, 0);
      os << ", \"args\": {\"messages\": " << tl.total_queue_depth(t) << "}}";
      sep();
      put_event_common(os, "timeline_pool_in_use", "timeline", "C", ts, 0);
      os << ", \"args\": {\"buffers\": " << tl.total_pool_in_use(t) << "}}";
      sep();
      put_event_common(os, "timeline_keys_in_flight", "timeline", "C", ts,
                       0);
      os << ", \"args\": {";
      for (cube::Dim d = 0; d < tl.dim; ++d)
        os << (d != 0 ? ", " : "") << "\"dim" << static_cast<int>(d)
           << "\": " << tl.keys_in_flight[static_cast<std::size_t>(d)][t];
      os << "}}";
    }
  }

  // Counter ("C") tracks, one series per cube dimension: keys still in
  // flight (Send increments, the matching Recv or Drop decrements) and
  // cumulative wire busy time. A message's dimensions come from src^dst —
  // the minimal route — which matches the charged path except on adaptive
  // detours, where the track is an under-approximation.
  const cube::Dim track_dims =
      opts.cost != nullptr && num_nodes > 1
          ? static_cast<cube::Dim>(std::bit_width(num_nodes - 1))
          : 0;
  std::vector<std::uint64_t> in_flight(static_cast<std::size_t>(track_dims),
                                       0);
  std::vector<double> busy(static_cast<std::size_t>(track_dims), 0.0);
  const auto put_counter = [&](const char* name, SimTime ts, bool time_track) {
    sep();
    put_event_common(os, name, "link", "C", ts, 0);
    os << ", \"args\": {";
    for (cube::Dim d = 0; d < track_dims; ++d) {
      os << (d != 0 ? ", " : "") << "\"dim" << static_cast<int>(d) << "\": ";
      if (time_track)
        put_double(os, busy[static_cast<std::size_t>(d)]);
      else
        os << in_flight[static_cast<std::size_t>(d)];
    }
    os << "}}";
  };
  // Apply one message event to the counters; true when anything changed.
  const auto account = [&](const TraceEvent& ev, bool starting) {
    std::uint32_t diff = (ev.node ^ ev.peer) & (num_nodes - 1);
    bool busy_changed = false;
    bool flight_changed = false;
    while (diff != 0) {
      const auto d = static_cast<std::size_t>(std::countr_zero(diff));
      diff &= diff - 1;
      if (d >= static_cast<std::size_t>(track_dims)) continue;
      if (starting) {
        in_flight[d] += ev.keys;
        busy[d] += opts.cost->t_startup +
                   opts.cost->t_transfer * static_cast<double>(ev.keys);
        busy_changed = true;
      } else {
        in_flight[d] -= std::min<std::uint64_t>(in_flight[d], ev.keys);
      }
      flight_changed = true;
    }
    if (flight_changed) put_counter("keys_in_flight", ev.time, false);
    if (busy_changed) put_counter("link_busy_us", ev.time, true);
  };

  // Flow ids: sends enqueue, receives dequeue (per-channel FIFO matches the
  // simulator's delivery order). Dropped messages never produce a Recv, so
  // their pending ids are simply never bound — Perfetto ignores an
  // unterminated flow.
  std::unordered_map<std::uint64_t, std::deque<std::uint64_t>> pending;
  std::uint64_t next_flow = 1;
  for (const TraceEvent& ev : events) {
    switch (ev.kind) {
      case EventKind::SpanBegin:
        sep();
        put_event_common(os, phase_name(ev.phase), "phase", "B", ev.time,
                         ev.node);
        os << "}";
        break;
      case EventKind::SpanEnd:
        sep();
        put_event_common(os, phase_name(ev.phase), "phase", "E", ev.time,
                         ev.node);
        os << "}";
        break;
      case EventKind::Send: {
        const std::uint64_t id = next_flow++;
        pending[flow_channel(ev.node, ev.peer, ev.tag)].push_back(id);
        sep();
        put_event_common(os, "msg", "msg", "s", ev.time, ev.node);
        os << ", \"id\": " << id << ", \"args\": {\"tag\": " << ev.tag
           << ", \"keys\": " << ev.keys << ", \"hops\": " << ev.hops
           << ", \"dst\": " << ev.peer << "}}";
        if (track_dims != 0) account(ev, true);
        break;
      }
      case EventKind::Recv: {
        auto it = pending.find(flow_channel(ev.peer, ev.node, ev.tag));
        if (it != pending.end() && !it->second.empty()) {
          const std::uint64_t id = it->second.front();
          it->second.pop_front();
          sep();
          put_event_common(os, "msg", "msg", "f", ev.time, ev.node);
          os << ", \"id\": " << id << ", \"bp\": \"e\", \"args\": "
                "{\"tag\": "
             << ev.tag << ", \"keys\": " << ev.keys
             << ", \"src\": " << ev.peer << "}}";
        }
        if (track_dims != 0) account(ev, false);
        break;
      }
      case EventKind::Drop:
        sep();
        put_event_common(os, "drop", "fault", "i", ev.time, ev.node);
        os << ", \"s\": \"t\", \"args\": {\"src\": " << ev.peer
           << ", \"tag\": " << ev.tag << ", \"keys\": " << ev.keys << "}}";
        // The dropped payload leaves the wire at its would-be arrival.
        if (track_dims != 0) account(ev, false);
        break;
      case EventKind::Timeout:
        // The phase rides along so offline consumers (ftdiag explain) can
        // reconstruct which paper step the expiry interrupted.
        sep();
        put_event_common(os, "timeout", "fault", "i", ev.time, ev.node);
        os << ", \"s\": \"t\", \"args\": {\"src\": " << ev.peer
           << ", \"tag\": " << ev.tag << ", \"phase\": \""
           << phase_name(ev.phase) << "\"}}";
        break;
      case EventKind::Kill:
        sep();
        put_event_common(os, "kill", "fault", "i", ev.time, ev.node);
        os << ", \"s\": \"t\", \"args\": {\"phase\": \""
           << phase_name(ev.phase) << "\"}}";
        break;
      case EventKind::Compute:
        // Folded into the enclosing phase slice; a per-comparison-batch
        // event would dwarf the interesting structure.
        break;
    }
  }
  os << "\n]}\n";
}

bool validate_chrome_trace(const std::string& json, std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  const util::json::ParseResult parsed = util::json::parse(json);
  if (!parsed.ok()) return fail("invalid JSON: " + parsed.error);
  const util::json::Value& doc = parsed.value;
  if (doc.find("displayTimeUnit") == nullptr)
    return fail("missing displayTimeUnit");
  const util::json::Value* events = doc.find("traceEvents");
  if (events == nullptr) return fail("missing traceEvents");
  if (!events->is_array()) return fail("traceEvents is not an array");
  if (events->items().empty()) return fail("no events");

  std::map<double, long> span_balance;  // tid -> open B spans
  std::set<double> open_flows;          // ids of started flows
  for (std::size_t i = 0; i < events->items().size(); ++i) {
    const auto bad = [&](const char* what) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "%s: traceEvents[%zu]", what, i);
      return fail(buf);
    };
    const util::json::Value& ev = events->items()[i];
    const std::string& name = ev["name"].string();
    const std::string& ph = ev["ph"].string();
    if (name.empty()) return bad("event without name");
    if (ph != "M" && ph != "B" && ph != "E" && ph != "s" && ph != "f" &&
        ph != "i" && ph != "C")
      return bad("unknown ph in event");
    if (ev.find("pid") == nullptr) return bad("event without pid");
    if (ph == "M") continue;  // metadata carries no timestamp
    if (ph == "C") {
      // Counter samples are process-scoped: ts plus an args payload, no
      // thread binding required.
      if (!ev["ts"].is_number()) return bad("counter without ts");
      if (ev.find("args") == nullptr) return bad("counter without args");
      continue;
    }
    const util::json::Value& tid = ev["tid"];
    if (!tid.is_number()) return bad("event without tid");
    if (!ev["ts"].is_number()) return bad("event without ts");
    const util::json::Value& id = ev["id"];
    if (ph == "B") {
      ++span_balance[tid.number()];
    } else if (ph == "E") {
      if (--span_balance[tid.number()] < 0)
        return bad("span end without begin");
    } else if (ph == "s") {
      if (!id.is_number()) return bad("flow start without id");
      open_flows.insert(id.number());
    } else if (ph == "f") {
      if (!id.is_number() || open_flows.count(id.number()) == 0)
        return bad("flow end without matching start");
    } else if (ph == "i") {
      if ((name == "timeout" || name == "kill") &&
          ev["args"].find("phase") == nullptr)
        return bad("fault instant without phase");
    }
  }
  for (const auto& [tid, balance] : span_balance)
    if (balance != 0) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "unclosed span on tid %g", tid);
      return fail(buf);
    }
  return true;
}

void write_metrics_json(std::ostream& os, const RunReport& report) {
  // Schema history: v1 = PR 3 (totals/pool_delta/critical_path/phases);
  // v2 adds the detect/post-recovery makespan split, the flight-recorder
  // eviction count, the failure diagnosis, and the host profile; v3 adds
  // the per-dimension link-traffic rollup and the §3 re-index audit; v4
  // adds the cost-model block (name, routing mode, constants) so diffs can
  // refuse to compare runs charged under different models; v5 adds the
  // recovery-latency decomposition and the sim-time sampler timeline
  // (both `"enabled": false` stubs when not recorded); v6 adds the
  // key-lineage provenance block (custody audit, per-dimension hop
  // conservation, top travelers, capped per-key custody trails — an
  // `"enabled": false` stub when not recorded); v7 adds the wall-clock
  // watchdog block (policy, deadline/interval echo, trip and near-miss
  // counts — an `"enabled": false` stub when not armed).
  os << "{\n  \"schema_version\": " << util::kMetricsSchemaVersion
     << ",\n  \"cost_model\": {\"name\": \""
     << report.cost.name() << "\", \"routing\": \"" << report.cost.mode_name()
     << "\", \"t_compare\": ";
  put_double(os, report.cost.t_compare);
  os << ", \"t_transfer\": ";
  put_double(os, report.cost.t_transfer);
  os << ", \"t_startup\": ";
  put_double(os, report.cost.t_startup);
  os << "},\n  \"makespan\": ";
  put_double(os, report.makespan);
  // Detection watermark: the last recv_or_timeout expiry. Everything before
  // it is fault detection (timeout-constant dominated); everything after is
  // real post-recovery sort work.
  SimTime detect = 0.0;
  for (const Diagnosis::Wait& w : report.diagnosis.waits)
    if (w.expired && w.time > detect) detect = w.time;
  detect = std::min(detect, report.makespan);
  os << ",\n  \"makespan_detect\": ";
  put_double(os, detect);
  os << ",\n  \"makespan_post_recovery\": ";
  put_double(os, report.makespan - detect);
  os << ",\n  \"totals\": {\"messages\": " << report.messages
     << ", \"keys_sent\": " << report.keys_sent
     << ", \"key_hops\": " << report.key_hops
     << ", \"comparisons\": " << report.comparisons
     << ", \"messages_dropped\": " << report.messages_dropped
     << ", \"timeouts\": " << report.timeouts << "},\n";
  os << "  \"pool_delta\": {\"checkouts\": " << report.pool_delta.checkouts
     << ", \"heap_allocations\": " << report.pool_delta.heap_allocations()
     << ", \"returns\": " << report.pool_delta.returns << "},\n";
  os << "  \"trace_dropped\": " << report.trace_dropped << ",\n";
  const RecoveryLatency& rl = report.recovery_latency;
  if (!rl.enabled) {
    os << "  \"recovery_latency\": {\"enabled\": false},\n";
  } else {
    os << "  \"recovery_latency\": {\"enabled\": true, \"detection_total\": ";
    put_double(os, rl.detection_total());
    os << ", \"roll_call_total\": ";
    put_double(os, rl.roll_call_total());
    os << ", \"salvage_total\": ";
    put_double(os, rl.salvage_total());
    os << ", \"restart_total\": ";
    put_double(os, rl.restart_total());
    os << ",\n    \"episodes\": [";
    for (std::size_t i = 0; i < rl.episodes.size(); ++i) {
      const RecoveryEpisode& ep = rl.episodes[i];
      os << (i != 0 ? ",\n" : "\n") << "      {\"attempt\": " << ep.attempt
         << ", \"dead\": [";
      for (std::size_t j = 0; j < ep.dead.size(); ++j)
        os << (j != 0 ? ", " : "") << ep.dead[j];
      os << "], \"inject\": ";
      put_double(os, ep.inject);
      os << ", \"detect_first\": ";
      put_double(os, ep.detect_first);
      os << ", \"detect_confirm\": ";
      put_double(os, ep.detect_confirm);
      os << ", \"rollcall_end\": ";
      put_double(os, ep.rollcall_end);
      os << ", \"salvage_end\": ";
      put_double(os, ep.salvage_end);
      os << ", \"restart_end\": ";
      put_double(os, ep.restart_end);
      os << "}";
    }
    os << "\n    ]},\n";
  }
  const TimelineSnapshot& tl = report.timeline;
  if (!tl.enabled) {
    os << "  \"timeline\": {\"enabled\": false},\n";
  } else {
    os << "  \"timeline\": {\"enabled\": true, \"tick\": ";
    put_double(os, tl.tick);
    os << ", \"ticks\": " << tl.ticks << ", \"dropped\": " << tl.dropped
       << ",\n    \"samples\": [";
    for (std::size_t t = 0; t < tl.ticks; ++t) {
      os << (t != 0 ? ",\n" : "\n") << "      {\"t\": ";
      put_double(os, static_cast<double>(t) * tl.tick);
      os << ", \"queue_depth\": " << tl.total_queue_depth(t)
         << ", \"pool_in_use\": " << tl.total_pool_in_use(t)
         << ", \"keys_in_flight\": [";
      for (cube::Dim d = 0; d < tl.dim; ++d)
        os << (d != 0 ? ", " : "")
           << tl.keys_in_flight[static_cast<std::size_t>(d)][t];
      os << "], \"phase_mix\": {";
      // Nodes per phase at this tick, enum order, zero counts elided;
      // nodes outside their active interval count as "idle".
      std::size_t idle = 0;
      std::array<std::size_t, kPhaseCount> mix{};
      for (std::uint32_t u = 0; u < tl.num_nodes; ++u) {
        const std::uint8_t p = tl.phase[u][t];
        if (p == TimelineSnapshot::kIdle)
          ++idle;
        else
          ++mix[p];
      }
      bool first_phase = true;
      for (std::size_t p = 0; p < kPhaseCount; ++p) {
        if (mix[p] == 0) continue;
        os << (first_phase ? "" : ", ") << "\""
           << phase_name(static_cast<Phase>(p)) << "\": " << mix[p];
        first_phase = false;
      }
      if (idle != 0)
        os << (first_phase ? "" : ", ") << "\"idle\": " << idle;
      os << "}}";
    }
    os << "\n    ]},\n";
  }
  const LinkStatsSnapshot& links = report.links;
  if (links.empty()) {
    os << "  \"links\": {\"enabled\": false},\n";
  } else {
    const LinkCell total = links.grand_total();
    os << "  \"links\": {\"enabled\": true, \"dim\": "
       << static_cast<int>(links.dim) << ", \"num_nodes\": " << links.num_nodes
       << ", \"total\": {\"traversals\": " << total.traversals
       << ", \"key_hops\": " << total.key_hops << ", \"busy\": ";
    put_double(os, link_busy_time(total, report.cost));
    os << "},\n    \"per_dimension\": [";
    const std::vector<double> util =
        dimension_utilization(links, report.cost, report.makespan);
    for (cube::Dim d = 0; d < links.dim; ++d) {
      const LinkCell cell = links.dim_total(d);
      os << (d != 0 ? ",\n" : "\n") << "      {\"dim\": "
         << static_cast<int>(d) << ", \"traversals\": " << cell.traversals
         << ", \"key_hops\": " << cell.key_hops << ", \"busy\": ";
      put_double(os, link_busy_time(cell, report.cost));
      os << ", \"utilization\": ";
      put_double(os, util[static_cast<std::size_t>(d)]);
      os << "}";
    }
    os << "\n    ]},\n";
  }
  const ReindexAudit& audit = report.reindex_audit;
  if (!audit.enabled) {
    os << "  \"reindex_audit\": {\"enabled\": false},\n";
  } else {
    const auto put_int_array = [&](const std::vector<int>& v) {
      os << "[";
      for (std::size_t i = 0; i < v.size(); ++i)
        os << (i != 0 ? ", " : "") << v[i];
      os << "]";
    };
    os << "  \"reindex_audit\": {\"enabled\": true, \"measured_h\": ";
    put_int_array(audit.measured_h);
    os << ", \"measured_total\": " << audit.measured_total
       << ", \"measured_all_h\": ";
    put_int_array(audit.measured_all_h);
    os << ", \"measured_all_total\": " << audit.measured_all_total
       << ",\n    \"candidates\": [";
    for (std::size_t i = 0; i < audit.candidates.size(); ++i) {
      const ReindexAudit::Candidate& c = audit.candidates[i];
      os << (i != 0 ? ",\n" : "\n") << "      {\"cuts\": [";
      for (std::size_t j = 0; j < c.cuts.size(); ++j)
        os << (j != 0 ? ", " : "") << static_cast<int>(c.cuts[j]);
      os << "], \"predicted_h\": ";
      put_int_array(c.predicted_h);
      os << ", \"predicted_total\": " << c.predicted_total << ", \"chosen\": "
         << (c.chosen ? "true" : "false") << "}";
    }
    os << "\n    ]},\n";
  }
  const LineageSnapshot& lin = report.lineage;
  if (!lin.enabled) {
    os << "  \"lineage\": {\"enabled\": false},\n";
  } else {
    os << "  \"lineage\": {\"enabled\": true, \"dim\": "
       << static_cast<int>(lin.dim) << ", \"assigned\": " << lin.assigned
       << ", \"dummies\": " << lin.dummies
       << ", \"dropped_events\": " << lin.dropped_events
       << ", \"resolve_mismatches\": " << lin.resolve_mismatches
       << ",\n    \"hops_by_dim\": [";
    for (cube::Dim d = 0; d < lin.dim; ++d)
      os << (d != 0 ? ", " : "") << lin.hops_by_dim(d);
    os << "], \"untracked\": [";
    for (cube::Dim d = 0; d < lin.dim; ++d)
      os << (d != 0 ? ", " : "")
         << lin.untracked[static_cast<std::size_t>(d)];
    os << "], \"untracked_total\": " << lin.untracked_total();
    const LineageAudit& la = lin.audit;
    os << ",\n    \"audit\": {\"checked\": " << (la.checked ? "true" : "false")
       << ", \"ok\": " << (la.ok ? "true" : "false")
       << ", \"salvaged\": " << la.salvaged
       << ", \"witnessed_salvaged\": " << la.witnessed_salvaged
       << ", \"lost\": [";
    for (std::size_t i = 0; i < la.lost.size(); ++i) {
      const LineageAudit::LostKey& lk = la.lost[i];
      os << (i != 0 ? ", " : "") << "{\"id\": " << lk.id << ", \"value\": "
         << lk.value << ", \"last_holder\": " << lk.last_holder
         << ", \"phase\": \"" << phase_name(lk.phase) << "\"}";
    }
    os << "], \"duplicated\": [";
    for (std::size_t i = 0; i < la.duplicated.size(); ++i)
      os << (i != 0 ? ", " : "") << "{\"value\": " << la.duplicated[i].value
         << ", \"extra\": " << la.duplicated[i].extra << "}";
    os << "]},\n    \"top_travelers\": [";
    // The kLineageTopTravelers ids with the most link crossings — the quick
    // skew read without parsing the full per-key detail. Ties break by id.
    std::vector<std::size_t> order(lin.keys.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return lin.keys[a].hops_total() >
                              lin.keys[b].hops_total();
                     });
    const std::size_t top =
        std::min<std::size_t>(kLineageTopTravelers, order.size());
    for (std::size_t i = 0; i < top; ++i) {
      const LineageKeyRecord& k = lin.keys[order[i]];
      os << (i != 0 ? ", " : "") << "{\"id\": " << order[i] << ", \"value\": "
         << k.value << ", \"hops\": " << k.hops_total()
         << ", \"moves\": " << k.moves << ", \"holder\": " << k.holder << "}";
    }
    os << "],\n    \"keys_total\": " << lin.keys.size()
       << ", \"keys_emitted\": "
       << std::min<std::size_t>(lin.keys.size(), kLineageDetailCap)
       << ",\n    \"keys\": [";
    // Per-key detail, capped: custody chains as compact trail strings
    // ("<code>,node,peer,step,phase;…" — see lineage_event_code), which keeps
    // the document line-parsable without a JSON tree.
    const std::size_t emit =
        std::min<std::size_t>(lin.keys.size(), kLineageDetailCap);
    for (std::size_t id = 0; id < emit; ++id) {
      const LineageKeyRecord& k = lin.keys[id];
      os << (id != 0 ? ",\n" : "\n") << "      {\"id\": " << id
         << ", \"value\": " << k.value << ", \"origin\": " << k.origin
         << ", \"holder\": " << k.holder << ", \"dummy\": "
         << (k.dummy ? "true" : "false") << ", \"retired\": "
         << (k.retired ? "true" : "false") << ", \"lost\": "
         << (k.lost ? "true" : "false") << ", \"salvaged\": "
         << (k.salvaged ? "true" : "false") << ", \"witness\": ";
      if (k.witness == kLineageNoWitness)
        os << -1;
      else
        os << k.witness;
      os << ", \"witness_step\": " << k.witness_step
         << ", \"moves\": " << k.moves << ", \"hops\": " << k.hops_total()
         << ", \"trail\": \"";
      for (std::size_t e = 0; e < k.chain.size(); ++e) {
        const LineageEvent& ev = k.chain[e];
        os << (e != 0 ? ";" : "") << lineage_event_code(ev.kind) << ","
           << ev.node << "," << ev.peer << "," << ev.step << ","
           << phase_name(ev.phase);
      }
      os << "\"}";
    }
    os << "\n    ]},\n";
  }
  const Diagnosis& diag = report.diagnosis;
  os << "  \"diagnosis\": {\"triggered\": "
     << (diag.triggered() ? "true" : "false") << ", \"kind\": \""
     << diagnosis_kind_name(diag.kind) << "\", \"root_kind\": \""
     << diagnosis_root_kind_name(diag.root_kind)
     << "\", \"root_node\": " << diag.root_node
     << ", \"root_peer\": " << diag.root_peer << ", \"root_time\": ";
  put_double(os, diag.root_time);
  os << ", \"root_phase\": \"" << phase_name(diag.root_phase)
     << "\", \"waits\": " << diag.waits.size() << ", \"stalled\": [";
  for (std::size_t i = 0; i < diag.stalled.size(); ++i)
    os << (i != 0 ? ", " : "") << diag.stalled[i];
  os << "]},\n";
  const SchedShardProfile sched = report.host.total();
  os << "  \"host_profile\": {\"enabled\": "
     << (report.host.enabled ? "true" : "false")
     << ", \"mutex_waits\": " << sched.mutex_waits
     << ", \"mutex_wait_ns\": " << sched.mutex_wait_ns
     << ", \"cv_waits\": " << sched.cv_waits
     << ", \"cv_wakeups\": " << sched.cv_wakeups
     << ", \"spurious_wakeups\": " << sched.spurious_wakeups
     << ", \"tasks_resumed\": " << sched.tasks_resumed
     << ", \"quiescence_checks\": " << report.host.quiescence_checks
     << ", \"quiescence_events\": " << report.host.quiescence_events
     << ", \"pool_contended\": " << report.host.pool_contended
     << ", \"pool_contended_wait_ns\": "
     << report.host.pool_contended_wait_ns << "},\n";
  // Only the config echo and the trip counts: both are zero on every
  // healthy run, so the block stays byte-identical across executors and
  // never leaks wall-clock ages into comparable exports.
  const WatchdogReport& wd = report.watchdog;
  if (!wd.enabled) {
    os << "  \"watchdog\": {\"enabled\": false},\n";
  } else {
    os << "  \"watchdog\": {\"enabled\": true, \"policy\": \""
       << (wd.abort_on_trip ? "abort" : "record")
       << "\", \"deadline_ms\": " << wd.deadline_ms
       << ", \"interval_ms\": " << wd.interval_ms
       << ", \"trips\": " << wd.trips
       << ", \"near_misses\": " << wd.near_misses << "},\n";
  }
  os << "  \"critical_path\": {\"available\": "
     << (report.phases.has_critical_path ? "true" : "false")
     << ", \"total\": ";
  put_double(os, report.phases.critical_total);
  os << "},\n  \"phases\": [";
  bool first = true;
  for (const PhaseBreakdown::Slice& s : report.phases.slices) {
    os << (first ? "\n" : ",\n") << "    {\"phase\": \""
       << phase_name(s.phase) << "\", ";
    first = false;
    put_counters(os, s.counters);
    os << ", \"critical_time\": ";
    put_double(os, s.critical_time);
    os << ", \"critical_comm\": ";
    put_double(os, s.critical_comm);
    os << ", \"critical_compute\": ";
    put_double(os, s.critical_compute);
    os << "}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace ftsort::sim
