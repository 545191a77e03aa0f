#include "sim/exporters.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <deque>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>

#include "sim/link_stats.hpp"
#include "util/json.hpp"
#include "util/schema.hpp"

namespace ftsort::sim {

namespace {

using util::json::Writer;
constexpr auto kLines = Writer::Layout::Lines;

/// Open a metadata event; the caller adds its members and closes it.
Writer& begin_meta(Writer& w, const char* name) {
  return w.begin_object().fields("name", name, "ph", "M", "pid", 0);
}

/// Open a timed event; the caller adds its members and closes it.
Writer& begin_event(Writer& w, const char* name, const char* cat,
                    const char* ph, SimTime ts, cube::NodeId tid) {
  return w.begin_object().fields("name", name, "cat", cat, "ph", ph, "ts",
                                 ts, "pid", 0, "tid", tid);
}

/// Open the "args" object of the event being written.
Writer& args(Writer& w) { return w.key("args").begin_object(); }

std::string dim_key(cube::Dim d) { return "dim" + std::to_string(d); }

}  // namespace

void write_chrome_trace(std::ostream& os,
                        const std::vector<TraceEvent>& events,
                        std::uint32_t num_nodes,
                        const ChromeTraceOptions& opts) {
  // One event per line, unindented: the trace_events "JSON Array Format".
  Writer w(os, /*indent=*/0);
  w.begin_object().fields("displayTimeUnit", "ms").key("traceEvents");
  w.begin_array(kLines);
  for (std::uint32_t u = 0; u < num_nodes; ++u) {
    args(begin_meta(w, "thread_name").fields("tid", u));
    w.fields("name", "node " + std::to_string(u)).end().end();
  }
  args(begin_meta(w, "process_name")).fields("name", "hypercube").end().end();
  args(begin_meta(w, "trace_dropped"));
  w.fields("count", opts.trace_dropped).end().end();
  if (opts.lineage != nullptr && opts.lineage->enabled) {
    const LineageSnapshot& lin = *opts.lineage;
    args(begin_meta(w, "lineage_summary"));
    w.fields("assigned", lin.assigned, "dummies", lin.dummies,
             "audit_checked", lin.audit.checked, "audit_ok", lin.audit.ok,
             "lost", lin.audit.lost.size(), "duplicated",
             lin.audit.duplicated.size(), "salvaged", lin.audit.salvaged,
             "witnessed_salvaged", lin.audit.witnessed_salvaged,
             "untracked_hops", lin.untracked_total());
    w.end().end();
  }

  // Sim-time sampler tracks (sim/timeline.hpp): one counter sample per
  // tick boundary. Emitted up front — Perfetto orders by ts, and the
  // sampler's series are complete even when the event stream below was
  // ring-truncated.
  if (opts.timeline != nullptr && opts.timeline->enabled) {
    const TimelineSnapshot& tl = *opts.timeline;
    for (std::size_t t = 0; t < tl.ticks; ++t) {
      const SimTime ts = static_cast<double>(t) * tl.tick;
      args(begin_event(w, "timeline_queue_depth", "timeline", "C", ts, 0));
      w.fields("messages", tl.total_queue_depth(t)).end().end();
      args(begin_event(w, "timeline_pool_in_use", "timeline", "C", ts, 0));
      w.fields("buffers", tl.total_pool_in_use(t)).end().end();
      args(begin_event(w, "timeline_keys_in_flight", "timeline", "C", ts, 0));
      for (cube::Dim d = 0; d < tl.dim; ++d)
        w.fields(dim_key(d), tl.keys_in_flight[static_cast<std::size_t>(d)][t]);
      w.end().end();
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
  const auto put_counter = [&](const char* name, SimTime ts, auto& series) {
    args(begin_event(w, name, "link", "C", ts, 0));
    for (cube::Dim d = 0; d < track_dims; ++d)
      w.fields(dim_key(d), series[static_cast<std::size_t>(d)]);
    w.end().end();
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
    if (flight_changed) put_counter("keys_in_flight", ev.time, in_flight);
    if (busy_changed) put_counter("link_busy_us", ev.time, busy);
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
      case EventKind::SpanEnd:
        begin_event(w, phase_name(ev.phase), "phase",
                    ev.kind == EventKind::SpanBegin ? "B" : "E", ev.time,
                    ev.node)
            .end();
        break;
      case EventKind::Send: {
        const std::uint64_t id = next_flow++;
        pending[flow_key(ev.node, ev.peer, ev.tag)].push_back(id);
        args(begin_event(w, "msg", "msg", "s", ev.time, ev.node)
                 .fields("id", id));
        w.fields("tag", ev.tag, "keys", ev.keys, "hops", ev.hops, "dst",
                 ev.peer);
        w.end().end();
        if (track_dims != 0) account(ev, true);
        break;
      }
      case EventKind::Recv: {
        auto it = pending.find(flow_key(ev.peer, ev.node, ev.tag));
        if (it != pending.end() && !it->second.empty()) {
          const std::uint64_t id = it->second.front();
          it->second.pop_front();
          args(begin_event(w, "msg", "msg", "f", ev.time, ev.node)
                   .fields("id", id, "bp", "e"));
          w.fields("tag", ev.tag, "keys", ev.keys, "src", ev.peer).end().end();
        }
        if (track_dims != 0) account(ev, false);
        break;
      }
      case EventKind::Drop:
        args(begin_event(w, "drop", "fault", "i", ev.time, ev.node)
                 .fields("s", "t"));
        w.fields("src", ev.peer, "tag", ev.tag, "keys", ev.keys).end().end();
        // The dropped payload leaves the wire at its would-be arrival.
        if (track_dims != 0) account(ev, false);
        break;
      case EventKind::Timeout:
        // The phase rides along so offline consumers (ftdiag explain) can
        // reconstruct which paper step the expiry interrupted.
        args(begin_event(w, "timeout", "fault", "i", ev.time, ev.node)
                 .fields("s", "t"));
        w.fields("src", ev.peer, "tag", ev.tag, "phase", phase_name(ev.phase));
        w.end().end();
        break;
      case EventKind::Kill:
        args(begin_event(w, "kill", "fault", "i", ev.time, ev.node)
                 .fields("s", "t"));
        w.fields("phase", phase_name(ev.phase)).end().end();
        break;
      case EventKind::Compute:
        // Folded into the enclosing phase slice; a per-comparison-batch
        // event would dwarf the interesting structure.
        break;
    }
  }
  w.end().end();
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
  // counts — an `"enabled": false` stub when not armed); v8 drops the host
  // profile's two payload-pool contention counters: a pool has one owner
  // and no lock.
  Writer w(os);
  w.begin_object(kLines);
  // Open block `name` with its "enabled" flag; a disabled block is only
  // that flag, and the caller writes the rest of an enabled one.
  const auto block = [&w](const char* name, bool enabled) {
    w.key(name).begin_object().fields("enabled", enabled);
    if (!enabled) w.end();
    return enabled;
  };
  w.fields("schema_version", util::kMetricsSchemaVersion);
  w.key("cost_model").begin_object();
  w.fields("name", report.cost.name(), "routing", report.cost.mode_name(),
           "t_compare", report.cost.t_compare, "t_transfer",
           report.cost.t_transfer, "t_startup", report.cost.t_startup);
  w.end();
  // Everything before the detection watermark is fault detection
  // (timeout-constant dominated); everything after is real post-recovery
  // sort work.
  const SimTime detect = detect_time(report);
  w.fields("makespan", report.makespan, "makespan_detect", detect,
           "makespan_post_recovery", report.makespan - detect);
  w.key("totals").begin_object();
  w.fields("messages", report.messages, "keys_sent", report.keys_sent,
           "key_hops", report.key_hops, "comparisons", report.comparisons,
           "messages_dropped", report.messages_dropped, "timeouts",
           report.timeouts);
  w.end().key("pool_delta").begin_object();
  w.fields("checkouts", report.pool_delta.checkouts, "heap_allocations",
           report.pool_delta.heap_allocations(), "returns",
           report.pool_delta.returns);
  w.end().fields("trace_dropped", report.trace_dropped);
  const RecoveryLatency& rl = report.recovery_latency;
  if (block("recovery_latency", rl.enabled)) {
    w.fields("detection_total", rl.detection_total(), "roll_call_total",
             rl.roll_call_total(), "salvage_total", rl.salvage_total(),
             "restart_total", rl.restart_total());
    w.line().key("episodes").begin_array(kLines);
    for (const RecoveryEpisode& ep : rl.episodes) {
      w.begin_object();
      w.fields("attempt", ep.attempt, "dead", ep.dead, "inject", ep.inject,
               "detect_first", ep.detect_first, "detect_confirm",
               ep.detect_confirm, "rollcall_end", ep.rollcall_end,
               "salvage_end", ep.salvage_end, "restart_end", ep.restart_end);
      w.end();
    }
    w.end().end();
  }
  const TimelineSnapshot& tl = report.timeline;
  if (block("timeline", tl.enabled)) {
    w.fields("tick", tl.tick, "ticks", tl.ticks, "dropped", tl.dropped);
    w.line().key("samples").begin_array(kLines);
    for (std::size_t t = 0; t < tl.ticks; ++t) {
      w.begin_object().fields("t", static_cast<double>(t) * tl.tick,
                              "queue_depth", tl.total_queue_depth(t),
                              "pool_in_use", tl.total_pool_in_use(t));
      w.key("keys_in_flight").begin_array();
      for (const std::vector<std::int64_t>& series : tl.keys_in_flight)
        w.value(series[t]);
      w.end().key("phase_mix").begin_object();
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
      for (std::size_t p = 0; p < kPhaseCount; ++p)
        if (mix[p] != 0) w.fields(phase_name(static_cast<Phase>(p)), mix[p]);
      if (idle != 0) w.fields("idle", idle);
      w.end().end();
    }
    w.end().end();
  }
  const LinkStatsSnapshot& links = report.links;
  if (block("links", !links.empty())) {
    const LinkCell total = links.grand_total();
    w.fields("dim", links.dim, "num_nodes", links.num_nodes);
    w.key("total").begin_object();
    w.fields("traversals", total.traversals, "key_hops", total.key_hops,
             "busy", link_busy_time(total, report.cost));
    w.end().line().key("per_dimension").begin_array(kLines);
    const std::vector<double> util =
        dimension_utilization(links, report.cost, report.makespan);
    for (cube::Dim d = 0; d < links.dim; ++d) {
      const LinkCell cell = links.dim_total(d);
      w.begin_object();
      w.fields("dim", d, "traversals", cell.traversals, "key_hops",
               cell.key_hops, "busy", link_busy_time(cell, report.cost),
               "utilization", util[static_cast<std::size_t>(d)]);
      w.end();
    }
    w.end().end();
  }
  const ReindexAudit& audit = report.reindex_audit;
  if (block("reindex_audit", audit.enabled)) {
    w.fields("measured_h", audit.measured_h, "measured_total",
             audit.measured_total, "measured_all_h", audit.measured_all_h,
             "measured_all_total", audit.measured_all_total);
    w.line().key("candidates").begin_array(kLines);
    for (const ReindexAudit::Candidate& c : audit.candidates) {
      w.begin_object();
      w.fields("cuts", c.cuts, "predicted_h", c.predicted_h,
               "predicted_total", c.predicted_total, "chosen", c.chosen);
      w.end();
    }
    w.end().end();
  }
  const LineageSnapshot& lin = report.lineage;
  if (block("lineage", lin.enabled)) {
    w.fields("dim", lin.dim, "assigned", lin.assigned, "dummies",
             lin.dummies, "dropped_events", lin.dropped_events,
             "resolve_mismatches", lin.resolve_mismatches);
    w.line().key("hops_by_dim").begin_array();
    for (cube::Dim d = 0; d < lin.dim; ++d) w.value(lin.hops_by_dim(d));
    w.end().fields("untracked", lin.untracked, "untracked_total",
                   lin.untracked_total());
    const LineageAudit& la = lin.audit;
    w.line().key("audit").begin_object();
    w.fields("checked", la.checked, "ok", la.ok, "salvaged", la.salvaged,
             "witnessed_salvaged", la.witnessed_salvaged);
    w.key("lost").begin_array();
    for (const LineageAudit::LostKey& lk : la.lost) {
      w.begin_object();
      w.fields("id", lk.id, "value", lk.value, "last_holder", lk.last_holder,
               "phase", phase_name(lk.phase));
      w.end();
    }
    w.end().key("duplicated").begin_array();
    for (const LineageAudit::DuplicatedValue& dv : la.duplicated)
      w.begin_object().fields("value", dv.value, "extra", dv.extra).end();
    w.end().end();
    // The kLineageTopTravelers ids with the most link crossings — the quick
    // skew read without parsing the full per-key detail. Ties break by id.
    std::vector<std::size_t> order(lin.keys.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return lin.keys[a].hops_total() >
                              lin.keys[b].hops_total();
                     });
    order.resize(std::min<std::size_t>(kLineageTopTravelers, order.size()));
    w.line().key("top_travelers").begin_array();
    for (const std::size_t id : order) {
      const LineageKeyRecord& k = lin.keys[id];
      w.begin_object();
      w.fields("id", id, "value", k.value, "hops", k.hops_total(), "moves",
               k.moves, "holder", k.holder);
      w.end();
    }
    const std::size_t emit =
        std::min<std::size_t>(lin.keys.size(), kLineageDetailCap);
    w.end().line().fields("keys_total", lin.keys.size(), "keys_emitted",
                          emit);
    w.line().key("keys").begin_array(kLines);
    // Per-key detail, capped: custody chains as compact trail strings
    // ("<code>,node,peer,step,phase;…" — see lineage_event_code), which keeps
    // the document line-parsable without a JSON tree.
    for (std::size_t id = 0; id < emit; ++id) {
      const LineageKeyRecord& k = lin.keys[id];
      std::ostringstream trail;
      for (std::size_t e = 0; e < k.chain.size(); ++e) {
        const LineageEvent& ev = k.chain[e];
        trail << (e != 0 ? ";" : "") << lineage_event_code(ev.kind) << ","
              << ev.node << "," << ev.peer << "," << ev.step << ","
              << phase_name(ev.phase);
      }
      w.begin_object();
      w.fields("id", id, "value", k.value, "origin", k.origin, "holder",
               k.holder, "dummy", k.dummy, "retired", k.retired, "lost",
               k.lost, "salvaged", k.salvaged, "witness",
               k.witness == kLineageNoWitness ? std::int64_t{-1}
                                              : std::int64_t{k.witness},
               "witness_step", k.witness_step, "moves", k.moves, "hops",
               k.hops_total(), "trail", trail.str());
      w.end();
    }
    w.end().end();
  }
  const Diagnosis& diag = report.diagnosis;
  w.key("diagnosis").begin_object();
  w.fields("triggered", diag.triggered(), "kind",
           diagnosis_kind_name(diag.kind), "root_kind",
           diagnosis_root_kind_name(diag.root_kind), "root_node",
           diag.root_node, "root_peer", diag.root_peer, "root_time",
           diag.root_time, "root_phase", phase_name(diag.root_phase),
           "waits", diag.waits.size(), "stalled", diag.stalled);
  const SchedShardProfile sched = report.host.total();
  w.end().key("host_profile").begin_object();
  w.fields("enabled", report.host.enabled, "mutex_waits", sched.mutex_waits,
           "mutex_wait_ns", sched.mutex_wait_ns, "cv_waits", sched.cv_waits,
           "cv_wakeups", sched.cv_wakeups, "spurious_wakeups",
           sched.spurious_wakeups, "tasks_resumed", sched.tasks_resumed,
           "quiescence_checks", report.host.quiescence_checks,
           "quiescence_events", report.host.quiescence_events);
  w.end();
  // Only the config echo and the trip counts: both are zero on every
  // healthy run, so the block stays byte-identical across executors and
  // never leaks wall-clock ages into comparable exports.
  const WatchdogReport& wd = report.watchdog;
  if (block("watchdog", wd.enabled)) {
    w.fields("policy", wd.abort_on_trip ? "abort" : "record", "deadline_ms",
             wd.deadline_ms, "interval_ms", wd.interval_ms, "trips",
             wd.trips, "near_misses", wd.near_misses);
    w.end();
  }
  w.key("critical_path").begin_object();
  w.fields("available", report.phases.has_critical_path, "total",
           report.phases.critical_total);
  w.end().key("phases").begin_array(kLines);
  for (const PhaseBreakdown::Slice& s : report.phases.slices) {
    const PhaseCounters& pc = s.counters;
    w.begin_object();
    w.fields("phase", phase_name(s.phase), "messages", pc.messages,
             "keys_sent", pc.keys_sent, "key_hops", pc.key_hops,
             "comparisons", pc.comparisons, "recvs", pc.recvs,
             "keys_received", pc.keys_received, "messages_dropped",
             pc.messages_dropped, "timeouts", pc.timeouts, "pool_checkouts",
             pc.pool_checkouts, "send_busy", pc.send_busy, "compute_time",
             pc.compute_time, "recv_wait", pc.recv_wait, "msg_size_hist",
             pc.msg_size_hist, "critical_time", s.critical_time,
             "critical_comm", s.critical_comm, "critical_compute",
             s.critical_compute);
    w.end();
  }
  w.end().end();
}

}  // namespace ftsort::sim
