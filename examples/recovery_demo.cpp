// Online recovery demo: a processor dies in the middle of the sort — after
// the bitonic phase is already under way — and the machine finishes anyway.
//
// The run is replayed on both executors to show the logical histories are
// identical, then once more with the event trace on so the death, the
// timeouts it causes, and the restart are visible.
//
//   $ ./recovery_demo [--n 4] [--keys 4000] [--victim 11] [--when-pct 50]
//
// Pass `--trace out.json` to save the traced run in Chrome trace_events
// format (open at ui.perfetto.dev: one track per node, the recovery stages
// as nested spans, message flows as arrows) and `--metrics metrics.json`
// for the phase-attributed counter breakdown.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <span>
#include <vector>

#include "core/ft_sorter.hpp"
#include "sim/exporters.hpp"
#include "sort/distribution.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace ftsort;

  util::CliParser cli("recovery_demo",
                      "kill a processor mid-sort and recover online");
  cli.add_int("n", 4, "hypercube dimension");
  cli.add_int("keys", 4'000, "number of keys");
  cli.add_int("victim", 11, "processor to kill");
  cli.add_int("when-pct", 50,
              "kill time as a percentage of the fault-free makespan");
  cli.add_int("seed", 7, "random seed");
  cli.add_string("trace", "",
                 "write the traced run as Chrome/Perfetto trace JSON");
  cli.add_string("metrics", "",
                 "write the traced run's phase metrics as JSON");
  cli.add_flag("timeline",
               "sample queue/pool/in-flight series over sim time (adds "
               "timeline counter tracks to --trace and a timeline block "
               "to --metrics)");
  cli.add_flag("lineage",
               "track per-key custody through the kill and salvage (adds "
               "the audit verdict below and a lineage block to --metrics)");
  if (!cli.parse(argc, argv)) return 1;

  const auto n = static_cast<cube::Dim>(cli.integer("n"));
  const auto victim = static_cast<cube::NodeId>(cli.integer("victim"));
  if (victim >= cube::num_nodes(n)) {
    std::cerr << "error: --victim " << victim << " is not a node of Q_"
              << n << " (valid: 0.." << cube::num_nodes(n) - 1 << ")\n";
    return 1;
  }
  util::Rng rng(static_cast<std::uint64_t>(cli.integer("seed")));
  const auto keys =
      sort::gen_uniform(static_cast<std::size_t>(cli.integer("keys")), rng);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());

  // Fault-free recovery-mode run: the yardstick for the kill time.
  core::SortConfig base;
  base.online_recovery = true;
  core::FaultTolerantSorter calm(n, fault::FaultSet(n), base);
  const auto calm_out = calm.sort(keys);
  const sim::SimTime t0 = calm_out.report.makespan;
  std::cout << "fault-free run:    makespan " << t0 / 1000.0 << " ms, "
            << calm_out.report.messages << " messages\n";

  // Scale the patience tiers to this workload so the detection latency does
  // not dwarf the sort itself (the defaults are sized for arbitrary
  // workloads). The detect tier must stay above the natural clock skew
  // between live partners — re-scattered blocks arrive staggered — so one
  // full fault-free makespan is the conservative choice.
  base.recovery.detect_patience = 1.0 * t0;
  base.recovery.collect_patience = 2.5 * t0;
  base.recovery.verdict_patience = 50.0 * t0;

  const double frac =
      static_cast<double>(cli.integer("when-pct")) / 100.0;
  const sim::SimTime when = frac * t0;
  std::cout << "injecting:         kill node " << victim << " at "
            << when / 1000.0 << " ms (" << cli.integer("when-pct")
            << "% of the fault-free makespan)\n\n";

  for (const auto& [exec, label] :
       {std::pair{core::Executor::Sequential, "sequential"},
        std::pair{core::Executor::Threaded, "threaded  "}}) {
    core::SortConfig cfg = base;
    cfg.executor = exec;
    cfg.injector.kill_node_at(victim, when);
    core::FaultTolerantSorter sorter(n, fault::FaultSet(n), cfg);
    core::SortOutcome out;
    try {
      out = sorter.sort(keys);
    } catch (const core::DegradationError& e) {
      std::cout << label << " run:    " << e.what() << '\n';
      continue;
    }
    std::cout << label << " run:    makespan " << out.report.makespan / 1000.0
              << " ms, " << out.report.messages << " messages, "
              << out.report.timeouts << " timeouts, killed:";
    for (auto u : out.report.killed_nodes) std::cout << ' ' << u;
    std::cout << ", sorted: "
              << (out.sorted == expected ? "yes" : "NO — BUG") << '\n';
  }

  // Once more with the trace on, to watch the machinery work.
  core::SortConfig traced = base;
  traced.record_trace = true;
  traced.record_metrics = true;   // per-phase counters for --metrics
  traced.record_link_stats = true;  // traffic matrix + counter tracks
  if (cli.flag("timeline")) {
    traced.record_timeline = true;
    // ~1000 samples across the run: the fault-free makespan is the best
    // available scale estimate (recovery stretches it, which just means
    // a few more ticks).
    traced.timeline_tick = std::max(1.0, t0 / 1000.0);
  }
  if (cli.flag("lineage")) traced.record_lineage = true;
  traced.injector.kill_node_at(victim, when);
  core::FaultTolerantSorter sorter(n, fault::FaultSet(n), traced);
  core::SortOutcome out;
  try {
    out = sorter.sort(keys);
  } catch (const core::DegradationError& e) {
    // This fault load is unrecoverable (e.g. the coordinator was killed, or
    // too many deaths for a single-fault partition): the protocol's promise
    // is a clean error either way, which is what we just demonstrated.
    std::cout << "\nthis fault is beyond online recovery — the run ends "
                 "with a clean error instead of a wrong answer:\n  "
              << e.what() << '\n';
    return 0;
  }
  std::cout << "\nrecovery overhead: "
            << (out.report.makespan - t0) / 1000.0 << " ms ("
            << 100.0 * (out.report.makespan - t0) / t0
            << "% over the fault-free run)\n";
  if (out.report.diagnosis.triggered())
    std::cout << "\nwhat the flight recorder saw:\n  "
              << out.report.diagnosis.to_string() << '\n';
  if (out.report.recovery_latency.enabled) {
    std::cout << "\nwhere the recovery time went (per episode, ms):\n";
    for (const sim::RecoveryEpisode& ep :
         out.report.recovery_latency.episodes) {
      std::cout << "  attempt " << ep.attempt << " (dead:";
      for (auto u : ep.dead) std::cout << ' ' << u;
      std::cout << "): detect " << ep.detection() / 1000.0 << ", roll-call "
                << ep.roll_call() / 1000.0 << ", salvage "
                << ep.salvage() / 1000.0 << ", restart "
                << ep.restart() / 1000.0 << '\n';
    }
  }
  if (out.report.lineage.enabled) {
    const sim::LineageSnapshot& lin = out.report.lineage;
    std::cout << "\nkey custody (lineage): " << lin.assigned
              << " ids tracked, " << lin.audit.salvaged
              << " salvaged off the dead node ("
              << lin.audit.witnessed_salvaged
              << " through a recorded witness)\n"
              << "  audit: "
              << (lin.audit.ok ? "OK — every key in the output exactly once"
                               : "VIOLATED")
              << " (" << lin.audit.lost.size() << " lost, "
              << lin.audit.duplicated.size() << " duplicated)\n";
    // The farthest-travelled keys: custody moves are where the recovery
    // re-scatter shows up per key.
    std::vector<std::size_t> order(lin.keys.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return lin.keys[a].hops_total() >
                              lin.keys[b].hops_total();
                     });
    std::cout << "  top travelers:";
    for (std::size_t i = 0; i < order.size() && i < 3; ++i) {
      const sim::LineageKeyRecord& k = lin.keys[order[i]];
      std::cout << (i != 0 ? "," : "") << " id " << order[i] << " ("
                << k.hops_total() << " hops, " << k.moves << " moves"
                << (k.salvaged ? ", salvaged" : "") << ")";
    }
    std::cout << '\n';
  }

  std::cout << "\nevent trace around the death (timeout = a survivor "
               "detecting the loss):\n";
  // Show only the interesting kinds; the full trace is huge. Recovery
  // traces are long (two sorts plus the negotiation), so the first 50,000
  // events are searched until the death and the restart are visible. Only
  // the lines printed are formatted.
  std::size_t shown = 0;
  const std::span<const sim::TraceEvent> events(
      out.trace_events.data(),
      std::min<std::size_t>(out.trace_events.size(), 50'000));
  for (const sim::TraceEvent& ev : events) {
    if (shown == 24) break;
    if (ev.kind != sim::EventKind::Kill &&
        ev.kind != sim::EventKind::Timeout &&
        ev.kind != sim::EventKind::Drop)
      continue;
    std::cout << "  " << sim::format_trace(std::span(&ev, 1));
    ++shown;
  }

  if (!cli.str("trace").empty()) {
    std::ofstream tf(cli.str("trace"));
    // With the cost model attached the export adds per-dimension counter
    // tracks: watch keys_in_flight spike on the dimensions the recovery
    // re-scatter crosses.
    const sim::ChromeTraceOptions topts{
        .cost = &out.report.cost,
        .trace_dropped = out.report.trace_dropped,
        .timeline = &out.report.timeline,
        .lineage = &out.report.lineage};
    sim::write_chrome_trace(tf, out.trace_events, cube::num_nodes(n), topts);
    std::cout << "\nwrote trace: " << cli.str("trace")
              << " (open at ui.perfetto.dev)\n";
  }
  if (!cli.str("metrics").empty()) {
    std::ofstream mf(cli.str("metrics"));
    sim::write_metrics_json(mf, out.report);
    std::cout << "wrote metrics: " << cli.str("metrics") << '\n';
  }
  return out.sorted == expected ? 0 : 1;
}
