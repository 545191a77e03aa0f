// Wall-clock watchdog suite (sim/watchdog.hpp): the generic heartbeat
// monitor, both Machine executors under an induced host-level stall, the
// determinism contract (armed watchdog changes no exported byte beyond
// its own config echo), the campaign integration (per-trial + pool
// watchdog, cancellation, partial reports), and the `ftdiag stuck`
// decode of a real dump.
//
// Timing discipline: tests that must NOT trip use deadlines orders of
// magnitude above any plausible scheduling hiccup (and the monitor's
// measured-progress scaling raises the bar further on slow CI); tests
// that MUST trip induce multi-hundred-ms silences against sub-200 ms
// deadlines, a 4x+ margin on the other side.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "core/ft_sorter.hpp"
#include "fault/scenario.hpp"
#include "sim/exporters.hpp"
#include "sim/machine.hpp"
#include "sim/watchdog.hpp"
#include "sort/distribution.hpp"
#include "tools/ftdiag.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace ftsort {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Generic monitor behavior, no Machine involved.

TEST(WatchdogUnit, HealthyBeatsNeverTrip) {
  sim::WatchdogConfig cfg;
  cfg.enabled = true;
  cfg.interval_ms = 5;
  cfg.deadline_ms = 10'000;
  sim::Watchdog wd(cfg);
  const std::size_t slot = wd.add_slot("pulse");
  wd.start();
  for (int i = 0; i < 30; ++i) {
    wd.beat(slot, static_cast<std::uint64_t>(i));
    std::this_thread::sleep_for(2ms);
  }
  wd.stop();
  EXPECT_FALSE(wd.tripped());
  const sim::WatchdogReport rep = wd.report();
  EXPECT_TRUE(rep.enabled);
  EXPECT_EQ(rep.trips, 0u);
  EXPECT_EQ(rep.near_misses, 0u);
  EXPECT_GE(rep.polls, 1u);
  ASSERT_EQ(rep.slots.size(), 1u);
  EXPECT_EQ(rep.slots[0].label, "pulse");
  EXPECT_EQ(rep.slots[0].beats, 30u);
}

TEST(WatchdogUnit, AbortPolicyTripsOnSilenceAndLatches) {
  sim::WatchdogConfig cfg;
  cfg.enabled = true;
  cfg.interval_ms = 5;
  cfg.deadline_ms = 60;
  cfg.abort_on_trip = true;
  sim::Watchdog wd(cfg);
  wd.add_slot("silent");
  std::atomic<int> trips_seen{0};
  wd.on_trip([&trips_seen] { trips_seen.fetch_add(1); });
  wd.start();
  const auto t0 = std::chrono::steady_clock::now();
  while (!wd.tripped() &&
         std::chrono::steady_clock::now() - t0 < 5s)
    std::this_thread::sleep_for(5ms);
  EXPECT_TRUE(wd.tripped());
  wd.stop();
  EXPECT_EQ(trips_seen.load(), 1);
  const sim::WatchdogReport rep = wd.report();
  EXPECT_EQ(rep.trips, 1u);
  EXPECT_GE(rep.stall_ms, 60u);
  EXPECT_GE(rep.effective_deadline_ms, 60u);
}

TEST(WatchdogUnit, RecordPolicyCountsNearMissesAndKeepsMonitoring) {
  sim::WatchdogConfig cfg;
  cfg.enabled = true;
  cfg.interval_ms = 5;
  cfg.deadline_ms = 40;
  cfg.abort_on_trip = false;
  sim::Watchdog wd(cfg);
  const std::size_t slot = wd.add_slot("bursty");
  wd.start();
  std::this_thread::sleep_for(200ms);  // >> deadline: at least one breach
  wd.beat(slot);                       // then progress resumes
  std::this_thread::sleep_for(20ms);
  wd.stop();
  EXPECT_FALSE(wd.tripped());  // record policy never latches
  const sim::WatchdogReport rep = wd.report();
  EXPECT_EQ(rep.trips, 0u);
  EXPECT_GE(rep.near_misses, 1u);
}

TEST(WatchdogUnit, DisabledConfigIsAFullNoOp) {
  sim::Watchdog wd(sim::WatchdogConfig{});  // enabled = false
  const std::size_t slot = wd.add_slot("idle");
  wd.start();  // no monitor thread
  wd.beat(slot);
  wd.stop();
  EXPECT_FALSE(wd.tripped());
  EXPECT_EQ(wd.report().polls, 0u);
}

TEST(WatchdogUnit, TerminalSlotsAreMarkedInTheCapture) {
  sim::WatchdogConfig cfg;
  cfg.enabled = true;
  cfg.interval_ms = 5;
  cfg.deadline_ms = 10'000;
  sim::Watchdog wd(cfg);
  const std::size_t a = wd.add_slot("a");
  const std::size_t b = wd.add_slot("b");
  wd.start();
  wd.beat(a, 3);
  wd.beat(b, sim::Watchdog::kActivityTerminal);
  std::this_thread::sleep_for(30ms);  // let the monitor observe both
  wd.stop();
  const sim::WatchdogReport rep = wd.report();
  ASSERT_EQ(rep.slots.size(), 2u);
  EXPECT_FALSE(rep.slots[0].terminal);
  EXPECT_TRUE(rep.slots[1].terminal);
  EXPECT_EQ(rep.slots[1].activity, "terminal");
}

// ---------------------------------------------------------------------------
// Machine integration: an induced host-level stall (a node program that
// wedges the host thread in a wall-clock sleep — invisible to the
// logical deadlock detector, which only sees blocked receives).

fault::FaultSet no_faults(cube::Dim n) { return fault::FaultSet(n); }

sim::WatchdogConfig trippy_config(const std::string& dump_path = {}) {
  sim::WatchdogConfig cfg;
  cfg.enabled = true;
  cfg.interval_ms = 5;
  cfg.deadline_ms = 150;
  cfg.abort_on_trip = true;
  cfg.dump_path = dump_path;
  return cfg;
}

TEST(WatchdogMachine, ThreadedTripNamesTheWedgedNodeAndDumps) {
  const std::string dump = testing::TempDir() + "wd_threaded_dump.json";
  sim::Machine machine(1, no_faults(1));  // Q_1: nodes 0 and 1
  machine.set_watchdog(trippy_config(dump));
  const auto program = [](sim::NodeCtx& ctx) -> sim::Task {
    if (ctx.id() == 0) std::this_thread::sleep_for(700ms);
    co_return;
  };
  try {
    machine.run_threaded(program);
    FAIL() << "expected WatchdogError";
  } catch (const sim::WatchdogError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("watchdog tripped"), std::string::npos) << what;
    EXPECT_NE(what.find("node 0"), std::string::npos) << what;
    EXPECT_EQ(e.report().trips, 1u);
    // The breach-time capture blames the wedged node, not the finished one.
    bool node0_live = false;
    for (const sim::WatchdogSlotView& s : e.report().slots)
      if (s.label == "node 0") node0_live = !s.terminal;
    EXPECT_TRUE(node0_live);
  }
  // The black-box dump decodes to the same verdict via ftdiag stuck.
  const std::ifstream probe(dump);
  ASSERT_TRUE(probe.good()) << "dump file missing: " << dump;
  const char* argv[] = {"ftdiag", "stuck", dump.c_str()};
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(tools::run_cli(3, argv, out, err), 1) << err.str();
  EXPECT_NE(out.str().find("most silent: node 0"), std::string::npos)
      << out.str();
}

TEST(WatchdogMachine, SequentialTripThrowsWatchdogErrorNotDeadlock) {
  sim::Machine machine(1, no_faults(1));
  machine.set_watchdog(trippy_config());
  const auto program = [](sim::NodeCtx& ctx) -> sim::Task {
    if (ctx.id() == 0) std::this_thread::sleep_for(700ms);
    co_return;
  };
  EXPECT_THROW(machine.run(program), sim::WatchdogError);
}

TEST(WatchdogMachine, TripDumpCarriesTheTraceTail) {
  const std::string dump = testing::TempDir() + "wd_trace_tail_dump.json";
  sim::Machine machine(1, no_faults(1));
  machine.trace().enable();
  // A healthy run first: its events stay in the recorder, but the stalled
  // run's dump must not carry them.
  const auto ping = [](sim::NodeCtx& ctx) -> sim::Task {
    if (ctx.id() == 0) {
      ctx.send(1, 1, {7});
    } else {
      (void)co_await ctx.recv(0, 1);
    }
    co_return;
  };
  machine.run(ping);
  const std::uint64_t run_start = machine.trace().snapshot().size();
  ASSERT_GT(run_start, 0u);

  // Node 0 records 81 events (more than the 64-event tail), then wedges.
  machine.set_watchdog(trippy_config(dump));
  const auto program = [](sim::NodeCtx& ctx) -> sim::Task {
    if (ctx.id() == 0) {
      for (int i = 0; i < 80; ++i) ctx.charge_compares(1);
      ctx.send(1, 1, {7});
      std::this_thread::sleep_for(700ms);
    } else {
      (void)co_await ctx.recv(0, 1);
    }
    co_return;
  };
  EXPECT_THROW(machine.run(program), sim::WatchdogError);

  const util::json::ParseResult parsed = util::json::parse_file(dump);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const std::vector<util::json::Value>& tail =
      parsed.value["trace_tail"].items();
  ASSERT_EQ(tail.size(), 64u);
  double prev = -1.0;
  for (const util::json::Value& ev : tail) {
    const double seq = ev["seq"].number(-1.0);
    EXPECT_GE(seq, static_cast<double>(run_start));
    EXPECT_GT(seq, prev);
    prev = seq;
  }
  // The newest event is the send, the 81st event of the stalled run.
  EXPECT_EQ(prev, static_cast<double>(run_start + 80));
  EXPECT_EQ(tail.back()["kind"].string(), "send");

  const char* argv[] = {"ftdiag", "stuck", dump.c_str()};
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(tools::run_cli(3, argv, out, err), 1) << err.str();
}

TEST(WatchdogMachine, UnwritableDumpPathIsReported) {
  const std::string dump =
      testing::TempDir() + "wd_no_such_dir/wd_unwritable_dump.json";
  sim::Machine machine(1, no_faults(1));
  machine.set_watchdog(trippy_config(dump));
  const auto program = [](sim::NodeCtx& ctx) -> sim::Task {
    if (ctx.id() == 0) std::this_thread::sleep_for(700ms);
    co_return;
  };
  try {
    machine.run(program);
    FAIL() << "expected WatchdogError";
  } catch (const sim::WatchdogError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("; dump: "), std::string::npos) << what;
    EXPECT_NE(what.find("; dump not written: " + dump), std::string::npos)
        << what;
  }
  EXPECT_FALSE(std::ifstream(dump).good());
}

TEST(WatchdogMachine, HealthyRunReportsZeroTripsAndArmedConfig) {
  sim::Machine machine(1, no_faults(1));
  sim::WatchdogConfig cfg;
  cfg.enabled = true;       // generous deadline: must never trip
  cfg.deadline_ms = 60'000;
  machine.set_watchdog(cfg);
  const auto program = [](sim::NodeCtx& ctx) -> sim::Task {
    if (ctx.id() == 0) {
      ctx.send(1, 1, {7});
    } else {
      (void)co_await ctx.recv(0, 1);
    }
    co_return;
  };
  const sim::RunReport rep = machine.run(program);
  EXPECT_TRUE(rep.watchdog.enabled);
  EXPECT_EQ(rep.watchdog.trips, 0u);
  EXPECT_EQ(rep.watchdog.near_misses, 0u);
}

// ---------------------------------------------------------------------------
// Determinism: arming the watchdog changes nothing but its own config
// echo in the metrics export, with every instrument recording, and the
// executors still agree on every logical result while armed.

core::SortOutcome sort_fig7(core::Executor exec, bool watchdog) {
  util::Rng rng(1706);
  const fault::FaultSet faults = fault::random_faults(6, 2, rng);
  const auto keys = sort::gen_uniform(1'600, rng);
  core::SortConfig cfg;
  cfg.protocol = sort::ExchangeProtocol::FullExchange;
  cfg.executor = exec;
  cfg.record_metrics = true;
  cfg.record_trace = true;
  cfg.record_link_stats = true;
  cfg.record_timeline = true;
  cfg.record_lineage = true;
  if (watchdog) {
    cfg.watchdog.enabled = true;
    cfg.watchdog.deadline_ms = 60'000;
  }
  const core::FaultTolerantSorter sorter(6, faults, cfg);
  return sorter.sort(keys);
}

TEST(WatchdogDeterminism, MetricsJsonIdenticalModuloTheWatchdogBlock) {
  std::ostringstream off_os;
  std::ostringstream on_os;
  sim::write_metrics_json(off_os,
                          sort_fig7(core::Executor::Sequential, false).report);
  sim::write_metrics_json(on_os,
                          sort_fig7(core::Executor::Sequential, true).report);
  const std::string off = off_os.str();
  std::string on = on_os.str();
  const std::string armed =
      "\"watchdog\": {\"enabled\": true, \"policy\": \"abort\", "
      "\"deadline_ms\": 60000, \"interval_ms\": 25, \"trips\": 0, "
      "\"near_misses\": 0}";
  const std::size_t at = on.find(armed);
  ASSERT_NE(at, std::string::npos) << on.substr(0, 400);
  on.replace(at, armed.size(), "\"watchdog\": {\"enabled\": false}");
  EXPECT_EQ(on, off);
}

TEST(WatchdogDeterminism, ExecutorsAgreeByteForByteWhileArmed) {
  const core::SortOutcome seq = sort_fig7(core::Executor::Sequential, true);
  const core::SortOutcome thr = sort_fig7(core::Executor::Threaded, true);
  EXPECT_EQ(seq.sorted, thr.sorted);
  EXPECT_DOUBLE_EQ(seq.report.makespan, thr.report.makespan);
  EXPECT_EQ(seq.report.comparisons, thr.report.comparisons);
  EXPECT_EQ(seq.report.messages, thr.report.messages);
  EXPECT_EQ(seq.report.keys_sent, thr.report.keys_sent);
  EXPECT_EQ(seq.report.watchdog.trips, 0u);
  EXPECT_EQ(thr.report.watchdog.trips, 0u);
}

// ---------------------------------------------------------------------------
// Campaign integration.

campaign::CampaignConfig small_campaign() {
  campaign::CampaignConfig cfg;
  cfg.universe.n = 3;
  cfg.universe.r_max = 1;
  cfg.universe.scenarios = 4;
  cfg.universe.num_keys = 64;
  cfg.seed = 99;
  cfg.workers = 2;
  return cfg;
}

std::string campaign_json(const campaign::CampaignReport& report) {
  std::ostringstream os;
  campaign::write_campaign_json(os, report);
  return os.str();
}

TEST(WatchdogCampaign, ReportBytesIndependentOfTheWatchdog) {
  const campaign::CampaignReport off = campaign::run_campaign(small_campaign());
  campaign::CampaignConfig armed = small_campaign();
  armed.watchdog.enabled = true;
  armed.watchdog.deadline_ms = 60'000;
  const campaign::CampaignReport on = campaign::run_campaign(armed);
  EXPECT_EQ(campaign_json(off), campaign_json(on));
  EXPECT_EQ(on.watchdog_trips, 0u);
  EXPECT_EQ(on.watchdog_near_misses, 0u);
  EXPECT_FALSE(on.partial);
}

TEST(WatchdogCampaign, PreCancelledSweepYieldsAnEmptyPartialReport) {
  campaign::CampaignConfig cfg = small_campaign();
  const std::atomic<bool> cancel{true};  // set before the pool starts
  cfg.cancel = &cancel;
  const campaign::CampaignReport report = campaign::run_campaign(cfg);
  EXPECT_TRUE(report.partial);
  EXPECT_TRUE(report.trials.empty());
  const std::string json = campaign_json(report);
  EXPECT_NE(json.find("\"partial\": true"), std::string::npos);
}

TEST(WatchdogCampaign, ProgressCallbackSeesTheFinishedSweep) {
  campaign::CampaignConfig cfg = small_campaign();
  cfg.progress_interval_ms = 10;
  std::atomic<std::uint32_t> last_done{0};
  std::atomic<std::uint32_t> total{0};
  cfg.on_progress = [&](const campaign::CampaignProgress& p) {
    last_done.store(p.done);
    total.store(p.total);
  };
  const campaign::CampaignReport report = campaign::run_campaign(cfg);
  // The final sample (after the pool joins) must report the whole sweep.
  EXPECT_EQ(last_done.load(), cfg.universe.trials());
  EXPECT_EQ(total.load(), cfg.universe.trials());
  EXPECT_EQ(report.trials.size(), cfg.universe.trials());
}

TEST(WatchdogCampaign, CampaignJsonCarriesTheWatchdogRollup) {
  const campaign::CampaignReport report =
      campaign::run_campaign(small_campaign());
  const std::string json = campaign_json(report);
  EXPECT_NE(json.find("\"watchdog\": {\"trips\": 0, \"near_misses\": 0}"),
            std::string::npos);
  EXPECT_NE(json.find("\"partial\": false"), std::string::npos);
  EXPECT_NE(json.find("\"watchdog_trips\": 0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Dump rendering + ftdiag stuck, end to end on a synthetic report.

TEST(WatchdogDump, RenderIsByteStableAndCarriesTheMarker) {
  sim::WatchdogReport rep;
  rep.enabled = true;
  rep.abort_on_trip = true;
  rep.deadline_ms = 100;
  rep.interval_ms = 10;
  rep.trips = 1;
  rep.stall_ms = 432;
  rep.effective_deadline_ms = 100;
  rep.slots.push_back({"node 2", 17, 432, "merge_exchange", false});
  rep.slots.push_back({"node 0", 23, 5, "terminal", true});
  const std::string a =
      sim::render_watchdog_dump(rep, sim::WatchdogDumpContext{});
  const std::string b =
      sim::render_watchdog_dump(rep, sim::WatchdogDumpContext{});
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"watchdog_dump\": true"), std::string::npos);
  EXPECT_NE(a.find("\"schema_version\": 1"), std::string::npos);

  const tools::StuckResult res = tools::stuck_report(a);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.trips, 1u);
  ASSERT_EQ(res.slots.size(), 2u);
  // Most-silent-first, terminals last.
  EXPECT_EQ(res.slots[0].slot, "node 2");
  EXPECT_FALSE(res.slots[0].terminal);
  EXPECT_TRUE(res.slots[1].terminal);
  EXPECT_NE(res.text.find("most silent: node 2"), std::string::npos);
}

TEST(WatchdogDump, RendersEveryBlockByteForByte) {
  // Every block of a dump: two heartbeat slots (one terminal, one label
  // that needs escaping), a triggered diagnosis, an enabled host profile
  // and a three-event trace tail. The literal was captured from the
  // revision before the dump went through util::json::Writer.
  sim::WatchdogReport rep;
  rep.enabled = true;
  rep.abort_on_trip = false;
  rep.deadline_ms = 150;
  rep.interval_ms = 5;
  rep.trips = 1;
  rep.near_misses = 2;
  rep.stall_ms = 731;
  rep.effective_deadline_ms = 160;
  rep.slots.push_back({"node 1", 41, 731, "step5_merge_exchange", false});
  rep.slots.push_back({"pool \"main\" \\ 0", 9, 3, "terminal", true});

  sim::Diagnosis diag;
  diag.kind = sim::Diagnosis::Kind::Deadlock;
  diag.root_kind = sim::Diagnosis::RootKind::NodeKill;
  diag.root_node = 6;
  diag.root_time = 2000.5;
  diag.root_phase = sim::Phase::MergeExchange;
  diag.stalled = {2, 4, 7};

  sim::HostProfile host;
  host.enabled = true;
  host.shards.resize(2);
  host.shards[0].tasks_resumed = 10;
  host.shards[0].cv_waits = 3;
  host.shards[0].mutex_waits = 1;
  host.shards[1].tasks_resumed = 5;
  host.shards[1].cv_waits = 2;
  host.quiescence_checks = 4;
  host.quiescence_events = 1;

  const std::vector<sim::TraceEvent> tail = {
      {0.1, 2, sim::EventKind::SpanBegin, 0, 0, 0, 0,
       sim::Phase::MergeExchange, 17},
      {1999.75, 2, sim::EventKind::Send, 6, 3, 25, 1,
       sim::Phase::MergeExchange, 18},
      {2000.5, 6, sim::EventKind::Kill, 0, 0, 0, 0,
       sim::Phase::MergeExchange, 19}};

  sim::WatchdogDumpContext ctx;
  ctx.origin = "machine";
  ctx.diagnosis = &diag;
  ctx.host = &host;
  ctx.trace_tail = &tail;
  const std::string expected = R"json({
  "watchdog_dump": true,
  "schema_version": 1,
  "origin": "machine",
  "policy": "record",
  "deadline_ms": 150,
  "effective_deadline_ms": 160,
  "interval_ms": 5,
  "trips": 1,
  "near_misses": 2,
  "stall_ms": 731,
  "heartbeats": [
    {"slot": "node 1", "beats": 41, "age_ms": 731, "activity": "step5_merge_exchange", "terminal": false},
    {"slot": "pool \"main\" \\ 0", "beats": 9, "age_ms": 3, "activity": "terminal", "terminal": true}
  ],
  "diagnosis": {"triggered": true, "kind": "deadlock", "root_kind": "node_kill", "root_node": 6, "root_phase": "step5_merge_exchange", "stalled": [2, 4, 7], "summary": "diagnosis[deadlock]: root cause: injected kill of node 6 at t=2000.5us during phase step5_merge_exchange; stalled (transitively): [2, 4, 7]"},
  "host_profile": {"shards": 2, "tasks_resumed": 15, "cv_waits": 5, "mutex_waits": 1, "quiescence_checks": 4, "quiescence_events": 1},
  "trace_tail": [
    {"seq": 17, "time": 0.10000000000000001, "node": 2, "kind": "span_begin", "phase": "step5_merge_exchange"},
    {"seq": 18, "time": 1999.75, "node": 2, "kind": "send", "phase": "step5_merge_exchange"},
    {"seq": 19, "time": 2000.5, "node": 6, "kind": "kill", "phase": "step5_merge_exchange"}
  ]
}
)json";
  EXPECT_EQ(sim::render_watchdog_dump(rep, ctx), expected);
}

TEST(WatchdogDump, StuckRefusesNonDumpsAndNewerSchemas) {
  const tools::StuckResult not_dump = tools::stuck_report("{\"x\": 1}");
  EXPECT_FALSE(not_dump.ok);
  EXPECT_NE(not_dump.error.find("watchdog_dump"), std::string::npos);

  const tools::StuckResult newer = tools::stuck_report(
      "{\"watchdog_dump\": true, \"schema_version\": 99, "
      "\"heartbeats\": []}");
  EXPECT_FALSE(newer.ok);
  EXPECT_NE(newer.error.find("reads up to v1"), std::string::npos)
      << newer.error;
}

}  // namespace
}  // namespace ftsort
