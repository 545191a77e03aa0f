// Golden-report regression tests.
//
// The buffer-pooled message path and the scratch-buffer merge kernels are
// pure performance changes: every RunReport field and every output key must
// stay byte-identical to the pre-pool seed. The hexfloat constants below
// were captured from the seed revision (commit cac260b) with a one-off
// probe binary; hexfloat round-trips doubles exactly, so EXPECT_EQ on the
// parsed values is a bit-for-bit comparison. If an intentional cost-model
// or protocol change ever shifts these numbers, re-capture them with the
// same four scenarios and say so in the commit message.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <sstream>
#include <string_view>
#include <vector>

#include "core/ft_sorter.hpp"
#include "sim/exporters.hpp"
#include "sort/distribution.hpp"
#include "util/rng.hpp"

namespace ftsort {
namespace {

struct Golden {
  double makespan;
  std::uint64_t messages;
  std::uint64_t keys_sent;
  std::uint64_t key_hops;
  std::uint64_t comparisons;
  std::uint64_t dropped;
  std::uint64_t timeouts;
  std::uint64_t key_checksum;
  std::vector<double> node_clocks;
};

double hexf(const char* s) { return std::strtod(s, nullptr); }

std::vector<double> hexf_list(std::initializer_list<const char*> ss) {
  std::vector<double> out;
  for (const char* s : ss) out.push_back(hexf(s));
  return out;
}

void expect_matches(const core::SortOutcome& outcome, const Golden& g) {
  const sim::RunReport& r = outcome.report;
  EXPECT_EQ(r.makespan, g.makespan);
  EXPECT_EQ(r.messages, g.messages);
  EXPECT_EQ(r.keys_sent, g.keys_sent);
  EXPECT_EQ(r.key_hops, g.key_hops);
  EXPECT_EQ(r.comparisons, g.comparisons);
  EXPECT_EQ(r.messages_dropped, g.dropped);
  EXPECT_EQ(r.timeouts, g.timeouts);
  ASSERT_EQ(r.node_clocks.size(), g.node_clocks.size());
  for (std::size_t i = 0; i < g.node_clocks.size(); ++i)
    EXPECT_EQ(r.node_clocks[i], g.node_clocks[i]) << "node " << i;
  std::uint64_t csum = 0;
  for (sort::Key k : outcome.sorted) csum += static_cast<std::uint64_t>(k);
  EXPECT_EQ(csum, g.key_checksum);
  EXPECT_TRUE(std::is_sorted(outcome.sorted.begin(), outcome.sorted.end()));
}

void run_scenario_offline_q3(core::Executor executor) {
  util::Rng rng(42);
  const auto keys = sort::gen_uniform(150, rng);
  core::SortConfig cfg;
  cfg.executor = executor;
  core::FaultTolerantSorter sorter(3, fault::FaultSet(3, {2}), cfg);
  const Golden g{
      hexf("0x1.eap+10"), 72, 792, 792, 2743, 0, 0, 22023536548815715u,
      hexf_list({"0x1.e8p+10", "0x1.e8p+10", "0x0p+0", "0x1.a3p+10",
                 "0x1.eap+10", "0x1.e68p+10", "0x1.e88p+10", "0x1.e8p+10"})};
  expect_matches(sorter.sort(keys), g);
}

void run_scenario_half_q4(core::Executor executor) {
  util::Rng rng(7);
  const auto keys = sort::gen_uniform(340, rng);
  core::SortConfig cfg;
  cfg.executor = executor;
  cfg.protocol = sort::ExchangeProtocol::HalfExchange;
  core::FaultTolerantSorter sorter(4, fault::FaultSet(4, {3, 12}), cfg);
  const Golden g{
      hexf("0x1.1a2p+12"), 250, 3200, 4350, 8825, 0, 0, 47440601626800935u,
      hexf_list({"0x1.fdp+11", "0x1.1a2p+12", "0x1.fccp+11", "0x0p+0",
                 "0x1.ff4p+11", "0x1.19ep+12", "0x1.fd4p+11", "0x1.0d2p+12",
                 "0x1.fdp+11", "0x1.198p+12", "0x1.fc8p+11", "0x1.01p+12",
                 "0x0p+0", "0x1.0dap+12", "0x1.d6cp+11", "0x1.0d2p+12"})};
  expect_matches(sorter.sort(keys), g);
}

void run_scenario_recovery(core::Executor executor) {
  util::Rng rng(11);
  const auto keys = sort::gen_uniform(200, rng);
  core::SortConfig cfg;
  cfg.executor = executor;
  cfg.online_recovery = true;
  cfg.injector.kill_node_at(6, 2000.0);
  core::FaultTolerantSorter sorter(3, fault::FaultSet(3, {5}), cfg);
  const Golden g{
      hexf("0x1.dcd773ep+29"), 95, 2486, 2967, 6831, 2, 2,
      27766693709941424u,
      hexf_list({"0x1.dcd7736p+29", "0x1.dcd7726p+29", "0x1.dcd772ap+29",
                 "0x1.dcd7732p+29", "0x1.dcd7732p+29", "0x0p+0",
                 "0x1.fap+10", "0x1.dcd773ep+29"})};
  expect_matches(sorter.sort(keys), g);
}

void run_scenario_fault_free(core::Executor executor) {
  util::Rng rng(3);
  const auto keys = sort::gen_uniform(512, rng);
  core::SortConfig cfg;
  cfg.executor = executor;
  cfg.protocol = sort::ExchangeProtocol::HalfExchange;
  core::FaultTolerantSorter sorter(4, fault::FaultSet(4, {}), cfg);
  const Golden g{
      hexf("0x1.1acp+12"), 320, 5120, 5120, 14844, 0, 0, 74301754807861173u,
      hexf_list({"0x1.19ep+12", "0x1.196p+12", "0x1.1acp+12", "0x1.198p+12",
                 "0x1.1ap+12", "0x1.19ap+12", "0x1.17ep+12", "0x1.17cp+12",
                 "0x1.18p+12", "0x1.18p+12", "0x1.18ep+12", "0x1.19ap+12",
                 "0x1.18ep+12", "0x1.198p+12", "0x1.196p+12", "0x1.19p+12"})};
  expect_matches(sorter.sort(keys), g);
}

// FNV-1a over the bytes of 64-bit words.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xffu;
    h *= 0x100000001b3u;
  }
  return h;
}

TEST(ReportGolden, SequentialTraceOrder) {
  // Pins the sequential scheduler's cross-node event order: every field
  // of every event of the offline-Q3 scenario, in seq order. Captured from
  // the revision before the scheduler loop was shared with the threaded
  // executor.
  util::Rng rng(42);
  const auto keys = sort::gen_uniform(150, rng);
  core::SortConfig cfg;
  cfg.record_trace = true;
  const core::SortOutcome outcome =
      core::FaultTolerantSorter(3, fault::FaultSet(3, {2}), cfg).sort(keys);
  std::uint64_t h = 0xcbf29ce484222325u;
  for (const sim::TraceEvent& ev : outcome.trace_events) {
    h = fnv1a(h, ev.seq);
    h = fnv1a(h, ev.node);
    h = fnv1a(h, static_cast<std::uint64_t>(ev.kind));
    h = fnv1a(h, ev.peer);
    h = fnv1a(h, ev.tag);
    h = fnv1a(h, ev.keys);
    h = fnv1a(h, static_cast<std::uint64_t>(ev.hops));
    h = fnv1a(h, static_cast<std::uint64_t>(ev.phase));
    h = fnv1a(h, std::bit_cast<std::uint64_t>(ev.time));
  }
  EXPECT_EQ(outcome.trace_events.size(), 251u);
  EXPECT_EQ(h, 4425312449373790709u);
}

// FNV-1a over every field of every event, in seq order.
std::uint64_t trace_hash(const std::vector<sim::TraceEvent>& events) {
  std::uint64_t h = 0xcbf29ce484222325u;
  for (const sim::TraceEvent& ev : events) {
    for (const std::uint64_t word :
         {ev.seq, std::uint64_t{ev.node}, static_cast<std::uint64_t>(ev.kind),
          std::uint64_t{ev.peer}, std::uint64_t{ev.tag}, ev.keys,
          static_cast<std::uint64_t>(ev.hops),
          static_cast<std::uint64_t>(ev.phase),
          std::bit_cast<std::uint64_t>(ev.time)})
      h = fnv1a(h, word);
  }
  return h;
}

TEST(ReportGolden, OfflineStepsTraceOrder) {
  // Pins the offline Steps 4-8 event by event: the paper's Example 1
  // (Q_5, faults {3, 5, 16, 24}; m = 3, s = 2), whose BitonicMerge Step 8
  // needs the reversal swap, and the same sort with the full exchange, the
  // FullSort Step 8 and the host I/O. Captured from the revision before
  // both sort engines walked one generated exchange schedule.
  util::Rng rng(5);
  const auto keys = sort::gen_uniform(200, rng);
  const fault::FaultSet faults(5, {3, 5, 16, 24});
  const auto traced = [&](core::SortConfig cfg) {
    cfg.record_trace = true;
    const core::FaultTolerantSorter sorter(5, faults, cfg);
    EXPECT_EQ(sorter.plan().m(), 3);
    EXPECT_EQ(sorter.plan().s(), 2);
    core::SortOutcome out = sorter.sort(keys);
    EXPECT_TRUE(std::is_sorted(out.sorted.begin(), out.sorted.end()));
    EXPECT_EQ(out.sorted.size(), keys.size());
    return out;
  };

  const core::SortOutcome merge = traced({});
  // The reversal swap is the only Step 8 send of a whole block.
  std::size_t swaps = 0;
  for (const sim::TraceEvent& ev : merge.trace_events)
    swaps += ev.kind == sim::EventKind::Send &&
             ev.phase == sim::Phase::Resort && ev.keys == merge.block_size;
  EXPECT_EQ(swaps, 48u);
  EXPECT_EQ(merge.trace_events.size(), 3096u);
  EXPECT_EQ(trace_hash(merge.trace_events), 3076363338952024243u);

  core::SortConfig full;
  full.protocol = sort::ExchangeProtocol::FullExchange;
  full.step8 = core::Step8Mode::FullSort;
  full.charge_host_io = true;
  const core::SortOutcome full_sort = traced(full);
  EXPECT_EQ(full_sort.trace_events.size(), 2324u);
  EXPECT_EQ(trace_hash(full_sort.trace_events), 14894966972877336528u);
}

// FNV-1a over the bytes of a string.
std::uint64_t fnv1a_bytes(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325u;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3u;
  }
  return h;
}

TEST(ReportGolden, RecoveryExportsWithEveryInstrument) {
  // Pins the bytes every instrument exports on a run that drops messages,
  // times out, kills a node, salvages and re-scatters: the online-recovery
  // scenario with metrics, trace, link stats, timeline and lineage on. The
  // Chrome trace was captured from the revision before the instruments
  // shared one interface and the exports one JSON writer. The metrics were
  // recaptured when a delivered payload began to belong to its receiver
  // (metrics schema v8); since then both executors write the same metrics.
  util::Rng rng(11);
  const auto keys = sort::gen_uniform(200, rng);
  for (const core::Executor executor :
       {core::Executor::Sequential, core::Executor::Threaded}) {
    const std::string label = executor == core::Executor::Threaded
                                  ? "threaded"
                                  : "sequential";
    core::SortConfig cfg;
    cfg.executor = executor;
    cfg.online_recovery = true;
    cfg.injector.kill_node_at(6, 2000.0);
    cfg.record_metrics = true;
    cfg.record_trace = true;
    cfg.record_link_stats = true;
    cfg.record_timeline = true;
    cfg.timeline_tick = 1e6;  // ~1,000 ticks, under kTimelineMaxTicks
    cfg.record_lineage = true;
    const core::SortOutcome out =
        core::FaultTolerantSorter(3, fault::FaultSet(3, {5}), cfg).sort(keys);
    ASSERT_EQ(out.report.killed_nodes, std::vector<cube::NodeId>{6}) << label;
    ASSERT_EQ(out.report.timeline.dropped, 0u) << label;

    std::ostringstream metrics;
    sim::write_metrics_json(metrics, out.report);
    EXPECT_EQ(metrics.str().size(), 248881u) << label;
    EXPECT_EQ(fnv1a_bytes(metrics.str()), 4223499169559418862u) << label;

    // The trace lists events in record order, which on the threaded
    // executor interleaves the nodes as the host ran them.
    if (executor == core::Executor::Threaded) continue;
    sim::ChromeTraceOptions opts;
    opts.cost = &out.report.cost;
    opts.trace_dropped = out.report.trace_dropped;
    opts.timeline = &out.report.timeline;
    opts.lineage = &out.report.lineage;
    std::ostringstream trace;
    sim::write_chrome_trace(trace, out.trace_events, 8, opts);
    EXPECT_EQ(trace.str().size(), 476490u);
    EXPECT_EQ(fnv1a_bytes(trace.str()), 14442112101209244974u);
  }
}

TEST(ReportGolden, OfflineQ3Sequential) {
  run_scenario_offline_q3(core::Executor::Sequential);
}
TEST(ReportGolden, OfflineQ3Threaded) {
  run_scenario_offline_q3(core::Executor::Threaded);
}
TEST(ReportGolden, HalfExchangeQ4Sequential) {
  run_scenario_half_q4(core::Executor::Sequential);
}
TEST(ReportGolden, HalfExchangeQ4Threaded) {
  run_scenario_half_q4(core::Executor::Threaded);
}
TEST(ReportGolden, OnlineRecoverySequential) {
  run_scenario_recovery(core::Executor::Sequential);
}
TEST(ReportGolden, FaultFreeQ4Sequential) {
  run_scenario_fault_free(core::Executor::Sequential);
}
TEST(ReportGolden, FaultFreeQ4Threaded) {
  run_scenario_fault_free(core::Executor::Threaded);
}

}  // namespace
}  // namespace ftsort
