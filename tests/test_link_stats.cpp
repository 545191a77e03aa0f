// Link-telemetry suite: the per-link traffic matrix (sim/link_stats.hpp),
// its conservation invariant against the aggregate key_hops scalar, the
// derived busy/utilisation rollups, and the §3 heuristic audit comparing
// the selection formula's predicted re-index overhead with what routing
// actually measured.
//
// Everything here is logical (integer counters charged from message
// causality), so every assertion must hold byte-identically on both
// executors; the registry's cross-thread charging discipline is TSan'd via
// the tsan preset's test filter.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/ft_sorter.hpp"
#include "fault/scenario.hpp"
#include "partition/plan.hpp"
#include "sort/distribution.hpp"
#include "util/rng.hpp"

namespace ftsort {
namespace {

// ---------------------------------------------------------------------------
// Registry mechanics on a hand-built machine: the path walk decomposes a
// multi-hop e-cube message into one charge per (source node, dimension).

TEST(LinkStatsRegistry, PathWalkChargesEachTraversedLink) {
  sim::Machine machine(3, fault::FaultSet(3));  // Q_3, fault-free
  machine.link_stats().enable(machine.size(), machine.dim());
  const auto program = [](sim::NodeCtx& ctx) -> sim::Task {
    if (ctx.id() == 0) {
      const std::vector<sim::Key> payload{1, 2, 3, 4, 5};
      ctx.send(7, 9, std::span<const sim::Key>(payload));
    } else if (ctx.id() == 7) {
      const sim::Message m = co_await ctx.recv(0, 9);
      (void)m;
    }
    co_return;
  };
  const sim::RunReport report = machine.run(program);

  // e-cube 0 -> 7 corrects dimensions upward: 0 -> 1 -> 3 -> 7.
  const sim::LinkStatsSnapshot& snap = report.links;
  ASSERT_FALSE(snap.empty());
  EXPECT_EQ(snap.at(0, 0).traversals, 1u);
  EXPECT_EQ(snap.at(0, 0).key_hops, 5u);
  EXPECT_EQ(snap.at(1, 1).traversals, 1u);
  EXPECT_EQ(snap.at(1, 1).key_hops, 5u);
  EXPECT_EQ(snap.at(3, 2).traversals, 1u);
  EXPECT_EQ(snap.at(3, 2).key_hops, 5u);
  EXPECT_EQ(snap.grand_total().traversals, 3u);
  EXPECT_EQ(snap.grand_total().key_hops, report.key_hops);
  EXPECT_EQ(report.key_hops, 15u);  // 5 keys x 3 hops

  // Unattributed phase carries the charge; per-phase slices telescope.
  const sim::LinkCell total = snap.grand_total();
  const auto p = static_cast<std::size_t>(sim::Phase::Unattributed);
  EXPECT_EQ(total.phase_traversals[p], 3u);
  EXPECT_EQ(total.phase_key_hops[p], 15u);

  // Derived busy time under ncube7 (t_startup = 0): keys x t_transfer.
  EXPECT_DOUBLE_EQ(sim::link_busy_time(snap.at(0, 0), machine.cost()), 40.0);
  const std::vector<double> util =
      sim::dimension_utilization(snap, machine.cost(), report.makespan);
  ASSERT_EQ(util.size(), 3u);
  for (const double u : util) EXPECT_GT(u, 0.0);
}

TEST(LinkStatsRegistry, OffByDefaultLeavesReportEmpty) {
  util::Rng rng(1706);
  const fault::FaultSet faults = fault::random_faults(6, 2, rng);
  const auto keys = sort::gen_uniform(400, rng);
  const core::FaultTolerantSorter sorter(6, faults, core::SortConfig{});
  const core::SortOutcome out = sorter.sort(keys);
  EXPECT_TRUE(out.report.links.empty());
  EXPECT_FALSE(out.report.reindex_audit.enabled);
}

// ---------------------------------------------------------------------------
// Conservation invariant on the bench flagship (fig7, Q6 r=2): the traffic
// matrix's key-hop total equals the aggregate scalar exactly, dimension
// totals telescope, and per-phase link charges match the metrics registry's
// per-phase key_hops — all on both executors, byte-identically.

core::SortOutcome run_pinned_fig7(core::Executor exec) {
  util::Rng rng(1706);
  const fault::FaultSet faults = fault::random_faults(6, 2, rng);
  const auto keys = sort::gen_uniform(3'200, rng);
  core::SortConfig cfg;
  cfg.protocol = sort::ExchangeProtocol::FullExchange;
  cfg.executor = exec;
  cfg.record_metrics = true;
  cfg.record_link_stats = true;
  const core::FaultTolerantSorter sorter(6, faults, cfg);
  return sorter.sort(keys);
}

TEST(LinkStatsConservation, TrafficMatrixSumsToKeyHopsScalar) {
  for (const core::Executor exec :
       {core::Executor::Sequential, core::Executor::Threaded}) {
    const core::SortOutcome out = run_pinned_fig7(exec);
    const sim::LinkStatsSnapshot& snap = out.report.links;
    ASSERT_FALSE(snap.empty());

    EXPECT_EQ(snap.grand_total().key_hops, out.report.key_hops);

    std::uint64_t by_dims = 0;
    for (cube::Dim d = 0; d < snap.dim; ++d)
      by_dims += snap.dim_total(d).key_hops;
    EXPECT_EQ(by_dims, out.report.key_hops);

    // Phase-sliced conservation against the metrics registry: a phase's
    // key_hops (payload x hops summed at send) equals the keys the phase
    // pushed across links.
    for (std::size_t p = 0; p < sim::kPhaseCount; ++p) {
      const sim::Phase phase = static_cast<sim::Phase>(p);
      EXPECT_EQ(snap.grand_total().phase_key_hops[p],
                out.report.metrics.total(phase).key_hops)
          << "phase " << sim::phase_name(phase);
    }
  }
}

TEST(LinkStatsConservation, ExecutorsProduceIdenticalMatrices) {
  const core::SortOutcome seq = run_pinned_fig7(core::Executor::Sequential);
  const core::SortOutcome thr = run_pinned_fig7(core::Executor::Threaded);
  EXPECT_TRUE(seq.report.links == thr.report.links);
  EXPECT_TRUE(seq.report.reindex_audit == thr.report.reindex_audit);
}

// Conservation must survive message drops: the recovery flagship kills
// node 6 mid-run, so some posts are charged and then dropped — both the
// scalar and the matrix count them (each charges before its drop check).
TEST(LinkStatsConservation, HoldsAcrossDropsAndRecovery) {
  for (const core::Executor exec :
       {core::Executor::Sequential, core::Executor::Threaded}) {
    util::Rng rng(1703);
    const fault::FaultSet faults = fault::random_faults(3, 1, rng);
    const auto keys = sort::gen_uniform(200, rng);
    core::SortConfig cfg;
    cfg.executor = exec;
    cfg.online_recovery = true;
    cfg.injector.kill_node_at(6, 2000.0);
    cfg.record_link_stats = true;
    const core::FaultTolerantSorter sorter(3, faults, cfg);
    const core::SortOutcome out = sorter.sort(keys);
    ASSERT_GT(out.report.messages_dropped, 0u);
    EXPECT_EQ(out.report.links.grand_total().key_hops, out.report.key_hops);
  }
}

// ---------------------------------------------------------------------------
// §3 heuristic audit on the paper's Example 2 (Q5, faults {3,5,16,24}):
// Ψ holds five candidates with predicted totals 3,3,4,3,3; the heuristic
// picks D_1 = (0,1,3) with h = (2,1,0). The audit must (a) reproduce those
// predictions, (b) measure exactly the predicted extra hops within the
// formula's scope, and (c) show the pick is never beaten by a rejected
// candidate when each is actually run.

const fault::FaultSet& example2_faults() {
  static const fault::FaultSet faults(5, {3, 5, 16, 24});
  return faults;
}

core::SortOutcome run_example2(const partition::Plan& plan) {
  util::Rng rng(42);
  const auto keys = sort::gen_uniform(720, rng);
  core::SortConfig cfg;
  cfg.record_link_stats = true;
  const core::FaultTolerantSorter sorter(plan, cfg);
  return sorter.sort(keys);
}

TEST(LinkStatsAudit, MeasuredReindexHopsMatchChosenPrediction) {
  const partition::Plan plan = partition::Plan::build(example2_faults());
  ASSERT_GT(plan.search().cutting_set.size(), 1u) << "need a multi-candidate Psi";
  const core::SortOutcome out = run_example2(plan);

  const sim::ReindexAudit& audit = out.report.reindex_audit;
  ASSERT_TRUE(audit.enabled);
  ASSERT_EQ(audit.candidates.size(), plan.search().cutting_set.size());

  // Exactly one chosen candidate, and it is the argmin of the predictions.
  std::size_t chosen_count = 0;
  const sim::ReindexAudit::Candidate* chosen = nullptr;
  for (const auto& c : audit.candidates) {
    if (c.chosen) {
      ++chosen_count;
      chosen = &c;
    }
  }
  ASSERT_EQ(chosen_count, 1u);
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->cuts, (std::vector<cube::Dim>{0, 1, 3}));
  EXPECT_EQ(chosen->predicted_h, (std::vector<int>{2, 1, 0}));
  EXPECT_EQ(chosen->predicted_total, 3);
  for (const auto& c : audit.candidates)
    EXPECT_LE(chosen->predicted_total, c.predicted_total);

  // Within the formula's scope (fault-carrying pairs) the measurement is
  // exact: re-indexed partners are 1 + HD(FP, FP') hops apart under e-cube
  // routing, so every predicted h_i is realised, no more, no less.
  EXPECT_EQ(audit.measured_h, chosen->predicted_h);
  EXPECT_EQ(audit.measured_total, chosen->predicted_total);

  // The true per-dimension cost (dangling pairs included) dominates the
  // formula's scope cell-wise — the gap is overhead §3 does not model.
  ASSERT_EQ(audit.measured_all_h.size(), audit.measured_h.size());
  for (std::size_t j = 0; j < audit.measured_h.size(); ++j)
    EXPECT_GE(audit.measured_all_h[j], audit.measured_h[j]);
  EXPECT_GE(audit.measured_all_total, audit.measured_total);
}

TEST(LinkStatsAudit, ChosenCandidateNeverBeatenWhenRejectedOnesRun) {
  const partition::Plan plan = partition::Plan::build(example2_faults());
  const auto& psi = plan.search().cutting_set;
  ASSERT_GT(psi.size(), 1u);
  const std::size_t beta = plan.selection().beta;

  std::vector<int> measured_totals;
  for (const std::vector<cube::Dim>& cuts : psi) {
    // Pin each candidate in turn (the ablation path) and actually sort.
    const partition::Plan pinned =
        partition::Plan::build_with_cuts(example2_faults(), cuts);
    const core::SortOutcome out = run_example2(pinned);
    const sim::ReindexAudit& audit = out.report.reindex_audit;
    ASSERT_TRUE(audit.enabled);
    ASSERT_EQ(audit.candidates.size(), 1u);
    // Formula exactness holds for every pinned candidate, not just the
    // winner: measurement reproduces that candidate's own prediction.
    EXPECT_EQ(audit.measured_h, audit.candidates[0].predicted_h);
    EXPECT_EQ(audit.measured_total, audit.candidates[0].predicted_total);
    measured_totals.push_back(audit.measured_total);
  }

  // The heuristic's pick is at least as good as every rejected candidate
  // on the *measured* objective.
  for (const int total : measured_totals)
    EXPECT_LE(measured_totals[beta], total);
  // Example 2's costs: D_3 is strictly worse, so the audit distinguishes.
  EXPECT_EQ(measured_totals, (std::vector<int>{3, 3, 4, 3, 3}));
}

}  // namespace
}  // namespace ftsort
