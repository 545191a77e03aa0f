#include "core/ft_sorter.hpp"

#include <algorithm>
#include <bit>

#include "sort/distribution.hpp"
#include "util/contracts.hpp"

namespace ftsort::core {

namespace {

/// The offline sort's wire tags: [0, T_s) the Step 3 sort; then two per
/// inter-subcube exchange; then one re-sort span per exchange, wide enough
/// for either Step 8 variant; the host I/O past all of them.
struct TagLayout {
  std::uint32_t ts;           ///< Step 3's span, T_s
  std::uint32_t msteps;       ///< inter-subcube exchanges, m(m+1)/2
  std::uint32_t resort_span;  ///< one Step 8's span

  explicit TagLayout(const partition::Plan& plan)
      : ts(sort::bitonic_tag_span(plan.s())),
        msteps(static_cast<std::uint32_t>(plan.m()) *
               (static_cast<std::uint32_t>(plan.m()) + 1) / 2),
        resort_span(std::max(ts, sort::bitonic_merge_tag_span(plan.s()))) {}

  sim::Tag exchange(std::uint32_t step) const { return ts + step * 2; }
  sim::Tag resort(std::uint32_t step) const {
    return ts + msteps * 2 + step * resort_span;
  }
  sim::Tag host() const { return resort(msteps) + resort_span + 1; }
};

/// §3 heuristic audit: pair every Ψ candidate's predicted overhead profile
/// (retained by partition::select_sequence) with the re-index extra hops
/// the run's Step 7 exchanges paid. Corresponding processors of
/// neighbouring subcubes are one hop apart before re-indexing; whatever
/// the router charges beyond that is the measured penalty along the
/// exchange's logical dimension j. Exchanges between two fault-carrying
/// subcubes are the formula's own scope; the rest (dangling pairs) it does
/// not model.
sim::ReindexAudit build_reindex_audit(
    const partition::Plan& plan,
    std::span<const std::vector<sort::ExchangeStep>> schedule,
    const cube::Router& router) {
  sim::ReindexAudit audit;
  audit.enabled = true;
  const partition::Selection& sel = plan.selection();
  const auto& psi = plan.search().cutting_set;
  FTSORT_INVARIANT(psi.size() == sel.candidates.size());
  for (std::size_t idx = 0; idx < psi.size(); ++idx) {
    sim::ReindexAudit::Candidate c;
    c.cuts = psi[idx];
    c.predicted_h = sel.candidates[idx].h;
    c.predicted_total = sel.candidates[idx].total;
    c.chosen = idx == sel.beta;
    audit.candidates.push_back(std::move(c));
  }
  audit.measured_h.assign(static_cast<std::size_t>(plan.m()), 0);
  audit.measured_all_h = audit.measured_h;
  for (cube::NodeId u = 0; u < schedule.size(); ++u) {
    const cube::NodeId v = plan.role_of(u).v;
    for (const sort::ExchangeStep& st : schedule[u]) {
      if (st.phase != sim::Phase::MergeExchange) continue;
      const cube::NodeId v2 = plan.role_of(st.partner).v;
      const auto j = static_cast<std::size_t>(std::countr_zero(v ^ v2));
      const int extra = router.hops(u, st.partner) - 1;
      audit.measured_all_h[j] = std::max(audit.measured_all_h[j], extra);
      if (plan.has_dead() && plan.dead_is_fault(v) && plan.dead_is_fault(v2))
        audit.measured_h[j] = std::max(audit.measured_h[j], extra);
    }
  }
  for (const int h : audit.measured_h) audit.measured_total += h;
  for (const int h : audit.measured_all_h) audit.measured_all_total += h;
  return audit;
}

}  // namespace

PlanLayout plan_layout(const partition::Plan& plan) {
  PlanLayout layout;
  layout.subcubes.resize(plan.num_subcubes());
  layout.slots.reserve(plan.live_count());
  for (cube::NodeId v = 0; v < plan.num_subcubes(); ++v) {
    sort::LogicalCube& lc = layout.subcubes[v];
    lc.s = plan.s();
    lc.dead0 = plan.has_dead();
    lc.phys.resize(lc.size());
    for (cube::NodeId lw = 0; lw < lc.size(); ++lw) {
      lc.phys[lw] = plan.physical(v, lw);
      if (!lc.is_dead(lw)) layout.slots.push_back(lc.phys[lw]);
    }
  }
  return layout;
}

std::vector<sort::ExchangeStep> node_schedule(const partition::Plan& plan,
                                              const PlanLayout& layout,
                                              cube::NodeId u,
                                              Step8Mode step8) {
  const partition::Plan::Role role = plan.role_of(u);
  FTSORT_REQUIRE(role.live);
  const cube::NodeId v = role.v;
  const cube::NodeId lw = role.logical_w;
  const sort::LogicalCube& lc = layout.subcubes[v];
  const cube::Dim m = plan.m();
  const TagLayout tags(plan);
  // Every live node's list has this length: Step 3, then per exchange one
  // step and a Step 8. Sizing it once matters: growing it by doubling put
  // `bulk`'s peak RSS up 5.8% (EXPERIMENTS, "One Steps 3-8 schedule").
  const std::uint32_t sort_steps = tags.ts / 2;
  const std::uint32_t resort_steps =
      step8 == Step8Mode::FullSort ? sort_steps
                                   : static_cast<std::uint32_t>(plan.s()) + 1;
  std::vector<sort::ExchangeStep> out;
  out.reserve(sort_steps + tags.msteps * (1 + resort_steps));
  // Step 3: the single-fault bitonic sort of this subcube; ascending iff
  // the subcube address is even.
  sort::append_bitonic_sort(lc, lw, m == 0 || cube::bit(v, 0) == 0,
                            sim::Phase::SubcubeSort, 0, out);
  // Steps 4-8: bitonic-like sort across subcubes.
  std::uint32_t step = 0;
  for (cube::Dim i = 0; i < m; ++i) {
    // Step 5: mask = v_{i+1} (v_m = 0).
    const int mask = (i + 1 == m) ? 0 : cube::bit(v, i + 1);
    for (cube::Dim j = i; j >= 0; --j, ++step) {
      // Step 7: merge-split with the corresponding processor of the
      // neighbouring subcube along dimension j.
      const sort::SplitHalf keep = (cube::bit(v, j) == mask)
                                       ? sort::SplitHalf::Lower
                                       : sort::SplitHalf::Upper;
      out.push_back({sim::Phase::MergeExchange, tags.exchange(step),
                     plan.physical(cube::neighbor(v, j), lw), keep});
      // Step 8: re-sort this subcube; ascending iff v_{j-1} == mask
      // (v_{-1} = 0). The content is blockwise bitonic after the split,
      // so the merge variant needs only s substeps.
      const bool ascending = ((j == 0) ? 0 : cube::bit(v, j - 1)) == mask;
      if (step8 == Step8Mode::BitonicMerge)
        sort::append_bitonic_merge(lc, lw, ascending, keep,
                                   sim::Phase::Resort, tags.resort(step),
                                   out);
      else
        sort::append_bitonic_sort(lc, lw, ascending, sim::Phase::Resort,
                                  tags.resort(step), out);
    }
  }
  return out;
}

void prepare_machine(sim::Machine& machine, const SortConfig& config,
                     std::span<const std::vector<sort::Key>> block_of,
                     std::span<const cube::NodeId> slots) {
  machine.set_injector(config.injector);
  machine.trace().enable(config.record_trace);
  machine.trace().set_capacity(config.trace_capacity);
  machine.profile_host(config.profile_host);
  machine.set_watchdog(config.watchdog);
  if (config.record_metrics) machine.metrics().enable(machine.size());
  if (config.record_link_stats)
    machine.link_stats().enable(machine.size(), machine.dim());
  if (config.record_timeline)
    machine.timeline().enable(machine.size(), machine.dim(),
                              config.timeline_tick);
  if (config.record_lineage) {
    machine.lineage().enable(machine.size(), machine.dim());
    for (const cube::NodeId u : slots)
      machine.lineage().assign_block(u, block_of[u]);
  }
}

FaultTolerantSorter::FaultTolerantSorter(cube::Dim n,
                                         fault::FaultSet faults,
                                         SortConfig config)
    : config_(config), plan_(partition::Plan::build(faults)),
      machine_faults_(plan_.faults()) {
  FTSORT_REQUIRE(faults.dim() == n);
  FTSORT_REQUIRE(plan_.live_count() > 0);
}

FaultTolerantSorter::FaultTolerantSorter(cube::Dim n,
                                         fault::FaultSet faults,
                                         cube::LinkSet dead_links,
                                         SortConfig config)
    : config_(config),
      plan_(partition::Plan::build(
          fault::effective_node_faults(faults, dead_links))),
      machine_faults_(std::move(faults)), dead_links_(std::move(dead_links)) {
  FTSORT_REQUIRE(machine_faults_.dim() == n);
  FTSORT_REQUIRE(plan_.live_count() > 0);
  FTSORT_REQUIRE(
      fault::healthy_subgraph_connected(machine_faults_, dead_links_));
}

FaultTolerantSorter::FaultTolerantSorter(partition::Plan plan,
                                         SortConfig config)
    : config_(config), plan_(std::move(plan)),
      machine_faults_(plan_.faults()) {
  FTSORT_REQUIRE(plan_.live_count() > 0);
}

SortOutcome FaultTolerantSorter::sort(
    std::span<const sort::Key> keys) const {
  if (config_.online_recovery) {
    // Recovery renegotiates processor faults only; a plan reduced from
    // dead links would let it schedule exchanges across dead wires.
    FTSORT_REQUIRE(dead_links_.empty());
    return recovery_sort(plan_, config_, keys);
  }
  const partition::Plan& plan = plan_;
  const cube::Dim n = plan.n();

  // Step 1: one logical cube per subcube; Step 2: scatter in slot order;
  // Steps 3-8: one exchange list per live node.
  const PlanLayout layout = plan_layout(plan);
  sort::Placement placed =
      sort::scatter(keys, layout.slots, cube::num_nodes(n));
  std::vector<std::vector<sort::Key>>& block_of = placed.block_of;
  std::vector<std::vector<sort::ExchangeStep>> schedule(cube::num_nodes(n));
  for (const cube::NodeId u : layout.slots)
    schedule[u] = node_schedule(plan, layout, u, config_.step8);

  // Host entry node: lowest live machine address (only meaningful when
  // host I/O is charged).
  cube::NodeId entry = cube::num_nodes(n);
  for (cube::NodeId u = 0; u < cube::num_nodes(n) && config_.charge_host_io;
       ++u) {
    if (plan.role_of(u).live) {
      entry = u;
      break;
    }
  }

  // Host I/O tags sit past everything the sort itself uses.
  const sim::Tag tag_host = TagLayout(plan).host();

  const auto program = [&](sim::NodeCtx& ctx) -> sim::Task {
    if (!plan.role_of(ctx.id()).live) co_return;  // dangling: idles
    std::vector<sort::Key>& block = block_of[ctx.id()];

    // Step 2 (optional): the host pushes every key through the entry
    // node's host link; the entry fans the blocks out.
    if (config_.charge_host_io) {
      const sim::PhaseSpan span = ctx.span(sim::Phase::Scatter);
      if (ctx.id() == entry) {
        ctx.charge_time(config_.cost.injection_time(keys.size()));
        for (cube::NodeId u = 0; u < cube::num_nodes(plan.n()); ++u) {
          if (u == entry || !plan.role_of(u).live) continue;
          ctx.send(u, tag_host, block_of[u]);
        }
      } else {
        sim::Message msg = co_await ctx.recv(entry, tag_host);
        msg.payload.release_into(block);
      }
    }

    // Step 3: local sort (heapsort per the paper, configurable); then the
    // subcube's bitonic sort and Steps 4-8, one span per phase run.
    sort::local_sort(ctx, config_.local_sort, block);
    co_await sort::run_schedule(ctx, schedule[ctx.id()], block,
                                config_.protocol);

    // Final gather (optional): blocks stream back to the host through the
    // entry node in output order.
    if (config_.charge_host_io) {
      const sim::PhaseSpan span = ctx.span(sim::Phase::Gather);
      if (ctx.id() == entry) {
        for (const cube::NodeId u : layout.slots) {
          if (u == entry) continue;
          sim::Message msg = co_await ctx.recv(u, tag_host + 1);
          msg.payload.release_into(block_of[u]);
        }
        ctx.charge_time(config_.cost.injection_time(keys.size()));
      } else {
        ctx.send(entry, tag_host + 1, block);
      }
    }
    co_return;
  };

  sim::Machine machine(n, machine_faults_, config_.model, config_.cost,
                       dead_links_);
  prepare_machine(machine, config_, block_of, layout.slots);

  SortOutcome outcome;
  outcome.report = config_.executor == Executor::Threaded
                       ? machine.run_threaded(program)
                       : machine.run(program);
  outcome.block_size = placed.block_size;
  if (config_.record_trace) {
    outcome.trace = machine.trace().to_string();
    outcome.trace_events = machine.trace().snapshot();
  }
  if (config_.record_link_stats)
    outcome.report.reindex_audit =
        build_reindex_audit(plan, schedule, machine.router());

  // Gather in slot order (the algorithm's output placement).
  outcome.sorted = sort::gather(block_of, layout.slots);
  if (config_.record_lineage)
    sim::audit_lineage(outcome.report.lineage, outcome.sorted);
  return outcome;
}

}  // namespace ftsort::core
