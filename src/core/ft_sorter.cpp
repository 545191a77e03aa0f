#include "core/ft_sorter.hpp"

#include <algorithm>

#include "sort/distribution.hpp"
#include "sort/sequential.hpp"
#include "util/contracts.hpp"

namespace ftsort::core {

namespace {

/// §3 heuristic audit: pair every Ψ candidate's predicted overhead profile
/// (retained by partition::select_sequence) with the run's measured
/// re-index extra hops (sim/link_stats.hpp audit table).
sim::ReindexAudit build_reindex_audit(const partition::Plan& plan,
                                      const sim::LinkStatsSnapshot& links) {
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
  audit.measured_h =
      sim::measured_reindex_by_dim(links.reindex_fault_extra, plan.m());
  for (const int h : audit.measured_h) audit.measured_total += h;
  audit.measured_all_h =
      sim::measured_reindex_by_dim(links.reindex_extra, plan.m());
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
  const cube::Dim m = plan.m();
  const cube::Dim s = plan.s();

  // Step 1: one logical cube per subcube; Step 2: scatter in slot order.
  const PlanLayout layout = plan_layout(plan);
  sort::Placement placed =
      sort::scatter(keys, layout.slots, cube::num_nodes(n));
  std::vector<std::vector<sort::Key>>& block_of = placed.block_of;

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

  // Tag layout: [0, T_s) intra-subcube Step 3 sort; then 2 tags per
  // inter-subcube exchange; then T_s per Step 8 re-sort.
  const std::uint32_t ts = sort::bitonic_tag_span(s);
  const std::uint32_t msteps =
      static_cast<std::uint32_t>(m) * (static_cast<std::uint32_t>(m) + 1) /
      2;
  const auto tag_exchange = [ts](std::uint32_t step) {
    return ts + step * 2;
  };
  const std::uint32_t resort_span =
      std::max(ts, sort::bitonic_merge_tag_span(s));
  const auto tag_resort = [ts, msteps, resort_span](std::uint32_t step) {
    return ts + msteps * 2 + step * resort_span;
  };

  // Host I/O tags sit past everything the sort itself uses.
  const std::uint32_t tag_host = tag_resort(msteps) + resort_span + 1;

  const auto protocol = sort::resolve_protocol(config_.protocol,
                                               config_.coalesce, config_.cost);
  const auto program = [&](sim::NodeCtx& ctx) -> sim::Task {
    const partition::Plan::Role role = plan.role_of(ctx.id());
    if (!role.live) co_return;  // dangling processor: idles
    const cube::NodeId v = role.v;
    const cube::NodeId lw = role.logical_w;
    const sort::LogicalCube& lc = layout.subcubes[v];
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

    // Exchange working storage, reused across every merge-split this node
    // performs; after warm-up the whole sort's hot path is allocation-free.
    sort::ExchangeScratch scratch;

    // Step 3: local sort (heapsort per the paper, configurable), then the
    // single-fault bitonic sort of this subcube; ascending iff the subcube
    // address is even.
    {
      const sim::PhaseSpan span = ctx.span(sim::Phase::LocalSort);
      std::uint64_t comparisons = 0;
      sort::local_sort(config_.local_sort, block, comparisons);
      ctx.charge_compares(comparisons);
    }
    const bool v_even = cube::bit(v, 0) == 0;
    {
      const sim::PhaseSpan span = ctx.span(sim::Phase::SubcubeSort);
      co_await sort::block_bitonic_sort(ctx, lc, lw, block,
                                        /*ascending=*/m == 0 || v_even,
                                        protocol, /*tag_base=*/0, scratch);
    }

    // Steps 4-8: bitonic-like sort across subcubes.
    std::uint32_t step = 0;
    for (cube::Dim i = 0; i < m; ++i) {
      // Step 5: mask = v_{i+1} (v_m = 0).
      const int mask = (i + 1 == m) ? 0 : cube::bit(v, i + 1);
      for (cube::Dim j = i; j >= 0; --j, ++step) {
        // Step 7: merge-split with the corresponding processor of the
        // neighbouring subcube along dimension j.
        const cube::NodeId v2 = cube::neighbor(v, j);
        const cube::NodeId partner = plan.physical(v2, lw);
        // §3 audit: corresponding processors of neighbouring subcubes are
        // one hop apart before re-indexing; whatever the router charges
        // beyond that is the measured re-index penalty along dimension j.
        // Exchanges between two fault-carrying subcubes are the formula's
        // own scope; the rest (dangling pairs) it does not model.
        if (ctx.link_stats_enabled()) {
          const bool fault_pair = plan.has_dead() &&
                                  plan.dead_is_fault(v) &&
                                  plan.dead_is_fault(v2);
          ctx.note_reindex_hops(j, ctx.hops_to(partner) - 1, fault_pair);
        }
        const sort::SplitHalf keep = (cube::bit(v, j) == mask)
                                         ? sort::SplitHalf::Lower
                                         : sort::SplitHalf::Upper;
        {
          const sim::PhaseSpan span = ctx.span(sim::Phase::MergeExchange);
          co_await sort::exchange_merge_split_into(
              ctx, partner, tag_exchange(step), block, scratch, keep,
              protocol);
        }
        // Step 8: re-sort this subcube; ascending iff v_{j-1} == mask
        // (v_{-1} = 0). The content is blockwise bitonic after the split,
        // so the merge variant needs only s substeps.
        const int v_jm1 = (j == 0) ? 0 : cube::bit(v, j - 1);
        const sim::PhaseSpan span = ctx.span(sim::Phase::Resort);
        if (config_.step8 == Step8Mode::BitonicMerge) {
          co_await sort::block_bitonic_merge(ctx, lc, lw, block,
                                             /*ascending=*/v_jm1 == mask,
                                             keep, protocol,
                                             tag_resort(step), scratch);
        } else {
          co_await sort::block_bitonic_sort(ctx, lc, lw, block,
                                            /*ascending=*/v_jm1 == mask,
                                            protocol, tag_resort(step),
                                            scratch);
        }
      }
    }

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
    outcome.report.reindex_audit = build_reindex_audit(plan,
                                                       outcome.report.links);

  // Gather in slot order (the algorithm's output placement).
  outcome.sorted = sort::gather(block_of, layout.slots);
  if (config_.record_lineage)
    sim::audit_lineage(outcome.report.lineage, outcome.sorted);
  return outcome;
}

}  // namespace ftsort::core
