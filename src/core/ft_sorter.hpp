// The paper's headline contribution: the Fault-Tolerant Sorting Algorithm
// (§3, Steps 1-8) for Q_n with r <= n-1 faulty processors.
//
// Pipeline per sort:
//   Step 1   re-index every subcube of the partition plan so its dead
//            (faulty or dangling) processor is logical 0;
//   Step 2   scatter the M keys in equal dummy-padded blocks over the
//            N' = 2^n - 2^m live processors, in (subcube, logical) order;
//   Step 3   per-node heapsort, then single-fault bitonic sort inside every
//            subcube (ascending iff the subcube index v is even);
//   Steps 4-8 the bitonic-like merge of subcubes: for i = 0..m-1, for
//            j = i..0, corresponding live processors of subcubes adjacent
//            along dimension j run a merge-split exchange (direction from
//            mask = v_{i+1} vs v_j), then each subcube re-sorts itself
//            (ascending iff v_{j-1} == mask, with v_{-1} = 0).
// The result, gathered in subcube-address order, is globally ascending.
// Steps 3-8 after the local sort are one exchange list per node
// (`node_schedule`), which this sorter and online recovery both walk.
#pragma once

#include <span>
#include <vector>

#include "core/recovery.hpp"
#include "fault/link_fault.hpp"
#include "partition/plan.hpp"
#include "sim/machine.hpp"
#include "sort/spmd_bitonic.hpp"

namespace ftsort::core {

/// How Step 8 restores intra-subcube order after each Step 7 exchange.
enum class Step8Mode {
  /// Full block bitonic sort, s(s+1)/2 exchange substeps — the literal
  /// reading of the paper's Step 8 and of its cost formula (the
  /// s(s+3)/2 term in T).
  FullSort,
  /// Block bitonic merge, s substeps — exploits that a subcube's content
  /// is blockwise bitonic right after a Step 7 split. Required to
  /// reproduce the paper's Figure 7 crossovers (its measured times are
  /// consistent with this variant, not with the formula's full sort).
  BitonicMerge,
};

/// Which executor drives the node programs. Both run one scheduler loop
/// and produce identical results and logical times; Sequential runs it on
/// the calling thread alone (deterministic event order), Threaded on a
/// small worker pool whose node programs compute in parallel (true MIMD
/// concurrency).
enum class Executor { Sequential, Threaded };

struct SortConfig {
  fault::FaultModel model = fault::FaultModel::Partial;
  sim::CostModel cost = sim::CostModel::ncube7();
  /// The exchange every Steps 3-8 comparator runs, exactly as set. The
  /// default is the paper's half exchange; under a cut-through `cost`,
  /// where the per-message start-up dominates, FullExchange sends the same
  /// keys in half the messages (sort/merge_split.hpp).
  sort::ExchangeProtocol protocol = sort::ExchangeProtocol::HalfExchange;
  Step8Mode step8 = Step8Mode::BitonicMerge;
  Executor executor = Executor::Sequential;
  /// Step 3's local sort; the paper prescribes heapsort.
  sort::LocalSort local_sort = sort::LocalSort::Heapsort;
  /// Model the host's Step 2 scatter and the final gather: the host board
  /// is wired to one live *entry* node (the lowest live address, as on the
  /// NCUBE/7); all keys cross that link and fan out/in from there. The
  /// paper's T excludes this phase, so it defaults off; switching it on
  /// shows how far host I/O dominates once the cube itself is fast.
  bool charge_host_io = false;
  // Instruments (sim/instrument.hpp): each record_* flag fills its
  // RunReport field. All are off by default and record logical results
  // only, deterministic across executors at zero simulated time; with every
  // one off, a charge site costs one check.
  /// The flight recorder (sim/trace.hpp): the outcome's trace_events, the
  /// critical-path walk, and expired-wait diagnosis.
  bool record_trace = false;
  /// Flight-recorder bound: per-node trace ring capacity in events
  /// (0 = unbounded). Lets record_trace stay always-on in long recovery
  /// runs; evictions are counted in RunReport::trace_dropped. A truncated
  /// trace degrades only attribution (critical path, diagnosis depth) —
  /// logical results and golden report fields are unaffected.
  std::size_t trace_capacity = 0;
  /// Host-side (wall-clock) scheduler profiling: populates RunReport::host
  /// with per-worker machine-lock waits, idle-worker sleeps, resume and
  /// quiescence counters. Charged outside simulated time, so enabling it
  /// never changes logical results. Mainly useful with Executor::Threaded.
  bool profile_host = false;
  /// Populate RunReport::metrics / RunReport::phases with per-node,
  /// per-phase counters (sim/metrics.hpp). The critical-path makespan
  /// attribution additionally needs record_trace.
  bool record_metrics = false;
  /// Populate RunReport::links with the per-link traffic matrix and — for
  /// the plain (non-recovery) sort — RunReport::reindex_audit with the §3
  /// heuristic audit (sim/link_stats.hpp): predicted Σ max(h_i) of every
  /// Ψ candidate next to the measured re-index extra hops per dimension,
  /// computed after the run from the Step 7 partners and the router.
  bool record_link_stats = false;
  /// Populate RunReport::timeline with the sim-time sampler series
  /// (sim/timeline.hpp): per-node queue depth, in-flight keys per
  /// dimension, pool occupancy, and active phase, bucketed by
  /// `timeline_tick`.
  bool record_timeline = false;
  /// Sampler tick width in simulated µs (> 0). The series is capped at
  /// sim::kTimelineMaxTicks buckets; pick a tick near
  /// expected_makespan / 1000 for long runs.
  sim::SimTime timeline_tick = 1000.0;
  /// Populate RunReport::lineage with per-key provenance (sim/lineage.hpp):
  /// a stable id per input key, custody chains committed at every merge
  /// point, per-dimension hop counts that conserve against LinkStats, and
  /// the exact no-loss/no-dup audit run against the gathered output.
  bool record_lineage = false;
  /// Mid-run fault schedule (sim/fault_injector.hpp), applied to every run.
  /// Without online_recovery an injected death typically leaves the
  /// victim's partners blocked forever and the run ends in DeadlockError —
  /// the behaviour the paper's offline-diagnosis model predicts.
  sim::FaultInjector injector;
  /// Route the sort through the online-recovery engine (core/recovery.hpp):
  /// survivors detect injected deaths, renegotiate the partition, salvage
  /// the casualties' keys and restart, raising DegradationError when the
  /// grown fault set defeats recovery. Requires charge_host_io == false and
  /// no dead links; protocol and step8 are ignored (recovery always uses
  /// full-block exchanges and the FullSort Step 8).
  bool online_recovery = false;
  RecoveryConfig recovery;
  /// Wall-clock watchdog over the run's host execution (sim/watchdog.hpp):
  /// one heartbeat slot per node (threaded) or for the scheduler
  /// (sequential), a monitor thread, and a
  /// black-box dump + WatchdogError when host progress stops past the
  /// deadline. Lives entirely outside simulated time — golden reports and
  /// executor equivalence are byte-identical with it armed. Off by default.
  sim::WatchdogConfig watchdog;
};

struct SortOutcome {
  std::vector<sort::Key> sorted;  ///< all input keys, ascending
  sim::RunReport report;          ///< logical time & traffic of the run
  std::size_t block_size = 0;     ///< ⌈M / N'⌉
  /// Raw events when record_trace was set — feed to
  /// sim::write_chrome_trace for a Perfetto-loadable timeline, or to
  /// sim::format_trace for a human-readable dump.
  std::vector<sim::TraceEvent> trace_events;
};

/// Reusable sorter: the partition plan is computed once per fault
/// configuration and amortised over any number of sorts.
class FaultTolerantSorter {
 public:
  FaultTolerantSorter(cube::Dim n, fault::FaultSet faults,
                      SortConfig config = {});

  /// Processor *and link* faults. Dead links are always routed around; for
  /// the algorithm they are reduced to logical processor faults via a
  /// greedy vertex cover (fault/link_fault.hpp), so the partition plan
  /// never schedules an exchange across a dead wire's endpoints. The
  /// covered processors stay healthy in the machine (they still forward
  /// messages) but hold no keys.
  FaultTolerantSorter(cube::Dim n, fault::FaultSet faults,
                      cube::LinkSet dead_links, SortConfig config = {});

  /// Sort with an explicit, pre-built partition plan — used by ablation
  /// studies to pin a cutting sequence other than the heuristic's choice.
  explicit FaultTolerantSorter(partition::Plan plan, SortConfig config = {});

  const partition::Plan& plan() const { return plan_; }
  const SortConfig& config() const { return config_; }

  SortOutcome sort(std::span<const sort::Key> keys) const;

 private:
  SortConfig config_;
  partition::Plan plan_;
  /// Faults of the physical machine (excludes the link-cover processors,
  /// which are healthy and keep forwarding).
  fault::FaultSet machine_faults_;
  cube::LinkSet dead_links_;
};

/// Steps 1-2 of a plan, as both sort engines (FaultTolerantSorter::sort and
/// every recovery attempt) derive it at sort time: one LogicalCube per
/// subcube, re-indexed so its dead node is logical 0, and the slot list —
/// the live machine nodes in (subcube, logical) order, which is where
/// Step 2 scatters the blocks and where the sorted output is read back.
struct PlanLayout {
  std::vector<sort::LogicalCube> subcubes;
  std::vector<cube::NodeId> slots;
};

PlanLayout plan_layout(const partition::Plan& plan);

/// Steps 3-8 as machine node `u` (live in `plan`) runs them, with
/// `layout = plan_layout(plan)`: the single-fault bitonic sort of its
/// subcube, then for i = 0..m-1, j = i..0 the Step 7 exchange with the
/// corresponding processor of the neighbouring subcube along j and the
/// `step8` re-sort. Every live node's list has one length and one phase
/// sequence; `tag` is the offline sort's layout (Step 3, the exchanges,
/// one re-sort span per exchange). FaultTolerantSorter::sort walks it with
/// sort::run_schedule; recovery_sort walks the FullSort list with its own
/// witnessed exchange and numbers tags by list position.
std::vector<sort::ExchangeStep> node_schedule(const partition::Plan& plan,
                                              const PlanLayout& layout,
                                              cube::NodeId u,
                                              Step8Mode step8);

/// Arm `machine` with the injector and every instrument `config` asks for.
/// Lineage ids are assigned to the scattered `block_of` in slot order, so
/// the id universe is identical across executors and sort engines.
void prepare_machine(sim::Machine& machine, const SortConfig& config,
                     std::span<const std::vector<sort::Key>> block_of,
                     std::span<const cube::NodeId> slots);

}  // namespace ftsort::core
