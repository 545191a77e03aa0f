// SPMD block bitonic sort over a logical (sub)cube of the simulated machine,
// as exchange schedules that one coroutine walks.
//
// A `LogicalCube` maps logical addresses 0 .. 2^s-1 onto physical machine
// nodes; logical address 0 may be *dead* (a faulty or dangling processor
// holding no keys — §2.1's re-indexed fault). The block bitonic sort and
// merge networks are generators: for one live logical address they append
// the node's `ExchangeStep`s — phase, wire tag, partner, half to keep — to
// a list, and `run_schedule` walks a list on the machine. A substep whose
// logical partner is dead stays in the list as a skip (the rule that makes
// the sort single-fault tolerant), so every live node of a cube gets the
// same list length and phase sequence. core/ft_sorter's `node_schedule`
// strings these generators into the whole of Steps 3-8; both the offline
// sorter and online recovery walk that list.
//
// The comparison-exchange at each substep is a merge-split carried out by
// either the full-exchange or the paper's half-exchange protocol (see
// merge_split.hpp), and `run_schedule` is the only coroutine that performs
// one: Steps 3, 7 and 8, the MFS baseline's sort and the ring baseline's
// odd-even transposition are all lists it walks. After a walk of
// `append_bitonic_sort`'s list the blocks, concatenated in logical-address
// order, are globally ascending (or descending by blocks when
// `ascending == false`, with each block still stored ascending).
#pragma once

#include <span>
#include <vector>

#include "hypercube/address.hpp"
#include "sim/machine.hpp"
#include "sim/task.hpp"
#include "sort/merge_split.hpp"

namespace ftsort::sort {

/// A 2^s-node logical cube embedded in the machine.
struct LogicalCube {
  cube::Dim s = 0;                  ///< logical dimension
  std::vector<cube::NodeId> phys;   ///< logical address -> machine address
  bool dead0 = false;               ///< logical 0 holds no keys

  std::uint32_t size() const { return cube::num_nodes(s); }
  /// Number of key-holding processors.
  std::uint32_t live_count() const { return size() - (dead0 ? 1u : 0u); }
  bool is_dead(cube::NodeId logical) const { return dead0 && logical == 0; }

  /// Identity cube: logical address == physical address, no dead node.
  static LogicalCube identity(cube::Dim s);
};

/// Number of distinct tags a block bitonic sort consumes from its tag base
/// (two per compare-exchange step).
std::uint32_t bitonic_tag_span(cube::Dim s);

/// Number of distinct tags a block bitonic merge consumes (two per substep
/// plus one for the reversal swap).
std::uint32_t bitonic_merge_tag_span(cube::Dim s);

/// One substep of a node's exchange schedule.
struct ExchangeStep {
  sim::Phase phase = sim::Phase::SubcubeSort;  ///< the span its run opens
  sim::Tag tag = 0;  ///< wire tag; the half exchange also uses tag + 1
  /// Machine address of the logical partner (of the mirror for the
  /// reversal swap; the node itself where no reversal is needed).
  cube::NodeId partner = 0;
  SplitHalf keep = SplitHalf::Lower;  ///< half of the union this node keeps
  /// The merge's reversal swap: trade whole blocks instead of splitting.
  bool swap = false;
  /// Nothing to do: the logical partner is dead, or the reversal slot of a
  /// merge that needs no reversal.
  bool skip = false;
};

/// Appends the block bitonic sort of `lc` for live logical address
/// `me_logical`: s(s+1)/2 substeps in `phase`, tags from `tag_base`.
void append_bitonic_sort(const LogicalCube& lc, cube::NodeId me_logical,
                         bool ascending, sim::Phase phase, sim::Tag tag_base,
                         std::vector<ExchangeStep>& out);

/// Appends the block bitonic *merge*, which sorts a block sequence that is
/// already blockwise bitonic — the state of a subcube right after a Step 7
/// inter-subcube split — in s substeps instead of the full sort's s(s+1)/2,
/// plus the reversal slot. This optimisation is what makes the paper's
/// Figure 7 crossovers reproducible (its cost formula's s(s+3)/2 re-sort
/// term would lose to the baseline).
///
/// `content_side` is the SplitHalf the node kept in the preceding
/// exchange. With a dead logical 0 the skip rule is only sound when the
/// merge direction matches the content side (the hole virtually holds -inf
/// after a Lower split and +inf after an Upper split); for the opposite
/// direction the merge runs in the compatible direction and the reversal
/// slot swaps blocks w <-> (2^s - w), a permutation among live addresses
/// only. Otherwise the slot is a skip.
void append_bitonic_merge(const LogicalCube& lc, cube::NodeId me_logical,
                          bool ascending, SplitHalf content_side,
                          sim::Phase phase, sim::Tag tag_base,
                          std::vector<ExchangeStep>& out);

/// Walks `steps` in order: every run of equal phase opens its span, a skip
/// does nothing, a swap trades whole blocks and every other step is one
/// merge-split with its partner under `protocol`, after which `block` holds
/// the kept half of the two blocks' union, ascending. Partners walk
/// complementary steps with the same tags (the half exchange also uses
/// tag + 1). This one coroutine frame per walk is all a node's exchanges
/// allocate: the merge buffers are its locals and reach their steady-state
/// capacity in the first exchanges.
sim::Task run_schedule(sim::NodeCtx& ctx, std::span<const ExchangeStep> steps,
                       std::vector<Key>& block, ExchangeProtocol protocol);

/// Step 3's local sort on a node: `algorithm` sorts `block` inside a
/// LocalSort span and the node is charged the comparisons.
void local_sort(sim::NodeCtx& ctx, LocalSort algorithm, std::span<Key> block);

}  // namespace ftsort::sort
