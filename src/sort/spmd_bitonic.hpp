// SPMD block bitonic sort over a logical (sub)cube of the simulated machine.
//
// A `LogicalCube` maps logical addresses 0 .. 2^s-1 onto physical machine
// nodes; logical address 0 may be *dead* (a faulty or dangling processor
// holding no keys — §2.1's re-indexed fault). Every live node calls
// `block_bitonic_sort` with its own sorted block; on return the blocks,
// concatenated in logical-address order, are globally ascending (or
// descending by blocks when `ascending == false`, with each block still
// stored ascending internally).
//
// The comparison-exchange at each (stage, substep) is a merge-split carried
// out by either the full-exchange or the paper's half-exchange protocol
// (see merge_split.hpp). A live node whose partner is dead performs no
// exchange — the rule that makes the sort single-fault tolerant.
#pragma once

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

/// Number of distinct tags block_bitonic_sort consumes from `tag_base`
/// (two per compare-exchange step).
std::uint32_t bitonic_tag_span(cube::Dim s);

/// Reusable per-node working storage for the comparison-exchanges. One
/// instance lives for a whole sort; after the first few exchanges every
/// buffer has reached its steady-state capacity and the O(M) merge path
/// performs no heap allocation at all.
struct ExchangeScratch {
  std::vector<Key> merged;    ///< merge destination, swapped into the block
  std::vector<Key> kept;      ///< pairwise winners (half exchange)
  std::vector<Key> returned;  ///< pairwise losers sent back (half exchange)
  std::vector<Key> unimodal;  ///< sort_unimodal merge scratch
};

/// One comparison-exchange with `partner_phys`, in place: after completion
/// `block` holds the lower (or upper) half of the union of the two blocks,
/// ascending. Both sides must call it with complementary `keep` and the
/// same `tag` (tag and tag+1 are used). All temporary storage comes from
/// `scratch`.
sim::Task exchange_merge_split_into(
    sim::NodeCtx& ctx, cube::NodeId partner_phys, sim::Tag tag,
    std::vector<Key>& block, ExchangeScratch& scratch, SplitHalf keep,
    ExchangeProtocol protocol);

/// The SPMD sort. `me_logical` is the caller's logical address (must be
/// live); `block` is its sorted ascending block and is replaced by the
/// node's slice of the result. All live blocks must have equal size.
/// `scratch` is the caller's exchange storage, reusable across sorts and
/// merges.
sim::Task block_bitonic_sort(sim::NodeCtx& ctx, const LogicalCube& lc,
                             cube::NodeId me_logical, std::vector<Key>& block,
                             bool ascending, ExchangeProtocol protocol,
                             sim::Tag tag_base, ExchangeScratch& scratch);

/// Number of distinct tags block_bitonic_merge consumes (two per substep
/// plus one for the reversal swap).
std::uint32_t bitonic_merge_tag_span(cube::Dim s);

/// SPMD block bitonic *merge*: sorts a block sequence that is already
/// blockwise bitonic — the state of a subcube right after a Step 7
/// inter-subcube split — in s substeps instead of the full sort's
/// s(s+1)/2. This optimisation is what makes the paper's Figure 7
/// crossovers reproducible (its cost formula's s(s+3)/2 re-sort term would
/// lose to the baseline).
///
/// `content_side` is the SplitHalf the caller kept in the preceding
/// exchange. With a dead logical 0 the skip rule is only sound when the
/// merge direction matches the content side (the hole virtually holds -inf
/// after a Lower split and +inf after an Upper split); for the opposite
/// direction the merge runs in the compatible direction and finishes with
/// the block reversal swap w <-> (2^s - w), a permutation among live
/// addresses only.
sim::Task block_bitonic_merge(sim::NodeCtx& ctx, const LogicalCube& lc,
                              cube::NodeId me_logical,
                              std::vector<Key>& block, bool ascending,
                              SplitHalf content_side,
                              ExchangeProtocol protocol, sim::Tag tag_base,
                              ExchangeScratch& scratch);

}  // namespace ftsort::sort
