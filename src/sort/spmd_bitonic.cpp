#include "sort/spmd_bitonic.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace ftsort::sort {

LogicalCube LogicalCube::identity(cube::Dim s) {
  LogicalCube lc;
  lc.s = s;
  lc.phys.resize(cube::num_nodes(s));
  std::iota(lc.phys.begin(), lc.phys.end(), cube::NodeId{0});
  return lc;
}

std::uint32_t bitonic_tag_span(cube::Dim s) {
  // s(s+1)/2 compare-exchange steps, two tags each.
  const auto steps = static_cast<std::uint32_t>(s) *
                     (static_cast<std::uint32_t>(s) + 1) / 2;
  return steps * 2;
}

namespace {

sim::Task half_exchange(sim::NodeCtx& ctx, cube::NodeId partner,
                        sim::Tag tag, std::vector<Key>& block,
                        ExchangeScratch& scratch, SplitHalf keep) {
  // Pairing: with both blocks ascending, the b smallest of A ∪ B are
  // { min(A[k], B[b-1-k]) } and the b largest { max(A[k], B[b-1-k]) }.
  // The Lower side evaluates pairs k in [h, b), the Upper side k in [0, h),
  // h = b/2 — so each key crosses the wire at most once each way and the
  // per-step traffic matches the paper's ⌈M/2N'⌉ terms. The reversed
  // indexing of the second element of each pair happens inside
  // pairwise_select_rev_into; no reversed copies are materialised.
  const std::size_t b = block.size();
  const std::size_t h = b / 2;
  const std::span<const Key> mine(block);
  std::uint64_t comparisons = 0;

  if (keep == SplitHalf::Lower) {
    // Send my bottom half A[0..h); partner needs it for pairs k in [0, h).
    ctx.send(partner, tag, mine.first(h));
    // Receive partner's bottom part B[0..b-h).
    sim::Message msg = co_await ctx.recv(partner, tag);
    FTSORT_REQUIRE(msg.payload.size() == b - h);
    // My pairs: a[t] = A[h+t], b[t] = B[b-1-(h+t)] = reversed(received)[t].
    pairwise_select_rev_into(mine.subspan(h), msg.payload.span(),
                             SplitHalf::Lower, scratch.kept,
                             scratch.returned, comparisons);
    ctx.charge_compares(comparisons);
    comparisons = 0;
    // Return the losers (maxes) to the partner.
    ctx.send(partner, tag + 1, std::span<const Key>(scratch.returned));
    // Receive the winners (mins) of the partner's pairs.
    sim::Message back = co_await ctx.recv(partner, tag + 1);
    FTSORT_REQUIRE(back.payload.size() == h);
    // Both parts are unimodal; sort each, then merge.
    sort_unimodal(scratch.kept, scratch.unimodal, comparisons);
    sort_unimodal(back.payload.vec(), scratch.unimodal, comparisons);
    merge_sorted_into(scratch.kept, back.payload.span(), scratch.merged,
                      comparisons);
    ctx.charge_compares(comparisons);
    FTSORT_ENSURE(scratch.merged.size() == b);
    std::swap(block, scratch.merged);
    if (ctx.lineage_enabled()) ctx.note_lineage_retain(partner, tag, block);
    co_return;
  }

  // Upper side: send my bottom part B[0..b-h); partner pairs k in [h, b).
  ctx.send(partner, tag, mine.first(b - h));
  sim::Message msg = co_await ctx.recv(partner, tag);
  FTSORT_REQUIRE(msg.payload.size() == h);
  // My pairs k in [0, h): a[t] = A[t] (received), b[t] = B[b-1-t] = the top
  // of my own block read backwards.
  pairwise_select_rev_into(msg.payload.span(), mine.last(h),
                           SplitHalf::Upper, scratch.kept, scratch.returned,
                           comparisons);
  ctx.charge_compares(comparisons);
  comparisons = 0;
  ctx.send(partner, tag + 1, std::span<const Key>(scratch.returned));
  sim::Message back = co_await ctx.recv(partner, tag + 1);
  FTSORT_REQUIRE(back.payload.size() == b - h);
  // My final multiset: the kept/returned sets already contain every key
  // exactly once — kept (h maxes) + back.payload (b-h maxes from the
  // partner's pairs); the top of my block served only as comparison input.
  sort_unimodal(scratch.kept, scratch.unimodal, comparisons);
  sort_unimodal(back.payload.vec(), scratch.unimodal, comparisons);
  merge_sorted_into(scratch.kept, back.payload.span(), scratch.merged,
                    comparisons);
  ctx.charge_compares(comparisons);
  FTSORT_ENSURE(scratch.merged.size() == b);
  std::swap(block, scratch.merged);
  if (ctx.lineage_enabled()) ctx.note_lineage_retain(partner, tag, block);
  co_return;
}

}  // namespace

sim::Task exchange_merge_split_into(
    sim::NodeCtx& ctx, cube::NodeId partner, sim::Tag tag,
    std::vector<Key>& block, ExchangeScratch& scratch, SplitHalf keep,
    ExchangeProtocol protocol) {
  // Generic tag; a caller's step-level span (e.g. ft_sorter's
  // MergeExchange/Resort) takes precedence.
  const sim::PhaseSpan span =
      ctx.span_if_unattributed(sim::Phase::MergeExchange);
  if (protocol == ExchangeProtocol::HalfExchange) {
    co_await half_exchange(ctx, partner, tag, block, scratch, keep);
    co_return;
  }

  // Full exchange: swap entire blocks, split locally.
  ctx.send(partner, tag, std::span<const Key>(block));
  sim::Message msg = co_await ctx.recv(partner, tag);
  std::uint64_t comparisons = 0;
  merge_split_into(block, msg.payload.span(), keep, scratch.merged,
                   comparisons);
  ctx.charge_compares(comparisons);
  std::swap(block, scratch.merged);
  // Custody commits here, at the merge — never at send/recv: the wire
  // carried a copy (sim/lineage.hpp).
  if (ctx.lineage_enabled()) ctx.note_lineage_retain(partner, tag, block);
  co_return;
}

std::uint32_t bitonic_merge_tag_span(cube::Dim s) {
  return static_cast<std::uint32_t>(s) * 2 + 1;
}

namespace {

/// The plain s-substep blockwise bitonic merge (mirrored when descending).
sim::Task merge_network(sim::NodeCtx& ctx, const LogicalCube& lc,
                        cube::NodeId me_logical, std::vector<Key>& block,
                        bool ascending, ExchangeProtocol protocol,
                        sim::Tag tag_base, ExchangeScratch& scratch) {
  sim::Tag tag = tag_base;
  for (cube::Dim j = lc.s - 1; j >= 0; --j, tag += 2) {
    const cube::NodeId partner_logical = cube::neighbor(me_logical, j);
    if (lc.is_dead(partner_logical)) continue;
    const SplitHalf keep =
        (cube::bit(me_logical, j) == (ascending ? 0 : 1))
            ? SplitHalf::Lower
            : SplitHalf::Upper;
    co_await exchange_merge_split_into(ctx, lc.phys[partner_logical], tag,
                                       block, scratch, keep, protocol);
  }
  co_return;
}

}  // namespace

sim::Task block_bitonic_merge(sim::NodeCtx& ctx, const LogicalCube& lc,
                              cube::NodeId me_logical,
                              std::vector<Key>& block, bool ascending,
                              SplitHalf content_side,
                              ExchangeProtocol protocol, sim::Tag tag_base,
                              ExchangeScratch& scratch) {
  FTSORT_REQUIRE(cube::valid_node(me_logical, lc.s));
  FTSORT_REQUIRE(!lc.is_dead(me_logical));
  FTSORT_REQUIRE(lc.phys[me_logical] == ctx.id());
  FTSORT_REQUIRE(is_ascending(block));

  const sim::PhaseSpan span = ctx.span_if_unattributed(sim::Phase::Resort);

  // Without a hole any direction is sound; with the dead node the merge
  // direction must match the content side (see header).
  const bool compatible_asc = content_side == SplitHalf::Lower;
  const bool direct = !lc.dead0 || (ascending == compatible_asc);
  if (direct) {
    co_await merge_network(ctx, lc, me_logical, block, ascending, protocol,
                           tag_base, scratch);
    co_return;
  }

  // Merge in the sound direction, then reverse block order across live
  // addresses with the involution w <-> 2^s - w (never touches logical 0).
  co_await merge_network(ctx, lc, me_logical, block, compatible_asc,
                         protocol, tag_base, scratch);
  const cube::NodeId mirror =
      static_cast<cube::NodeId>(lc.size()) - me_logical;
  if (mirror != me_logical) {
    const sim::Tag swap_tag =
        tag_base + static_cast<sim::Tag>(lc.s) * 2;
    ctx.send(lc.phys[mirror], swap_tag, std::move(block));
    sim::Message msg = co_await ctx.recv(lc.phys[mirror], swap_tag);
    msg.payload.release_into(block);
    if (ctx.lineage_enabled())
      ctx.note_lineage_retain(lc.phys[mirror], swap_tag, block);
  }
  co_return;
}

sim::Task block_bitonic_sort(sim::NodeCtx& ctx, const LogicalCube& lc,
                             cube::NodeId me_logical, std::vector<Key>& block,
                             bool ascending, ExchangeProtocol protocol,
                             sim::Tag tag_base, ExchangeScratch& scratch) {
  FTSORT_REQUIRE(cube::valid_node(me_logical, lc.s));
  FTSORT_REQUIRE(!lc.is_dead(me_logical));
  FTSORT_REQUIRE(lc.phys[me_logical] == ctx.id());
  FTSORT_REQUIRE(is_ascending(block));

  const sim::PhaseSpan span =
      ctx.span_if_unattributed(sim::Phase::SubcubeSort);

  const cube::Dim s = lc.s;
  sim::Tag tag = tag_base;
  for (cube::Dim i = 0; i < s; ++i) {
    for (cube::Dim j = i; j >= 0; --j, tag += 2) {
      const cube::NodeId partner_logical = cube::neighbor(me_logical, j);
      if (lc.is_dead(partner_logical)) continue;  // dead partner: no-op
      // Direction bit: within stage i it is bit i+1 of the logical address;
      // the final stage (i == s-1) fixes the overall order. A descending
      // sort mirrors the *whole* network (equivalent to sorting negated
      // keys ascending): only then does the dead node at logical 0 always
      // sit in a sub-sort whose extreme element belongs at address 0, which
      // is what makes the §2.1 skip rule safe in both directions.
      const int stage_bit =
          (i + 1 == s) ? 0 : cube::bit(me_logical, i + 1);
      const int dir_bit = ascending ? stage_bit : 1 - stage_bit;
      const SplitHalf keep = (cube::bit(me_logical, j) == dir_bit)
                                 ? SplitHalf::Lower
                                 : SplitHalf::Upper;
      co_await exchange_merge_split_into(ctx, lc.phys[partner_logical], tag,
                                         block, scratch, keep, protocol);
    }
  }
  co_return;
}

}  // namespace ftsort::sort
