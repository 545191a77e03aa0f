#include "sort/spmd_bitonic.hpp"

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

std::uint32_t bitonic_merge_tag_span(cube::Dim s) {
  return static_cast<std::uint32_t>(s) * 2 + 1;
}

namespace {

/// The compare-exchange along logical dimension j: keep the lower half iff
/// bit j of the address equals `dir_bit`; a dead partner makes it a skip.
void append_substep(const LogicalCube& lc, cube::NodeId me, cube::Dim j,
                    int dir_bit, sim::Phase phase, sim::Tag tag,
                    std::vector<ExchangeStep>& out) {
  const cube::NodeId partner = cube::neighbor(me, j);
  const SplitHalf keep =
      cube::bit(me, j) == dir_bit ? SplitHalf::Lower : SplitHalf::Upper;
  out.push_back({phase, tag, lc.phys[partner], keep, /*swap=*/false,
                 /*skip=*/lc.is_dead(partner)});
}

}  // namespace

void append_bitonic_sort(const LogicalCube& lc, cube::NodeId me_logical,
                         bool ascending, sim::Phase phase, sim::Tag tag_base,
                         std::vector<ExchangeStep>& out) {
  FTSORT_REQUIRE(cube::valid_node(me_logical, lc.s));
  FTSORT_REQUIRE(!lc.is_dead(me_logical));
  sim::Tag tag = tag_base;
  for (cube::Dim i = 0; i < lc.s; ++i) {
    for (cube::Dim j = i; j >= 0; --j, tag += 2) {
      // Direction bit: within stage i it is bit i+1 of the logical address;
      // the final stage (i == s-1) fixes the overall order. A descending
      // sort mirrors the *whole* network (equivalent to sorting negated
      // keys ascending): only then does the dead node at logical 0 always
      // sit in a sub-sort whose extreme element belongs at address 0, which
      // is what makes the §2.1 skip rule safe in both directions.
      const int stage_bit =
          (i + 1 == lc.s) ? 0 : cube::bit(me_logical, i + 1);
      append_substep(lc, me_logical, j, ascending ? stage_bit : 1 - stage_bit,
                     phase, tag, out);
    }
  }
}

void append_bitonic_merge(const LogicalCube& lc, cube::NodeId me_logical,
                          bool ascending, SplitHalf content_side,
                          sim::Phase phase, sim::Tag tag_base,
                          std::vector<ExchangeStep>& out) {
  FTSORT_REQUIRE(cube::valid_node(me_logical, lc.s));
  FTSORT_REQUIRE(!lc.is_dead(me_logical));
  // Without a hole any direction is sound; with the dead node the merge
  // direction must match the content side (see header).
  const bool compatible_asc = content_side == SplitHalf::Lower;
  const bool reverse = lc.dead0 && ascending != compatible_asc;
  const bool merge_asc = reverse ? compatible_asc : ascending;
  sim::Tag tag = tag_base;
  for (cube::Dim j = lc.s - 1; j >= 0; --j, tag += 2)
    append_substep(lc, me_logical, j, merge_asc ? 0 : 1, phase, tag, out);
  // The reversal slot: w <-> 2^s - w never touches logical 0.
  const cube::NodeId mirror =
      reverse ? static_cast<cube::NodeId>(lc.size()) - me_logical
              : me_logical;
  out.push_back({phase, tag, lc.phys[mirror], SplitHalf::Lower,
                 /*swap=*/true, /*skip=*/mirror == me_logical});
}

sim::Task run_schedule(sim::NodeCtx& ctx, std::span<const ExchangeStep> steps,
                       std::vector<Key>& block, ExchangeProtocol protocol) {
  std::vector<Key> merged;    // merge destination, swapped into the block
  std::vector<Key> kept;      // pairwise winners (half exchange)
  std::vector<Key> returned;  // pairwise losers sent back (half exchange)
  std::vector<Key> unimodal;  // sort_unimodal merge scratch
  for (std::size_t k = 0; k < steps.size();) {
    const sim::Phase phase = steps[k].phase;
    const sim::PhaseSpan span = ctx.span(phase);
    for (; k < steps.size() && steps[k].phase == phase; ++k) {
      const ExchangeStep& st = steps[k];
      if (st.skip) continue;
      if (st.swap) {
        // The block moves into the message: no pool checkout, no copy.
        ctx.send(st.partner, st.tag, std::move(block));
        sim::Message msg = co_await ctx.recv(st.partner, st.tag);
        msg.payload.release_into(block);
      } else if (protocol == ExchangeProtocol::FullExchange) {
        // Swap entire blocks, split locally.
        ctx.send(st.partner, st.tag, std::span<const Key>(block));
        sim::Message msg = co_await ctx.recv(st.partner, st.tag);
        std::uint64_t comparisons = 0;
        merge_split_into(block, msg.payload.span(), st.keep, merged,
                         comparisons);
        ctx.charge_compares(comparisons);
        std::swap(block, merged);
      } else {
        // Pairing: with both blocks ascending, the b smallest of A ∪ B are
        // { min(A[k], B[b-1-k]) } and the b largest { max(A[k], B[b-1-k]) }.
        // The Lower side (A) evaluates pairs k in [h, b), the Upper side (B)
        // k in [0, h), h = b/2 — so each key crosses the wire at most once
        // each way and the per-step traffic matches the paper's ⌈M/2N'⌉
        // terms. Each side first sends the bottom of its block the
        // partner's pairs need: A[0..h) from the Lower side, B[0..b-h) from
        // the Upper side. half_exchange_select and half_exchange_merge do
        // the rest of each side's work (merge_split.hpp); the first reads
        // its pairs' second elements backwards or, when every winner comes
        // from one input, copies the losers out reversed.
        const bool lower = st.keep == SplitHalf::Lower;
        const std::size_t b = block.size();
        const std::size_t h = b / 2;
        const std::size_t out = lower ? h : b - h;
        const std::span<const Key> mine(block);
        ctx.send(st.partner, st.tag, mine.first(out));
        sim::Message msg = co_await ctx.recv(st.partner, st.tag);
        FTSORT_REQUIRE(msg.payload.size() == b - out);
        ctx.charge_compares(half_exchange_select(mine, msg.payload.span(),
                                                 st.keep, kept, returned));
        // Return the losers; receive the winners of the partner's pairs.
        // The two sets hold my final multiset exactly once (the Upper
        // side's block top served only as comparison input).
        ctx.send(st.partner, st.tag + 1, std::span<const Key>(returned));
        sim::Message back = co_await ctx.recv(st.partner, st.tag + 1);
        FTSORT_REQUIRE(back.payload.size() == out);
        ctx.charge_compares(half_exchange_merge(block, msg.payload.span(),
                                                st.keep, kept,
                                                back.payload.vec(), unimodal,
                                                merged));
      }
      // Custody commits here, at the merge or the swap — never at
      // send/recv: the wire carried a copy (sim/lineage.hpp).
      if (ctx.lineage_enabled())
        ctx.note_lineage_retain(st.partner, st.tag, block);
    }
  }
  co_return;
}

void local_sort(sim::NodeCtx& ctx, LocalSort algorithm,
                std::span<Key> block) {
  const sim::PhaseSpan span = ctx.span(sim::Phase::LocalSort);
  std::uint64_t comparisons = 0;
  local_sort(algorithm, block, comparisons);
  ctx.charge_compares(comparisons);
}

}  // namespace ftsort::sort
