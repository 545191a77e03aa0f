// Merge-split kernels: the block-level comparator of block bitonic sort.
//
// Replacing each key of a sorting network by a sorted block and each
// compare-exchange by a *merge-split* (lower block keeps the smaller half of
// the union) sorts the blocked input — Baudet & Stevenson's classical
// observation that underlies all hypercube bitonic sorts, including the
// paper's.
//
// Two wire protocols compute the same split:
//  * Full exchange — both partners swap whole blocks and each computes its
//    half locally. One round, one message each way, b keys per direction.
//  * Half exchange (the paper's §2.1/§3 Step 7 protocol) — each partner
//    sends half its block, the pairwise winners are computed at both ends,
//    and exactly the losers travel back; per-step traffic matches the
//    ⌈M/2N'⌉ + ⌈M/2N'⌉ terms in the paper's cost formula. It relies on the
//    identity that for ascending equal-length blocks A and B, the b smallest
//    keys of A ∪ B are { min(A[k], B[b-1-k]) } and the b largest are
//    { max(A[k], B[b-1-k]) }.
//
// Contrary to the obvious intuition (which an earlier revision of this
// header repeated), the two protocols move the SAME number of payload keys
// per direction — half + returned-losers = b either way. What half exchange
// actually buys under the paper's zero-start-up model is nothing at all in
// traffic; it costs an extra round trip and extra local work (pairwise
// select + two unimodal sorts + a merge, ≈2b comparisons vs the full
// exchange's ≤b). Under a cost model where the per-message start-up term
// dominates (cut-through), the 4-message/2-round shape is strictly worse,
// so a cut-through configuration asks for the full exchange. A sort runs
// the protocol it is configured with; nothing rewrites it.
//
// The messaging halves of these protocols live in spmd_bitonic.*; this
// header holds the pure computational kernels.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sort/sequential.hpp"

namespace ftsort::sort {

enum class SplitHalf { Lower, Upper };

/// Which wire protocol the SPMD sorts use for each comparison-exchange.
enum class ExchangeProtocol {
  FullExchange,  ///< swap whole blocks, compute locally
  HalfExchange,  ///< the paper's send-half / compare / return protocol
};

/// Which compiled implementation the pairwise select below dispatches to
/// (the merge-split has one, scalar body). Scalar is the reference (the
/// oracle tests compare against); Simd is the vectorized hot path,
/// byte-identical in output AND comparison count.
enum class KernelBackend {
  Scalar,
  Simd,
};

/// True when the vectorized kernels are compiled in (FTSORT_SIMD_KERNELS)
/// and this CPU supports them (AVX2).
bool simd_kernels_available();

/// The backend every kernel call runs on, fixed once per process by the
/// CPU: Simd exactly when simd_kernels_available(), Scalar otherwise.
KernelBackend active_kernel_backend();

/// Merge-split kernel: given own ascending block `mine` and the partner's
/// ascending block `theirs`, write the `mine.size()` smallest (Lower) or
/// largest (Upper) keys of the union, ascending, into caller-owned `out`
/// (resized to `mine.size()`, capacity reused across calls so the steady
/// state never allocates). `out` must not alias the inputs.
void merge_split_into(std::span<const Key> mine, std::span<const Key> theirs,
                      SplitHalf keep, std::vector<Key>& out,
                      std::uint64_t& comparisons);

/// Pairwise-select kernel of the half-exchange protocol. Pairs a[t] with
/// b[n-1-t] — ascending A against descending-read B, exactly the indexing
/// the half-exchange identity needs, without materialising a reversed
/// copy — and splits winners from losers: with `keep == Lower` kept[t] =
/// min, returned[t] = max; with `Upper` the reverse. `a` and `b` must have
/// equal length. Writes into caller-owned `kept` / `returned` (resized,
/// capacity reused); outputs must not alias the inputs.
void pairwise_select_rev_into(std::span<const Key> a, std::span<const Key> b,
                              SplitHalf keep, std::vector<Key>& kept,
                              std::vector<Key>& returned,
                              std::uint64_t& comparisons);

/// One side of the half exchange, in the two parts its walker runs around
/// the losers' round trip (spmd_bitonic.cpp does the messaging). `block` is
/// this side's ascending block of b keys; `theirs` is the bottom of the
/// partner's block that arrived first: B[0, b - h) on the Lower side,
/// A[0, h) on the Upper side, h = b / 2. The Lower side pairs A[h + t] with
/// B[b - 1 - h - t], the Upper side A[t] with B[b - 1 - t].
///
/// Before the losers are sent: writes this side's pairwise winners to
/// `kept` and its losers, the wire content, to `returned`, and returns the
/// comparisons to charge before the send, one per pair. When the end pairs
/// show that every min comes from one input, the winners are one input and
/// the losers the other: `kept` is a copy of the winning input, already
/// ascending, `returned` the other forwards or reversed, as the select
/// would have written it, and the select is skipped.
std::uint64_t half_exchange_select(std::span<const Key> block,
                                   std::span<const Key> theirs, SplitHalf keep,
                                   std::vector<Key>& kept,
                                   std::vector<Key>& returned);

/// After the partner's winners `back` arrived: leaves this side's half of
/// the union in `block`, ascending, and returns the comparisons to charge
/// now, those of sort_unimodal on `kept` and on `back` and of
/// merge_sorted_into on the two, whether their loops ran or not. The
/// select's end-pair check is made again here rather than kept across the
/// round trip. A side that already holds its half (the Lower side when
/// A[b - 1] <= B[0], the Upper side when the partner's last loser equals
/// B[0]) leaves `block` as it is, when the runs' ends settle the merge's
/// count. `block`, `theirs`, `keep` and `kept` must be those of the select;
/// `unimodal` and `merged` are scratch, and `back` may be sorted in place
/// or swapped with `unimodal`, as sort_unimodal does.
std::uint64_t half_exchange_merge(std::vector<Key>& block,
                                  std::span<const Key> theirs, SplitHalf keep,
                                  std::vector<Key>& kept,
                                  std::vector<Key>& back,
                                  std::vector<Key>& unimodal,
                                  std::vector<Key>& merged);

}  // namespace ftsort::sort
