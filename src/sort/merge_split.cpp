#include "sort/merge_split.hpp"

#include <algorithm>
#include <functional>

#include "sort/merge_split_kernels.hpp"
#include "util/contracts.hpp"

namespace ftsort::sort {

bool simd_kernels_available() {
#if FTSORT_SIMD_KERNELS && defined(__x86_64__) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

KernelBackend active_kernel_backend() {
  // A function-local static: the CPU query runs on first use, never during
  // static initialisation, where the CPU feature table may not be filled in
  // yet.
  static const KernelBackend backend = simd_kernels_available()
                                           ? KernelBackend::Simd
                                           : KernelBackend::Scalar;
  return backend;
}

namespace detail {

void pairwise_select_rev_into_scalar(std::span<const Key> a,
                                     std::span<const Key> b, SplitHalf keep,
                                     std::vector<Key>& kept,
                                     std::vector<Key>& returned,
                                     std::uint64_t& comparisons) {
  FTSORT_REQUIRE(a.size() == b.size());
  const std::size_t n = a.size();
  kept.resize(n);
  returned.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    ++comparisons;
    const Key bt = b[n - 1 - t];
    const Key lo = std::min(a[t], bt);
    const Key hi = std::max(a[t], bt);
    if (keep == SplitHalf::Lower) {
      kept[t] = lo;
      returned[t] = hi;
    } else {
      kept[t] = hi;
      returned[t] = lo;
    }
  }
}

}  // namespace detail

namespace {

/// The first `want` keys, in the order `before`, of the merge of the runs
/// `mine` and [theirs, theirs_end), both in that order, written to `dst`;
/// ties go to `mine`. Returns the comparisons: one per key placed while
/// `theirs` still held keys. `mine` must hold at least `want` keys.
template <class Run, class Out, class Before>
std::uint64_t take_merged(Run mine, Run theirs, const Run theirs_end, Out dst,
                          const std::size_t want, const Before before) {
  std::size_t k = 0;
  for (; k < want && theirs != theirs_end; ++k)
    *dst++ = before(*theirs, *mine) ? *theirs++ : *mine++;
  std::copy_n(mine, want - k, dst);
  return k;
}

}  // namespace

void merge_split_into(std::span<const Key> mine, std::span<const Key> theirs,
                      SplitHalf keep, std::vector<Key>& out,
                      std::uint64_t& comparisons) {
  const std::size_t want = mine.size();
  out.resize(want);
  // `mine` cannot run out: each of the |mine| keys placed takes at most one.
  // The Upper half is the Lower half's merge read backwards, `out` included.
  if (keep == SplitHalf::Lower) {
    comparisons += take_merged(mine.begin(), theirs.begin(), theirs.end(),
                               out.begin(), want, std::less<>());
  } else {
    comparisons += take_merged(mine.rbegin(), theirs.rbegin(), theirs.rend(),
                               out.rbegin(), want, std::greater<>());
  }
}

void pairwise_select_rev_into(std::span<const Key> a, std::span<const Key> b,
                              SplitHalf keep, std::vector<Key>& kept,
                              std::vector<Key>& returned,
                              std::uint64_t& comparisons) {
#if FTSORT_SIMD_KERNELS
  if (active_kernel_backend() == KernelBackend::Simd) {
    detail::pairwise_select_rev_into_simd(a, b, keep, kept, returned,
                                          comparisons);
    return;
  }
#endif
  detail::pairwise_select_rev_into_scalar(a, b, keep, kept, returned,
                                          comparisons);
}

namespace {

/// The two spans one side's pairwise select reads: it pairs a[t] with
/// b[n - 1 - t].
struct SelectInputs {
  std::span<const Key> a;
  std::span<const Key> b;
};

SelectInputs select_inputs(std::span<const Key> block,
                           std::span<const Key> theirs, SplitHalf keep) {
  const std::size_t h = block.size() / 2;
  // Lower: a = A[h, b), b = B[0, b - h) received. Upper: a = A[0, h)
  // received, b = B[b - h, b), the top of my own block.
  if (keep == SplitHalf::Lower) return {block.subspan(h), theirs};
  return {theirs, block.last(h)};
}

/// Which input holds every winner of the select, when its end pairs show
/// it. a[t] - b[n - 1 - t] rises with t, so the last pair decides whether
/// every min comes from `a` and the first whether every min comes from `b`.
enum class Winners { Mixed, FromA, FromB };

Winners winners(const SelectInputs& in, SplitHalf keep) {
  const std::size_t n = in.a.size();
  const bool lower = keep == SplitHalf::Lower;
  if (n == 0) return Winners::Mixed;
  if (in.a[n - 1] <= in.b[0]) return lower ? Winners::FromA : Winners::FromB;
  if (in.a[0] >= in.b[n - 1]) return lower ? Winners::FromB : Winners::FromA;
  return Winners::Mixed;
}

}  // namespace

std::uint64_t half_exchange_select(std::span<const Key> block,
                                   std::span<const Key> theirs, SplitHalf keep,
                                   std::vector<Key>& kept,
                                   std::vector<Key>& returned) {
  const SelectInputs in = select_inputs(block, theirs, keep);
  const std::size_t n = in.a.size();
  FTSORT_REQUIRE(in.b.size() == n);
  const Winners from = winners(in, keep);
  if (from == Winners::Mixed) {
    std::uint64_t comparisons = 0;
    pairwise_select_rev_into(in.a, in.b, keep, kept, returned, comparisons);
    return comparisons;
  }
  kept.resize(n);
  returned.resize(n);
  if (from == Winners::FromA) {  // kept[t] = a[t], returned[t] = b[n-1-t]
    std::copy(in.a.begin(), in.a.end(), kept.begin());
    std::reverse_copy(in.b.begin(), in.b.end(), returned.begin());
  } else {  // kept = b read backwards, stored ascending; returned = a
    std::copy(in.b.begin(), in.b.end(), kept.begin());
    std::copy(in.a.begin(), in.a.end(), returned.begin());
  }
  return n;  // the select's one comparison per pair
}

std::uint64_t half_exchange_merge(std::vector<Key>& block,
                                  std::span<const Key> theirs, SplitHalf keep,
                                  std::vector<Key>& kept,
                                  std::vector<Key>& back,
                                  std::vector<Key>& unimodal,
                                  std::vector<Key>& merged) {
  const bool lower = keep == SplitHalf::Lower;
  const Winners from = winners(select_inputs(block, theirs, keep), keep);
  std::uint64_t comparisons = 0;
  if (from == Winners::Mixed) {
    sort_unimodal(kept, unimodal, comparisons);
  } else {
    // The select would have written the b-side winners descending.
    comparisons += monotone_unimodal_count(kept, from == Winners::FromB);
  }
  // Already split: every key of A is <= every key of B. Then `back` is the
  // rest of my own block, ascending on the Lower side (A[0, h)) and
  // descending on the Upper side (B[0, b - h) reversed).
  const bool holds_half =
      lower ? from == Winners::FromA
            : from == Winners::FromB && back.back() == block.front();
  if (holds_half) {
    if (back.empty()) return comparisons;  // b = 1: nothing to merge
    // merge_sorted_into(kept, back ascending), when the runs' ends settle
    // its count.
    const Key back_min = lower ? back.front() : back.back();
    const Key back_max = lower ? back.back() : back.front();
    const std::uint64_t repair = monotone_unimodal_count(back, false);
    if (back_max < kept.front()) return comparisons + repair + back.size();
    if (kept.back() <= back_min) return comparisons + repair + kept.size();
  }
  sort_unimodal(back, unimodal, comparisons);
  merge_sorted_into(kept, back, merged, comparisons);
  FTSORT_ENSURE(merged.size() == block.size());
  std::swap(block, merged);
  return comparisons;
}

}  // namespace ftsort::sort
