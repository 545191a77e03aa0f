// Vectorized merge-split / pairwise-select kernels (KernelBackend::Simd).
//
// This is the only translation unit compiled with vector ISA flags
// (-mavx2; see src/sort/CMakeLists.txt) — nothing here may run unless
// simd_kernels_available() said yes, which merge_split.cpp's dispatch
// (active_kernel_backend) guarantees.
//
// The merge kernel is an Inoue-style block merge: keep two sorted
// 4-vectors in registers, run a bitonic merge network over them (3 levels
// of min/max + lane shuffles), emit the low four, carry the high four, and
// refill from whichever input's next head is smaller. Correctness of the
// refill rule needs both inputs sorted: every carried key from the refill
// side is ≤ its head, and every carried key from the other side is ≤ that
// side's still-unloaded head, so the emitted low four can never overtake an
// unloaded key. The tail (fewer than four keys left anywhere) finishes with
// a three-way scalar merge over {carry, rest of mine, rest of theirs}.
//
// Byte-identity with the scalar oracle needs no tie-breaking care: keys are
// plain values, so "the `want` smallest keys of the union, ascending" is a
// unique byte string no matter which side equal keys came from. Comparison
// counts ARE tie-sensitive, but they are a pure function of the inputs:
// the scalar loop counts one comparison per output until the first input
// run exhausts, and the exhaustion point is a rank — computable with one
// binary search (see exhaust-rank helpers below), not by replaying the
// loop. tests/test_merge_split.cpp pins both properties exhaustively.
#include <algorithm>
#include <cstring>

#include "sort/merge_split_kernels.hpp"
#include "util/contracts.hpp"

namespace ftsort::sort::detail {

namespace {

typedef Key v4k __attribute__((vector_size(32)));

inline v4k vmin4(v4k a, v4k b) { return a < b ? a : b; }
inline v4k vmax4(v4k a, v4k b) { return a > b ? a : b; }

/// Bitonic merge of two ascending 4-vectors: on return `va` holds the four
/// smallest of the eight keys and `vb` the four largest, both ascending.
inline void bitonic_merge8(v4k& va, v4k& vb) {
  const v4k rb = __builtin_shufflevector(vb, vb, 3, 2, 1, 0);
  v4k l = vmin4(va, rb);
  v4k h = vmax4(va, rb);
  v4k t = __builtin_shufflevector(l, l, 2, 3, 0, 1);
  v4k mn = vmin4(l, t);
  v4k mx = vmax4(l, t);
  l = __builtin_shufflevector(mn, mx, 0, 1, 6, 7);
  t = __builtin_shufflevector(l, l, 1, 0, 3, 2);
  mn = vmin4(l, t);
  mx = vmax4(l, t);
  l = __builtin_shufflevector(mn, mx, 0, 5, 2, 7);
  t = __builtin_shufflevector(h, h, 2, 3, 0, 1);
  mn = vmin4(h, t);
  mx = vmax4(h, t);
  h = __builtin_shufflevector(mn, mx, 0, 1, 6, 7);
  t = __builtin_shufflevector(h, h, 1, 0, 3, 2);
  mn = vmin4(h, t);
  mx = vmax4(h, t);
  h = __builtin_shufflevector(mn, mx, 0, 5, 2, 7);
  va = l;
  vb = h;
}

/// Comparisons the scalar Lower loop performs: one per output until the
/// first run exhausts. `theirs` exhausts at output rank (#mine ≤
/// theirs.back()) + |theirs| (ties consume mine first); `mine` at rank
/// |mine| + (#theirs < mine.back()).
std::uint64_t lower_comparisons(std::span<const Key> mine,
                                std::span<const Key> theirs,
                                std::size_t want) {
  if (mine.empty() || theirs.empty()) return 0;
  const std::size_t tb =
      static_cast<std::size_t>(
          std::upper_bound(mine.begin(), mine.end(), theirs.back()) -
          mine.begin()) +
      theirs.size();
  const std::size_t ta =
      mine.size() + static_cast<std::size_t>(std::lower_bound(
                        theirs.begin(), theirs.end(), mine.back()) -
                    theirs.begin());
  return std::min({want, ta, tb});
}

/// Mirror of lower_comparisons for the backward (Upper) loop, which
/// consumes from the top and takes mine on ties.
std::uint64_t upper_comparisons(std::span<const Key> mine,
                                std::span<const Key> theirs,
                                std::size_t want) {
  if (mine.empty() || theirs.empty()) return 0;
  const std::size_t tb =
      (mine.size() - static_cast<std::size_t>(std::lower_bound(
                         mine.begin(), mine.end(), theirs.front()) -
                     mine.begin())) +
      theirs.size();
  const std::size_t ta =
      mine.size() + (theirs.size() -
                     static_cast<std::size_t>(std::upper_bound(
                         theirs.begin(), theirs.end(), mine.front()) -
                     theirs.begin()));
  return std::min({want, ta, tb});
}

void merge_lower(const Key* a, std::size_t na, const Key* b, std::size_t nb,
                 Key* dst, std::size_t want) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t k = 0;
  Key carry[8];
  std::size_t nc = 0;
  if (na >= 4 && nb >= 4 && want >= 4) {
    v4k va;
    v4k vb;
    std::memcpy(&va, a, 32);
    i = 4;
    std::memcpy(&vb, b, 32);
    j = 4;
    for (;;) {
      bitonic_merge8(va, vb);
      if (k + 4 > want) {
        std::memcpy(carry, &va, 32);
        std::memcpy(carry + 4, &vb, 32);
        nc = 8;
        break;
      }
      std::memcpy(dst + k, &va, 32);
      k += 4;
      const bool take_a = (j >= nb) || (i < na && a[i] <= b[j]);
      if (take_a) {
        if (i + 4 > na) {
          std::memcpy(carry, &vb, 32);
          nc = 4;
          break;
        }
        std::memcpy(&va, a + i, 32);
        i += 4;
      } else {
        if (j + 4 > nb) {
          std::memcpy(carry, &vb, 32);
          nc = 4;
          break;
        }
        std::memcpy(&va, b + j, 32);
        j += 4;
      }
    }
  }
  // Three-way finish: carry is sorted but not ordered against the unloaded
  // rests, so pick the minimum of the three heads each step.
  std::size_t c = 0;
  while (k < want) {
    Key best = 0;
    int src = -1;
    if (c < nc) {
      best = carry[c];
      src = 0;
    }
    if (i < na && (src < 0 || a[i] < best)) {
      best = a[i];
      src = 1;
    }
    if (j < nb && (src < 0 || b[j] < best)) {
      best = b[j];
      src = 2;
    }
    FTSORT_INVARIANT(src >= 0);
    if (src == 0)
      ++c;
    else if (src == 1)
      ++i;
    else
      ++j;
    dst[k++] = best;
  }
}

void merge_upper(const Key* a, std::size_t na, const Key* b, std::size_t nb,
                 Key* dst, std::size_t want) {
  std::size_t i = na;
  std::size_t j = nb;
  std::size_t k = want;
  Key carry[8];
  std::size_t nc = 0;
  if (na >= 4 && nb >= 4 && want >= 4) {
    v4k va;
    v4k vb;
    std::memcpy(&va, a + na - 4, 32);
    i = na - 4;
    std::memcpy(&vb, b + nb - 4, 32);
    j = nb - 4;
    for (;;) {
      bitonic_merge8(va, vb);
      if (k < 4) {
        std::memcpy(carry, &va, 32);
        std::memcpy(carry + 4, &vb, 32);
        nc = 8;
        break;
      }
      std::memcpy(dst + k - 4, &vb, 32);
      k -= 4;
      const bool take_a = (j == 0) || (i > 0 && a[i - 1] >= b[j - 1]);
      if (take_a) {
        if (i < 4) {
          std::memcpy(carry, &va, 32);
          nc = 4;
          break;
        }
        std::memcpy(&vb, a + i - 4, 32);
        i -= 4;
      } else {
        if (j < 4) {
          std::memcpy(carry, &va, 32);
          nc = 4;
          break;
        }
        std::memcpy(&vb, b + j - 4, 32);
        j -= 4;
      }
    }
  }
  std::size_t c = nc;  // carry ascending; consume from its top
  while (k > 0) {
    Key best = 0;
    int src = -1;
    if (c > 0) {
      best = carry[c - 1];
      src = 0;
    }
    if (i > 0 && (src < 0 || a[i - 1] > best)) {
      best = a[i - 1];
      src = 1;
    }
    if (j > 0 && (src < 0 || b[j - 1] > best)) {
      best = b[j - 1];
      src = 2;
    }
    FTSORT_INVARIANT(src >= 0);
    if (src == 0)
      --c;
    else if (src == 1)
      --i;
    else
      --j;
    dst[--k] = best;
  }
}

inline v4k reverse4(v4k x) { return __builtin_shufflevector(x, x, 3, 2, 1, 0); }

}  // namespace

void merge_split_into_simd(std::span<const Key> mine,
                           std::span<const Key> theirs, SplitHalf keep,
                           std::vector<Key>& out,
                           std::uint64_t& comparisons) {
  const std::size_t want = mine.size();
  out.resize(want);
  if (want == 0) return;
  if (keep == SplitHalf::Lower) {
    merge_lower(mine.data(), mine.size(), theirs.data(), theirs.size(),
                out.data(), want);
    comparisons += lower_comparisons(mine, theirs, want);
  } else {
    merge_upper(mine.data(), mine.size(), theirs.data(), theirs.size(),
                out.data(), want);
    comparisons += upper_comparisons(mine, theirs, want);
  }
}

void pairwise_select_rev_into_simd(std::span<const Key> a,
                                   std::span<const Key> b, SplitHalf keep,
                                   std::vector<Key>& kept,
                                   std::vector<Key>& returned,
                                   std::uint64_t& comparisons) {
  FTSORT_REQUIRE(a.size() == b.size());
  const std::size_t n = a.size();
  kept.resize(n);
  returned.resize(n);
  comparisons += n;
  Key* const kp = kept.data();
  Key* const rp = returned.data();
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    v4k va;
    v4k vb;
    std::memcpy(&va, a.data() + t, 32);
    std::memcpy(&vb, b.data() + (n - t - 4), 32);
    vb = reverse4(vb);  // pairs a[t+l] with b[n-1-(t+l)]
    const v4k lo = vmin4(va, vb);
    const v4k hi = vmax4(va, vb);
    std::memcpy(kp + t, keep == SplitHalf::Lower ? &lo : &hi, 32);
    std::memcpy(rp + t, keep == SplitHalf::Lower ? &hi : &lo, 32);
  }
  for (; t < n; ++t) {
    const Key bt = b[n - 1 - t];
    const Key lo = std::min(a[t], bt);
    const Key hi = std::max(a[t], bt);
    kp[t] = keep == SplitHalf::Lower ? lo : hi;
    rp[t] = keep == SplitHalf::Lower ? hi : lo;
  }
}

}  // namespace ftsort::sort::detail
