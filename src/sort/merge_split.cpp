#include "sort/merge_split.hpp"

#include <algorithm>

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

void merge_split_into(std::span<const Key> mine, std::span<const Key> theirs,
                      SplitHalf keep, std::vector<Key>& out,
                      std::uint64_t& comparisons) {
  const std::size_t want = mine.size();
  out.resize(want);
  if (want == 0) return;
  Key* const dst = out.data();

  if (keep == SplitHalf::Lower) {
    // Forward merge until `want` keys are produced.
    std::size_t i = 0;
    std::size_t j = 0;
    for (std::size_t k = 0; k < want; ++k) {
      if (i < mine.size() && j < theirs.size()) {
        ++comparisons;
        dst[k] = theirs[j] < mine[i] ? theirs[j++] : mine[i++];
      } else if (i < mine.size()) {
        dst[k] = mine[i++];
      } else {
        FTSORT_INVARIANT(j < theirs.size());
        dst[k] = theirs[j++];
      }
    }
  } else {
    // Backward merge from the top, filling `out` back-to-front (no final
    // reverse). Comparison sequence matches the forward-filling reference.
    std::size_t i = mine.size();
    std::size_t j = theirs.size();
    for (std::size_t k = want; k-- > 0;) {
      if (i > 0 && j > 0) {
        ++comparisons;
        dst[k] = mine[i - 1] < theirs[j - 1] ? theirs[--j] : mine[--i];
      } else if (i > 0) {
        dst[k] = mine[--i];
      } else {
        FTSORT_INVARIANT(j > 0);
        dst[k] = theirs[--j];
      }
    }
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

}  // namespace ftsort::sort
