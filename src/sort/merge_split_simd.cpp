// Vectorized pairwise-select kernel (KernelBackend::Simd).
//
// This is the only translation unit compiled with vector ISA flags
// (-mavx2; see src/sort/CMakeLists.txt) — nothing here may run unless
// simd_kernels_available() said yes, which merge_split.cpp's dispatch
// (active_kernel_backend) guarantees.
//
// The half exchange's pairwise select is a lane-parallel min/max over
// four pairs at a time, the second operand loaded backwards and reversed
// in-register. Byte-identity with the scalar oracle needs no care (min and
// max of plain values are unique), and the comparison count is one per
// pair on either backend. tests/test_merge_split.cpp pins both.
//
// The merge-split has no vector body: with both kernels at equal code
// alignment, the AVX2 block merge this file used to hold beat the scalar
// loop in only 7 of 10 paired micro runs (EXPERIMENTS, "One Steps 3-8
// schedule").
#include <algorithm>
#include <cstring>

#include "sort/merge_split_kernels.hpp"
#include "util/contracts.hpp"

namespace ftsort::sort::detail {

namespace {

typedef Key v4k __attribute__((vector_size(32)));

inline v4k vmin4(v4k a, v4k b) { return a < b ? a : b; }
inline v4k vmax4(v4k a, v4k b) { return a > b ? a : b; }

inline v4k reverse4(v4k x) { return __builtin_shufflevector(x, x, 3, 2, 1, 0); }

}  // namespace

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
