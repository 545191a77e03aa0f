// Internal entry points behind the pairwise select's KernelBackend
// dispatch in merge_split.cpp, also called directly — side by side — by
// the equivalence tests and bench_harness's kernel micros. The `_scalar`
// kernel is the reference loop (defined in merge_split.cpp); the `_simd`
// kernel lives in merge_split_simd.cpp, which is the only translation unit
// compiled with vector ISA flags — keep every call to it behind
// `simd_kernels_available()` so no AVX2 instruction can execute on a CPU
// without it. The merge-split has one body, `merge_split_into`, on every
// CPU.
//
// Contract shared by both backends, enforced by tests/test_merge_split.cpp:
// byte-identical output AND identical comparison counts on every input.
#pragma once

#include "sort/merge_split.hpp"

namespace ftsort::sort::detail {

void pairwise_select_rev_into_scalar(std::span<const Key> a,
                                     std::span<const Key> b, SplitHalf keep,
                                     std::vector<Key>& kept,
                                     std::vector<Key>& returned,
                                     std::uint64_t& comparisons);

#if FTSORT_SIMD_KERNELS
void pairwise_select_rev_into_simd(std::span<const Key> a,
                                   std::span<const Key> b, SplitHalf keep,
                                   std::vector<Key>& kept,
                                   std::vector<Key>& returned,
                                   std::uint64_t& comparisons);
#endif

}  // namespace ftsort::sort::detail
