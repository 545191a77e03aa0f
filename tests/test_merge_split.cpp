// Unit tests for the merge-split kernels, including the identity the
// half-exchange protocol relies on.
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/cost_model.hpp"
#include "sort/distribution.hpp"
#include "sort/merge_split.hpp"
#include "sort/merge_split_kernels.hpp"
#include "util/rng.hpp"

namespace ftsort::sort {
namespace {

TEST(MergeSplitFull, BasicLowerUpper) {
  std::uint64_t comparisons = 0;
  const std::vector<Key> a{1, 4, 7};
  const std::vector<Key> b{2, 3, 9};
  std::vector<Key> out;
  merge_split_into(a, b, SplitHalf::Lower, out, comparisons);
  EXPECT_EQ(out, (std::vector<Key>{1, 2, 3}));
  merge_split_into(a, b, SplitHalf::Upper, out, comparisons);
  EXPECT_EQ(out, (std::vector<Key>{4, 7, 9}));
}

TEST(MergeSplitFull, ComplementaryHalvesPartitionUnion) {
  util::Rng rng(1);
  std::vector<Key> lower;
  std::vector<Key> upper;
  for (int trial = 0; trial < 200; ++trial) {
    auto a = gen_uniform(17, rng);
    auto b = gen_uniform(17, rng);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::uint64_t comparisons = 0;
    merge_split_into(a, b, SplitHalf::Lower, lower, comparisons);
    merge_split_into(b, a, SplitHalf::Upper, upper, comparisons);
    std::vector<Key> expected;
    expected.insert(expected.end(), a.begin(), a.end());
    expected.insert(expected.end(), b.begin(), b.end());
    std::sort(expected.begin(), expected.end());
    std::vector<Key> got = lower;
    got.insert(got.end(), upper.begin(), upper.end());
    EXPECT_EQ(got, expected);  // lower then upper == sorted union
  }
}

TEST(MergeSplitFull, ResultsAreAscending) {
  util::Rng rng(2);
  auto a = gen_few_distinct(25, 4, rng);
  auto b = gen_few_distinct(25, 4, rng);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::uint64_t comparisons = 0;
  std::vector<Key> out;
  merge_split_into(a, b, SplitHalf::Lower, out, comparisons);
  EXPECT_TRUE(is_ascending(out));
  merge_split_into(a, b, SplitHalf::Upper, out, comparisons);
  EXPECT_TRUE(is_ascending(out));
}

TEST(MergeSplitFull, UnequalSizesKeepOwnSize) {
  std::uint64_t comparisons = 0;
  const std::vector<Key> mine{5, 6};
  const std::vector<Key> theirs{1, 2, 3, 4};
  std::vector<Key> out;
  merge_split_into(mine, theirs, SplitHalf::Lower, out, comparisons);
  EXPECT_EQ(out, (std::vector<Key>{1, 2}));
  merge_split_into(mine, theirs, SplitHalf::Upper, out, comparisons);
  EXPECT_EQ(out, (std::vector<Key>{5, 6}));
}

TEST(MergeSplitFull, EmptyInputs) {
  std::uint64_t comparisons = 0;
  const std::vector<Key> empty;
  const std::vector<Key> some{1, 2};
  std::vector<Key> out;
  merge_split_into(empty, some, SplitHalf::Lower, out, comparisons);
  EXPECT_TRUE(out.empty());
  merge_split_into(some, empty, SplitHalf::Lower, out, comparisons);
  EXPECT_EQ(out, some);
  EXPECT_EQ(comparisons, 0u);
}

TEST(MergeSplitFull, LinearComparisonBudget) {
  util::Rng rng(3);
  auto a = gen_uniform(100, rng);
  auto b = gen_uniform(100, rng);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::uint64_t comparisons = 0;
  std::vector<Key> out;
  merge_split_into(a, b, SplitHalf::Lower, out, comparisons);
  EXPECT_LE(comparisons, 100u);  // stops after producing |mine| keys
}

TEST(PairwiseIdentity, ReversedPairingYieldsExactSplit) {
  // The identity behind the paper's half-exchange: for equal-length
  // ascending blocks A, B, { min(A[k], B[b-1-k]) } is exactly the multiset
  // of the b smallest keys of A ∪ B.
  util::Rng rng(4);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t b = 1 + rng.below(40);
    auto A = gen_uniform(b, rng);
    auto B = gen_uniform(b, rng);
    std::sort(A.begin(), A.end());
    std::sort(B.begin(), B.end());
    std::vector<Key> mins;
    std::vector<Key> maxs;
    for (std::size_t k = 0; k < b; ++k) {
      mins.push_back(std::min(A[k], B[b - 1 - k]));
      maxs.push_back(std::max(A[k], B[b - 1 - k]));
    }
    std::vector<Key> all;
    all.insert(all.end(), A.begin(), A.end());
    all.insert(all.end(), B.begin(), B.end());
    std::sort(all.begin(), all.end());
    std::sort(mins.begin(), mins.end());
    std::sort(maxs.begin(), maxs.end());
    EXPECT_TRUE(std::equal(mins.begin(), mins.end(), all.begin()));
    EXPECT_TRUE(std::equal(maxs.begin(), maxs.end(),
                           all.begin() + static_cast<std::ptrdiff_t>(b)));
  }
}

// The unreversed pairing (a[t] against b[t]) is the reversed kernel on a
// reversed `b`.
TEST(PairwiseSelect, SplitsWinnersFromLosers) {
  std::uint64_t comparisons = 0;
  const std::vector<Key> a{3, 8, 1};
  const std::vector<Key> b_rev{9, 2, 5};  // pairs a with {5, 2, 9}
  std::vector<Key> kept;
  std::vector<Key> returned;
  pairwise_select_rev_into(a, b_rev, SplitHalf::Lower, kept, returned,
                           comparisons);
  EXPECT_EQ(kept, (std::vector<Key>{3, 2, 1}));
  EXPECT_EQ(returned, (std::vector<Key>{5, 8, 9}));
  pairwise_select_rev_into(a, b_rev, SplitHalf::Upper, kept, returned,
                           comparisons);
  EXPECT_EQ(kept, (std::vector<Key>{5, 8, 9}));
  EXPECT_EQ(returned, (std::vector<Key>{3, 2, 1}));
  EXPECT_EQ(comparisons, 6u);
}

TEST(PairwiseSelect, RejectsMismatchedLengths) {
  std::uint64_t comparisons = 0;
  const std::vector<Key> a{1};
  const std::vector<Key> b{1, 2};
  std::vector<Key> kept;
  std::vector<Key> returned;
  EXPECT_THROW(pairwise_select_rev_into(a, b, SplitHalf::Lower, kept,
                                        returned, comparisons),
               ContractViolation);
}

TEST(PairwiseSelect, EmptyIsEmpty) {
  std::uint64_t comparisons = 0;
  const std::vector<Key> empty;
  std::vector<Key> kept{1};
  std::vector<Key> returned{2};
  pairwise_select_rev_into(empty, empty, SplitHalf::Lower, kept, returned,
                           comparisons);
  EXPECT_TRUE(kept.empty());
  EXPECT_TRUE(returned.empty());
}

TEST(PairwiseSelect, DummiesLoseEveryComparison) {
  std::uint64_t comparisons = 0;
  const std::vector<Key> a{1, sim::kDummyKey};
  const std::vector<Key> b_rev{2, sim::kDummyKey};  // pairs a with {D, 2}
  std::vector<Key> kept;
  std::vector<Key> returned;
  pairwise_select_rev_into(a, b_rev, SplitHalf::Lower, kept, returned,
                           comparisons);
  EXPECT_EQ(kept, (std::vector<Key>{1, 2}));
  EXPECT_EQ(returned, (std::vector<Key>{sim::kDummyKey, sim::kDummyKey}));
}

// The dispatching kernels must match the scalar oracle bit for bit:
// byte-identical output AND an identical comparison count (the
// simulator's RunReport checksums depend on both), whichever backend is
// active.
TEST(MergeSplitInto, MatchesReferenceBitForBit) {
  util::Rng rng(11);
  std::vector<Key> out;  // reused across every trial: exercises capacity reuse
  std::vector<Key> ref;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t na = 1 + static_cast<std::size_t>(trial) % 33;
    const std::size_t nb = 1 + static_cast<std::size_t>(trial * 7) % 33;
    auto a = gen_uniform(na, rng);
    auto b = gen_uniform(nb, rng);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<Key> all = a;
    all.insert(all.end(), b.begin(), b.end());
    std::sort(all.begin(), all.end());
    for (const SplitHalf keep : {SplitHalf::Lower, SplitHalf::Upper}) {
      std::uint64_t c_ref = 0;
      std::uint64_t c_into = 0;
      detail::merge_split_into_scalar(a, b, keep, ref, c_ref);
      merge_split_into(a, b, keep, out, c_into);
      ASSERT_EQ(out, ref);
      ASSERT_EQ(c_into, c_ref);
      const auto first = keep == SplitHalf::Lower
                             ? all.begin()
                             : all.end() - static_cast<std::ptrdiff_t>(na);
      ASSERT_TRUE(std::equal(out.begin(), out.end(), first));
    }
  }
}

TEST(MergeSplitInto, SteadyStateDoesNotReallocate) {
  util::Rng rng(12);
  auto a = gen_uniform(64, rng);
  auto b = gen_uniform(64, rng);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::uint64_t c = 0;
  std::vector<Key> out;
  merge_split_into(a, b, SplitHalf::Lower, out, c);
  const Key* warm = out.data();
  const std::size_t cap = out.capacity();
  for (int i = 0; i < 16; ++i)
    merge_split_into(a, b, i % 2 ? SplitHalf::Lower : SplitHalf::Upper, out,
                     c);
  EXPECT_EQ(out.data(), warm);       // same storage after warm-up
  EXPECT_EQ(out.capacity(), cap);
}

TEST(PairwiseSelectInto, MatchesReferenceBitForBit) {
  util::Rng rng(13);
  std::vector<Key> kept;
  std::vector<Key> returned;
  std::vector<Key> kept_ref;
  std::vector<Key> returned_ref;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = static_cast<std::size_t>(trial) % 40;
    auto a = gen_uniform(n, rng);
    auto b = gen_uniform(n, rng);
    for (const SplitHalf keep : {SplitHalf::Lower, SplitHalf::Upper}) {
      std::uint64_t c_ref = 0;
      std::uint64_t c_into = 0;
      detail::pairwise_select_rev_into_scalar(a, b, keep, kept_ref,
                                              returned_ref, c_ref);
      pairwise_select_rev_into(a, b, keep, kept, returned, c_into);
      ASSERT_EQ(kept, kept_ref);
      ASSERT_EQ(returned, returned_ref);
      ASSERT_EQ(c_into, c_ref);
    }
  }
}

TEST(PairwiseSelectRevInto, EquivalentToReversedCopy) {
  util::Rng rng(14);
  std::vector<Key> kept;
  std::vector<Key> returned;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = static_cast<std::size_t>(trial) % 40;
    auto a = gen_uniform(n, rng);
    auto b = gen_uniform(n, rng);
    const std::vector<Key> b_rev(b.rbegin(), b.rend());
    for (const SplitHalf keep : {SplitHalf::Lower, SplitHalf::Upper}) {
      std::uint64_t comparisons = 0;
      pairwise_select_rev_into(a, b, keep, kept, returned, comparisons);
      ASSERT_EQ(comparisons, n);
      for (std::size_t t = 0; t < n; ++t) {
        const Key lo = std::min(a[t], b_rev[t]);
        const Key hi = std::max(a[t], b_rev[t]);
        ASSERT_EQ(kept[t], keep == SplitHalf::Lower ? lo : hi);
        ASSERT_EQ(returned[t], keep == SplitHalf::Lower ? hi : lo);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Exchange coalescing: the protocol rewrite is a pure function of the
// configured protocol, the policy, and the cost model's routing mode.

TEST(ResolveProtocol, AutoEngagesOnlyUnderCutThrough) {
  const sim::CostModel saf = sim::CostModel::ncube7();
  const sim::CostModel ct = sim::CostModel::wormhole();
  using EP = ExchangeProtocol;
  using CP = CoalescePolicy;
  // Full exchange is already the coalesced form — nothing to rewrite.
  EXPECT_EQ(resolve_protocol(EP::FullExchange, CP::Off, saf),
            EP::FullExchange);
  EXPECT_EQ(resolve_protocol(EP::FullExchange, CP::Auto, ct),
            EP::FullExchange);
  // Off never rewrites, On always does, Auto keys off the routing mode.
  EXPECT_EQ(resolve_protocol(EP::HalfExchange, CP::Off, ct),
            EP::HalfExchange);
  EXPECT_EQ(resolve_protocol(EP::HalfExchange, CP::On, saf),
            EP::FullExchange);
  EXPECT_EQ(resolve_protocol(EP::HalfExchange, CP::Auto, saf),
            EP::HalfExchange);
  EXPECT_EQ(resolve_protocol(EP::HalfExchange, CP::Auto, ct),
            EP::FullExchange);
}

// ---------------------------------------------------------------------------
// Scalar-vs-SIMD kernel equivalence. The vectorized pairwise select must
// be indistinguishable from the scalar oracle: byte-identical output AND
// an identical comparison count. The sweep calls both detail:: bodies
// directly; it skips where the vector body is not compiled in or the CPU
// lacks AVX2.

TEST(KernelBackends, CpuPicksTheBackend) {
  EXPECT_EQ(active_kernel_backend(), simd_kernels_available()
                                         ? KernelBackend::Simd
                                         : KernelBackend::Scalar);
}

#if FTSORT_SIMD_KERNELS
TEST(KernelBackends, PairwiseScalarAndSimdMatchBitForBit) {
  if (!simd_kernels_available()) GTEST_SKIP() << "no AVX2 on this CPU";
  util::Rng rng(78);
  std::vector<Key> kept_ref;
  std::vector<Key> ret_ref;
  std::vector<Key> kept;
  std::vector<Key> ret;
  for (const std::size_t n : {0u, 1u, 3u, 4u, 5u, 8u, 13u, 16u, 31u, 64u}) {
    for (int trial = 0; trial < 8; ++trial) {
      auto a = gen_uniform(n, rng);
      auto b = gen_uniform(n, rng);
      // Sprinkle dummy keys — they must lose every comparison in both
      // backends (they are plain max-valued keys, nothing special-cased).
      for (auto& k : a)
        if (rng.below(5) == 0) k = sim::kDummyKey;
      for (auto& k : b)
        if (rng.below(5) == 0) k = sim::kDummyKey;
      for (const SplitHalf keep : {SplitHalf::Lower, SplitHalf::Upper}) {
        std::uint64_t c_ref = 0;
        std::uint64_t c_out = 0;
        detail::pairwise_select_rev_into_scalar(a, b, keep, kept_ref, ret_ref,
                                                c_ref);
        detail::pairwise_select_rev_into_simd(a, b, keep, kept, ret, c_out);
        ASSERT_EQ(kept, kept_ref) << "rev n=" << n;
        ASSERT_EQ(ret, ret_ref) << "rev n=" << n;
        ASSERT_EQ(c_out, c_ref) << "rev n=" << n;
      }
    }
  }
}
#endif  // FTSORT_SIMD_KERNELS

}  // namespace
}  // namespace ftsort::sort
