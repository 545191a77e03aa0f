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

/// The textbook count of a merge-split: one comparison per key placed
/// while both runs still hold keys, and the split stops after |mine| keys.
/// A tie goes to `mine`, so in the forward (Lower) merge a key of `mine`
/// leaves before every key of `theirs` that is not smaller, and in the
/// backward (Upper) merge before every key that is not larger. The run
/// whose end key leaves first empties after its own keys plus the keys of
/// the other run that leave before that end key.
std::uint64_t textbook_merge_split_count(const std::vector<Key>& mine,
                                         const std::vector<Key>& theirs,
                                         SplitHalf keep) {
  if (mine.empty() || theirs.empty()) return 0;
  const auto below = [](const std::vector<Key>& run, Key key, bool or_equal) {
    const auto end = or_equal ? std::upper_bound(run.begin(), run.end(), key)
                              : std::lower_bound(run.begin(), run.end(), key);
    return static_cast<std::size_t>(end - run.begin());
  };
  const auto above = [&](const std::vector<Key>& run, Key key, bool or_equal) {
    return run.size() - below(run, key, !or_equal);
  };
  std::size_t both = 0;  // keys placed until one run is empty
  if (keep == SplitHalf::Lower) {
    const Key m = mine.back();
    const Key t = theirs.back();
    both = m <= t ? mine.size() + below(theirs, m, false)
                  : theirs.size() + below(mine, t, true);
  } else {
    const Key m = mine.front();
    const Key t = theirs.front();
    both = m >= t ? mine.size() + above(theirs, m, false)
                  : theirs.size() + above(mine, t, true);
  }
  return std::min(both, mine.size());
}

/// `out` must be the |mine| smallest (Lower) or largest (Upper) keys of
/// the sorted union, counted as the textbook counts.
::testing::AssertionResult split_matches_textbook(
    const std::vector<Key>& mine, const std::vector<Key>& theirs,
    SplitHalf keep, std::vector<Key>& out) {
  std::vector<Key> all = mine;
  all.insert(all.end(), theirs.begin(), theirs.end());
  std::sort(all.begin(), all.end());
  const auto first = keep == SplitHalf::Lower
                         ? all.begin()
                         : all.end() - static_cast<std::ptrdiff_t>(mine.size());
  // The kernel adds to the counter; start it off zero.
  constexpr std::uint64_t kCounterStart = 7;
  std::uint64_t count = kCounterStart;
  merge_split_into(mine, theirs, keep, out, count);
  if (out.size() != mine.size() ||
      !std::equal(out.begin(), out.end(), first))
    return ::testing::AssertionFailure() << "output is not the union's half";
  const std::uint64_t want = textbook_merge_split_count(mine, theirs, keep);
  if (count - kCounterStart != want)
    return ::testing::AssertionFailure()
           << "count " << count - kCounterStart << ", textbook " << want;
  return ::testing::AssertionSuccess();
}

// Output and comparison count both feed the simulator's RunReport, so the
// kernel must match the sorted union and the textbook count on every pair
// of sizes, from all-equal keys to the full 48-bit range.
TEST(MergeSplitInto, MatchesReferenceBitForBit) {
  util::Rng rng(11);
  std::vector<Key> out;  // reused across every trial: exercises capacity reuse
  const auto sorted_keys = [&rng](std::size_t n, std::uint64_t range) {
    std::vector<Key> keys(n);
    for (Key& key : keys) key = static_cast<Key>(rng.below(range));
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  for (std::size_t na = 0; na <= 40; ++na) {
    for (std::size_t nb = 0; nb <= 40; ++nb) {
      for (const std::uint64_t range :
           {std::uint64_t{1}, std::uint64_t{3}, std::uint64_t{1000},
            std::uint64_t{1} << 48}) {
        const auto a = sorted_keys(na, range);
        const auto b = sorted_keys(nb, range);
        for (const SplitHalf keep : {SplitHalf::Lower, SplitHalf::Upper})
          ASSERT_TRUE(split_matches_textbook(a, b, keep, out))
              << "na=" << na << " nb=" << nb << " range=" << range;
      }
      // Disjoint runs: one side runs out first without ever winning.
      const auto low = gen_sorted(na);
      auto high = gen_sorted(nb);
      for (Key& key : high) key += static_cast<Key>(na);
      for (const SplitHalf keep : {SplitHalf::Lower, SplitHalf::Upper}) {
        ASSERT_TRUE(split_matches_textbook(low, high, keep, out))
            << "na=" << na << " nb=" << nb;
        ASSERT_TRUE(split_matches_textbook(high, low, keep, out))
            << "na=" << na << " nb=" << nb;
      }
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
