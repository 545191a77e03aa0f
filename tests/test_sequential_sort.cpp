// Unit tests for the sequential sorting kernels.
#include <gtest/gtest.h>

#include <algorithm>

#include "sort/distribution.hpp"
#include "sort/sequential.hpp"
#include "util/rng.hpp"

namespace ftsort::sort {
namespace {

std::vector<Key> sorted_copy(std::vector<Key> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// merge_sorted_into a fresh vector, for value-style assertions.
std::vector<Key> merged(std::span<const Key> a, std::span<const Key> b,
                        std::uint64_t& comparisons) {
  std::vector<Key> out;
  merge_sorted_into(a, b, out, comparisons);
  return out;
}

TEST(Heapsort, SortsRandomInputs) {
  util::Rng rng(1);
  for (std::size_t n : {0u, 1u, 2u, 3u, 7u, 64u, 1000u}) {
    auto keys = gen_uniform(n, rng);
    const auto expected = sorted_copy(keys);
    std::uint64_t comparisons = 0;
    heapsort(keys, comparisons);
    EXPECT_EQ(keys, expected) << "n=" << n;
  }
}

TEST(Heapsort, SortsAdversarialPatterns) {
  util::Rng rng(2);
  for (auto keys : {gen_sorted(100), gen_reverse(100), gen_organ_pipe(101),
                    gen_few_distinct(100, 3, rng)}) {
    const auto expected = sorted_copy(keys);
    std::uint64_t comparisons = 0;
    heapsort(keys, comparisons);
    EXPECT_EQ(keys, expected);
  }
}

TEST(Heapsort, ComparisonCountIsNLogNish) {
  util::Rng rng(3);
  auto keys = gen_uniform(1024, rng);
  std::uint64_t comparisons = 0;
  heapsort(keys, comparisons);
  // Heapsort worst case ~ 2 n log n; must be well below n^2 and above n.
  EXPECT_GT(comparisons, 1024u);
  EXPECT_LT(comparisons, 2u * 1024u * 11u);
}

TEST(Heapsort, NoComparisonsForTinyInputs) {
  std::uint64_t comparisons = 0;
  std::vector<Key> empty;
  heapsort(empty, comparisons);
  std::vector<Key> one{5};
  heapsort(one, comparisons);
  EXPECT_EQ(comparisons, 0u);
}

TEST(Mergesort, SortsAllPatterns) {
  util::Rng rng(21);
  for (auto keys : {gen_uniform(777, rng), gen_sorted(100),
                    gen_reverse(100), gen_organ_pipe(99),
                    gen_few_distinct(200, 2, rng), std::vector<Key>{},
                    std::vector<Key>{5}}) {
    const auto expected = sorted_copy(keys);
    std::uint64_t comparisons = 0;
    mergesort(keys, comparisons);
    EXPECT_EQ(keys, expected);
  }
}

TEST(Mergesort, ComparisonCountNearNLogN) {
  util::Rng rng(22);
  auto keys = gen_uniform(4096, rng);
  std::uint64_t comparisons = 0;
  mergesort(keys, comparisons);
  // n log n = 49152; merge sort does at most n log n and at least half.
  EXPECT_LE(comparisons, 4096u * 12u);
  EXPECT_GE(comparisons, 4096u * 6u);
}

TEST(Quicksort, SortsAllPatterns) {
  util::Rng rng(23);
  for (auto keys : {gen_uniform(777, rng), gen_sorted(500),
                    gen_reverse(500), gen_organ_pipe(501),
                    gen_few_distinct(400, 3, rng), std::vector<Key>{},
                    std::vector<Key>{5}}) {
    const auto expected = sorted_copy(keys);
    std::uint64_t comparisons = 0;
    quicksort(keys, comparisons);
    EXPECT_EQ(keys, expected);
  }
}

TEST(Quicksort, MedianOfThreeHandlesSortedInputWithoutBlowup) {
  // Sorted and reverse-sorted inputs must stay O(n log n), not O(n^2).
  std::uint64_t sorted_comparisons = 0;
  auto asc = gen_sorted(8192);
  quicksort(asc, sorted_comparisons);
  EXPECT_LT(sorted_comparisons, 8192u * 26u);
  std::uint64_t reverse_comparisons = 0;
  auto desc = gen_reverse(8192);
  quicksort(desc, reverse_comparisons);
  EXPECT_LT(reverse_comparisons, 8192u * 26u);
}

TEST(LocalSortDispatch, AllKernelsAgree) {
  util::Rng rng(24);
  const auto base = gen_uniform(501, rng);
  const auto expected = sorted_copy(base);
  for (const auto algorithm : {LocalSort::Heapsort, LocalSort::Mergesort,
                               LocalSort::Quicksort}) {
    auto keys = base;
    std::uint64_t comparisons = 0;
    local_sort(algorithm, keys, comparisons);
    EXPECT_EQ(keys, expected);
    EXPECT_GT(comparisons, 0u);
  }
}

TEST(MergeSorted, MergesAndCounts) {
  std::uint64_t comparisons = 0;
  const std::vector<Key> a{1, 3, 5};
  const std::vector<Key> b{2, 4, 6};
  EXPECT_EQ(merged(a, b, comparisons), (std::vector<Key>{1, 2, 3, 4, 5, 6}));
  EXPECT_LE(comparisons, 5u);
}

TEST(MergeSorted, HandlesEmptySides) {
  std::uint64_t comparisons = 0;
  const std::vector<Key> a{1, 2};
  const std::vector<Key> empty;
  EXPECT_EQ(merged(a, empty, comparisons), a);
  EXPECT_EQ(merged(empty, a, comparisons), a);
  EXPECT_EQ(comparisons, 0u);
}

TEST(MergeSorted, StableForTies) {
  std::uint64_t comparisons = 0;
  const std::vector<Key> a{2, 2};
  const std::vector<Key> b{2};
  EXPECT_EQ(merged(a, b, comparisons), (std::vector<Key>{2, 2, 2}));
}

TEST(SortUnimodal, PeakShapes) {
  std::uint64_t comparisons = 0;
  std::vector<Key> scratch;
  std::vector<Key> v{1, 4, 9, 7, 2};
  sort_unimodal(v, scratch, comparisons);
  EXPECT_EQ(v, (std::vector<Key>{1, 2, 4, 7, 9}));
}

TEST(SortUnimodal, ValleyShapes) {
  std::uint64_t comparisons = 0;
  std::vector<Key> scratch;
  std::vector<Key> v{9, 5, 1, 3, 8};
  sort_unimodal(v, scratch, comparisons);
  EXPECT_EQ(v, (std::vector<Key>{1, 3, 5, 8, 9}));
}

TEST(SortUnimodal, MonotoneInputsPassThrough) {
  std::uint64_t comparisons = 0;
  std::vector<Key> scratch;
  std::vector<Key> asc{1, 2, 3};
  sort_unimodal(asc, scratch, comparisons);
  EXPECT_EQ(asc, (std::vector<Key>{1, 2, 3}));
  std::vector<Key> desc{3, 2, 1};
  sort_unimodal(desc, scratch, comparisons);
  EXPECT_EQ(desc, (std::vector<Key>{1, 2, 3}));
}

TEST(SortUnimodal, PlateausAndTies) {
  std::uint64_t comparisons = 0;
  std::vector<Key> scratch;
  std::vector<Key> v{1, 3, 3, 3, 2, 2};
  sort_unimodal(v, scratch, comparisons);
  EXPECT_EQ(v, (std::vector<Key>{1, 2, 2, 3, 3, 3}));
  std::vector<Key> equal{5, 5, 5};
  sort_unimodal(equal, scratch, comparisons);
  EXPECT_EQ(equal, (std::vector<Key>{5, 5, 5}));
}

TEST(SortUnimodal, TinyInputs) {
  std::uint64_t comparisons = 0;
  std::vector<Key> scratch;
  std::vector<Key> empty;
  sort_unimodal(empty, scratch, comparisons);
  EXPECT_TRUE(empty.empty());
  std::vector<Key> one{7};
  sort_unimodal(one, scratch, comparisons);
  EXPECT_EQ(one, std::vector<Key>{7});
  std::vector<Key> two{9, 1};
  sort_unimodal(two, scratch, comparisons);
  EXPECT_EQ(two, (std::vector<Key>{1, 9}));
}

TEST(SortUnimodal, RandomMinMaxPairSequences) {
  // The exact shapes the half-exchange protocol produces: min (or max) of
  // (ascending a[k], descending b[k]) over k.
  util::Rng rng(4);
  for (int trial = 0; trial < 100; ++trial) {
    auto a = gen_uniform(33, rng);
    auto b = gen_uniform(33, rng);
    std::sort(a.begin(), a.end());
    std::sort(b.rbegin(), b.rend());
    std::vector<Key> mins(33);
    std::vector<Key> maxs(33);
    for (int i = 0; i < 33; ++i) {
      mins[static_cast<std::size_t>(i)] =
          std::min(a[static_cast<std::size_t>(i)],
                   b[static_cast<std::size_t>(i)]);
      maxs[static_cast<std::size_t>(i)] =
          std::max(a[static_cast<std::size_t>(i)],
                   b[static_cast<std::size_t>(i)]);
    }
    std::uint64_t comparisons = 0;
    std::vector<Key> scratch;
    auto mins_expected = sorted_copy(mins);
    sort_unimodal(mins, scratch, comparisons);
    EXPECT_EQ(mins, mins_expected);
    auto maxs_expected = sorted_copy(maxs);
    sort_unimodal(maxs, scratch, comparisons);
    EXPECT_EQ(maxs, maxs_expected);
    // Linear cost: at most ~2n comparisons per call.
    EXPECT_LE(comparisons, 4u * 33u + 8u);
  }
}

TEST(IsAscending, DetectsOrderAndTies) {
  EXPECT_TRUE(is_ascending(std::vector<Key>{}));
  EXPECT_TRUE(is_ascending(std::vector<Key>{1}));
  EXPECT_TRUE(is_ascending(std::vector<Key>{1, 1, 2}));
  EXPECT_FALSE(is_ascending(std::vector<Key>{2, 1}));
}

TEST(IsGloballyAscending, SpansBlockBoundaries) {
  const std::vector<std::vector<Key>> good{{1, 2}, {2, 3}, {}, {4}};
  EXPECT_TRUE(is_globally_ascending(good));
  const std::vector<std::vector<Key>> bad{{1, 5}, {4, 6}};
  EXPECT_FALSE(is_globally_ascending(bad));
}

}  // namespace
}  // namespace ftsort::sort
