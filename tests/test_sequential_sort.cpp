// Unit tests for the sequential sorting kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ordered_blocks.hpp"
#include "sort/distribution.hpp"
#include "sort/merge_split.hpp"
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

// ---------------------------------------------------------------------------
// Exact-count oracle. The simulator charges t_c per comparison, so every
// simulated time depends on the kernels' counts: the library kernels must
// make the comparisons of the textbook loops below, call for call, not
// merely stay within a bound. These are the straightforward swap-per-level
// heapsort, the top-down mergesort and the merge loops that bump the
// caller's counter per comparison, kept here only as oracles.

void textbook_sift_down(std::span<Key> data, std::size_t root,
                        std::size_t size, std::uint64_t& comparisons) {
  while (true) {
    const std::size_t left = 2 * root + 1;
    if (left >= size) return;
    std::size_t largest = left;
    const std::size_t right = left + 1;
    if (right < size) {
      ++comparisons;
      if (data[right] > data[left]) largest = right;
    }
    ++comparisons;
    if (data[largest] <= data[root]) return;
    std::swap(data[root], data[largest]);
    root = largest;
  }
}

void textbook_heapsort(std::span<Key> data, std::uint64_t& comparisons) {
  const std::size_t n = data.size();
  if (n < 2) return;
  for (std::size_t i = n / 2; i-- > 0;)
    textbook_sift_down(data, i, n, comparisons);
  for (std::size_t end = n; end-- > 1;) {
    std::swap(data[0], data[end]);
    textbook_sift_down(data, 0, end, comparisons);
  }
}

void textbook_merge_sorted_into(std::span<const Key> a,
                                std::span<const Key> b, std::vector<Key>& out,
                                std::uint64_t& comparisons) {
  out.resize(a.size() + b.size());
  Key* const dst = out.data();
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t k = 0;
  while (i < a.size() && j < b.size()) {
    ++comparisons;
    dst[k++] = (b[j] < a[i]) ? b[j++] : a[i++];
  }
  while (i < a.size()) dst[k++] = a[i++];
  while (j < b.size()) dst[k++] = b[j++];
}

/// Top-down, split at n / 2, each merge by the textbook loop above.
void textbook_mergesort(std::span<Key> data, std::uint64_t& comparisons) {
  const std::size_t n = data.size();
  if (n < 2) return;
  const std::size_t half = n / 2;
  textbook_mergesort(data.first(half), comparisons);
  textbook_mergesort(data.subspan(half), comparisons);
  std::vector<Key> merged;
  textbook_merge_sorted_into(data.first(half), data.subspan(half), merged,
                             comparisons);
  std::copy(merged.begin(), merged.end(), data.begin());
}

void textbook_sort_unimodal(std::vector<Key>& data, std::vector<Key>& scratch,
                            std::uint64_t& comparisons) {
  const std::size_t n = data.size();
  if (n < 2) return;
  std::size_t turn = n;
  std::size_t k = 1;
  while (k < n && data[k] == data[k - 1]) ++k;
  if (k == n) return;
  ++comparisons;
  const bool rising_start = data[k] > data[k - 1];
  for (; k < n; ++k) {
    ++comparisons;
    if (data[k] == data[k - 1]) continue;
    const bool rising_here = data[k] > data[k - 1];
    if (rising_here != rising_start) {
      turn = k;
      break;
    }
  }
  if (turn == n) {
    if (!rising_start) std::reverse(data.begin(), data.end());
    return;
  }
  scratch.resize(n);
  const Key* const src = data.data();
  Key* const dst = scratch.data();
  std::size_t ai = 0;
  std::size_t bj = 0;
  const std::size_t a_len = turn;
  const std::size_t b_len = n - turn;
  const auto a_at = [&](std::size_t i) {
    return rising_start ? src[i] : src[a_len - 1 - i];
  };
  const auto b_at = [&](std::size_t j) {
    return rising_start ? src[n - 1 - j] : src[turn + j];
  };
  std::size_t out = 0;
  while (ai < a_len && bj < b_len) {
    ++comparisons;
    const Key a = a_at(ai);
    const Key b = b_at(bj);
    if (b < a) {
      dst[out++] = b;
      ++bj;
    } else {
      dst[out++] = a;
      ++ai;
    }
  }
  while (ai < a_len) dst[out++] = a_at(ai++);
  while (bj < b_len) dst[out++] = b_at(bj++);
  std::swap(data, scratch);
}

// Both sides start from a nonzero counter: the kernels add to it.
constexpr std::uint64_t kCounterStart = 7;

::testing::AssertionResult same_result(const std::vector<Key>& got,
                                       std::uint64_t got_count,
                                       const std::vector<Key>& want,
                                       std::uint64_t want_count) {
  if (got != want) return ::testing::AssertionFailure() << "output differs";
  if (got_count != want_count)
    return ::testing::AssertionFailure()
           << "count " << got_count - kCounterStart << ", textbook "
           << want_count - kCounterStart;
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult heapsort_matches(const std::vector<Key>& input) {
  std::vector<Key> got = input;
  std::vector<Key> want = input;
  std::uint64_t got_count = kCounterStart;
  std::uint64_t want_count = kCounterStart;
  heapsort(got, got_count);
  textbook_heapsort(want, want_count);
  return same_result(got, got_count, want, want_count);
}

::testing::AssertionResult mergesort_matches(const std::vector<Key>& input) {
  std::vector<Key> got = input;
  std::vector<Key> want = input;
  std::uint64_t got_count = kCounterStart;
  std::uint64_t want_count = kCounterStart;
  mergesort(got, got_count);
  textbook_mergesort(want, want_count);
  return same_result(got, got_count, want, want_count);
}

::testing::AssertionResult merge_matches(const std::vector<Key>& a,
                                         const std::vector<Key>& b) {
  std::vector<Key> got;
  std::vector<Key> want;
  std::uint64_t got_count = kCounterStart;
  std::uint64_t want_count = kCounterStart;
  merge_sorted_into(a, b, got, got_count);
  textbook_merge_sorted_into(a, b, want, want_count);
  return same_result(got, got_count, want, want_count);
}

::testing::AssertionResult unimodal_matches(const std::vector<Key>& input) {
  std::vector<Key> got = input;
  std::vector<Key> want = input;
  std::vector<Key> scratch;
  std::uint64_t got_count = kCounterStart;
  std::uint64_t want_count = kCounterStart;
  sort_unimodal(got, scratch, got_count);
  textbook_sort_unimodal(want, scratch, want_count);
  return same_result(got, got_count, want, want_count);
}

constexpr std::size_t kMaxOracleSize = 600;
// Key ranges from all-equal to the full 48-bit range of gen_uniform.
constexpr std::uint64_t kKeyRanges[] = {1, 3, 1000, std::uint64_t{1} << 48};

std::vector<Key> random_keys(std::size_t n, std::uint64_t range,
                             util::Rng& rng) {
  std::vector<Key> keys(n);
  for (Key& key : keys) key = static_cast<Key>(rng.below(range));
  return keys;
}

std::vector<Key> sorted_random_keys(std::size_t n, std::uint64_t range,
                                    util::Rng& rng) {
  return sorted_copy(random_keys(n, range, rng));
}

/// A peak of n keys from [0, range): a plateau of its first key, an
/// ascending run, a plateau of its top, a descending run and a plateau of
/// its last key, each plateau possibly empty. `valley` mirrors it.
std::vector<Key> plateau_unimodal(std::size_t n, std::uint64_t range,
                                  bool valley, util::Rng& rng) {
  const std::size_t start = rng.below(n / 4 + 1);
  const std::size_t turn = rng.below(n / 4 + 1);
  const std::size_t end = rng.below(n / 4 + 1);
  const std::size_t runs = n - start - turn - end;
  const std::size_t rise_len = rng.below(runs + 1);
  std::vector<Key> rise = sorted_random_keys(rise_len, range, rng);
  std::vector<Key> fall = sorted_random_keys(runs - rise_len, range, rng);
  std::reverse(fall.begin(), fall.end());
  const Key first = rise.empty() ? (fall.empty() ? 0 : fall.front())
                                 : rise.front();
  const Key top = std::max(rise.empty() ? first : rise.back(),
                           fall.empty() ? first : fall.front());
  const Key last = fall.empty() ? top : fall.back();
  std::vector<Key> keys(start, first);
  keys.insert(keys.end(), rise.begin(), rise.end());
  keys.insert(keys.end(), turn, top);
  keys.insert(keys.end(), fall.begin(), fall.end());
  keys.insert(keys.end(), end, last);
  if (valley)
    for (Key& key : keys) key = static_cast<Key>(range - 1) - key;
  return keys;
}

TEST(ExactCountOracle, HeapsortMatchesTextbookOnEverySize) {
  util::Rng rng(31);
  for (std::size_t n = 0; n <= kMaxOracleSize; ++n) {
    for (const std::uint64_t range : kKeyRanges)
      ASSERT_TRUE(heapsort_matches(random_keys(n, range, rng)))
          << "n=" << n << " range=" << range;
    const std::vector<Key> shaped[] = {
        gen_sorted(n), gen_reverse(n), gen_organ_pipe(n),
        gen_few_distinct(n, 3, rng), gen_nearly_sorted(n, n / 16 + 1, rng)};
    for (const auto& keys : shaped)
      ASSERT_TRUE(heapsort_matches(keys)) << "n=" << n;
  }
}

TEST(ExactCountOracle, MergesortMatchesTextbookOnEverySize) {
  util::Rng rng(35);
  for (std::size_t n = 0; n <= kMaxOracleSize; ++n) {
    for (const std::uint64_t range : kKeyRanges)
      ASSERT_TRUE(mergesort_matches(random_keys(n, range, rng)))
          << "n=" << n << " range=" << range;
    const std::vector<Key> shaped[] = {
        gen_sorted(n), gen_reverse(n), gen_organ_pipe(n),
        gen_few_distinct(n, 3, rng), gen_nearly_sorted(n, n / 16 + 1, rng)};
    for (const auto& keys : shaped)
      ASSERT_TRUE(mergesort_matches(keys)) << "n=" << n;
  }
}

TEST(ExactCountOracle, MergeMatchesTextbookOnEverySize) {
  util::Rng rng(32);
  for (std::size_t n = 0; n <= kMaxOracleSize; ++n) {
    for (const std::uint64_t range : kKeyRanges) {
      const std::size_t na = rng.below(n + 1);
      const auto a = sorted_random_keys(na, range, rng);
      const auto b = sorted_random_keys(n - na, range, rng);
      ASSERT_TRUE(merge_matches(a, b)) << "n=" << n << " range=" << range;
      ASSERT_TRUE(merge_matches(b, a)) << "n=" << n << " range=" << range;
    }
    // Disjoint runs: one side runs out first without ever winning.
    const auto low = gen_sorted(n / 2);
    auto high = gen_sorted(n - n / 2);
    for (Key& key : high) key += static_cast<Key>(n);
    ASSERT_TRUE(merge_matches(low, high)) << "n=" << n;
    ASSERT_TRUE(merge_matches(high, low)) << "n=" << n;
  }
}

TEST(ExactCountOracle, UnimodalMatchesTextbookWithPlateaus) {
  util::Rng rng(33);
  for (std::size_t n = 0; n <= kMaxOracleSize; ++n) {
    for (const std::uint64_t range : kKeyRanges) {
      for (const bool valley : {false, true}) {
        ASSERT_TRUE(unimodal_matches(plateau_unimodal(n, range, valley, rng)))
            << "n=" << n << " range=" << range << " valley=" << valley;
      }
    }
    ASSERT_TRUE(unimodal_matches(gen_organ_pipe(n))) << "n=" << n;
    ASSERT_TRUE(unimodal_matches(gen_sorted(n))) << "n=" << n;
    ASSERT_TRUE(unimodal_matches(gen_reverse(n))) << "n=" << n;
  }
}

/// One side of the half exchange by the textbook: the pairwise select
/// before the losers leave, then both unimodal repairs and the merge.
struct TextbookSide {
  std::vector<Key> block;   ///< the kept half, at the end
  std::vector<Key> losers;  ///< the wire content of the second send
  std::uint64_t before = 0;  ///< comparisons charged before that send
  std::uint64_t after = 0;   ///< comparisons charged after the reply
};

/// Both sides of the half-exchange protocol on sorted blocks A (Lower) and
/// B (Upper) of b keys: the Lower side evaluates pairs [h, b), the Upper
/// side [0, h); each repairs its kept and received unimodal halves and
/// merges them. half_exchange_select and half_exchange_merge must match
/// the textbook's losers, kept block and both counts on each side.
::testing::AssertionResult half_exchange_matches(
    const std::vector<Key>& lower_block, const std::vector<Key>& upper_block) {
  const std::size_t b = lower_block.size();
  const std::size_t h = b / 2;
  const std::span<const Key> lower(lower_block);
  const std::span<const Key> upper(upper_block);
  const SplitHalf keep[2] = {SplitHalf::Lower, SplitHalf::Upper};
  // The bottom of the partner's block, which each side receives first.
  const std::span<const Key> theirs[2] = {upper.first(b - h), lower.first(h)};

  TextbookSide want[2];
  pairwise_select_rev_into(lower.subspan(h), theirs[0], keep[0],
                           want[0].block, want[0].losers, want[0].before);
  pairwise_select_rev_into(theirs[1], upper.last(h), keep[1], want[1].block,
                           want[1].losers, want[1].before);
  std::vector<Key> scratch;
  for (int s = 0; s < 2; ++s) {
    std::vector<Key> winners = want[1 - s].losers;
    textbook_sort_unimodal(want[s].block, scratch, want[s].after);
    textbook_sort_unimodal(winners, scratch, want[s].after);
    std::vector<Key> merged;
    textbook_merge_sorted_into(want[s].block, winners, merged,
                               want[s].after);
    want[s].block = std::move(merged);
  }

  std::vector<Key> block[2] = {lower_block, upper_block};
  std::vector<Key> kept[2];
  std::vector<Key> losers[2];
  for (int s = 0; s < 2; ++s) {
    const std::uint64_t before =
        half_exchange_select(block[s], theirs[s], keep[s], kept[s], losers[s]);
    if (losers[s] != want[s].losers)
      return ::testing::AssertionFailure() << "side " << s << ": losers differ";
    if (before != want[s].before)
      return ::testing::AssertionFailure()
             << "side " << s << ": " << before << " comparisons before the "
             << "send, textbook " << want[s].before;
  }
  for (int s = 0; s < 2; ++s) {
    std::vector<Key> back = losers[1 - s];
    std::vector<Key> unimodal;
    std::vector<Key> merged;
    const std::uint64_t after = half_exchange_merge(
        block[s], theirs[s], keep[s], kept[s], back, unimodal, merged);
    if (block[s] != want[s].block)
      return ::testing::AssertionFailure()
             << "side " << s << ": kept block differs";
    if (after != want[s].after)
      return ::testing::AssertionFailure()
             << "side " << s << ": " << after << " comparisons after the "
             << "reply, textbook " << want[s].after;
  }
  return ::testing::AssertionSuccess();
}

TEST(ExactCountOracle, HalfExchangeSidesMatchTextbook) {
  util::Rng rng(34);
  for (std::size_t b = 0; b <= kMaxOracleSize; ++b) {
    for (const std::uint64_t range : kKeyRanges) {
      const auto lower_block = sorted_random_keys(b, range, rng);
      const auto upper_block = sorted_random_keys(b, range, rng);
      ASSERT_TRUE(half_exchange_matches(lower_block, upper_block))
          << "b=" << b << " range=" << range;
      // The ordered families: A below or above B, touching at one key, a
      // plateau across the crossover, all keys equal.
      const auto families = test::ordered_block_pairs(b, range, rng);
      for (std::size_t f = 0; f < families.size(); ++f)
        ASSERT_TRUE(half_exchange_matches(families[f].first,
                                          families[f].second))
            << "b=" << b << " range=" << range << " family=" << f;
    }
  }
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
