#include "sort/sequential.hpp"

#include <algorithm>
#include <iterator>

#include "util/contracts.hpp"

namespace ftsort::sort {

namespace {

/// Sift `key` down from the hole at `root` within data[0 .. size): each
/// larger child moves up one level into the hole until a child is <= key,
/// then the key fills the hole. The comparisons, their order and their
/// count are those of the swap-per-level textbook loop: two at a parent
/// with two children (the larger child, ties going left, then child <=
/// key) and one at the lone-left-child parent that exists when `size` is
/// even. The child choice is arithmetic, not a branch: on random keys it
/// is a coin flip no predictor learns. Returns the comparison count.
std::uint64_t sift_down(Key* data, std::size_t root, std::size_t size,
                        const Key key) {
  std::uint64_t comparisons = 0;
  std::size_t child = 2 * root + 2;  // the right child
  for (; child < size; child = 2 * root + 2) {
    child -= static_cast<std::size_t>(data[child - 1] >= data[child]);
    comparisons += 2;
    if (data[child] <= key) {
      data[root] = key;
      return comparisons;
    }
    data[root] = data[child];
    root = child;
  }
  if (child == size) {  // the lone left child, in the last slot
    ++comparisons;
    if (data[size - 1] > key) {
      data[root] = data[size - 1];
      root = size - 1;
    }
  }
  data[root] = key;
  return comparisons;
}

/// Merge the ascending runs [a, a_end) and [b, b_end) into `dst`, ties to
/// the first run. Either run may be read through reverse iterators. Returns
/// the textbook count: one per key placed while both runs held keys. Runs
/// that do not overlap are copied and counted by the same rule.
template <class RunA, class RunB>
std::uint64_t merge_runs(RunA a, const RunA a_end, RunB b, const RunB b_end,
                         Key* dst) {
  if (a != a_end && b != b_end) {
    // The loop would place all of one run while the other still held
    // every key, counting the first run's keys.
    if (*std::prev(a_end) <= *b) {
      std::copy(b, b_end, std::copy(a, a_end, dst));
      return static_cast<std::uint64_t>(a_end - a);
    }
    if (*std::prev(b_end) < *a) {
      std::copy(a, a_end, std::copy(b, b_end, dst));
      return static_cast<std::uint64_t>(b_end - b);
    }
  }
  Key* const start = dst;
  while (a != a_end && b != b_end) *dst++ = (*b < *a) ? *b++ : *a++;
  const auto placed = static_cast<std::uint64_t>(dst - start);
  std::copy(b, b_end, std::copy(a, a_end, dst));
  return placed;
}

}  // namespace

void heapsort(std::span<Key> data, std::uint64_t& comparisons) {
  const std::size_t n = data.size();
  if (n < 2) return;
  Key* const d = data.data();
  std::uint64_t count = 0;
  for (std::size_t i = n / 2; i-- > 0;) count += sift_down(d, i, n, d[i]);
  for (std::size_t end = n; end-- > 1;) {
    // Move the maximum to the back; the key it displaces sifts from the root.
    const Key key = d[end];
    d[end] = d[0];
    count += sift_down(d, 0, end, key);
  }
  comparisons += count;
}

namespace {

void mergesort_impl(std::span<Key> data, std::span<Key> scratch,
                    std::uint64_t& comparisons) {
  const std::size_t n = data.size();
  if (n < 2) return;
  const std::size_t half = n / 2;
  mergesort_impl(data.subspan(0, half), scratch.subspan(0, half),
                 comparisons);
  mergesort_impl(data.subspan(half), scratch.subspan(half), comparisons);
  // Merge into scratch, then copy back.
  const Key* const d = data.data();
  comparisons += merge_runs(d, d + half, d + half, d + n, scratch.data());
  std::copy(scratch.begin(), scratch.begin() + static_cast<std::ptrdiff_t>(n),
            data.begin());
}

void insertion_sort(std::span<Key> data, std::uint64_t& comparisons) {
  for (std::size_t i = 1; i < data.size(); ++i) {
    const Key key = data[i];
    std::size_t j = i;
    while (j > 0) {
      ++comparisons;
      if (data[j - 1] <= key) break;
      data[j] = data[j - 1];
      --j;
    }
    data[j] = key;
  }
}

void quicksort_impl(std::span<Key> data, std::uint64_t& comparisons) {
  constexpr std::size_t kCutoff = 16;
  while (data.size() > kCutoff) {
    // Median of three: first, middle, last.
    const std::size_t n = data.size();
    const std::size_t mid = n / 2;
    comparisons += 3;
    if (data[mid] < data[0]) std::swap(data[mid], data[0]);
    if (data[n - 1] < data[0]) std::swap(data[n - 1], data[0]);
    if (data[n - 1] < data[mid]) std::swap(data[n - 1], data[mid]);
    const Key pivot = data[mid];
    // Hoare partition.
    std::size_t i = 0;
    std::size_t j = n - 1;
    while (true) {
      do {
        ++i;
        ++comparisons;
      } while (data[i] < pivot);
      do {
        --j;
        ++comparisons;
      } while (pivot < data[j]);
      if (i >= j) break;
      std::swap(data[i], data[j]);
    }
    // Recurse into the smaller side, loop on the larger (O(log n) stack).
    const std::size_t split = j + 1;
    if (split < n - split) {
      quicksort_impl(data.subspan(0, split), comparisons);
      data = data.subspan(split);
    } else {
      quicksort_impl(data.subspan(split), comparisons);
      data = data.subspan(0, split);
    }
  }
  insertion_sort(data, comparisons);
}

}  // namespace

void mergesort(std::span<Key> data, std::uint64_t& comparisons) {
  std::vector<Key> scratch(data.size());
  mergesort_impl(data, scratch, comparisons);
}

void quicksort(std::span<Key> data, std::uint64_t& comparisons) {
  quicksort_impl(data, comparisons);
}

void local_sort(LocalSort algorithm, std::span<Key> data,
                std::uint64_t& comparisons) {
  switch (algorithm) {
    case LocalSort::Heapsort: heapsort(data, comparisons); return;
    case LocalSort::Mergesort: mergesort(data, comparisons); return;
    case LocalSort::Quicksort: quicksort(data, comparisons); return;
  }
}

void merge_sorted_into(std::span<const Key> a, std::span<const Key> b,
                       std::vector<Key>& out, std::uint64_t& comparisons) {
  out.resize(a.size() + b.size());
  comparisons += merge_runs(a.begin(), a.end(), b.begin(), b.end(), out.data());
}

void sort_unimodal(std::vector<Key>& data, std::vector<Key>& scratch,
                   std::uint64_t& comparisons) {
  const std::size_t n = data.size();
  if (n < 2) return;
  // Detect the shape from the first strict change of direction. A peak
  // sequence splits into ascending + descending; a valley into descending
  // + ascending.
  std::size_t k = 1;
  while (k < n && data[k] == data[k - 1]) ++k;
  if (k == n) return;  // all equal
  const std::size_t first = k;  // the first key unequal to its predecessor
  const bool rising_start = data[k] > data[k - 1];
  // The turn is the first strict step against the starting direction: one
  // host comparison per key.
  if (rising_start) {
    while (++k < n && !(data[k] < data[k - 1])) {
    }
  } else {
    while (++k < n && !(data[k] > data[k - 1])) {
    }
  }
  const std::size_t turn = k;  // where the second run starts; n if none
  // One for the direction, one per index from `first` through the turn.
  comparisons += 1 + (turn < n ? turn + 1 : n) - first;
  if (turn == n) {  // already monotone
    if (!rising_start) std::reverse(data.begin(), data.end());
    return;
  }
  // Merge the two monotone runs straight out of `data`, data[0, turn)
  // first, reading the falling one backwards instead of copying it.
  scratch.resize(n);
  const Key* const src = data.data();
  using Back = std::reverse_iterator<const Key*>;
  comparisons += rising_start ? merge_runs(src, src + turn, Back(src + n),
                                           Back(src + turn), scratch.data())
                              : merge_runs(Back(src + turn), Back(src),
                                           src + turn, src + n, scratch.data());
  std::swap(data, scratch);
}

std::uint64_t monotone_unimodal_count(std::span<const Key> run,
                                      bool read_backward) {
  const std::size_t n = run.size();
  if (n < 2) return 0;
  // `first` is sort_unimodal's: the first index, in read order, whose key
  // differs from its predecessor's.
  std::size_t first = 1;
  if (read_backward) {
    while (first < n && run[n - 1 - first] == run[n - first]) ++first;
  } else {
    while (first < n && run[first] == run[first - 1]) ++first;
  }
  return first == n ? 0 : 1 + n - first;
}

bool is_ascending(std::span<const Key> data) {
  for (std::size_t i = 1; i < data.size(); ++i)
    if (data[i] < data[i - 1]) return false;
  return true;
}

bool is_globally_ascending(std::span<const std::vector<Key>> blocks) {
  const Key* last = nullptr;
  for (const auto& block : blocks) {
    for (const Key& key : block) {
      if (last != nullptr && key < *last) return false;
      last = &key;
    }
  }
  return true;
}

}  // namespace ftsort::sort
