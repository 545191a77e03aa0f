// Block pairs whose order shows at their ends: the families on which the
// half exchange can copy instead of select, scan and merge. The exact-count
// oracles (test_sequential_sort.cpp) and the Q_1 exchange tests
// (test_trace_and_exchange.cpp) run both sides of an exchange on them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/message.hpp"
#include "util/rng.hpp"

namespace ftsort::test {

using sim::Key;

/// A (Lower block, Upper block) pair; both ascending, of equal size.
using BlockPair = std::pair<std::vector<Key>, std::vector<Key>>;

/// `count` keys drawn from [lo, lo + range), ascending.
inline std::vector<Key> sorted_keys_from(std::size_t count, Key lo,
                                         std::uint64_t range,
                                         util::Rng& rng) {
  std::vector<Key> keys(count);
  for (Key& key : keys) key = lo + static_cast<Key>(rng.below(range));
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// An ascending block of `below` keys from [0, p), then copies of p, then
/// `above` keys from (p, 2p]; `below + above` must not exceed `b`.
inline std::vector<Key> plateau_block(std::size_t b, std::size_t below,
                                      std::size_t above, Key p,
                                      util::Rng& rng) {
  const auto range = static_cast<std::uint64_t>(p);
  std::vector<Key> keys = sorted_keys_from(below, 0, range, rng);
  keys.resize(b - above, p);
  const std::vector<Key> top = sorted_keys_from(above, p + 1, range, rng);
  keys.insert(keys.end(), top.begin(), top.end());
  return keys;
}

/// The ordered families for blocks of `b` keys, each run drawn from
/// `range` values:
///  - A wholly below B, and wholly above it;
///  - A and B touching at one equal key, either way round;
///  - a plateau of equal keys in both blocks that spans the crossover of
///    the pairs (A[k], B[b-1-k]), and its mirror;
///  - all keys equal.
inline std::vector<BlockPair> ordered_block_pairs(std::size_t b,
                                                  std::uint64_t range,
                                                  util::Rng& rng) {
  const Key span = static_cast<Key>(range);
  const std::vector<Key> low = sorted_keys_from(b, 0, range, rng);
  const std::vector<Key> high = sorted_keys_from(b, span, range, rng);
  std::vector<Key> touch = high;  // high shifted down onto low's top key
  if (b > 0)
    for (Key& key : touch) key -= high.front() - low.back();
  // Pairs k < c - w take their min from A, pairs k >= c + w from B, and
  // the pairs in between tie at the plateau (half-widths w and v).
  const std::size_t c = rng.below(b + 1);
  const auto clamp = [&](std::ptrdiff_t k) {
    return static_cast<std::size_t>(
        std::clamp<std::ptrdiff_t>(k, 0, static_cast<std::ptrdiff_t>(b)));
  };
  const auto ci = static_cast<std::ptrdiff_t>(c);
  const auto w = static_cast<std::ptrdiff_t>(rng.below(b / 2 + 2));
  const auto v = static_cast<std::ptrdiff_t>(rng.below(b / 2 + 2));
  const std::vector<Key> plateau_a =
      plateau_block(b, clamp(ci - w), b - clamp(ci + w), span, rng);
  const std::vector<Key> plateau_b =
      plateau_block(b, b - clamp(ci + v), clamp(ci - v), span, rng);
  const std::vector<Key> equal(b, span);
  return {{low, high},           {high, low},
          {low, touch},          {touch, low},
          {plateau_a, plateau_b}, {plateau_b, plateau_a},
          {equal, equal}};
}

}  // namespace ftsort::test
