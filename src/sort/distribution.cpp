#include "sort/distribution.hpp"

#include <algorithm>
#include <ranges>

#include "util/contracts.hpp"

namespace ftsort::sort {

Distribution distribute_evenly(std::span<const Key> keys,
                               std::uint32_t live_count) {
  FTSORT_REQUIRE(live_count > 0);
  Distribution dist;
  dist.block_size =
      (keys.size() + live_count - 1) / live_count;  // ceil; 0 when no keys
  dist.blocks.resize(live_count);
  std::size_t offset = 0;
  for (auto& block : dist.blocks) {
    const std::size_t take = std::min(dist.block_size, keys.size() - offset);
    block.assign(keys.begin() + static_cast<std::ptrdiff_t>(offset),
                 keys.begin() + static_cast<std::ptrdiff_t>(offset + take));
    block.resize(dist.block_size, sim::kDummyKey);
    offset += take;
  }
  FTSORT_ENSURE(offset == keys.size());
  return dist;
}

Placement scatter(std::span<const Key> keys,
                  std::span<const cube::NodeId> slots,
                  std::uint32_t num_nodes) {
  Distribution dist =
      distribute_evenly(keys, static_cast<std::uint32_t>(slots.size()));
  Placement placed{dist.block_size, std::vector<std::vector<Key>>(num_nodes)};
  for (std::size_t i = 0; i < slots.size(); ++i)
    placed.block_of[slots[i]] = std::move(dist.blocks[i]);
  return placed;
}

namespace {

/// Concatenation of `blocks` (any multi-pass range of key vectors) minus
/// the dummy keys, into storage reserved up front.
std::vector<Key> concat_stripped(const auto& blocks) {
  std::size_t total = 0;
  for (const std::vector<Key>& block : blocks) total += block.size();
  std::vector<Key> out;
  out.reserve(total);
  for (const std::vector<Key>& block : blocks)
    for (const Key key : block)
      if (key != sim::kDummyKey) out.push_back(key);
  return out;
}

}  // namespace

std::vector<Key> gather(std::span<const std::vector<Key>> block_of,
                        std::span<const cube::NodeId> slots) {
  return concat_stripped(
      slots | std::views::transform(
                  [block_of](cube::NodeId u) -> const std::vector<Key>& {
                    return block_of[u];
                  }));
}

std::vector<Key> gather_and_strip(
    std::span<const std::vector<Key>> blocks) {
  return concat_stripped(blocks);
}

std::vector<Key> gen_uniform(std::size_t count, util::Rng& rng) {
  std::vector<Key> keys(count);
  for (auto& key : keys)
    key = static_cast<Key>(rng.below(std::uint64_t{1} << 48));
  return keys;
}

std::vector<Key> gen_sorted(std::size_t count) {
  std::vector<Key> keys(count);
  for (std::size_t i = 0; i < count; ++i) keys[i] = static_cast<Key>(i);
  return keys;
}

std::vector<Key> gen_reverse(std::size_t count) {
  std::vector<Key> keys(count);
  for (std::size_t i = 0; i < count; ++i)
    keys[i] = static_cast<Key>(count - i);
  return keys;
}

std::vector<Key> gen_few_distinct(std::size_t count, std::size_t distinct,
                                  util::Rng& rng) {
  FTSORT_REQUIRE(distinct > 0);
  std::vector<Key> keys(count);
  for (auto& key : keys)
    key = static_cast<Key>(rng.below(distinct) * 1000);
  return keys;
}

std::vector<Key> gen_organ_pipe(std::size_t count) {
  std::vector<Key> keys(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t up = i < (count + 1) / 2 ? i : count - 1 - i;
    keys[i] = static_cast<Key>(up);
  }
  return keys;
}

std::vector<Key> gen_nearly_sorted(std::size_t count, std::size_t swaps,
                                   util::Rng& rng) {
  std::vector<Key> keys = gen_sorted(count);
  for (std::size_t t = 0; t < swaps && count >= 2; ++t) {
    const auto i = static_cast<std::size_t>(rng.below(count));
    const auto j = static_cast<std::size_t>(rng.below(count));
    std::swap(keys[i], keys[j]);
  }
  return keys;
}

}  // namespace ftsort::sort
