// Unit tests for key distribution, gathering, and workload generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sort/distribution.hpp"
#include "sort/sequential.hpp"
#include "util/rng.hpp"

namespace ftsort::sort {
namespace {

TEST(Distribute, EqualBlocksWithDummyPadding) {
  // The paper's Fig. 6 workload: 47 keys over 24 live processors -> blocks
  // of 2 with one dummy.
  std::vector<Key> keys(47);
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = static_cast<Key>(i);
  const auto dist = distribute_evenly(keys, 24);
  EXPECT_EQ(dist.block_size, 2u);
  ASSERT_EQ(dist.blocks.size(), 24u);
  std::size_t dummies = 0;
  std::size_t real = 0;
  for (const auto& block : dist.blocks) {
    EXPECT_EQ(block.size(), 2u);
    for (Key k : block) (k == sim::kDummyKey ? dummies : real)++;
  }
  EXPECT_EQ(real, 47u);
  EXPECT_EQ(dummies, 1u);
}

TEST(Distribute, ExactDivisionHasNoDummies) {
  const auto keys = gen_sorted(32);
  const auto dist = distribute_evenly(keys, 8);
  EXPECT_EQ(dist.block_size, 4u);
  for (const auto& block : dist.blocks)
    for (Key k : block) EXPECT_NE(k, sim::kDummyKey);
}

TEST(Distribute, EmptyKeysGiveEmptyBlocks) {
  const std::vector<Key> none;
  const auto dist = distribute_evenly(none, 4);
  EXPECT_EQ(dist.block_size, 0u);
  for (const auto& block : dist.blocks) EXPECT_TRUE(block.empty());
}

TEST(Distribute, FewerKeysThanSlots) {
  const auto keys = gen_sorted(3);
  const auto dist = distribute_evenly(keys, 8);
  EXPECT_EQ(dist.block_size, 1u);
  std::size_t real = 0;
  for (const auto& block : dist.blocks)
    for (Key k : block)
      if (k != sim::kDummyKey) ++real;
  EXPECT_EQ(real, 3u);
}

TEST(Distribute, RejectsZeroSlots) {
  const auto keys = gen_sorted(4);
  EXPECT_THROW(distribute_evenly(keys, 0), ContractViolation);
}

TEST(GatherAndStrip, RoundTripsDistribution) {
  util::Rng rng(1);
  const auto keys = gen_uniform(53, rng);
  const auto dist = distribute_evenly(keys, 12);
  EXPECT_EQ(gather_and_strip(dist.blocks), keys);  // order preserved
}

TEST(GatherAndStrip, DropsAllDummies) {
  const std::vector<std::vector<Key>> blocks{
      {1, sim::kDummyKey}, {sim::kDummyKey}, {2, 3}};
  EXPECT_EQ(gather_and_strip(blocks), (std::vector<Key>{1, 2, 3}));
}

// Host-side scatter/gather keyed by a slot list (machine addresses in
// output order), on an 8-node machine whose slots skip nodes 0 and 5.
const std::vector<cube::NodeId> kSlots{6, 1, 3, 7, 2, 4};

TEST(Scatter, EveryRankGetsItsBlock) {
  const auto keys = gen_sorted(17);
  const Placement placed = scatter(keys, kSlots, 8);
  const Distribution dist = distribute_evenly(keys, 6);
  EXPECT_EQ(placed.block_size, dist.block_size);
  ASSERT_EQ(placed.block_of.size(), 8u);
  for (std::size_t i = 0; i < kSlots.size(); ++i)
    EXPECT_EQ(placed.block_of[kSlots[i]], dist.blocks[i]) << "slot " << i;
  EXPECT_TRUE(placed.block_of[0].empty());
  EXPECT_TRUE(placed.block_of[5].empty());
}

TEST(Gather, RootCollectsInLogicalOrder) {
  std::vector<std::vector<Key>> block_of(8);
  for (std::size_t i = 0; i < kSlots.size(); ++i)
    block_of[kSlots[i]] = {static_cast<Key>(2 * i),
                           static_cast<Key>(2 * i + 1)};
  block_of[0] = {99};  // not a slot: never read
  block_of[kSlots.back()].back() = sim::kDummyKey;
  EXPECT_EQ(gather(block_of, kSlots),
            (std::vector<Key>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
}

TEST(GatherScatter, RoundTrip) {
  util::Rng rng(5);
  for (const std::size_t count : {0u, 1u, 5u, 6u, 53u}) {
    const auto keys = gen_uniform(count, rng);
    const Placement placed = scatter(keys, kSlots, 8);
    EXPECT_EQ(gather(placed.block_of, kSlots), keys) << "count " << count;
  }
}

TEST(Generators, UniformStaysBelowDummy) {
  util::Rng rng(2);
  for (Key k : gen_uniform(1000, rng)) {
    EXPECT_GE(k, 0);
    EXPECT_LT(k, sim::kDummyKey);
  }
}

TEST(Generators, SortedAndReverseShapes) {
  EXPECT_TRUE(is_ascending(gen_sorted(100)));
  auto rev = gen_reverse(100);
  std::reverse(rev.begin(), rev.end());
  EXPECT_TRUE(is_ascending(rev));
}

TEST(Generators, FewDistinctHasAtMostKValues) {
  util::Rng rng(3);
  const auto keys = gen_few_distinct(500, 4, rng);
  const std::set<Key> unique(keys.begin(), keys.end());
  EXPECT_LE(unique.size(), 4u);
}

TEST(Generators, OrganPipeRisesThenFalls) {
  const auto keys = gen_organ_pipe(10);
  EXPECT_EQ(keys.front(), 0);
  EXPECT_EQ(keys.back(), 0);
  const auto peak = std::max_element(keys.begin(), keys.end());
  EXPECT_TRUE(is_ascending({keys.begin(), peak + 1}));
}

TEST(Generators, NearlySortedDiffersSlightly) {
  util::Rng rng(4);
  const auto keys = gen_nearly_sorted(100, 3, rng);
  const auto clean = gen_sorted(100);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < 100; ++i)
    if (keys[i] != clean[i]) ++mismatches;
  EXPECT_LE(mismatches, 6u);  // 3 swaps touch at most 6 positions
  auto sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, clean);  // same multiset
}

}  // namespace
}  // namespace ftsort::sort
