// Tests for the SPMD block bitonic sort on the simulated machine:
// fault-free and dead-node cubes, both directions, both protocols.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>

#include "core/ft_sorter.hpp"
#include "fault/scenario.hpp"
#include "sort/distribution.hpp"
#include "sort/spmd_bitonic.hpp"
#include "util/rng.hpp"

namespace ftsort::sort {
namespace {

struct RunResult {
  std::vector<std::vector<Key>> blocks;  // by logical address
  sim::RunReport report;
};

/// Walk each live node's block bitonic sort over an identity or reindexed
/// cube.
RunResult run_sort(cube::Dim s, bool dead0, std::size_t block_size,
                   bool ascending, ExchangeProtocol protocol,
                   std::uint64_t seed) {
  LogicalCube lc = LogicalCube::identity(s);
  lc.dead0 = dead0;
  util::Rng rng(seed);

  std::vector<std::vector<Key>> blocks(lc.size());
  for (cube::NodeId u = 0; u < lc.size(); ++u) {
    if (lc.is_dead(u)) continue;
    blocks[u] = gen_uniform(block_size, rng);
    std::sort(blocks[u].begin(), blocks[u].end());
  }

  fault::FaultSet faults =
      dead0 ? fault::FaultSet(s, {0}) : fault::FaultSet(s);
  sim::Machine machine(s, faults);
  const auto program = [&](sim::NodeCtx& ctx) -> sim::Task {
    std::vector<ExchangeStep> steps;
    append_bitonic_sort(lc, ctx.id(), ascending, sim::Phase::SubcubeSort, 0,
                        steps);
    co_await run_schedule(ctx, steps, blocks[ctx.id()], protocol);
  };
  RunResult result;
  result.report = machine.run(program);
  result.blocks = std::move(blocks);
  return result;
}

std::vector<Key> flatten(const std::vector<std::vector<Key>>& blocks,
                         bool reverse_blocks) {
  std::vector<Key> out;
  if (!reverse_blocks) {
    for (const auto& b : blocks) out.insert(out.end(), b.begin(), b.end());
  } else {
    for (auto it = blocks.rbegin(); it != blocks.rend(); ++it)
      out.insert(out.end(), it->begin(), it->end());
  }
  return out;
}

TEST(BlockBitonic, SortsAscendingFaultFree) {
  for (cube::Dim s = 0; s <= 5; ++s) {
    const auto result =
        run_sort(s, false, 4, true, ExchangeProtocol::HalfExchange, static_cast<std::uint64_t>(s) + 1);
    EXPECT_TRUE(is_globally_ascending(result.blocks)) << "s=" << s;
  }
}

TEST(BlockBitonic, SortsDescendingFaultFree) {
  for (cube::Dim s = 1; s <= 5; ++s) {
    const auto result =
        run_sort(s, false, 4, false, ExchangeProtocol::HalfExchange,
                 static_cast<std::uint64_t>(s) + 10);
    // Descending by blocks: reversing the block order gives an ascending
    // sequence (blocks themselves stay internally ascending).
    EXPECT_TRUE(is_ascending(flatten(result.blocks, true))) << "s=" << s;
  }
}

TEST(BlockBitonic, SortsWithDeadNodeAscending) {
  for (cube::Dim s = 1; s <= 5; ++s) {
    const auto result =
        run_sort(s, true, 3, true, ExchangeProtocol::HalfExchange, static_cast<std::uint64_t>(s) + 20);
    EXPECT_TRUE(result.blocks[0].empty());
    EXPECT_TRUE(is_globally_ascending(result.blocks)) << "s=" << s;
  }
}

TEST(BlockBitonic, SortsWithDeadNodeDescending) {
  // The §2.1 skip rule must also hold for mirrored (descending) sorts —
  // the intra-subcube re-sorts of Step 8 depend on it.
  for (cube::Dim s = 1; s <= 5; ++s) {
    const auto result =
        run_sort(s, true, 3, false, ExchangeProtocol::HalfExchange,
                 static_cast<std::uint64_t>(s) + 30);
    EXPECT_TRUE(result.blocks[0].empty());
    EXPECT_TRUE(is_ascending(flatten(result.blocks, true))) << "s=" << s;
  }
}

TEST(BlockBitonic, ProtocolsProduceIdenticalBlocks) {
  for (bool dead0 : {false, true}) {
    for (bool ascending : {true, false}) {
      const auto half = run_sort(4, dead0, 5, ascending,
                                 ExchangeProtocol::HalfExchange, 77);
      const auto full = run_sort(4, dead0, 5, ascending,
                                 ExchangeProtocol::FullExchange, 77);
      EXPECT_EQ(half.blocks, full.blocks)
          << "dead0=" << dead0 << " asc=" << ascending;
    }
  }
}

TEST(BlockBitonic, ProtocolTrafficAndMessageAccounting) {
  // Both protocols move 2b keys per node pair per step (each key crosses
  // the wire exactly once in half-exchange: half out, losers back); the
  // half-exchange pays twice the message count (two phases), which only
  // matters under a per-message start-up cost.
  const auto half =
      run_sort(4, false, 64, true, ExchangeProtocol::HalfExchange, 5);
  const auto full =
      run_sort(4, false, 64, true, ExchangeProtocol::FullExchange, 5);
  EXPECT_EQ(half.report.keys_sent, full.report.keys_sent);
  EXPECT_EQ(half.report.messages, 2 * full.report.messages);
}

TEST(BlockBitonic, PreservesKeyMultiset) {
  util::Rng rng(6);
  LogicalCube lc = LogicalCube::identity(3);
  std::vector<std::vector<Key>> blocks(8);
  std::vector<Key> all;
  for (auto& b : blocks) {
    b = gen_few_distinct(4, 3, rng);
    std::sort(b.begin(), b.end());
    all.insert(all.end(), b.begin(), b.end());
  }
  sim::Machine machine(3, fault::FaultSet(3));
  const auto program = [&](sim::NodeCtx& ctx) -> sim::Task {
    std::vector<ExchangeStep> steps;
    append_bitonic_sort(lc, ctx.id(), true, sim::Phase::SubcubeSort, 0,
                        steps);
    co_await run_schedule(ctx, steps, blocks[ctx.id()],
                          ExchangeProtocol::HalfExchange);
  };
  machine.run(program);
  std::vector<Key> after;
  for (const auto& b : blocks)
    after.insert(after.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(after, all);  // already sorted ascending == sorted multiset
}

TEST(BlockBitonic, SingleBlockCubeIsNoop) {
  // s = 0: one node, nothing to exchange.
  const auto result =
      run_sort(0, false, 4, true, ExchangeProtocol::HalfExchange, 9);
  EXPECT_EQ(result.report.messages, 0u);
  EXPECT_TRUE(is_ascending(result.blocks[0]));
}

TEST(BlockBitonic, DeterministicAcrossRuns) {
  const auto a = run_sort(4, true, 6, true,
                          ExchangeProtocol::HalfExchange, 123);
  const auto b = run_sort(4, true, 6, true,
                          ExchangeProtocol::HalfExchange, 123);
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_DOUBLE_EQ(a.report.makespan, b.report.makespan);
  EXPECT_EQ(a.report.messages, b.report.messages);
}

TEST(BlockBitonic, TagSpanFormula) {
  EXPECT_EQ(bitonic_tag_span(0), 0u);
  EXPECT_EQ(bitonic_tag_span(1), 2u);
  EXPECT_EQ(bitonic_tag_span(3), 12u);
  EXPECT_EQ(bitonic_tag_span(6), 42u);
  // Merge: two tags per substep plus the reversal swap.
  EXPECT_EQ(bitonic_merge_tag_span(0), 1u);
  EXPECT_EQ(bitonic_merge_tag_span(3), 7u);
}

// §2.1's single-fault bitonic sort is Steps 1-8 with m = 0: with at most
// one fault the plan keeps the whole cube as one subcube, re-indexes the
// fault to logical 0, and the sorter runs only Step 3.
core::SortOutcome single_fault_sort(
    cube::Dim n, const fault::FaultSet& faults, std::span<const Key> keys,
    fault::FaultModel model = fault::FaultModel::Partial) {
  core::SortConfig cfg;
  cfg.model = model;
  const core::FaultTolerantSorter sorter(n, faults, cfg);
  EXPECT_EQ(sorter.plan().m(), 0);
  return sorter.sort(keys);
}

TEST(SingleFaultSort, EveryFaultLocationQ4) {
  util::Rng rng(11);
  const auto keys = gen_uniform(93, rng);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  for (cube::NodeId f = 0; f < 16; ++f) {
    const auto result = single_fault_sort(4, fault::FaultSet(4, {f}), keys);
    EXPECT_EQ(result.sorted, expected) << "fault at " << f;
  }
}

TEST(SingleFaultSort, FaultFreeMatches) {
  util::Rng rng(12);
  const auto keys = gen_uniform(128, rng);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  const auto result = single_fault_sort(4, fault::FaultSet(4), keys);
  EXPECT_EQ(result.sorted, expected);
  EXPECT_EQ(result.block_size, 8u);
}

TEST(SingleFaultSort, FaultyCubeUsesLargerBlocks) {
  util::Rng rng(13);
  const auto keys = gen_uniform(128, rng);
  const auto faulty = single_fault_sort(4, fault::FaultSet(4, {3}), keys);
  EXPECT_EQ(faulty.block_size, 9u);  // ceil(128 / 15)
}

TEST(SingleFaultSort, TotalFaultModelCostsAtLeastPartial) {
  util::Rng rng(14);
  const auto keys = gen_uniform(200, rng);
  const fault::FaultSet faults(4, {5});
  const auto partial =
      single_fault_sort(4, faults, keys, fault::FaultModel::Partial);
  const auto total =
      single_fault_sort(4, faults, keys, fault::FaultModel::Total);
  EXPECT_EQ(partial.sorted, total.sorted);
  EXPECT_GE(total.report.makespan, partial.report.makespan);
}

TEST(SingleFaultSort, EmptyInput) {
  const std::vector<Key> none;
  const auto result = single_fault_sort(3, fault::FaultSet(3, {0}), none);
  EXPECT_TRUE(result.sorted.empty());
}

TEST(SingleFaultSort, FewerKeysThanNodes) {
  util::Rng rng(16);
  const auto keys = gen_uniform(5, rng);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  const auto result = single_fault_sort(4, fault::FaultSet(4, {7}), keys);
  EXPECT_EQ(result.sorted, expected);
  EXPECT_EQ(result.block_size, 1u);
}

// ---------------------------------------------------------------------------
// core::node_schedule: the one Steps 3-8 exchange list both sort engines
// walk. Every live node of a plan must see the same shape, and every step
// must meet its partner's step at the same position.

void expect_partners_agree(const partition::Plan& plan, core::Step8Mode step8) {
  const std::string where = plan.to_string() +
                            (step8 == core::Step8Mode::FullSort ? " full"
                                                                : " merge");
  const core::PlanLayout layout = core::plan_layout(plan);
  std::vector<std::vector<ExchangeStep>> lists(cube::num_nodes(plan.n()));
  for (const cube::NodeId u : layout.slots)
    lists[u] = core::node_schedule(plan, layout, u, step8);
  const std::vector<ExchangeStep>& first = lists[layout.slots.front()];

  const std::uint32_t t3 = static_cast<std::uint32_t>(plan.s()) *
                           static_cast<std::uint32_t>(plan.s() + 1) / 2;
  const std::uint32_t msteps = static_cast<std::uint32_t>(plan.m()) *
                               static_cast<std::uint32_t>(plan.m() + 1) / 2;
  const std::uint32_t resort = step8 == core::Step8Mode::FullSort
                                   ? t3
                                   : static_cast<std::uint32_t>(plan.s()) + 1;
  ASSERT_EQ(first.size(), t3 + msteps * (1 + resort)) << where;

  for (const cube::NodeId u : layout.slots) {
    const std::vector<ExchangeStep>& mine = lists[u];
    ASSERT_EQ(mine.size(), first.size()) << where << " node " << u;
    for (std::size_t k = 0; k < mine.size(); ++k) {
      const ExchangeStep& st = mine[k];
      const std::string at = where + " node " + std::to_string(u) +
                             " step " + std::to_string(k);
      ASSERT_EQ(st.phase, first[k].phase) << at;
      // The reversal slot closes every BitonicMerge re-sort, and only it.
      const bool merge_end = step8 == core::Step8Mode::BitonicMerge &&
                             st.phase == sim::Phase::Resort &&
                             (k + 1 == mine.size() ||
                              mine[k + 1].phase != sim::Phase::Resort);
      ASSERT_EQ(st.swap, merge_end) << at;
      if (st.skip) {
        // A skip sits exactly where the logical partner is dead, or in a
        // reversal slot with nothing to reverse.
        if (st.swap) {
          EXPECT_EQ(st.partner, u) << at;
        } else {
          EXPECT_FALSE(plan.role_of(st.partner).live) << at;
        }
        continue;
      }
      ASSERT_NE(st.partner, u) << at;
      ASSERT_TRUE(plan.role_of(st.partner).live) << at;
      const ExchangeStep& theirs = lists[st.partner][k];
      EXPECT_FALSE(theirs.skip) << at;
      EXPECT_EQ(theirs.partner, u) << at;
      EXPECT_EQ(theirs.tag, st.tag) << at;
      EXPECT_EQ(theirs.swap, st.swap) << at;
      if (!st.swap) {
        EXPECT_NE(theirs.keep, st.keep) << at;
      }
    }
  }
}

/// Calls `check(plan, step8)` in both Step 8 modes when Plan::build accepts
/// `faults` and the plan has a live node.
template <typename Check>
void for_each_step8(const fault::FaultSet& faults, Check check) {
  std::optional<partition::Plan> plan;
  try {
    plan = partition::Plan::build(faults);
  } catch (const std::exception&) {
    return;  // no single-fault structure
  }
  if (plan->live_count() == 0) return;
  for (const core::Step8Mode step8 :
       {core::Step8Mode::BitonicMerge, core::Step8Mode::FullSort})
    check(*plan, step8);
}

/// Calls `visit` with every fault set of Q_3 and Q_4 with at most n - 1
/// faults.
template <typename Visit>
void for_each_small_fault_set(Visit visit) {
  for (const cube::Dim n : {3, 4}) {
    const std::uint32_t nodes = cube::num_nodes(n);
    for (std::uint32_t set = 0; set < (1u << nodes); ++set) {
      if (std::popcount(set) > n - 1) continue;
      std::vector<cube::NodeId> faulty;
      for (cube::NodeId u = 0; u < nodes; ++u)
        if ((set >> u) & 1u) faulty.push_back(u);
      visit(fault::FaultSet(n, faulty));
    }
  }
}

TEST(NodeSchedule, PartnersAgree) {
  for_each_small_fault_set([](const fault::FaultSet& faults) {
    for_each_step8(faults, expect_partners_agree);
  });
  // And random ones on Q_6.
  util::Rng rng(2006);
  for (int trial = 0; trial < 100; ++trial)
    for_each_step8(fault::random_faults(
                       6, 1 + static_cast<std::size_t>(trial) % 5, rng),
                   expect_partners_agree);
}

// At block size 1 the lists of a plan are one comparator network over its
// N' live nodes: an exchange is a comparator, a reversal swap a fixed
// permutation and a skip nothing. By the 0-1 principle (Knuth Vol. 3,
// §5.3.4) the network sorts every input once it sorts every 0/1 input;
// DESIGN §5.0 says why that carries over to every block size.

/// Walks every live node's list of `plan` in lockstep with one key per
/// node, over every 0/1 input, and returns the first input (bit i is the
/// key of slot i) that does not come out as its zeros followed by its ones
/// in slot order. The inputs are bit-sliced 64 to a word: lane l of a
/// node's word is the node's key in input base + l.
std::optional<std::uint64_t> first_unsorted_input(const partition::Plan& plan,
                                                  core::Step8Mode step8) {
  const core::PlanLayout layout = core::plan_layout(plan);
  const std::vector<cube::NodeId>& slots = layout.slots;
  const std::size_t live = slots.size();
  std::vector<std::vector<ExchangeStep>> lists(cube::num_nodes(plan.n()));
  for (const cube::NodeId u : slots)
    lists[u] = core::node_schedule(plan, layout, u, step8);
  const std::size_t length = lists[slots.front()].size();

  // Slot i's key is bit i of the input: below bit 6 a fixed lane pattern,
  // above it the same in every lane of a word.
  std::uint64_t lane_bit[6] = {};
  for (unsigned i = 0; i < 6; ++i)
    for (unsigned l = 0; l < 64; ++l)
      lane_bit[i] |= std::uint64_t{(l >> i) & 1u} << l;
  const std::uint64_t inputs = std::uint64_t{1} << live;
  std::vector<std::uint64_t> word(lists.size());
  std::vector<std::uint64_t> next(lists.size());
  std::vector<std::uint64_t> by_ones(live + 1);  // lanes by count of ones
  for (std::uint64_t base = 0; base < inputs; base += 64) {
    for (std::size_t i = 0; i < live; ++i)  // all ones when bit i is set
      word[slots[i]] =
          i < 6 ? lane_bit[i] : std::uint64_t{0} - ((base >> i) & 1u);
    for (std::size_t k = 0; k < length; ++k) {
      for (const cube::NodeId u : slots) {
        const ExchangeStep& st = lists[u][k];
        const std::uint64_t theirs = word[st.partner];
        if (st.skip)
          next[u] = word[u];
        else if (st.swap)
          next[u] = theirs;
        else
          next[u] = st.keep == SplitHalf::Lower ? word[u] & theirs
                                                : word[u] | theirs;
      }
      std::swap(word, next);
    }
    // Sorted, slot i holds a one exactly when the input has at least
    // live - i ones.
    std::fill(by_ones.begin(), by_ones.end(), 0);
    for (unsigned l = 0; l < 64; ++l)
      by_ones[static_cast<std::size_t>(
          std::popcount((base + l) & (inputs - 1)))] |= std::uint64_t{1} << l;
    std::uint64_t at_least = 0;
    for (std::size_t i = 0; i < live; ++i) {
      at_least |= by_ones[live - i];
      const std::uint64_t wrong = word[slots[i]] ^ at_least;
      if (wrong != 0)
        return (base + static_cast<unsigned>(std::countr_zero(wrong))) &
               (inputs - 1);
    }
  }
  return std::nullopt;
}

TEST(NodeSchedule, SortsEveryZeroOneInput) {
  std::size_t checked = 0;
  const auto check = [&checked](const partition::Plan& plan,
                                core::Step8Mode step8) {
    ++checked;
    if (const auto bad = first_unsorted_input(plan, step8))
      ADD_FAILURE() << plan.to_string()
                    << (step8 == core::Step8Mode::FullSort ? " full"
                                                           : " merge")
                    << ": 0/1 input " << *bad << " comes out unsorted";
  };
  for_each_small_fault_set([&check](const fault::FaultSet& faults) {
    for_each_step8(faults, check);
  });
  EXPECT_EQ(checked, 1468u);
  // The paper's Example 1: N' = 24, so 2^24 inputs per Step 8 mode.
  const partition::Plan example1 =
      partition::Plan::build(fault::FaultSet(5, {3, 5, 16, 24}));
  ASSERT_EQ(example1.live_count(), 24u);
  for (const core::Step8Mode step8 :
       {core::Step8Mode::BitonicMerge, core::Step8Mode::FullSort})
    check(example1, step8);
}

}  // namespace
}  // namespace ftsort::sort
