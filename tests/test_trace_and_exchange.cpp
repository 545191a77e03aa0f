// Coverage for the event trace, machine edge cases, and one merge-split
// exchange (a one-step run_schedule list) against its pure-kernel
// reference.
#include <gtest/gtest.h>

#include <algorithm>

#include "ordered_blocks.hpp"
#include "sim/machine.hpp"
#include "sort/distribution.hpp"
#include "sort/merge_split.hpp"
#include "sort/spmd_bitonic.hpp"
#include "util/rng.hpp"

namespace ftsort {
namespace {

using sort::Key;

TEST(Trace, DisabledByDefaultRecordsNothing) {
  sim::Trace trace;
  trace.record({1.0, 0, sim::EventKind::Send, 1, 0, 5, 1});
  EXPECT_TRUE(trace.snapshot().empty());
}

TEST(Trace, ToStringTruncates) {
  sim::Trace trace;
  trace.enable();
  for (int i = 0; i < 50; ++i)
    trace.record({static_cast<double>(i), 0, sim::EventKind::Compute, 0, 0,
                  1, 0});
  const std::string out = sim::format_trace(trace.snapshot(), 10);
  EXPECT_NE(out.find("40 more events"), std::string::npos);
}

TEST(Trace, ClearDropsEvents) {
  sim::Trace trace;
  trace.enable();
  trace.record({0.0, 0, sim::EventKind::Compute, 0, 0, 1, 0});
  trace.clear();
  EXPECT_TRUE(trace.snapshot().empty());
}

TEST(MachineEdge, RecvFromFaultySourceIsRejected) {
  sim::Machine machine(2, fault::FaultSet(2, {1}));
  const auto program = [](sim::NodeCtx& ctx) -> sim::Task {
    if (ctx.id() == 0) {
      sim::Message m = co_await ctx.recv(1, 0);  // 1 is faulty
      (void)m;
    }
  };
  EXPECT_THROW(machine.run(program), std::runtime_error);
}

TEST(MachineEdge, ZeroComparisonsChargeIsFree) {
  sim::Machine machine(0, fault::FaultSet(0));
  machine.trace().enable();
  const auto program = [](sim::NodeCtx& ctx) -> sim::Task {
    ctx.charge_compares(0);
    co_return;
  };
  const auto report = machine.run(program);
  EXPECT_EQ(report.comparisons, 0u);
  EXPECT_DOUBLE_EQ(report.makespan, 0.0);
  EXPECT_TRUE(machine.trace().snapshot().empty());
}

TEST(MachineEdge, FaultyNodesReportZeroClock) {
  sim::Machine machine(2, fault::FaultSet(2, {2}));
  const auto program = [](sim::NodeCtx& ctx) -> sim::Task {
    ctx.charge_compares(5);
    co_return;
  };
  const auto report = machine.run(program);
  EXPECT_DOUBLE_EQ(report.node_clocks[2], 0.0);
  EXPECT_GT(report.node_clocks[0], 0.0);
}

TEST(MachineEdge, EmptyPayloadMessagesWork) {
  sim::Machine machine(1, fault::FaultSet(1));
  bool received = false;
  const auto program = [&](sim::NodeCtx& ctx) -> sim::Task {
    if (ctx.id() == 0) {
      ctx.send(1, 0, std::vector<Key>{});
    } else {
      sim::Message m = co_await ctx.recv(0, 0);
      received = m.payload.empty();
    }
  };
  const auto report = machine.run(program);
  EXPECT_TRUE(received);
  EXPECT_EQ(report.keys_sent, 0u);
  EXPECT_DOUBLE_EQ(report.makespan, 0.0);  // zero keys, zero startup
}

/// The one-step list of a Q_1 exchange: node 0 keeps the lower half.
sort::ExchangeStep exchange_step(cube::NodeId me) {
  return {sim::Phase::MergeExchange, 0, me ^ 1u,
          me == 0 ? sort::SplitHalf::Lower : sort::SplitHalf::Upper};
}

/// Run one exchange on a 1-cube and return both sides' blocks.
std::pair<std::vector<Key>, std::vector<Key>> run_exchange(
    std::vector<Key> a, std::vector<Key> b,
    sort::ExchangeProtocol protocol) {
  sim::Machine machine(1, fault::FaultSet(1));
  const auto program = [&](sim::NodeCtx& ctx) -> sim::Task {
    const sort::ExchangeStep step = exchange_step(ctx.id());
    co_await sort::run_schedule(ctx, std::span(&step, 1),
                                ctx.id() == 0 ? a : b, protocol);
  };
  machine.run(program);
  return {a, b};
}

TEST(Exchange, MatchesPureKernelReference) {
  util::Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t size = 1 + rng.below(30);
    auto a = sort::gen_uniform(size, rng);
    auto b = sort::gen_uniform(size, rng);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::uint64_t comparisons = 0;
    std::vector<Key> expect_lower;
    std::vector<Key> expect_upper;
    sort::merge_split_into(a, b, sort::SplitHalf::Lower, expect_lower,
                           comparisons);
    sort::merge_split_into(b, a, sort::SplitHalf::Upper, expect_upper,
                           comparisons);
    for (const auto protocol : {sort::ExchangeProtocol::HalfExchange,
                                sort::ExchangeProtocol::FullExchange}) {
      const auto [lower, upper] = run_exchange(a, b, protocol);
      EXPECT_EQ(lower, expect_lower);
      EXPECT_EQ(upper, expect_upper);
    }
  }
}

TEST(Exchange, SingleKeyBlocks) {
  const auto [lower, upper] =
      run_exchange({9}, {3}, sort::ExchangeProtocol::HalfExchange);
  EXPECT_EQ(lower, (std::vector<Key>{3}));
  EXPECT_EQ(upper, (std::vector<Key>{9}));
}

TEST(Exchange, AllTies) {
  const auto [lower, upper] = run_exchange(
      {5, 5, 5}, {5, 5, 5}, sort::ExchangeProtocol::HalfExchange);
  EXPECT_EQ(lower, (std::vector<Key>{5, 5, 5}));
  EXPECT_EQ(upper, (std::vector<Key>{5, 5, 5}));
}

TEST(Exchange, DummyPaddedBlocks) {
  const auto [lower, upper] =
      run_exchange({1, sim::kDummyKey}, {2, sim::kDummyKey},
                   sort::ExchangeProtocol::HalfExchange);
  EXPECT_EQ(lower, (std::vector<Key>{1, 2}));
  EXPECT_EQ(upper,
            (std::vector<Key>{sim::kDummyKey, sim::kDummyKey}));
}

/// One side of a half exchange done with the kernels alone: the pairwise
/// select before the losers leave, then both unimodal repairs and the
/// merge.
struct KernelSide {
  std::vector<Key> kept;
  std::vector<Key> losers;
  std::uint64_t select = 0;  ///< comparisons before the send
  std::uint64_t repair = 0;  ///< comparisons after the winners arrive
};

void kernel_repair(KernelSide& side, std::vector<Key> winners) {
  std::vector<Key> scratch;
  sort::sort_unimodal(side.kept, scratch, side.repair);
  sort::sort_unimodal(winners, scratch, side.repair);
  std::vector<Key> merged;
  sort::merge_sorted_into(side.kept, winners, merged, side.repair);
  side.kept = std::move(merged);
}

TEST(Exchange, OrderedBlocksMatchKernelSequence) {
  // A one-step Q_1 half exchange on the ordered block families: both final
  // blocks and the comparisons equal the kernel sequence's, and each side
  // sends its losers (tag + 1) exactly one t_c per pair after its first
  // receive.
  util::Rng rng(3);
  for (std::size_t b = 0; b <= 600; ++b) {
    for (const std::uint64_t range : {1u, 3u, 1000u}) {
      SCOPED_TRACE(::testing::Message() << "b=" << b << " range=" << range);
      for (const auto& [a, bb] : test::ordered_block_pairs(b, range, rng)) {
        const std::size_t h = b / 2;
        const std::span<const Key> lower(a);
        const std::span<const Key> upper(bb);
        KernelSide side[2];
        sort::pairwise_select_rev_into(lower.subspan(h), upper.first(b - h),
                                       sort::SplitHalf::Lower, side[0].kept,
                                       side[0].losers, side[0].select);
        sort::pairwise_select_rev_into(lower.first(h), upper.last(h),
                                       sort::SplitHalf::Upper, side[1].kept,
                                       side[1].losers, side[1].select);
        kernel_repair(side[0], side[1].losers);
        kernel_repair(side[1], side[0].losers);

        std::vector<Key> block[2] = {a, bb};
        sim::Machine machine(1, fault::FaultSet(1));
        machine.trace().enable(true);
        const auto program = [&](sim::NodeCtx& ctx) -> sim::Task {
          const sort::ExchangeStep step = exchange_step(ctx.id());
          co_await sort::run_schedule(ctx, std::span(&step, 1),
                                      block[ctx.id()],
                                      sort::ExchangeProtocol::HalfExchange);
        };
        const sim::RunReport report = machine.run(program);
        ASSERT_EQ(block[0], side[0].kept);
        ASSERT_EQ(block[1], side[1].kept);
        ASSERT_EQ(report.comparisons, side[0].select + side[0].repair +
                                          side[1].select + side[1].repair);
        for (cube::NodeId u = 0; u < 2; ++u) {
          double received = -1.0;
          double sent = -1.0;
          for (const sim::TraceEvent& ev : machine.trace().snapshot()) {
            if (ev.node != u) continue;
            if (ev.kind == sim::EventKind::Recv && ev.tag == 0)
              received = ev.time;
            if (ev.kind == sim::EventKind::Send && ev.tag == 1) sent = ev.time;
          }
          ASSERT_GE(received, 0.0);
          EXPECT_DOUBLE_EQ(sent - received,
                           machine.cost().compare_time(side[u].select))
              << "node " << u;
        }
      }
    }
  }
}

TEST(Exchange, DeterministicTiming) {
  util::Rng rng(2);
  auto a = sort::gen_uniform(64, rng);
  auto b = sort::gen_uniform(64, rng);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  sim::RunReport first;
  sim::RunReport second;
  for (sim::RunReport* report : {&first, &second}) {
    sim::Machine machine(1, fault::FaultSet(1));
    const auto program = [&](sim::NodeCtx& ctx) -> sim::Task {
      auto block = ctx.id() == 0 ? a : b;
      const sort::ExchangeStep step = exchange_step(ctx.id());
      co_await sort::run_schedule(ctx, std::span(&step, 1), block,
                                  sort::ExchangeProtocol::HalfExchange);
    };
    *report = machine.run(program);
  }
  EXPECT_DOUBLE_EQ(first.makespan, second.makespan);
  EXPECT_EQ(first.messages, second.messages);
}

}  // namespace
}  // namespace ftsort
