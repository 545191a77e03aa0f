// A node's walk of its exchange list is one coroutine frame: the exchanges
// themselves allocate nothing once the merge buffers and the pools are
// warm, however long the list. The counting operator new below replaces
// the allocator for the whole process, so this test has a binary of its
// own.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "sim/machine.hpp"
#include "sort/distribution.hpp"
#include "sort/spmd_bitonic.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// The sanctioned replacement pattern (as in bench/bench_harness.cpp); GCC
// flags the paired free() as mismatched once it inlines these.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace ftsort::sort {
namespace {

/// The operator new calls of one run of a Q_1 whose two nodes walk
/// `exchanges` merge-splits with each other under `protocol`. The lists,
/// blocks and machine are built before counting starts.
std::uint64_t walk_allocations(std::size_t exchanges,
                               ExchangeProtocol protocol) {
  util::Rng rng(exchanges);
  std::vector<std::vector<ExchangeStep>> steps(2);
  std::vector<std::vector<Key>> blocks(2);
  for (cube::NodeId u = 0; u < 2; ++u) {
    for (std::size_t k = 0; k < exchanges; ++k)
      steps[u].push_back({sim::Phase::SubcubeSort,
                          static_cast<sim::Tag>(2 * k), u ^ 1u,
                          u == 0 ? SplitHalf::Lower : SplitHalf::Upper});
    blocks[u] = gen_uniform(16, rng);
    std::sort(blocks[u].begin(), blocks[u].end());
  }
  sim::Machine machine(1, fault::FaultSet(1));
  const auto program = [&](sim::NodeCtx& ctx) -> sim::Task {
    co_await run_schedule(ctx, steps[ctx.id()], blocks[ctx.id()], protocol);
  };
  const std::uint64_t before = g_allocations.load();
  machine.run(program);
  return g_allocations.load() - before;
}

TEST(WalkAllocations, NoAllocationPerExchange) {
  // Not zero: the scheduler's run queue grows a chunk every ~128 wakes.
  constexpr std::uint64_t kSlack = 8;
  for (const ExchangeProtocol protocol :
       {ExchangeProtocol::HalfExchange, ExchangeProtocol::FullExchange}) {
    const std::uint64_t two = walk_allocations(2, protocol);
    const std::uint64_t many = walk_allocations(64, protocol);
    EXPECT_LE(many, two + kSlack)
        << (protocol == ExchangeProtocol::HalfExchange ? "half" : "full")
        << " exchange: 2 exchanges " << two << ", 64 exchanges " << many;
  }
}

}  // namespace
}  // namespace ftsort::sort
