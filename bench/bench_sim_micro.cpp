// Google-benchmark micro: simulator overhead — how much host time one
// simulated sort costs, and the raw message-passing throughput of the
// coroutine machine. Keeps the evaluation harness honest about its own
// cost.
#include <benchmark/benchmark.h>

#include "core/ft_sorter.hpp"
#include "fault/scenario.hpp"
#include "sim/machine.hpp"
#include "sort/distribution.hpp"
#include "util/rng.hpp"

namespace {

using namespace ftsort;

void BM_MachinePingPong(benchmark::State& state) {
  const auto rounds = static_cast<int>(state.range(0));
  sim::Machine machine(1, fault::FaultSet(1));
  const auto program = [&](sim::NodeCtx& ctx) -> sim::Task {
    for (int i = 0; i < rounds; ++i) {
      const auto tag = static_cast<sim::Tag>(i);
      if (ctx.id() == 0) {
        ctx.send(1, tag, {1});
        sim::Message m = co_await ctx.recv(1, tag);
        benchmark::DoNotOptimize(m.payload.data());
      } else {
        sim::Message m = co_await ctx.recv(0, tag);
        ctx.send(0, tag, std::move(m.payload));
      }
    }
  };
  for (auto _ : state) {
    auto report = machine.run(program);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2);
}

void BM_EndToEndSort(benchmark::State& state) {
  const auto n = static_cast<cube::Dim>(state.range(0));
  const auto keys_count = static_cast<std::size_t>(state.range(1));
  util::Rng rng(3);
  const auto faults = fault::random_faults(n, 2, rng);
  const auto keys = sort::gen_uniform(keys_count, rng);
  core::FaultTolerantSorter sorter(n, faults);
  for (auto _ : state) {
    auto outcome = sorter.sort(keys);
    benchmark::DoNotOptimize(outcome.sorted.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(keys_count));
}

}  // namespace

BENCHMARK(BM_MachinePingPong)->Arg(100)->Arg(1000);
BENCHMARK(BM_EndToEndSort)->Args({4, 1'000})->Args({6, 10'000})
    ->Args({6, 100'000});

BENCHMARK_MAIN();
