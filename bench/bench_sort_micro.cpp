// Google-benchmark micro: sequential sorting kernels executed inside each
// simulated processor — heapsort (the paper's Step 3 choice) against
// std::sort, the merge-split kernels, and the unimodal repair sort.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "sort/bitonic_network.hpp"
#include "sort/merge_split.hpp"
#include "sort/sequential.hpp"
#include "sort/distribution.hpp"
#include "util/rng.hpp"

namespace {

using namespace ftsort;
using sort::Key;

void BM_Heapsort(benchmark::State& state) {
  util::Rng rng(1);
  const auto base =
      sort::gen_uniform(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    auto keys = base;
    std::uint64_t comparisons = 0;
    sort::heapsort(keys, comparisons);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_StdSort(benchmark::State& state) {
  util::Rng rng(1);
  const auto base =
      sort::gen_uniform(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    auto keys = base;
    std::sort(keys.begin(), keys.end());
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_MergeSplitInto(benchmark::State& state) {
  util::Rng rng(2);
  auto a = sort::gen_uniform(static_cast<std::size_t>(state.range(0)), rng);
  auto b = sort::gen_uniform(static_cast<std::size_t>(state.range(0)), rng);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<Key> out;
  for (auto _ : state) {
    std::uint64_t comparisons = 0;
    sort::merge_split_into(a, b, sort::SplitHalf::Lower, out, comparisons);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_PairwiseSelectRevInto(benchmark::State& state) {
  util::Rng rng(3);
  const auto a =
      sort::gen_uniform(static_cast<std::size_t>(state.range(0)), rng);
  const auto b =
      sort::gen_uniform(static_cast<std::size_t>(state.range(0)), rng);
  std::vector<Key> kept;
  std::vector<Key> returned;
  for (auto _ : state) {
    std::uint64_t comparisons = 0;
    sort::pairwise_select_rev_into(a, b, sort::SplitHalf::Lower, kept,
                                   returned, comparisons);
    benchmark::DoNotOptimize(kept.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_SortUnimodal(benchmark::State& state) {
  const auto base =
      sort::gen_organ_pipe(static_cast<std::size_t>(state.range(0)));
  std::vector<Key> scratch;
  for (auto _ : state) {
    auto keys = base;
    std::uint64_t comparisons = 0;
    sort::sort_unimodal(keys, scratch, comparisons);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_BitonicNetworkSequential(benchmark::State& state) {
  util::Rng rng(4);
  const auto base =
      sort::gen_uniform(std::size_t{1} << state.range(0), rng);
  for (auto _ : state) {
    auto keys = base;
    std::uint64_t comparisons = 0;
    sort::bitonic_sort_sequential(keys, comparisons);
    benchmark::DoNotOptimize(keys.data());
  }
}

}  // namespace

// 16,913 keys: one node's Step 3 block in perfbench's bulk workload (2^20
// keys over 62 live nodes).
BENCHMARK(BM_Heapsort)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(16913)
    ->Arg(1 << 18);
BENCHMARK(BM_StdSort)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);
BENCHMARK(BM_MergeSplitInto)->Arg(1 << 10)->Arg(1 << 16);
BENCHMARK(BM_PairwiseSelectRevInto)->Arg(1 << 10)->Arg(1 << 16);
BENCHMARK(BM_SortUnimodal)->Arg(1 << 10)->Arg(1 << 16);
BENCHMARK(BM_BitonicNetworkSequential)->Arg(10)->Arg(14);

BENCHMARK_MAIN();
