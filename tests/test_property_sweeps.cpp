// Parameterized property sweeps: the end-to-end invariants of the
// fault-tolerant sorter across the (n, r, M, pattern, protocol, model)
// space, plus timing-model invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "baseline/mfs_sorter.hpp"
#include "core/ft_sorter.hpp"
#include "fault/scenario.hpp"
#include "sort/distribution.hpp"
#include "util/rng.hpp"

namespace ftsort {
namespace {

using core::FaultTolerantSorter;
using core::SortConfig;
using sort::ExchangeProtocol;
using sort::Key;

enum class Pattern { Uniform, Sorted, Reverse, FewDistinct, OrganPipe };

std::vector<Key> make_keys(Pattern pattern, std::size_t count,
                           util::Rng& rng) {
  switch (pattern) {
    case Pattern::Uniform: return sort::gen_uniform(count, rng);
    case Pattern::Sorted: return sort::gen_sorted(count);
    case Pattern::Reverse: return sort::gen_reverse(count);
    case Pattern::FewDistinct:
      return sort::gen_few_distinct(count, 5, rng);
    case Pattern::OrganPipe: return sort::gen_organ_pipe(count);
  }
  return {};
}

const char* pattern_name(Pattern p) {
  switch (p) {
    case Pattern::Uniform: return "Uniform";
    case Pattern::Sorted: return "Sorted";
    case Pattern::Reverse: return "Reverse";
    case Pattern::FewDistinct: return "FewDistinct";
    case Pattern::OrganPipe: return "OrganPipe";
  }
  return "?";
}

// ---------------------------------------------------------------------
// Sweep 1: (n, r) grid — every cube size and fault count the paper's
// evaluation covers, three random fault placements each.
// ---------------------------------------------------------------------

class NrSweep : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(NrSweep, SortsAndKeepsInvariants) {
  const auto [n, r] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n * 100 + r));
  for (int trial = 0; trial < 3; ++trial) {
    const auto faults =
        fault::random_faults(n, static_cast<std::size_t>(r), rng);
    const auto keys = sort::gen_uniform(50 * (1u << n) / 4 + 7, rng);
    auto expected = keys;
    std::sort(expected.begin(), expected.end());

    FaultTolerantSorter sorter(n, faults);
    const auto outcome = sorter.sort(keys);
    ASSERT_EQ(outcome.sorted, expected) << sorter.plan().to_string();

    // Structural invariants from the paper.
    const auto& plan = sorter.plan();
    EXPECT_LE(plan.search().mincut, std::max(0, r - 1));
    if (r >= 1) {
      EXPECT_EQ(plan.live_count(),
                cube::num_nodes(n) - plan.num_subcubes());
    }
    EXPECT_LE(plan.dangling_count(), cube::num_nodes(n) / 4);
    EXPECT_GE(plan.utilization_percent(), 75.0 - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPaperConfigs, NrSweep,
    testing::Values(
        std::tuple{3, 0}, std::tuple{3, 1}, std::tuple{3, 2},
        std::tuple{4, 0}, std::tuple{4, 1}, std::tuple{4, 2},
        std::tuple{4, 3}, std::tuple{5, 0}, std::tuple{5, 1},
        std::tuple{5, 2}, std::tuple{5, 3}, std::tuple{5, 4},
        std::tuple{6, 0}, std::tuple{6, 1}, std::tuple{6, 2},
        std::tuple{6, 3}, std::tuple{6, 4}, std::tuple{6, 5}),
    [](const auto& param_info) {
      // Appended, not `"n" + std::to_string(...)`: GCC 12 at -O3 flags that
      // inlined insert as -Wrestrict (a false positive under -Werror).
      std::string name = "n";
      name += std::to_string(std::get<0>(param_info.param));
      name += "r";
      name += std::to_string(std::get<1>(param_info.param));
      return name;
    });

// ---------------------------------------------------------------------
// Sweep 2: key patterns x protocols.
// ---------------------------------------------------------------------

class PatternSweep
    : public testing::TestWithParam<std::tuple<Pattern, ExchangeProtocol>> {
};

TEST_P(PatternSweep, SortsAdversarialInputs) {
  const auto [pattern, protocol] = GetParam();
  util::Rng rng(42);
  const auto faults = fault::random_faults(5, 3, rng);
  SortConfig config;
  config.protocol = protocol;
  FaultTolerantSorter sorter(5, faults, config);
  for (std::size_t count : {0u, 1u, 17u, 96u, 321u}) {
    const auto keys = make_keys(pattern, count, rng);
    auto expected = keys;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(sorter.sort(keys).sorted, expected)
        << pattern_name(pattern) << " count=" << count;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PatternsTimesProtocols, PatternSweep,
    testing::Combine(testing::Values(Pattern::Uniform, Pattern::Sorted,
                                     Pattern::Reverse,
                                     Pattern::FewDistinct,
                                     Pattern::OrganPipe),
                     testing::Values(ExchangeProtocol::HalfExchange,
                                     ExchangeProtocol::FullExchange)),
    [](const auto& param_info) {
      return std::string(pattern_name(std::get<0>(param_info.param))) +
             (std::get<1>(param_info.param) == ExchangeProtocol::HalfExchange
                  ? "Half"
                  : "Full");
    });

// ---------------------------------------------------------------------
// Sweep 3: fault scenario families.
// ---------------------------------------------------------------------

class ScenarioSweep : public testing::TestWithParam<int> {};

TEST_P(ScenarioSweep, SortsUnderStructuredFaults) {
  const int family = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(family) + 7);
  for (int trial = 0; trial < 5; ++trial) {
    fault::FaultSet faults = [&] {
      switch (family) {
        case 0: return fault::clustered_faults(6, 4, 2, rng);
        case 1: return fault::spread_faults(6, 5, rng);
        case 2: return fault::chain_faults(6, 5, rng);
        default: return fault::random_faults(6, 5, rng);
      }
    }();
    const auto keys = sort::gen_uniform(300, rng);
    auto expected = keys;
    std::sort(expected.begin(), expected.end());
    FaultTolerantSorter sorter(6, faults);
    EXPECT_EQ(sorter.sort(keys).sorted, expected)
        << faults.to_string();
  }
}

std::string family_name(const testing::TestParamInfo<int>& param_info) {
  static constexpr const char* kNames[] = {"Clustered", "Spread", "Chain",
                                           "Random"};
  return kNames[param_info.param];
}

INSTANTIATE_TEST_SUITE_P(FaultFamilies, ScenarioSweep,
                         testing::Range(0, 4), family_name);

// ---------------------------------------------------------------------
// Sweep 4: the full configuration matrix — every combination of exchange
// protocol, Step 8 mode, fault model, and host-I/O accounting must sort
// and agree on the result.
// ---------------------------------------------------------------------

class ConfigMatrix
    : public testing::TestWithParam<
          std::tuple<ExchangeProtocol, core::Step8Mode, fault::FaultModel,
                     bool>> {};

TEST_P(ConfigMatrix, SortsIdentically) {
  const auto [protocol, step8, model, host_io] = GetParam();
  util::Rng rng(99);
  const auto faults = fault::random_faults(5, 4, rng);
  const auto keys = sort::gen_uniform(777, rng);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());

  SortConfig config;
  config.protocol = protocol;
  config.step8 = step8;
  config.model = model;
  config.charge_host_io = host_io;
  FaultTolerantSorter sorter(5, faults, config);
  const auto outcome = sorter.sort(keys);
  EXPECT_EQ(outcome.sorted, expected);
  EXPECT_GT(outcome.report.makespan, 0.0);
}

std::string config_name(
    const testing::TestParamInfo<
        std::tuple<ExchangeProtocol, core::Step8Mode, fault::FaultModel,
                   bool>>& param_info) {
  const auto [protocol, step8, model, host_io] = param_info.param;
  std::string name =
      protocol == ExchangeProtocol::HalfExchange ? "Half" : "Full";
  name += step8 == core::Step8Mode::BitonicMerge ? "Merge" : "Sort";
  name += model == fault::FaultModel::Partial ? "Partial" : "Total";
  name += host_io ? "HostIo" : "NoHost";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ConfigMatrix,
    testing::Combine(testing::Values(ExchangeProtocol::HalfExchange,
                                     ExchangeProtocol::FullExchange),
                     testing::Values(core::Step8Mode::BitonicMerge,
                                     core::Step8Mode::FullSort),
                     testing::Values(fault::FaultModel::Partial,
                                     fault::FaultModel::Total),
                     testing::Bool()),
    config_name);

// ---------------------------------------------------------------------
// Sweep 5: timing-model invariants.
// ---------------------------------------------------------------------

TEST(TimingInvariants, MakespanGrowsWithKeyCount) {
  util::Rng rng(1);
  const auto faults = fault::random_faults(5, 2, rng);
  FaultTolerantSorter sorter(5, faults);
  double previous = 0.0;
  for (std::size_t m : {1'000u, 4'000u, 16'000u, 64'000u}) {
    const auto keys = sort::gen_uniform(m, rng);
    const auto outcome = sorter.sort(keys);
    EXPECT_GT(outcome.report.makespan, previous);
    previous = outcome.report.makespan;
  }
}

TEST(TimingInvariants, MakespanIsDeterministic) {
  util::Rng rng(2);
  const auto faults = fault::random_faults(6, 3, rng);
  const auto keys = sort::gen_uniform(5'000, rng);
  FaultTolerantSorter sorter(6, faults);
  const auto a = sorter.sort(keys);
  const auto b = sorter.sort(keys);
  EXPECT_DOUBLE_EQ(a.report.makespan, b.report.makespan);
  EXPECT_EQ(a.report.messages, b.report.messages);
  EXPECT_EQ(a.report.comparisons, b.report.comparisons);
}

TEST(TimingInvariants, TotalFaultModelNeverCheaper) {
  util::Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    const auto faults = fault::random_faults(5, 4, rng);
    const auto keys = sort::gen_uniform(2'000, rng);
    SortConfig partial;
    partial.model = fault::FaultModel::Partial;
    SortConfig total;
    total.model = fault::FaultModel::Total;
    const auto tp = FaultTolerantSorter(5, faults, partial).sort(keys);
    const auto tt = FaultTolerantSorter(5, faults, total).sort(keys);
    EXPECT_EQ(tp.sorted, tt.sorted);
    EXPECT_GE(tt.report.makespan, tp.report.makespan - 1e-9);
  }
}

TEST(TimingInvariants, NodeClocksNeverExceedMakespan) {
  util::Rng rng(4);
  const auto faults = fault::random_faults(5, 3, rng);
  const auto keys = sort::gen_uniform(1'000, rng);
  FaultTolerantSorter sorter(5, faults);
  const auto outcome = sorter.sort(keys);
  for (double clock : outcome.report.node_clocks)
    EXPECT_LE(clock, outcome.report.makespan);
}

TEST(TimingInvariants, StartupCostRaisesMakespan) {
  util::Rng rng(5);
  const auto faults = fault::random_faults(5, 2, rng);
  const auto keys = sort::gen_uniform(2'000, rng);
  SortConfig plain;
  SortConfig with_startup;
  with_startup.cost = sim::CostModel::ncube7_with_startup();
  const auto a = FaultTolerantSorter(5, faults, plain).sort(keys);
  const auto b = FaultTolerantSorter(5, faults, with_startup).sort(keys);
  EXPECT_GT(b.report.makespan, a.report.makespan);
}

TEST(TimingInvariants, ProposedBeatsBaselineWithTwoFaultsLargeM) {
  // The headline Figure 7 claim: on Q_6 with r = 2, the proposed sorter
  // beats plain bitonic on the surviving Q_4 (the baseline's worst case)
  // and on Q_5 (its best case) once M is large.
  util::Rng rng(6);
  const fault::FaultSet faults(6, {0, 63});  // antipodal: baseline gets Q_4
  const auto keys = sort::gen_uniform(64'000, rng);
  FaultTolerantSorter sorter(6, faults);
  const auto ours = sorter.sort(keys);
  const auto baseline = baseline::mfs_bitonic_sort(6, faults, keys);
  EXPECT_EQ(baseline.reconfiguration.subcube.dim(), 4);
  EXPECT_LT(ours.report.makespan, baseline.report.makespan);
}

TEST(TimingInvariants, TraceCapturesWhenRequested) {
  util::Rng rng(7);
  const auto faults = fault::random_faults(4, 2, rng);
  const auto keys = sort::gen_uniform(64, rng);
  SortConfig config;
  config.record_trace = true;
  FaultTolerantSorter sorter(4, faults, config);
  const auto outcome = sorter.sort(keys);
  EXPECT_FALSE(outcome.trace.empty());
  EXPECT_NE(outcome.trace.find("send"), std::string::npos);
}

}  // namespace
}  // namespace ftsort
