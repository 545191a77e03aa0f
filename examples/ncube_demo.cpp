// NCUBE/7 demo: the paper's experimental setting — a 64-processor MIMD
// hypercube — reproduced end to end on the simulator.
//
//   $ ./ncube_demo [--r 3] [--keys 32000] [--seed 1992] [--total-faults]
//                  [--trace]
//
// Pipeline: inject r random faults, run off-line diagnosis to identify
// them, build the partition plan, sort, and compare against the
// maximum-fault-free-subcube baseline.
#include <algorithm>
#include <iostream>

#include "baseline/mfs_sorter.hpp"
#include "core/ft_sorter.hpp"
#include "fault/diagnosis.hpp"
#include "fault/scenario.hpp"
#include "sort/distribution.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ftsort;

  util::CliParser cli("ncube_demo",
                      "fault-tolerant sorting on a simulated NCUBE/7");
  cli.add_int("r", 3, "number of faulty processors (0..5)");
  cli.add_int("keys", 32'000, "number of keys to sort");
  cli.add_int("seed", 1992, "random seed");
  cli.add_flag("total-faults",
               "faulty nodes also stop forwarding (total fault model)");
  cli.add_flag("trace", "dump the first simulation events");
  if (!cli.parse(argc, argv)) return 1;

  const cube::Dim n = 6;  // NCUBE/7: 2^6 = 64 processors
  const auto r = static_cast<std::size_t>(cli.integer("r"));
  util::Rng rng(static_cast<std::uint64_t>(cli.integer("seed")));

  std::cout << "=== simulated NCUBE/7: 64 processors, " << r
            << " faults ===\n";
  const auto faults = fault::random_faults(n, r, rng);
  std::cout << "injected: " << faults.to_string() << "\n";

  // Off-line diagnosis (the paper assumes fault locations are known; we
  // show the fail-stop protocol actually finding them).
  const auto diagnosis = fault::diagnose_fail_stop(faults);
  std::cout << "diagnosis: " << (diagnosis.complete ? "complete" : "partial")
            << " in " << diagnosis.rounds << " flooding rounds, "
            << diagnosis.messages << " messages; identified "
            << diagnosis.identified.count() << " faults "
            << (diagnosis.identified == faults ? "(correct)" : "(WRONG)")
            << "\n\n";

  core::SortConfig config;
  config.model = cli.flag("total-faults") ? fault::FaultModel::Total
                                          : fault::FaultModel::Partial;
  config.record_trace = cli.flag("trace");

  core::FaultTolerantSorter sorter(n, diagnosis.identified, config);
  std::cout << "plan: " << sorter.plan().to_string() << "\n";

  const auto keys =
      sort::gen_uniform(static_cast<std::size_t>(cli.integer("keys")), rng);
  const auto outcome = sorter.sort(keys);
  const bool ok = std::is_sorted(outcome.sorted.begin(),
                                 outcome.sorted.end()) &&
                  outcome.sorted.size() == keys.size();
  std::cout << "fault-tolerant sort: " << (ok ? "OK" : "FAILED") << "\n";
  if (config.record_trace)
    std::cout << sim::format_trace(outcome.trace_events) << "\n";

  // Baseline for the same scenario.
  const auto baseline = baseline::mfs_bitonic_sort(
      n, faults, keys, config.model, config.cost);

  util::Table table({"algorithm", "processors", "time (ms)", "messages",
                     "key-hops"},
                    {util::Align::Left, util::Align::Right,
                     util::Align::Right, util::Align::Right,
                     util::Align::Right});
  table.add_row({"proposed (F_n^m partition)",
                 std::to_string(sorter.plan().live_count()),
                 util::Table::fixed(outcome.report.makespan / 1000.0, 2),
                 std::to_string(outcome.report.messages),
                 std::to_string(outcome.report.key_hops)});
  table.add_row(
      {"baseline (max fault-free Q_" +
           std::to_string(baseline.reconfiguration.subcube.dim()) + ")",
       std::to_string(baseline.reconfiguration.subcube.size()),
       util::Table::fixed(baseline.report.makespan / 1000.0, 2),
       std::to_string(baseline.report.messages),
       std::to_string(baseline.report.key_hops)});
  std::cout << "\n" << table.to_string();

  const double speedup =
      baseline.report.makespan / std::max(outcome.report.makespan, 1.0);
  std::cout << "\nspeedup over baseline: " << util::Table::fixed(speedup, 2)
            << "x\n";
  return 0;
}
