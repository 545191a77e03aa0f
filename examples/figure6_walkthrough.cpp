// Figure 6 walkthrough: the paper's running example, state by state.
//
// Q_5 with faulty processors {3, 5, 16, 24} is partitioned by
// D_β = (0, 1, 3) into F_5^3; 47 keys are distributed over the 24 live
// processors (blocks of 2, one dummy). This program drives the sorting
// algorithm *phase by phase*: Steps 3-8 are each node's exchange list from
// core::node_schedule, run one phase run at a time, and every intermediate
// state is printed, mirroring Fig. 6(a)–(i):
//   (a) distribution, (b) after Step 3, then after each Step 7 and Step 8
//   of the subcube-level merge (i = 0..2, j = i..0).
//
//   $ ./figure6_walkthrough [--keys 47] [--seed 6]
#include <iostream>
#include <span>
#include <sstream>

#include "core/ft_sorter.hpp"
#include "partition/plan.hpp"
#include "sim/machine.hpp"
#include "sort/distribution.hpp"
#include "sort/sequential.hpp"
#include "sort/spmd_bitonic.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace ftsort;
using sort::Key;

struct Walkthrough {
  partition::Plan plan;
  core::PlanLayout layout;  // Step 1's logical cubes + Step 2's slot list
  std::vector<std::vector<Key>> block_of;  // by machine address
  sort::ExchangeProtocol protocol = sort::ExchangeProtocol::HalfExchange;

  // Steps 3-8 per machine address, cut into runs of one phase each.
  std::vector<std::vector<sort::ExchangeStep>> schedule;
  std::vector<std::vector<std::span<const sort::ExchangeStep>>> runs;

  explicit Walkthrough(const fault::FaultSet& faults)
      : plan(partition::Plan::build(faults)),
        layout(core::plan_layout(plan)),
        schedule(cube::num_nodes(plan.n())),
        runs(schedule.size()) {
    for (const cube::NodeId u : layout.slots) {
      schedule[u] = core::node_schedule(plan, layout, u,
                                        core::Step8Mode::BitonicMerge);
      const std::span<const sort::ExchangeStep> steps(schedule[u]);
      for (std::size_t k = 0; k < steps.size();) {
        std::size_t end = k + 1;
        while (end < steps.size() && steps[end].phase == steps[k].phase)
          ++end;
        runs[u].push_back(steps.subspan(k, end - k));
        k = end;
      }
    }
  }

  void scatter(const std::vector<Key>& keys) {
    block_of =
        sort::scatter(keys, layout.slots, cube::num_nodes(plan.n())).block_of;
  }

  /// Run one phase of the algorithm as its own simulation run.
  void run_phase(const sim::Machine::Program& program) {
    sim::Machine machine(plan.n(), plan.faults());
    machine.run(program);
  }

  /// Run phase run `r` of every live node's exchange list.
  void run_steps(std::size_t r) {
    run_phase([this, r](sim::NodeCtx& ctx) -> sim::Task {
      if (runs[ctx.id()].empty()) co_return;  // idle processor
      co_await sort::run_schedule(ctx, runs[ctx.id()][r],
                                  block_of[ctx.id()], protocol);
    });
  }

  void print_state(const std::string& label) {
    std::cout << label << "\n";
    for (cube::NodeId v = 0; v < plan.num_subcubes(); ++v) {
      std::ostringstream row;
      row << "  subcube v=" << v << ":";
      for (cube::NodeId lw = 0; lw < layout.subcubes[v].size(); ++lw) {
        if (layout.subcubes[v].is_dead(lw)) {
          row << "  [w'=0: dead]";
          continue;
        }
        row << "  [w'=" << lw << ":";
        for (Key key : block_of[plan.physical(v, lw)]) {
          if (key == sim::kDummyKey)
            row << " inf";
          else
            row << " " << key;
        }
        row << "]";
      }
      std::cout << row.str() << "\n";
    }
    std::cout << "\n";
  }
};

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("figure6_walkthrough",
                      "the paper's Fig. 6 example, phase by phase");
  cli.add_int("keys", 47, "number of keys");
  cli.add_int("seed", 6, "shuffle seed");
  if (!cli.parse(argc, argv)) return 1;

  const fault::FaultSet faults(5, {3, 5, 16, 24});
  Walkthrough wt(faults);
  std::cout << "plan: " << wt.plan.to_string() << "\n\n";

  // Keys 1..M shuffled: small values so states read like the figure.
  std::vector<Key> keys(static_cast<std::size_t>(cli.integer("keys")));
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = static_cast<Key>(i + 1);
  util::Rng rng(static_cast<std::uint64_t>(cli.integer("seed")));
  rng.shuffle(keys);

  wt.scatter(keys);
  wt.print_state("(a) keys distributed to re-indexed live processors");

  // Step 3a: local heapsort.
  wt.run_phase([&](sim::NodeCtx& ctx) -> sim::Task {
    if (wt.plan.role_of(ctx.id()).live)
      sort::local_sort(ctx, sort::LocalSort::Heapsort, wt.block_of[ctx.id()]);
    co_return;
  });
  // Step 3b: single-fault bitonic sort per subcube, direction by parity.
  wt.run_steps(0);
  wt.print_state(
      "(b) after Step 3: each subcube sorted (ascending iff v even)");

  // Steps 4-8: each Step 7 exchange and each Step 8 re-sort (merge
  // variant) is one phase run.
  const cube::Dim m = wt.plan.m();
  std::size_t run = 1;
  char figure_label = 'c';
  for (cube::Dim i = 0; i < m; ++i) {
    for (cube::Dim j = i; j >= 0; --j) {
      wt.run_steps(run++);
      std::ostringstream label7;
      label7 << "(" << figure_label++ << ") after Step 7, i=" << i
             << " j=" << j << " (exchange along subcube dimension " << j
             << ")";
      wt.print_state(label7.str());

      wt.run_steps(run++);
      std::ostringstream label8;
      label8 << "(" << figure_label++ << ") after Step 8, i=" << i
             << " j=" << j << " (subcubes re-sorted)";
      wt.print_state(label8.str());
    }
  }

  // Verify.
  const auto sorted = sort::gather(wt.block_of, wt.layout.slots);
  const bool ok = sort::is_ascending(sorted) && sorted.size() == keys.size();
  std::cout << "final check: " << (ok ? "globally sorted in subcube order"
                                      : "NOT SORTED (bug!)")
            << "\n";
  return ok ? 0 : 1;
}
