// Figure 6 walkthrough: the paper's running example, state by state.
//
// Q_5 with faulty processors {3, 5, 16, 24} is partitioned by
// D_β = (0, 1, 3) into F_5^3; 47 keys are distributed over the 24 live
// processors (blocks of 2, one dummy). This program drives the sorting
// algorithm *phase by phase* using the library's SPMD primitives and
// prints every intermediate state, mirroring Fig. 6(a)–(i):
//   (a) distribution, (b) after Step 3, then after each Step 7 and Step 8
//   of the subcube-level merge (i = 0..2, j = i..0).
//
//   $ ./figure6_walkthrough [--keys 47] [--seed 6]
#include <iostream>
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

  explicit Walkthrough(const fault::FaultSet& faults)
      : plan(partition::Plan::build(faults)),
        layout(core::plan_layout(plan)) {}

  void scatter(const std::vector<Key>& keys) {
    block_of =
        sort::scatter(keys, layout.slots, cube::num_nodes(plan.n())).block_of;
  }

  /// Run one phase of the algorithm as its own simulation run.
  void run_phase(const sim::Machine::Program& program) {
    sim::Machine machine(plan.n(), plan.faults());
    machine.run(program);
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
    const auto role = wt.plan.role_of(ctx.id());
    if (!role.live) co_return;
    std::uint64_t comparisons = 0;
    sort::heapsort(wt.block_of[ctx.id()], comparisons);
    ctx.charge_compares(comparisons);
  });
  // Step 3b: single-fault bitonic sort per subcube, direction by parity.
  wt.run_phase([&](sim::NodeCtx& ctx) -> sim::Task {
    const auto role = wt.plan.role_of(ctx.id());
    if (!role.live) co_return;
    const bool ascending = cube::bit(role.v, 0) == 0;
    sort::ExchangeScratch scratch;
    co_await sort::block_bitonic_sort(ctx, wt.layout.subcubes[role.v],
                                      role.logical_w,
                                      wt.block_of[ctx.id()], ascending,
                                      wt.protocol, 0, scratch);
  });
  wt.print_state(
      "(b) after Step 3: each subcube sorted (ascending iff v even)");

  // Steps 4-8.
  const cube::Dim m = wt.plan.m();
  char figure_label = 'c';
  for (cube::Dim i = 0; i < m; ++i) {
    for (cube::Dim j = i; j >= 0; --j) {
      // Step 7: inter-subcube merge-split between corresponding nodes.
      wt.run_phase([&](sim::NodeCtx& ctx) -> sim::Task {
        const auto role = wt.plan.role_of(ctx.id());
        if (!role.live) co_return;
        const int mask =
            (i + 1 == m) ? 0 : cube::bit(role.v, i + 1);
        const cube::NodeId v2 = cube::neighbor(role.v, j);
        const cube::NodeId partner = wt.plan.physical(v2, role.logical_w);
        const auto keep = (cube::bit(role.v, j) == mask)
                              ? sort::SplitHalf::Lower
                              : sort::SplitHalf::Upper;
        sort::ExchangeScratch scratch;
        co_await sort::exchange_merge_split_into(
            ctx, partner, 0, wt.block_of[ctx.id()], scratch, keep,
            wt.protocol);
      });
      std::ostringstream label7;
      label7 << "(" << figure_label++ << ") after Step 7, i=" << i
             << " j=" << j << " (exchange along subcube dimension " << j
             << ")";
      wt.print_state(label7.str());

      // Step 8: re-sort each subcube (merge variant).
      wt.run_phase([&](sim::NodeCtx& ctx) -> sim::Task {
        const auto role = wt.plan.role_of(ctx.id());
        if (!role.live) co_return;
        const int mask =
            (i + 1 == m) ? 0 : cube::bit(role.v, i + 1);
        const int v_jm1 = (j == 0) ? 0 : cube::bit(role.v, j - 1);
        const auto keep = (cube::bit(role.v, j) == mask)
                              ? sort::SplitHalf::Lower
                              : sort::SplitHalf::Upper;
        sort::ExchangeScratch scratch;
        co_await sort::block_bitonic_merge(
            ctx, wt.layout.subcubes[role.v], role.logical_w,
            wt.block_of[ctx.id()], /*ascending=*/v_jm1 == mask, keep,
            wt.protocol, 0, scratch);
      });
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
