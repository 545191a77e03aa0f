#include "baseline/mfs_sorter.hpp"

#include "sort/distribution.hpp"
#include "util/contracts.hpp"

namespace ftsort::baseline {

MfsSortResult mfs_bitonic_sort(cube::Dim n, const fault::FaultSet& faults,
                               std::span<const sort::Key> keys,
                               fault::FaultModel model, sim::CostModel cost,
                               sort::ExchangeProtocol protocol) {
  auto reconf = find_max_fault_free_subcube(faults);
  FTSORT_REQUIRE(reconf.has_value());
  const cube::Subcube& sub = reconf->subcube;

  // Logical cube over the subcube's free dimensions, no dead node.
  sort::LogicalCube lc;
  lc.s = sub.dim();
  lc.phys = sub.members();  // increasing global order == logical order

  // The subcube's members, in logical order, are the slot list; each
  // walks its block bitonic sort.
  sort::Placement placed = sort::scatter(keys, lc.phys, cube::num_nodes(n));
  std::vector<std::vector<sort::Key>>& block_of = placed.block_of;
  std::vector<std::vector<sort::ExchangeStep>> schedule(cube::num_nodes(n));
  std::vector<bool> member(cube::num_nodes(n), false);
  for (cube::NodeId logical = 0; logical < lc.size(); ++logical) {
    member[lc.phys[logical]] = true;
    sort::append_bitonic_sort(lc, logical, /*ascending=*/true,
                              sim::Phase::SubcubeSort, /*tag_base=*/0,
                              schedule[lc.phys[logical]]);
  }

  sim::Machine machine(n, faults, model, cost);
  const auto program = [&](sim::NodeCtx& ctx) -> sim::Task {
    if (!member[ctx.id()]) co_return;  // outside the subcube
    std::vector<sort::Key>& block = block_of[ctx.id()];
    sort::local_sort(ctx, sort::LocalSort::Heapsort, block);
    co_await sort::run_schedule(ctx, schedule[ctx.id()], block, protocol);
  };

  MfsSortResult result;
  result.report = machine.run(program);
  result.reconfiguration = *reconf;
  result.block_size = placed.block_size;
  result.sorted = sort::gather(block_of, lc.phys);
  return result;
}

}  // namespace ftsort::baseline
