#include "baseline/mfs_sorter.hpp"

#include "sort/distribution.hpp"
#include "sort/sequential.hpp"
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

  // The subcube's members, in logical order, are the slot list.
  sort::Placement placed = sort::scatter(keys, lc.phys, cube::num_nodes(n));
  std::vector<std::vector<sort::Key>>& block_of = placed.block_of;
  std::vector<cube::NodeId> logical_of(cube::num_nodes(n),
                                       cube::num_nodes(n));
  for (cube::NodeId logical = 0; logical < lc.size(); ++logical)
    logical_of[lc.phys[logical]] = logical;

  sim::Machine machine(n, faults, model, cost);
  const auto program = [&](sim::NodeCtx& ctx) -> sim::Task {
    const cube::NodeId logical = logical_of[ctx.id()];
    if (logical == cube::num_nodes(n)) co_return;  // outside the subcube
    std::vector<sort::Key>& block = block_of[ctx.id()];
    {
      const sim::PhaseSpan span = ctx.span(sim::Phase::LocalSort);
      std::uint64_t comparisons = 0;
      sort::heapsort(block, comparisons);
      ctx.charge_compares(comparisons);
    }
    sort::ExchangeScratch scratch;
    co_await sort::block_bitonic_sort(ctx, lc, logical, block,
                                      /*ascending=*/true, protocol,
                                      /*tag_base=*/0, scratch);
  };

  MfsSortResult result;
  result.report = machine.run(program);
  result.reconfiguration = *reconf;
  result.block_size = placed.block_size;
  result.sorted = sort::gather(block_of, lc.phys);
  return result;
}

}  // namespace ftsort::baseline
