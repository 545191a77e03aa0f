#include "baseline/ring_sorter.hpp"

#include "sort/distribution.hpp"
#include "sort/merge_split.hpp"
#include "sort/sequential.hpp"
#include "util/contracts.hpp"

namespace ftsort::baseline {

std::vector<cube::NodeId> healthy_ring(const fault::FaultSet& faults) {
  std::vector<cube::NodeId> ring;
  ring.reserve(faults.healthy_count());
  for (cube::NodeId i = 0; i < faults.cube_size(); ++i) {
    const cube::NodeId u = cube::gray(i);
    if (!faults.is_faulty(u)) ring.push_back(u);
  }
  return ring;
}

RingSortResult ring_odd_even_sort(cube::Dim n,
                                  const fault::FaultSet& faults,
                                  std::span<const sort::Key> keys,
                                  fault::FaultModel model,
                                  sim::CostModel cost) {
  FTSORT_REQUIRE(faults.dim() == n);
  RingSortResult result;
  result.ring = healthy_ring(faults);
  const std::size_t live = result.ring.size();
  FTSORT_REQUIRE(live > 0);

  // Position of each machine node along the ring.
  std::vector<std::size_t> position(cube::num_nodes(n), live);
  for (std::size_t p = 0; p < live; ++p) position[result.ring[p]] = p;

  // The ring is the slot list: block p on the p-th node along it.
  sort::Placement placed =
      sort::scatter(keys, result.ring, cube::num_nodes(n));
  result.block_size = placed.block_size;
  std::vector<std::vector<sort::Key>>& block_of = placed.block_of;

  sim::Machine machine(n, faults, model, cost);
  const auto program = [&](sim::NodeCtx& ctx) -> sim::Task {
    const std::size_t me = position[ctx.id()];
    if (me == live) co_return;  // not on the ring (cannot happen: healthy)
    std::vector<sort::Key>& block = block_of[ctx.id()];
    {
      const sim::PhaseSpan span = ctx.span(sim::Phase::LocalSort);
      std::uint64_t comparisons = 0;
      sort::heapsort(block, comparisons);
      ctx.charge_compares(comparisons);
    }

    // Odd-even transposition: phase p pairs positions (i, i+1) with
    // i ≡ p (mod 2). `live` phases guarantee a sorted ring.
    sort::ExchangeScratch scratch;
    for (std::size_t phase = 0; phase < live; ++phase) {
      const bool is_left = (me % 2) == (phase % 2);
      const std::size_t partner_pos =
          is_left ? me + 1 : me - 1;
      // Ends of the line sit out when their partner does not exist.
      if (is_left && partner_pos >= live) continue;
      if (!is_left && me == 0) continue;
      const cube::NodeId partner = result.ring[partner_pos];
      co_await sort::exchange_merge_split_into(
          ctx, partner, static_cast<sim::Tag>(phase), block, scratch,
          is_left ? sort::SplitHalf::Lower : sort::SplitHalf::Upper,
          sort::ExchangeProtocol::FullExchange);
    }
    co_return;
  };
  result.report = machine.run(program);
  result.sorted = sort::gather(block_of, result.ring);
  return result;
}

}  // namespace ftsort::baseline
