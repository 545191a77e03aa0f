#include "baseline/ring_sorter.hpp"

#include "sort/distribution.hpp"
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

namespace {

/// Odd-even transposition for ring position `me`: phase p pairs positions
/// (i, i+1) with i ≡ p (mod 2), and as many phases as positions sort the
/// line. An end of the line whose partner does not exist sits its phase
/// out as a skip.
std::vector<sort::ExchangeStep> transposition_steps(
    std::span<const cube::NodeId> ring, std::size_t me) {
  const std::size_t live = ring.size();
  std::vector<sort::ExchangeStep> steps;
  steps.reserve(live);
  for (std::size_t phase = 0; phase < live; ++phase) {
    const bool is_left = (me % 2) == (phase % 2);
    const bool idle = is_left ? me + 1 == live : me == 0;
    const cube::NodeId partner =
        idle ? ring[me] : ring[is_left ? me + 1 : me - 1];
    steps.push_back({sim::Phase::MergeExchange, static_cast<sim::Tag>(phase),
                     partner,
                     is_left ? sort::SplitHalf::Lower : sort::SplitHalf::Upper,
                     /*swap=*/false, /*skip=*/idle});
  }
  return steps;
}

}  // namespace

RingSortResult ring_odd_even_sort(cube::Dim n,
                                  const fault::FaultSet& faults,
                                  std::span<const sort::Key> keys,
                                  fault::FaultModel model,
                                  sim::CostModel cost) {
  FTSORT_REQUIRE(faults.dim() == n);
  RingSortResult result;
  result.ring = healthy_ring(faults);
  FTSORT_REQUIRE(!result.ring.empty());

  // The ring is the slot list: block p on the p-th node along it. Every
  // healthy node is on the ring, so every program walks a list.
  sort::Placement placed =
      sort::scatter(keys, result.ring, cube::num_nodes(n));
  result.block_size = placed.block_size;
  std::vector<std::vector<sort::Key>>& block_of = placed.block_of;
  std::vector<std::vector<sort::ExchangeStep>> schedule(cube::num_nodes(n));
  for (std::size_t p = 0; p < result.ring.size(); ++p)
    schedule[result.ring[p]] = transposition_steps(result.ring, p);

  sim::Machine machine(n, faults, model, cost);
  const auto program = [&](sim::NodeCtx& ctx) -> sim::Task {
    std::vector<sort::Key>& block = block_of[ctx.id()];
    sort::local_sort(ctx, sort::LocalSort::Heapsort, block);
    co_await sort::run_schedule(ctx, schedule[ctx.id()], block,
                                sort::ExchangeProtocol::FullExchange);
  };
  result.report = machine.run(program);
  result.sorted = sort::gather(block_of, result.ring);
  return result;
}

}  // namespace ftsort::baseline
