#include "sim/link_stats.hpp"

#include <algorithm>
#include <bit>

#include "sim/machine.hpp"
#include "util/contracts.hpp"

namespace ftsort::sim {

LinkCell& LinkCell::operator+=(const LinkCell& o) {
  traversals += o.traversals;
  key_hops += o.key_hops;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    phase_traversals[p] += o.phase_traversals[p];
    phase_key_hops[p] += o.phase_key_hops[p];
  }
  return *this;
}

SimTime link_busy_time(const LinkCell& cell, const CostModel& cost) {
  return cost.link_busy(cell.traversals, cell.key_hops);
}

LinkCell LinkStatsSnapshot::dim_total(cube::Dim d) const {
  LinkCell total;
  for (cube::NodeId u = 0; u < num_nodes; ++u) total += at(u, d);
  return total;
}

LinkCell LinkStatsSnapshot::grand_total() const {
  LinkCell total;
  for (const LinkCell& cell : cells) total += cell;
  return total;
}

double hottest_dimension_share(const LinkStatsSnapshot& snap) {
  if (snap.empty()) return 0.0;
  const std::uint64_t total = snap.grand_total().key_hops;
  if (total == 0) return 0.0;
  std::uint64_t hottest = 0;
  for (cube::Dim d = 0; d < snap.dim; ++d)
    hottest = std::max(hottest, snap.dim_total(d).key_hops);
  return static_cast<double>(hottest) / static_cast<double>(total);
}

std::vector<double> dimension_utilization(const LinkStatsSnapshot& snap,
                                          const CostModel& cost,
                                          SimTime makespan) {
  std::vector<double> util(static_cast<std::size_t>(snap.dim), 0.0);
  if (makespan <= 0.0 || snap.num_nodes == 0) return util;
  for (cube::Dim d = 0; d < snap.dim; ++d)
    util[static_cast<std::size_t>(d)] =
        link_busy_time(snap.dim_total(d), cost) /
        (static_cast<double>(snap.num_nodes) * makespan);
  return util;
}

void LinkStats::enable(std::uint32_t num_nodes, cube::Dim n) {
  const auto dims = static_cast<std::size_t>(n);
  snap_.dim = n;
  snap_.num_nodes = num_nodes;
  snap_.cells.assign(num_nodes * dims, LinkCell{});
  enabled_ = true;
}

void LinkStats::on_run_start() {
  std::fill(snap_.cells.begin(), snap_.cells.end(), LinkCell{});
}

void LinkStats::on_send(const SendEvent& ev) {
  const auto phase = static_cast<std::size_t>(ev.msg.phase);
  const std::uint64_t keys = ev.msg.payload.size();
  for (std::size_t k = 0; k + 1 < ev.path.size(); ++k) {
    const std::uint32_t diff = ev.path[k] ^ ev.path[k + 1];
    FTSORT_INVARIANT(std::popcount(diff) == 1);
    LinkCell& cell =
        snap_.cells[static_cast<std::size_t>(ev.path[k]) *
                        static_cast<std::size_t>(snap_.dim) +
                    static_cast<std::size_t>(std::countr_zero(diff))];
    ++cell.traversals;
    cell.key_hops += keys;
    ++cell.phase_traversals[phase];
    cell.phase_key_hops[phase] += keys;
  }
}

void LinkStats::collect(RunReport& report) const { report.links = snap_; }

}  // namespace ftsort::sim
