// Message routing on (possibly faulty) hypercubes.
//
// Three routers are provided:
//  * e-cube (dimension-order) routing — the deterministic scheme used by the
//    NCUBE VERTEX operating system; ignores faults, so it models the paper's
//    *partial* fault type where a faulty node still forwards messages;
//  * adaptive fault-avoiding routing in the spirit of Chen & Shin — prefer
//    e-cube dimensions, detour across a spare dimension when the preferred
//    next hop is faulty; models *total* faults;
//  * breadth-first search — the exact shortest fault-free path, used as the
//    oracle for tests and as a fallback when the greedy detour fails.
//
// All paths include both endpoints; hop count = path.size() - 1.
#pragma once

#include <optional>
#include <vector>

#include "hypercube/address.hpp"
#include "hypercube/link_set.hpp"

namespace ftsort::cube {

/// Dimension-order path from `src` to `dst`, correcting bits from dimension
/// 0 upward. Length is always hamming(src, dst) + 1 nodes.
std::vector<NodeId> ecube_path(Dim n, NodeId src, NodeId dst);

/// Shortest path avoiding faulty *intermediate* nodes (endpoints are
/// permitted regardless, so diagnosis traffic can probe a faulty node)
/// and, when `dead_links` is given, avoiding its links entirely.
/// Returns std::nullopt when no fault-free path exists.
std::optional<std::vector<NodeId>> bfs_path(
    Dim n, NodeId src, NodeId dst, const std::vector<bool>& faulty,
    const LinkSet* dead_links = nullptr);

/// Greedy adaptive routing: at each step take the lowest still-unfixed
/// dimension whose next hop is healthy; if none is available, detour across
/// the lowest healthy spare dimension not used by the previous detour.
/// Falls back to BFS when the greedy walk stalls or exceeds its hop budget.
/// Returns std::nullopt when the destination is unreachable.
std::optional<std::vector<NodeId>> adaptive_path(
    Dim n, NodeId src, NodeId dst, const std::vector<bool>& faulty,
    const LinkSet* dead_links = nullptr);

/// Facade bundling the policy choice: `avoid_faulty == false` charges plain
/// e-cube distance (partial faults); `true` uses adaptive routing (total
/// faults). Dead links, if any, are avoided under *both* policies — a
/// broken wire carries nothing regardless of the processor fault type.
class Router {
 public:
  Router(Dim n, std::vector<bool> faulty, bool avoid_faulty,
         LinkSet dead_links = {});

  Dim dim() const { return n_; }
  const LinkSet& dead_links() const { return dead_links_; }

  /// The path a message takes. Throws ContractViolation if unreachable
  /// under the total-fault model (callers must not route to cut-off nodes).
  std::vector<NodeId> path(NodeId src, NodeId dst) const;

  /// Number of link traversals for a message src -> dst.
  int hops(NodeId src, NodeId dst) const;

 private:
  Dim n_;
  std::vector<bool> faulty_;
  bool avoid_faulty_;
  LinkSet dead_links_;
};

}  // namespace ftsort::cube
