// Per-link traffic registry of a simulation run: the topology-aware
// counterpart of sim::Metrics. Where Metrics answers "what did each node
// spend per phase", LinkStats answers "what crossed each wire": every
// directed link (u, d) — node u's outgoing edge across cube dimension d —
// counts the messages that traversed it, the payload keys they carried,
// and a per-phase split of both. An instrument (sim/instrument.hpp): it
// charges each send along the router walk Machine hands it, the walk the
// send's CostModel time is charged for.
//
// Conservation invariant: a message of k keys over a path of h links
// charges k to the key_hops counter of each of the h links it crosses, so
//     Σ over all links of key_hops  ==  Σ over all messages of k × h,
// which is exactly the Machine's aggregate `key_hops` scalar (dropped
// messages included — both sides charge at post/send time, before the
// drop check). Tests enforce this equality exactly, on both executors.
//
// Determinism survives because every counter is an integer (sums are
// order-independent); derived times (link busy, utilisation) are computed
// from the integer counters and the CostModel at read time, never
// accumulated as floating point, so threaded runs stay byte-identical to
// sequential ones.
//
// The §3 heuristic audit (ReindexAudit) rides in the same report but is
// plain data: the algorithm layer computes both its sides after the run,
// the measured one from its Step 7 partners and the machine's router.
//
// Off by default, like every instrument.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "hypercube/address.hpp"
#include "sim/cost_model.hpp"
#include "sim/instrument.hpp"
#include "sim/phase.hpp"

namespace ftsort::sim {

/// Counters of one directed link (source node, dimension), or an aggregate
/// over links. Integers only — see the file header for why.
struct LinkCell {
  std::uint64_t traversals = 0;  ///< messages that crossed this link
  std::uint64_t key_hops = 0;    ///< Σ payload keys that crossed it
  std::array<std::uint64_t, kPhaseCount> phase_traversals{};
  std::array<std::uint64_t, kPhaseCount> phase_key_hops{};

  LinkCell& operator+=(const LinkCell& o);
  bool operator==(const LinkCell&) const = default;
};

/// Derived busy time of a link under the cost model: the wire time its
/// traffic occupies (CostModel::link_busy — traversals × t_startup + keys ×
/// t_transfer, in either routing mode). With the simulator's charging,
/// overlapping transfers are not serialised, so a hot link's busy time can
/// exceed the makespan — that excess is precisely the contention the §3
/// model ignores.
SimTime link_busy_time(const LinkCell& cell, const CostModel& cost);

/// Copyable point-in-time copy of the registry, carried in RunReport.
struct LinkStatsSnapshot {
  cube::Dim dim = 0;            ///< cube dimension n
  std::uint32_t num_nodes = 0;  ///< 2^n
  /// Row-major traffic matrix: cells[u * dim + d] is link (u, d).
  std::vector<LinkCell> cells;

  bool empty() const { return cells.empty(); }
  const LinkCell& at(cube::NodeId u, cube::Dim d) const {
    return cells[static_cast<std::size_t>(u) * static_cast<std::size_t>(dim) +
                 static_cast<std::size_t>(d)];
  }
  /// Aggregate of one dimension over all source nodes.
  LinkCell dim_total(cube::Dim d) const;
  /// Aggregate of every link. Its key_hops equals the Machine's scalar.
  LinkCell grand_total() const;

  bool operator==(const LinkStatsSnapshot&) const = default;
};

/// Share of a run's total key_hops carried by its hottest cube dimension:
/// max_d dim_total(d).key_hops / grand_total().key_hops, in [1/n, 1] for a
/// run with any traffic and 0.0 for an empty or disabled snapshot. A pure
/// ratio of integer counters, so it is deterministic across executors —
/// the per-trial "link hotspot" scalar the campaign engine aggregates
/// into quantiles without holding 2^n × n cells per trial.
double hottest_dimension_share(const LinkStatsSnapshot& snap);

/// Per-dimension mean link utilisation: Σ_u busy(u, d) / (num_nodes ×
/// makespan). Averaged over every directed link of the dimension (faulty
/// nodes' links included — they carry no traffic and dilute the mean like
/// any other idle wire). Can exceed 1.0; see link_busy_time.
std::vector<double> dimension_utilization(const LinkStatsSnapshot& snap,
                                          const CostModel& cost,
                                          SimTime makespan);

/// §3 heuristic audit: the predicted extra-routing profile of every
/// candidate cutting sequence in Ψ next to what the run actually measured.
/// Plain data, filled by the algorithm layer (core/ft_sorter) after the
/// run from its Step 7 partners and the machine's router; `enabled` stays
/// false unless link stats were recorded for an offline (non-recovery)
/// sort.
struct ReindexAudit {
  struct Candidate {
    std::vector<cube::Dim> cuts;   ///< the candidate cutting sequence
    std::vector<int> predicted_h;  ///< §3 max(h_i) per logical dimension
    int predicted_total = 0;       ///< Σ predicted_h — the §3 objective
    bool chosen = false;           ///< the heuristic's pick (exactly one)
    bool operator==(const Candidate&) const = default;
  };
  bool enabled = false;
  std::vector<Candidate> candidates;  ///< Ψ in search (DFS) order
  /// Measured maxima over fault-carrying pairs only — the formula's own
  /// scope, so measured_h should equal the chosen candidate's predicted_h.
  std::vector<int> measured_h;
  int measured_total = 0;  ///< Σ measured_h
  /// Measured maxima over *every* Step-7 exchange, dangling subcubes
  /// included — the run's true worst-case re-index cost per dimension.
  /// measured_all_total − measured_total is overhead §3 does not model.
  std::vector<int> measured_all_h;
  int measured_all_total = 0;  ///< Σ measured_all_h

  bool operator==(const ReindexAudit&) const = default;
};

class LinkStats final : public Instrument {
 public:
  /// Size the matrix for a 2^n-node cube and start recording. Zeroes any
  /// previous contents.
  void enable(std::uint32_t num_nodes, cube::Dim n);

  bool wants_path() const override { return true; }
  /// Zero every counter, keeping the allocation (run-to-run reuse).
  void on_run_start() override;
  /// Charge the message along its walk: each consecutive pair (a, b) of
  /// the path bumps directed link (a, dim of a^b) by one traversal and
  /// the payload's keys.
  void on_send(const SendEvent& ev) override;
  /// RunReport::links.
  void collect(RunReport& report) const override;

 private:
  LinkStatsSnapshot snap_;  ///< the run so far
};

}  // namespace ftsort::sim
