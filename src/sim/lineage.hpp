// Key-lineage provenance: per-key custody tracking and the exact
// no-loss/no-dup audit.
//
// `Lineage` is an opt-in instrument (sim/instrument.hpp) that assigns
// every input key — dummies included — a stable integer id at scatter and
// follows it through the run: which node holds it, how many
// links it crossed per cube dimension, and the custody chain of events
// (assignment, merge-split moves, witness capture, salvage, re-scatter,
// retirement). At gather the host replays the output against the id table
// and produces an exact audit: every real key present exactly once, with
// the lost/duplicated ids, their last custodians, and the interrupted
// phase named on violation.
//
// Custody model (DESIGN.md §7): the simulator's exchanges are *copy*
// transports — a merge-split sends a copy of the block and commits its new
// content only at the local merge, so an aborted step loses nothing.
// Lineage mirrors that: custody transfers commit at the merge points (the
// `note_retain` hook), never at send or receive, which makes a dropped or
// orphaned message a non-event for custody (the sender still holds the
// keys) and leaves the keys of a dead node parked at the corpse until
// salvage reassigns them.
//
// Determinism: both partners of an exchange call `note_retain` for the
// same (min, max, tag) pair-step; whichever arrives first resolves the
// *complete* partition for both sides with a canonical rule — the pool of
// ids held by the pair is split by popping the smallest ids per value for
// the lower-numbered node's retained multiset, the complement going to the
// higher — so the resolution is independent of call order and therefore
// byte-identical across the sequential and threaded executors. Hop charges
// and untracked counters are integer sums, order-independent by
// construction. Charging never touches a node clock: zero simulated time.
//
// Conservation: Σ over ids of per-dimension hop counts, plus the
// per-dimension `untracked` counters (payload words the sender does not
// hold: control words, witness copies, host-I/O fan-out), equals the
// LinkStats per-dimension key_hops exactly — both charge the same send
// event along the same router path.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "hypercube/address.hpp"
#include "sim/instrument.hpp"
#include "sim/message.hpp"
#include "sim/phase.hpp"

namespace ftsort::sim {

/// Custody-chain cap per key: events past it are counted in
/// `dropped_events` instead of growing without bound (a many-episode
/// recovery run can retain a key dozens of times).
inline constexpr std::size_t kLineageMaxEventsPerKey = 64;

/// Sentinel for "no witness recorded".
inline constexpr cube::NodeId kLineageNoWitness =
    static_cast<cube::NodeId>(-1);

enum class LineageEventKind : std::uint8_t {
  Assign = 0,    ///< id created at (re-)scatter; `node` is the first holder
  Move,          ///< custody committed at a merge point; `peer` = old holder
  Salvage,       ///< reassigned off a corpse; `peer` = the winning witness
  Rescatter,     ///< reassigned from a live node at re-scatter
  Retire,        ///< dummy id left circulation at re-scatter
  Lost,          ///< id unaccounted for at re-scatter (salvage failure)
};

/// Stable single-letter code used by the metrics-JSON trail strings and
/// decoded by `ftdiag lineage` — keep the two ends in sync.
constexpr char lineage_event_code(LineageEventKind k) {
  switch (k) {
    case LineageEventKind::Assign: return 'A';
    case LineageEventKind::Move: return 'M';
    case LineageEventKind::Salvage: return 'S';
    case LineageEventKind::Rescatter: return 'R';
    case LineageEventKind::Retire: return 'T';
    case LineageEventKind::Lost: return 'L';
  }
  return '?';
}

struct LineageEvent {
  LineageEventKind kind = LineageEventKind::Assign;
  Phase phase = Phase::Unattributed;
  cube::NodeId node = 0;  ///< holder after the event
  cube::NodeId peer = 0;  ///< previous holder, or the witness for Salvage
  std::int32_t step = -1; ///< wire tag / protocol step; -1 when n/a
  bool operator==(const LineageEvent&) const = default;
};

/// One key's full provenance record, indexed by id in the snapshot.
struct LineageKeyRecord {
  Key value = 0;
  cube::NodeId origin = 0;   ///< first holder at assignment
  cube::NodeId holder = 0;   ///< current/final holder
  bool dummy = false;        ///< scatter padding (kDummyKey)
  bool retired = false;      ///< dummy that left circulation at re-scatter
  bool lost = false;         ///< dropped out of custody (salvage failure)
  bool salvaged = false;     ///< chain passes through a Salvage event
  cube::NodeId witness = kLineageNoWitness;  ///< freshest witness holder
  std::int32_t witness_step = -1;
  std::uint32_t moves = 0;   ///< custody transfers committed
  std::vector<std::uint64_t> hops;  ///< [dim] link crossings charged
  std::vector<LineageEvent> chain;

  std::uint64_t hops_total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t h : hops) sum += h;
    return sum;
  }
  bool operator==(const LineageKeyRecord&) const = default;
};

/// Host-side audit verdict, computed from the snapshot and the gathered
/// output by `audit_lineage` (so tests and tools can re-run it against a
/// tampered output to exercise the violation paths).
struct LineageAudit {
  struct LostKey {
    std::uint64_t id = 0;
    Key value = 0;
    cube::NodeId last_holder = 0;
    Phase phase = Phase::Unattributed;  ///< phase of the last chain event
    bool operator==(const LostKey&) const = default;
  };
  struct DuplicatedValue {
    Key value = 0;
    std::uint64_t extra = 0;  ///< output copies beyond the assigned ids
    bool operator==(const DuplicatedValue&) const = default;
  };

  bool checked = false;  ///< audit ran (gather completed)
  bool ok = false;       ///< no losses, no duplicates
  std::vector<LostKey> lost;
  std::vector<DuplicatedValue> duplicated;
  std::uint64_t salvaged = 0;            ///< keys with a Salvage event
  std::uint64_t witnessed_salvaged = 0;  ///< …whose salvage names a witness
  bool operator==(const LineageAudit&) const = default;
};

/// Immutable result of one tracked run, carried in RunReport::lineage.
struct LineageSnapshot {
  bool enabled = false;
  cube::Dim dim = 0;
  std::uint64_t assigned = 0;  ///< ids created (real + dummy, all attempts)
  std::uint64_t dummies = 0;
  std::uint64_t dropped_events = 0;     ///< chain appends past the cap
  std::uint64_t resolve_mismatches = 0; ///< retained values absent from pool
  std::vector<std::uint64_t> untracked; ///< [dim] hops with no custodian id
  std::vector<LineageKeyRecord> keys;   ///< index = id
  LineageAudit audit;

  bool empty() const { return !enabled; }
  std::uint64_t hops_by_dim(cube::Dim d) const {
    std::uint64_t sum = 0;
    for (const LineageKeyRecord& k : keys)
      sum += k.hops[static_cast<std::size_t>(d)];
    return sum;
  }
  std::uint64_t untracked_total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t u : untracked) sum += u;
    return sum;
  }
  bool operator==(const LineageSnapshot&) const = default;
};

/// Exact no-loss/no-dup audit: replay `output` (the gathered, dummy-free
/// result) against the snapshot's id table, popping the smallest live id
/// per value; output values with no id left are duplicates, unpopped real
/// ids are losses (named with last custodian and phase). Fills
/// `snap.audit`; idempotent.
void audit_lineage(LineageSnapshot& snap, std::span<const Key> output);

/// The provenance registry. Enable + assign before a run
/// (Machine::lineage()); Machine collects it into RunReport::lineage.
/// Unlike the other instruments it keeps its state across the run-start
/// hook — scatter assignment happens host-side before the run starts.
/// During a run every hook is called on the sequential executor's one
/// thread or under the threaded executor's machine lock, which keeps the
/// pair-resolution protocol atomic.
class Lineage final : public Instrument {
 public:
  struct SalvageInfo {
    cube::NodeId dead = 0;
    cube::NodeId witness = kLineageNoWitness;
    std::int32_t step = -1;
  };

  void enable(std::uint32_t num_nodes, cube::Dim dim);

  /// Host-side scatter: create one id per value of `block` (in block
  /// order), held by `node`. Ids are sequential in call order, so calling
  /// in the partition's (subcube, logical) slot order gives both executors
  /// and both sorter paths the same id universe.
  void assign_block(cube::NodeId node, std::span<const Key> block);

  bool wants_path() const override { return true; }
  /// Charge one send's link crossings. For each payload word, the k-th
  /// occurrence of a value is charged to the k-th smallest id of that
  /// value in the *sender's* holding; words the sender does not hold
  /// (control words, witness copies, fan-out of another node's block) are
  /// counted per dimension in `untracked`. The walk is the one LinkStats
  /// charges.
  void on_send(const SendEvent& ev) override;

  /// Commit custody for pair-step (me, partner, tag): `kept` is the
  /// caller's post-merge block. First caller resolves the complete
  /// canonical partition for both sides (see file header); the partner's
  /// later call is an idempotent no-op. When `witness_step >= 0` the
  /// resolution also stamps every id in the pair's pool with the opposite
  /// node as its freshest witness at that step (recovery's witness
  /// capture) — stamping at resolution time, together with the partition,
  /// is what keeps the stamp executor-order independent.
  void note_retain(cube::NodeId me, cube::NodeId partner, std::uint32_t tag,
                   std::span<const Key> kept, Phase phase,
                   std::int32_t witness_step = -1);

  /// Recovery re-scatter: `blocks[u]` is node u's new block. Retires the
  /// old dummy ids, mints new ones for the new padding, and reassigns
  /// every real id to its new holder — ids parked on a node in `salvage`
  /// get a Salvage event naming the winning witness; the rest a Rescatter
  /// event. Real ids left unmatched are marked Lost.
  void note_rescatter(const std::vector<std::vector<Key>>& blocks,
                      std::span<const SalvageInfo> salvage, Phase phase);

  /// Materialise the records (index = id) into RunReport::lineage.
  void collect(RunReport& report) const override;

 private:
  using PairStep = std::tuple<cube::NodeId, cube::NodeId, std::uint32_t>;
  static PairStep pair_key(cube::NodeId a, cube::NodeId b,
                           std::uint32_t tag) {
    return {a < b ? a : b, a < b ? b : a, tag};
  }

  std::uint64_t mint(cube::NodeId node, Key value, Phase phase);
  void append_event(LineageKeyRecord& rec, LineageEvent ev);
  /// Insert `id` into node's value→ids holding, keeping the list sorted.
  void hold(cube::NodeId node, Key value, std::uint64_t id);

  cube::Dim dim_ = 0;
  std::vector<LineageKeyRecord> recs_;  ///< index = id
  /// Per node: value → ascending ids currently held.
  std::vector<std::map<Key, std::vector<std::uint64_t>>> holding_;
  std::set<PairStep> resolved_;  ///< pair-steps already partitioned
  std::vector<std::uint64_t> untracked_;  ///< [dim]
  std::uint64_t dummies_ = 0;
  std::uint64_t dropped_events_ = 0;
  std::uint64_t resolve_mismatches_ = 0;
};

}  // namespace ftsort::sim
