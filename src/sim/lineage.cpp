#include "sim/lineage.hpp"

#include <algorithm>

#include "sim/machine.hpp"
#include "util/contracts.hpp"

namespace ftsort::sim {

void Lineage::enable(std::uint32_t num_nodes, cube::Dim dim) {
  FTSORT_REQUIRE(dim > 0);
  enabled_ = true;
  dim_ = dim;
  holding_.assign(num_nodes, {});
  untracked_.assign(static_cast<std::size_t>(dim), 0);
  recs_.clear();
  resolved_.clear();
  dummies_ = dropped_events_ = resolve_mismatches_ = 0;
}

void Lineage::append_event(LineageKeyRecord& rec, LineageEvent ev) {
  if (rec.chain.size() >= kLineageMaxEventsPerKey) {
    ++dropped_events_;
    return;
  }
  rec.chain.push_back(ev);
}

void Lineage::hold(cube::NodeId node, Key value, std::uint64_t id) {
  std::vector<std::uint64_t>& ids = holding_[node][value];
  ids.insert(std::lower_bound(ids.begin(), ids.end(), id), id);
}

std::uint64_t Lineage::mint(cube::NodeId node, Key value, Phase phase) {
  const std::uint64_t id = recs_.size();
  LineageKeyRecord rec;
  rec.value = value;
  rec.origin = node;
  rec.holder = node;
  rec.dummy = value == kDummyKey;
  rec.hops.assign(static_cast<std::size_t>(dim_), 0);
  if (rec.dummy) ++dummies_;
  recs_.push_back(std::move(rec));
  append_event(recs_.back(), {LineageEventKind::Assign, phase, node, node,
                              -1});
  hold(node, value, id);
  return id;
}

void Lineage::assign_block(cube::NodeId node, std::span<const Key> block) {
  if (!enabled_) return;
  for (const Key v : block) mint(node, v, Phase::Scatter);
}

void Lineage::on_send(const SendEvent& ev) {
  const std::span<const cube::NodeId> path = ev.path;
  if (path.size() < 2) return;
  const auto& hold_map = holding_[ev.msg.src];
  // Resolve each payload word to an id once (k-th occurrence of a value →
  // k-th smallest held id), then charge every link of the walk.
  std::map<Key, std::size_t> occurrence;
  for (const Key v : ev.msg.payload.span()) {
    const std::size_t k = occurrence[v]++;
    const auto it = hold_map.find(v);
    LineageKeyRecord* rec = nullptr;
    if (it != hold_map.end() && k < it->second.size())
      rec = &recs_[it->second[k]];
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const auto d = static_cast<std::size_t>(
          cube::lowest_set_dim(path[i] ^ path[i + 1]));
      if (rec != nullptr)
        ++rec->hops[d];
      else
        ++untracked_[d];
    }
  }
}

void Lineage::note_retain(cube::NodeId me, cube::NodeId partner,
                          std::uint32_t tag, std::span<const Key> kept,
                          Phase phase, std::int32_t witness_step) {
  if (!enabled_) return;
  if (!resolved_.insert(pair_key(me, partner, tag)).second)
    return;  // the partner already resolved this pair-step
  const cube::NodeId lower = std::min(me, partner);
  const cube::NodeId higher = std::max(me, partner);

  // Pool: every id the pair holds, per value, ids ascending (merge of two
  // sorted lists).
  std::map<Key, std::vector<std::uint64_t>> pool = std::move(holding_[lower]);
  holding_[lower].clear();
  for (auto& [v, ids] : holding_[higher]) {
    std::vector<std::uint64_t>& dst = pool[v];
    const std::size_t mid = dst.size();
    dst.insert(dst.end(), ids.begin(), ids.end());
    std::inplace_merge(dst.begin(),
                       dst.begin() + static_cast<std::ptrdiff_t>(mid),
                       dst.end());
  }
  holding_[higher].clear();

  // Canonical partition: the lower node's retained multiset takes the
  // smallest ids per value. When the higher node resolved first, its kept
  // multiset determines the lower's as the pool complement.
  std::map<Key, std::size_t> kept_count;
  for (const Key v : kept) ++kept_count[v];
  const std::int32_t step = static_cast<std::int32_t>(tag);
  for (auto& [v, ids] : pool) {
    std::size_t lower_n;
    const auto it = kept_count.find(v);
    const std::size_t mine = it == kept_count.end() ? 0 : it->second;
    if (me == lower) {
      lower_n = std::min(mine, ids.size());
      if (mine > ids.size()) resolve_mismatches_ += mine - ids.size();
    } else {
      lower_n = ids.size() - std::min(mine, ids.size());
      if (mine > ids.size()) resolve_mismatches_ += mine - ids.size();
    }
    if (it != kept_count.end()) kept_count.erase(it);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const cube::NodeId to = k < lower_n ? lower : higher;
      LineageKeyRecord& rec = recs_[ids[k]];
      if (rec.holder != to) {
        append_event(rec,
                     {LineageEventKind::Move, phase, to, rec.holder, step});
        rec.holder = to;
        ++rec.moves;
      }
      if (witness_step >= 0) {
        rec.witness = to == lower ? higher : lower;
        rec.witness_step = witness_step;
      }
      hold(to, v, ids[k]);
    }
  }
  // Retained values with no id in the pair's pool at all.
  for (const auto& [v, count] : kept_count) resolve_mismatches_ += count;
}

void Lineage::note_rescatter(const std::vector<std::vector<Key>>& blocks,
                             std::span<const SalvageInfo> salvage,
                             Phase phase) {
  if (!enabled_) return;
  std::map<cube::NodeId, const SalvageInfo*> dead;
  for (const SalvageInfo& s : salvage) dead[s.dead] = &s;

  // Pull every id out of circulation; dummies retire for good (the new
  // padding gets fresh ids), real ids re-enter at their new holders.
  std::map<Key, std::vector<std::uint64_t>> pool;
  for (auto& node_holding : holding_) {
    for (auto& [v, ids] : node_holding) {
      if (v == kDummyKey) {
        for (const std::uint64_t id : ids) {
          LineageKeyRecord& rec = recs_[id];
          rec.retired = true;
          append_event(rec, {LineageEventKind::Retire, phase, rec.holder,
                             rec.holder, -1});
        }
        continue;
      }
      std::vector<std::uint64_t>& dst = pool[v];
      const std::size_t mid = dst.size();
      dst.insert(dst.end(), ids.begin(), ids.end());
      std::inplace_merge(dst.begin(),
                         dst.begin() + static_cast<std::ptrdiff_t>(mid),
                         dst.end());
    }
    node_holding.clear();
  }

  for (cube::NodeId u = 0; u < blocks.size(); ++u) {
    for (const Key v : blocks[u]) {
      if (v == kDummyKey) {
        mint(u, v, phase);
        continue;
      }
      const auto it = pool.find(v);
      if (it == pool.end() || it->second.empty()) {
        // Salvage produced a value lineage never saw: keep the audit
        // consistent by minting it, but count the discrepancy.
        ++resolve_mismatches_;
        mint(u, v, phase);
        continue;
      }
      const std::uint64_t id = it->second.front();
      it->second.erase(it->second.begin());
      LineageKeyRecord& rec = recs_[id];
      const auto dit = dead.find(rec.holder);
      if (dit != dead.end()) {
        rec.salvaged = true;
        append_event(rec, {LineageEventKind::Salvage, phase, u,
                           dit->second->witness, dit->second->step});
      } else if (rec.holder != u) {
        append_event(rec,
                     {LineageEventKind::Rescatter, phase, u, rec.holder, -1});
      }
      rec.holder = u;
      hold(u, v, id);
    }
  }

  // Real ids nobody re-adopted: the salvage lost them.
  for (const auto& [v, ids] : pool)
    for (const std::uint64_t id : ids) {
      LineageKeyRecord& rec = recs_[id];
      rec.lost = true;
      append_event(rec,
                   {LineageEventKind::Lost, phase, rec.holder, rec.holder,
                    -1});
    }
}

void Lineage::collect(RunReport& report) const {
  LineageSnapshot& snap = report.lineage;
  snap.enabled = true;
  snap.dim = dim_;
  snap.assigned = recs_.size();
  snap.dummies = dummies_;
  snap.dropped_events = dropped_events_;
  snap.resolve_mismatches = resolve_mismatches_;
  snap.untracked = untracked_;
  snap.keys = recs_;
}

void audit_lineage(LineageSnapshot& snap, std::span<const Key> output) {
  if (!snap.enabled) return;
  LineageAudit audit;
  audit.checked = true;

  // Live real ids per value, ascending; a cursor pops the smallest first.
  std::map<Key, std::vector<std::uint64_t>> live;
  for (std::uint64_t id = 0; id < snap.keys.size(); ++id) {
    const LineageKeyRecord& k = snap.keys[id];
    if (!k.dummy && !k.retired) live[k.value].push_back(id);
  }
  std::map<Key, std::size_t> cursor;
  std::map<Key, std::uint64_t> extra;
  for (const Key v : output) {
    const auto it = live.find(v);
    std::size_t& c = cursor[v];
    if (it == live.end() || c >= it->second.size()) {
      ++extra[v];
      continue;
    }
    ++c;
  }
  for (const auto& [v, n] : extra) audit.duplicated.push_back({v, n});
  for (const auto& [v, ids] : live) {
    const auto cit = cursor.find(v);
    const std::size_t used = cit == cursor.end() ? 0 : cit->second;
    for (std::size_t k = used; k < ids.size(); ++k) {
      const LineageKeyRecord& rec = snap.keys[ids[k]];
      audit.lost.push_back(
          {ids[k], v, rec.holder,
           rec.chain.empty() ? Phase::Unattributed
                             : rec.chain.back().phase});
    }
  }
  std::sort(audit.lost.begin(), audit.lost.end(),
            [](const LineageAudit::LostKey& a,
               const LineageAudit::LostKey& b) { return a.id < b.id; });
  for (const LineageKeyRecord& k : snap.keys)
    if (k.salvaged) {
      ++audit.salvaged;
      if (k.witness != kLineageNoWitness ||
          std::any_of(k.chain.begin(), k.chain.end(),
                      [](const LineageEvent& ev) {
                        return ev.kind == LineageEventKind::Salvage &&
                               ev.peer != kLineageNoWitness;
                      }))
        ++audit.witnessed_salvaged;
    }
  audit.ok = audit.lost.empty() && audit.duplicated.empty();
  snap.audit = std::move(audit);
}

}  // namespace ftsort::sim
