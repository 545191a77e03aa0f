#include "core/recovery.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/ft_sorter.hpp"
#include "sim/machine.hpp"
#include "sort/distribution.hpp"
#include "sort/sequential.hpp"
#include "util/contracts.hpp"

namespace ftsort::core {
namespace {

using cube::NodeId;
using sort::Key;

// Wire words. Check-in statuses:
constexpr Key kStatusFinished = 0;
constexpr Key kStatusAborted = 1;
constexpr Key kStatusIdle = 2;
// Verdicts:
constexpr Key kVerdictCommit = 0;
constexpr Key kVerdictRestart = 1;
constexpr Key kVerdictDegrade = 2;
// Re-scatter flags:
constexpr Key kRescatterIdle = 0;
constexpr Key kRescatterLive = 1;
constexpr Key kRescatterDegrade = 2;

// Control tags of an attempt sit right after its exchange-step tags.
constexpr std::uint32_t kTagCheckin = 0;
constexpr std::uint32_t kTagVerdict = 1;
constexpr std::uint32_t kTagWitness = 2;
constexpr std::uint32_t kTagRescatter = 3;
constexpr std::uint32_t kControlTags = 4;

sort::SplitHalf opposite(sort::SplitHalf h) {
  return h == sort::SplitHalf::Lower ? sort::SplitHalf::Upper
                                     : sort::SplitHalf::Lower;
}

/// Order-insensitive integrity check of the key pool (wrapping sum).
std::uint64_t checksum(std::span<const Key> keys) {
  std::uint64_t sum = 0;
  for (Key k : keys) sum += static_cast<std::uint64_t>(k);
  return sum;
}

/// Everything one attempt needs to know about its plan. Attempt 0 is built
/// host-side; later attempts by the coordinator, which appends to the
/// shared vector *before* sending the re-scatter messages whose receipt is
/// the only thing that lets another node index the new entry — message
/// delivery orders the reads after the write on both executors.
struct AttemptState {
  partition::Plan plan;
  PlanLayout layout;
  /// Per machine node, its Steps 3-8 exchange list with the FullSort
  /// Step 8 (empty for idle nodes); every live list has one length.
  std::vector<std::vector<sort::ExchangeStep>> schedule;
  std::uint32_t steps = 0;     ///< that length: the attempt's step tags
  std::uint32_t tag_base = 0;  ///< first wire tag of this attempt
};

AttemptState make_attempt(partition::Plan plan, std::uint32_t tag_base) {
  AttemptState a{std::move(plan), {}, {}, 0, tag_base};
  a.layout = plan_layout(a.plan);
  a.schedule.resize(cube::num_nodes(a.plan.n()));
  for (const NodeId u : a.layout.slots)
    a.schedule[u] =
        node_schedule(a.plan, a.layout, u, Step8Mode::FullSort);
  a.steps = static_cast<std::uint32_t>(
      a.schedule[a.layout.slots.front()].size());
  return a;
}

struct Shared {
  /// Stage boundaries of one RESTART round, written by the coordinator
  /// coroutine as the protocol passes them (single writer; the host reads
  /// only after the run's threads joined). Clocks are the coordinator's
  /// logical times, so the derived RecoveryLatency is byte-identical
  /// across executors.
  struct EpisodeMark {
    std::uint32_t attempt = 0;
    std::vector<NodeId> dead;          ///< this roll call's casualties
    sim::SimTime own_abort = -1.0;     ///< coordinator's own sort timeout
    sim::SimTime first_timeout = -1.0; ///< first roll-call timeout clock
    sim::SimTime last_timeout = -1.0;  ///< last roll-call timeout clock
    sim::SimTime rollcall_end = 0.0;   ///< clock after the roll-call loop
    sim::SimTime salvage_end = 0.0;    ///< clock after the salvage check
  };

  std::vector<AttemptState> attempts;  ///< capacity reserved: never moves
  std::vector<EpisodeMark> episode_marks;  ///< one per RESTART round
  std::vector<std::vector<Key>>* block_of = nullptr;
  /// Coordinator's copy of the current attempt's scatter — the step -1
  /// witness for a node that dies before completing any exchange.
  std::vector<std::vector<Key>> scatter_record;
  std::uint64_t expect_count = 0;
  std::uint64_t expect_sum = 0;
  NodeId coordinator = 0;
  int final_attempt = -1;  ///< set by the coordinator before COMMIT
  std::atomic<bool> degraded{false};
  std::mutex reason_mutex;
  std::string reason;

  void record(const std::string& why) {
    {
      std::scoped_lock lock(reason_mutex);
      if (reason.empty()) reason = why;
    }
    degraded.store(true);
  }
  std::string first_reason() {
    std::scoped_lock lock(reason_mutex);
    return reason;
  }
  [[noreturn]] void degrade(const std::string& why) {
    record(why);
    throw DegradationError("graceful degradation: " + why);
  }
};

sim::Task node_program(sim::NodeCtx& ctx, Shared& sh, const SortConfig& cfg) {
  const NodeId me = ctx.id();
  const RecoveryConfig& rc = cfg.recovery;
  const bool coord = me == sh.coordinator;
  std::vector<Key>& block = (*sh.block_of)[me];
  // Merge scratch reused across every exchange step (and attempt): the
  // double-buffer swap below keeps the hot loop allocation-free.
  std::vector<Key> mine_scratch;
  std::vector<Key> theirs_scratch;

  for (int e = 0;; ++e) {
    const AttemptState& at = sh.attempts[static_cast<std::size_t>(e)];
    const partition::Plan::Role role = at.plan.role_of(me);
    const std::uint32_t cbase = at.tag_base + at.steps;

    // ---- Sort phase ----------------------------------------------------
    Key status = kStatusIdle;
    sim::SimTime own_abort = -1.0;  // coordinator's own timeout evidence
    // Freshest witness per partner: (step, the partner's post-step block,
    // recomputed locally from the swapped data).
    std::map<NodeId, std::pair<std::uint32_t, std::vector<Key>>> witness;
    if (role.live) {
      status = kStatusFinished;
      sort::local_sort(ctx, cfg.local_sort, block);
      const sim::PhaseSpan span = ctx.span(sim::Phase::RecoverySort);
      // One tag per list position; the offline tag field is not used.
      const std::vector<sort::ExchangeStep>& steps = at.schedule[me];
      for (std::uint32_t k = 0; k < steps.size(); ++k) {
        const sort::ExchangeStep& st = steps[k];
        if (st.skip) continue;
        const sim::Tag tag = at.tag_base + k;
        ctx.send(st.partner, tag, block);  // a copy: aborts need no rollback
        auto reply =
            co_await ctx.recv_or_timeout(st.partner, tag, rc.detect_patience);
        if (!reply) {
          status = kStatusAborted;  // keep the pre-step block
          if (coord) own_abort = ctx.now();
          break;
        }
        std::uint64_t c1 = 0, c2 = 0;
        sort::merge_split_into(block, reply->payload.span(), st.keep,
                               mine_scratch, c1);
        sort::merge_split_into(reply->payload.span(), block,
                               opposite(st.keep), theirs_scratch, c2);
        ctx.charge_compares(c1 + c2);  // witness upkeep is charged work
        auto& w = witness[st.partner];
        w.first = k;
        std::swap(w.second, theirs_scratch);  // recycle the old witness
        std::swap(block, mine_scratch);
        if (ctx.lineage_enabled()) {
          // Commit custody at the merge; the witness_step marks this as a
          // witness-capture step, so both sides of the pair get stamped
          // with their partner as freshest witness at resolution time.
          ctx.note_lineage_retain(st.partner, tag, block,
                                  static_cast<std::int32_t>(k));
        }
      }
    }

    // ---- Check-in and verdict (non-coordinator) ------------------------
    if (!coord) {
      {
        const sim::PhaseSpan span = ctx.span(sim::Phase::RecoveryCheckin);
        ctx.send(sh.coordinator, cbase + kTagCheckin, {status});
      }
      std::optional<sim::Message> verdict;
      {
        const sim::PhaseSpan span = ctx.span(sim::Phase::RecoveryVerdict);
        verdict = co_await ctx.recv_or_timeout(
            sh.coordinator, cbase + kTagVerdict, rc.verdict_patience);
        if (!verdict) sh.degrade("coordinator failed during recovery");
      }
      FTSORT_REQUIRE(!verdict->payload.empty());
      const Key word = verdict->payload[0];
      if (word == kVerdictCommit) co_return;
      if (word == kVerdictDegrade)
        throw DegradationError("graceful degradation: " + sh.first_reason());

      // RESTART: payload[1..] is the casualty list. Send my (rolled-back)
      // block and my witnesses for the dead, then wait for the new block.
      FTSORT_REQUIRE(word == kVerdictRestart);
      {
        const sim::PhaseSpan span = ctx.span(sim::Phase::RecoverySalvage);
        std::vector<Key> wire;
        wire.push_back(static_cast<Key>(block.size()));
        wire.insert(wire.end(), block.begin(), block.end());
        Key nwit = 0;
        std::vector<Key> wits;
        for (std::size_t k = 1; k < verdict->payload.size(); ++k) {
          const NodeId d = static_cast<NodeId>(verdict->payload[k]);
          auto it = witness.find(d);
          if (it == witness.end()) continue;
          ++nwit;
          wits.push_back(static_cast<Key>(d));
          wits.push_back(static_cast<Key>(it->second.first));
          wits.push_back(static_cast<Key>(it->second.second.size()));
          wits.insert(wits.end(), it->second.second.begin(),
                      it->second.second.end());
        }
        wire.push_back(nwit);
        wire.insert(wire.end(), wits.begin(), wits.end());
        ctx.send(sh.coordinator, cbase + kTagWitness, std::move(wire));
      }

      const sim::PhaseSpan span = ctx.span(sim::Phase::RecoveryRescatter);
      auto rs = co_await ctx.recv_or_timeout(
          sh.coordinator, cbase + kTagRescatter, rc.verdict_patience);
      if (!rs) sh.degrade("coordinator failed during recovery");
      FTSORT_REQUIRE(!rs->payload.empty());
      if (rs->payload[0] == kRescatterDegrade)
        throw DegradationError("graceful degradation: " + sh.first_reason());
      block.assign(rs->payload.begin() + 1, rs->payload.end());
      continue;  // next attempt
    }

    // ---- Coordinator: roll call ----------------------------------------
    std::vector<NodeId> peers;
    for (NodeId u = 0; u < cube::num_nodes(at.plan.n()); ++u)
      if (u != me && !at.plan.faults().is_faulty(u)) peers.push_back(u);

    std::vector<NodeId> dead;
    bool any_abort = status == kStatusAborted;
    sim::SimTime first_timeout = -1.0;
    sim::SimTime last_timeout = -1.0;
    {
      const sim::PhaseSpan span = ctx.span(sim::Phase::RecoveryCheckin);
      for (NodeId u : peers) {
        auto r = co_await ctx.recv_or_timeout(u, cbase + kTagCheckin,
                                              rc.collect_patience);
        if (!r) {
          dead.push_back(u);  // missed roll call: the ground truth of death
          // The timeout left the clock exactly at its deadline; the last
          // one is the run's detect watermark (see sim/timeline.hpp).
          if (first_timeout < 0.0) first_timeout = ctx.now();
          last_timeout = ctx.now();
        } else if (!r->payload.empty() && r->payload[0] == kStatusAborted) {
          any_abort = true;
        }
      }
    }
    const sim::SimTime rollcall_end = ctx.now();

    if (dead.empty() && !any_abort) {
      sh.final_attempt = e;
      const sim::PhaseSpan span = ctx.span(sim::Phase::RecoveryVerdict);
      for (NodeId u : peers)
        ctx.send(u, cbase + kTagVerdict, {kVerdictCommit});
      co_return;
    }

    std::vector<NodeId> survivors;  // peers minus dead, ascending
    std::set_difference(peers.begin(), peers.end(), dead.begin(),
                        dead.end(), std::back_inserter(survivors));

    // Degrade before the verdict: survivors still wait on kTagVerdict.
    auto fail_verdict = [&](const std::string& why) {
      sh.record(why);
      const sim::PhaseSpan span = ctx.span(sim::Phase::RecoveryVerdict);
      for (NodeId u : survivors)
        ctx.send(u, cbase + kTagVerdict, {kVerdictDegrade});
      throw DegradationError("graceful degradation: " + why);
    };
    // Degrade after RESTART went out: survivors wait on kTagRescatter.
    auto fail_salvage = [&](const std::string& why) {
      sh.record(why);
      const sim::PhaseSpan span = ctx.span(sim::Phase::RecoveryRescatter);
      for (NodeId u : survivors)
        ctx.send(u, cbase + kTagRescatter, {kRescatterDegrade});
      throw DegradationError("graceful degradation: " + why);
    };

    if (dead.empty())
      fail_verdict(
          "live processors time out on each other with no deaths — cut "
          "links admit no recovery");
    if (e + 1 >= rc.max_attempts)
      fail_verdict("recovery attempt limit reached");

    const fault::FaultSet grown = at.plan.faults().grown(dead);
    std::optional<partition::Plan> next;
    if (!grown.isolates_healthy_node()) {
      try {
        next = partition::Plan::build(grown);
      } catch (const std::exception&) {
        // no single-fault structure: degrade below
      }
    }
    if (!next || next->live_count() == 0)
      fail_verdict("grown fault set " + grown.to_string() +
                   " admits no single-fault partition");

    std::vector<Key> restart{kVerdictRestart};
    for (NodeId d : dead) restart.push_back(static_cast<Key>(d));
    {
      const sim::PhaseSpan span = ctx.span(sim::Phase::RecoveryVerdict);
      for (NodeId u : survivors)
        ctx.send(u, cbase + kTagVerdict, restart);
    }

    // ---- Salvage -------------------------------------------------------
    const std::uint32_t nn = cube::num_nodes(at.plan.n());
    std::vector<Key> pool;  // every salvaged key, exactly once
    // Per dead node, the witness whose block won the salvage — the lineage
    // layer stamps it into the salvaged keys' custody chains.
    std::vector<sim::Lineage::SalvageInfo> salvage_info;
    {
      const sim::PhaseSpan span = ctx.span(sim::Phase::RecoverySalvage);
      std::vector<std::vector<Key>> contributed(nn);
      // Per dead node: freshest (step, block) plus the node that offered
      // it — the lineage layer names that witness in the salvaged keys'
      // custody chains. The scatter record is the step -1 fallback for
      // nodes that never completed an exchange.
      struct BestWitness {
        long step = -1;
        std::vector<Key> blk;
        NodeId from = 0;
      };
      std::map<NodeId, BestWitness> best;
      auto offer = [&](NodeId d, long step, std::vector<Key> w,
                       NodeId from) {
        auto it = best.find(d);
        if (it == best.end() || step > it->second.step)
          best[d] = {step, std::move(w), from};
      };
      contributed[me] = block;
      for (const auto& [d, w] : witness)
        if (std::binary_search(dead.begin(), dead.end(), d))
          offer(d, static_cast<long>(w.first), w.second, me);
      for (NodeId u : survivors) {
        auto r = co_await ctx.recv_or_timeout(u, cbase + kTagWitness,
                                              rc.collect_patience);
        if (!r)
          fail_salvage("processor " + std::to_string(u) +
                       " failed during recovery negotiation");
        const std::vector<Key>& p = r->payload.vec();
        std::size_t k = 0;
        const auto need = [&](std::size_t c) {
          FTSORT_REQUIRE(k + c <= p.size());
        };
        need(1);
        const auto nb = static_cast<std::size_t>(p[k++]);
        need(nb);
        contributed[u].assign(p.begin() + static_cast<std::ptrdiff_t>(k),
                              p.begin() + static_cast<std::ptrdiff_t>(k + nb));
        k += nb;
        need(1);
        const auto nw = static_cast<std::size_t>(p[k++]);
        for (std::size_t t = 0; t < nw; ++t) {
          need(3);
          const NodeId d = static_cast<NodeId>(p[k++]);
          const long stp = static_cast<long>(p[k++]);
          const auto len = static_cast<std::size_t>(p[k++]);
          need(len);
          offer(d, stp,
                std::vector<Key>(p.begin() + static_cast<std::ptrdiff_t>(k),
                                 p.begin() +
                                     static_cast<std::ptrdiff_t>(k + len)),
                u);
          k += len;
        }
      }
      for (NodeId d : dead)
        if (!best.count(d) && d < sh.scatter_record.size())
          offer(d, -1, sh.scatter_record[d], me);

      // Pool every key exactly once, in deterministic order, and verify
      // nothing was lost: concurrent deaths can leave witnesses stale (two
      // casualties that exchanged with each other before dying), which this
      // count + checksum test catches.
      for (NodeId u = 0; u < nn; ++u)
        for (Key key : contributed[u])
          if (key != sim::kDummyKey) pool.push_back(key);
      for (const auto& [d, w] : best)
        for (Key key : w.blk)
          if (key != sim::kDummyKey) pool.push_back(key);
      if (pool.size() != sh.expect_count ||
          checksum(pool) != sh.expect_sum)
        fail_salvage("key salvage failed — concurrent deaths destroyed data");
      for (const auto& [d, w] : best)
        salvage_info.push_back({d, w.from, static_cast<std::int32_t>(w.step)});
    }

    sh.episode_marks.push_back({static_cast<std::uint32_t>(e), dead,
                                own_abort, first_timeout, last_timeout,
                                rollcall_end, ctx.now()});

    // ---- Re-plan and re-scatter ---------------------------------------
    const sim::PhaseSpan rescatter_span =
        ctx.span(sim::Phase::RecoveryRescatter);
    sh.attempts.push_back(
        make_attempt(std::move(*next), cbase + kControlTags));
    const AttemptState& na = sh.attempts.back();
    std::vector<std::vector<Key>> nb =
        sort::scatter(pool, na.layout.slots, nn).block_of;
    sh.scatter_record = nb;
    // Re-key the lineage holdings against the new scatter. Ordered after
    // every witness receive and before any re-scatter send, so survivors
    // observe post-rescatter custody only once their new block arrives.
    if (ctx.lineage_enabled()) ctx.note_lineage_rescatter(nb, salvage_info);
    for (NodeId u : survivors) {
      std::vector<Key> msg;
      msg.push_back(na.plan.role_of(u).live ? kRescatterLive
                                            : kRescatterIdle);
      msg.insert(msg.end(), nb[u].begin(), nb[u].end());
      ctx.send(u, cbase + kTagRescatter, std::move(msg));
    }
    block = std::move(nb[me]);
  }
}

}  // namespace

SortOutcome recovery_sort(const partition::Plan& plan0,
                          const SortConfig& config,
                          std::span<const sort::Key> keys) {
  FTSORT_REQUIRE(!config.charge_host_io);
  const cube::Dim n = plan0.n();
  const std::uint32_t nn = cube::num_nodes(n);

  Shared sh;
  sh.attempts.reserve(
      static_cast<std::size_t>(std::max(config.recovery.max_attempts, 1)) +
      1);
  sh.attempts.push_back(make_attempt(plan0, 0));
  sh.expect_count = keys.size();
  sh.expect_sum = checksum(keys);
  for (NodeId u = 0; u < nn; ++u)
    if (!plan0.faults().is_faulty(u)) {
      sh.coordinator = u;
      break;
    }

  // Step 2: scatter exactly as the offline sorter does.
  const std::vector<NodeId>& slots0 = sh.attempts[0].layout.slots;
  sort::Placement placed = sort::scatter(keys, slots0, nn);
  std::vector<std::vector<Key>>& block_of = placed.block_of;
  sh.block_of = &block_of;
  sh.scatter_record = block_of;

  sim::Machine machine(n, plan0.faults(), config.model, config.cost, {});
  prepare_machine(machine, config, block_of, slots0);
  const auto program = [&sh, &config](sim::NodeCtx& ctx) {
    return node_program(ctx, sh, config);
  };

  // When the run degrades, annotate the error with the failure explainer:
  // the flight recorder outlives collect_report's node teardown, so the
  // root fault and the stalled set are still reconstructable here.
  const auto degradation_error = [&machine, &config](std::string why) {
    std::string msg = "graceful degradation: " + std::move(why);
    const sim::Diagnosis diag =
        machine.diagnose(sim::Diagnosis::Kind::Degradation);
    if (config.record_trace && diag.triggered()) msg += "\n" + diag.to_string();
    return DegradationError(msg, diag);
  };

  SortOutcome out;
  out.block_size = placed.block_size;
  try {
    out.report = config.executor == Executor::Threaded
                     ? machine.run_threaded(program)
                     : machine.run(program);
  } catch (const std::runtime_error&) {
    if (sh.degraded.load()) throw degradation_error(sh.first_reason());
    throw;
  }
  if (config.record_trace) out.trace_events = machine.trace().snapshot();
  if (sh.degraded.load()) throw degradation_error(sh.first_reason());
  if (sh.final_attempt < 0)
    throw degradation_error(
        "the recovery coordinator died before any attempt committed");

  // Recovery-latency decomposition (sim/timeline.hpp): turn the
  // coordinator's stage marks into per-episode boundaries. An episode's
  // restart stage runs until the next episode's fault injection, or to the
  // makespan for the last one — so the stages telescope exactly to
  // `makespan - episodes.front().inject`.
  if (!sh.episode_marks.empty()) {
    sim::RecoveryLatency& rl = out.report.recovery_latency;
    rl.enabled = true;
    for (const Shared::EpisodeMark& mk : sh.episode_marks) {
      sim::RecoveryEpisode ep;
      ep.attempt = mk.attempt;
      ep.dead = mk.dead;
      ep.detect_first =
          mk.own_abort >= 0.0 ? mk.own_abort : mk.first_timeout;
      ep.detect_confirm = mk.last_timeout;
      ep.rollcall_end = mk.rollcall_end;
      ep.salvage_end = mk.salvage_end;
      // Earliest injector kill among this round's casualties. A roll call
      // can (in principle) declare a node dead without an injector entry —
      // fall back to the detection clock, making that stage zero-width.
      sim::SimTime inject = sim::kNever;
      for (NodeId d : mk.dead)
        inject = std::min(inject, config.injector.node_kill_time(d));
      ep.inject = inject < sim::kNever ? inject : ep.detect_first;
      rl.episodes.push_back(std::move(ep));
    }
    for (std::size_t k = 0; k + 1 < rl.episodes.size(); ++k)
      rl.episodes[k].restart_end = rl.episodes[k + 1].inject;
    rl.episodes.back().restart_end = out.report.makespan;
  }

  // Gather under the plan that committed.
  out.sorted = sort::gather(
      block_of,
      sh.attempts[static_cast<std::size_t>(sh.final_attempt)].layout.slots);
  if (config.record_lineage)
    sim::audit_lineage(out.report.lineage, out.sorted);
  return out;
}

}  // namespace ftsort::core
