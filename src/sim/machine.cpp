#include "sim/machine.hpp"

#include <algorithm>
#include <chrono>
#include <initializer_list>
#include <sstream>
#include <thread>
#include <tuple>

namespace ftsort::sim {

SimTime detect_time(const RunReport& report) {
  SimTime detect = 0.0;
  for (const Diagnosis::Wait& w : report.diagnosis.waits)
    if (w.expired && w.time > detect) detect = w.time;
  return std::min(detect, report.makespan);
}

cube::Dim NodeCtx::dim() const { return machine_->dim(); }

const fault::FaultSet& NodeCtx::faults() const { return machine_->faults(); }

bool NodeCtx::is_faulty(cube::NodeId u) const {
  return machine_->faults().is_faulty(u);
}

std::unique_lock<std::mutex> NodeCtx::lock() {
  return machine_->lock(worker_);
}

void NodeCtx::check_alive(bool checked_out) {
  if (clock_ < kill_time_) return;
  killed_ = true;
  if (machine_->instrumented())
    machine_->notify(&Instrument::on_kill,
                     KillEvent{id_, phase_, clock_, checked_out});
  throw KilledSignal{};
}

void NodeCtx::charge_compares(std::uint64_t k) {
  if (k == 0) return;
  const SimTime dt = machine_->cost().compare_time(k);
  clock_ += dt;
  const auto lk = lock();
  machine_->comparisons_ += k;
  if (machine_->instrumented())
    machine_->notify(&Instrument::on_charge,
                     ChargeEvent{id_, phase_, clock_, k, dt});
  check_alive();
}

void NodeCtx::charge_time(SimTime t) {
  FTSORT_REQUIRE(t >= 0.0);
  clock_ += t;
  const auto lk = lock();
  if (machine_->instrumented())
    machine_->notify(&Instrument::on_charge,
                     ChargeEvent{id_, phase_, clock_, 0, t});
  check_alive();
}

bool NodeCtx::lineage_enabled() const {
  return machine_->lineage().enabled();
}

void NodeCtx::note_lineage_retain(cube::NodeId partner, Tag tag,
                                  std::span<const Key> kept,
                                  std::int32_t witness_step) {
  const auto lk = lock();
  machine_->lineage().note_retain(id_, partner, tag, kept, phase_,
                                  witness_step);
}

void NodeCtx::note_lineage_rescatter(
    const std::vector<std::vector<Key>>& blocks,
    std::span<const Lineage::SalvageInfo> salvage) {
  const auto lk = lock();
  machine_->lineage().note_rescatter(blocks, salvage, phase_);
}

PhaseSpan NodeCtx::span(Phase p) { return PhaseSpan(*this, p); }

PhaseSpan::PhaseSpan(NodeCtx& ctx, Phase p) : ctx_(ctx), prev_(ctx.phase_) {
  Machine& m = *ctx_.machine_;
  // Reported before the phase switches so the walk's gap attribution stays
  // with the enclosing phase; the event itself carries the new phase.
  if (m.instrumented()) {
    const auto lock = ctx_.lock();
    m.notify(&Instrument::on_span, SpanEvent{ctx_.id_, p, ctx_.clock_, true});
  }
  ctx_.phase_ = p;
}

PhaseSpan::~PhaseSpan() {
  Machine& m = *ctx_.machine_;
  if (m.instrumented()) {
    const auto lock = ctx_.lock();
    m.notify(&Instrument::on_span,
             SpanEvent{ctx_.id_, ctx_.phase_, ctx_.clock_, false});
  }
  ctx_.phase_ = prev_;
}

void NodeCtx::send(cube::NodeId dst, Tag tag, std::span<const Key> payload) {
  // The copy runs outside the machine lock: only this node uses its pool.
  BufferPool& pool = machine_->pools_[id_];
  std::vector<Key> storage = pool.checkout(payload.size());
  storage.assign(payload.begin(), payload.end());
  send_buffer(dst, tag, PooledBuffer(&pool, std::move(storage)),
              /*checked_out=*/true);
}

void NodeCtx::send(cube::NodeId dst, Tag tag, std::vector<Key>&& payload) {
  // Adopt the storage: once delivered, it joins the receiver's pool when
  // the receiver is done with it.
  send_buffer(dst, tag,
              PooledBuffer(&machine_->pools_[id_], std::move(payload)),
              /*checked_out=*/false);
}

void NodeCtx::send(cube::NodeId dst, Tag tag, PooledBuffer&& payload) {
  send_buffer(dst, tag, std::move(payload), /*checked_out=*/false);
}

void NodeCtx::send_buffer(cube::NodeId dst, Tag tag, PooledBuffer&& payload,
                          bool checked_out) {
  FTSORT_REQUIRE(dst != id_);
  FTSORT_REQUIRE(cube::valid_node(dst, machine_->dim()));
  FTSORT_REQUIRE(!machine_->faults().is_faulty(dst));
  const auto lk = lock();
  check_alive(checked_out);

  // The walk the message takes, when an instrument charges it link by link
  // (LinkStats, Lineage). The router's hop count summarises the same walk,
  // so the two stay consistent by construction.
  std::vector<cube::NodeId> path;
  int hops;
  if (machine_->routes_) {
    path = machine_->router().path(id_, dst);
    hops = static_cast<int>(path.size()) - 1;
  } else {
    hops = machine_->router().hops(id_, dst);
  }
  Message msg;
  msg.src = id_;
  msg.dst = dst;
  msg.tag = tag;
  msg.sent_at = clock_;
  msg.hops = hops;
  msg.arrival = clock_ + machine_->cost().transfer_time(payload.size(), hops);
  msg.payload = std::move(payload);
  msg.phase = phase_;
  const SimTime injection =
      machine_->cost().injection_time(msg.payload.size());
  clock_ += injection;
  // Reported while the payload is still at hand, before post() hands it to
  // the destination. A message post() drops is charged here all the same,
  // which keeps the conservation invariants of sim/link_stats.hpp and
  // sim/lineage.hpp.
  if (machine_->instrumented())
    machine_->notify(&Instrument::on_send,
                     SendEvent{msg, clock_, injection, path, checked_out});
  machine_->post(std::move(msg));
}

bool NodeCtx::find(cube::NodeId src, Tag tag) {
  for (found_ = 0; found_ < inbox_.size(); ++found_)
    if (inbox_[found_].src == src && inbox_[found_].tag == tag) return true;
  found_ = kNoMessage;
  return false;
}

bool NodeCtx::ready(cube::NodeId src, Tag tag) {
  const auto lk = lock();
  return find(src, tag);
}

bool NodeCtx::wait(cube::NodeId src, Tag tag, std::coroutine_handle<> h,
                   std::optional<SimTime> deadline) {
  // A node program is one sequential coroutine chain, so at most one
  // outstanding recv can exist per node. Statically faulty processors can
  // never send (only injector victims can die after sending).
  FTSORT_REQUIRE(!is_faulty(src));
  const auto lk = lock();
  if (find(src, tag)) return false;
  FTSORT_INVARIANT(!waiting_);
  waiting_ = true;
  want_src_ = src;
  want_tag_ = tag;
  waiter_ = h;
  deadline_ = deadline;
  return true;
}

std::optional<Message> NodeCtx::take(cube::NodeId src, Tag tag) {
  const auto lk = lock();
  const SimTime before = clock_;
  if (found_ == kNoMessage) {
    // Only a recv_or_timeout wait has a deadline to time out at.
    FTSORT_INVARIANT(deadline_.has_value());
    clock_ = std::max(clock_, *deadline_);
    ++machine_->timeouts_;
    if (machine_->instrumented())
      machine_->notify(&Instrument::on_timeout,
                       TimeoutEvent{id_, src, tag, phase_, clock_,
                                    clock_ - before});
    check_alive();
    return std::nullopt;
  }
  FTSORT_INVARIANT(found_ < inbox_.size() && inbox_[found_].src == src &&
                   inbox_[found_].tag == tag);
  Message msg = std::move(inbox_[found_]);
  inbox_.erase(inbox_.begin() + static_cast<std::ptrdiff_t>(found_));
  clock_ = std::max(clock_, msg.arrival);
  if (machine_->instrumented())
    machine_->notify(&Instrument::on_recv,
                     RecvEvent{id_, phase_, clock_, clock_ - before, msg});
  check_alive();
  return msg;
}

bool NodeCtx::RecvAwaiter::await_ready() const noexcept {
  return ctx.ready(src, tag);
}

bool NodeCtx::RecvAwaiter::await_suspend(std::coroutine_handle<> h) {
  return ctx.wait(src, tag, h, std::nullopt);
}

Message NodeCtx::RecvAwaiter::await_resume() { return *ctx.take(src, tag); }

bool NodeCtx::RecvTimeoutAwaiter::await_ready() const noexcept {
  return ctx.ready(src, tag);
}

bool NodeCtx::RecvTimeoutAwaiter::await_suspend(std::coroutine_handle<> h) {
  FTSORT_REQUIRE(patience >= 0.0);
  return ctx.wait(src, tag, h, ctx.clock_ + patience);
}

std::optional<Message> NodeCtx::RecvTimeoutAwaiter::await_resume() {
  return ctx.take(src, tag);
}

Machine::Machine(cube::Dim n, fault::FaultSet faults,
                 fault::FaultModel model, CostModel cost,
                 cube::LinkSet dead_links)
    : n_(n), faults_(std::move(faults)), cost_(cost),
      router_(n, faults_.bitmap(), model == fault::FaultModel::Total,
              std::move(dead_links)),
      trace_(cube::num_nodes(n)) {
  FTSORT_REQUIRE(cube::valid_dim(n_));
  FTSORT_REQUIRE(faults_.dim() == n_);
  pools_ = std::vector<BufferPool>(size());
  nodes_.resize(size());
}

std::unique_lock<std::mutex> Machine::lock(std::size_t worker) {
  if (workers_ == 1) return {};
  std::unique_lock<std::mutex> lk(mu_, std::try_to_lock);
  if (lk.owns_lock()) return lk;
  if (!profile_host_) {
    lk.lock();
    return lk;
  }
  const auto t0 = std::chrono::steady_clock::now();
  lk.lock();
  const auto waited = std::chrono::steady_clock::now() - t0;
  SchedShardProfile& prof = prof_workers_[worker];
  ++prof.mutex_waits;
  prof.mutex_wait_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(waited).count());
  return lk;
}

Diagnosis Machine::diagnose(Diagnosis::Kind kind) const {
  DiagnosisInput in;
  for (const auto& node : nodes_) {
    if (!node) continue;
    if (node->killed_) {
      in.kills.push_back({node->id_, node->clock_, node->phase_});
    } else if (!node->task_.done() && node->waiting_) {
      in.waits.push_back({node->id_, node->want_src_, node->want_tag_,
                          node->clock_, node->phase_, /*expired=*/false});
    }
  }
  for (const auto& cut : injector_.cuts())
    if (cut.when < kNever) in.cuts.push_back({cut.a, cut.b, cut.when});
  if (trace_.enabled()) {
    // Expired recv_or_timeout waits (and deaths of nodes already reset)
    // survive only in the flight recorder; merge this run's slice in.
    DiagnosisInput recorded = diagnosis_input_from_events(trace_.run_events());
    in.waits.insert(in.waits.end(), recorded.waits.begin(),
                    recorded.waits.end());
    in.kills.insert(in.kills.end(), recorded.kills.begin(),
                    recorded.kills.end());
    // This run's eviction count: a nonzero value tells diagnose() the
    // recorded slice above may be missing the true root event.
    in.trace_dropped = trace_.run_dropped();
  }
  return sim::diagnose(std::move(in), kind);
}

PoolStats Machine::pool_total() const {
  PoolStats total;
  for (const BufferPool& pool : pools_) total += pool.stats();
  return total;
}

void Machine::post(Message msg) {
  ++messages_;
  keys_sent_ += msg.payload.size();
  key_hops_ += msg.payload.size() * static_cast<std::uint64_t>(msg.hops);

  NodeCtx* dst = nodes_[msg.dst].get();
  FTSORT_INVARIANT(dst != nullptr);
  // Dynamic-fault drop rules: dead on arrival, or the direct link between
  // adjacent endpoints was cut before the send. Both are purely logical,
  // so each executor drops exactly the same messages.
  const bool dropped =
      msg.arrival >= dst->kill_time_ ||
      (cube::hamming(msg.src, msg.dst) == 1 &&
       msg.sent_at >= injector_.link_cut_time(msg.src, msg.dst));
  if (instrumented()) notify(&Instrument::on_post, PostEvent{msg, dropped});
  if (dropped) {
    // The payload returns to the sender's pool, on the sender's thread:
    // the destination may still be running on another worker.
    ++messages_dropped_;
    return;
  }

  // Delivered: the payload now belongs to the receiver, which recycles it
  // when it drops the message.
  msg.payload.rebind(pools_[msg.dst]);
  const bool awaited = dst->waiting_ && dst->want_src_ == msg.src &&
                       dst->want_tag_ == msg.tag;
  dst->inbox_.push_back(std::move(msg));
  if (!awaited) return;
  // The receiver found its channel empty when it blocked, so this is the
  // channel's first message.
  dst->found_ = dst->inbox_.size() - 1;
  wake(*dst);
}

void Machine::wake(NodeCtx& node) {
  node.waiting_ = false;
  if (node.running_) {
    // Still inside the resume() that suspended it: that worker re-queues
    // it once resume() returns.
    node.wake_pending_ = true;
    return;
  }
  ready_.push_back(node.id_);
  if (workers_ > 1) idle_cv_.notify_one();
}

std::string Machine::deadlock_message() const {
  std::ostringstream os;
  os << "simulation deadlock: every live node is blocked;";
  for (const auto& node : nodes_) {
    if (!node || node->task_.done() || node->killed_) continue;
    os << " node " << node->id_;
    if (node->waiting_) {
      os << " waits for src=" << node->want_src_ << " tag=" << node->want_tag_
         << " [" << phase_name(node->phase_) << "];";
    } else {
      os << " is not runnable;";
    }
  }
  // Both executors call this at quiescence with stable node states, so the
  // diagnosis (derived from logical evidence only) matches byte-for-byte.
  const Diagnosis diag = diagnose(Diagnosis::Kind::Deadlock);
  if (diag.triggered()) os << ' ' << diag.to_string();
  return os.str();
}

NodeCtx* Machine::fire_quiescence_event() {
  // Candidate logical events for blocked nodes: recv-timeout expiry at its
  // deadline, and the death of a node whose kill time can now never be
  // outrun. The earliest (time, kind, node) triple fires; kills order
  // after timeouts on exact ties so a node with deadline == kill time
  // still observes its timeout. At quiescence no node is runnable or
  // running, so the states read here are stable.
  NodeCtx* best = nullptr;
  SimTime best_time = 0.0;
  int best_kind = 0;  // 0 = timeout, 1 = kill
  const auto consider = [&](NodeCtx& node, SimTime t, int kind) {
    if (best != nullptr && std::tie(best_time, best_kind, best->id_) <=
                               std::tie(t, kind, node.id_))
      return;
    best = &node;
    best_time = t;
    best_kind = kind;
  };
  for (const auto& node : nodes_) {
    if (!node || !node->waiting_) continue;
    if (node->deadline_) consider(*node, *node->deadline_, 0);
    if (node->kill_time_ < kNever)
      consider(*node, std::max(node->clock_, node->kill_time_), 1);
  }
  if (best == nullptr) return nullptr;

  FTSORT_INVARIANT(best->waiting_);
  if (best_kind == 0) {
    // Resumed with no message found, take() times the wait out.
    FTSORT_INVARIANT(best->found_ == NodeCtx::kNoMessage);
    wake(*best);
    return best;
  }
  // A blocked node dies: its coroutine is abandoned, never resumed.
  best->waiting_ = false;
  best->killed_ = true;
  best->waiter_ = nullptr;
  if (instrumented())
    notify(&Instrument::on_kill,
           KillEvent{best->id_, best->phase_, best->clock_, false});
  return best;
}

void Machine::instantiate_programs(const Program& program) {
  messages_ = keys_sent_ = key_hops_ = comparisons_ = 0;
  messages_dropped_ = timeouts_ = 0;
  num_active_ = 0;
  routes_ = false;
  for (Instrument* instrument : std::initializer_list<Instrument*>{
           &trace_, &metrics_, &link_stats_, &timeline_, &lineage_}) {
    instrument->on_run_start();
    if (!instrument->enabled()) continue;
    active_[num_active_++] = instrument;
    routes_ = routes_ || instrument->wants_path();
  }
  pool_mark_ = pool_total();
  prof_quiescence_checks_ = prof_quiescence_events_ = 0;
  ready_.clear();
  checked_in_ = 0;
  next_start_ = 0;
  busy_ = 0;
  stop_ = false;
  deadlocked_ = false;
  deadlock_msg_.clear();
  worker_error_ = nullptr;
  watchdog_stats_ = WatchdogReport{};  // {"enabled": false} stub by default
  for (cube::NodeId u = 0; u < size(); ++u) {
    if (faults_.is_faulty(u)) {
      nodes_[u] = nullptr;
      continue;
    }
    nodes_[u].reset(new NodeCtx(*this, u, injector_.node_kill_time(u)));
    nodes_[u]->task_ = program(*nodes_[u]);
  }
}

void Machine::stop_workers() {
  stop_ = true;
  if (workers_ > 1) idle_cv_.notify_all();
}

void Machine::beat(const NodeCtx& node) {
  if (wd_slot_.empty()) {
    active_watchdog_->beat(0);
    return;
  }
  // The activity word is the node's ambient phase; only the worker that
  // just resumed the node, or the idle machine, reads it here.
  active_watchdog_->beat(wd_slot_[node.id_],
                         node.task_.done() || node.killed_
                             ? Watchdog::kActivityTerminal
                             : static_cast<std::uint64_t>(node.phase_));
}

void Machine::schedule(std::size_t worker) {
  SchedShardProfile& prof = prof_workers_[worker];
  const auto halted = [this] {
    return stop_ ||
           (active_watchdog_ != nullptr && active_watchdog_->tripped());
  };
  auto lk = lock(worker);
  // Start no node before every worker has checked in: a host that runs a
  // new thread ahead of its creator would otherwise let the first worker
  // run a short program alone before the others exist.
  if (++checked_in_ == workers_) {
    if (workers_ > 1) idle_cv_.notify_all();
  } else {
    ++prof.cv_waits;
    idle_cv_.wait(lk, [&] { return checked_in_ == workers_ || halted(); });
    ++(halted() ? prof.spurious_wakeups : prof.cv_wakeups);
  }
  while (!halted()) {
    // A woken node first, so one worker drains every wakeup before it
    // starts the next node (the sequential order).
    cube::NodeId u = 0;
    if (!ready_.empty()) {
      u = ready_.front();
      ready_.pop_front();
    } else {
      while (next_start_ < size() && !nodes_[next_start_]) ++next_start_;
      if (next_start_ < size()) {
        u = next_start_++;
      } else if (busy_ > 0) {
        // Others are still resuming nodes: sleep until one of them wakes
        // a node or the run stops (a tripped watchdog notifies too).
        ++prof.cv_waits;
        idle_cv_.wait(lk, [&] { return !ready_.empty() || halted(); });
        ++(ready_.empty() ? prof.spurious_wakeups : prof.cv_wakeups);
        continue;
      } else {
        // Quiescence: nothing runnable, nothing running, every node
        // started. Fire the earliest pending logical event, or finish.
        ++prof_quiescence_checks_;
        const bool pending = std::any_of(
            nodes_.begin(), nodes_.end(), [](const auto& node) {
              return node && !node->task_.done() && !node->killed_;
            });
        if (!pending) {
          stop_workers();
          break;
        }
        const NodeCtx* fired = fire_quiescence_event();
        if (fired == nullptr) {
          deadlocked_ = true;
          deadlock_msg_ = deadlock_message();
          stop_workers();
          break;
        }
        ++prof_quiescence_events_;
        if (active_watchdog_ != nullptr) beat(*fired);
        continue;
      }
    }
    NodeCtx& node = *nodes_[u];
    node.running_ = true;
    node.worker_ = worker;
    ++busy_;
    const std::coroutine_handle<> h = std::exchange(node.waiter_, nullptr);
    if (lk.owns_lock()) lk.unlock();
    ++prof.tasks_resumed;
    if (h)
      h.resume();
    else
      node.task_.start();
    lk = lock(worker);
    --busy_;
    node.running_ = false;
    if (std::exchange(node.wake_pending_, false)) wake(node);
    if (active_watchdog_ != nullptr) beat(node);
  }
}

RunReport Machine::collect_report() {
  RunReport report;
  report.cost = cost_;
  report.node_clocks.assign(size(), 0.0);
  for (const auto& node : nodes_) {
    if (!node) continue;
    report.node_clocks[node->id_] = node->clock_;
    if (node->killed_) {
      // Died mid-run: clock frozen at death; excluded from the makespan.
      report.killed_nodes.push_back(node->id_);
      continue;
    }
    try {
      node->task_.take_result();
    } catch (const std::exception& e) {
      running_ = false;
      const std::string what =
          "node " + std::to_string(node->id_) + " failed: " + e.what();
      for (auto& each : nodes_) each.reset();
      throw std::runtime_error(what);
    }
    report.makespan = std::max(report.makespan, node->clock_);
  }
  report.messages = messages_;
  report.keys_sent = keys_sent_;
  report.key_hops = key_hops_;
  report.comparisons = comparisons_;
  report.messages_dropped = messages_dropped_;
  report.timeouts = timeouts_;
  const PoolStats pool = pool_total();
  FTSORT_INVARIANT(pool.checkouts >= pool_mark_.checkouts);
  FTSORT_INVARIANT(pool.returns >= pool_mark_.returns);
  report.pool_delta = {pool.checkouts - pool_mark_.checkouts,
                       pool.fresh - pool_mark_.fresh,
                       pool.grows - pool_mark_.grows,
                       pool.returns - pool_mark_.returns};
  for (std::size_t i = 0; i < num_active_; ++i) active_[i]->collect(report);
  // Critical-path attribution needs the trace; this run's events only (the
  // trace may hold earlier runs' history).
  if (!report.metrics.empty())
    report.phases = build_phase_breakdown(
        report.metrics,
        trace_.enabled() ? trace_.run_events() : std::vector<TraceEvent>{},
        report.makespan, report.node_clocks);
  if (report.timeouts > 0 || !report.killed_nodes.empty()) {
    report.diagnosis = diagnose(report.timeouts > 0
                                    ? Diagnosis::Kind::TimeoutBurst
                                    : Diagnosis::Kind::NodeLoss);
  }
  report.host = snapshot_host_profile();
  report.watchdog = watchdog_stats_;

  // Check no messages were left undelivered (protocol completeness). With
  // dynamic faults, stray deliveries to dead or timed-out programs are
  // expected and exempt.
  if (injector_.empty() && report.timeouts == 0) {
    for (const auto& node : nodes_) {
      if (!node) continue;
      FTSORT_ENSURE(node->inbox_.empty());
    }
  }
  for (auto& node : nodes_) node.reset();
  running_ = false;
  return report;
}

HostProfile Machine::snapshot_host_profile() const {
  HostProfile host;
  if (!profile_host_) return host;
  host.enabled = true;
  host.shards = prof_workers_;
  host.quiescence_checks = prof_quiescence_checks_;
  host.quiescence_events = prof_quiescence_events_;
  return host;
}

std::unique_ptr<Watchdog> Machine::arm_watchdog(bool threaded) {
  wd_slot_.clear();
  if (!watchdog_cfg_.enabled) return nullptr;
  auto wd = std::make_unique<Watchdog>(watchdog_cfg_);
  wd->set_activity_namer([](std::uint64_t act) {
    return std::string(phase_name(static_cast<Phase>(act)));
  });
  if (threaded) {
    wd_slot_.assign(size(), 0);
    for (cube::NodeId u = 0; u < size(); ++u)
      if (nodes_[u]) wd_slot_[u] = wd->add_slot("node " + std::to_string(u));
  } else {
    wd->add_slot("scheduler");
  }
  // Wake idle workers so they see the trip and leave their loops.
  wd->on_trip([this] {
    const std::lock_guard<std::mutex> guard(mu_);
    idle_cv_.notify_all();
  });
  wd->start();
  return wd;
}

void Machine::throw_watchdog_trip() {
  running_ = false;
  const WatchdogReport rep = watchdog_stats_;
  const Diagnosis diag = diagnose(Diagnosis::Kind::Deadlock);
  const HostProfile host = snapshot_host_profile();
  std::vector<TraceEvent> tail;
  if (trace_.enabled()) {
    tail = trace_.run_events();
    constexpr std::size_t kTailEvents = 64;
    if (tail.size() > kTailEvents)
      tail.erase(tail.begin(),
                 tail.end() - static_cast<std::ptrdiff_t>(kTailEvents));
  }
  WatchdogDumpContext ctx;
  ctx.origin = "machine";
  // A host-level stall usually leaves no logical evidence (the wedge is
  // in wall-clock, not in blocked receives); only attach the diagnosis
  // when it actually found a root, so `ftdiag stuck` never renders a
  // "root cause: none" line.
  ctx.diagnosis = diag.triggered() ? &diag : nullptr;
  ctx.host = &host;
  ctx.trace_tail = trace_.enabled() ? &tail : nullptr;
  const std::string dump_note =
      dump_on_trip(watchdog_cfg_.dump_path, rep, ctx);
  // Name the most-silent non-terminal slot: the wedged shard.
  const WatchdogSlotView* worst = nullptr;
  for (const WatchdogSlotView& s : rep.slots)
    if (!s.terminal && (worst == nullptr || s.age_ms > worst->age_ms))
      worst = &s;
  const std::string who = worst != nullptr ? worst->label : std::string();
  std::string msg = "watchdog tripped: no scheduler progress for " +
                    std::to_string(rep.stall_ms) + " ms (deadline " +
                    std::to_string(rep.effective_deadline_ms) + " ms)";
  if (!who.empty()) msg += "; most silent: " + who;
  msg += dump_note;
  for (auto& node : nodes_) node.reset();
  throw WatchdogError(msg, rep);
}

RunReport Machine::run(const Program& program) {
  return execute(program, /*threaded=*/false);
}

RunReport Machine::run_threaded(const Program& program) {
  return execute(program, /*threaded=*/true);
}

RunReport Machine::execute(const Program& program, bool threaded) {
  FTSORT_REQUIRE(!running_);
  running_ = true;
  instantiate_programs(program);
  workers_ = 1;
  if (threaded)
    workers_ = std::max<std::size_t>(
        1, std::min<std::size_t>(
               faults_.healthy_count(),
               std::max(2u, std::thread::hardware_concurrency())));
  prof_workers_.assign(workers_, SchedShardProfile{});
  std::unique_ptr<Watchdog> wd = arm_watchdog(threaded);
  active_watchdog_ = wd.get();

  // Worker 0 is the calling thread. A worker's own failure (not a node
  // program's: those stay in its Task) stops the run and is rethrown here.
  const auto work = [this](std::size_t worker) {
    try {
      schedule(worker);
    } catch (...) {
      const auto lk = lock(worker);
      if (!worker_error_) worker_error_ = std::current_exception();
      stop_workers();
    }
  };
  {
    std::vector<std::jthread> pool;
    try {
      for (std::size_t w = 1; w < workers_; ++w) pool.emplace_back(work, w);
    } catch (...) {
      // Release the workers already waiting at the start barrier.
      const auto lk = lock(0);
      worker_error_ = std::current_exception();
      stop_workers();
    }
    work(0);
  }
  workers_ = 1;
  active_watchdog_ = nullptr;
  if (wd != nullptr) {
    wd->stop();
    watchdog_stats_ = wd->report();
  }
  if (worker_error_ || deadlocked_) {
    running_ = false;
    for (auto& node : nodes_) node.reset();
    if (worker_error_) std::rethrow_exception(worker_error_);
    throw DeadlockError(deadlock_msg_);
  }
  // A watchdog trip without a logical deadlock: the stall was host-level.
  // Dump and throw from the quiescent machine.
  if (wd != nullptr && wd->tripped()) throw_watchdog_trip();
  return collect_report();
}

}  // namespace ftsort::sim
