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

void NodeCtx::charge_compares(std::uint64_t k) {
  if (k == 0) return;
  const SimTime dt = machine_->cost().compare_time(k);
  clock_ += dt;
  const auto lock = machine_->lock_for(id_);
  machine_->comparisons_ += k;
  if (machine_->instrumented())
    machine_->notify(&Instrument::on_charge,
                     ChargeEvent{id_, phase_, clock_, k, dt});
  machine_->check_alive(id_);
}

void NodeCtx::charge_time(SimTime t) {
  FTSORT_REQUIRE(t >= 0.0);
  clock_ += t;
  const auto lock = machine_->lock_for(id_);
  if (machine_->instrumented())
    machine_->notify(&Instrument::on_charge,
                     ChargeEvent{id_, phase_, clock_, 0, t});
  machine_->check_alive(id_);
}

bool NodeCtx::lineage_enabled() const {
  return machine_->lineage().enabled();
}

void NodeCtx::note_lineage_retain(cube::NodeId partner, Tag tag,
                                  std::span<const Key> kept,
                                  std::int32_t witness_step) {
  const auto lock = machine_->lock_for(id_);
  machine_->lineage().note_retain(id_, partner, tag, kept, phase_,
                                  witness_step);
}

void NodeCtx::note_lineage_rescatter(
    const std::vector<std::vector<Key>>& blocks,
    std::span<const Lineage::SalvageInfo> salvage) {
  const auto lock = machine_->lock_for(id_);
  machine_->lineage().note_rescatter(blocks, salvage, phase_);
}

PhaseSpan NodeCtx::span(Phase p) { return PhaseSpan(*this, p, true); }

PhaseSpan NodeCtx::span_if_unattributed(Phase p) {
  return PhaseSpan(*this, p, phase_ == Phase::Unattributed);
}

PhaseSpan::PhaseSpan(NodeCtx& ctx, Phase p, bool engage)
    : ctx_(ctx), prev_(ctx.phase_), engaged_(engage) {
  if (!engaged_) return;
  Machine& m = *ctx_.machine_;
  // Reported before the phase switches so the walk's gap attribution stays
  // with the enclosing phase; the event itself carries the new phase.
  if (m.instrumented()) {
    const auto lock = m.lock_for(ctx_.id_);
    m.notify(&Instrument::on_span, SpanEvent{ctx_.id_, p, ctx_.clock_, true});
  }
  ctx_.phase_ = p;
}

PhaseSpan::~PhaseSpan() {
  if (!engaged_) return;
  Machine& m = *ctx_.machine_;
  if (m.instrumented()) {
    const auto lock = m.lock_for(ctx_.id_);
    m.notify(&Instrument::on_span,
             SpanEvent{ctx_.id_, ctx_.phase_, ctx_.clock_, false});
  }
  ctx_.phase_ = prev_;
}

void NodeCtx::send(cube::NodeId dst, Tag tag, std::span<const Key> payload) {
  // The copy runs outside the machine lock; the pool has its own.
  BufferPool& pool = machine_->pools_[id_];
  std::vector<Key> storage = pool.checkout(payload.size());
  storage.assign(payload.begin(), payload.end());
  send_buffer(dst, tag, PooledBuffer(&pool, std::move(storage)),
              /*checked_out=*/true);
}

void NodeCtx::send(cube::NodeId dst, Tag tag, std::vector<Key>&& payload) {
  // Adopt the storage: it enters the sender's pool circulation when the
  // receiver is done with it.
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
  const auto lock = machine_->lock_for(id_);
  machine_->check_alive(id_, checked_out);

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

bool NodeCtx::RecvAwaiter::await_ready() const noexcept {
  return ctx.machine_->has_message(ctx.id_, src, tag);
}

bool NodeCtx::RecvAwaiter::await_suspend(std::coroutine_handle<> h) {
  return ctx.machine_->register_waiter(ctx.id_, src, tag, h,
                                       /*has_deadline=*/false, 0.0);
}

Message NodeCtx::RecvAwaiter::await_resume() {
  const auto lock = ctx.machine_->lock_for(ctx.id_);
  return ctx.machine_->pop_message(ctx.id_, src, tag);
}

bool NodeCtx::RecvTimeoutAwaiter::await_ready() const noexcept {
  return ctx.machine_->has_message(ctx.id_, src, tag);
}

bool NodeCtx::RecvTimeoutAwaiter::await_suspend(std::coroutine_handle<> h) {
  FTSORT_REQUIRE(patience >= 0.0);
  return ctx.machine_->register_waiter(ctx.id_, src, tag, h,
                                       /*has_deadline=*/true,
                                       ctx.clock_ + patience);
}

std::optional<Message> NodeCtx::RecvTimeoutAwaiter::await_resume() {
  return ctx.machine_->finish_recv_or_timeout(ctx.id_, src, tag);
}

Machine::Machine(cube::Dim n, fault::FaultSet faults,
                 fault::FaultModel model, CostModel cost,
                 cube::LinkSet dead_links)
    : n_(n), faults_(std::move(faults)), model_(model), cost_(cost),
      router_(n, faults_.bitmap(), model == fault::FaultModel::Total,
              std::move(dead_links)),
      trace_(cube::num_nodes(n)) {
  FTSORT_REQUIRE(cube::valid_dim(n_));
  FTSORT_REQUIRE(faults_.dim() == n_);
  pools_ = std::vector<BufferPool>(size());
  nodes_.resize(size());
}

void Machine::profile_host(bool on) {
  profile_host_ = on;
  for (BufferPool& pool : pools_) pool.set_profiling(on);
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
  for (cube::NodeId u = 0; u < size(); ++u) {
    const NodeState* st = nodes_[u].get();
    if (st == nullptr) continue;
    if (st->killed) {
      in.kills.push_back({u, st->ctx.clock_, st->ctx.phase_});
    } else if (!st->task.done() && st->waiting) {
      in.waits.push_back({u, static_cast<cube::NodeId>(st->want_channel >> 32),
                          static_cast<Tag>(st->want_channel & 0xffffffffu),
                          st->ctx.clock_, st->ctx.phase_,
                          /*expired=*/false});
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

PoolStats Machine::pool_stats() const {
  PoolStats total;
  for (const BufferPool& pool : pools_) total += pool.stats();
  return total;
}

PoolStats Machine::pool_stats_delta() const {
  const PoolStats now = pool_stats();
  FTSORT_INVARIANT(now.checkouts >= pool_mark_.checkouts);
  FTSORT_INVARIANT(now.returns >= pool_mark_.returns);
  PoolStats delta;
  delta.checkouts = now.checkouts - pool_mark_.checkouts;
  delta.fresh = now.fresh - pool_mark_.fresh;
  delta.grows = now.grows - pool_mark_.grows;
  delta.returns = now.returns - pool_mark_.returns;
  return delta;
}

Machine::NodeState& Machine::state_of(cube::NodeId id) {
  FTSORT_REQUIRE(cube::valid_node(id, n_));
  FTSORT_INVARIANT(nodes_[id] != nullptr);
  return *nodes_[id];
}

std::size_t Machine::inbox_find(const NodeState& st, std::uint64_t channel) {
  for (std::size_t k = 0; k < st.inbox.size(); ++k) {
    const Message& m = st.inbox[k];
    if (channel_key(m.src, m.tag) == channel) return k;
  }
  return kNotFound;
}

void Machine::check_alive(cube::NodeId id, bool checked_out) {
  NodeState& st = state_of(id);
  if (st.ctx.clock_ < st.kill_time) return;
  st.killed = true;
  if (instrumented())
    notify(&Instrument::on_kill,
           KillEvent{id, st.ctx.phase_, st.ctx.clock_, checked_out});
  throw KilledSignal{};
}

void Machine::post(Message msg) {
  ++messages_;
  keys_sent_ += msg.payload.size();
  key_hops_ += msg.payload.size() * static_cast<std::uint64_t>(msg.hops);

  NodeState& dst = state_of(msg.dst);
  // Dynamic-fault drop rules: dead on arrival, or the direct link between
  // adjacent endpoints was cut before the send. Both are purely logical,
  // so each executor drops exactly the same messages.
  const bool dropped =
      msg.arrival >= dst.kill_time ||
      (cube::hamming(msg.src, msg.dst) == 1 &&
       msg.sent_at >= injector_.link_cut_time(msg.src, msg.dst));
  if (instrumented()) notify(&Instrument::on_post, PostEvent{msg, dropped});
  if (dropped) {
    ++messages_dropped_;
    return;
  }

  const std::uint64_t channel = channel_key(msg.src, msg.tag);
  const cube::NodeId to = msg.dst;
  dst.inbox.push_back(std::move(msg));
  if (dst.waiting && dst.want_channel == channel) wake(to);
}

void Machine::wake(cube::NodeId u) {
  NodeState& st = *nodes_[u];
  st.waiting = false;
  if (st.running) {
    // Still inside the resume() that suspended it: that worker re-queues
    // it once resume() returns.
    st.wake_pending = true;
    return;
  }
  ready_.push_back(u);
  if (workers_ > 1) idle_cv_.notify_one();
}

bool Machine::has_message(cube::NodeId node, cube::NodeId src, Tag tag) {
  const auto lock = lock_for(node);
  return inbox_find(state_of(node), channel_key(src, tag)) != kNotFound;
}

bool Machine::register_waiter(cube::NodeId node, cube::NodeId src, Tag tag,
                              std::coroutine_handle<> h, bool has_deadline,
                              SimTime deadline) {
  // A node program is one sequential coroutine chain, so at most one
  // outstanding recv can exist per node. Statically faulty processors can
  // never send (only injector victims can die after sending).
  FTSORT_REQUIRE(!faults_.is_faulty(src));
  const auto lock = lock_for(node);
  NodeState& st = state_of(node);
  const std::uint64_t channel = channel_key(src, tag);
  // With several workers a sender may have posted since await_ready.
  if (inbox_find(st, channel) != kNotFound) return false;
  FTSORT_INVARIANT(!st.waiting);
  st.waiting = true;
  st.want_channel = channel;
  st.waiter = h;
  st.has_deadline = has_deadline;
  st.deadline = deadline;
  return true;
}

Message Machine::pop_message(cube::NodeId node, cube::NodeId src, Tag tag) {
  NodeState& st = state_of(node);
  const std::size_t k = inbox_find(st, channel_key(src, tag));
  FTSORT_INVARIANT(k != kNotFound);
  Message msg = std::move(st.inbox[k]);
  st.inbox.erase(st.inbox.begin() + static_cast<std::ptrdiff_t>(k));
  const SimTime before = st.ctx.clock_;
  st.ctx.clock_ = std::max(st.ctx.clock_, msg.arrival);
  if (instrumented())
    notify(&Instrument::on_recv,
           RecvEvent{node, st.ctx.phase_, st.ctx.clock_,
                     st.ctx.clock_ - before, msg});
  check_alive(node);
  return msg;
}

std::optional<Message> Machine::finish_recv_or_timeout(cube::NodeId node,
                                                       cube::NodeId src,
                                                       Tag tag) {
  const auto lock = lock_for(node);
  NodeState& st = state_of(node);
  if (st.timed_out) {
    st.timed_out = false;
    st.has_deadline = false;
    const SimTime before = st.ctx.clock_;
    st.ctx.clock_ = std::max(st.ctx.clock_, st.deadline);
    ++timeouts_;
    if (instrumented())
      notify(&Instrument::on_timeout,
             TimeoutEvent{node, src, tag, st.ctx.phase_, st.ctx.clock_,
                          st.ctx.clock_ - before});
    check_alive(node);
    return std::nullopt;
  }
  st.has_deadline = false;
  return pop_message(node, src, tag);
}

std::string Machine::deadlock_message() const {
  std::ostringstream os;
  os << "simulation deadlock: every live node is blocked;";
  for (const auto& node : nodes_) {
    if (!node || node->task.done() || node->killed) continue;
    os << " node " << node->ctx.id();
    if (node->waiting) {
      os << " waits for src=" << (node->want_channel >> 32)
         << " tag=" << (node->want_channel & 0xffffffffu) << " ["
         << phase_name(node->ctx.phase_) << "];";
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

std::optional<cube::NodeId> Machine::fire_quiescence_event() {
  // Candidate logical events for blocked nodes: recv-timeout expiry at its
  // deadline, and the death of a node whose kill time can now never be
  // outrun. The earliest (time, kind, node) triple fires; kills order
  // after timeouts on exact ties so a node with deadline == kill time
  // still observes its timeout. At quiescence no node is runnable or
  // running, so the states read here are stable.
  NodeState* best = nullptr;
  SimTime best_time = 0.0;
  int best_kind = 0;  // 0 = timeout, 1 = kill
  cube::NodeId best_node = 0;
  const auto consider = [&](NodeState& st, SimTime t, int kind,
                            cube::NodeId u) {
    if (best != nullptr &&
        std::tie(best_time, best_kind, best_node) <= std::tie(t, kind, u))
      return;
    best = &st;
    best_time = t;
    best_kind = kind;
    best_node = u;
  };
  for (cube::NodeId u = 0; u < size(); ++u) {
    NodeState* st = nodes_[u].get();
    if (st == nullptr || !st->waiting) continue;
    if (st->has_deadline) consider(*st, st->deadline, 0, u);
    if (st->kill_time < kNever)
      consider(*st, std::max(st->ctx.clock_, st->kill_time), 1, u);
  }
  if (best == nullptr) return std::nullopt;

  NodeState& st = *best;
  FTSORT_INVARIANT(st.waiting);
  if (best_kind == 0) {
    st.timed_out = true;
    wake(best_node);
    return best_node;
  }
  // A blocked node dies: its coroutine is abandoned, never resumed.
  st.waiting = false;
  st.killed = true;
  st.waiter = nullptr;
  if (instrumented())
    notify(&Instrument::on_kill,
           KillEvent{best_node, st.ctx.phase_, st.ctx.clock_, false});
  return best_node;
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
  pool_mark_ = pool_stats();
  prof_quiescence_checks_ = prof_quiescence_events_ = 0;
  if (profile_host_)
    for (BufferPool& pool : pools_) pool.reset_contention();
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
    nodes_[u] = std::unique_ptr<NodeState>(new NodeState(NodeCtx(*this, u)));
    nodes_[u]->kill_time = injector_.node_kill_time(u);
    nodes_[u]->task = program(nodes_[u]->ctx);
  }
}

void Machine::stop_workers() {
  stop_ = true;
  if (workers_ > 1) idle_cv_.notify_all();
}

void Machine::beat(cube::NodeId u) {
  if (wd_slot_.empty()) {
    active_watchdog_->beat(0);
    return;
  }
  // The activity word is the node's ambient phase; only the worker that
  // just resumed the node, or the idle machine, reads it here.
  const NodeState& st = *nodes_[u];
  active_watchdog_->beat(wd_slot_[u],
                         st.task.done() || st.killed
                             ? Watchdog::kActivityTerminal
                             : static_cast<std::uint64_t>(st.ctx.phase_));
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
              return node && !node->task.done() && !node->killed;
            });
        if (!pending) {
          stop_workers();
          break;
        }
        const std::optional<cube::NodeId> fired = fire_quiescence_event();
        if (!fired) {
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
    NodeState& st = *nodes_[u];
    st.running = true;
    st.worker = worker;
    ++busy_;
    const std::coroutine_handle<> h = std::exchange(st.waiter, nullptr);
    if (lk.owns_lock()) lk.unlock();
    ++prof.tasks_resumed;
    if (h)
      h.resume();
    else
      st.task.start();
    lk = lock(worker);
    --busy_;
    st.running = false;
    if (std::exchange(st.wake_pending, false)) wake(u);
    if (active_watchdog_ != nullptr) beat(u);
  }
}

RunReport Machine::collect_report() {
  RunReport report;
  report.cost = cost_;
  report.node_clocks.assign(size(), 0.0);
  for (cube::NodeId u = 0; u < size(); ++u) {
    if (!nodes_[u]) continue;
    NodeState& st = *nodes_[u];
    report.node_clocks[u] = st.ctx.now();
    if (st.killed) {
      // Died mid-run: clock frozen at death; excluded from the makespan.
      report.killed_nodes.push_back(u);
      continue;
    }
    try {
      st.task.take_result();
    } catch (const std::exception& e) {
      running_ = false;
      for (auto& node : nodes_) node.reset();
      throw std::runtime_error("node " + std::to_string(u) +
                               " failed: " + e.what());
    }
    report.makespan = std::max(report.makespan, st.ctx.now());
  }
  report.messages = messages_;
  report.keys_sent = keys_sent_;
  report.key_hops = key_hops_;
  report.comparisons = comparisons_;
  report.messages_dropped = messages_dropped_;
  report.timeouts = timeouts_;
  report.pool = pool_stats();
  report.pool_delta = pool_stats_delta();
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
      FTSORT_ENSURE(node->inbox.empty());
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
  for (const BufferPool& pool : pools_) {
    host.pool_contended += pool.contended();
    host.pool_contended_wait_ns += pool.contended_wait_ns();
  }
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
