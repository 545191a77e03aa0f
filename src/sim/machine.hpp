// The simulated hypercube multicomputer.
//
// A `Machine` is an n-cube of processors with a fault set, a routing policy
// derived from the fault model, and the paper's cost model. Each healthy
// processor is one `NodeCtx`: it holds the processor's clock, phase,
// mailbox, wait and kill state and its coroutine program, and provides
// that program message passing (`send` / `co_await recv`) and logical-clock
// accounting. Execution is driven by a deterministic run-to-completion
// scheduler: identical inputs produce identical message orders, logical
// times, and results on every host.
//
// Time model (matches the paper's cost algebra, §3):
//   * local comparisons advance the node clock by t_c each;
//   * a send of k keys over h hops advances the sender by one link-injection
//     time and arrives at sender_clock + h * (t_startup + k * t_transfer);
//   * recv waits for the message, then sets clock = max(clock, arrival).
// The run's makespan is the maximum final clock over all participating
// nodes.
//
// Performance architecture (see DESIGN.md §6): message payloads live in
// per-node BufferPools, so steady-state message traffic performs no heap
// allocation; a delivered payload belongs to its receiver, so only a
// node's own program uses its pool and no pool is locked. Each node's
// pending messages sit in a flat arrival-ordered vector (per-channel FIFO
// is preserved because arrival order restricted to one (src, tag) channel
// is FIFO). Both executors run one scheduler loop: the sequential one on
// the calling thread alone, the MIMD one on a small worker pool that
// shares one machine lock and drops it while a node's coroutine computes.
//
// Dynamic faults (sim/fault_injector.hpp): a `FaultInjector` kills nodes
// and cuts links at scheduled logical times mid-run. Dead nodes halt at
// their next NodeCtx interaction; messages arriving after the destination's
// death are dropped. Survivors observe a loss through the bounded-wait
// `recv_or_timeout` awaitable, which resolves as a *perfect failure
// detector*: it returns nullopt exactly when the simulation reaches global
// quiescence (no node runnable) with the awaited channel still empty — i.e.
// when no matching send can ever occur — charging the caller its logical
// patience. Quiescence events (recv timeouts, deaths of blocked nodes) are
// resolved in logical-event-time order, so both executors observe the same
// histories.
#pragma once

#include <array>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "fault/fault_set.hpp"
#include "hypercube/routing.hpp"
#include "sim/buffer_pool.hpp"
#include "sim/cost_model.hpp"
#include "sim/diagnosis.hpp"
#include "sim/fault_injector.hpp"
#include "sim/instrument.hpp"
#include "sim/lineage.hpp"
#include "sim/link_stats.hpp"
#include "sim/message.hpp"
#include "sim/metrics.hpp"
#include "sim/task.hpp"
#include "sim/timeline.hpp"
#include "sim/trace.hpp"
#include "sim/watchdog.hpp"

namespace ftsort::sim {

class Machine;
class PhaseSpan;

/// Thrown when every live program is blocked in recv and no message can
/// ever arrive. The message lists each blocked node and what it waits for.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what)
      : std::runtime_error(what) {}
};

/// One simulated processor, and the interface handed to its program: the
/// node's clock and phase, its mailbox, its wait, kill and worker state,
/// and the program itself. The Machine owns one per healthy node.
class NodeCtx {
 public:
  NodeCtx(const NodeCtx&) = delete;
  NodeCtx& operator=(const NodeCtx&) = delete;

  cube::NodeId id() const { return id_; }
  cube::Dim dim() const;
  SimTime now() const { return clock_; }

  const fault::FaultSet& faults() const;
  bool is_faulty(cube::NodeId u) const;

  /// Account `k` key comparisons of local work.
  void charge_compares(std::uint64_t k);
  /// Account arbitrary local work (e.g. data movement) in µs.
  void charge_time(SimTime t);

  /// Post a message. Never blocks (links are buffered); the sender's clock
  /// advances by the link-injection time. A message addressed to a node
  /// that is dead on arrival is silently dropped (the injector's model).
  ///
  /// Three forms: a span copies into a buffer checked out of this node's
  /// pool (the steady-state zero-allocation path); a moved-in vector is
  /// adopted into the pool; a PooledBuffer (e.g. a received payload being
  /// forwarded) travels as-is.
  void send(cube::NodeId dst, Tag tag, std::span<const Key> payload);
  void send(cube::NodeId dst, Tag tag, std::vector<Key>&& payload);
  void send(cube::NodeId dst, Tag tag, PooledBuffer&& payload);

  /// Awaitable receive of the next message from (src, tag). FIFO per
  /// channel. `co_await ctx.recv(...)` yields the Message.
  struct RecvAwaiter {
    NodeCtx& ctx;
    cube::NodeId src;
    Tag tag;
    bool await_ready() const noexcept;
    /// Returns false (resume immediately) if a message raced in between
    /// await_ready and suspension — only possible with several workers.
    bool await_suspend(std::coroutine_handle<> h);
    Message await_resume();
  };
  RecvAwaiter recv(cube::NodeId src, Tag tag) {
    return RecvAwaiter{*this, src, tag};
  }

  /// Bounded-wait receive: like recv, but resolves to nullopt when no
  /// message on (src, tag) can ever arrive (perfect failure detection; see
  /// file header). On timeout the caller's clock advances by `patience`.
  struct RecvTimeoutAwaiter {
    NodeCtx& ctx;
    cube::NodeId src;
    Tag tag;
    SimTime patience;
    bool await_ready() const noexcept;
    bool await_suspend(std::coroutine_handle<> h);
    std::optional<Message> await_resume();
  };
  RecvTimeoutAwaiter recv_or_timeout(cube::NodeId src, Tag tag,
                                     SimTime patience) {
    return RecvTimeoutAwaiter{*this, src, tag, patience};
  }

  /// True when the machine's key-lineage registry is recording; use to
  /// gate the custody hooks below (they are no-ops when disabled, but the
  /// caller usually wants to skip building their arguments too).
  bool lineage_enabled() const;
  /// Custody commit for the exchange pair-step (this node, partner, tag):
  /// `kept` is this node's post-merge block. Call exactly once per side,
  /// at the point the new block content is committed (sim/lineage.hpp).
  /// `witness_step >= 0` marks a recovery witness-capture step: both sides
  /// of the pair get stamped with their partner as freshest witness.
  void note_lineage_retain(cube::NodeId partner, Tag tag,
                           std::span<const Key> kept,
                           std::int32_t witness_step = -1);
  /// Recovery re-scatter (coordinator only): reassign every id to the new
  /// blocks; ids parked on a dead node get a Salvage event naming its
  /// winning witness.
  void note_lineage_rescatter(
      const std::vector<std::vector<Key>>& blocks,
      std::span<const Lineage::SalvageInfo> salvage);

  /// The node's ambient phase: every cost charged and message sent while a
  /// PhaseSpan is open is attributed to its phase (sim/metrics.hpp).
  Phase phase() const { return phase_; }
  /// Open a phase span: sets the ambient phase for the span's lifetime and
  /// records SpanBegin/SpanEnd trace events. Spans nest; the destructor
  /// restores the enclosing phase. Charges no time.
  PhaseSpan span(Phase p);

 private:
  friend class Machine;
  friend class PhaseSpan;
  NodeCtx(Machine& machine, cube::NodeId id, SimTime kill_time)
      : machine_(&machine), id_(id), kill_time_(kill_time) {}

  /// The machine lock when the run has several workers (contention is
  /// charged to this node's worker); an empty lock otherwise. Also reached
  /// from PhaseSpan destructors while a finished run tears its nodes down.
  std::unique_lock<std::mutex> lock();
  /// Throws KilledSignal (and reports the death) once the clock has reached
  /// the kill time; `checked_out` marks a death at a send that just took a
  /// payload buffer from the pool. Caller holds the lock.
  void check_alive(bool checked_out = false);
  /// The three send forms meet here; `checked_out` marks a buffer the span
  /// form just took from this node's pool.
  void send_buffer(cube::NodeId dst, Tag tag, PooledBuffer&& payload,
                   bool checked_out);

  // The receive steps. `found_` remembers where the first message on the
  // awaited channel sits; the index stays valid until take() because only
  // this node removes messages from its inbox, and senders only append.
  /// Scan the inbox for (src, tag) and remember the match. Caller holds
  /// the lock.
  bool find(cube::NodeId src, Tag tag);
  /// await_ready: a message on (src, tag) is already queued.
  bool ready(cube::NodeId src, Tag tag);
  /// await_suspend: re-check the inbox and register the waiter under one
  /// lock acquisition, so a sender posting after the check finds the node
  /// waiting. False (resume at once) when a message raced in.
  bool wait(cube::NodeId src, Tag tag, std::coroutine_handle<> h,
            std::optional<SimTime> deadline);
  /// await_resume: take the found message and charge the receive. A wait
  /// resumed with no message found was a recv_or_timeout timed out at
  /// quiescence: the clock moves to its deadline and nullopt returns.
  std::optional<Message> take(cube::NodeId src, Tag tag);

  static constexpr std::size_t kNoMessage = static_cast<std::size_t>(-1);

  // Teardown runs in reverse: the inbox goes first, then the program, whose
  // frames' PhaseSpans still read the fields declared before it.
  Machine* machine_;
  cube::NodeId id_;
  SimTime clock_ = 0.0;
  Phase phase_ = Phase::Unattributed;
  std::size_t worker_ = 0;  ///< profile shard of the worker running it
  // Worker-pool state. A node woken while a worker is still inside its
  // resume() is queued only once that resume() returns, so its coroutine
  // never runs on two workers at once.
  bool running_ = false;
  bool wake_pending_ = false;
  // Dynamic-fault state.
  SimTime kill_time_ = kNever;
  bool killed_ = false;  ///< died mid-run (thrown or abandoned)
  // Wait state: the channel a blocked recv waits on, and its deadline when
  // it came through recv_or_timeout.
  bool waiting_ = false;
  cube::NodeId want_src_ = 0;
  Tag want_tag_ = 0;
  std::optional<SimTime> deadline_;
  /// Where the next resume continues; null until the node first blocks
  /// (an unstarted node is started instead).
  std::coroutine_handle<> waiter_;
  std::size_t found_ = kNoMessage;
  Task task_;
  // Pending messages in arrival order. Matching a (src, tag) channel scans
  // front to back, which preserves per-channel FIFO; the capacity persists
  // across steps, so steady-state delivery allocates nothing.
  std::vector<Message> inbox_;
};

/// RAII scope for a node's ambient phase (see NodeCtx::span). Must be kept
/// on the coroutine frame of the owning node program, or in a call of it
/// that does not suspend; non-copyable and non-movable so a span can never
/// outlive its scope unnoticed.
class PhaseSpan {
 public:
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;
  ~PhaseSpan();

 private:
  friend class NodeCtx;
  PhaseSpan(NodeCtx& ctx, Phase p);

  NodeCtx& ctx_;
  Phase prev_ = Phase::Unattributed;
};

/// Wall-clock scheduler counters for one shard (= one worker of the
/// scheduler loop). Everything here is host time, never simulated time:
/// enabling the profile cannot change logical results, and none of these
/// fields participate in golden-report or executor-equivalence comparisons.
struct SchedShardProfile {
  std::uint64_t mutex_waits = 0;     ///< contended machine-lock acquisitions
  std::uint64_t mutex_wait_ns = 0;   ///< wall ns blocked on the machine lock
  std::uint64_t cv_waits = 0;        ///< idle-worker sleeps entered
  std::uint64_t cv_wakeups = 0;      ///< sleeps that woke to runnable work
  std::uint64_t spurious_wakeups = 0;  ///< sleeps that woke to nothing
  std::uint64_t tasks_resumed = 0;   ///< coroutine resumes on this worker

  SchedShardProfile& operator+=(const SchedShardProfile& o) {
    mutex_waits += o.mutex_waits;
    mutex_wait_ns += o.mutex_wait_ns;
    cv_waits += o.cv_waits;
    cv_wakeups += o.cv_wakeups;
    spurious_wakeups += o.spurious_wakeups;
    tasks_resumed += o.tasks_resumed;
    return *this;
  }
};

/// Host-side execution profile of a run (see Machine::profile_host). The
/// data that explains wall-clock behaviour the logical metrics cannot see —
/// e.g. how long the threaded executor's workers queue on the machine lock.
struct HostProfile {
  bool enabled = false;  ///< false ⇒ all counters are zero
  std::vector<SchedShardProfile> shards;  ///< index = worker
  std::uint64_t quiescence_checks = 0;  ///< idle-machine resolutions
  std::uint64_t quiescence_events = 0;  ///< timeouts/kills fired there

  SchedShardProfile total() const {
    SchedShardProfile sum;
    for (const auto& s : shards) sum += s;
    return sum;
  }
};

/// Aggregate results of one simulation run.
struct RunReport {
  /// The machine's cost model, copied at collection time so downstream
  /// readers (exporters, ftdiag) can derive wire times from the integer
  /// link counters without a handle on the Machine.
  CostModel cost;
  SimTime makespan = 0.0;            ///< max final clock over surviving nodes
  std::uint64_t messages = 0;        ///< messages posted
  std::uint64_t keys_sent = 0;       ///< Σ payload sizes
  std::uint64_t key_hops = 0;        ///< Σ payload size × hops
  std::uint64_t comparisons = 0;     ///< Σ charged comparisons
  std::uint64_t messages_dropped = 0;  ///< posts lost to dead nodes/links
  std::uint64_t timeouts = 0;          ///< recv_or_timeout expirations
  std::vector<SimTime> node_clocks;  ///< final clock per node (0 if idle)
  std::vector<cube::NodeId> killed_nodes;  ///< injector victims, ascending
  /// Payload buffer-pool ledger of this run only: every node pool's
  /// counters at collection time minus the mark taken when the run started
  /// (the pools stay warm across runs of one machine). It follows from each
  /// node's program order alone, so both executors report the same ledger
  /// (sim/buffer_pool.hpp).
  PoolStats pool_delta;
  /// Per-node, per-phase counters. Empty unless `Machine::metrics()` was
  /// enabled for the run.
  MetricsSnapshot metrics;
  /// Per-link traffic matrix (sim/link_stats.hpp). Empty unless
  /// `Machine::link_stats()` was enabled for the run. Conservation: the
  /// snapshot's grand_total().key_hops equals `key_hops` exactly.
  LinkStatsSnapshot links;
  /// §3 heuristic audit — predicted vs measured re-index routing overhead.
  /// Filled after the run by the algorithm layer (core/ft_sorter), from its
  /// Step 7 partners and router(), when link stats were recorded;
  /// enabled == false otherwise.
  ReindexAudit reindex_audit;
  /// Where the makespan went, per phase. Empty unless metrics were enabled;
  /// the critical-path fields additionally need the trace enabled.
  PhaseBreakdown phases;
  /// Flight-recorder evictions during this run (0 when the trace is
  /// unbounded or disabled). Nonzero means snapshot()/phases saw a
  /// truncated event stream.
  std::uint64_t trace_dropped = 0;
  /// Failure explainer: populated when the run saw timeouts or node
  /// deaths (kind None otherwise). Derived from logical evidence only, so
  /// identical across executors.
  Diagnosis diagnosis;
  /// Recovery-latency decomposition (sim/timeline.hpp): where the time
  /// between fault injection and restart went, per recovery episode.
  /// Filled by core::recovery_sort on committed runs; enabled == false
  /// otherwise.
  RecoveryLatency recovery_latency;
  /// Sim-time sampler series (sim/timeline.hpp). Empty unless
  /// `Machine::timeline()` was enabled for the run.
  TimelineSnapshot timeline;
  /// Key-lineage provenance (sim/lineage.hpp): per-key custody chains, hop
  /// counts, and — once the algorithm layer ran audit_lineage against the
  /// gathered output — the exact no-loss/no-dup audit. Empty unless
  /// `Machine::lineage()` was enabled and assigned before the run.
  LineageSnapshot lineage;
  /// Host-side scheduler profile; enabled==false (all zeros) unless
  /// Machine::profile_host(true) was set before the run.
  HostProfile host;
  /// Wall-clock watchdog stats (sim/watchdog.hpp); enabled==false unless
  /// Machine::set_watchdog armed one for the run. Only the config echo and
  /// the trip/near-miss counts are serialized — both zero on every healthy
  /// run — so logical results stay byte-identical with the watchdog on.
  WatchdogReport watchdog;
};

/// The detection watermark: the latest expired recv_or_timeout deadline
/// the report's diagnosis recorded, clamped to the makespan (0 for clean
/// runs, or when the trace that records expiries was disabled). Everything
/// before it is fault detection; the remainder, makespan - detect_time, is
/// real post-recovery sort work.
SimTime detect_time(const RunReport& report);

class Machine {
 public:
  /// A node program factory: invoked once per healthy node.
  using Program = std::function<Task(NodeCtx&)>;

  Machine(cube::Dim n, fault::FaultSet faults,
          fault::FaultModel model = fault::FaultModel::Partial,
          CostModel cost = CostModel::ncube7(),
          cube::LinkSet dead_links = {});

  cube::Dim dim() const { return n_; }
  std::uint32_t size() const { return cube::num_nodes(n_); }
  const fault::FaultSet& faults() const { return faults_; }
  fault::FaultModel fault_model() const { return model_; }
  const CostModel& cost() const { return cost_; }
  const cube::Router& router() const { return router_; }
  /// The instruments (sim/instrument.hpp). Enable one before a run and it
  /// records the run into its RunReport field: `trace().enable()`,
  /// `metrics().enable(size())`, `link_stats().enable(size(), dim())`,
  /// `timeline().enable(size(), dim(), tick)`, and
  /// `lineage().enable(size(), dim())` followed by `assign_block` per node
  /// (host-side, pre-run state that the run keeps).
  Trace& trace() { return trace_; }
  Metrics& metrics() { return metrics_; }
  LinkStats& link_stats() { return link_stats_; }
  Timeline& timeline() { return timeline_; }
  Lineage& lineage() { return lineage_; }

  /// Install a mid-run fault schedule; applies to every subsequent run on
  /// either executor. Pass a default-constructed injector to clear.
  void set_injector(FaultInjector injector) {
    injector_ = std::move(injector);
  }
  const FaultInjector& injector() const { return injector_; }

  /// Toggle host-side (wall-clock) scheduler profiling for subsequent runs;
  /// populates RunReport::host. Charged entirely outside simulated time —
  /// cannot change logical results.
  void profile_host(bool on) { profile_host_ = on; }
  bool profiling_host() const { return profile_host_; }

  /// Arm a wall-clock watchdog for subsequent runs (sim/watchdog.hpp). The
  /// threaded executor publishes one heartbeat slot per healthy node (beat
  /// per resume, activity = the node's ambient phase, terminal when its
  /// program ends); the sequential executor a single "scheduler" slot. On
  /// an abort-policy trip the run is shut down, the black-box dump written
  /// to cfg.dump_path, and WatchdogError thrown; a record-policy breach
  /// only counts a near-miss in RunReport::watchdog. Pass a default
  /// (disabled) config to disarm.
  void set_watchdog(WatchdogConfig cfg) { watchdog_cfg_ = std::move(cfg); }
  const WatchdogConfig& watchdog_config() const { return watchdog_cfg_; }

  /// Build a failure explanation from the current run's evidence: blocked
  /// node states, observed deaths, configured link cuts, and (when the
  /// trace is enabled) the run's recorded timeout expiries. Deterministic
  /// and identical across executors. Feeds deadlock messages,
  /// RunReport::diagnosis, and recovery's DegradationError annotation.
  Diagnosis diagnose(Diagnosis::Kind kind) const;

  /// Instantiate `program` on every healthy node and run the whole system
  /// to completion. Throws DeadlockError on global blocking, and rethrows
  /// the first node-program exception (annotated with the node id).
  RunReport run(const Program& program);

  /// MIMD execution: the same scheduler loop as `run`, on
  /// min(healthy nodes, max(2, hardware threads)) workers that share one
  /// machine lock and release it while a node's coroutine computes.
  /// Results, statistics, and logical times are identical to `run` — the
  /// logical clocks depend only on the message causality, not on host
  /// scheduling — so node programs are executor-agnostic. Genuine deadlocks
  /// are detected at quiescence and report the same blocked set as the
  /// sequential executor; a wall-clock stall is the watchdog's to catch.
  RunReport run_threaded(const Program& program);

 private:
  friend class NodeCtx;
  friend class PhaseSpan;

  /// The machine lock when the run has several workers; an empty lock on
  /// the sequential executor. Contended acquisitions are charged to
  /// `worker`'s profile shard when profiling is on.
  std::unique_lock<std::mutex> lock(std::size_t worker);
  /// True when the run has an active instrument: the one check a charge
  /// site makes before it builds an event.
  bool instrumented() const { return num_active_ != 0; }
  /// Report `ev` to every active instrument. Caller holds the machine lock.
  template <typename Event>
  void notify(void (Instrument::*on)(const Event&), const Event& ev) {
    for (std::size_t i = 0; i < num_active_; ++i) (active_[i]->*on)(ev);
  }
  /// Deliver a sent message, waking its receiver when it waits on the
  /// message's channel. Caller holds the machine lock.
  void post(Message msg);
  /// Make blocked node `node` runnable. Caller holds the machine lock.
  void wake(NodeCtx& node);
  std::string deadlock_message() const;
  /// At global quiescence, fire the earliest logical event among pending
  /// recv timeouts and deaths of blocked nodes and return its node, or
  /// nullptr if none exists (a genuine deadlock). Caller holds the machine
  /// lock.
  NodeCtx* fire_quiescence_event();
  /// Sum of every node pool's ledger.
  PoolStats pool_total() const;
  void instantiate_programs(const Program& program);
  /// Both executors: run the programs on one worker, or on the threaded
  /// executor's pool (the calling thread is worker 0), then collect the
  /// report or throw.
  RunReport execute(const Program& program, bool threaded);
  /// The scheduler loop one worker runs until the run ends: resume woken
  /// nodes in FIFO order, else start the next unstarted node, else — with
  /// nothing runnable or running — fire a quiescence event or finish.
  void schedule(std::size_t worker);
  /// Make every worker leave its loop. Caller holds the machine lock.
  void stop_workers();
  /// Beat `node`'s heartbeat slot (the "scheduler" slot on the sequential
  /// executor) after it ran or a quiescence event touched it.
  void beat(const NodeCtx& node);
  RunReport collect_report();
  /// Build the armed watchdog for a run, or nullptr when disabled. The
  /// threaded executor gets one slot per healthy node (wd_slot_[u]), the
  /// sequential one a single "scheduler" slot (wd_slot_ empty).
  std::unique_ptr<Watchdog> arm_watchdog(bool threaded);
  /// Copy the per-worker profile into a plain HostProfile (enabled==false
  /// when profiling is off). Used by collect_report and by the watchdog
  /// dump, which fires before a report exists.
  HostProfile snapshot_host_profile() const;
  /// Abort path after a watchdog trip: capture the dump (diagnosis of the
  /// stalled set, host profile, flight-recorder tail, heartbeat table),
  /// write it to the configured path, tear the run down, and throw
  /// WatchdogError. Requires every worker joined.
  [[noreturn]] void throw_watchdog_trip();

  cube::Dim n_;
  fault::FaultSet faults_;
  fault::FaultModel model_;
  CostModel cost_;
  cube::Router router_;
  Trace trace_;
  Metrics metrics_;
  LinkStats link_stats_;
  Timeline timeline_;
  Lineage lineage_;
  /// The run's enabled instruments, in the order events reach them; filled
  /// at run start, so no run or event allocates.
  std::array<Instrument*, 5> active_{};
  std::size_t num_active_ = 0;
  bool routes_ = false;  ///< an active instrument wants SendEvent::path
  FaultInjector injector_;
  PoolStats pool_mark_;  ///< pool_total() at run start

  // Declared before nodes_ so in-flight payload handles (inside inboxes)
  // are destroyed before the pools they return to. Node u's program alone
  // uses pools_[u] while a run is going (sim/buffer_pool.hpp).
  std::vector<BufferPool> pools_;  // index = address; persists across runs
  std::vector<std::unique_ptr<NodeCtx>> nodes_;  // index = address
  std::uint64_t messages_ = 0;
  std::uint64_t keys_sent_ = 0;
  std::uint64_t key_hops_ = 0;
  std::uint64_t comparisons_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t timeouts_ = 0;
  bool running_ = false;

  // Scheduler state. With several workers mu_ guards it, the mailbox and
  // wait state of every node, the traffic counters above and every
  // instrument call; with one worker nothing is locked.
  std::mutex mu_;
  std::condition_variable idle_cv_;  ///< idle workers wait here for work
  std::size_t workers_ = 1;          ///< workers of this run
  std::size_t checked_in_ = 0;       ///< workers that entered the loop
  std::deque<cube::NodeId> ready_;   ///< woken nodes, FIFO
  cube::NodeId next_start_ = 0;      ///< next node to start
  std::size_t busy_ = 0;             ///< workers inside a resume()
  bool stop_ = false;                ///< every worker leaves its loop
  bool deadlocked_ = false;
  std::string deadlock_msg_;
  std::exception_ptr worker_error_;  ///< first error a worker hit

  // Host profiling (see profile_host): one shard per worker, written only
  // by that worker and read after the run.
  bool profile_host_ = false;
  std::vector<SchedShardProfile> prof_workers_;
  std::uint64_t prof_quiescence_checks_ = 0;
  std::uint64_t prof_quiescence_events_ = 0;

  // Wall-clock watchdog (see set_watchdog). `active_watchdog_` is only
  // non-null while a run holds an armed watchdog.
  WatchdogConfig watchdog_cfg_;
  Watchdog* active_watchdog_ = nullptr;
  std::vector<std::size_t> wd_slot_;  ///< node id -> heartbeat slot
  WatchdogReport watchdog_stats_;     ///< captured at wd->stop()
};

}  // namespace ftsort::sim
