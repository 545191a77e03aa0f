// Wall-clock watchdog: a host-side monitor thread over lock-free heartbeat
// counters, catching the hangs the logical machinery cannot see.
//
// Everything else in sim/ reasons in simulated time, where a genuine
// deadlock is detected *instantly* at quiescence. What that machinery
// cannot catch is a stall of the host itself: a miscompiled coroutine that
// never resumes its continuation (tests/test_coro_miscompile.cpp), a lost
// wakeup in the threaded executor's pool, a worker thread wedged in
// foreign code. The watchdog applies the paper's own silent-processor idea
// to the host layer: every execution shard publishes a heartbeat counter
// it bumps on progress (tasks resumed, trials completed) plus an activity
// word (current paper phase, trial index), and a monitor thread trips when
// the *global* beat sum stops advancing past a wall-clock deadline.
//
// Determinism discipline: heartbeats and the monitor live entirely in
// wall-clock land. A beat is one relaxed fetch_add; nothing here reads or
// writes simulated time, so golden reports and executor-equivalence
// snapshots are byte-identical with the watchdog on. The only fields that
// escape into serialized reports are the config echo and the trip /
// near-miss counts — zero on every healthy run by construction of the
// deadline (see below), never the wall-clock ages or poll counts.
//
// Slow-CI robustness: the configured deadline_ms is a *floor*, not the
// gate. The monitor measures the longest gap between successive global
// progress observations while the run is healthy, and trips only when the
// silence exceeds max(deadline_ms, kGapHeadroom x longest-healthy-gap) —
// a box slow enough to stretch every beat stretches its own threshold.
//
// Trip policy: abort_on_trip=true invokes the owner's on_trip callback
// (the Machine wakes its idle workers) and latches tripped(); the owner
// assembles the black-box dump (sim::Diagnosis of the stalled set,
// flight-recorder tail, host profile, the heartbeat table captured here)
// once its threads are quiescent, writes it via write_watchdog_dump, and
// throws WatchdogError. abort_on_trip=false records a near-miss,
// re-baselines, and keeps monitoring. `ftdiag stuck` decodes the dump.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/diagnosis.hpp"
#include "sim/trace.hpp"

namespace ftsort::sim {

struct HostProfile;  // machine.hpp; dump rendering only needs a pointer

/// Knobs for one run's watchdog; carried by core::SortConfig and
/// campaign::CampaignConfig. Disabled by default: a watchdog costs a
/// monitor thread per run plus one relaxed fetch_add per scheduler step.
struct WatchdogConfig {
  bool enabled = false;
  /// Monitor poll period. Also bounds how stale the heartbeat table in a
  /// dump can be.
  std::uint32_t interval_ms = 25;
  /// Minimum wall-clock silence (no beat anywhere) before a trip. The
  /// effective deadline can only be larger (measured-progress scaling).
  std::uint32_t deadline_ms = 10'000;
  /// true: trip aborts the run with WatchdogError after the dump.
  /// false: trip is recorded as a near-miss and the run continues.
  bool abort_on_trip = true;
  /// Black-box dump target; empty disables the file (the report still
  /// carries the trip counts).
  std::string dump_path;
};

/// One heartbeat source as the monitor last saw it.
struct WatchdogSlotView {
  std::string label;          ///< "node 7", "worker 3", "scheduler", ...
  std::uint64_t beats = 0;    ///< lifetime beat count
  std::uint64_t age_ms = 0;   ///< wall ms since this slot last advanced
  std::string activity;       ///< decoded activity word ("-" when none)
  bool terminal = false;      ///< slot signalled orderly completion
};

/// Run stats plus the heartbeat table captured at the last breach (or the
/// last poll, when the run stayed healthy). Only `enabled`, the config
/// echo, `trips`, and `near_misses` are serialized into metrics/campaign
/// JSON; the wall-clock fields feed dumps and the progress line only.
struct WatchdogReport {
  bool enabled = false;
  bool abort_on_trip = true;
  std::uint32_t deadline_ms = 0;
  std::uint32_t interval_ms = 0;
  std::uint32_t trips = 0;
  std::uint32_t near_misses = 0;
  std::uint64_t polls = 0;                  ///< monitor wakeups
  std::uint64_t effective_deadline_ms = 0;  ///< after progress scaling
  std::uint64_t stall_ms = 0;               ///< silence at the last breach
  std::vector<WatchdogSlotView> slots;
};

/// Thrown by the watchdog's owner after an abort-policy trip, once the
/// dump is written. Carries the report so callers (campaign trials, the
/// CLI) can read the trip counts without re-parsing the dump file.
class WatchdogError : public std::runtime_error {
 public:
  WatchdogError(const std::string& what, WatchdogReport report)
      : std::runtime_error(what), report_(std::move(report)) {}
  const WatchdogReport& report() const { return report_; }

 private:
  WatchdogReport report_;
};

class Watchdog {
 public:
  /// Activity word meaning "completed cleanly"; rendered as "terminal"
  /// and excluded when `ftdiag stuck` names the most-silent slot.
  static constexpr std::uint64_t kActivityTerminal = ~std::uint64_t{0};
  /// Initial activity word: nothing reported yet; rendered "-".
  static constexpr std::uint64_t kActivityNone = ~std::uint64_t{0} - 1;
  /// Effective deadline = max(deadline_ms, headroom x longest gap between
  /// global progress observations on the healthy part of this very run).
  static constexpr std::uint64_t kGapHeadroom = 8;

  explicit Watchdog(WatchdogConfig cfg) : cfg_(std::move(cfg)) {}
  ~Watchdog() { stop(); }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  const WatchdogConfig& config() const { return cfg_; }

  /// Register a heartbeat source. Must happen before start(); returns the
  /// slot index to pass to beat().
  std::size_t add_slot(std::string label);

  /// Decode activity words into the dump's activity column (e.g. the
  /// Machine installs phase_name). Words >= kActivityNone never reach the
  /// namer. Default: decimal rendering. Must be set before start().
  void set_activity_namer(std::function<std::string(std::uint64_t)> namer);

  /// Invoked (off the caller's threads, on the monitor) exactly once on an
  /// abort-policy trip, before tripped() latches; owners use it to unwedge
  /// their threads (the Machine wakes its idle workers). Must be set
  /// before start().
  void on_trip(std::function<void()> fn);

  /// Launch the monitor thread. No-op when the config is disabled.
  void start();

  /// Stop and join the monitor; captures a final heartbeat table when no
  /// breach did. Idempotent; called by the destructor.
  void stop();

  /// Lock-free heartbeat: one relaxed fetch_add (plus a relaxed store for
  /// the activity overload). Safe from any thread, including after stop().
  void beat(std::size_t slot) noexcept {
    slots_[slot]->beats.fetch_add(1, std::memory_order_relaxed);
  }
  void beat(std::size_t slot, std::uint64_t activity) noexcept {
    slots_[slot]->activity.store(activity, std::memory_order_relaxed);
    slots_[slot]->beats.fetch_add(1, std::memory_order_relaxed);
  }

  /// Latched by an abort-policy breach. Owners poll this at safe points
  /// (the sequential executor between resumes) and after joins.
  bool tripped() const noexcept {
    return tripped_.load(std::memory_order_acquire);
  }

  /// Snapshot of stats + the freshest heartbeat table. Callable any time;
  /// cheap enough for a progress line at human frequency.
  WatchdogReport report() const;

 private:
  struct Slot {
    explicit Slot(std::string l) : label(std::move(l)) {}
    std::string label;
    std::atomic<std::uint64_t> beats{0};
    std::atomic<std::uint64_t> activity{kActivityNone};
  };

  void run_monitor();
  WatchdogReport report_locked() const;  // requires mu_

  WatchdogConfig cfg_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::function<std::string(std::uint64_t)> namer_;
  std::function<void()> on_trip_;

  std::thread monitor_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;          // guarded by mu_
  bool started_ = false;       // guarded by mu_
  std::atomic<bool> tripped_{false};

  // Stats below are written by the monitor under mu_ and read by report().
  std::uint32_t trips_ = 0;
  std::uint32_t near_misses_ = 0;
  std::uint64_t polls_ = 0;
  std::uint64_t effective_deadline_ms_ = 0;
  std::uint64_t stall_ms_ = 0;
  std::vector<WatchdogSlotView> capture_;  ///< freshest heartbeat table
};

/// Everything beyond the watchdog's own data that a black-box dump can
/// carry; owners fill what they have (all optional).
struct WatchdogDumpContext {
  const char* origin = "machine";          ///< "machine" | "campaign" | ...
  const Diagnosis* diagnosis = nullptr;    ///< stalled-set explanation
  const HostProfile* host = nullptr;       ///< per-shard host counters
  const std::vector<TraceEvent>* trace_tail = nullptr;  ///< bounded by caller
};

/// Render the black-box dump JSON (marker key "watchdog_dump", schema
/// util::kWatchdogDumpSchemaVersion). Byte-stable given identical inputs;
/// the wall-clock fields inside are of course run-specific.
std::string render_watchdog_dump(const WatchdogReport& rep,
                                 const WatchdogDumpContext& ctx);

/// Write the dump to `path`; returns false (without throwing) when the
/// file cannot be written — a watchdog must never turn a diagnosis into a
/// second failure.
bool write_watchdog_dump(const std::string& path, const WatchdogReport& rep,
                         const WatchdogDumpContext& ctx);

/// The dump step of a trip: write the dump to `path` unless it is empty,
/// and return what the WatchdogError message should say about it —
/// "; dump: <path>", "; dump not written: <path>" when the file could not
/// be written, or "" when no path is configured.
std::string dump_on_trip(const std::string& path, const WatchdogReport& rep,
                         const WatchdogDumpContext& ctx);

}  // namespace ftsort::sim
