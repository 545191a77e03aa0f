#include "sim/watchdog.hpp"

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/machine.hpp"
#include "sim/phase.hpp"
#include "util/contracts.hpp"
#include "util/json.hpp"
#include "util/schema.hpp"

namespace ftsort::sim {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ms_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(to - from)
          .count());
}

}  // namespace

std::size_t Watchdog::add_slot(std::string label) {
  FTSORT_REQUIRE(!started_);
  slots_.push_back(std::make_unique<Slot>(std::move(label)));
  return slots_.size() - 1;
}

void Watchdog::set_activity_namer(
    std::function<std::string(std::uint64_t)> namer) {
  FTSORT_REQUIRE(!started_);
  namer_ = std::move(namer);
}

void Watchdog::on_trip(std::function<void()> fn) {
  FTSORT_REQUIRE(!started_);
  on_trip_ = std::move(fn);
}

void Watchdog::start() {
  if (!cfg_.enabled) return;
  const std::lock_guard<std::mutex> guard(mu_);
  FTSORT_REQUIRE(!started_);
  started_ = true;
  stop_ = false;
  monitor_ = std::thread([this] { run_monitor(); });
}

void Watchdog::stop() {
  {
    const std::lock_guard<std::mutex> guard(mu_);
    if (!started_) return;
    stop_ = true;
  }
  cv_.notify_all();
  monitor_.join();
  const std::lock_guard<std::mutex> guard(mu_);
  started_ = false;
}

void Watchdog::run_monitor() {
  const auto start = Clock::now();
  auto last_change = start;
  std::vector<std::uint64_t> last_beats(slots_.size(), 0);
  std::vector<Clock::time_point> slot_change(slots_.size(), start);
  std::uint64_t last_sum = 0;
  std::uint64_t max_gap_ms = 0;

  // The freshest heartbeat table, rebuilt every poll under mu_ so report()
  // (the progress line, the end-of-run stats) always has current ages.
  const auto capture = [&](Clock::time_point now) {
    capture_.clear();
    capture_.reserve(slots_.size());
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const Slot& s = *slots_[i];
      WatchdogSlotView view;
      view.label = s.label;
      view.beats = s.beats.load(std::memory_order_relaxed);
      view.age_ms = ms_between(slot_change[i], now);
      const std::uint64_t act = s.activity.load(std::memory_order_relaxed);
      view.terminal = act == kActivityTerminal;
      // Built as a temporary and move-assigned: GCC 12 at -O3 flags the
      // inlined copy-assignment of a short literal as -Wrestrict (a false
      // positive that breaks the -Werror release build).
      view.activity = view.terminal          ? std::string("terminal")
                      : act == kActivityNone ? std::string("-")
                      : namer_               ? namer_(act)
                                             : std::to_string(act);
      capture_.push_back(std::move(view));
    }
  };

  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    cv_.wait_for(lk, std::chrono::milliseconds(cfg_.interval_ms),
                 [&] { return stop_; });
    if (stop_) break;
    ++polls_;
    const auto now = Clock::now();
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const std::uint64_t b =
          slots_[i]->beats.load(std::memory_order_relaxed);
      if (b != last_beats[i]) {
        last_beats[i] = b;
        slot_change[i] = now;
      }
      sum += b;
    }
    capture(now);
    if (sum != last_sum) {
      // Healthy progress: remember the longest gap we have ever waited
      // between observations — the measured-progress scale for the gate.
      max_gap_ms = std::max(max_gap_ms, ms_between(last_change, now));
      last_sum = sum;
      last_change = now;
      continue;
    }
    const std::uint64_t silent_ms = ms_between(last_change, now);
    effective_deadline_ms_ =
        std::max<std::uint64_t>(cfg_.deadline_ms, kGapHeadroom * max_gap_ms);
    if (silent_ms < effective_deadline_ms_) continue;
    // Breach: global silence past the effective deadline.
    stall_ms_ = silent_ms;
    if (!cfg_.abort_on_trip) {
      ++near_misses_;
      last_change = now;  // re-baseline; keep monitoring
      continue;
    }
    ++trips_;
    const auto fn = on_trip_;
    lk.unlock();
    // Latch *before* the callback: the owner's unwedged threads may check
    // tripped() as soon as they wake.
    tripped_.store(true, std::memory_order_release);
    if (fn) fn();
    return;
  }
  capture(Clock::now());
}

WatchdogReport Watchdog::report_locked() const {
  WatchdogReport rep;
  rep.enabled = cfg_.enabled;
  rep.abort_on_trip = cfg_.abort_on_trip;
  rep.deadline_ms = cfg_.deadline_ms;
  rep.interval_ms = cfg_.interval_ms;
  rep.trips = trips_;
  rep.near_misses = near_misses_;
  rep.polls = polls_;
  rep.effective_deadline_ms = effective_deadline_ms_;
  rep.stall_ms = stall_ms_;
  rep.slots = capture_;
  return rep;
}

WatchdogReport Watchdog::report() const {
  const std::lock_guard<std::mutex> guard(mu_);
  return report_locked();
}

std::string render_watchdog_dump(const WatchdogReport& rep,
                                 const WatchdogDumpContext& ctx) {
  using util::json::Writer;
  std::ostringstream os;
  Writer w(os);
  w.begin_object(Writer::Layout::Lines);
  w.fields("watchdog_dump", true, "schema_version",
           util::kWatchdogDumpSchemaVersion, "origin", ctx.origin, "policy",
           rep.abort_on_trip ? "abort" : "record", "deadline_ms",
           rep.deadline_ms, "effective_deadline_ms", rep.effective_deadline_ms,
           "interval_ms", rep.interval_ms, "trips", rep.trips, "near_misses",
           rep.near_misses, "stall_ms", rep.stall_ms);
  w.key("heartbeats").begin_array(Writer::Layout::Lines);
  for (const WatchdogSlotView& s : rep.slots) {
    w.begin_object();
    w.fields("slot", s.label, "beats", s.beats, "age_ms", s.age_ms,
             "activity", s.activity, "terminal", s.terminal);
    w.end();
  }
  w.end();
  if (ctx.diagnosis != nullptr) {
    const Diagnosis& d = *ctx.diagnosis;
    w.key("diagnosis").begin_object();
    w.fields("triggered", d.triggered(), "kind", diagnosis_kind_name(d.kind),
             "root_kind", diagnosis_root_kind_name(d.root_kind), "root_node",
             d.root_node, "root_phase", phase_name(d.root_phase), "stalled",
             d.stalled, "summary", d.to_string());
    w.end();
  }
  if (ctx.host != nullptr && ctx.host->enabled) {
    const SchedShardProfile total = ctx.host->total();
    w.key("host_profile").begin_object();
    w.fields("shards", ctx.host->shards.size(), "tasks_resumed",
             total.tasks_resumed, "cv_waits", total.cv_waits, "mutex_waits",
             total.mutex_waits, "quiescence_checks",
             ctx.host->quiescence_checks, "quiescence_events",
             ctx.host->quiescence_events);
    w.end();
  }
  if (ctx.trace_tail != nullptr) {
    w.key("trace_tail").begin_array(Writer::Layout::Lines);
    for (const TraceEvent& ev : *ctx.trace_tail) {
      w.begin_object();
      w.fields("seq", ev.seq, "time", ev.time, "node", ev.node, "kind",
               event_kind_name(ev.kind), "phase", phase_name(ev.phase));
      w.end();
    }
    w.end();
  }
  w.end();
  return os.str();
}

bool write_watchdog_dump(const std::string& path, const WatchdogReport& rep,
                         const WatchdogDumpContext& ctx) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << render_watchdog_dump(rep, ctx);
  out.flush();
  return static_cast<bool>(out);
}

std::string dump_on_trip(const std::string& path, const WatchdogReport& rep,
                         const WatchdogDumpContext& ctx) {
  if (path.empty()) return {};
  std::string note = write_watchdog_dump(path, rep, ctx)
                         ? "; dump: "
                         : "; dump not written: ";
  note += path;
  return note;
}

}  // namespace ftsort::sim
