#include "sim/trace.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "sim/machine.hpp"

namespace ftsort::sim {

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::Send: return "send";
    case EventKind::Recv: return "recv";
    case EventKind::Compute: return "compute";
    case EventKind::Drop: return "drop";
    case EventKind::Timeout: return "timeout";
    case EventKind::Kill: return "kill";
    case EventKind::SpanBegin: return "span_begin";
    case EventKind::SpanEnd: return "span_end";
  }
  return "?";
}

void Trace::reshard(std::uint32_t num_shards) {
  rings_.assign(std::max<std::uint32_t>(num_shards, 1), Ring{});
}

void Trace::record(TraceEvent ev) {
  if (!enabled_) return;
  Ring& r = rings_[ev.node < rings_.size() ? static_cast<std::size_t>(ev.node)
                                           : 0];
  ev.seq = next_seq_++;
  if (capacity_ == 0 || r.ring.size() < capacity_) {
    r.ring.push_back(ev);
    return;
  }
  // Ring full: overwrite the oldest retained event.
  if (r.head >= r.ring.size()) r.head = 0;  // after a shrink
  r.ring[r.head] = ev;
  r.head = (r.head + 1) % r.ring.size();
  ++r.dropped;
}

void Trace::clear() {
  for (Ring& r : rings_) {
    r.ring.clear();
    r.head = 0;
    r.dropped = 0;
  }
}

std::size_t Trace::size() const {
  std::size_t total = 0;
  for (const Ring& r : rings_) total += r.ring.size();
  return total;
}

std::uint64_t Trace::dropped() const {
  std::uint64_t total = 0;
  for (const Ring& r : rings_) total += r.dropped;
  return total;
}

std::vector<TraceEvent> Trace::snapshot() const {
  std::vector<TraceEvent> events;
  for (const Ring& r : rings_)
    events.insert(events.end(), r.ring.begin(), r.ring.end());
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.seq < b.seq; });
  return events;
}

std::vector<TraceEvent> Trace::run_events() const {
  std::vector<TraceEvent> events = snapshot();
  std::erase_if(events,
                [this](const TraceEvent& ev) { return ev.seq < run_start_; });
  return events;
}

std::uint64_t Trace::run_dropped() const {
  // clear() zeroes the counters, so a count below the mark is this run's.
  const std::uint64_t now = dropped();
  return now >= dropped_mark_ ? now - dropped_mark_ : now;
}

void Trace::on_run_start() {
  run_start_ = next_seq_;
  dropped_mark_ = dropped();
}

void Trace::collect(RunReport& report) const {
  report.trace_dropped = run_dropped();
}

std::string Trace::to_string(std::size_t max_lines) const {
  const std::vector<TraceEvent> events = snapshot();
  std::ostringstream os;
  std::size_t shown = 0;
  for (const auto& ev : events) {
    if (shown++ >= max_lines) {
      os << "... (" << events.size() - max_lines << " more events)\n";
      break;
    }
    os << std::fixed << std::setprecision(1) << std::setw(12) << ev.time
       << "us  node " << std::setw(3) << ev.node << "  "
       << (ev.kind == EventKind::SpanBegin ? "begin"
           : ev.kind == EventKind::SpanEnd ? "end"
                                            : event_kind_name(ev.kind));
    if (ev.kind == EventKind::Compute)
      os << " comparisons=" << ev.keys;
    else if (ev.kind == EventKind::Kill)
      os << " (processor dies)";
    else if (ev.kind == EventKind::SpanBegin ||
             ev.kind == EventKind::SpanEnd)
      os << " phase=" << phase_name(ev.phase);
    else
      os << (ev.kind == EventKind::Send ? " -> " : " <- ") << ev.peer
         << " tag=" << ev.tag << " keys=" << ev.keys
         << " hops=" << ev.hops;
    os << '\n';
  }
  return os.str();
}

}  // namespace ftsort::sim
