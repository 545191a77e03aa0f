#include "support.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (const char c : name)
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  return true;
}

std::size_t samples_beyond(std::size_t n, double p) {
  return static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (100.0 - p) / 100.0));
}

std::optional<double> tail_percentile(const ftsort::util::SampleSet& samples,
                                      double p) {
  if (samples.empty() || samples_beyond(samples.count(), p) < 10)
    return std::nullopt;
  return samples.percentile(p);
}

std::string describe_percentile(const ftsort::util::SampleSet& samples,
                                double p, std::string_view unit) {
  const std::string n = std::to_string(samples.count());
  if (const auto v = tail_percentile(samples, p))
    return format_number(*v) + " " + std::string(unit) + " (n=" + n + ")";
  char pct[16];
  std::snprintf(pct, sizeof pct, "%g", p);
  return "n/a (n=" + n + ", needs >=10 samples beyond p" + pct + ")";
}

std::string format_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void Report::add(std::string name, double value, std::string unit) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("malformed metric name: " + name);
  if (has(name)) throw std::invalid_argument("duplicate metric: " + name);
  if (!std::isfinite(value))
    throw std::invalid_argument("non-finite value for metric " + name);
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::fail(std::string why) { failures_.push_back(std::move(why)); }

void Report::check(bool ok, const std::string& what) {
  if (!ok) fail(what);
}

bool Report::has(std::string_view name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return true;
  return false;
}

double Report::value(std::string_view name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return m.value;
  throw std::out_of_range("no metric " + std::string(name));
}

void Report::print_table(std::ostream& os) const {
  for (const Metric& m : metrics_)
    os << "  " << m.name << " = " << format_number(m.value) << ' ' << m.unit
       << '\n';
}

std::string Report::json_line() const {
  std::string out = "{\"correct\": ";
  out += failures_.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failures_.size());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i != 0) out += ", ";
    out += '"' + m.name + "\": {\"value\": " + format_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

SpanRecorder::Scope SpanRecorder::span(std::string name) {
  if (!enabled_) return Scope(nullptr, 0);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.op = op_;
  s.name = std::move(name);
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return Scope(this, spans_.size() - 1);
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  rec_->spans_[index_].end_ns = rec_->now_ns();
  rec_->open_.pop_back();
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

double SpanRecorder::self_ms(std::string_view module) const {
  // Spans are recorded by one thread and close in LIFO order, so direct
  // children of a span never overlap: their durations sum to the time
  // they cover.
  std::vector<std::int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& s : spans_)
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::int64_t self = 0;
  for (const Span& s : spans_) {
    const std::string_view name(s.name);
    if (name.size() > module.size() && name.substr(0, module.size()) == module &&
        name[module.size()] == '.')
      self += (s.end_ns - s.start_ns) - child_ns[s.id];
  }
  return static_cast<double>(self) / 1e6;
}

void SpanRecorder::write_json(std::ostream& os) const {
  os << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << s.id
       << ", \"parent\": " << s.parent << ", \"op\": " << s.op
       << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
       << ", \"end_ns\": " << s.end_ns << '}';
  }
  os << "\n]}\n";
}

}  // namespace perfbench
