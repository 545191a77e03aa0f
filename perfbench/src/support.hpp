// Benchmark-side plumbing that does not touch the library under test: the
// metric report and its one-line JSON result, the tail-percentile rule, and
// the in-memory span recorder of traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

/// Metric names are `[A-Za-z0-9_.-]+`, starting with a letter or digit.
bool valid_metric_name(std::string_view name);

/// Samples strictly beyond the p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// The p-th percentile of `samples`, or nullopt when fewer than ten samples
/// lie beyond it: a tail read from fewer points is noise, not a tail.
std::optional<double> tail_percentile(const ftsort::util::SampleSet& samples,
                                      double p);

/// "<value> <unit> (n=<count>)" or "n/a (n=<count>, needs >=10 beyond pNN)".
std::string describe_percentile(const ftsort::util::SampleSet& samples,
                                double p, std::string_view unit);

/// Every metric and check outcome of one run. `attempted` counts the
/// operations the run issued (sorts, trials, campaigns); a failed operation
/// or a failed whole-run check each add one to `failed`.
class Report {
 public:
  /// Record a metric; throws std::invalid_argument on a malformed name, a
  /// duplicate, or a non-finite value.
  void add(std::string name, double value, std::string unit);
  void attempt(std::uint64_t ops = 1) { attempted_ += ops; }
  /// Count a failure and keep its reason for the human-readable output.
  void fail(std::string why);
  /// fail(what) unless ok.
  void check(bool ok, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failures_.size(); }
  const std::vector<std::string>& failures() const { return failures_; }
  bool has(std::string_view name) const;
  double value(std::string_view name) const;

  /// One "name = value unit" line per metric.
  void print_table(std::ostream& os) const;
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string json_line() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::vector<std::string> failures_;
};

/// Shortest round-trip decimal spelling of a finite double.
std::string format_number(double v);

/// Spans of a traced run, kept in memory and written out when it ends.
/// A span is (id, parent, op, name, start, end); `op` groups the spans of
/// one measured operation. Disabled recorders hand out inert scopes, so
/// untraced runs pay one branch per call site.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 for a root span
    std::uint64_t op = 0;
    std::string name;          ///< "<module>.<call>"
    std::int64_t start_ns = 0;  ///< since the recorder was created
    std::int64_t end_ns = 0;
  };

  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    friend class SpanRecorder;
    Scope(SpanRecorder* rec, std::size_t index) : rec_(rec), index_(index) {}
    SpanRecorder* rec_;
    std::size_t index_;
  };

  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), origin_(Clock::now()) {}

  /// Start a new operation id for the spans opened after this call.
  std::uint64_t next_op() { return ++op_; }
  /// Open a span; it closes when the scope ends. Spans nest by scope.
  [[nodiscard]] Scope span(std::string name);

  const std::vector<Span>& spans() const { return spans_; }
  /// Σ (duration − time covered by direct children) over the spans whose
  /// name starts with "<module>.", in ms.
  double self_ms(std::string_view module) const;
  void write_json(std::ostream& os) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices of open spans, innermost last
};

}  // namespace perfbench
