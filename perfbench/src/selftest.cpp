// Unit checks of the benchmark's own helpers (support.hpp). Exit code 0
// when every check holds; each failure is printed.
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "support.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cout << "FAILED: " << what << '\n';
  }
}

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void metric_names() {
  using perfbench::valid_metric_name;
  for (const char* ok : {"setup_s", "sim.phase.step3_local_sort.critical_us",
                         "campaign.trial_ms_p50.r0", "a-b", "9lives"})
    expect(valid_metric_name(ok), std::string("accepts ") + ok);
  for (const char* bad : {"", ".lead", "_lead", "has space", "slash/ed",
                          "quote\"d", "unicode\xc2\xb5"})
    expect(!valid_metric_name(bad), std::string("rejects '") + bad + "'");
  expect(!valid_metric_name(std::string(65, 'a')), "rejects 65 letters");

  perfbench::Report rep;
  expect(throws([&] { rep.add("bad name", 1.0, "ms"); }),
         "Report::add refuses a malformed name");
  rep.add("x", 1.0, "ms");
  expect(throws([&] { rep.add("x", 2.0, "ms"); }),
         "Report::add refuses a duplicate");
  expect(throws([&] { rep.add("y", 1.0 / 0.0, "ms"); }),
         "Report::add refuses a non-finite value");
}

void percentiles() {
  using perfbench::samples_beyond;
  using perfbench::tail_percentile;
  expect(samples_beyond(100, 90) == 10, "100 samples: 10 beyond p90");
  expect(samples_beyond(99, 90) == 9, "99 samples: 9 beyond p90");
  expect(samples_beyond(20, 50) == 10, "20 samples: 10 beyond p50");

  ftsort::util::SampleSet s;
  for (int i = 1; i <= 99; ++i) s.add(i);
  expect(!tail_percentile(s, 90), "p90 withheld at 99 samples");
  expect(tail_percentile(s, 50).has_value(), "p50 reported at 99 samples");
  const std::string withheld = perfbench::describe_percentile(s, 90, "ms");
  expect(withheld.find("n/a") != std::string::npos &&
             withheld.find("n=99") != std::string::npos,
         "withheld p90 says n/a and prints the count: " + withheld);
  s.add(100);
  const auto p90 = tail_percentile(s, 90);
  expect(p90.has_value() && *p90 > 89.0 && *p90 < 92.0,
         "p90 reported at 100 samples");
  const std::string shown = perfbench::describe_percentile(s, 90, "ms");
  expect(shown.find("(n=100)") != std::string::npos,
         "reported p90 prints the count: " + shown);

  ftsort::util::SampleSet few;
  for (int i = 0; i < 19; ++i) few.add(i);
  expect(!tail_percentile(few, 50), "median withheld below 20 samples");
}

void result_line() {
  perfbench::Report rep;
  rep.attempt(3);
  rep.add("latency_ms", 1.25, "ms");
  rep.add("keys_per_s", 3e6, "keys/s");
  expect(rep.json_line() ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
             "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
             "\"ms\"}, \"keys_per_s\": {\"value\": 3e+06, \"unit\": "
             "\"keys/s\"}}}",
         "result line: " + rep.json_line());
  rep.check(false, "deliberate");
  expect(rep.failed() == 1 &&
             rep.json_line().find("\"correct\": false, \"attempted\": 3, "
                                  "\"failed\": 1") != std::string::npos,
         "a failed check flips correct and counts");
  expect(perfbench::format_number(0.1) == "0.1", "shortest spelling");
}

void spans() {
  perfbench::SpanRecorder off(false);
  { const auto s = off.span("core.sort"); }
  expect(off.spans().empty(), "disabled recorder keeps nothing");

  perfbench::SpanRecorder rec(true);
  rec.next_op();
  {
    const auto root = rec.span("core.outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    {
      const auto child = rec.span("sort.inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  expect(rec.spans().size() == 2, "two spans recorded");
  if (rec.spans().size() == 2) {
    expect(rec.spans()[1].parent == rec.spans()[0].id, "child names parent");
    expect(rec.spans()[0].op == rec.spans()[1].op, "spans share the op id");
  }
  const double inner = rec.self_ms("sort");
  const double outer = rec.self_ms("core");
  expect(inner >= 20.0, "child self time covers its sleep");
  expect(outer >= 5.0 && outer < inner,
         "parent self time excludes the child");
  expect(rec.self_ms("cor") == 0.0, "module match is by whole prefix");
}

}  // namespace

int main() {
  metric_names();
  percentiles();
  result_line();
  spans();
  if (g_failures == 0) std::cout << "perfbench self-test: all checks passed\n";
  return g_failures == 0 ? 0 : 1;
}
