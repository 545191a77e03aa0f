// The one JSON reader (util/json.hpp): DOM unit cases, and the property
// every reader built on it must have — the same answer for any valid
// formatting of the same document. The reformatted copies come from a
// writer local to this file (the DOM itself has none): pretty (indented),
// compact, and compact with every object's members in reverse order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/ft_sorter.hpp"
#include "fault/scenario.hpp"
#include "sim/exporters.hpp"
#include "sim/watchdog.hpp"
#include "sort/distribution.hpp"
#include "tools/ftdiag.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace ftsort {
namespace {

using util::json::Value;

// ---------------------------------------------------------------------------
// DOM unit cases

TEST(JsonDom, ParsesEveryKindAndLooksUpMembersByKey) {
  const util::json::ParseResult r = util::json::parse(
      " {\"n\": null, \"t\": true, \"f\": false, \"i\": -12, \"s\": \"hi\",\n"
      "  \"a\": [1, [2], {}], \"o\": {\"k\": \"v\"}} \r\n\t");
  ASSERT_TRUE(r.ok()) << r.error;
  const Value& doc = r.value;
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.members().size(), 7u);
  EXPECT_EQ(doc["n"].kind(), Value::Kind::Null);
  EXPECT_TRUE(doc["t"].boolean());
  EXPECT_FALSE(doc["f"].boolean(true));
  EXPECT_DOUBLE_EQ(doc["i"].number(), -12.0);
  EXPECT_EQ(doc["s"].string(), "hi");
  ASSERT_EQ(doc["a"].items().size(), 3u);
  EXPECT_DOUBLE_EQ(doc["a"].items()[1].items()[0].number(), 2.0);
  EXPECT_TRUE(doc["a"].items()[2].is_object());
  EXPECT_EQ(doc["o"]["k"].string(), "v");
  // Absent keys and kind mismatches read as the fallback, and lookups
  // chain through them.
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_DOUBLE_EQ(doc["missing"]["deeper"].number(-1.0), -1.0);
  EXPECT_DOUBLE_EQ(doc["s"].number(7.0), 7.0);
  EXPECT_TRUE(doc["i"].string().empty());
  // Member order is document order; a repeated name reads as its last
  // occurrence.
  EXPECT_EQ(doc.members().front().first, "n");
  const util::json::ParseResult dup =
      util::json::parse(R"({"k": 1, "k": 2})");
  ASSERT_TRUE(dup.ok());
  EXPECT_DOUBLE_EQ(dup.value["k"].number(), 2.0);
}

TEST(JsonDom, DecodesEveryEscapeIncludingUnicode) {
  const util::json::ParseResult r = util::json::parse(
      R"(["\"\\\/\b\f\n\r\t", "A\u00e9\u20ac", "\ud83d\ude00", "a\u0000b"])");
  ASSERT_TRUE(r.ok()) << r.error;
  const std::vector<Value>& s = r.value.items();
  EXPECT_EQ(s[0].string(), "\"\\/\b\f\n\r\t");
  EXPECT_EQ(s[1].string(), "A\xC3\xA9\xE2\x82\xAC");
  EXPECT_EQ(s[2].string(), "\xF0\x9F\x98\x80");  // surrogate pair: U+1F600
  EXPECT_EQ(s[3].string(), std::string("a\0b", 3));
}

TEST(JsonDom, ReadsIntegersFractionsAndExponentsExactly) {
  const util::json::ParseResult r = util::json::parse(
      "[0, -0, 14730, 0.32307692307692309, 1e3, 2.5E-3, -1.5e+2, "
      "1000000000009114]");
  ASSERT_TRUE(r.ok()) << r.error;
  const std::vector<Value>& n = r.value.items();
  EXPECT_EQ(n[0].number(), 0.0);
  EXPECT_TRUE(std::signbit(n[1].number()));
  EXPECT_EQ(n[2].number(), 14730.0);
  EXPECT_EQ(n[3].number(), 0.32307692307692309);
  EXPECT_EQ(n[4].number(), 1000.0);
  EXPECT_EQ(n[5].number(), 0.0025);
  EXPECT_EQ(n[6].number(), -150.0);
  EXPECT_EQ(n[7].number(), 1000000000009114.0);
}

TEST(JsonDom, DeepNestingParsesAndRunawayNestingIsRefused) {
  const std::size_t depth = 400;
  const std::string deep =
      std::string(depth, '[') + "7" + std::string(depth, ']');
  const util::json::ParseResult ok = util::json::parse(deep);
  ASSERT_TRUE(ok.ok()) << ok.error;
  const Value* v = &ok.value;
  for (std::size_t i = 0; i < depth; ++i) {
    ASSERT_EQ(v->items().size(), 1u);
    v = &v->items()[0];
  }
  EXPECT_DOUBLE_EQ(v->number(), 7.0);
  // Far past the limit: a clean error, not a stack overflow.
  const util::json::ParseResult runaway =
      util::json::parse(std::string(100000, '[') + std::string(100000, ']'));
  EXPECT_FALSE(runaway.ok());
  EXPECT_NE(runaway.error.find("nesting too deep at byte 512"),
            std::string::npos)
      << runaway.error;
}

TEST(JsonDom, TruncatedInputAndTrailingGarbageNameTheOffset) {
  const std::string doc = R"({"a": [1, 2], "b": "text"})";
  for (std::size_t cut = 0; cut < doc.size(); ++cut) {
    const util::json::ParseResult r = util::json::parse(doc.substr(0, cut));
    std::ostringstream expected;
    expected << "unexpected end of input at byte " << cut;
    EXPECT_EQ(r.error, expected.str());
    EXPECT_EQ(r.value.kind(), Value::Kind::Null);
  }
  const util::json::ParseResult garbage = util::json::parse(doc + " x");
  std::ostringstream expected;
  expected << "trailing characters after the JSON value at byte "
           << doc.size() + 1;
  EXPECT_EQ(garbage.error, expected.str());
  EXPECT_FALSE(util::json::parse(doc + doc).ok());
  EXPECT_FALSE(util::json::parse("").ok());
}

TEST(JsonDom, RejectsEveryMalformedToken) {
  for (const char* bad :
       {R"({"a" 1})", "[1,]", R"({"a": 1,})", "[1 2]", "{1: 2}", "01",
        "1.", ".5", "-", "1e", "+1", "'a'", "tru e", "nulls", "[nan]",
        "1e999", R"("\x")", R"("\u12G4")", "\"a\nb\"", R"("\udc00")",
        R"("\ud800")", R"("\ud800A")", "[\"a\"}", "{\"a\": 1]"}) {
    const util::json::ParseResult r = util::json::parse(bad);
    EXPECT_FALSE(r.ok()) << bad;
    EXPECT_NE(r.error.find(" at byte "), std::string::npos) << bad;
  }
}

TEST(JsonDom, ObjectKeysCollectsNestedMemberNames) {
  const util::json::ParseResult r = util::json::parse(
      R"({"a": {"b": 1}, "c": [{"d": 2}, "e"], "f": "g"})");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(util::json::object_keys(r.value),
            (std::set<std::string>{"a", "b", "c", "d", "f"}));
}

// ---------------------------------------------------------------------------
// Same answer in any formatting

enum class Style { Pretty, Compact, Reversed };

void put_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

/// Re-serialize `v`. %.17g round-trips every double, so each copy holds
/// the same values as the original, only formatted differently.
void put(std::string& out, const Value& v, Style style, int depth) {
  const bool pretty = style == Style::Pretty;
  const auto newline = [&](int d) {
    if (pretty) {
      out += '\n';
      out.append(2 * static_cast<std::size_t>(d), ' ');
    }
  };
  switch (v.kind()) {
    case Value::Kind::Null: out += "null"; break;
    case Value::Kind::Bool: out += v.boolean() ? "true" : "false"; break;
    case Value::Kind::Number: {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v.number());
      out += buf;
      break;
    }
    case Value::Kind::String: put_string(out, v.string()); break;
    case Value::Kind::Array:
      out += '[';
      for (std::size_t i = 0; i < v.items().size(); ++i) {
        if (i != 0) out += ',';
        newline(depth + 1);
        put(out, v.items()[i], style, depth + 1);
      }
      if (!v.items().empty()) newline(depth);
      out += ']';
      break;
    case Value::Kind::Object: {
      std::vector<const Value::Member*> members;
      for (const Value::Member& m : v.members()) members.push_back(&m);
      if (style == Style::Reversed)
        std::reverse(members.begin(), members.end());
      out += '{';
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i != 0) out += ',';
        newline(depth + 1);
        put_string(out, members[i]->first);
        out += pretty ? ": " : ":";
        put(out, members[i]->second, style, depth + 1);
      }
      if (!members.empty()) newline(depth);
      out += '}';
      break;
    }
  }
}

std::string reformat(const std::string& text, Style style) {
  const util::json::ParseResult r = util::json::parse(text);
  EXPECT_TRUE(r.ok()) << r.error;
  std::string out;
  put(out, r.value, style, 0);
  return out;
}

std::string read_fixture(const char* relative) {
  std::ifstream in(std::string(FTSORT_SOURCE_DIR) + "/" + relative,
                   std::ios::binary);
  EXPECT_TRUE(in) << relative;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Everything every ftdiag subcommand (and the trace validator) says
/// about one document, concatenated: stdout and exit code per reader.
std::string all_readers(const std::string& text, std::size_t* accepted) {
  // One file per test: ctest runs the test cases as parallel processes.
  const std::string path =
      std::string("json_property_") +
      testing::UnitTest::GetInstance()->current_test_info()->name() + ".json";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  const char* p = path.c_str();
  const std::vector<std::vector<const char*>> commands = {
      {"explain", p},          {"diff", p, p},
      {"hotspots", p},         {"hotspots", p, "--top", "2"},
      {"hotspots", p, p},      {"campaign", p},
      {"campaign", p, p},      {"lineage", p},
      {"lineage", p, "--audit"}, {"lineage", p, "--top", "3"},
      {"lineage", p, "--key", "5"}, {"stuck", p}};
  std::ostringstream said;
  for (const std::vector<const char*>& c : commands) {
    std::vector<const char*> argv = {"ftdiag"};
    argv.insert(argv.end(), c.begin(), c.end());
    std::ostringstream out;
    std::ostringstream err;
    const int code = tools::run_cli(static_cast<int>(argv.size()),
                                    argv.data(), out, err);
    if (code != 2) ++*accepted;
    said << c[0] << " -> " << code << "\n" << out.str();
  }
  std::string why;
  const bool valid = sim::validate_chrome_trace(text, &why);
  said << "validate_chrome_trace -> " << valid << " " << why << "\n";
  std::remove(p);
  return said.str();
}

void expect_same_in_every_formatting(const std::string& name,
                                     const std::string& text,
                                     std::size_t* accepted) {
  const std::string original = all_readers(text, accepted);
  for (const Style style : {Style::Pretty, Style::Compact, Style::Reversed}) {
    std::size_t ignored = 0;
    EXPECT_EQ(all_readers(reformat(text, style), &ignored), original)
        << name << " style " << static_cast<int>(style);
  }
}

TEST(JsonFormatting, CheckedInFixturesReadTheSameInAnyFormatting) {
  std::size_t accepted = 0;
  for (const char* fixture :
       {"BENCH_sort.json", "bench/BENCH_baseline.json",
        "bench/BENCH_campaign_baseline.json", "bench/metrics_schema.json",
        "bench/campaign_schema.json"})
    expect_same_in_every_formatting(fixture, read_fixture(fixture),
                                    &accepted);
  // diff, both hotspots modes on the bench exports; campaign twice on the
  // campaign baseline — the property is not vacuous.
  EXPECT_GE(accepted, 10u);
}

TEST(JsonFormatting, HistoryLinesReadTheSameCompactOrKeyReversed) {
  const std::string jsonl = read_fixture("bench/BENCH_history.jsonl");
  const auto history = [](const std::string& text) {
    const tools::HistoryResult r =
        tools::history_trends(text, "makespan", 3, 20.0);
    return std::to_string(r.ok) + r.error + r.text;
  };
  const std::string original = history(jsonl);
  EXPECT_NE(original.find("trend(s)"), std::string::npos) << original;
  // A JSONL line must stay on one line: compact and key-reversed only.
  for (const Style style : {Style::Compact, Style::Reversed}) {
    std::string copy;
    std::istringstream lines(jsonl);
    for (std::string line; std::getline(lines, line);)
      copy += reformat(line, style) + "\n";
    EXPECT_EQ(history(copy), original) << static_cast<int>(style);
  }
}

TEST(JsonFormatting, GeneratedExportsReadTheSameInAnyFormatting) {
  util::Rng rng(1703);
  const fault::FaultSet faults = fault::random_faults(3, 1, rng);
  const auto keys = sort::gen_uniform(200, rng);
  core::SortConfig cfg;
  cfg.online_recovery = true;
  cfg.injector.kill_node_at(6, 2000.0);
  cfg.record_metrics = true;
  cfg.record_trace = true;
  cfg.record_link_stats = true;
  cfg.record_lineage = true;
  const core::SortOutcome out =
      core::FaultTolerantSorter(3, faults, cfg).sort(keys);
  ASSERT_FALSE(out.report.killed_nodes.empty());

  std::ostringstream metrics;
  sim::write_metrics_json(metrics, out.report);
  std::ostringstream trace;
  sim::ChromeTraceOptions opts;
  opts.cost = &out.report.cost;
  opts.lineage = &out.report.lineage;
  sim::write_chrome_trace(trace, out.trace_events, 8, opts);
  sim::WatchdogReport rep;
  rep.enabled = true;
  rep.deadline_ms = 50;
  rep.interval_ms = 5;
  rep.trips = 1;
  rep.effective_deadline_ms = 60;
  rep.stall_ms = 75;
  rep.slots.push_back({"node 0", 12, 75, "step5_merge_exchange", false});
  rep.slots.push_back({"node 1", 40, 2, "terminal", true});
  sim::WatchdogDumpContext ctx;
  ctx.diagnosis = &out.report.diagnosis;
  const std::string dump = sim::render_watchdog_dump(rep, ctx);

  std::size_t accepted = 0;
  expect_same_in_every_formatting("metrics", metrics.str(), &accepted);
  EXPECT_GE(accepted, 7u);  // diff, hotspots x3, lineage x4
  accepted = 0;
  expect_same_in_every_formatting("trace", trace.str(), &accepted);
  EXPECT_EQ(accepted, 1u);  // explain
  accepted = 0;
  expect_same_in_every_formatting("dump", dump, &accepted);
  EXPECT_EQ(accepted, 1u);  // stuck
}

}  // namespace
}  // namespace ftsort
