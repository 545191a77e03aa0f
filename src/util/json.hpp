// The one JSON reader and the one JSON writer.
//
// Reader: a small document model for RFC 8259 text, behind every tool
// that reads this repository's exports back (tools/ftdiag,
// sim::validate_chrome_trace, the bench_harness and bench_campaign gates).
// Readers navigate by key and by array position, never by text position,
// so every valid formatting of a document — pretty, compact, keys in any
// order — gives the same answer. Parsing is strict: truncated input,
// trailing garbage, bad escapes and bare control characters are refused
// with the byte offset of the first problem, which the readers report as
// a parse error (exit 2) instead of an empty result.
//
// Writer: every export (the metrics JSON, the Chrome trace, the campaign
// JSON, the watchdog dump, BENCH_sort.json and its history line) goes
// through it, so they share one number format and one escaper. Doubles
// print with 17 significant digits, which re-parses to the same bits;
// integers print exactly; strings are fully escaped. The writer places
// every separator and every line break; the caller only says where a
// break goes.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <ranges>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ftsort::util::json {

class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };
  using Member = std::pair<std::string, Value>;

  Kind kind() const { return kind_; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  /// Scalar contents; `fallback` (or the empty string) for any other kind.
  bool boolean(bool fallback = false) const;
  double number(double fallback = 0.0) const;
  const std::string& string() const { return string_; }

  /// Array elements in order; empty for any other kind.
  const std::vector<Value>& items() const { return items_; }
  /// Object members in document order; empty for any other kind.
  const std::vector<Member>& members() const { return members_; }

  /// Member `key` of an object (the last one when a name repeats), or
  /// nullptr when absent or when this is not an object.
  const Value* find(std::string_view key) const;
  /// `*find(key)`, or a null value: lookups chain without a check per
  /// level (`doc["links"]["total"]["key_hops"].number()`).
  const Value& operator[](std::string_view key) const;

 private:
  friend class Parser;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> items_;
  std::vector<Member> members_;
};

struct ParseResult {
  Value value;        ///< the document; null when parsing failed
  std::string error;  ///< empty on success, else "<problem> at byte <offset>"
  bool ok() const { return error.empty(); }
};

/// Parse one complete JSON text: a single value, optionally surrounded by
/// whitespace.
ParseResult parse(std::string_view text);

/// Read the file at `path` and parse it; "cannot open <path>" when it
/// cannot be read.
ParseResult parse_file(const std::string& path);

/// Every member name of every object in `v`, nested objects included —
/// what a required-keys schema gate checks against.
std::set<std::string> object_keys(const Value& v);

/// Streams one JSON document to an ostream. A container is Inline (its
/// members separated by ", ") or Lines (each member on a line of its own,
/// indented `indent` spaces per open container, and the closing bracket on
/// a line of its own). Inside an Inline container, line() or wrap() start
/// the next member on a new line. Closing the outermost container ends the
/// document with a newline.
class Writer {
 public:
  enum class Layout { Inline, Lines };

  explicit Writer(std::ostream& os, int indent = 2)
      : os_(os), indent_(indent) {}

  Writer& begin_object(Layout layout = Layout::Inline) {
    return begin('{', '}', layout);
  }
  Writer& begin_array(Layout layout = Layout::Inline) {
    return begin('[', ']', layout);
  }
  /// Close the innermost open object or array.
  Writer& end();

  /// The name of the next object member.
  Writer& key(std::string_view name);
  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(bool b) { return scalar(b ? "true" : "false"); }
  Writer& value(double v);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Writer& value(T v) {
    char buf[24];
    const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    return scalar(std::string_view(buf, static_cast<std::size_t>(end - buf)));
  }
  /// A range of values is an inline array.
  template <std::ranges::input_range R>
    requires(!std::convertible_to<const R&, std::string_view>)
  Writer& value(const R& range) {
    begin_array();
    for (const auto& v : range) value(v);
    return end();
  }
  Writer& null() { return scalar("null"); }
  /// `v` with `digits` decimals, for host readings that carry no more
  /// precision than that (a load average).
  Writer& fixed(double v, int digits);

  /// key(name), value(v) for each (name, v) pair in order.
  template <typename T, typename... More>
  Writer& fields(std::string_view name, const T& v, const More&... more) {
    key(name).value(v);
    if constexpr (sizeof...(more) > 0) fields(more...);
    return *this;
  }

  /// Start the next member on a new line, indented like a Lines member.
  Writer& line() { return brk(Break::Line); }
  /// Start the next member on a new line, one column past the innermost
  /// open bracket.
  Writer& wrap() { return brk(Break::Wrap); }

 private:
  enum class Break { None, Line, Wrap };
  struct Frame {
    char close;
    bool lines;
    bool empty;
    std::size_t column;  ///< column of the opening bracket
  };

  Writer& begin(char open, char close, Layout layout);
  /// Separator and line break before a member or element.
  void separate();
  Writer& scalar(std::string_view text);
  Writer& brk(Break b) {
    pending_ = b;
    return *this;
  }
  void put(std::string_view s);
  void newline(std::size_t spaces);

  std::ostream& os_;
  int indent_;
  std::vector<Frame> stack_;
  Break pending_ = Break::None;
  bool after_key_ = false;
  std::size_t column_ = 0;
};

}  // namespace ftsort::util::json
