// The one JSON reader: a small document model for RFC 8259 text, behind
// every tool that reads this repository's exports back (tools/ftdiag,
// sim::validate_chrome_trace, the bench_harness and bench_campaign gates).
//
// Readers navigate by key and by array position, never by text position,
// so every valid formatting of a document — pretty, compact, keys in any
// order — gives the same answer. Parsing is strict: truncated input,
// trailing garbage, bad escapes and bare control characters are refused
// with the byte offset of the first problem, which the readers report as
// a parse error (exit 2) instead of an empty result.
#pragma once

#include <cstddef>
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

}  // namespace ftsort::util::json
