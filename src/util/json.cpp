#include "util/json.hpp"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <system_error>

namespace ftsort::util::json {

namespace {

/// Containers nested deeper than this are refused, not recursed into: the
/// parser recurses once per level and its input comes from outside.
constexpr int kMaxDepth = 512;

bool is_digit(char c) { return c >= '0' && c <= '9'; }

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

void collect_keys(const Value& v, std::set<std::string>& out) {
  for (const Value::Member& m : v.members()) {
    out.insert(m.first);
    collect_keys(m.second, out);
  }
  for (const Value& item : v.items()) collect_keys(item, out);
}

}  // namespace

bool Value::boolean(bool fallback) const {
  return kind_ == Kind::Bool ? bool_ : fallback;
}

double Value::number(double fallback) const {
  return kind_ == Kind::Number ? number_ : fallback;
}

const Value* Value::find(std::string_view key) const {
  for (auto it = members_.rbegin(); it != members_.rend(); ++it)
    if (it->first == key) return &it->second;
  return nullptr;
}

const Value& Value::operator[](std::string_view key) const {
  static const Value null;
  const Value* v = find(key);
  return v != nullptr ? *v : null;
}

/// Recursive-descent parser over one text; fills Value's private fields.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  ParseResult run() {
    ParseResult res;
    skip_ws();
    if (parse_value(res.value, 0)) {
      skip_ws();
      if (pos_ == text_.size()) return res;
      fail("trailing characters after the JSON value");
    }
    res.value = Value();
    res.error = error_;
    return res;
  }

 private:
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool fail(const char* what) {
    error_ = std::string(pos_ >= text_.size() ? "unexpected end of input"
                                              : what) +
             " at byte " + std::to_string(pos_);
    return false;
  }

  bool parse_value(Value& out, int depth) {
    switch (peek()) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"':
        out.kind_ = Value::Kind::String;
        return parse_string(out.string_);
      case 't': return parse_literal("true", Value::Kind::Bool, true, out);
      case 'f': return parse_literal("false", Value::Kind::Bool, false, out);
      case 'n': return parse_literal("null", Value::Kind::Null, false, out);
      default: return parse_number(out);
    }
  }

  bool parse_literal(std::string_view word, Value::Kind kind, bool flag,
                     Value& out) {
    if (text_.substr(pos_, word.size()) != word) {
      if (word.starts_with(text_.substr(pos_))) pos_ = text_.size();
      return fail("invalid literal");
    }
    pos_ += word.size();
    out.kind_ = kind;
    out.bool_ = flag;
    return true;
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (peek() == '0') {
      ++pos_;
    } else if (is_digit(peek())) {
      while (is_digit(peek())) ++pos_;
    } else {
      return fail("expected a value");
    }
    if (peek() == '.') {
      ++pos_;
      if (!is_digit(peek())) return fail("expected a digit after '.'");
      while (is_digit(peek())) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!is_digit(peek())) return fail("expected a digit in the exponent");
      while (is_digit(peek())) ++pos_;
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, out.number_);
    if (ec != std::errc() || end != last) {
      pos_ = start;
      return fail("number out of range");
    }
    out.kind_ = Value::Kind::Number;
    return true;
  }

  bool parse_hex4(std::uint32_t& cp) {
    cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = peek();
      std::uint32_t digit = 0;
      if (is_digit(h))
        digit = static_cast<std::uint32_t>(h - '0');
      else if (h >= 'a' && h <= 'f')
        digit = static_cast<std::uint32_t>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F')
        digit = static_cast<std::uint32_t>(h - 'A' + 10);
      else
        return fail("invalid \\u escape");
      cp = cp * 16 + digit;
      ++pos_;
    }
    return true;
  }

  /// `\uXXXX` with pos_ on the 'u'; a surrogate pair makes one code point.
  bool parse_unicode_escape(std::string& out) {
    ++pos_;
    std::uint32_t cp = 0;
    if (!parse_hex4(cp)) return false;
    if (cp >= 0xDC00 && cp <= 0xDFFF) return fail("unpaired surrogate");
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (text_.substr(pos_, 2) != "\\u") return fail("unpaired surrogate");
      pos_ += 2;
      std::uint32_t low = 0;
      if (!parse_hex4(low)) return false;
      if (low < 0xDC00 || low > 0xDFFF) return fail("unpaired surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    append_utf8(out, cp);
    return true;
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (true) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("control character in string");
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      switch (peek()) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u':
          if (!parse_unicode_escape(out)) return false;
          continue;
        default: return fail("invalid escape");
      }
      ++pos_;
    }
  }

  bool parse_array(Value& out, int depth) {
    if (depth >= kMaxDepth) return fail("nesting too deep");
    ++pos_;
    out.kind_ = Value::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      out.items_.emplace_back();
      if (!parse_value(out.items_.back(), depth + 1)) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
      } else if (peek() == ']') {
        ++pos_;
        return true;
      } else {
        return fail("expected ',' or ']'");
      }
    }
  }

  bool parse_object(Value& out, int depth) {
    if (depth >= kMaxDepth) return fail("nesting too deep");
    ++pos_;
    out.kind_ = Value::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') return fail("expected a member name");
      out.members_.emplace_back();
      Value::Member& member = out.members_.back();
      if (!parse_string(member.first)) return false;
      skip_ws();
      if (peek() != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      if (!parse_value(member.second, depth + 1)) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
      } else if (peek() == '}') {
        ++pos_;
        return true;
      } else {
        return fail("expected ',' or '}'");
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

ParseResult parse(std::string_view text) { return Parser(text).run(); }

ParseResult parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ParseResult res;
    res.error = "cannot open " + path;
    return res;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

std::set<std::string> object_keys(const Value& v) {
  std::set<std::string> keys;
  collect_keys(v, keys);
  return keys;
}

void Writer::put(std::string_view s) {
  os_.write(s.data(), static_cast<std::streamsize>(s.size()));
  column_ += s.size();
}

void Writer::newline(std::size_t spaces) {
  os_ << '\n' << std::string(spaces, ' ');
  column_ = spaces;
}

void Writer::separate() {
  if (std::exchange(after_key_, false) || stack_.empty()) return;
  Frame& frame = stack_.back();
  if (!frame.empty) put(",");
  const Break b = std::exchange(pending_, Break::None);
  if (frame.lines || b == Break::Line)
    newline(static_cast<std::size_t>(indent_) * stack_.size());
  else if (b == Break::Wrap)
    newline(frame.column + 1);
  else if (!frame.empty)
    put(" ");
  frame.empty = false;
}

Writer& Writer::begin(char open, char close, Layout layout) {
  separate();
  stack_.push_back({close, layout == Layout::Lines, true, column_});
  put(std::string_view(&open, 1));
  return *this;
}

Writer& Writer::end() {
  const Frame frame = stack_.back();
  stack_.pop_back();
  if (frame.lines) newline(static_cast<std::size_t>(indent_) * stack_.size());
  put(std::string_view(&frame.close, 1));
  if (stack_.empty()) newline(0);
  return *this;
}

Writer& Writer::key(std::string_view name) {
  value(name);
  put(": ");
  after_key_ = true;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  separate();
  put("\"");
  std::size_t plain = 0;  // start of the run not yet written
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    char esc[8] = {'\\', s[i]};
    switch (c) {
      case '"': case '\\': break;
      case '\b': esc[1] = 'b'; break;
      case '\f': esc[1] = 'f'; break;
      case '\n': esc[1] = 'n'; break;
      case '\r': esc[1] = 'r'; break;
      case '\t': esc[1] = 't'; break;
      default:
        if (c >= 0x20) continue;
        std::snprintf(esc, sizeof esc, "\\u%04x", c);
    }
    put(s.substr(plain, i - plain));
    put(esc);
    plain = i + 1;
  }
  put(s.substr(plain));
  put("\"");
  return *this;
}

Writer& Writer::scalar(std::string_view text) {
  separate();
  put(text);
  return *this;
}

Writer& Writer::value(double v) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
  return scalar(std::string_view(buf, static_cast<std::size_t>(n)));
}

Writer& Writer::fixed(double v, int digits) {
  char buf[48];
  const int n = std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return scalar(std::string_view(buf, static_cast<std::size_t>(n)));
}

}  // namespace ftsort::util::json
