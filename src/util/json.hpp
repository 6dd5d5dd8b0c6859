// The project's one JSON module, both directions.
//
// Writer streams a document into a std::string: the run reports
// (sim/run_report.hpp), fault plans (sim/fault_plan.hpp) and Chrome traces
// (analysis/trace_export.hpp) all emit through it, so there is one string
// escaper and one place that decides number formats.
//
// parse() is a minimal recursive-descent parser for the full JSON grammar,
// used to read fault plan files and by tests to schema-check the documents
// above. It yields a tree of json::Value; numbers are held as double
// (adequate for plans and schema checks; exact 64-bit integers are not
// needed there). Strings are strict: raw bytes below 0x20 are rejected, as
// RFC 8259 requires, and \uXXXX escapes are decoded to UTF-8 (a surrogate
// pair to one code point; a lone surrogate or a non-hex digit is an
// error). Errors yield std::nullopt and, on request, the byte offset where
// parsing stopped, for callers that diagnose hand-written input (e.g. fault
// plan files).
#pragma once

#include <cctype>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mg::util::json {

class Value;
using Object = std::map<std::string, Value>;
using Array = std::vector<Value>;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  explicit Value(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Value(double n) : type_(Type::kNumber), number_(n) {}
  explicit Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  explicit Value(Array a)
      : type_(Type::kArray), array_(std::make_shared<Array>(std::move(a))) {}
  explicit Value(Object o)
      : type_(Type::kObject), object_(std::make_shared<Object>(std::move(o))) {}

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return number_; }
  [[nodiscard]] const std::string& as_string() const { return string_; }
  [[nodiscard]] const Array& as_array() const { return *array_; }
  [[nodiscard]] const Object& as_object() const { return *object_; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(const std::string& key) const {
    if (type_ != Type::kObject) return nullptr;
    const auto it = object_->find(key);
    return it == object_->end() ? nullptr : &it->second;
  }

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// How a Writer formats doubles. Each document keeps the format its
/// readers already rely on.
enum class Doubles : std::uint8_t {
  kShort,   ///< %.10g (run reports)
  kExact,   ///< %.17g, round-trips; infinity as 1e308 (fault plans)
  kFixed3,  ///< %.3f (Chrome trace timestamps)
};

/// Streams one JSON document into a string. Commas between members and
/// elements are placed automatically: call key() before each object member's
/// value, nothing before an array element. A kLines array puts each element
/// on its own line (run batches, Chrome traces); everything else is compact.
/// NaN, and infinity outside kExact, are written as null: JSON has no
/// spelling for them.
class Writer {
 public:
  enum Layout : std::uint8_t { kCompact, kLines };

  explicit Writer(std::string& out, Doubles doubles = Doubles::kShort)
      : out_(out), doubles_(doubles) {}

  Writer& begin_object() { return open("{", kCompact); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array(Layout layout = kCompact) {
    return open(layout == kLines ? "[\n" : "[", layout);
  }
  Writer& end_array() { return close(']'); }

  Writer& key(std::string_view name) {
    value(name);
    out_ += ':';
    need_comma_ = false;
    return *this;
  }

  Writer& value(std::string_view text) {
    separate();
    out_ += '"';
    for (const char c : text) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        case '\r': out_ += "\\r"; break;
        case '\b': out_ += "\\b"; break;
        case '\f': out_ += "\\f"; break;
        default:
          if (const auto byte = static_cast<unsigned char>(c); byte < 0x20) {
            static constexpr char kHex[] = "0123456789abcdef";
            out_ += "\\u00";
            out_ += kHex[byte >> 4];
            out_ += kHex[byte & 0xf];
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
    return *this;
  }
  Writer& value(const char* text) { return value(std::string_view(text)); }

  Writer& value(bool flag) {
    separate();
    out_ += flag ? "true" : "false";
    return *this;
  }

  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Writer& value(T number) {
    separate();
    char digits[std::numeric_limits<T>::digits10 + 2];
    const auto end = std::to_chars(digits, digits + sizeof digits, number).ptr;
    out_.append(digits, end);
    return *this;
  }

  Writer& value(double number) {
    separate();
    if (doubles_ == Doubles::kExact && std::isinf(number)) {
      // An omitted fault-plan end_us means "never"; the parser restores it.
      out_ += "1e308";
    } else if (!std::isfinite(number)) {
      out_ += "null";
    } else {
      const char* format = doubles_ == Doubles::kShort   ? "%.10g"
                           : doubles_ == Doubles::kExact ? "%.17g"
                                                         : "%.3f";
      // Print into the tail: kRoom holds any double in these formats (the
      // longest, %.3f of -DBL_MAX, is 314 characters).
      constexpr std::size_t kRoom = 320;
      const std::size_t at = out_.size();
      out_.resize(at + kRoom);
      out_.resize(at + static_cast<std::size_t>(std::snprintf(
                           out_.data() + at, kRoom, format, number)));
    }
    return *this;
  }

  /// key(name).value(v), the common case.
  template <typename T>
  Writer& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

 private:
  void separate() {
    if (need_comma_) {
      out_ += ',';
      if (!layouts_.empty() && layouts_.back() == kLines) out_ += '\n';
    }
    need_comma_ = true;
  }

  Writer& open(const char* bracket, Layout layout) {
    separate();
    out_ += bracket;
    layouts_.push_back(layout);
    need_comma_ = false;
    return *this;
  }

  Writer& close(char bracket) {
    if (layouts_.back() == kLines) out_ += '\n';
    layouts_.pop_back();
    out_ += bracket;
    need_comma_ = true;
    return *this;
  }

  std::string& out_;
  Doubles doubles_;
  std::vector<Layout> layouts_;
  bool need_comma_ = false;
};

namespace detail {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> parse() {
    std::optional<Value> value = parse_value();
    if (!value.has_value()) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;
    return value;
  }

  /// Byte offset reached by the parser; on failure this is where parsing
  /// stopped (the offending character or the start of trailing garbage).
  [[nodiscard]] std::size_t pos() const { return pos_; }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  [[nodiscard]] bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  std::optional<Value> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        std::optional<std::string> s = parse_string();
        if (!s.has_value()) return std::nullopt;
        return Value(std::move(*s));
      }
      case 't':
        return consume_literal("true") ? std::optional<Value>(Value(true))
                                       : std::nullopt;
      case 'f':
        return consume_literal("false") ? std::optional<Value>(Value(false))
                                        : std::nullopt;
      case 'n':
        return consume_literal("null") ? std::optional<Value>(Value())
                                       : std::nullopt;
      default: return parse_number();
    }
  }

  std::optional<Value> parse_object() {
    if (!consume('{')) return std::nullopt;
    Object object;
    skip_ws();
    if (consume('}')) return Value(std::move(object));
    for (;;) {
      skip_ws();
      std::optional<std::string> key = parse_string();
      if (!key.has_value()) return std::nullopt;
      skip_ws();
      if (!consume(':')) return std::nullopt;
      std::optional<Value> value = parse_value();
      if (!value.has_value()) return std::nullopt;
      object.emplace(std::move(*key), std::move(*value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return Value(std::move(object));
      return std::nullopt;
    }
  }

  std::optional<Value> parse_array() {
    if (!consume('[')) return std::nullopt;
    Array array;
    skip_ws();
    if (consume(']')) return Value(std::move(array));
    for (;;) {
      std::optional<Value> value = parse_value();
      if (!value.has_value()) return std::nullopt;
      array.push_back(std::move(*value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return Value(std::move(array));
      return std::nullopt;
    }
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      // RFC 8259 §7: control characters must be escaped. Stop on the byte
      // itself so the error offset names it.
      if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
      ++pos_;
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            std::uint32_t code = 0;
            if (!parse_hex4(code)) return std::nullopt;
            if (code >= 0xdc00 && code <= 0xdfff) return std::nullopt;
            if (code >= 0xd800 && code <= 0xdbff) {
              // A high surrogate needs its low half right after it.
              std::uint32_t low = 0;
              if (!consume('\\') || !consume('u') || !parse_hex4(low) ||
                  low < 0xdc00 || low > 0xdfff) {
                return std::nullopt;
              }
              code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
            }
            append_utf8(out, code);
            break;
          }
          default: return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    return std::nullopt;  // unterminated
  }

  /// Four hex digits into `code`; stops on the first non-hex byte, so the
  /// error offset names it.
  bool parse_hex4(std::uint32_t& code) {
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) return false;
      const char c = text_[pos_];
      std::uint32_t digit = 0;
      if (c >= '0' && c <= '9') {
        digit = static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return false;
      }
      code = code * 16 + digit;
      ++pos_;
    }
    return true;
  }

  static void append_utf8(std::string& out, std::uint32_t code) {
    const auto byte = [&out](std::uint32_t bits) {
      out += static_cast<char>(static_cast<unsigned char>(bits));
    };
    if (code < 0x80) {
      byte(code);
    } else if (code < 0x800) {
      byte(0xc0 | (code >> 6));
      byte(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
      byte(0xe0 | (code >> 12));
      byte(0x80 | ((code >> 6) & 0x3f));
      byte(0x80 | (code & 0x3f));
    } else {
      byte(0xf0 | (code >> 18));
      byte(0x80 | ((code >> 12) & 0x3f));
      byte(0x80 | ((code >> 6) & 0x3f));
      byte(0x80 | (code & 0x3f));
    }
  }

  std::optional<Value> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return std::nullopt;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return std::nullopt;
    return Value(number);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace detail

/// Parses `text` as one JSON document; std::nullopt on any syntax error or
/// trailing garbage. On failure, a non-null `error_offset` receives the byte
/// offset where parsing stopped (the offending character or the start of
/// trailing garbage); it is untouched on success.
[[nodiscard]] inline std::optional<Value> parse(
    std::string_view text, std::size_t* error_offset = nullptr) {
  detail::Parser parser(text);
  std::optional<Value> value = parser.parse();
  if (!value.has_value() && error_offset != nullptr) {
    *error_offset = parser.pos();
  }
  return value;
}

}  // namespace mg::util::json
