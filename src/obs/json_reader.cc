#include "obs/json_reader.h"

#include <cctype>
#include <cstdlib>

namespace cloudviews {
namespace obs {

namespace {

// Recursive-descent parser over a string_view. Depth-limited so a
// pathological input fails cleanly instead of overflowing the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    CLOUDVIEWS_RETURN_NOT_OK(ParseValue(&value, 0));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 96;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      pos_ += 1;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      pos_ += 1;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string_value);
    }
    if (ConsumeLiteral("null")) {
      out->kind = JsonValue::Kind::kNull;
      return Status::OK();
    }
    if (ConsumeLiteral("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = true;
      return Status::OK();
    }
    if (ConsumeLiteral("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = false;
      return Status::OK();
    }
    return ParseNumber(out);
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    pos_ += 1;  // '{'
    SkipSpace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      CLOUDVIEWS_RETURN_NOT_OK(ParseString(&key));
      SkipSpace();
      if (!Consume(':')) return Error("expected ':' after object key");
      JsonValue value;
      CLOUDVIEWS_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->members.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    pos_ += 1;  // '['
    SkipSpace();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue value;
      CLOUDVIEWS_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->items.push_back(std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    pos_ += 1;  // opening quote
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        pos_ += 1;
        return Status::OK();
      }
      if (c == '\\') {
        pos_ += 1;
        if (pos_ >= text_.size()) return Error("unterminated escape");
        char e = text_[pos_];
        pos_ += 1;
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_ + static_cast<size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else
                return Error("bad hex digit in \\u escape");
            }
            pos_ += 4;
            // UTF-8 encode the code point (BMP only — the writer never
            // emits surrogate pairs; lone surrogates pass through as-is).
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Error("unknown escape character");
        }
        continue;
      }
      out->push_back(c);
      pos_ += 1;
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      pos_ += 1;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      pos_ += 1;
    }
    if (pos_ == start) return Error("expected a value");
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      return Error("malformed number '" + token + "'");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number_value = value;
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::GetNumber(std::string_view key, double def) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->kind == Kind::kNumber ? v->number_value : def;
}

int64_t JsonValue::GetInt(std::string_view key, int64_t def) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || v->kind != Kind::kNumber) return def;
  // Casting a double outside int64_t's range is undefined; a number that
  // does not fit (infinities and NaN included) is mistyped.
  constexpr double kTwoTo63 = 9223372036854775808.0;
  const double d = v->number_value;
  if (!(d >= -kTwoTo63 && d < kTwoTo63)) return def;
  return static_cast<int64_t>(d);
}

std::string JsonValue::GetString(std::string_view key,
                                 const std::string& def) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->kind == Kind::kString ? v->string_value : def;
}

bool JsonValue::GetBool(std::string_view key, bool def) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->kind == Kind::kBool ? v->bool_value : def;
}

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace obs
}  // namespace cloudviews
