#include "common/json.h"

#include <cstdlib>

namespace mixnet::json {

double Value::as_double() const { return std::strtod(str_.c_str(), nullptr); }

std::int64_t Value::as_i64() const {
  return std::strtoll(str_.c_str(), nullptr, 10);
}

const Value* Value::get(const std::string& key) const {
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  std::optional<Value> run() {
    Value v;
    if (!parse_value(v)) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word) {
    for (const char* p = word; *p; ++p, ++pos_)
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    return true;
  }

  bool parse_string(std::string& out) {
    if (!eat('"')) return false;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return false;
      char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // Our emitter only writes \u00XX control characters; encode the
          // general case as UTF-8 anyway.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool parse_number(Value& v) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return false;
    v.kind_ = Value::Kind::kNumber;
    v.str_ = s_.substr(start, pos_ - start);
    return true;
  }

  bool parse_value(Value& v) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': {
        ++pos_;
        v.kind_ = Value::Kind::kObject;
        skip_ws();
        if (eat('}')) return true;
        for (;;) {
          std::string key;
          if (!parse_string(key)) return false;
          if (!eat(':')) return false;
          Value member;
          if (!parse_value(member)) return false;
          v.members_.emplace_back(std::move(key), std::move(member));
          if (eat(',')) continue;
          return eat('}');
        }
      }
      case '[': {
        ++pos_;
        v.kind_ = Value::Kind::kArray;
        skip_ws();
        if (eat(']')) return true;
        for (;;) {
          Value item;
          if (!parse_value(item)) return false;
          v.items_.push_back(std::move(item));
          if (eat(',')) continue;
          return eat(']');
        }
      }
      case '"':
        v.kind_ = Value::Kind::kString;
        return parse_string(v.str_);
      case 't':
        v.kind_ = Value::Kind::kBool;
        return literal("true");
      case 'f':
        v.kind_ = Value::Kind::kBool;
        return literal("false");
      case 'n':
        v.kind_ = Value::Kind::kNull;
        return literal("null");
      default:
        return parse_number(v);
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::optional<Value> parse(const std::string& text) {
  return Parser(text).run();
}

}  // namespace mixnet::json
