// Minimal JSON reader for the result cache's JSON-lines records
// (DESIGN.md §9). Parses one value into an owned tree; numbers keep their
// raw token so int64 values beyond 2^53 and %.17g doubles round-trip
// bit-exactly. This is a reader for our own emitter's output, not a general
// validator: it accepts the JSON grammar (objects, arrays, strings with
// \uXXXX escapes, numbers, true/false/null) and rejects anything else by
// returning std::nullopt. No record field is a boolean, so true/false parse
// as Kind::kBool without keeping which one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mixnet::json {

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }

  double as_double() const;        ///< strtod over the raw token
  std::int64_t as_i64() const;     ///< strtoll over the raw token
  const std::string& as_string() const { return str_; }

  const std::vector<Value>& items() const { return items_; }
  const std::vector<std::pair<std::string, Value>>& members() const {
    return members_;
  }
  /// Object member lookup; nullptr when absent or not an object.
  const Value* get(const std::string& key) const;

 private:
  friend class Parser;
  Kind kind_ = Kind::kNull;
  std::string str_;  // string value, or the raw number token
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

/// Parse exactly one JSON document (trailing whitespace allowed; trailing
/// garbage is an error).
std::optional<Value> parse(const std::string& text);

}  // namespace mixnet::json
