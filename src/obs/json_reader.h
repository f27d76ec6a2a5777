#ifndef CLOUDVIEWS_OBS_JSON_READER_H_
#define CLOUDVIEWS_OBS_JSON_READER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace cloudviews {
namespace obs {

// Minimal JSON document model, the read-side counterpart of JsonWriter.
// Just enough for tools/insights_report and the provenance tests to consume
// the engine's own exports: objects preserve key insertion order (so a
// re-rendered report is deterministic), numbers are doubles (JsonWriter
// emits %.17g, which round-trips exactly through strtod).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  bool is_null() const { return kind == Kind::kNull; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }

  // Object member lookup; null when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  // Typed accessors with defaults (never fail; absent/mistyped -> default).
  // GetInt truncates toward zero and treats a number outside
  // [-2^63, 2^63) as mistyped.
  double GetNumber(std::string_view key, double def = 0.0) const;
  int64_t GetInt(std::string_view key, int64_t def = 0) const;
  std::string GetString(std::string_view key,
                        const std::string& def = {}) const;
  bool GetBool(std::string_view key, bool def = false) const;
};

// Parses one JSON document (rejecting trailing garbage). Returns
// InvalidArgument with a byte offset on malformed input.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace obs
}  // namespace cloudviews

#endif  // CLOUDVIEWS_OBS_JSON_READER_H_
