// Minimal JSON reader/writer helpers for the wire formats the repo owns:
// the ExperimentSpec codec (exp/spec.*), the dispatch wire protocol
// (exp/dispatch.*) and the --resume scanner over result JSONL files
// (exp/sinks.*).
//
// Deliberately small: a DOM of the five JSON kinds, a strict parser, and
// exact-round-trip number formatting.  Numbers keep their raw token so a
// caller can re-parse at the precision it needs (strtof for binary32 fields,
// strtod for binary64) — parsing everything as double and narrowing would
// double-round and break the repo's byte-identity contract.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace fedhisyn::json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  /// kNumber: the raw numeric token exactly as it appeared.
  /// kString: the decoded (unescaped) text.
  std::string text;
  std::vector<Value> items;                            // kArray
  std::vector<std::pair<std::string, Value>> members;  // kObject, in order

  bool is_null() const { return kind == Kind::kNull; }

  /// Object member lookup; nullptr when absent (or not an object).
  const Value* find(const std::string& key) const;

  /// Typed accessors.  Check-fail when the value has the wrong kind or the
  /// number token does not parse — a malformed wire message should stop the
  /// sweep loudly, not feed garbage into a cell.
  bool as_bool() const;
  long long as_long() const;
  double as_double() const;  // strtod on the raw token (exact for %.17g)
  float as_float() const;    // strtof on the raw token (exact for %.9g)
  const std::string& as_string() const;
};

/// Strict parse of one JSON document; throws CheckError on malformed input
/// or trailing garbage.
Value parse(const std::string& text);

/// Lenient parse: nullopt instead of throwing (the --resume scanner skips
/// truncated trailing lines an interrupted sweep may leave behind).
std::optional<Value> try_parse(const std::string& text);

/// Escape for embedding inside a JSON string literal (quotes, backslashes
/// and control characters — worker error messages may contain newlines and
/// the protocol is line-oriented).
std::string escape(const std::string& text);

/// Exact round-trip formatting: parsing the result with strtof/strtod
/// recovers the identical bits ("%.9g" covers binary32, "%.17g" binary64).
std::string fmt_float(float value);
std::string fmt_double(double value);

}  // namespace fedhisyn::json
