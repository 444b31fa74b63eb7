// Dependency-free streaming JSON writer and recursive-descent reader.
//
// The benchmark harness, the metrics surface, the CI regression gate,
// and the guided-campaign corpus all exchange machine-readable results
// (BENCH_results.json, coverage corpora); pulling in a JSON library for
// that would violate the "no external deps beyond gtest" rule, so this
// is a ~150-line writer with the three properties those consumers need:
// correct string escaping (quotes, backslashes, control characters as
// \u00XX), automatic comma/indent management for nested objects and
// arrays, and deterministic number formatting (shortest round-trip via
// %.17g, non-finite values serialized as null so the output always
// parses) — plus the matching parser (JsonValue / parse_json).  The
// parser started life as the round-trip checker in
// tests/support/json_test.cpp and was promoted here when the
// guided-campaign corpus needed to *load* what JsonWriter saved; the
// test now exercises this copy, so writer and reader can never drift.
//
// Usage:
//   JsonWriter out;
//   out.begin_object();
//   out.key("name").value("bench_all");
//   out.key("stats").begin_object();
//   out.key("median_ms").value(1.25);
//   out.end_object();
//   out.end_object();
//   std::string text = out.str();
//
// Misuse (value without a pending key inside an object, end_* mismatch)
// throws std::logic_error — a benchmark writer bug should fail loudly,
// not emit a file the CI gate silently fails to parse.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ptest/support/result.hpp"

namespace ptest::support {

/// Escapes `text` for inclusion inside a JSON string literal (no
/// surrounding quotes).  Exposed for tests and ad-hoc formatting.
[[nodiscard]] std::string json_escape(std::string_view text);

class JsonWriter {
 public:
  /// `indent` spaces per nesting level; 0 = compact single-line output.
  explicit JsonWriter(int indent = 2) : indent_(indent) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Must be called (exactly once) before each value inside an object.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(bool flag);
  JsonWriter& value(double number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(int number) { return value(static_cast<std::int64_t>(number)); }
  JsonWriter& value(unsigned number) {
    return value(static_cast<std::uint64_t>(number));
  }
  JsonWriter& null();

  /// The document so far.  Complete (all scopes closed) iff depth() == 0.
  [[nodiscard]] const std::string& str() const noexcept { return out_; }
  [[nodiscard]] std::size_t depth() const noexcept { return stack_.size(); }

 private:
  enum class Scope : std::uint8_t { kObject, kArray };

  /// Comma/newline/indent bookkeeping shared by every value and begin_*.
  void prepare_for_value();
  void newline_indent();
  void raw(std::string_view text) { out_.append(text); }

  std::string out_;
  std::vector<Scope> stack_;
  std::vector<bool> first_in_scope_;
  bool key_pending_ = false;
  int indent_;
};

/// Parsed JSON document node.  Numbers are held as double (sufficient for
/// every consumer: corpus hashes are serialized as strings precisely
/// because 64-bit integers do not survive a double round-trip); object
/// members keep document order in a flat vector — consumers look keys up
/// through find()/at(), and duplicate keys resolve to the first entry.
struct JsonValue {
  enum class Kind : std::uint8_t {
    kNull = 0,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_null() const noexcept { return kind == Kind::kNull; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind == Kind::kString;
  }

  /// Object member by key, or nullptr (also nullptr on non-objects).
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;
  /// Checked member lookup; throws std::out_of_range when absent.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
};

/// Parses one complete JSON document (trailing bytes beyond whitespace are
/// an error).  Errors carry a byte offset and a short reason — corpus
/// loading surfaces them verbatim, so they must stand on their own.
/// Accepts exactly what JsonWriter emits plus standard JSON (the \uXXXX
/// escapes JsonWriter produces are ASCII; other \u codes below 0x800 are
/// decoded to UTF-8, surrogates are rejected).
[[nodiscard]] Result<JsonValue, std::string> parse_json(std::string_view text);

/// A non-negative integral number; nullopt for a missing node, a
/// non-number, a fraction, or anything outside [0, 2^64).  The project's
/// documents are machine-written and hold only such counts, so any other
/// value marks corruption.
[[nodiscard]] std::optional<std::uint64_t> json_count(const JsonValue* value);

/// `value` as exactly 16 lower-case hex digits — how the project's
/// documents carry 64-bit seeds and hashes, which a double-typed JSON
/// number cannot hold exactly.
[[nodiscard]] std::string hex64(std::uint64_t value);

/// The strict inverse of hex64: 1..16 hex digits of either case; nullopt
/// for anything else (empty text, 17+ digits, a `0x` prefix, a sign).
[[nodiscard]] std::optional<std::uint64_t> parse_hex64(std::string_view text);

}  // namespace ptest::support
