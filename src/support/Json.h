//===- support/Json.h - The one JSON writer ---------------------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every machine-readable output — the tools' `-json` reports and the
/// campaign journal's JSONL records — is written through this one escaper
/// and streaming writer, so each producer emits valid JSON the same way.
/// Output is compact (no whitespace); there is no parser here.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_SUPPORT_JSON_H
#define ELFIE_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace elfie {
namespace json {

/// Appends \p S to \p Out as a JSON string literal: `"` and `\` are
/// backslash-escaped, LF/CR/TAB become `\n`/`\r`/`\t`, every other byte
/// below 0x20 becomes `\u00xx`, and all other bytes pass through.
void appendString(std::string &Out, std::string_view S);

/// Streaming writer for one JSON value. Callers open and close objects and
/// arrays and name each object member with key(); the writer places the
/// commas. Misnesting is the caller's bug and is not diagnosed.
class Writer {
public:
  Writer &beginObject() { return open('{'); }
  Writer &endObject() { return close('}'); }
  Writer &beginArray() { return open('['); }
  Writer &endArray() { return close(']'); }

  /// Names the next value inside an object.
  Writer &key(std::string_view K);

  Writer &string(std::string_view V);
  Writer &i64(int64_t V) { return number(std::to_string(V)); }
  Writer &u64(uint64_t V) { return number(std::to_string(V)); }
  Writer &boolean(bool V) { return number(V ? "true" : "false"); }
  /// A number the caller already formatted (e.g. "%.3f"), written as-is.
  Writer &number(std::string_view Token);

  /// The text written so far.
  const std::string &str() const { return Out; }

private:
  /// Writes the comma that separates this value from its predecessor.
  void separate();
  Writer &open(char C);
  Writer &close(char C);

  std::string Out;
  /// One entry per open object/array: true once it holds a value.
  std::vector<bool> HasValue;
  /// A key was just written; the next value belongs to it.
  bool AfterKey = false;
};

} // namespace json
} // namespace elfie

#endif // ELFIE_SUPPORT_JSON_H
