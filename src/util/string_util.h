#ifndef CHAINSFORMER_UTIL_STRING_UTIL_H_
#define CHAINSFORMER_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace chainsformer {

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(const std::string& s, char delim);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// Removes leading/trailing ASCII whitespace.
std::string Strip(const std::string& s);

/// Formats a double compactly for table output: fixed for moderate
/// magnitudes, scientific (e.g. "1.7e+08") for very large/small values.
std::string FormatMetric(double v, int precision = 3);

/// True if `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// Extracts `"key": <string-or-number>` from a flat one-line JSON object —
/// the NDJSON request/response grammar shared by the serve tool, the router
/// and the shard protocol (a full JSON parser would be dead weight for flat
/// objects). Walks the object's members in order, so a key's name inside
/// another member's value never matches. String values come back without
/// their quotes and with `\"` and `\\` decoded (any other escape stays as
/// written); numbers/booleans as the raw token. Returns false when the key
/// is absent, a non-string value is empty, or the line stops parsing before
/// the key. Not a validator: nested objects and arrays are out of grammar,
/// and whatever follows the key's value is never read.
bool JsonField(const std::string& line, const std::string& key,
               std::string* out);

/// Reads a request line's client-supplied `"trace_id"`: decimal or
/// 0x-prefixed hex, as a JSON number or string. Returns 0 (= "none given")
/// on absence or garbage.
uint64_t ParseTraceId(const std::string& line);

/// Escapes `"`, `\` and every control character below 0x20 so `s` can be
/// embedded in a JSON string literal.
std::string EscapeJson(const std::string& s);

/// Re-serializes a JsonField value as one JSON token: `raw` unchanged when it
/// matches the JSON number grammar, otherwise `raw` as an escaped JSON
/// string. Echoing a client's `id` through this keeps the response valid
/// JSON whether the client sent 7 or "x".
std::string JsonNumberOrString(const std::string& raw);

}  // namespace chainsformer

#endif  // CHAINSFORMER_UTIL_STRING_UTIL_H_
