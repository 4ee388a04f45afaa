#include "util/string_util.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace chainsformer {

std::vector<std::string> Split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == delim) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

std::string Join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string Strip(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string FormatMetric(double v, int precision) {
  char buf[64];
  const double a = std::fabs(v);
  if (a != 0.0 && (a >= 1e5 || a < 1e-3)) {
    std::snprintf(buf, sizeof(buf), "%.*e", precision > 1 ? 1 : precision, v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  }
  return buf;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

namespace {

/// Reads the JSON string literal whose opening quote is at `line[*pos]` and
/// leaves `*pos` just past its closing quote. `\"` and `\\` decode; any
/// other escape stays as written. False when the literal is unterminated.
bool ReadJsonString(const std::string& line, size_t* pos, std::string* out) {
  out->clear();
  for (size_t i = *pos + 1; i < line.size(); ++i) {
    if (line[i] == '"') {
      *pos = i + 1;
      return true;
    }
    if (line[i] == '\\' && i + 1 < line.size()) {
      const char escaped = line[++i];
      if (escaped != '"' && escaped != '\\') out->push_back('\\');
    }
    out->push_back(line[i]);
  }
  return false;
}

}  // namespace

bool JsonField(const std::string& line, const std::string& key,
               std::string* out) {
  size_t pos = 0;
  // Skips whitespace, then tests the next character.
  const auto at = [&line, &pos](char c) {
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
    return pos < line.size() && line[pos] == c;
  };
  if (!at('{')) return false;
  ++pos;
  std::string name, value;
  // One member per iteration: "name": value, then ',' or '}'.
  while (at('"') && ReadJsonString(line, &pos, &name) && at(':')) {
    ++pos;
    const bool is_string = at('"');
    if (is_string) {
      if (!ReadJsonString(line, &pos, &value)) return false;
    } else {
      const size_t start = pos;
      while (pos < line.size() && line[pos] != ',' && line[pos] != '}') ++pos;
      value = Strip(line.substr(start, pos - start));
    }
    if (name == key) {
      *out = std::move(value);
      return is_string || !out->empty();
    }
    if (!at(',')) return false;
    ++pos;
  }
  return false;
}

uint64_t ParseTraceId(const std::string& line) {
  std::string raw;
  if (!JsonField(line, "trace_id", &raw)) return 0;
  return std::strtoull(raw.c_str(), nullptr, 0);
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      // JSON strings may not hold raw control characters.
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string JsonNumberOrString(const std::string& raw) {
  // JSON number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  size_t i = 0;
  const auto at = [&raw, &i](char c) { return i < raw.size() && raw[i] == c; };
  const auto digits = [&raw, &i] {  // consumes [0-9]+
    const size_t start = i;
    while (i < raw.size() && raw[i] >= '0' && raw[i] <= '9') ++i;
    return i > start;
  };
  if (at('-')) ++i;
  bool number = true;
  if (at('0')) {
    ++i;
  } else {
    number = digits();
  }
  if (number && at('.')) {
    ++i;
    number = digits();
  }
  if (number && (at('e') || at('E'))) {
    ++i;
    if (at('+') || at('-')) ++i;
    number = digits();
  }
  if (number && i == raw.size()) return raw;
  return "\"" + EscapeJson(raw) + "\"";
}

}  // namespace chainsformer
