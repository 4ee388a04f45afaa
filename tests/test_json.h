#ifndef CHAINSFORMER_TESTS_TEST_JSON_H_
#define CHAINSFORMER_TESTS_TEST_JSON_H_

// Minimal JSON syntax checker for tests that assert exported metrics/trace
// files are well-formed, plus a helper to pull one numeric field out. Not a
// general-purpose parser — just enough to catch malformed serialization.

#include <cctype>
#include <cstdlib>
#include <string>

namespace chainsformer {
namespace test_json {

class Checker {
 public:
  explicit Checker(const std::string& text) : s_(text) {}

  bool Valid() {
    pos_ = 0;
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == s_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool String() {
    if (!Consume('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      // JSON strings may not hold raw control characters.
      if (static_cast<unsigned char>(s_[pos_]) < 0x20) return false;
      if (s_[pos_] == '\\') ++pos_;  // skip escaped char
      ++pos_;
    }
    return Consume('"');
  }

  bool Number() {
    const size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (digits && pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
      const bool had = digits;
      digits = false;
      eat_digits();
      digits = digits && had;
    }
    return digits && pos_ > start;
  }

  bool Literal(const char* word) {
    const size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  bool Value() {
    SkipSpace();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    if (!Consume('{')) return false;
    SkipSpace();
    if (Consume('}')) return true;
    for (;;) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (!Consume(':')) return false;
      if (!Value()) return false;
      SkipSpace();
      if (Consume('}')) return true;
      if (!Consume(',')) return false;
    }
  }

  bool Array() {
    if (!Consume('[')) return false;
    SkipSpace();
    if (Consume(']')) return true;
    for (;;) {
      if (!Value()) return false;
      SkipSpace();
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

/// True when `text` is one syntactically valid JSON value.
inline bool IsValidJson(const std::string& text) { return Checker(text).Valid(); }

/// Finds `"key": <number>` anywhere in `text` and stores the number. Returns
/// false when the key is absent. (Flat textual lookup — fine for the metric
/// names used in tests, which are globally unique.)
inline bool FindNumberAfterKey(const std::string& text, const std::string& key,
                               double* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  *out = std::atof(text.c_str() + at + needle.size());
  return true;
}

}  // namespace test_json
}  // namespace chainsformer

#endif  // CHAINSFORMER_TESTS_TEST_JSON_H_
