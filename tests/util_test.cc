#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace chainsformer {
namespace {

TEST(StringUtilTest, SplitBasic) {
  const auto parts = Split("a\tb\tc", '\t');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, JoinRoundTrip) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, "-"), "x-y-z");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(StringUtilTest, Strip) {
  EXPECT_EQ(Strip("  hi \n"), "hi");
  EXPECT_EQ(Strip(""), "");
  EXPECT_EQ(Strip("   "), "");
  EXPECT_EQ(Strip("a b"), "a b");
}

TEST(StringUtilTest, FormatMetricFixedForModerate) {
  EXPECT_EQ(FormatMetric(3.14159, 3), "3.142");
  EXPECT_EQ(FormatMetric(0.0, 3), "0.000");
}

TEST(StringUtilTest, FormatMetricScientificForExtremes) {
  const std::string big = FormatMetric(1.7e8, 3);
  EXPECT_NE(big.find('e'), std::string::npos);
  const std::string small = FormatMetric(1e-6, 3);
  EXPECT_NE(small.find('e'), std::string::npos);
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("chain_former", "chain"));
  EXPECT_FALSE(StartsWith("chain", "chain_former"));
}

// JsonField walks the object member by member: a key's name sitting in
// another member's value is not that key.
TEST(StringUtilTest, JsonFieldMatchesKeysNotValues) {
  const std::string line =
      "{\"id\": \"attribute\", \"entity\": \"e1\", \"attribute\": \"birth\"}";
  std::string value;
  ASSERT_TRUE(JsonField(line, "attribute", &value));
  EXPECT_EQ(value, "birth");
  ASSERT_TRUE(JsonField(line, "id", &value));
  EXPECT_EQ(value, "attribute");
  EXPECT_FALSE(JsonField("{\"id\": \"entity\"}", "entity", &value));
}

// An escaped quote or backslash inside a string value decodes instead of
// ending the value, and the members after it still parse.
TEST(StringUtilTest, JsonFieldDecodesEscapedQuotesAndBackslashes) {
  const std::string line =
      "{\"id\": \"a\\\"b\", \"entity\": \"c\\\\d\", \"attribute\": \"birth\"}";
  std::string value;
  ASSERT_TRUE(JsonField(line, "id", &value));
  EXPECT_EQ(value, "a\"b");
  ASSERT_TRUE(JsonField(line, "entity", &value));
  EXPECT_EQ(value, "c\\d");
  ASSERT_TRUE(JsonField(line, "attribute", &value));
  EXPECT_EQ(value, "birth");
  // What EscapeJson writes, JsonField reads back.
  const std::string raw = "q\"u\\ote";
  ASSERT_TRUE(JsonField("{\"k\": \"" + EscapeJson(raw) + "\"}", "k", &value));
  EXPECT_EQ(value, raw);
}

// The serve tool and the router read the client's trace id the same way.
TEST(StringUtilTest, ParseTraceIdReadsDecimalAndHex) {
  EXPECT_EQ(ParseTraceId("{\"trace_id\": 12345}"), 12345u);
  EXPECT_EQ(ParseTraceId("{\"trace_id\": \"0x5EED\"}"), 0x5EEDu);
  EXPECT_EQ(ParseTraceId("{\"id\": 7, \"entity\": \"e\"}"), 0u);
  EXPECT_EQ(ParseTraceId("{\"trace_id\": \"abc\"}"), 0u);
}

// Responses echo a client's id through JsonField + JsonNumberOrString; the
// line must stay valid JSON whatever the client sent.
TEST(StringUtilTest, JsonNumberOrStringKeepsNumbers) {
  for (const char* n : {"0", "7", "-12", "3.25", "1e9", "-0.5E-3", "6.02e+23"}) {
    EXPECT_EQ(JsonNumberOrString(n), n);
  }
}

TEST(StringUtilTest, JsonNumberOrStringQuotesStrings) {
  std::string raw;
  ASSERT_TRUE(JsonField("{\"id\": \"x\", \"entity\": \"e\"}", "id", &raw));
  EXPECT_EQ(JsonNumberOrString(raw), "\"x\"");
  EXPECT_EQ(JsonNumberOrString("req-42"), "\"req-42\"");
  EXPECT_EQ(JsonNumberOrString("a\"b\\c"), "\"a\\\"b\\\\c\"");
}

TEST(StringUtilTest, JsonNumberOrStringQuotesGarbage) {
  // Outside the JSON number grammar: leading zeros, bare signs and dots,
  // dangling exponents, trailing junk, hex and the non-finite spellings.
  for (const char* g : {"01", "-", "+1", ".5", "1.", "1e", "1e+", "12abc",
                        "0x1F", "NaN", "Infinity", "1 2"}) {
    EXPECT_EQ(JsonNumberOrString(g), "\"" + std::string(g) + "\"") << g;
  }
}

TEST(StringUtilTest, EscapeJsonEscapesEveryControlCharacter) {
  EXPECT_EQ(EscapeJson("a\tb"), "a\\u0009b");
  EXPECT_EQ(EscapeJson("line\n"), "line\\u000a");
  EXPECT_EQ(EscapeJson(std::string("\0x", 2)), "\\u0000x");
  for (int c = 0; c < 0x20; ++c) {
    const std::string escaped = EscapeJson(std::string(1, static_cast<char>(c)));
    ASSERT_EQ(escaped.size(), 6u) << c;
    EXPECT_EQ(escaped.substr(0, 2), "\\u") << c;
  }
}

TEST(StringUtilTest, EscapeJsonKeepsPrintableAndNonAsciiBytes) {
  // 0x7f (DEL) and UTF-8 multibyte sequences are legal inside JSON strings.
  const std::string kept = "~\x7f\xc3\xa9 z";
  EXPECT_EQ(EscapeJson(kept), kept);
}

TEST(StopwatchTest, ElapsedMonotone) {
  Stopwatch sw;
  const double a = sw.ElapsedSeconds();
  const double b = sw.ElapsedSeconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(StopwatchTest, ElapsedMicrosMatchesSeconds) {
  Stopwatch sw;
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  const int64_t us = sw.ElapsedMicros();
  const double s = sw.ElapsedSeconds();
  EXPECT_GE(us, 0);
  // The second reading happens after the first, so seconds >= micros.
  EXPECT_GE(s * 1e6, static_cast<double>(us));
  EXPECT_GE(sw.ElapsedMicros(), us);
}

TEST(LoggingTest, SetLogSinkCapturesMessages) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  SetLogSink([&captured](LogLevel level, const std::string& line) {
    captured.emplace_back(level, line);
  });
  CF_LOG(Info) << "hello sink " << 42;
  CF_LOG(Warning) << "careful";
  SetLogSink(nullptr);  // restore stderr output
  CF_LOG(Info) << "back to stderr (expected in test output)";
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, LogLevel::kInfo);
  EXPECT_NE(captured[0].second.find("[INFO"), std::string::npos);
  EXPECT_NE(captured[0].second.find("hello sink 42"), std::string::npos);
  EXPECT_NE(captured[0].second.find("util_test.cc"), std::string::npos);
  EXPECT_EQ(captured[1].first, LogLevel::kWarning);
  EXPECT_NE(captured[1].second.find("careful"), std::string::npos);
}

TEST(ThreadPoolTest, RunsAllScheduledTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(64, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, ChunkedParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  // grain 7 -> 15 chunks on 3 workers: more tasks than threads.
  pool.ParallelFor(100, 7, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ChunkedParallelForGrainZeroAndOversized) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(16);
  pool.ParallelFor(16, 0, [&hits](size_t i) { hits[i].fetch_add(1); });
  pool.ParallelFor(16, 1000, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
}

TEST(ThreadPoolTest, ChunkedParallelForEmptyIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, 4, [](size_t) { FAIL() << "must not be called"; });
  pool.ParallelForRanges(0, 4,
                         [](size_t, size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, ChunkedParallelForOnSizeOnePoolRunsInline) {
  ThreadPool pool(1);
  std::vector<int> hits(64, 0);  // no atomics needed: must run on the caller
  pool.ParallelFor(64, 8, [&hits](size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForRangesDisjointAndTotal) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(101);
  pool.ParallelForRanges(101, 13, [&hits](size_t begin, size_t end) {
    ASSERT_LT(begin, end);
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WaitIsReentrant) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Schedule([&counter] { counter.fetch_add(1); });
  pool.Wait();
  pool.Schedule([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

}  // namespace
}  // namespace chainsformer
