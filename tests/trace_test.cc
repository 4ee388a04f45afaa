// Tests for the span tracer: disabled-path inertness, nesting depth, ring
// wraparound eviction, Chrome trace-event JSON output, and the trace clock.

#include "util/trace.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "test_json.h"

namespace chainsformer {
namespace trace {
namespace {

/// Resets tracer state; the ring buffers are process-global.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(false);
    Clear();
  }
  void TearDown() override {
    SetEnabled(false);
    Clear();
  }
};

TEST_F(TraceTest, DisabledScopesBufferNothing) {
  {
    CF_TRACE_SCOPE("ghost");
    CF_TRACE_SCOPE("ghost2");
  }
  EXPECT_EQ(BufferedSpans(), 0u);
}

TEST_F(TraceTest, EnabledScopesAreBufferedWithNesting) {
  SetEnabled(true);
  {
    CF_TRACE_SCOPE("outer");
    {
      CF_TRACE_SCOPE("inner");
    }
  }
  SetEnabled(false);
  EXPECT_EQ(BufferedSpans(), 2u);
  const std::string json = DrainChromeTraceJson();
  EXPECT_EQ(BufferedSpans(), 0u);  // drain moves spans out
  EXPECT_TRUE(test_json::IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"name\": \"outer\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"inner\""), std::string::npos) << json;
  // Depths: outer at 0, inner at 1.
  EXPECT_NE(json.find("{\"depth\": 0}"), std::string::npos) << json;
  EXPECT_NE(json.find("{\"depth\": 1}"), std::string::npos) << json;
}

TEST_F(TraceTest, NestedSpansAreWellFormed) {
  SetEnabled(true);
  {
    CF_TRACE_SCOPE("parent");
    { CF_TRACE_SCOPE("child_a"); }
    { CF_TRACE_SCOPE("child_b"); }
  }
  SetEnabled(false);
  const std::string json = DrainChromeTraceJson();
  // Spans are sorted by start time: parent starts first despite completing
  // last (complete events record start + duration).
  const size_t parent_at = json.find("\"parent\"");
  const size_t a_at = json.find("\"child_a\"");
  const size_t b_at = json.find("\"child_b\"");
  ASSERT_NE(parent_at, std::string::npos);
  ASSERT_NE(a_at, std::string::npos);
  ASSERT_NE(b_at, std::string::npos);
  EXPECT_LT(parent_at, a_at);
  EXPECT_LT(a_at, b_at);
  // Both siblings are depth 1; re-entering depth 1 after child_a closes.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST_F(TraceTest, RingWraparoundDropsOldestFirst) {
  SetEnabled(true);
  constexpr size_t kOverflow = 100;
  for (size_t i = 0; i < kRingCapacity + kOverflow; ++i) {
    CF_TRACE_SCOPE(i < kOverflow ? "old" : "new");
  }
  SetEnabled(false);
  EXPECT_EQ(BufferedSpans(), kRingCapacity);
  EXPECT_EQ(DroppedSpans(), kOverflow);
  const std::string json = DrainChromeTraceJson();
  // Every "old" span was evicted by wraparound; only "new" spans remain.
  EXPECT_EQ(json.find("\"name\": \"old\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"new\""), std::string::npos);
  EXPECT_TRUE(test_json::IsValidJson(json));
}

TEST_F(TraceTest, SpansFromMultipleThreadsGetDistinctTids) {
  SetEnabled(true);
  {
    CF_TRACE_SCOPE("main_thread");
  }
  std::thread worker([] { CF_TRACE_SCOPE("worker_thread"); });
  worker.join();
  SetEnabled(false);
  const std::string json = DrainChromeTraceJson();
  EXPECT_NE(json.find("\"main_thread\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"worker_thread\""), std::string::npos) << json;
  // The two spans carry different tids: collect the tid values.
  std::string first_tid, second_tid;
  size_t at = 0;
  for (std::string* out : {&first_tid, &second_tid}) {
    at = json.find("\"tid\": ", at);
    ASSERT_NE(at, std::string::npos);
    at += 7;
    while (at < json.size() && json[at] != ',') out->push_back(json[at++]);
  }
  EXPECT_NE(first_tid, second_tid) << json;
}

TEST_F(TraceTest, WriteChromeTraceCreatesParentDirectories) {
  SetEnabled(true);
  { CF_TRACE_SCOPE("filed"); }
  SetEnabled(false);
  const std::string dir = "/tmp/cf_trace_test_dir/nested";
  const std::string path = dir + "/trace.json";
  std::filesystem::remove_all("/tmp/cf_trace_test_dir");
  EXPECT_TRUE(WriteChromeTrace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_TRUE(test_json::IsValidJson(ss.str())) << ss.str();
  EXPECT_NE(ss.str().find("\"filed\""), std::string::npos);
  std::filesystem::remove_all("/tmp/cf_trace_test_dir");
}

TEST_F(TraceTest, WriteChromeTraceFailsOnUnwritablePath) {
  // Parent "directory" is actually a file -> open fails, returns false.
  const std::string blocker = "/tmp/cf_trace_test_blocker";
  std::ofstream(blocker) << "x";
  EXPECT_FALSE(WriteChromeTrace(blocker + "/trace.json"));
  std::remove(blocker.c_str());
}

TEST_F(TraceTest, ClearDiscardsBufferedSpans) {
  SetEnabled(true);
  { CF_TRACE_SCOPE("doomed"); }
  SetEnabled(false);
  EXPECT_EQ(BufferedSpans(), 1u);
  Clear();
  EXPECT_EQ(BufferedSpans(), 0u);
  const std::string json = DrainChromeTraceJson();
  EXPECT_EQ(json.find("doomed"), std::string::npos);
  EXPECT_TRUE(test_json::IsValidJson(json));
}

// NowNs runs at the steady clock's rate (a time-stamp counter, where it is
// read, is calibrated against it) and never steps back on one thread.
TEST(TraceClockTest, TracksTheSteadyClockAndIsMonotonic) {
  const auto steady_start = std::chrono::steady_clock::now();
  const uint64_t start_ns = NowNs();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const uint64_t end_ns = NowNs();
  const double steady_ns = std::chrono::duration<double, std::nano>(
                               std::chrono::steady_clock::now() - steady_start)
                               .count();
  const double elapsed_ns = static_cast<double>(end_ns - start_ns);
  // Inside the steady interval that brackets it, up to a calibration error
  // far below 0.1% of 20 ms.
  EXPECT_GE(elapsed_ns, 20e6 * 0.999);
  EXPECT_LE(elapsed_ns, steady_ns * 1.001);

  uint64_t previous = NowNs();
  for (int i = 0; i < 100000; ++i) {
    const uint64_t now = NowNs();
    ASSERT_GE(now, previous);
    previous = now;
  }
}

}  // namespace
}  // namespace trace
}  // namespace chainsformer
