// Tests for the process-wide metrics registry: exact per-thread-sharded
// counts under contention, power-of-two histogram bucketing, and stable
// JSON serialization.

#include "util/metrics.h"

#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_json.h"

namespace chainsformer {
namespace metrics {
namespace {

TEST(MetricsRegistryTest, GetReturnsSameObjectForSameName) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x");
  Counter* b = reg.GetCounter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, reg.GetCounter("y"));
}

TEST(MetricsRegistryTest, CounterIncrementAndDelta) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c");
  EXPECT_EQ(c->Value(), 0);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsSumExactly) {
  MetricsRegistry reg;
  Counter* counter = reg.GetCounter("contended");
  Histogram* hist = reg.GetHistogram("contended_hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        hist->Observe(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
  EXPECT_EQ(hist->Count(), kThreads * kPerThread);

  // Sum/min/max merge exactly across the per-thread shards: every observed
  // value is an integer 1..8, each appearing kPerThread times.
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSnapshot& h = snap.histograms[0];
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 8.0);
  EXPECT_DOUBLE_EQ(h.sum, kPerThread * (1.0 + 2 + 3 + 4 + 5 + 6 + 7 + 8));
}

// More live threads than shard indices: the threads left without one add
// into the shared shard atomically, the rest into their own; a later wave
// of threads reuses the indices the first released. Every total stays
// exact, windowed or not.
TEST(MetricsRegistryTest, MoreThreadsThanShardsSumExactly) {
  MetricsRegistry reg;
  Counter* counter = reg.GetCounter("many");
  Counter* windowed = reg.GetCounter("many_windowed", Window::kSliding);
  Histogram* hist = reg.GetHistogram("many_hist", Window::kSliding);
  constexpr int kThreads = internal::kThreadShards + 8;
  constexpr int kLaterThreads = 4;
  constexpr int kPerThread = 2000;
  auto work = [&](int t) {
    for (int i = 0; i < kPerThread; ++i) {
      counter->Increment();
      windowed->Increment();
      hist->Observe(static_cast<double>(t + 1));
    }
  };
  std::atomic<int> started{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Every thread is alive before any updates, so some find no index.
      started.fetch_add(1, std::memory_order_relaxed);
      while (started.load(std::memory_order_relaxed) < kThreads) {
        std::this_thread::yield();
      }
      work(t);
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kLaterThreads; ++t) std::thread(work, t).join();

  constexpr int64_t kTotal = (kThreads + kLaterThreads) * kPerThread;
  EXPECT_EQ(counter->Value(), kTotal);
  EXPECT_EQ(windowed->Value(), kTotal);
  EXPECT_EQ(hist->Count(), kTotal);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.window.CounterSum("many_windowed"), kTotal);
  ASSERT_EQ(snap.histograms.size(), 1u);
  double sum = 0.0;
  for (int t = 0; t < kThreads; ++t) sum += kPerThread * (t + 1.0);
  for (int t = 0; t < kLaterThreads; ++t) sum += kPerThread * (t + 1.0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].sum, sum);
  EXPECT_DOUBLE_EQ(snap.histograms[0].min, 1.0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].max, kThreads);
  ASSERT_EQ(snap.window.histograms.size(), 1u);
  EXPECT_EQ(snap.window.histograms[0].second.count, kTotal);
}

TEST(MetricsRegistryTest, GaugeLastWriteWins) {
  MetricsRegistry reg;
  Gauge* g = reg.GetGauge("g");
  g->Set(1.5);
  g->Set(-2.25);
  EXPECT_DOUBLE_EQ(g->Value(), -2.25);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0: v <= 1 (including non-positive and NaN).
  EXPECT_EQ(Histogram::BucketIndex(-5.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(0.5), 0);
  EXPECT_EQ(Histogram::BucketIndex(1.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(std::nan("")), 0);
  // Bucket i covers (2^(i-1), 2^i]: exact powers of two land in their own
  // bucket, anything above spills into the next.
  EXPECT_EQ(Histogram::BucketIndex(1.0001), 1);
  EXPECT_EQ(Histogram::BucketIndex(2.0), 1);
  EXPECT_EQ(Histogram::BucketIndex(2.0001), 2);
  EXPECT_EQ(Histogram::BucketIndex(4.0), 2);
  EXPECT_EQ(Histogram::BucketIndex(1024.0), 10);
  EXPECT_EQ(Histogram::BucketIndex(1025.0), 11);
  // Overflow: everything beyond 2^62 shares the last (+Inf) bucket.
  EXPECT_EQ(Histogram::BucketIndex(std::ldexp(1.0, 100)),
            Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<double>::infinity()),
            Histogram::kNumBuckets - 1);
  // UpperBound matches: bucket i's inclusive bound is 2^i.
  EXPECT_DOUBLE_EQ(Histogram::UpperBound(0), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::UpperBound(10), 1024.0);
}

TEST(HistogramTest, EmptyHistogramReportsZeroMinMax) {
  MetricsRegistry reg;
  reg.GetHistogram("empty");
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].min, 0.0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].max, 0.0);
  EXPECT_TRUE(snap.histograms[0].buckets.empty());
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndLooksUpCounters) {
  MetricsRegistry reg;
  reg.GetCounter("b.second")->Increment(2);
  reg.GetCounter("a.first")->Increment(1);
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.first");
  EXPECT_EQ(snap.counters[1].first, "b.second");
  EXPECT_EQ(snap.CounterValue("b.second"), 2);
  EXPECT_EQ(snap.CounterValue("missing"), 0);
}

TEST(MetricsRegistryTest, ToJsonGolden) {
  MetricsRegistry reg;
  reg.GetCounter("pipeline.retrieval.calls")->Increment(3);
  reg.GetGauge("train.last_loss")->Set(0.25);
  Histogram* h = reg.GetHistogram("retrieval.toc_size");
  h->Observe(1.0);  // bucket 0 (le 1)
  h->Observe(3.0);  // bucket 2 (le 4)
  h->Observe(3.0);
  const std::string json = ToJson(reg.Snapshot());
  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"pipeline.retrieval.calls\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"train.last_loss\": 0.25\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"retrieval.toc_size\": {\"count\": 3, \"sum\": 7, \"min\": 1, "
      "\"max\": 3, \"buckets\": [{\"le\": 1, \"count\": 1}, "
      "{\"le\": 4, \"count\": 2}]}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(json, expected);
  EXPECT_TRUE(test_json::IsValidJson(json));
}

TEST(MetricsRegistryTest, EmptyRegistryJsonIsValid) {
  MetricsRegistry reg;
  const std::string json = ToJson(reg.Snapshot());
  EXPECT_TRUE(test_json::IsValidJson(json)) << json;
}

TEST(MetricsRegistryTest, OverflowBucketSerializesAsInfString) {
  MetricsRegistry reg;
  reg.GetHistogram("wide")->Observe(std::ldexp(1.0, 100));
  const std::string json = ToJson(reg.Snapshot());
  EXPECT_NE(json.find("\"le\": \"+Inf\""), std::string::npos) << json;
  EXPECT_TRUE(test_json::IsValidJson(json));
}

TEST(MetricsRegistryTest, SummaryTableListsEveryMetric) {
  MetricsRegistry reg;
  reg.GetCounter("kernels.tasks_dispatched")->Increment(7);
  reg.GetGauge("train.last_valid_nmae")->Set(0.125);
  reg.GetHistogram("encode.chain_length")->Observe(2.0);
  const std::string table = SummaryTable(reg.Snapshot());
  EXPECT_NE(table.find("kernels.tasks_dispatched"), std::string::npos);
  EXPECT_NE(table.find("train.last_valid_nmae"), std::string::npos);
  EXPECT_NE(table.find("encode.chain_length"), std::string::npos);
}

TEST(MetricsRegistryTest, GlobalRegistryIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
  Counter* c = MetricsRegistry::Global().GetCounter("metrics_test.global");
  c->Increment();
  EXPECT_GE(MetricsRegistry::Global().Snapshot().CounterValue(
                "metrics_test.global"),
            1);
}

TEST(MetricsRegistryTest, ScopedTimerAccumulatesMicrosAndCalls) {
  MetricsRegistry reg;
  Counter* micros = reg.GetCounter("stage.micros");
  Counter* calls = reg.GetCounter("stage.calls");
  {
    ScopedTimer timer(micros, calls);
    // Busy-wait a little so the elapsed time is nonzero on coarse clocks.
    volatile double x = 0.0;
    for (int i = 0; i < 200000; ++i) x = x + 1.0;
  }
  EXPECT_GE(micros->Value(), 0);
  EXPECT_EQ(calls->Value(), 1);
  { ScopedTimer timer(micros); }  // null calls counter is fine
  EXPECT_EQ(calls->Value(), 1);
}

}  // namespace
}  // namespace metrics
}  // namespace chainsformer
