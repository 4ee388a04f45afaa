// Tests for the sliding windows of the metrics registry: time-wheel
// rotation and expiry, percentile estimation against known distributions,
// windowed counters, and windowed registration (same object per name, one
// snapshot for both views, window choice fixed per name).

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/metrics.h"

namespace chainsformer {
namespace metrics {
namespace {

TEST(WindowedHistogramTest, EmptySnapshotIsZero) {
  HistogramWindow h;
  WindowedPercentiles p = h.SnapshotAtMs(0);
  EXPECT_EQ(p.count, 0);
  EXPECT_EQ(p.p50, 0.0);
  EXPECT_EQ(p.p99, 0.0);
  EXPECT_EQ(p.max_bound, 0.0);
}

TEST(WindowedHistogramTest, PercentilesLandInOwningBucket) {
  HistogramWindow h;
  const int64_t now = 5'000;
  // 90 observations near 100us, 10 near 3000us: p50/p90 must stay in the
  // low bucket's range, p99 in the high one's. Pow2 buckets give < 2x
  // relative error, so assert bucket bounds rather than exact values.
  for (int i = 0; i < 90; ++i) h.ObserveAtMs(100.0, now);
  for (int i = 0; i < 10; ++i) h.ObserveAtMs(3000.0, now);
  WindowedPercentiles p = h.SnapshotAtMs(now);
  EXPECT_EQ(p.count, 100);
  const int low = metrics::Histogram::BucketIndex(100.0);
  const int high = metrics::Histogram::BucketIndex(3000.0);
  EXPECT_GT(p.p50, metrics::Histogram::UpperBound(low - 1));
  EXPECT_LE(p.p50, metrics::Histogram::UpperBound(low));
  EXPECT_LE(p.p90, metrics::Histogram::UpperBound(low));
  EXPECT_GT(p.p99, metrics::Histogram::UpperBound(high - 1));
  EXPECT_LE(p.p99, metrics::Histogram::UpperBound(high));
  EXPECT_EQ(p.max_bound, metrics::Histogram::UpperBound(high));
  // Percentiles are monotone in rank.
  EXPECT_LE(p.p50, p.p90);
  EXPECT_LE(p.p90, p.p99);
}

TEST(WindowedHistogramTest, ObservationsExpireAfterWindow) {
  HistogramWindow h(/*num_slots=*/4, /*slot_millis=*/100);
  h.ObserveAtMs(50.0, 0);
  h.ObserveAtMs(50.0, 0);
  EXPECT_EQ(h.SnapshotAtMs(0).count, 2);
  // Still inside the 400ms window three slots later.
  EXPECT_EQ(h.SnapshotAtMs(350).count, 2);
  // A full window later the slot epoch is out of range: nothing remains.
  EXPECT_EQ(h.SnapshotAtMs(400).count, 0);
}

TEST(WindowedHistogramTest, NewObservationsReclaimExpiredSlots) {
  HistogramWindow h(/*num_slots=*/2, /*slot_millis=*/100);
  h.ObserveAtMs(1000.0, 0);    // slot 0, epoch 0
  h.ObserveAtMs(8.0, 250);     // slot 0 again (epoch 2): must reset first
  WindowedPercentiles p = h.SnapshotAtMs(250);
  EXPECT_EQ(p.count, 1);
  EXPECT_LE(p.p99, metrics::Histogram::UpperBound(
                       metrics::Histogram::BucketIndex(8.0)));
}

TEST(WindowedHistogramTest, SlidingWindowKeepsOnlyRecentSlots) {
  HistogramWindow h(/*num_slots=*/3, /*slot_millis=*/100);
  h.ObserveAtMs(10.0, 0);    // epoch 0
  h.ObserveAtMs(10.0, 100);  // epoch 1
  h.ObserveAtMs(10.0, 200);  // epoch 2
  EXPECT_EQ(h.SnapshotAtMs(200).count, 3);
  // At epoch 3 the window is [1, 3]: epoch 0 falls out.
  EXPECT_EQ(h.SnapshotAtMs(300).count, 2);
  EXPECT_EQ(h.SnapshotAtMs(400).count, 1);
  EXPECT_EQ(h.SnapshotAtMs(500).count, 0);
}

TEST(WindowedHistogramTest, ConcurrentObservesAreAllCounted) {
  HistogramWindow h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.ObserveAtMs(static_cast<double>(t + 1), 1000);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.SnapshotAtMs(1000).count,
            static_cast<int64_t>(kThreads) * kPerThread);
}

TEST(WindowedHistogramTest, NowMsIsMonotonic) {
  const int64_t a = HistogramWindow::NowMs();
  const int64_t b = HistogramWindow::NowMs();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
}

TEST(WindowedCounterTest, SumInsideWindowAndExpiry) {
  CounterWindow c(/*num_slots=*/3, /*slot_millis=*/100);
  c.IncrementAtMs(5, 0);
  c.IncrementAtMs(7, 120);
  EXPECT_EQ(c.SumAtMs(120), 12);
  EXPECT_EQ(c.SumAtMs(250), 12);   // both epochs still in [0, 2]
  EXPECT_EQ(c.SumAtMs(300), 7);    // epoch 0 expired
  EXPECT_EQ(c.SumAtMs(1000), 0);   // everything expired
}

TEST(WindowedCounterTest, WindowSecondsMatchesGeometry) {
  CounterWindow c(/*num_slots=*/4, /*slot_millis=*/250);
  EXPECT_DOUBLE_EQ(c.WindowSeconds(), 1.0);
}

TEST(WindowedRegistryTest, GetReturnsSameObjectForSameName) {
  MetricsRegistry reg;
  Histogram* a = reg.GetHistogram("phase.total_us", Window::kSliding);
  Histogram* b = reg.GetHistogram("phase.total_us", Window::kSliding);
  EXPECT_EQ(a, b);
  EXPECT_NE(a->window(), nullptr);
  EXPECT_NE(a, reg.GetHistogram("phase.compute_us", Window::kSliding));
  Counter* c = reg.GetCounter("requests", Window::kSliding);
  EXPECT_EQ(c, reg.GetCounter("requests", Window::kSliding));
  EXPECT_NE(c->window(), nullptr);
  EXPECT_EQ(reg.GetCounter("plain")->window(), nullptr);
}

TEST(WindowedRegistryTest, SnapshotListsWindowsSortedByName) {
  MetricsRegistry reg;
  reg.GetHistogram("zz", Window::kSliding)->Observe(4.0);
  reg.GetHistogram("aa", Window::kSliding)->Observe(2.0);
  reg.GetHistogram("cumulative_only")->Observe(2.0);
  reg.GetCounter("hits", Window::kSliding)->Increment(3);
  reg.GetCounter("plain")->Increment(5);
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.window.histograms.size(), 2u);
  EXPECT_EQ(snap.window.histograms[0].first, "aa");
  EXPECT_EQ(snap.window.histograms[1].first, "zz");
  EXPECT_EQ(snap.window.histograms[0].second.count, 1);
  ASSERT_EQ(snap.window.counters.size(), 1u);
  EXPECT_EQ(snap.window.counters[0].first, "hits");
  EXPECT_EQ(snap.window.counters[0].second, 3);
  EXPECT_EQ(snap.window.CounterSum("hits"), 3);
  EXPECT_EQ(snap.window.CounterSum("plain"), 0);
  EXPECT_EQ(snap.window.CounterSum("absent"), 0);
  EXPECT_GT(snap.window.seconds, 0.0);
  // The same snapshot carries the cumulative view of the windowed series.
  EXPECT_EQ(snap.CounterValue("hits"), 3);
  EXPECT_EQ(snap.CounterValue("plain"), 5);
  ASSERT_EQ(snap.histograms.size(), 3u);
}

TEST(WindowedRegistryTest, EveryUpdatePathFeedsTheWindow) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c", Window::kSliding);
  Histogram* h = reg.GetHistogram("h", Window::kSliding);
  const int64_t now_ms = TimeWheel::NowMs();
  c->Increment();
  c->Increment(2);
  c->IncrementAtMs(4, now_ms);
  h->Observe(8.0);
  h->ObserveAtMs(16.0, now_ms);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("c"), 7);
  EXPECT_EQ(snap.window.CounterSum("c"), 7);
  ASSERT_EQ(snap.window.histograms.size(), 1u);
  EXPECT_EQ(snap.window.histograms[0].second.count, h->Count());
  EXPECT_EQ(h->Count(), 2);
}

TEST(WindowedRegistryDeathTest, WindowChoiceIsFixedPerNameLikeTheKind) {
  MetricsRegistry reg;
  reg.GetCounter("windowed", Window::kSliding);
  reg.GetHistogram("plain");
  EXPECT_DEATH(reg.GetHistogram("windowed", Window::kSliding),
               "'windowed' already registered with a different kind");
  EXPECT_DEATH(reg.GetCounter("windowed"),
               "'windowed' already registered with a different window");
  EXPECT_DEATH(reg.GetHistogram("plain", Window::kSliding),
               "'plain' already registered with a different window");
}

}  // namespace
}  // namespace metrics
}  // namespace chainsformer
