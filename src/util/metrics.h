#ifndef CHAINSFORMER_UTIL_METRICS_H_
#define CHAINSFORMER_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/stopwatch.h"
#include "util/sync.h"

namespace chainsformer {
namespace metrics {

/// Process-wide counters, gauges and histograms for the ChainsFormer
/// pipeline (retrieval / filter / encoder / reasoner), the training loop and
/// the kernel layer. Registration takes a mutex once; after that every
/// update is a handful of relaxed atomic operations, so instrumented hot
/// paths stay lock-free. The idiom in instrumented code is a cached static
/// pointer:
///
///   static auto* walks = metrics::MetricsRegistry::Global().GetCounter(
///       "retrieval.walks");
///   walks->Increment();
///
/// Metric objects live for the process lifetime (the registry is never
/// destroyed), so cached pointers stay valid even during static teardown of
/// worker pools.
///
/// A counter or histogram can also carry a sliding window, chosen when it is
/// registered (Window::kSliding). The cumulative value answers "what
/// happened since process start"; the window answers "what is p99 *right
/// now*", so a burst that ended two minutes ago no longer drags today's
/// p99. Both views come out of one MetricsRegistry::Snapshot().

/// Whether a counter or histogram keeps a sliding window next to its
/// cumulative value.
enum class Window { kNone, kSliding };

/// Time wheel behind every sliding window: `num_slots` slots of
/// `slot_millis` each, every slot holding `cells` int64 sums. An add lands
/// in the slot owning the current tick; a read merges the slots still
/// inside the window. Rotation is lazy: the first add that lands in an
/// expired slot resets it under a mutex, and every other add is one relaxed
/// fetch_add, so a windowed update costs about what a cumulative one does
/// (bench/perf_microbench keeps the per-request bill under 1% of a compiled
/// dispatch). Thread-safe.
class TimeWheel {
 public:
  /// 6 x 10 s = a 60-second window, the "right now" horizon of a human
  /// watching a dashboard.
  static constexpr int kDefaultSlots = 6;
  static constexpr int64_t kDefaultSlotMillis = 10'000;

  TimeWheel(const TimeWheel&) = delete;
  TimeWheel& operator=(const TimeWheel&) = delete;

  /// Window span covered by a read.
  double WindowSeconds() const {
    return static_cast<double>(num_slots_) *
           static_cast<double>(slot_millis_) * 1e-3;
  }

  /// Milliseconds on the tracer's steady clock (trace::NowNs() / 1e6), so
  /// callers holding a NowNs() timestamp may pass `ns / 1'000'000` to the
  /// *AtMs updates directly, without a second clock read. `now_ms` passed
  /// to a wheel must never decrease, as a steady clock's does not.
  static int64_t NowMs();

 protected:
  TimeWheel(int cells, int num_slots, int64_t slot_millis);

  void AddAtMs(int cell, int64_t delta, int64_t now_ms);
  /// Adds the sums of the slots inside the window into out[0, cells).
  void MergeAtMs(int64_t now_ms, int64_t* out) const;

 private:
  const int cells_;
  const int num_slots_;
  const int64_t slot_millis_;
  // epochs_[s] is now_ms / slot_millis_ when slot s was last reset (-1 =
  // never); its sums are sums_[s * cells_, (s + 1) * cells_). Both are
  // atomics that readers and writers touch without the mutex.
  std::vector<std::atomic<int64_t>> epochs_;
  std::vector<std::atomic<int64_t>> sums_;
  // Serializes slot rotation only.
  mutable cf::Mutex rotate_mu_{"metrics.window_rotate"};
};

/// Events counted inside a sliding window.
class CounterWindow : public TimeWheel {
 public:
  explicit CounterWindow(int num_slots = kDefaultSlots,
                         int64_t slot_millis = kDefaultSlotMillis)
      : TimeWheel(1, num_slots, slot_millis) {}

  void IncrementAtMs(int64_t delta, int64_t now_ms) {
    AddAtMs(0, delta, now_ms);
  }
  int64_t SumAtMs(int64_t now_ms) const {
    int64_t sum = 0;
    MergeAtMs(now_ms, &sum);
    return sum;
  }
};

/// Percentiles of one histogram window. Values are linearly interpolated
/// inside the matched power-of-two bucket, so they are estimates with
/// bucket-relative (< 2x) error — the right fidelity for live dashboards.
struct WindowedPercentiles {
  int64_t count = 0;  // observations inside the window
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max_bound = 0.0;  // upper bound of the highest non-empty bucket
};

/// Observations inside a sliding window, in Histogram's bucket layout (one
/// wheel cell per bucket).
class HistogramWindow : public TimeWheel {
 public:
  explicit HistogramWindow(int num_slots = kDefaultSlots,
                           int64_t slot_millis = kDefaultSlotMillis);

  void ObserveAtMs(double v, int64_t now_ms);
  WindowedPercentiles SnapshotAtMs(int64_t now_ms) const;
};

/// Monotonically increasing integer metric.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    IncrementAtMs(delta, window_ != nullptr ? TimeWheel::NowMs() : 0);
  }
  /// Increment for a caller already holding TimeWheel::NowMs(): a windowed
  /// counter then reads no clock of its own.
  void IncrementAtMs(int64_t delta, int64_t now_ms) {
    value_.fetch_add(delta, std::memory_order_relaxed);
    if (window_ != nullptr) window_->IncrementAtMs(delta, now_ms);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  /// The sliding window, or null when registered with Window::kNone.
  const CounterWindow* window() const { return window_.get(); }

 private:
  friend class MetricsRegistry;
  Counter(std::string name, Window window)
      : name_(std::move(name)),
        window_(window == Window::kSliding ? std::make_unique<CounterWindow>()
                                           : nullptr) {}
  std::string name_;
  std::atomic<int64_t> value_{0};
  const std::unique_ptr<CounterWindow> window_;
};

/// Last-write-wins floating-point metric (e.g. current loss).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Exponential histogram with power-of-two buckets: bucket 0 collects
/// v <= 1, bucket i (0 < i < kNumBuckets-1) collects 2^(i-1) < v <= 2^i,
/// and the last bucket is the +Inf overflow. Observe() is a few relaxed
/// atomics (one fetch_add, CAS loops for sum/min/max).
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  void Observe(double v) {
    ObserveAtMs(v, window_ != nullptr ? TimeWheel::NowMs() : 0);
  }
  /// Observe for a caller already holding TimeWheel::NowMs() (see
  /// Counter::IncrementAtMs).
  void ObserveAtMs(double v, int64_t now_ms);

  /// Bucket index v falls into (exposed for tests).
  static int BucketIndex(double v);
  /// Inclusive upper bound of bucket i; the last bucket has no finite bound.
  static double UpperBound(int i);

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  /// The sliding window, or null when registered with Window::kNone.
  const HistogramWindow* window() const { return window_.get(); }

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, Window window)
      : name_(std::move(name)),
        window_(window == Window::kSliding
                    ? std::make_unique<HistogramWindow>()
                    : nullptr) {}
  std::string name_;
  const std::unique_ptr<HistogramWindow> window_;
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // +/-infinity sentinels make concurrent first observations race-free; the
  // snapshot reports 0 for both while the histogram is empty.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Point-in-time copy of one histogram, with only non-empty buckets.
struct HistogramSnapshot {
  struct Bucket {
    double upper_bound = 0.0;  // inclusive; +infinity for the overflow bucket
    int64_t count = 0;
  };
  std::string name;
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<Bucket> buckets;
};

/// Stable point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// The windows of the metrics registered with Window::kSliding, read at
  /// the same instant as the cumulative values above.
  struct WindowView {
    double seconds = 0.0;  // window span; 0 when nothing is windowed
    std::vector<std::pair<std::string, int64_t>> counters;
    std::vector<std::pair<std::string, WindowedPercentiles>> histograms;

    /// Windowed counter sum by name; 0 when absent.
    int64_t CounterSum(const std::string& name) const;
  };
  WindowView window;

  /// Counter value by name; 0 when absent. Convenience for stage-delta math.
  int64_t CounterValue(const std::string& name) const;
};

/// Thread-safe name -> metric registry. Get* registers on first use and
/// returns a pointer that stays valid for the registry's lifetime; repeated
/// calls with the same name return the same object. A name identifies one
/// metric kind and one window choice — requesting it as a different kind,
/// or with a different window, is a fatal error.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-global registry (never destroyed).
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name, Window window = Window::kNone);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          Window window = Window::kNone);

  MetricsSnapshot Snapshot() const;

 private:
  mutable cf::Mutex mu_{"metrics.registry"};
  std::map<std::string, std::unique_ptr<Counter>> counters_ CF_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ CF_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      CF_GUARDED_BY(mu_);
};

/// Serializes a snapshot as {"counters": {...}, "gauges": {...},
/// "histograms": {name: {count, sum, min, max, buckets: [{le, count}]}}}.
std::string ToJson(const MetricsSnapshot& snapshot);

/// Writes ToJson() to `path`, creating missing parent directories. Returns
/// false (and logs the path) on I/O failure.
bool WriteJsonFile(const std::string& path, const MetricsSnapshot& snapshot);

/// Human-readable fixed-width dump of a snapshot (the CLI's --stats table).
std::string SummaryTable(const MetricsSnapshot& snapshot);

/// RAII stage timer: on destruction adds the elapsed microseconds to
/// `micros` and 1 to `calls` (either may be null). The pipeline stages use
/// one of these per call so per-stage wall time accumulates in the registry
/// (and epoch deltas can be read back by the training loop).
class ScopedTimer {
 public:
  explicit ScopedTimer(Counter* micros, Counter* calls = nullptr)
      : micros_(micros), calls_(calls) {}
  ~ScopedTimer() {
    if (micros_ != nullptr) micros_->Increment(sw_.ElapsedMicros());
    if (calls_ != nullptr) calls_->Increment();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Counter* micros_;
  Counter* calls_;
  Stopwatch sw_;
};

}  // namespace metrics
}  // namespace chainsformer

#endif  // CHAINSFORMER_UTIL_METRICS_H_
