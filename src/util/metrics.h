#ifndef CHAINSFORMER_UTIL_METRICS_H_
#define CHAINSFORMER_UTIL_METRICS_H_

#include <algorithm>
#include <atomic>
#include <bit>
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
/// update is a few relaxed loads and stores into the updating thread's own
/// shard of the metric, so instrumented hot paths stay lock-free and never
/// contend. The idiom in instrumented code is a cached static pointer:
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

namespace internal {

/// Every thread that updates a metric holds a shard index in
/// [0, kThreadShards) until it exits (a later thread reuses it), and every
/// counter and histogram keeps one shard of its cells per index, created on
/// that index's first update. A thread adds into its own shard with a plain
/// relaxed load and store: no locked instruction, and no cache line another
/// thread writes. A read sums every shard. A thread that finds every index
/// taken, or is past its thread-exit cleanup, has index -1 and updates the
/// shared shard with atomic read-modify-writes instead.
inline constexpr int kThreadShards = 32;
inline constexpr int kUnassignedShard = -2;
inline thread_local int t_thread_shard = kUnassignedShard;
/// Claims a free index for the calling thread (-1 when none is free) and
/// arranges its release at thread exit.
int AssignThreadShard();

/// The calling thread's shard index, or -1.
inline int ThreadShard() {
  const int index = t_thread_shard;
  return index != kUnassignedShard ? index : AssignThreadShard();
}

/// One `Shard` (a struct of atomics) per thread index, plus the shared one.
template <typename Shard>
class PerThread {
 public:
  PerThread() = default;
  ~PerThread() {
    for (auto& s : own_) delete s.load(std::memory_order_relaxed);
  }
  PerThread(const PerThread&) = delete;
  PerThread& operator=(const PerThread&) = delete;

  /// The calling thread's own shard, or null when the thread has no index
  /// (it then updates shared() atomically).
  Shard* Own() {
    const int index = ThreadShard();
    if (index < 0) return nullptr;
    Shard* s = own_[index].load(std::memory_order_acquire);
    if (s == nullptr) {
      // Only the index's holder creates its shard, so this races nothing;
      // a later holder of the index keeps adding into the same shard.
      s = new Shard();
      own_[index].store(s, std::memory_order_release);
    }
    return s;
  }
  Shard& shared() { return shared_; }

  /// Calls f on every shard, the shared one included.
  template <typename F>
  void ForEach(F&& f) const {
    for (const auto& s : own_) {
      if (const Shard* p = s.load(std::memory_order_acquire)) f(*p);
    }
    f(shared_);
  }

 private:
  std::atomic<Shard*> own_[kThreadShards] = {};
  Shard shared_;
};

/// Adds to a cell that only the calling thread writes.
inline void AddOwned(std::atomic<int64_t>& cell, int64_t delta) {
  cell.store(cell.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

struct alignas(64) CounterShard {
  std::atomic<int64_t> value{0};
};

/// An int64 that only grows by Add, summed over per-thread shards.
class CounterCells {
 public:
  void Add(int64_t delta) {
    if (CounterShard* s = shards_.Own()) {
      AddOwned(s->value, delta);
    } else {
      shards_.shared().value.fetch_add(delta, std::memory_order_relaxed);
    }
  }
  int64_t Total() const;

 private:
  PerThread<CounterShard> shards_;
};

inline constexpr int kHistogramBuckets = 64;

/// Histogram::BucketIndex, inline for the observe path.
inline int BucketOf(double v) {
  if (!(v > 1.0)) return 0;  // v <= 1, non-finite negatives, NaN
  // v > 1 is normal (or +inf): its exponent e puts v in [2^e, 2^(e+1)).
  // Bucket i covers (2^(i-1), 2^i], so an exact power of two (zero
  // mantissa) belongs to bucket e and everything above it to e + 1.
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  const int e = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
  const bool power_of_two = (bits & ((uint64_t{1} << 52) - 1)) == 0;
  return std::min(power_of_two ? e : e + 1, kHistogramBuckets - 1);
}

struct alignas(64) HistogramShard {
  std::atomic<int64_t> buckets[kHistogramBuckets] = {};
  std::atomic<double> sum{0.0};
  // +/-infinity sentinels: the merged min/max of shards that saw nothing
  // stay neutral; the snapshot reports 0 for both while the histogram is
  // empty.
  std::atomic<double> min{std::numeric_limits<double>::infinity()};
  std::atomic<double> max{-std::numeric_limits<double>::infinity()};
};

/// A histogram's bucket counts, sum, min and max, in per-thread shards.
class HistogramCells {
 public:
  void Observe(double v) {
    const int b = BucketOf(v);
    HistogramShard* s = shards_.Own();
    if (s == nullptr) return ObserveShared(b, v);
    AddOwned(s->buckets[b], 1);
    s->sum.store(s->sum.load(std::memory_order_relaxed) + v,
                 std::memory_order_relaxed);
    if (v < s->min.load(std::memory_order_relaxed)) {
      s->min.store(v, std::memory_order_relaxed);
    }
    if (v > s->max.load(std::memory_order_relaxed)) {
      s->max.store(v, std::memory_order_relaxed);
    }
  }
  /// Adds the bucket counts into out[0, kHistogramBuckets).
  void AddBucketsTo(int64_t* out) const;
  /// Sum, min and max over every shard (min/max: +inf/-inf when empty).
  void Stats(double* sum, double* min, double* max) const;

 private:
  void ObserveShared(int bucket, double v);

  PerThread<HistogramShard> shards_;
};

}  // namespace internal

/// Sliding window over cells that only grow (a counter's value, a
/// histogram's bucket counts): a ring of `num_slots` slots of `slot_millis`
/// each, every slot holding the cells' running totals as they stood when
/// it opened. The window at now_ms is the totals minus those recorded when
/// the oldest slot still inside the window opened, so it counts the updates
/// stamped from that slot on. The first update stamped in a new slot opens
/// it, under a mutex, once per slot; every other update pays one relaxed
/// load and a compare here, so a windowed update costs what a cumulative
/// one does (bench/perf_microbench keeps the per-request bill under 1% of a
/// compiled dispatch). Thread-safe.
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

  /// Milliseconds on the tracer's clock (trace::NowNs() / 1e6), so callers
  /// holding a NowNs() timestamp may pass `ns / 1'000'000` to the *AtMs
  /// updates directly, without a second clock read. `now_ms` passed to a
  /// wheel must never decrease, as the tracer clock's does not.
  static int64_t NowMs();

 protected:
  TimeWheel(int cells, int num_slots, int64_t slot_millis);

  /// Whether an update stamped now_ms lands in a slot not opened yet: the
  /// caller then passes the totals as they stand before its update to Open.
  bool Crossed(int64_t now_ms) const {
    return now_ms >= next_open_ms_.load(std::memory_order_relaxed);
  }
  /// Opens now_ms's slot with totals[0, cells), unless a slot at least as
  /// new is already open.
  void Open(int64_t now_ms, const int64_t* totals);
  /// Sets out[0, cells), which starts zeroed, to the part of the totals
  /// added inside the window at now_ms: read_totals(out) adds the current
  /// totals into out (under the wheel's mutex, so no slot opens between
  /// the two reads), minus the totals recorded when the oldest slot inside
  /// the window opened. Leaves out zero when no slot inside it was opened.
  template <typename ReadTotals>
  void WindowAtMs(int64_t now_ms, ReadTotals&& read_totals,
                  int64_t* out) const {
    cf::MutexLock lock(mu_);
    const int64_t* start = OldestStartLocked(now_ms);
    if (start == nullptr) return;
    read_totals(out);
    for (int i = 0; i < cells_; ++i) out[i] -= start[i];
  }

 private:
  static constexpr int64_t kNeverOpened = std::numeric_limits<int64_t>::min();

  /// Totals at the opening of the oldest slot inside the window at now_ms,
  /// or null when no slot inside it was opened.
  const int64_t* OldestStartLocked(int64_t now_ms) const CF_REQUIRES(mu_);

  const int cells_;
  const int num_slots_;
  const int64_t slot_millis_;
  // The first millisecond past the newest open slot (every stamp crosses
  // the initial value).
  std::atomic<int64_t> next_open_ms_{std::numeric_limits<int64_t>::min()};
  // Serializes slot opening and window reads.
  mutable cf::Mutex mu_{"metrics.window_rotate"};
  // Epoch (now_ms / slot_millis_) of the newest open slot.
  int64_t newest_ CF_GUARDED_BY(mu_) = kNeverOpened;
  // epochs_[s] is the epoch slot s was last opened for (kNeverOpened
  // before that); its totals at opening are starts_[s * cells_,
  // (s + 1) * cells_).
  std::vector<int64_t> epochs_ CF_GUARDED_BY(mu_);
  std::vector<int64_t> starts_ CF_GUARDED_BY(mu_);
};

/// A count that also answers "how many inside the window".
class CounterWindow : public TimeWheel {
 public:
  explicit CounterWindow(int num_slots = kDefaultSlots,
                         int64_t slot_millis = kDefaultSlotMillis)
      : TimeWheel(1, num_slots, slot_millis) {}

  void IncrementAtMs(int64_t delta, int64_t now_ms) {
    if (Crossed(now_ms)) OpenSlot(now_ms);
    cells_.Add(delta);
  }
  int64_t SumAtMs(int64_t now_ms) const;
  /// Everything added since construction.
  int64_t Total() const { return cells_.Total(); }

 private:
  void OpenSlot(int64_t now_ms);

  internal::CounterCells cells_;
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

/// A histogram (Histogram's bucket layout) that also answers for the
/// observations inside the window.
class HistogramWindow : public TimeWheel {
 public:
  explicit HistogramWindow(int num_slots = kDefaultSlots,
                           int64_t slot_millis = kDefaultSlotMillis);

  void ObserveAtMs(double v, int64_t now_ms) {
    if (Crossed(now_ms)) OpenSlot(now_ms);
    cells_.Observe(v);
  }
  WindowedPercentiles SnapshotAtMs(int64_t now_ms) const;
  /// Every observation since construction.
  const internal::HistogramCells& cells() const { return cells_; }

 private:
  void OpenSlot(int64_t now_ms);

  internal::HistogramCells cells_;
};

/// Monotonically increasing integer metric. Each update is a relaxed load
/// and store into the calling thread's shard.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    IncrementAtMs(delta, window_ != nullptr ? TimeWheel::NowMs() : 0);
  }
  /// Increment for a caller already holding TimeWheel::NowMs(): a windowed
  /// counter then reads no clock of its own.
  void IncrementAtMs(int64_t delta, int64_t now_ms) {
    if (window_ != nullptr) {
      window_->IncrementAtMs(delta, now_ms);
    } else {
      cells_.Add(delta);
    }
  }
  int64_t Value() const {
    return window_ != nullptr ? window_->Total() : cells_.Total();
  }
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
  // A windowed counter counts in its window; cells_ then stays unused.
  const std::unique_ptr<CounterWindow> window_;
  internal::CounterCells cells_;
};

/// Last-write-wins floating-point metric (e.g. current loss), or a process
/// total that several owners Add() their shares to.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
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
/// and the last bucket is the +Inf overflow. Observe() updates the calling
/// thread's shard (bucket, sum, min, max) with relaxed loads and stores.
class Histogram {
 public:
  static constexpr int kNumBuckets = internal::kHistogramBuckets;

  void Observe(double v) {
    ObserveAtMs(v, window_ != nullptr ? TimeWheel::NowMs() : 0);
  }
  /// Observe for a caller already holding TimeWheel::NowMs() (see
  /// Counter::IncrementAtMs).
  void ObserveAtMs(double v, int64_t now_ms) {
    if (window_ != nullptr) {
      window_->ObserveAtMs(v, now_ms);
    } else {
      cells_.Observe(v);
    }
  }

  /// Bucket index v falls into (exposed for tests).
  static int BucketIndex(double v);
  /// Inclusive upper bound of bucket i; the last bucket has no finite bound.
  static double UpperBound(int i);

  int64_t Count() const;
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
  const internal::HistogramCells& cells() const {
    return window_ != nullptr ? window_->cells() : cells_;
  }
  std::string name_;
  // A windowed histogram counts in its window; cells_ then stays unused.
  const std::unique_ptr<HistogramWindow> window_;
  internal::HistogramCells cells_;
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
