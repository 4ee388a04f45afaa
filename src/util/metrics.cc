#include "util/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace chainsformer {
namespace metrics {
namespace {

void AtomicAdd(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// %g prints integers without a decimal point and strips trailing zeros,
/// which keeps the JSON stable across platforms for the values we emit.
std::string FormatNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

/// Percentile over merged pow2 buckets: find the bucket holding the target
/// rank, then interpolate linearly between its bounds. The overflow bucket
/// has no finite upper bound; report its lower bound (already "absurdly
/// slow" territory for the latencies tracked here).
double PercentileFromBuckets(const int64_t (&buckets)[Histogram::kNumBuckets],
                             int64_t total, double p) {
  if (total <= 0) return 0.0;
  const double rank = p * static_cast<double>(total);
  int64_t cumulative = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    if (buckets[i] == 0) continue;
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) < rank) continue;
    const double lower = i == 0 ? 0.0 : Histogram::UpperBound(i - 1);
    if (i == Histogram::kNumBuckets - 1) return lower;
    const double upper = Histogram::UpperBound(i);
    const double into_bucket =
        rank - static_cast<double>(cumulative - buckets[i]);
    const double fraction =
        std::clamp(into_bucket / static_cast<double>(buckets[i]), 0.0, 1.0);
    return lower + fraction * (upper - lower);
  }
  return Histogram::UpperBound(Histogram::kNumBuckets - 2);
}

int64_t ValueByName(const std::vector<std::pair<std::string, int64_t>>& values,
                    const std::string& name) {
  for (const auto& [n, v] : values) {
    if (n == name) return v;
  }
  return 0;
}

}  // namespace

namespace internal {
namespace {

// Bit i set = index i held by a live thread.
std::atomic<uint32_t> g_taken_shards{0};
static_assert(kThreadShards <= 32, "g_taken_shards holds one bit per index");

/// Gives the thread's index back when the thread exits. Updates the thread
/// makes after this (from later thread-exit code) go to the shared shards.
struct ShardRelease {
  ~ShardRelease() {
    const int index = t_thread_shard;
    t_thread_shard = -1;
    if (index >= 0) {
      g_taken_shards.fetch_and(~(uint32_t{1} << index),
                               std::memory_order_release);
    }
  }
};

}  // namespace

int AssignThreadShard() {
  uint32_t taken = g_taken_shards.load(std::memory_order_relaxed);
  int index = -1;
  while (~taken != 0) {
    const int free = std::countr_one(taken);
    // acquire: the shards of a reused index were written by its previous
    // holder, whose release published them.
    if (g_taken_shards.compare_exchange_weak(taken,
                                             taken | (uint32_t{1} << free),
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
      index = free;
      break;
    }
  }
  t_thread_shard = index;
  if (index >= 0) {
    thread_local ShardRelease release;
    (void)release;
  }
  return index;
}

int64_t CounterCells::Total() const {
  int64_t total = 0;
  shards_.ForEach([&](const CounterShard& s) {
    total += s.value.load(std::memory_order_relaxed);
  });
  return total;
}

void HistogramCells::ObserveShared(int b, double v) {
  HistogramShard& s = shards_.shared();
  s.buckets[b].fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(s.sum, v);
  AtomicMin(s.min, v);
  AtomicMax(s.max, v);
}

void HistogramCells::AddBucketsTo(int64_t* out) const {
  shards_.ForEach([&](const HistogramShard& s) {
    for (int i = 0; i < kHistogramBuckets; ++i) {
      out[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
  });
}

void HistogramCells::Stats(double* sum, double* min, double* max) const {
  *sum = 0.0;
  *min = std::numeric_limits<double>::infinity();
  *max = -std::numeric_limits<double>::infinity();
  shards_.ForEach([&](const HistogramShard& s) {
    *sum += s.sum.load(std::memory_order_relaxed);
    *min = std::min(*min, s.min.load(std::memory_order_relaxed));
    *max = std::max(*max, s.max.load(std::memory_order_relaxed));
  });
}

}  // namespace internal

int64_t TimeWheel::NowMs() {
  // Shares the tracer's clock base so serve-path instrumentation can feed
  // timestamps it already holds into the *AtMs updates without a second
  // clock read, and without ever mixing wheel timebases.
  return static_cast<int64_t>(trace::NowNs() / 1'000'000);
}

TimeWheel::TimeWheel(int cells, int num_slots, int64_t slot_millis)
    : cells_(std::max(1, cells)),
      num_slots_(std::max(1, num_slots)),
      slot_millis_(std::max<int64_t>(1, slot_millis)),
      epochs_(static_cast<size_t>(num_slots_), kNeverOpened),
      starts_(static_cast<size_t>(num_slots_) * static_cast<size_t>(cells_),
              0) {}

void TimeWheel::Open(int64_t now_ms, const int64_t* totals) {
  const int64_t epoch = now_ms / slot_millis_;
  cf::MutexLock lock(mu_);
  if (epoch <= newest_) return;
  const size_t slot = static_cast<size_t>(epoch % num_slots_);
  epochs_[slot] = epoch;
  std::copy(totals, totals + cells_,
            starts_.data() + slot * static_cast<size_t>(cells_));
  newest_ = epoch;
  next_open_ms_.store((epoch + 1) * slot_millis_, std::memory_order_relaxed);
}

const int64_t* TimeWheel::OldestStartLocked(int64_t now_ms) const {
  const int64_t current = now_ms / slot_millis_;
  const int64_t oldest_live = current - num_slots_ + 1;
  size_t best = epochs_.size();
  for (size_t slot = 0; slot < epochs_.size(); ++slot) {
    const int64_t epoch = epochs_[slot];
    if (epoch < oldest_live || epoch > current) continue;
    if (best == epochs_.size() || epoch < epochs_[best]) best = slot;
  }
  if (best == epochs_.size()) return nullptr;
  return starts_.data() + best * static_cast<size_t>(cells_);
}

void CounterWindow::OpenSlot(int64_t now_ms) {
  const int64_t total = cells_.Total();
  Open(now_ms, &total);
}

int64_t CounterWindow::SumAtMs(int64_t now_ms) const {
  int64_t sum = 0;
  WindowAtMs(now_ms, [&](int64_t* out) { *out += cells_.Total(); }, &sum);
  return sum;
}

HistogramWindow::HistogramWindow(int num_slots, int64_t slot_millis)
    : TimeWheel(Histogram::kNumBuckets, num_slots, slot_millis) {}

void HistogramWindow::OpenSlot(int64_t now_ms) {
  int64_t totals[Histogram::kNumBuckets] = {};
  cells_.AddBucketsTo(totals);
  Open(now_ms, totals);
}

WindowedPercentiles HistogramWindow::SnapshotAtMs(int64_t now_ms) const {
  int64_t merged[Histogram::kNumBuckets] = {};
  WindowAtMs(
      now_ms, [&](int64_t* out) { cells_.AddBucketsTo(out); }, merged);
  WindowedPercentiles out;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    out.count += merged[i];
    if (merged[i] > 0) {
      out.max_bound = i == Histogram::kNumBuckets - 1
                          ? Histogram::UpperBound(i - 1)
                          : Histogram::UpperBound(i);
    }
  }
  out.p50 = PercentileFromBuckets(merged, out.count, 0.50);
  out.p90 = PercentileFromBuckets(merged, out.count, 0.90);
  out.p99 = PercentileFromBuckets(merged, out.count, 0.99);
  return out;
}

int Histogram::BucketIndex(double v) { return internal::BucketOf(v); }

double Histogram::UpperBound(int i) { return std::ldexp(1.0, i); }

int64_t Histogram::Count() const {
  int64_t buckets[kNumBuckets] = {};
  cells().AddBucketsTo(buckets);
  int64_t count = 0;
  for (int64_t n : buckets) count += n;
  return count;
}

int64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  return ValueByName(counters, name);
}

int64_t MetricsSnapshot::WindowView::CounterSum(const std::string& name) const {
  return ValueByName(counters, name);
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked intentionally: instrumented code caches metric pointers in
  // function-local statics, and worker threads may still touch them during
  // static teardown.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name, Window window) {
  cf::MutexLock lock(mu_);
  CF_CHECK(gauges_.count(name) == 0 && histograms_.count(name) == 0)
      << "metric '" << name << "' already registered with a different kind";
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(name,
                      std::unique_ptr<Counter>(new Counter(name, window)))
             .first;
  }
  CF_CHECK((it->second->window() != nullptr) == (window == Window::kSliding))
      << "metric '" << name << "' already registered with a different window";
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  cf::MutexLock lock(mu_);
  CF_CHECK(counters_.count(name) == 0 && histograms_.count(name) == 0)
      << "metric '" << name << "' already registered with a different kind";
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge(name))).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         Window window) {
  cf::MutexLock lock(mu_);
  CF_CHECK(counters_.count(name) == 0 && gauges_.count(name) == 0)
      << "metric '" << name << "' already registered with a different kind";
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name,
                      std::unique_ptr<Histogram>(new Histogram(name, window)))
             .first;
  }
  CF_CHECK((it->second->window() != nullptr) == (window == Window::kSliding))
      << "metric '" << name << "' already registered with a different window";
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  cf::MutexLock lock(mu_);
  MetricsSnapshot snap;
  const int64_t now_ms = TimeWheel::NowMs();
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->Value());
    if (const CounterWindow* w = c->window()) {
      snap.window.seconds = std::max(snap.window.seconds, w->WindowSeconds());
      snap.window.counters.emplace_back(name, w->SumAtMs(now_ms));
    }
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->Value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    int64_t buckets[Histogram::kNumBuckets] = {};
    h->cells().AddBucketsTo(buckets);
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      if (buckets[i] == 0) continue;
      hs.count += buckets[i];
      hs.buckets.push_back(
          {i == Histogram::kNumBuckets - 1
               ? std::numeric_limits<double>::infinity()
               : Histogram::UpperBound(i),
           buckets[i]});
    }
    double min = 0.0;
    double max = 0.0;
    h->cells().Stats(&hs.sum, &min, &max);
    hs.min = hs.count > 0 ? min : 0.0;
    hs.max = hs.count > 0 ? max : 0.0;
    snap.histograms.push_back(std::move(hs));
    if (const HistogramWindow* w = h->window()) {
      snap.window.seconds = std::max(snap.window.seconds, w->WindowSeconds());
      snap.window.histograms.emplace_back(name, w->SnapshotAtMs(now_ms));
    }
  }
  // std::map iteration is already name-sorted; keep that as the contract.
  return snap;
}

std::string ToJson(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \""
       << EscapeJson(snapshot.counters[i].first)
       << "\": " << snapshot.counters[i].second;
  }
  os << (snapshot.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \""
       << EscapeJson(snapshot.gauges[i].first)
       << "\": " << FormatNumber(snapshot.gauges[i].second);
  }
  os << (snapshot.gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSnapshot& h = snapshot.histograms[i];
    os << (i == 0 ? "\n" : ",\n") << "    \"" << EscapeJson(h.name)
       << "\": {\"count\": " << h.count << ", \"sum\": " << FormatNumber(h.sum)
       << ", \"min\": " << FormatNumber(h.min)
       << ", \"max\": " << FormatNumber(h.max) << ", \"buckets\": [";
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      if (b != 0) os << ", ";
      os << "{\"le\": ";
      if (std::isinf(h.buckets[b].upper_bound)) {
        os << "\"+Inf\"";
      } else {
        os << FormatNumber(h.buckets[b].upper_bound);
      }
      os << ", \"count\": " << h.buckets[b].count << "}";
    }
    os << "]}";
  }
  os << (snapshot.histograms.empty() ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

bool WriteJsonFile(const std::string& path, const MetricsSnapshot& snapshot) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    // An error here surfaces as the open failure below, with the path.
  }
  std::ofstream out(path);
  if (!out.good()) {
    CF_LOG(Error) << "metrics: cannot open " << path << " for writing";
    return false;
  }
  out << ToJson(snapshot);
  return out.good();
}

std::string SummaryTable(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  char line[160];
  if (!snapshot.counters.empty()) {
    os << "-- counters -------------------------------------------------\n";
    for (const auto& [name, v] : snapshot.counters) {
      std::snprintf(line, sizeof(line), "%-44s %14lld\n", name.c_str(),
                    static_cast<long long>(v));
      os << line;
    }
  }
  if (!snapshot.gauges.empty()) {
    os << "-- gauges ---------------------------------------------------\n";
    for (const auto& [name, v] : snapshot.gauges) {
      std::snprintf(line, sizeof(line), "%-44s %14.6g\n", name.c_str(), v);
      os << line;
    }
  }
  if (!snapshot.histograms.empty()) {
    os << "-- histograms -----------------------------------------------\n";
    std::snprintf(line, sizeof(line), "%-32s %10s %10s %10s %10s\n", "name",
                  "count", "mean", "min", "max");
    os << line;
    for (const auto& h : snapshot.histograms) {
      const double mean = h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
      std::snprintf(line, sizeof(line), "%-32s %10lld %10.4g %10.4g %10.4g\n",
                    h.name.c_str(), static_cast<long long>(h.count), mean,
                    h.min, h.max);
      os << line;
    }
  }
  return os.str();
}

}  // namespace metrics
}  // namespace chainsformer
