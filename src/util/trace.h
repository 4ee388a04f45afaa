#ifndef CHAINSFORMER_UTIL_TRACE_H_
#define CHAINSFORMER_UTIL_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace chainsformer {
namespace trace {

/// Low-overhead span tracer for the prediction/training pipeline. Scopes are
/// annotated with CF_TRACE_SCOPE("stage"); completed spans land in
/// per-thread ring buffers (steady-clock ticks, thread id, nesting depth)
/// and are drained on demand into Chrome trace-event JSON that loads in
/// chrome://tracing or Perfetto.
///
/// Tracing is OFF by default. While disabled, an instrumented scope costs
/// one relaxed atomic load and a branch — no clock reads, no locks, no
/// allocation — so hot paths can stay instrumented permanently
/// (bench/perf_microbench asserts this stays below a nanosecond budget).

/// Spans each thread can buffer before the oldest are overwritten.
constexpr size_t kRingCapacity = 1 << 14;

struct SpanAnnotations;

namespace internal {
extern std::atomic<bool> g_enabled;

/// Out-of-line slow path used only while tracing is enabled.
void BeginSpan(const char* name, uint64_t* start_ns, int* depth);
void EndSpan(const char* name, uint64_t start_ns, int depth);
void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns,
                const SpanAnnotations& ann);

/// NowNs's time-stamp-counter scale, published by its first call once it
/// has calibrated one: ns per tick in 32.32 fixed point (0 while unset, and
/// for good where the clock reads steady_clock) and the tick count at time
/// zero.
extern std::atomic<uint64_t> g_ns_per_tick_q32;
extern std::atomic<uint64_t> g_base_tick;
/// The first call (calibration) and the steady_clock fallback.
uint64_t NowNsSlow();
}  // namespace internal

/// Nanoseconds on the process-local trace clock (zero near process start;
/// the same clock every span timestamp uses): the invariant time-stamp
/// counter where the kernel keeps time with it, steady_clock elsewhere;
/// monotonic either way. A counter read is one rdtsc and a multiply, about
/// half a vDSO clock_gettime, and the serve path reads this clock at every
/// phase boundary of every request.
inline uint64_t NowNs() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  const uint64_t ns_per_tick_q32 =
      internal::g_ns_per_tick_q32.load(std::memory_order_acquire);
  if (ns_per_tick_q32 != 0) {
    const int64_t ticks = static_cast<int64_t>(
        __builtin_ia32_rdtsc() -
        internal::g_base_tick.load(std::memory_order_relaxed));
    return ticks > 0 ? static_cast<uint64_t>(
                           (static_cast<unsigned __int128>(ticks) *
                            ns_per_tick_q32) >>
                           32)
                     : 0;
  }
#endif
  return internal::NowNsSlow();
}

/// Request-scoped facts attached to a span emitted with EmitSpan. Fields at
/// their defaults are omitted from the drained JSON. `cause` must be a
/// string literal (it is stored, not copied).
struct SpanAnnotations {
  uint64_t trace_id = 0;       // owning request (0 = not request-scoped)
  int64_t batch_id = -1;       // micro-batch the request rode in
  int batch_size = 0;          // size of that micro-batch
  bool dedup_collapsed = false;  // answered by another request's forward
  const char* cause = nullptr;   // degradation cause ("deadline", ...)
};

/// Whether spans are being collected (SetEnabled).
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Records a completed span from explicit timestamps taken with NowNs().
/// Used where a scope cannot bracket the phase being traced — e.g. a
/// request's queue-wait measured across threads. The annotations tag the
/// span with the owning request so Perfetto can filter one request's whole
/// timeline; `name` must be a string literal. No-op while tracing is
/// disabled.
inline void EmitSpan(const char* name, uint64_t start_ns, uint64_t end_ns,
                     const SpanAnnotations& ann) {
  if (Enabled()) internal::RecordSpan(name, start_ns, end_ns, ann);
}
inline void EmitSpan(const char* name, uint64_t start_ns, uint64_t end_ns,
                     uint64_t trace_id = 0) {
  if (!Enabled()) return;
  SpanAnnotations ann;
  ann.trace_id = trace_id;
  internal::RecordSpan(name, start_ns, end_ns, ann);
}

/// Turns span collection on/off process-wide. Already-buffered spans are
/// kept; use Clear() to drop them.
void SetEnabled(bool enabled);

/// RAII span. `name` must outlive the tracer (string literals only — the
/// CF_TRACE_SCOPE macro enforces the idiom).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : name_(name), active_(Enabled()) {
    if (active_) internal::BeginSpan(name_, &start_ns_, &depth_);
  }
  ~ScopedSpan() {
    if (active_) internal::EndSpan(name_, start_ns_, depth_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  uint64_t start_ns_ = 0;
  int depth_ = 0;
  bool active_;
};

/// Total spans currently buffered across all threads (completed, undrained).
size_t BufferedSpans();

/// Spans dropped so far to ring-buffer wraparound (oldest-first eviction).
uint64_t DroppedSpans();

/// Discards every buffered span (and the drop counter) without emitting.
void Clear();

/// Moves every buffered span out of the ring buffers and serializes them as
/// a Chrome trace-event JSON object ({"traceEvents": [...]}, "X" complete
/// events with microsecond timestamps, one tid per traced thread).
std::string DrainChromeTraceJson();

/// Writes DrainChromeTraceJson() to `path`, creating missing parent
/// directories. Returns false (and logs the path) on I/O failure.
bool WriteChromeTrace(const std::string& path);

}  // namespace trace
}  // namespace chainsformer

#define CF_TRACE_CONCAT_INNER_(a, b) a##b
#define CF_TRACE_CONCAT_(a, b) CF_TRACE_CONCAT_INNER_(a, b)

/// Traces the enclosing scope as a span named `name` (a string literal).
#define CF_TRACE_SCOPE(name) \
  ::chainsformer::trace::ScopedSpan CF_TRACE_CONCAT_(cf_trace_span_, \
                                                     __LINE__)(name)

#endif  // CHAINSFORMER_UTIL_TRACE_H_
