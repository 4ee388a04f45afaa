#include "util/trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/sync.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#define CF_TRACE_CLOCK_TSC 1
#else
#define CF_TRACE_CLOCK_TSC 0
#endif

namespace chainsformer {
namespace trace {

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

namespace {

struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int depth;
  SpanAnnotations ann;  // request-scoped facts (all-default for CF_TRACE_SCOPE)
};

/// One ring per traced thread. The owning thread appends under `mu`
/// (uncontended except while a drain is in progress); the registry keeps a
/// shared_ptr so spans survive the owning thread's exit.
struct ThreadBuffer {
  // Clang exempts constructors from the guarded-member analysis: the buffer
  // is not shared until it is registered.
  ThreadBuffer() { ring.resize(kRingCapacity); }

  // Rank 30 > registry rank 20: drains hold the registry lock across each
  // buffer lock, so buffers are inner (DESIGN §6h).
  cf::Mutex mu{"trace.thread_buffer", 30};
  std::vector<Span> ring CF_GUARDED_BY(mu);
  size_t next CF_GUARDED_BY(mu) = 0;       // next write slot
  size_t size CF_GUARDED_BY(mu) = 0;       // valid spans (<= kRingCapacity)
  uint64_t dropped CF_GUARDED_BY(mu) = 0;  // spans overwritten by wraparound
  // Written once before the buffer is published to the registry.
  int tid = 0;  // cf-lint: allow(unannotated-guarded-member) immutable
};

struct Registry {
  cf::Mutex mu{"trace.registry", 20};
  std::vector<std::shared_ptr<ThreadBuffer>> buffers CF_GUARDED_BY(mu);
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();  // leaked: see metrics.cc
  return *registry;
}

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Registry& reg = GetRegistry();
    cf::MutexLock lock(reg.mu);
    b->tid = static_cast<int>(reg.buffers.size());
    reg.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

thread_local int t_depth = 0;

#if CF_TRACE_CLOCK_TSC
/// Whether the CPU's time-stamp counter runs at a constant rate in every
/// power state (CPUID invariant TSC) and the kernel keeps its own time
/// with it, which Linux does only after checking that the counters of all
/// CPUs agree.
bool KernelKeepsTimeWithTsc() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(0x80000007, &eax, &ebx, &ecx, &edx) == 0 ||
      (edx & (1u << 8)) == 0) {
    return false;
  }
  std::ifstream in(
      "/sys/devices/system/clocksource/clocksource0/current_clocksource");
  std::string source;
  return static_cast<bool>(in >> source) && source == "tsc";
}
#endif

/// NowNs's clock: nanoseconds since the first call. Where the kernel keeps
/// time with the invariant TSC, construction calibrates the counter's rate
/// against steady_clock over 2 ms and publishes it, and NowNs reads the
/// counter inline from then on. Elsewhere every read is steady_clock's.
/// Both are monotonic and agree across threads.
class Clock {
 public:
  Clock() : base_(std::chrono::steady_clock::now()) {
#if CF_TRACE_CLOCK_TSC
    if (!KernelKeepsTimeWithTsc()) return;
    std::chrono::steady_clock::time_point start;
    uint64_t start_ticks = 0;
    ReadPair(&start, &start_ticks);
    std::chrono::steady_clock::time_point end;
    uint64_t end_ticks = 0;
    do {
      ReadPair(&end, &end_ticks);
    } while (end - start < std::chrono::milliseconds(2));
    if (end_ticks <= start_ticks) return;
    const double ns_per_tick =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                .count()) /
        static_cast<double>(end_ticks - start_ticks);
    const auto q32 = static_cast<uint64_t>(std::ldexp(ns_per_tick, 32));
    if (q32 == 0) return;
    // NowNs reads the counter inline from here on, zero at start.
    internal::g_base_tick.store(start_ticks, std::memory_order_relaxed);
    internal::g_ns_per_tick_q32.store(q32, std::memory_order_release);
#endif
  }

  uint64_t Now() const {
    if (internal::g_ns_per_tick_q32.load(std::memory_order_acquire) != 0) {
      return NowNs();
    }
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - base_)
            .count());
  }

 private:
#if CF_TRACE_CLOCK_TSC
  /// A counter read and the steady_clock instant it happened at (the
  /// midpoint of two reads around it), retried while something such as a
  /// preemption separates the two by more than 250 ns.
  static void ReadPair(std::chrono::steady_clock::time_point* at,
                       uint64_t* ticks) {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const auto before = std::chrono::steady_clock::now();
      *ticks = __builtin_ia32_rdtsc();
      const auto after = std::chrono::steady_clock::now();
      *at = before + (after - before) / 2;
      if (after - before < std::chrono::nanoseconds(250)) return;
    }
  }
#endif

  const std::chrono::steady_clock::time_point base_;
};

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Appends a completed span to the calling thread's ring buffer.
void Record(const char* name, uint64_t start_ns, uint64_t end_ns, int depth,
            const SpanAnnotations& ann) {
  ThreadBuffer& buf = LocalBuffer();
  cf::MutexLock lock(buf.mu);
  buf.ring[buf.next] = {name, start_ns, end_ns, depth, ann};
  buf.next = (buf.next + 1) % kRingCapacity;
  if (buf.size < kRingCapacity) {
    ++buf.size;
  } else {
    ++buf.dropped;  // overwrote the oldest span
  }
}

}  // namespace

namespace internal {

std::atomic<uint64_t> g_ns_per_tick_q32{0};
std::atomic<uint64_t> g_base_tick{0};

uint64_t NowNsSlow() {
  static const Clock clock;
  return clock.Now();
}

void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns,
                const SpanAnnotations& ann) {
  if (end_ns < start_ns) end_ns = start_ns;
  Record(name, start_ns, end_ns, t_depth, ann);
}

void BeginSpan(const char* name, uint64_t* start_ns, int* depth) {
  (void)name;
  *depth = t_depth++;
  *start_ns = NowNs();
}

void EndSpan(const char* name, uint64_t start_ns, int depth) {
  const uint64_t end_ns = NowNs();
  t_depth = depth;  // robust even if enabling raced with scope entry
  Record(name, start_ns, end_ns, depth, SpanAnnotations{});
}

}  // namespace internal

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

size_t BufferedSpans() {
  Registry& reg = GetRegistry();
  cf::MutexLock lock(reg.mu);
  size_t total = 0;
  for (const auto& b : reg.buffers) {
    cf::MutexLock buf_lock(b->mu);
    total += b->size;
  }
  return total;
}

uint64_t DroppedSpans() {
  Registry& reg = GetRegistry();
  cf::MutexLock lock(reg.mu);
  uint64_t total = 0;
  for (const auto& b : reg.buffers) {
    cf::MutexLock buf_lock(b->mu);
    total += b->dropped;
  }
  return total;
}

void Clear() {
  Registry& reg = GetRegistry();
  cf::MutexLock lock(reg.mu);
  for (const auto& b : reg.buffers) {
    cf::MutexLock buf_lock(b->mu);
    b->next = 0;
    b->size = 0;
    b->dropped = 0;
  }
}

std::string DrainChromeTraceJson() {
  struct Drained {
    Span span;
    int tid;
  };
  std::vector<Drained> spans;
  {
    Registry& reg = GetRegistry();
    cf::MutexLock lock(reg.mu);
    for (const auto& b : reg.buffers) {
      cf::MutexLock buf_lock(b->mu);
      // Oldest-first: the ring's oldest entry sits at `next` once wrapped.
      const size_t start = b->size == kRingCapacity ? b->next : 0;
      for (size_t i = 0; i < b->size; ++i) {
        spans.push_back({b->ring[(start + i) % kRingCapacity], b->tid});
      }
      b->next = 0;
      b->size = 0;
    }
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Drained& a, const Drained& b) {
                     return a.span.start_ns < b.span.start_ns;
                   });
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const Drained& d : spans) {
    if (!first) os << ",";
    first = false;
    // Complete ("X") events; ts/dur are microseconds (Chrome's unit).
    char head[64];
    std::snprintf(head, sizeof(head), "%.3f", d.span.start_ns / 1e3);
    char dur[64];
    std::snprintf(dur, sizeof(dur), "%.3f",
                  (d.span.end_ns - d.span.start_ns) / 1e3);
    os << "\n  {\"ph\": \"X\", \"pid\": 1, \"tid\": " << d.tid << ", \"name\": \""
       << EscapeJson(d.span.name) << "\", \"ts\": " << head
       << ", \"dur\": " << dur << ", \"args\": {\"depth\": " << d.span.depth;
    const SpanAnnotations& ann = d.span.ann;
    if (ann.trace_id != 0) {
      // Stringified so a 64-bit id survives viewers that parse numbers as
      // doubles (2^53 mantissa).
      os << ", \"trace_id\": \"" << ann.trace_id << "\"";
    }
    if (ann.batch_id >= 0) os << ", \"batch_id\": " << ann.batch_id;
    if (ann.batch_size > 0) os << ", \"batch_size\": " << ann.batch_size;
    if (ann.dedup_collapsed) os << ", \"dedup_collapsed\": true";
    if (ann.cause != nullptr) {
      os << ", \"cause\": \"" << EscapeJson(ann.cause) << "\"";
    }
    os << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

bool WriteChromeTrace(const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path);
  if (!out.good()) {
    CF_LOG(Error) << "trace: cannot open " << path << " for writing";
    return false;
  }
  out << DrainChromeTraceJson();
  return out.good();
}

}  // namespace trace
}  // namespace chainsformer
