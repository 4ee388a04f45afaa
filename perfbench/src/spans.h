// In-memory span log of the traced run, written once at exit as Chrome
// trace-event JSON (loads in Perfetto and chrome://tracing). Spans are
// recorded by the benchmark's own code around its calls into each layer.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock; every benchmark timestamp uses it.
int64_t NowNs();

class SpanLog {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t id = 0;
    uint64_t parent = 0;   // 0 = root
    uint64_t request = 0;  // request id shared by one request's spans
    int lane = 0;          // generator connection / replay thread
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id (0 when disabled). `name`
  /// must be a string literal. Thread-safe.
  uint64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
               uint64_t request, uint64_t parent = 0, int lane = 0);

  size_t size() const;

  /// Writes every span as Chrome trace-event JSON; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  uint64_t next_id_ = 1;     // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
