// Process and network side of the benchmark: spawning and stopping real
// `chainsformer_serve` processes, and the open-loop NDJSON load generator.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "logic.h"
#include "spans.h"

namespace perfbench {

/// One child process. The destructor stops it (SIGTERM, then SIGKILL after
/// a grace period) and reaps it, so no server outlives the benchmark.
class ServerProc {
 public:
  /// Starts `bin` with `args`, stdout and stderr appended to `log_path`.
  /// The child also dies with the benchmark (PR_SET_PDEATHSIG). Returns
  /// null when fork fails.
  static std::unique_ptr<ServerProc> Spawn(const std::string& bin,
                                           const std::vector<std::string>& args,
                                           const std::string& log_path);
  ~ServerProc();
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  /// False once the process has exited (it is reaped then).
  bool Running();
  /// Peak resident memory (VmHWM) in MiB; 0 when unreadable.
  double PeakRssMb() const;
  /// CPU time (user + system, all threads) used so far, in seconds.
  double CpuSeconds() const;
  void Stop();

 private:
  explicit ServerProc(pid_t pid) : pid_(pid) {}
  pid_t pid_;
  bool reaped_ = false;
};

/// Kills and reaps every child ServerProc still running, then _exit(code).
/// Async-signal-safe: the run's SIGALRM time limit calls it.
[[noreturn]] void KillChildrenAndExit(int code);

/// A loopback port that was free a moment ago (bind to port 0 and close).
int PickFreePort();

/// Waits until 127.0.0.1:`port` answers {"cmd": "healthz"} with "ok": true,
/// or `proc` exits, or `timeout_ms` passes.
bool WaitHealthy(int port, ServerProc* proc, int timeout_ms);

/// The request line of one key, minus its leading `{"id": N, `.
struct KeyLine {
  int32_t entity = 0;
  int32_t attribute = 0;
  std::string tail;  // "\"entity\": \"...\", \"attribute\": \"...\"}\n"
};

/// One request as the generator saw it. Times are NowNs() values;
/// recv_ns == 0 means no answer arrived (transport failure).
struct Exchange {
  int64_t intended_ns = 0;
  int64_t dispatch_ns = 0;  // when the generator took it off the schedule
  int64_t sent_ns = 0;
  int64_t recv_ns = 0;
  uint32_t key = 0;
  std::string response;
};

/// Drives `schedule` open-loop against 127.0.0.1:`port` from one thread
/// over `conns` persistent connections; arrivals never wait for answers.
/// Pool mode: a due request goes to an idle connection, or waits in the
/// client (oldest first) until one is idle, as a connection pool does; the
/// wait counts in its latency. Pipelined mode: request i is written at once
/// on connection i mod conns, behind whatever that connection still owes.
/// Answers are matched in order per connection. Requests unanswered
/// `drain_ms` after the last one was due count as transport failures. With
/// `spans` enabled, records one client span per request. A schedule whose
/// requests are all due at 0 is a closed pass over the connections (the
/// warm-up).
std::vector<Exchange> RunOpenLoop(int port, int conns,
                                  const std::vector<Arrival>& schedule,
                                  const std::vector<KeyLine>& keys,
                                  int64_t drain_ms, bool pipelined,
                                  SpanLog* spans, uint64_t request_base);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
