#ifndef CHAINSFORMER_UTIL_NET_H_
#define CHAINSFORMER_UTIL_NET_H_

// Nonblocking socket helpers and a minimal epoll reactor (DESIGN §6i).
//
// This header's .cc is the one sanctioned home of blocking socket syscalls:
// the cf_lint rule `blocking-io-outside-net` rejects global-scope ::read /
// ::write / ::recv / ::send / ::accept / ::connect anywhere else under
// src/, so every byte of socket I/O flows through this TU. That keeps the
// layers above it (serve/async_server, serve/router, serve/admin) honest:
// they compose nonblocking state machines out of these primitives instead
// of quietly regressing into thread-per-connection blocking loops — the
// exact bug the epoll front-end exists to fix.
//
// Two styles of use:
//   * Client side (router → shard, admin scrapes): blocking sockets with
//     poll-bounded waits (ConnectTcp / SendLine / RecvLine take millisecond
//     budgets, so a dead peer costs a timeout, never a hang).
//   * Server side (AsyncNdjsonServer): nonblocking fds driven by EpollLoop;
//     ReadSome/WriteSome never wait, EAGAIN is a normal return.

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include <sys/types.h>

#include "util/sync.h"

namespace chainsformer {
namespace net {

/// Creates a TCP listener bound to 127.0.0.1:`port` (0 = ephemeral; read
/// the assignment back with BoundPort). Returns the fd, or -1 with errno
/// set. SO_REUSEADDR is on; the socket is blocking — callers that hand it
/// to an EpollLoop flip it with SetNonBlocking.
int ListenTcp(int port, int backlog = 64);

/// Bound port of a listening socket, or -1.
int BoundPort(int fd);

/// Connects to `host`:`port` (numeric IPv4; "localhost" accepted) within
/// `timeout_ms`. Returns a connected *blocking* fd with TCP_NODELAY set, or
/// -1 on refusal/timeout.
int ConnectTcp(const std::string& host, int port, int timeout_ms);

/// Puts `fd` into O_NONBLOCK mode. Returns false on fcntl failure.
bool SetNonBlocking(int fd);

/// One accept() on a listener (blocking or not). Returns the new fd with
/// TCP_NODELAY set, or -1 (errno EAGAIN/EWOULDBLOCK when a nonblocking
/// listener has no pending connection — a normal return, not an error).
int AcceptConn(int listener);

/// One read()/write() attempt, retrying EINTR only. Nonblocking fds return
/// -1 with errno EAGAIN instead of waiting; check IsWouldBlock(errno).
ssize_t ReadSome(int fd, char* buf, size_t len);
ssize_t WriteSome(int fd, const char* buf, size_t len);

/// True when `err` (an errno value) means "retry later on a nonblocking fd".
bool IsWouldBlock(int err);

/// Writes the whole buffer to a blocking fd (EINTR-retrying). Returns false
/// on any write error (peer gone).
bool WriteAll(int fd, const char* data, size_t len);

/// Sends `line` plus a trailing '\n' (blocking fd).
bool SendLine(int fd, const std::string& line);

/// Reads from `fd` into `*buffer` until it holds a '\n', then moves the
/// first line (without the '\n') into `*line`, leaving any over-read bytes
/// in `*buffer` for the next call. Waits at most `timeout_ms` total
/// (poll-bounded; <0 = no limit). Returns false on timeout, EOF or error.
bool RecvLine(int fd, std::string* buffer, std::string* line, int timeout_ms);

/// poll()s `fd` for readability. Returns true when readable within
/// `timeout_ms` (<0 = wait forever); false on timeout or poll error.
bool WaitReadable(int fd, int timeout_ms);

/// close() / shutdown(SHUT_RDWR), ignoring errors (teardown helpers).
void CloseFd(int fd);
void ShutdownFd(int fd);

/// Creates a nonblocking close-on-exec pipe. Returns false on failure.
bool MakePipe(int fds[2]);

/// Writes one byte to `fd`, EINTR-retrying once. Async-signal-safe (a bare
/// write(2)); signal handlers use this to wake a WaitReadable'ing main
/// thread — the self-pipe idiom behind graceful SIGINT/SIGTERM shutdown.
void SignalSafeWriteByte(int fd);

/// Minimal single-threaded epoll reactor.
///
/// Ownership model: exactly one thread calls Run(); Add/Mod/Del and the
/// handler map are loop-thread-only (Add before Run() from the owning
/// thread is also fine — Run has not started consuming yet). Other threads
/// interact through exactly two thread-safe entry points, Post() (queues a
/// closure the loop runs on its own thread, waking it via a pipe) and
/// Stop(). This keeps fd state single-threaded — no lock covers the fd →
/// handler map because only one thread ever touches it.
class EpollLoop {
 public:
  /// Handler for one registered fd; receives the epoll event mask.
  using Handler = std::function<void(uint32_t events)>;

  EpollLoop();
  ~EpollLoop();

  EpollLoop(const EpollLoop&) = delete;
  EpollLoop& operator=(const EpollLoop&) = delete;

  /// False when epoll/pipe creation failed at construction; a dead loop
  /// no-ops every other call.
  bool ok() const { return epoll_fd_ >= 0; }

  /// Registers `fd` with `events` (EPOLLIN etc). Loop thread (or pre-Run)
  /// only. The loop never closes registered fds — callers own them.
  bool Add(int fd, uint32_t events, Handler handler);
  /// Changes the event mask of a registered fd. Loop thread only.
  bool Mod(int fd, uint32_t events);
  /// Unregisters `fd` (does not close it). Safe from inside a handler, even
  /// the fd's own. Loop thread only.
  void Del(int fd);

  /// Runs the event loop until Stop(). Dispatches each ready fd to its
  /// handler, then drains the Post() queue.
  void Run();

  /// Queues `fn` to run on the loop thread and wakes the loop. Thread-safe.
  void Post(std::function<void()> fn);
  /// Makes Run() return after the current dispatch round. Thread-safe.
  void Stop();

 private:
  void DrainPosted();

  int epoll_fd_ = -1;
  int wake_read_ = -1;
  int wake_write_ = -1;
  std::atomic<bool> stop_{false};
  // Loop-thread-only by the ownership model above (no lock by design).
  std::unordered_map<int, Handler> handlers_;

  cf::Mutex posted_mu_{"net.posted"};
  std::vector<std::function<void()>> posted_ CF_GUARDED_BY(posted_mu_);
};

}  // namespace net
}  // namespace chainsformer

#endif  // CHAINSFORMER_UTIL_NET_H_
