#include "harness.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/net.h"

namespace perfbench {

namespace net = chainsformer::net;

namespace {

// Live child pids, in lock-free slots so a signal handler can read them.
constexpr int kMaxChildren = 32;
std::atomic<pid_t> g_children[kMaxChildren];

void TrackChild(pid_t pid, pid_t replace) {
  for (std::atomic<pid_t>& slot : g_children) {
    pid_t expected = replace;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
}

}  // namespace

void KillChildrenAndExit(int code) {
  for (std::atomic<pid_t>& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) kill(pid, SIGKILL);
  }
  for (std::atomic<pid_t>& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) waitpid(pid, nullptr, 0);
  }
  _exit(code);
}

std::unique_ptr<ServerProc> ServerProc::Spawn(
    const std::string& bin, const std::vector<std::string>& args,
    const std::string& log_path) {
  std::vector<std::string> argv_s;
  argv_s.push_back(bin);
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) return nullptr;
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    const int null_in = open("/dev/null", O_RDONLY);
    if (log >= 0) {
      dup2(log, 1);
      dup2(log, 2);
    }
    if (null_in >= 0) dup2(null_in, 0);
    execv(argv[0], argv.data());
    _exit(127);
  }
  TrackChild(pid, 0);
  return std::unique_ptr<ServerProc>(new ServerProc(pid));
}

ServerProc::~ServerProc() { Stop(); }

bool ServerProc::Running() {
  if (reaped_) return false;
  int status = 0;
  if (waitpid(pid_, &status, WNOHANG) == pid_) {
    reaped_ = true;
    TrackChild(0, pid_);
  }
  return !reaped_;
}

double ServerProc::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double ServerProc::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesized command name start at field 3 (state);
  // utime and stime are fields 14 and 15, in clock ticks.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 1));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void ServerProc::Stop() {
  if (reaped_) return;
  kill(pid_, SIGTERM);
  for (int i = 0; i < 500; ++i) {  // 5 s grace for the drain
    if (!Running()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(pid_, SIGKILL);
  int status = 0;
  waitpid(pid_, &status, 0);
  reaped_ = true;
  TrackChild(0, pid_);
}

int PickFreePort() {
  const int fd = net::ListenTcp(0);
  if (fd < 0) return -1;
  const int port = net::BoundPort(fd);
  net::CloseFd(fd);
  return port;
}

bool WaitHealthy(int port, ServerProc* proc, int timeout_ms) {
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1000000;
  while (NowNs() < deadline) {
    if (proc != nullptr && !proc->Running()) return false;
    const int fd = net::ConnectTcp("127.0.0.1", port, 200);
    if (fd >= 0) {
      std::string buf, line;
      const bool ok = net::SendLine(fd, "{\"cmd\": \"healthz\"}") &&
                      net::RecvLine(fd, &buf, &line, 2000) &&
                      line.find("\"ok\": true") != std::string::npos;
      net::CloseFd(fd);
      if (ok) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

namespace {

/// One pooled generator connection.
struct Lane {
  int fd = -1;
  bool open = false;
  std::string wbuf;                               // unwritten request bytes
  std::vector<std::pair<size_t, size_t>> unsent;  // (end offset, request)
  std::deque<size_t> outstanding;                 // sent, not yet answered
  std::string rbuf;
};

}  // namespace

std::vector<Exchange> RunOpenLoop(int port, int conns,
                                  const std::vector<Arrival>& schedule,
                                  const std::vector<KeyLine>& keys,
                                  int64_t drain_ms, bool pipelined,
                                  SpanLog* spans, uint64_t request_base) {
  const size_t n = schedule.size();
  std::vector<Exchange> out(n);
  for (size_t i = 0; i < n; ++i) out[i].key = schedule[i].key;
  std::vector<Lane> lanes(static_cast<size_t>(conns));
  for (Lane& l : lanes) {
    l.fd = net::ConnectTcp("127.0.0.1", port, 2000);
    l.open = l.fd >= 0 && net::SetNonBlocking(l.fd);
  }
  const bool tracing = spans != nullptr && spans->enabled();
  // A little ahead, so the first request is not late by the set-up above.
  const int64_t start_ns = NowNs() + 20000000;
  const int64_t give_up =
      start_ns + (n > 0 ? schedule.back().t_ns : 0) + drain_ms * 1000000;
  size_t next = 0;      // next request to take off the schedule
  size_t resolved = 0;  // answered, or lost with its connection
  std::deque<size_t> waiting;  // due, waiting for an idle connection (pool)
  size_t rr = 0;               // pool: where the idle-connection scan starts
  std::vector<pollfd> pfds(lanes.size());
  char chunk[16384];

  auto close_lane = [&](Lane& l) {
    if (!l.open) return;
    l.open = false;
    resolved += l.outstanding.size();  // unanswered: transport failures
    l.outstanding.clear();
  };
  auto send_on = [&](Lane& l, size_t i) {
    l.wbuf += "{\"id\": ";
    l.wbuf += std::to_string(request_base + i);
    l.wbuf += ", ";
    l.wbuf += keys[out[i].key].tail;
    l.unsent.emplace_back(l.wbuf.size(), i);
    l.outstanding.push_back(i);
  };

  while (resolved < n) {
    int64_t now = NowNs();
    while (next < n && start_ns + schedule[next].t_ns <= now) {
      out[next].intended_ns = start_ns + schedule[next].t_ns;
      out[next].dispatch_ns = now;
      if (pipelined) {
        Lane& l = lanes[next % lanes.size()];
        if (l.open) {
          send_on(l, next);
        } else {
          ++resolved;  // its connection is gone
        }
      } else {
        waiting.push_back(next);
      }
      ++next;
    }
    // Pool: hand waiting requests, oldest first, to idle connections.
    for (size_t k = 0; k < lanes.size() && !waiting.empty(); ++k) {
      Lane& l = lanes[(rr + k) % lanes.size()];
      if (l.open && l.outstanding.empty()) {
        send_on(l, waiting.front());
        waiting.pop_front();
        rr = (rr + k + 1) % lanes.size();
      }
    }
    if (!waiting.empty() &&
        std::none_of(lanes.begin(), lanes.end(), [](const Lane& l) { return l.open; })) {
      resolved += waiting.size();  // every connection is gone
      waiting.clear();
    }
    for (Lane& l : lanes) {
      if (!l.open || l.wbuf.empty()) continue;
      const ssize_t w = net::WriteSome(l.fd, l.wbuf.data(), l.wbuf.size());
      if (w < 0) {
        if (!net::IsWouldBlock(errno)) close_lane(l);
        continue;
      }
      const int64_t t = NowNs();
      size_t done = 0;
      while (done < l.unsent.size() &&
             l.unsent[done].first <= static_cast<size_t>(w)) {
        out[l.unsent[done++].second].sent_ns = t;
      }
      l.unsent.erase(l.unsent.begin(), l.unsent.begin() + static_cast<long>(done));
      for (auto& u : l.unsent) u.first -= static_cast<size_t>(w);
      l.wbuf.erase(0, static_cast<size_t>(w));
    }
    if (resolved >= n) break;
    now = NowNs();
    if (next >= n && now >= give_up) break;
    int64_t wait_ns = next < n ? start_ns + schedule[next].t_ns - now
                               : give_up - now;
    if (wait_ns < 0) wait_ns = 0;
    for (size_t k = 0; k < lanes.size(); ++k) {
      const Lane& l = lanes[k];
      pfds[k].fd = l.open ? l.fd : -1;
      pfds[k].events = static_cast<short>(POLLIN | (l.wbuf.empty() ? 0 : POLLOUT));
      pfds[k].revents = 0;
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                      static_cast<long>(wait_ns % 1000000000)};
    if (ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    for (size_t k = 0; k < lanes.size(); ++k) {
      Lane& l = lanes[k];
      if (!l.open || (pfds[k].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      bool eof = false;
      while (true) {
        const ssize_t r = net::ReadSome(l.fd, chunk, sizeof(chunk));
        if (r > 0) {
          l.rbuf.append(chunk, static_cast<size_t>(r));
          continue;
        }
        eof = r == 0 || !net::IsWouldBlock(errno);
        break;
      }
      const int64_t t = NowNs();
      size_t pos = 0;
      for (size_t nl; (nl = l.rbuf.find('\n', pos)) != std::string::npos; pos = nl + 1) {
        if (l.outstanding.empty()) continue;  // unsolicited line: ignored
        const size_t i = l.outstanding.front();
        l.outstanding.pop_front();
        ++resolved;
        Exchange& ex = out[i];
        ex.recv_ns = t;
        ex.response.assign(l.rbuf, pos, nl - pos);
        if (tracing) {
          spans->Add("client.request", ex.sent_ns, t, request_base + i, 0,
                     static_cast<int>(k));
        }
      }
      l.rbuf.erase(0, pos);
      if (eof) close_lane(l);
    }
  }
  for (Lane& l : lanes) {
    if (l.fd >= 0) net::CloseFd(l.fd);
  }
  return out;
}

}  // namespace perfbench
