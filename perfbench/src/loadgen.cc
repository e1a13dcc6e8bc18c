#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "serve/protocol.h"

namespace perfbench {
namespace {

/// A reply that has not come back for this long means the server hung.
constexpr double kStallLimitS = 30.0;

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to 127.0.0.1:" + std::to_string(port) +
                             " failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// "abp-response 1 <seq> <status>": true iff the status token is "ok".
bool status_ok(const std::string& payload) {
  const std::size_t eol = payload.find('\n');
  const std::string_view head(payload.data(),
                              eol == std::string::npos ? payload.size() : eol);
  return head.size() >= 3 && head.substr(head.size() - 3) == " ok";
}

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  abp::serve::FrameDecoder decoder;
  std::deque<std::size_t> inflight;  ///< request indices, in send order
};

}  // namespace

LoadGen::LoadGen(std::uint16_t port, std::size_t connections) {
  for (std::size_t i = 0; i < connections; ++i) {
    const int fd = connect_loopback(port);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    fds_.push_back(fd);
  }
}

LoadGen::~LoadGen() {
  for (int fd : fds_) ::close(fd);
}

PhaseResult LoadGen::closed_loop(const std::vector<std::string>& frames,
                                 std::size_t window, std::size_t keep_every) {
  return run(frames, false, window, 0.0, keep_every);
}

PhaseResult LoadGen::open_loop(const std::vector<std::string>& frames,
                               double rate, std::size_t keep_every) {
  return run(frames, true, 0, rate, keep_every);
}

PhaseResult LoadGen::run(const std::vector<std::string>& frames, bool open,
                         std::size_t window, double rate,
                         std::size_t keep_every) {
  const std::size_t n = frames.size();
  const std::size_t c = fds_.size();
  std::vector<Conn> conns(c);
  for (std::size_t i = 0; i < c; ++i) conns[i].fd = fds_[i];

  PhaseResult res;
  res.latency_ms.assign(n, 0.0);
  res.replies.assign(n, std::string());
  res.ok_flags.assign(n, 0);
  std::vector<double> start(n, 0.0);
  std::size_t next = 0;
  std::size_t done = 0;
  const double t0 = now_s();
  const auto due = [&](std::size_t i) {
    return t0 + static_cast<double>(i) / rate;
  };
  const auto enqueue = [&](std::size_t conn, double at) {
    Conn& k = conns[conn];
    k.out.append(frames[next]);
    k.inflight.push_back(next);
    start[next] = at;
    ++next;
  };
  if (!open) {
    for (std::size_t k = 0; k < c; ++k) {
      for (std::size_t w = 0; w < window && next < n; ++w) {
        enqueue(k, now_s());
      }
    }
  }

  std::vector<pollfd> pfds(c);
  char buf[1 << 16];
  double last_progress = now_s();
  while (done < n) {
    double now = now_s();
    if (open) {
      while (next < n && due(next) <= now) {
        const double d = due(next);
        res.lateness_ms.push_back((now - d) * 1e3);
        enqueue(next % c, d);
      }
    }
    for (std::size_t k = 0; k < c; ++k) {
      Conn& conn = conns[k];
      while (conn.out_off < conn.out.size()) {
        const ssize_t w = ::send(conn.fd, conn.out.data() + conn.out_off,
                                 conn.out.size() - conn.out_off, MSG_NOSIGNAL);
        if (w < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          if (errno == EINTR) continue;
          throw std::runtime_error("send failed");
        }
        conn.out_off += static_cast<std::size_t>(w);
      }
      if (conn.out_off == conn.out.size()) {
        conn.out.clear();
        conn.out_off = 0;
      }
      pfds[k].fd = conn.fd;
      pfds[k].events = POLLIN | (conn.out.empty() ? 0 : POLLOUT);
      pfds[k].revents = 0;
    }
    double wait_s = 0.1;
    if (open && next < n) wait_s = std::max(0.0, due(next) - now_s());
    const auto wait_ns = static_cast<long>(wait_s * 1e9);
    timespec ts{wait_ns / 1000000000L, wait_ns % 1000000000L};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
    for (std::size_t k = 0; k < c; ++k) {
      if ((pfds[k].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn& conn = conns[k];
      for (;;) {
        const ssize_t r = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (r > 0) {
          conn.decoder.feed(std::string_view(buf, static_cast<std::size_t>(r)));
          continue;
        }
        if (r == 0) throw std::runtime_error("server closed a connection");
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        throw std::runtime_error("recv failed");
      }
      if (conn.decoder.corrupt()) {
        throw std::runtime_error("corrupt reply stream: " +
                                 conn.decoder.error());
      }
      while (std::optional<std::string> payload = conn.decoder.next()) {
        if (conn.inflight.empty()) {
          throw std::runtime_error("reply without a request");
        }
        const std::size_t op = conn.inflight.front();
        conn.inflight.pop_front();
        now = now_s();
        res.latency_ms[op] = (now - start[op]) * 1e3;
        if (status_ok(*payload)) {
          ++res.ok;
          res.ok_flags[op] = 1;
        } else {
          ++res.failed;
        }
        if (keep_every > 0 && op % keep_every == 0) {
          res.replies[op] = std::move(*payload);
        }
        ++done;
        last_progress = now;
        if (!open && next < n) enqueue(k, now);
      }
    }
    if (now_s() - last_progress > kStallLimitS) {
      throw std::runtime_error("no reply for " + std::to_string(kStallLimitS) +
                               " s; " + std::to_string(n - done) +
                               " requests outstanding");
    }
  }
  res.wall_s = now_s() - t0;
  return res;
}

std::string request_reply(std::uint16_t port, const std::string& request_payload) {
  const int fd = connect_loopback(port);
  const std::string frame = abp::serve::encode_frame(request_payload);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t w =
        ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) {
      ::close(fd);
      throw std::runtime_error("send failed");
    }
    off += static_cast<std::size_t>(w);
  }
  abp::serve::FrameDecoder decoder;
  char buf[1 << 16];
  for (;;) {
    if (std::optional<std::string> payload = decoder.next()) {
      ::close(fd);
      return *payload;
    }
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(kStallLimitS * 1e3)) <= 0) {
      ::close(fd);
      throw std::runtime_error("no reply to a synchronous request");
    }
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0 || decoder.corrupt()) {
      ::close(fd);
      throw std::runtime_error("connection lost during a synchronous request");
    }
    decoder.feed(std::string_view(buf, static_cast<std::size_t>(r)));
  }
}

abp::MetricsSnapshot fetch_stats(std::uint16_t port) {
  abp::serve::Request request;
  request.endpoint = abp::serve::Endpoint::kStats;
  const std::optional<abp::serve::Response> response =
      abp::serve::parse_response(request_reply(port, format_request(request)));
  if (!response || response->status != abp::serve::Status::kOk) {
    throw std::runtime_error("stats request failed");
  }
  std::istringstream in(response->text);
  std::string schema;
  std::getline(in, schema);
  abp::MetricsSnapshot snap(schema);
  std::string name;
  double value = 0.0;
  while (in >> name >> value) snap.set_gauge(name, value);
  return snap;
}

}  // namespace perfbench
