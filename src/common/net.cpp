#include "common/net.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/check.hpp"

namespace fedhisyn::net {

namespace {

void set_nodelay(int fd) {
  // Requests and responses are single small lines; Nagle would add a full
  // RTT of latency per cell for nothing.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// getaddrinfo wrapper; the caller owns the returned list.
addrinfo* resolve(const std::string& host, std::uint16_t port, bool passive) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV | (passive ? AI_PASSIVE : 0);
  const std::string service = std::to_string(port);
  addrinfo* result = nullptr;
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               service.c_str(), &hints, &result);
  FEDHISYN_CHECK_MSG(rc == 0, "cannot resolve '" << host << "': "
                                                 << ::gai_strerror(rc));
  return result;
}

bool set_blocking(int fd, bool blocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int next = blocking ? (flags & ~O_NONBLOCK) : (flags | O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, next) == 0;
}

}  // namespace

HostPort parse_host_port(const std::string& spec, const std::string& default_host) {
  HostPort hp;
  std::string port_text;
  if (!spec.empty() && spec[0] == '[') {
    // [v6-literal]:port — the only accepted spelling for IPv6 addresses,
    // since their own colons are ambiguous with the host:port separator.
    const std::size_t close = spec.find(']');
    FEDHISYN_CHECK_MSG(
        close != std::string::npos && close + 1 < spec.size() && spec[close + 1] == ':',
        "'" << spec << "' is not [v6-host]:port");
    hp.host = spec.substr(1, close - 1);
    port_text = spec.substr(close + 2);
  } else {
    const std::size_t colon = spec.find(':');
    FEDHISYN_CHECK_MSG(
        colon == std::string::npos || spec.find(':', colon + 1) == std::string::npos,
        "'" << spec << "' has more than one ':' — write IPv6 literals as [host]:port");
    port_text = colon == std::string::npos ? spec : spec.substr(colon + 1);
    hp.host = colon == std::string::npos ? default_host : spec.substr(0, colon);
  }
  if (hp.host.empty()) hp.host = default_host;
  // Digits only: strtol's tolerance for signs ("+8080", "-0") would accept
  // specs no human meant to write.
  bool digits = !port_text.empty();
  for (const char c : port_text) digits = digits && c >= '0' && c <= '9';
  const long port = digits ? std::strtol(port_text.c_str(), nullptr, 10) : -1;
  FEDHISYN_CHECK_MSG(digits && port >= 0 && port <= 65535,
                     "'" << spec << "' is not a [host:]port — bad port '"
                         << port_text << "'");
  hp.port = static_cast<std::uint16_t>(port);
  return hp;
}

Deadline Deadline::after(double seconds) {
  Deadline deadline;
  deadline.armed_ = true;
  deadline.when_ = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(seconds));
  return deadline;
}

bool Deadline::expired() const {
  return armed_ && std::chrono::steady_clock::now() >= when_;
}

int Deadline::poll_timeout_ms() const {
  if (!armed_) return -1;
  const auto remaining = when_ - std::chrono::steady_clock::now();
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(remaining).count();
  if (ms <= 0) return 0;
  // Clamp before the narrowing cast: a huge timeout (e.g. a fat-fingered
  // FEDHISYN_CELL_TIMEOUT_S) must saturate, not overflow to a negative value
  // that poll(2) would treat as "wait forever".
  if (ms >= std::numeric_limits<int>::max()) return std::numeric_limits<int>::max();
  // +1 so we never poll for slightly less than the remaining time, wake a
  // hair early and spin on 0 ms timeouts.
  return static_cast<int>(ms) + 1;
}

int tcp_listen(const std::string& host, std::uint16_t port, int backlog) {
  addrinfo* addrs = resolve(host, port, /*passive=*/true);
  int fd = -1;
  std::string error = "no usable address";
  for (addrinfo* ai = addrs; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC, ai->ai_protocol);
    if (fd < 0) {
      error = std::strerror(errno);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 && ::listen(fd, backlog) == 0) {
      break;
    }
    error = std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(addrs);
  FEDHISYN_CHECK_MSG(fd >= 0, "cannot listen on " << host << ":" << port << ": "
                                                  << error);
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_storage addr{};
  socklen_t len = sizeof(addr);
  FEDHISYN_CHECK_MSG(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
                     "getsockname failed: " << std::strerror(errno));
  if (addr.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<sockaddr_in*>(&addr)->sin_port);
  }
  FEDHISYN_CHECK_MSG(addr.ss_family == AF_INET6,
                     "unexpected socket family " << addr.ss_family);
  return ntohs(reinterpret_cast<sockaddr_in6*>(&addr)->sin6_port);
}

int tcp_accept(int listen_fd) {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) {
      set_nodelay(fd);
      return fd;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    return -1;
  }
}

int tcp_connect(const std::string& host, std::uint16_t port,
                const Deadline& deadline) {
  addrinfo* addrs = resolve(host, port, /*passive=*/false);
  int fd = -1;
  for (addrinfo* ai = addrs; ai != nullptr && fd < 0; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC, ai->ai_protocol);
    if (fd < 0) continue;
    // Non-blocking connect so the deadline bounds the TCP handshake too, not
    // just reads — a black-holed host must not stall the coordinator.
    if (!set_blocking(fd, false)) {
      ::close(fd);
      fd = -1;
      continue;
    }
    int rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    if (rc != 0 && errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      for (;;) {
        const int ready = ::poll(&pfd, 1, deadline.poll_timeout_ms());
        if (ready < 0 && errno == EINTR) continue;
        if (ready <= 0) {
          rc = -1;  // timeout or poll failure
          break;
        }
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        rc = err == 0 ? 0 : -1;
        break;
      }
    }
    if (rc != 0 || !set_blocking(fd, true)) {
      ::close(fd);
      fd = -1;
      continue;
    }
    set_nodelay(fd);
  }
  ::freeaddrinfo(addrs);
  return fd;
}

bool write_all(int fd, const std::string& data) {
  // send(MSG_NOSIGNAL) keeps a write to a vanished peer from raising SIGPIPE
  // even in processes that never installed SIG_IGN; pipes reject send() with
  // ENOTSOCK, so those fall back to plain write().
  bool is_socket = true;
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        is_socket
            ? ::send(fd, data.data() + written, data.size() - written, MSG_NOSIGNAL)
            : ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (is_socket && errno == ENOTSOCK) {
        is_socket = false;
        continue;
      }
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

void LineFramer::check_line_size(std::size_t size) const {
  FEDHISYN_CHECK_MSG(size <= kMaxLineBytes, "line from " << peer_ << " exceeds the "
                                                          << kMaxLineBytes
                                                          << "-byte line cap");
}

void LineFramer::append(const char* data, std::size_t size) {
  // Drop consumed lines first: after pop_line drained everything complete,
  // what is left is one partial line, so the move stays small.
  if (head_ > 0) {
    buf_.erase(0, head_);
    scan_ -= head_;
    head_ = 0;
  }
  buf_.append(data, size);
}

bool LineFramer::pop_line(std::string* line) {
  const std::size_t newline = buf_.find('\n', scan_);
  if (newline == std::string::npos) {
    scan_ = buf_.size();
    check_line_size(scan_ - head_);
    return false;
  }
  check_line_size(newline - head_);
  line->assign(buf_, head_, newline - head_);
  head_ = scan_ = newline + 1;
  return true;
}

LineReader::Status LineReader::read_line(std::string* line, const Deadline& deadline) {
  for (;;) {
    if (framer_.pop_line(line)) return Status::kLine;
    if (eof_) return Status::kEof;
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, deadline.poll_timeout_ms());
    if (ready < 0) {
      if (errno == EINTR) continue;
      eof_ = true;
      continue;
    }
    if (ready == 0) return Status::kTimeout;
    char buf[65536];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      framer_.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      eof_ = true;  // clean close or reset: either way the peer is gone
    }
  }
}

}  // namespace fedhisyn::net
