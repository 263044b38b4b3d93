// Minimal TCP transport for the multi-host grid dispatch plane
// (exp/dispatch.*): listen/connect helpers, a monotonic Deadline, and a
// line-framed reader — everything the newline-delimited JSON worker protocol
// needs and nothing more.
//
// Every blocking primitive here is EINTR-safe and deadline-aware: a read can
// be bounded (the per-cell timeout that keeps one wedged worker from
// stalling a whole sweep) or unbounded (a resident worker waiting for its
// next request).  Errors on an established connection are deliberately
// collapsed into "the peer is gone" (Status::kEof) — the dispatch layer
// treats a reset, a half-close and a clean EOF identically: retry the cell
// elsewhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <chrono>
#include <string>
#include <utility>

namespace fedhisyn::net {

struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

/// Parse "host:port", "[v6-host]:port" or bare "port" (host defaults to
/// `default_host`).  Port 0 is allowed (bind-side "pick an ephemeral port");
/// a non-digit port, a port > 65535, or a bare IPv6 literal (use brackets)
/// check-fails.
HostPort parse_host_port(const std::string& spec, const std::string& default_host);

/// A point on the monotonic clock that blocking calls must not outlive.
/// Default-constructed deadlines never expire.
class Deadline {
 public:
  Deadline() = default;
  static Deadline never() { return Deadline(); }
  static Deadline after(double seconds);

  bool is_never() const { return !armed_; }
  bool expired() const;
  /// Remaining time as a poll(2) timeout: -1 for never, 0 when expired.
  int poll_timeout_ms() const;

 private:
  bool armed_ = false;
  std::chrono::steady_clock::time_point when_{};
};

/// Bind + listen on host:port (port 0 picks an ephemeral port — read it back
/// with local_port).  Returns the listening fd; check-fails on any error.
int tcp_listen(const std::string& host, std::uint16_t port, int backlog = 16);

/// Port a bound socket actually listens on (resolves port-0 binds).
std::uint16_t local_port(int fd);

/// Accept one connection (EINTR retried, TCP_NODELAY set).  Returns -1 when
/// the listening socket is gone (closed/shut down) — the server's exit path.
int tcp_accept(int listen_fd);

/// Connect to host:port, giving up at the deadline.  Host may be a name
/// (resolved via getaddrinfo) or a literal address.  Returns the connected
/// fd (blocking, TCP_NODELAY) or -1 on failure — callers decide whether a
/// dead host is fatal.
int tcp_connect(const std::string& host, std::uint16_t port,
                const Deadline& deadline);

/// Write all of `data` (EINTR retried).  Returns false on any error — with
/// SIGPIPE ignored, a write to a vanished peer fails with EPIPE/ECONNRESET
/// instead of killing the process.
bool write_all(int fd, const std::string& data);

/// Line cap, 16 MiB: far above the dispatch wire's largest legal line
/// (exp/dispatch.cpp), yet it bounds what a peer that never sends a newline
/// can make us buffer.
inline constexpr std::size_t kMaxLineBytes = std::size_t{16} << 20;

/// Bounded newline framing: bytes in as they arrive, complete lines out.
/// Lines are consumed by offset and the buffer compacted once per append,
/// so framing is linear in the bytes received.  A line (terminated or not)
/// longer than kMaxLineBytes check-fails, naming the peer and the cap.
class LineFramer {
 public:
  explicit LineFramer(std::string peer = "peer") : peer_(std::move(peer)) {}

  void append(const char* data, std::size_t size);
  /// Pop the next complete line (without its newline) into `*line`; false
  /// when only a partial line (or nothing) is buffered.
  bool pop_line(std::string* line);

 private:
  void check_line_size(std::size_t size) const;

  std::string peer_;
  std::string buf_;
  std::size_t head_ = 0;  // start of the first unconsumed line
  std::size_t scan_ = 0;  // bytes in [head_, scan_) hold no newline
};

/// Buffered newline-framed reads over any pollable fd (socket or pipe).
/// One reader owns the framing for one fd; the fd's lifetime is the
/// caller's.  Lines are capped at kMaxLineBytes (see LineFramer).
class LineReader {
 public:
  explicit LineReader(int fd, std::string peer = "peer")
      : fd_(fd), framer_(std::move(peer)) {}

  enum class Status { kLine, kEof, kTimeout };

  /// Block (poll + read, EINTR retried) until a full line, EOF, or the
  /// deadline.  kLine: `*line` holds the text without its newline.  kEof:
  /// the peer is gone (clean close, reset — any read error); a final
  /// partial line without a newline is discarded, matching the dispatch
  /// protocol where a truncated response means "retry elsewhere".
  Status read_line(std::string* line, const Deadline& deadline = Deadline::never());

 private:
  int fd_ = -1;
  LineFramer framer_;
  bool eof_ = false;
};

}  // namespace fedhisyn::net
