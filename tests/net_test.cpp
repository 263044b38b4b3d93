// Tests for the common/net transport primitives under the grid dispatch
// plane: host:port parsing, monotonic deadlines, the bounded line framer
// and the reader built on it (split reads, EINTR survival, timeouts,
// discarded partial tails, the line cap), and the
// listen/connect/accept lifecycle on loopback — including the failure edges
// the dispatch loop leans on (refused connects return -1, writes to a
// vanished peer return false instead of raising SIGPIPE).
#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/check.hpp"
#include "common/net.hpp"

namespace fedhisyn::net {
namespace {

/// A pipe whose ends close with the fixture; write() feeds the read end.
class Pipe {
 public:
  Pipe() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::pipe(fds), 0);
    read_fd = fds[0];
    write_fd = fds[1];
  }
  ~Pipe() {
    close_write();
    if (read_fd >= 0) ::close(read_fd);
  }
  void write(const std::string& data) {
    ASSERT_TRUE(write_all(write_fd, data));
  }
  void close_write() {
    if (write_fd >= 0) {
      ::close(write_fd);
      write_fd = -1;
    }
  }

  int read_fd = -1;
  int write_fd = -1;
};

// ----------------------------------------------------------------- parse --

TEST(ParseHostPort, HostColonPortBarePortAndDefaults) {
  const HostPort full = parse_host_port("worker7:7800", "127.0.0.1");
  EXPECT_EQ(full.host, "worker7");
  EXPECT_EQ(full.port, 7800);

  const HostPort bare = parse_host_port("7801", "0.0.0.0");
  EXPECT_EQ(bare.host, "0.0.0.0");
  EXPECT_EQ(bare.port, 7801);

  // Port 0 is legal on the bind side ("pick an ephemeral port").
  EXPECT_EQ(parse_host_port("0", "0.0.0.0").port, 0);
  EXPECT_EQ(parse_host_port("localhost:0", "x").host, "localhost");
}

TEST(ParseHostPort, MalformedSpecsCheckFail) {
  EXPECT_THROW(parse_host_port("", "h"), CheckError);
  EXPECT_THROW(parse_host_port("host:", "h"), CheckError);
  EXPECT_THROW(parse_host_port("host:notaport", "h"), CheckError);
  EXPECT_THROW(parse_host_port("host:70000", "h"), CheckError);
  EXPECT_THROW(parse_host_port("host:-1", "h"), CheckError);
  // strtol would happily take a sign; the port must be digits only.
  EXPECT_THROW(parse_host_port("host:+8080", "h"), CheckError);
}

TEST(ParseHostPort, IPv6LiteralsNeedBrackets) {
  const HostPort v6 = parse_host_port("[::1]:7800", "x");
  EXPECT_EQ(v6.host, "::1");
  EXPECT_EQ(v6.port, 7800);
  // Bare literals are ambiguous ("::1" would split as host ":" port 1).
  EXPECT_THROW(parse_host_port("::1", "h"), CheckError);
  EXPECT_THROW(parse_host_port("fe80::2:7800", "h"), CheckError);
  EXPECT_THROW(parse_host_port("[::1]", "h"), CheckError);   // no port
  EXPECT_THROW(parse_host_port("[::1]7800", "h"), CheckError);
}

// -------------------------------------------------------------- deadline --

TEST(DeadlineTest, NeverNeverExpires) {
  const Deadline never = Deadline::never();
  EXPECT_TRUE(never.is_never());
  EXPECT_FALSE(never.expired());
  EXPECT_EQ(never.poll_timeout_ms(), -1);
}

TEST(DeadlineTest, AfterExpiresAndClampsPollTimeout) {
  const Deadline soon = Deadline::after(0.02);
  EXPECT_FALSE(soon.is_never());
  EXPECT_FALSE(soon.expired());
  EXPECT_GT(soon.poll_timeout_ms(), 0);
  const Deadline past = Deadline::after(0.0);
  EXPECT_TRUE(past.expired());
  EXPECT_EQ(past.poll_timeout_ms(), 0);
  // A huge timeout must saturate, not overflow int into poll(2)'s "wait
  // forever" (negative) range.
  const Deadline huge = Deadline::after(1e9);
  EXPECT_GT(huge.poll_timeout_ms(), 0);
}

// ------------------------------------------------------------ LineFramer --

TEST(LineFramerTest, FramesLinesSplitAcrossAppends) {
  LineFramer framer("test peer");
  std::string line;
  framer.append("ab\ncd", 5);
  ASSERT_TRUE(framer.pop_line(&line));
  EXPECT_EQ(line, "ab");
  EXPECT_FALSE(framer.pop_line(&line));  // "cd" is still partial
  framer.append("e\n\nfg\n", 7);
  ASSERT_TRUE(framer.pop_line(&line));
  EXPECT_EQ(line, "cde");
  ASSERT_TRUE(framer.pop_line(&line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(framer.pop_line(&line));
  EXPECT_EQ(line, "fg");
  EXPECT_FALSE(framer.pop_line(&line));
}

TEST(LineFramerTest, LinesAtTheCapPassAndLongerOnesCheckFailNamingPeerAndCap) {
  const std::string at_cap(kMaxLineBytes, 'x');
  LineFramer framer("worker 7");
  std::string line;
  framer.append(at_cap.data(), at_cap.size());
  framer.append("\n", 1);
  ASSERT_TRUE(framer.pop_line(&line));
  EXPECT_EQ(line.size(), kMaxLineBytes);

  // Terminated but one byte too long.
  framer.append(at_cap.data(), at_cap.size());
  framer.append("x\n", 2);
  try {
    framer.pop_line(&line);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("worker 7"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find(std::to_string(kMaxLineBytes) + "-byte line cap"),
              std::string::npos)
        << e.what();
  }

  // No newline ever: caught once the partial line passes the cap, without
  // waiting for the end of a line that may never come.
  LineFramer endless("worker 8");
  endless.append(at_cap.data(), at_cap.size());
  EXPECT_FALSE(endless.pop_line(&line));
  endless.append("x", 1);
  EXPECT_THROW(endless.pop_line(&line), CheckError);
}

// ------------------------------------------------------------ LineReader --

TEST(LineReaderTest, SplitsMultipleLinesFromOneChunk) {
  Pipe pipe;
  pipe.write("alpha\nbeta\n\ngamma\n");
  pipe.close_write();
  LineReader reader(pipe.read_fd);
  std::string line;
  ASSERT_EQ(reader.read_line(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "alpha");
  ASSERT_EQ(reader.read_line(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "beta");
  ASSERT_EQ(reader.read_line(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "");  // empty lines are real lines at this layer
  ASSERT_EQ(reader.read_line(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "gamma");
  EXPECT_EQ(reader.read_line(&line), LineReader::Status::kEof);
}

TEST(LineReaderTest, ReassemblesALineSplitAcrossWrites) {
  Pipe pipe;
  LineReader reader(pipe.read_fd);
  std::thread feeder([&] {
    pipe.write("{\"ok\":");
    pipe.write("true}");
    pipe.write("\n");
    pipe.close_write();
  });
  std::string line;
  ASSERT_EQ(reader.read_line(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "{\"ok\":true}");
  feeder.join();
}

TEST(LineReaderTest, PartialTailAtEofIsDiscarded) {
  // A worker that dies mid-response leaves a truncated line; the protocol
  // treats it as "no response" (retry elsewhere), never as a short line.
  Pipe pipe;
  pipe.write("whole\npartial-without-newline");
  pipe.close_write();
  LineReader reader(pipe.read_fd);
  std::string line;
  ASSERT_EQ(reader.read_line(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "whole");
  EXPECT_EQ(reader.read_line(&line), LineReader::Status::kEof);
  // EOF is sticky.
  EXPECT_EQ(reader.read_line(&line), LineReader::Status::kEof);
}

TEST(LineReaderTest, DeadlineTurnsASilentPeerIntoKTimeout) {
  Pipe pipe;
  LineReader reader(pipe.read_fd);
  std::string line;
  EXPECT_EQ(reader.read_line(&line, Deadline::after(0.05)),
            LineReader::Status::kTimeout);
  // The reader survives a timeout: the same line arrives afterwards.
  pipe.write("late\n");
  ASSERT_EQ(reader.read_line(&line, Deadline::after(5.0)),
            LineReader::Status::kLine);
  EXPECT_EQ(line, "late");
}

TEST(LineReaderTest, SurvivesEintrDuringBlockedReads) {
  // Install a no-op SIGUSR1 handler *without* SA_RESTART so poll() genuinely
  // returns EINTR, then pepper the reading thread with signals while the
  // line trickles in.  The reader must neither drop data nor misreport EOF.
  struct sigaction action {};
  struct sigaction old_action {};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: syscalls must see EINTR
  ASSERT_EQ(sigaction(SIGUSR1, &action, &old_action), 0);

  Pipe pipe;
  LineReader reader(pipe.read_fd);
  const pthread_t reader_thread = pthread_self();
  std::thread harasser([&] {
    for (int i = 0; i < 20; ++i) {
      pthread_kill(reader_thread, SIGUSR1);
      ::usleep(2000);
    }
    pipe.write("eintr-survivor\n");
    pipe.close_write();
  });
  std::string line;
  ASSERT_EQ(reader.read_line(&line, Deadline::after(30.0)),
            LineReader::Status::kLine);
  EXPECT_EQ(line, "eintr-survivor");
  EXPECT_EQ(reader.read_line(&line), LineReader::Status::kEof);
  harasser.join();
  sigaction(SIGUSR1, &old_action, nullptr);
}

// ------------------------------------------------------------------- tcp --

TEST(Tcp, ListenConnectAcceptEchoRoundTrip) {
  const int listen_fd = tcp_listen("127.0.0.1", 0);
  const std::uint16_t port = local_port(listen_fd);
  ASSERT_GT(port, 0);

  std::thread server([&] {
    const int conn = tcp_accept(listen_fd);
    ASSERT_GE(conn, 0);
    LineReader reader(conn);
    std::string line;
    while (reader.read_line(&line) == LineReader::Status::kLine) {
      ASSERT_TRUE(write_all(conn, "echo:" + line + "\n"));
    }
    ::close(conn);
  });

  const int fd = tcp_connect("127.0.0.1", port, Deadline::after(5.0));
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(write_all(fd, "one\ntwo\n"));
  LineReader reader(fd);
  std::string line;
  ASSERT_EQ(reader.read_line(&line, Deadline::after(5.0)), LineReader::Status::kLine);
  EXPECT_EQ(line, "echo:one");
  ASSERT_EQ(reader.read_line(&line, Deadline::after(5.0)), LineReader::Status::kLine);
  EXPECT_EQ(line, "echo:two");
  ::shutdown(fd, SHUT_WR);
  EXPECT_EQ(reader.read_line(&line, Deadline::after(5.0)), LineReader::Status::kEof);
  ::close(fd);
  server.join();
  ::close(listen_fd);
}

TEST(Tcp, ConnectToARefusedPortReturnsMinusOne) {
  // Bind-then-close guarantees a port nobody is listening on right now.
  const int listen_fd = tcp_listen("127.0.0.1", 0);
  const std::uint16_t dead_port = local_port(listen_fd);
  ::close(listen_fd);
  EXPECT_EQ(tcp_connect("127.0.0.1", dead_port, Deadline::after(2.0)), -1);
}

TEST(Tcp, WriteAllToAVanishedPeerReturnsFalse) {
  // Deliberately leave SIGPIPE at its *default* (process-killing)
  // disposition: on sockets write_all uses send(MSG_NOSIGNAL), so a dead
  // peer must surface as `false` even in a process that never installed
  // SIG_IGN — the exact coordinator-vs-reset-worker case.  A regression
  // here kills the test binary, which is loud enough.
  std::signal(SIGPIPE, SIG_DFL);
  int pair[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  ::close(pair[1]);
  // The first write may land in the buffer before the RST propagates; a
  // couple of attempts deterministically observe the dead peer.
  bool failed = false;
  for (int i = 0; i < 4 && !failed; ++i) {
    failed = !write_all(pair[0], "into the void\n");
    ::usleep(1000);
  }
  EXPECT_TRUE(failed);
  ::close(pair[0]);
  std::signal(SIGPIPE, SIG_IGN);  // don't leave a lethal disposition behind
}

}  // namespace
}  // namespace fedhisyn::net
