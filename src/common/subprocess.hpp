// Subprocess: POSIX fork/exec with the child's stdout piped to the parent,
// how the process dispatch backend (exp/dispatch.*) spawns its --serve
// workers and reads the port each one announces.
//
// The child inherits the parent's environment plus explicit "KEY=VALUE"
// overrides, and inherits stderr directly — worker diagnostics interleave
// with the parent's progress output instead of vanishing.  Its stdin is
// /dev/null.  The child is SIGKILLed when the spawning *thread* exits
// (PR_SET_PDEATHSIG), so a killed parent leaves no orphan behind.
#pragma once

#include <string>
#include <vector>

#include <sys/types.h>

namespace fedhisyn {

/// Outcome of waiting on a child: exactly one of `exited` (with `code`) or a
/// terminating `signal` (0 when exited normally).
struct ExitStatus {
  bool exited = false;
  int code = 0;
  int signal = 0;

  bool clean() const { return exited && code == 0; }
};

/// "exit code 3" / "killed by signal 11 (SIGSEGV)" — for error messages.
std::string describe(const ExitStatus& status);

class Subprocess {
 public:
  /// Fork and exec `argv` (argv[0] is the binary path) with stdout piped to
  /// the parent and `env_overrides` ("KEY=VALUE") layered over the
  /// inherited environment.  Check-fails if the pipe or fork fail; a failed
  /// exec surfaces as the child exiting with code 127.
  Subprocess(const std::vector<std::string>& argv,
             const std::vector<std::string>& env_overrides);
  ~Subprocess();

  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;

  pid_t pid() const { return pid_; }
  /// Parent-side end of the child's stdout pipe.
  int stdout_fd() const { return stdout_fd_; }

  /// Block until the child exits and reap it.  Idempotent.
  ExitStatus wait();

  /// Send a signal (no-op after the child was reaped).
  void kill(int signum);

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  ExitStatus status_;
};

/// Absolute path of the running binary (/proc/self/exe), for self-exec
/// dispatch.  Check-fails if the link cannot be read.
std::string current_executable_path();

}  // namespace fedhisyn
