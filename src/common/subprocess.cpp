#include "common/subprocess.hpp"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/check.hpp"

extern char** environ;

namespace fedhisyn {

namespace {

/// "KEY" prefix of a "KEY=VALUE" entry.
std::string env_key(const std::string& entry) {
  return entry.substr(0, entry.find('='));
}

}  // namespace

std::string describe(const ExitStatus& status) {
  std::ostringstream out;
  if (status.exited) {
    out << "exit code " << status.code;
  } else {
    out << "killed by signal " << status.signal;
    const char* name = strsignal(status.signal);
    if (name != nullptr) out << " (" << name << ")";
  }
  return out.str();
}

Subprocess::Subprocess(const std::vector<std::string>& argv,
                       const std::vector<std::string>& env_overrides) {
  FEDHISYN_CHECK_MSG(!argv.empty(), "Subprocess needs a binary to exec");

  // O_CLOEXEC: a sibling worker exec'd later must not inherit this worker's
  // pipe end, or the parent would never see EOF when this child dies (the
  // child's dup2 copy below drops the flag, so it keeps its stdout).
  int out_pipe[2];  // child stdout -> parent reads
  FEDHISYN_CHECK_MSG(::pipe2(out_pipe, O_CLOEXEC) == 0,
                     "pipe2() failed: " << std::strerror(errno));
  // The child's stdin: an empty pipe whose write end the parent closes
  // right after the fork, so the child reads EOF at once whatever the
  // host's /dev/null is.
  int in_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) {
    const int err = errno;
    for (const int fd : out_pipe) ::close(fd);
    FEDHISYN_CHECK_MSG(false, "pipe2() failed: " << std::strerror(err));
  }

  // Materialise argv/envp before fork: no allocation between fork and exec.
  std::vector<char*> argv_ptrs;
  argv_ptrs.reserve(argv.size() + 1);
  for (const auto& arg : argv) argv_ptrs.push_back(const_cast<char*>(arg.c_str()));
  argv_ptrs.push_back(nullptr);

  std::vector<std::string> env_storage;
  for (char** entry = environ; entry != nullptr && *entry != nullptr; ++entry) {
    const std::string current = *entry;
    bool overridden = false;
    for (const auto& override_entry : env_overrides) {
      if (env_key(current) == env_key(override_entry)) {
        overridden = true;
        break;
      }
    }
    if (!overridden) env_storage.push_back(current);
  }
  for (const auto& override_entry : env_overrides) env_storage.push_back(override_entry);
  std::vector<char*> envp;
  envp.reserve(env_storage.size() + 1);
  for (const auto& entry : env_storage) envp.push_back(const_cast<char*>(entry.c_str()));
  envp.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : out_pipe) ::close(fd);
    for (const int fd : in_pipe) ::close(fd);
    FEDHISYN_CHECK_MSG(false, "fork() failed: " << std::strerror(errno));
  }

  if (pid == 0) {
    // Child: die with the parent.  A resident --serve worker never exits on
    // its own, so a coordinator killed mid-sweep would otherwise leave it
    // listening forever.  The re-check catches a parent that died before
    // prctl ran.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    // stdin from the empty pipe, stdout onto the pipe, stderr inherited.
    // dup2 drops O_CLOEXEC on the copies and the originals close at exec;
    // a pipe end that already is fd 0 or 1 (the parent had closed it) only
    // drops the flag.
    const auto keep_as = [](int fd, int target) {
      if (fd == target) {
        ::fcntl(fd, F_SETFD, 0);
      } else {
        ::dup2(fd, target);
      }
    };
    keep_as(in_pipe[0], STDIN_FILENO);
    keep_as(out_pipe[1], STDOUT_FILENO);
    ::execve(argv_ptrs[0], argv_ptrs.data(), envp.data());
    // exec failed: 127 is the shell's convention for "command not found".
    ::_exit(127);
  }

  pid_ = pid;
  for (const int fd : in_pipe) ::close(fd);
  ::close(out_pipe[1]);
  stdout_fd_ = out_pipe[0];
}

Subprocess::~Subprocess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    wait();
  }
  ::close(stdout_fd_);
}

ExitStatus Subprocess::wait() {
  if (pid_ <= 0) return status_;
  int raw = 0;
  pid_t reaped;
  do {
    reaped = ::waitpid(pid_, &raw, 0);
  } while (reaped < 0 && errno == EINTR);
  FEDHISYN_CHECK_MSG(reaped == pid_, "waitpid failed: " << std::strerror(errno));
  pid_ = -1;
  if (WIFEXITED(raw)) {
    status_.exited = true;
    status_.code = WEXITSTATUS(raw);
  } else if (WIFSIGNALED(raw)) {
    status_.exited = false;
    status_.signal = WTERMSIG(raw);
  }
  return status_;
}

void Subprocess::kill(int signum) {
  if (pid_ > 0) ::kill(pid_, signum);
}

std::string current_executable_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  FEDHISYN_CHECK_MSG(n > 0, "cannot resolve /proc/self/exe: " << std::strerror(errno));
  // readlink fills the buffer and reports no error on overflow; a silently
  // truncated path would self-exec the wrong binary (or nothing).
  FEDHISYN_CHECK_MSG(n < static_cast<ssize_t>(sizeof(buf) - 1),
                     "/proc/self/exe path is " << sizeof(buf) - 1
                                               << "+ bytes — refusing truncated path");
  buf[n] = '\0';
  return buf;
}

}  // namespace fedhisyn
