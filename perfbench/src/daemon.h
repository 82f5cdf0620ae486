// An sdafd child process on a private Unix socket in a fresh directory
// under the benchmark's work dir. The daemon always gets SIGTERM, is
// reaped, and its socket and directory are removed: in stop(), in the
// destructor, and -- through a fixed-size registry that is safe to walk
// from a signal handler -- when the driver is interrupted or its watchdog
// fires. The child also asks the kernel for SIGTERM should the driver die
// without cleaning up (PR_SET_PDEATHSIG).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

class Daemon {
 public:
  Daemon(std::string sdafd, std::string work_dir, std::size_t workers,
         std::uint64_t tenant_credits);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Spawns the daemon; readiness is the caller's connect retry. false = the
  // directory or the process could not be created.
  [[nodiscard]] bool start();
  // SIGTERM, reap (SIGKILL after a grace period), remove socket and dir.
  void stop();

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] const std::string& socket() const { return socket_; }

 private:
  std::string sdafd_;
  std::string work_dir_;
  std::size_t workers_;
  std::uint64_t credits_;
  std::string dir_;
  std::string socket_;
  pid_t pid_ = -1;
  int slot_ = -1;
};

// Async-signal-safe: terminates, reaps and unlinks every live daemon.
void stop_all_daemons();

}  // namespace perfbench
