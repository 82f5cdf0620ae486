#include "daemon.h"

#include <errno.h>
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <vector>

namespace perfbench {
namespace {

// Fixed storage so a signal handler can walk it without allocating.
struct Slot {
  std::atomic<pid_t> pid{0};
  char socket[512] = {};
  char dir[512] = {};
};
constexpr int kSlots = 32;
Slot g_slots[kSlots];
std::atomic<bool> g_used[kSlots];

void sleep_ms(long ms) {
  timespec ts{ms / 1000, (ms % 1000) * 1000000L};
  while (nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

// SIGTERM, wait up to `grace_ms` for the exit, then SIGKILL and reap.
void terminate_and_reap(pid_t pid, long grace_ms) {
  kill(pid, SIGTERM);
  for (long waited = 0; waited < grace_ms; waited += 5) {
    if (waitpid(pid, nullptr, WNOHANG) == pid) return;
    sleep_ms(5);
  }
  kill(pid, SIGKILL);
  while (waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
  }
}

void copy(char* dst, const std::string& src) {
  std::snprintf(dst, 512, "%s", src.c_str());
}

}  // namespace

Daemon::Daemon(std::string sdafd, std::string work_dir, std::size_t workers,
               std::uint64_t tenant_credits)
    : sdafd_(std::move(sdafd)),
      work_dir_(std::move(work_dir)),
      workers_(workers),
      credits_(tenant_credits) {}

Daemon::~Daemon() { stop(); }

bool Daemon::start() {
  std::string templ = work_dir_ + "/sdafd.XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  if (mkdtemp(buf.data()) == nullptr) return false;
  dir_ = buf.data();
  socket_ = dir_ + "/s";
  for (int i = 0; i < kSlots; ++i) {
    bool expected = false;
    if (g_used[i].compare_exchange_strong(expected, true)) {
      slot_ = i;
      break;
    }
  }
  if (slot_ < 0) return false;
  copy(g_slots[slot_].socket, socket_);
  copy(g_slots[slot_].dir, dir_);

  const std::string unix_arg = "--unix=" + socket_;
  const std::string workers_arg = "--workers=" + std::to_string(workers_);
  const std::string credits_arg = "--tenant-credits=" + std::to_string(credits_);
  const char* argv[] = {sdafd_.c_str(),       unix_arg.c_str(),
                        workers_arg.c_str(),  credits_arg.c_str(),
                        "--drain-grace-ms=200", nullptr};
  // Block signals across fork so an interrupt cannot land between the
  // fork and the registration of the child's pid.
  sigset_t all, old;
  sigfillset(&all);
  pthread_sigmask(SIG_BLOCK, &all, &old);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (getppid() != parent) _exit(1);
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) dup2(devnull, STDOUT_FILENO);  // stdout is ours
    sigprocmask(SIG_SETMASK, &old, nullptr);
    execv(argv[0], const_cast<char* const*>(argv));
    _exit(127);
  }
  if (pid > 0) {
    pid_ = pid;
    g_slots[slot_].pid.store(pid);
  }
  pthread_sigmask(SIG_SETMASK, &old, nullptr);
  return pid > 0;
}

void Daemon::stop() {
  if (slot_ < 0) return;
  const pid_t pid = g_slots[slot_].pid.exchange(0);
  if (pid > 0) terminate_and_reap(pid, 3000);
  unlink(socket_.c_str());
  rmdir(dir_.c_str());
  g_used[slot_].store(false);
  slot_ = -1;
  pid_ = -1;
}

void stop_all_daemons() {
  for (int i = 0; i < kSlots; ++i) {
    const pid_t pid = g_slots[i].pid.exchange(0);
    if (pid <= 0) continue;
    terminate_and_reap(pid, 500);
    unlink(g_slots[i].socket);
    rmdir(g_slots[i].dir);
  }
}

}  // namespace perfbench
