#include "common.h"

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double proc_cpu_s(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(f, line)) return -1.0;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  const long ticks = sysconf(_SC_CLK_TCK);
  return static_cast<double>(utime + stime) / static_cast<double>(ticks);
}

namespace {

// A "Vm...:" field of /proc/<pid>/status in MiB; -1 on failure.
double status_mb(pid_t pid, const std::string& field) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size())) / 1024.0;  // kB -> MiB
    }
  }
  return -1.0;
}

}  // namespace

double peak_rss_mb(pid_t pid) { return status_mb(pid, "VmHWM:"); }

double rss_mb(pid_t pid) { return status_mb(pid, "VmRSS:"); }

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::int64_t item_value(std::uint64_t seed, std::uint64_t stream,
                        std::uint64_t i) {
  return static_cast<std::int64_t>(
      splitmix64(splitmix64(seed ^ (stream << 48)) + i) >> 1);
}

bool another_setup_trial(std::size_t done, double started, bool tiny) {
  if (tiny) return done < 1;
  return done < 5 || now_s() - started < 1.5;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void Result::set(const std::string& name, double value) {
  for (auto& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  metrics.push_back({name, value});
}

void Result::not_exercised(std::initializer_list<const char*> names) {
  for (const char* name : names) set(name, 0.0);
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 16) failures.push_back(what);
  std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

}  // namespace perfbench
