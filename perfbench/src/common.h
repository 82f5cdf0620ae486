// Shared plumbing for the benchmark driver: clocks, seeded inputs, output
// digests, order statistics, /proc readers, and the metric/result types the
// workloads fill in.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Seconds on the steady clock (arbitrary epoch).
[[nodiscard]] double now_s();
// CPU seconds consumed by this process (all threads).
[[nodiscard]] double process_cpu_s();
// CPU seconds consumed by another process (all threads), from /proc; -1 on
// failure.
[[nodiscard]] double proc_cpu_s(pid_t pid);
// Peak resident set (VmHWM) of a process in MiB; 0 = self. -1 on failure.
[[nodiscard]] double peak_rss_mb(pid_t pid = 0);
// Current resident set (VmRSS) of a process in MiB; 0 = self. -1 on failure.
[[nodiscard]] double rss_mb(pid_t pid = 0);
// Online CPUs this process may run on.
[[nodiscard]] unsigned nproc();

[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x);
// The i-th input value of input stream `stream` under `seed`. Everything a
// workload pushes comes from here, so one seed always gives one input set.
[[nodiscard]] std::int64_t item_value(std::uint64_t seed, std::uint64_t stream,
                                      std::uint64_t i);

// Order-sensitive digest of a delivered output stream: (seq, value) pairs in
// delivery order plus their count.
struct OutputDigest {
  std::uint64_t hash = 0x6a09e667f3bcc909ULL;
  std::uint64_t count = 0;

  void add(std::uint64_t seq, std::int64_t value) {
    hash = splitmix64(hash ^ splitmix64(seq ^ 0x9e3779b97f4a7c15ULL) ^
                      static_cast<std::uint64_t>(value));
    ++count;
  }
  bool operator==(const OutputDigest&) const = default;
};

// Whether to run another set-up trial after `done` of them, begun at
// `started` (now_s): trials repeat for 1.5 s and at least 5 times (once in
// tiny mode), and setup_s is their median. The minimum matters where one
// trial is a cold compile of most of a second.
[[nodiscard]] bool another_setup_trial(std::size_t done, double started,
                                       bool tiny);

[[nodiscard]] double median(std::vector<double> v);
// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);

// A metric's value; its unit comes from BENCHMARK.json, where run.py
// attaches it.
struct Metric {
  std::string name;
  double value = 0.0;
};

// What one workload run reports. attempted/failed count checked operations
// (pushes, opens, verdicts, reference comparisons); any failure makes the
// run incorrect and the command exit non-zero.
struct Result {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for stderr

  void set(const std::string& name, double value);
  // Reports 0 for metrics of a layer the workload bypasses. Each workload
  // names these itself, so a metric it stops setting goes missing and
  // fails run.py's check instead of reading 0.
  void not_exercised(std::initializer_list<const char*> names);
  void check(bool ok, const std::string& what);
  void count_ok(std::uint64_t n) { attempted += n; }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;              // self-test sizes
  bool perturb_reference = false;  // self-test: corrupt the reference
  std::string sdafd;              // path of the daemon binary
  std::string work_dir;           // scratch dir inside the checkout
  std::string trace_out;          // Chrome trace JSON path ("" = none)
  std::size_t workers = 1;        // W
};

}  // namespace perfbench
