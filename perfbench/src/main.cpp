// perfbench_driver -- runs one benchmark workload and prints its result.
//
//   perfbench_driver --workload ladder_pass|filter_dense|wire_mix
//                    --seed N --seconds S --trace 0|1 --sdafd PATH
//                    --work-dir DIR [--trace-out FILE] [--git-commit SHA]
//                    [--tiny] [--perturb-reference] [--deadline-s S]
//
// stdout: a provenance line, then, as the last line, one JSON object with
// exactly the keys correct, attempted, failed and metrics, where metrics
// maps each name to its value (null if not finite). With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set.
// run.py checks the names against BENCHMARK.json and attaches the units.
// Exit status: 0 correct, 1 a check failed, 2 usage, 4 watchdog.
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "daemon.h"
#include "workloads.h"

using namespace perfbench;

namespace {

std::atomic<bool> g_done{false};

void on_signal(int sig) {
  stop_all_daemons();
  _exit(128 + sig);
}

std::string loadavg() {
  std::ifstream f("/proc/loadavg");
  double a = 0, b = 0, c = 0;
  f >> a >> b >> c;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "[%.2f, %.2f, %.2f]", a, b, c);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string jnum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --sdafd PATH --work-dir DIR [--trace-out FILE] "
               "[--git-commit SHA] [--tiny] [--perturb-reference] "
               "[--deadline-s S]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string git_commit = "unknown";
  double deadline_s = 170.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--perturb-reference") {
      opt.perturb_reference = true;
    } else if (!has_value) {
      return usage();
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--sdafd") {
      opt.sdafd = argv[++i];
    } else if (a == "--work-dir") {
      opt.work_dir = argv[++i];
    } else if (a == "--trace-out") {
      opt.trace_out = argv[++i];
    } else if (a == "--git-commit") {
      git_commit = argv[++i];
    } else if (a == "--deadline-s") {
      deadline_s = std::strtod(argv[++i], nullptr);
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || opt.sdafd.empty() || opt.work_dir.empty() ||
      !(opt.seconds > 0))
    return usage();

  ::signal(SIGTERM, on_signal);
  ::signal(SIGINT, on_signal);
  ::signal(SIGHUP, on_signal);
  ::signal(SIGPIPE, SIG_IGN);
  // Hard timeout for the whole run: stop the daemons and bail out.
  std::thread watchdog([deadline_s] {
    const double end = now_s() + deadline_s;
    while (!g_done.load()) {
      if (now_s() > end) {
        std::fprintf(stderr, "perfbench: watchdog: run exceeded %.0f s\n",
                     deadline_s);
        stop_all_daemons();
        _exit(4);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  const unsigned cpus = nproc();
  opt.workers = std::max(1u, std::min(3u, cpus - 1));
  const std::string load_start = loadavg();

  Result res;
  try {
    if (opt.workload == "ladder_pass") {
      res = run_ladder_pass(opt);
    } else if (opt.workload == "filter_dense") {
      res = run_filter_dense(opt);
    } else if (opt.workload == "wire_mix") {
      res = run_wire_mix(opt);
    } else {
      res.check(false, "unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    res.check(false, std::string("uncaught: ") + e.what());
  }
  g_done.store(true);
  watchdog.join();

  const bool evidence = cpus >= 4;
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"hardware_concurrency\": %u, "
      "\"workers_W\": %zu, \"wire_daemon_workers\": 2, "
      "\"loadavg_start\": %s, \"loadavg_end\": %s, \"build_type\": %s, "
      "\"git_commit\": %s, \"scaling_evidence\": %s%s}}\n",
      jstr(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
      jnum(opt.seconds).c_str(), opt.trace ? 1 : 0, cpus,
      std::thread::hardware_concurrency(), opt.workers, load_start.c_str(),
      loadavg().c_str(), jstr(PERFBENCH_BUILD_TYPE).c_str(),
      jstr(git_commit).c_str(), evidence ? "true" : "false",
      evidence ? ""
               : ", \"note\": \"nproc < 4: W-worker figures are not evidence "
                 "of scaling\"");

  std::string line = "{\"correct\": ";
  line += res.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, res.attempted));
  line += ", \"failed\": " + std::to_string(res.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : res.metrics) {
    if (!first) line += ", ";
    first = false;
    line += jstr(m.name) + ": " +
            (std::isfinite(m.value) ? jnum(m.value) : std::string("null"));
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  for (const auto& f : res.failures)
    std::fprintf(stderr, "perfbench: failure: %s\n", f.c_str());
  return res.failed == 0 ? 0 : 1;
}
