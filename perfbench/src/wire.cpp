// wire_mix: sdafd as a child process on a private Unix socket inside the
// checkout, driven through net::Client by one interactive connection
// (tenant "interactive", DRR weight 4, 1-item push -> poll until delivered)
// and two batch connections (tenant "batch", weight 1, 64-item PushBatch
// closed loop). Outputs are checked against an in-process Sim run built
// from the same OpenFrame through net::make_kernels.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "daemon.h"
#include "src/core/compile.h"
#include "src/exec/session.h"
#include "src/net/client.h"
#include "src/net/workload.h"
#include "reference.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sdaf;

constexpr const char* kTopology =
    "node src\n"
    "node mid\n"
    "node dst\n"
    "edge src mid 16\n"
    "edge mid dst 16\n";
constexpr std::size_t kDaemonWorkers = 2;
constexpr std::uint64_t kTenantCredits = 4096;
constexpr std::uint32_t kBatch = 64;
constexpr double kEpisodeTimeout_s = 60.0;

net::OpenFrame open_frame(bool interactive) {
  net::OpenFrame f;
  f.backend = static_cast<std::uint8_t>(exec::Backend::Pooled);
  f.mode = static_cast<std::uint8_t>(runtime::DummyMode::Propagation);
  f.kernel = net::KernelKind::Passthrough;
  f.tenant = interactive ? "interactive" : "batch";
  f.weight = interactive ? 4.0 : 1.0;
  f.topology = kTopology;
  return f;
}

// The in-process reference for `n` items of input stream `stream`: the
// OpenFrame's topology, compile and stream settings, and kernels through
// net::make_kernels, as the server builds them.
Reference wire_reference(const net::OpenFrame& f, std::uint64_t seed,
                         std::uint64_t stream, std::uint64_t n) {
  const auto g = net::parse_topology(f.topology);
  if (!g) return {};
  core::CompileOptions copts;
  copts.algorithm = core::Algorithm::Propagation;
  exec::StreamSpec spec;
  spec.run.mode = static_cast<runtime::DummyMode>(f.mode);
  spec.run.tenant = f.tenant;
  spec.run.batch = f.batch;
  spec.feed_capacity = f.feed_capacity;
  spec.egress_capacity = f.egress_capacity;
  spec.run.apply(core::compile(*g, copts));
  return sim_reference(*g, net::make_kernels(*g, f), std::move(spec), seed,
                       stream, n);
}

// Prometheus text -> {"name{labels}" -> value}.
std::map<std::string, double> parse_prom(const std::string& page) {
  std::map<std::string, double> out;
  std::istringstream in(page);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

double prom(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

// Pool-wide sum of one sdaf_worker_* family. Every live stream repeats the
// shared pool's counters under its own tenant label, so one label's series
// are summed.
double worker_sum(const std::map<std::string, double>& m,
                  const std::string& family) {
  std::string label;
  double total = 0.0;
  for (const auto& [key, v] : m) {
    if (key.rfind(family + "{tenant=\"", 0) != 0) continue;
    const std::size_t a = family.size() + 9;
    const std::string this_label = key.substr(a, key.find('"', a) - a);
    if (label.empty()) label = this_label;
    if (this_label == label) total += v;
  }
  return total;
}

struct ConnResult {
  bool ok = true;
  std::string error;
  bool cache_hit = false;
  std::uint64_t pushed = 0;
  OutputDigest digest;
  exec::RunReport report;
  double open_s = 0.0, finish_s = 0.0;
  std::uint64_t push_calls = 0, push_short = 0, poll_calls = 0, poll_empty = 0;
  std::vector<double> push_rtt_us, poll_rtt_us, rtt_us;
};

struct Shared {
  std::atomic<int> opened{0};
  std::atomic<int> batch_done{0};
  std::atomic<int> window{0};  // 0 warm-up, 1 measuring, 2 after
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> batch_accepted{0};
  std::atomic<std::uint64_t> interactive_done{0};
};

net::DeliverFrame timed_poll(net::ClientStream& s, std::uint32_t max,
                             ConnResult& r, Lane* lane) {
  const double t0 = now_s();
  net::DeliverFrame d;
  {
    Scope sp(lane, "client_poll");
    d = s.poll(0, max);
  }
  r.poll_rtt_us.push_back((now_s() - t0) * 1e6);
  ++r.poll_calls;
  if (d.items.empty()) ++r.poll_empty;
  for (const auto& it : d.items) r.digest.add(it.seq, it.value.as<std::int64_t>());
  return d;
}

void close_and_finish(net::ClientStream& s, ConnResult& r, Lane* lane,
                      double deadline) {
  s.close(0);
  for (;;) {
    const net::DeliverFrame d = timed_poll(s, 4096, r, lane);
    if (d.ended != 0) break;
    if (now_s() > deadline) {
      r.ok = false;
      r.error = "drain timed out";
      break;
    }
    if (d.items.empty()) std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  const double t0 = now_s();
  {
    Scope sp(lane, "client_finish");
    r.report = s.finish();
  }
  r.finish_s = now_s() - t0;
}

net::ClientStream timed_open(net::Client& c, std::uint16_t id,
                             const net::OpenFrame& f, ConnResult& r,
                             Lane* lane) {
  const double t0 = now_s();
  Scope sp(lane, "client_open");
  net::ClientStream s = c.open(id, f);
  r.open_s = now_s() - t0;
  r.cache_hit = s.cache_hit();
  return s;
}

void batch_conn(net::Client& c, std::uint16_t id, std::uint64_t stream,
                std::uint64_t items, std::uint64_t seed, Shared& sh,
                ConnResult& r, Lane* lane) {
  const double deadline = now_s() + kEpisodeTimeout_s;
  bool opened = false, done = false;
  try {
    net::ClientStream s = timed_open(c, id, open_frame(false), r, lane);
    sh.opened.fetch_add(1);
    opened = true;
    Scope drive(lane, "drive");
    while (r.pushed < items) {
      const std::size_t k =
          static_cast<std::size_t>(std::min<std::uint64_t>(kBatch, items - r.pushed));
      const auto batch = seeded_values(seed, stream, r.pushed, k);
      const double t0 = now_s();
      net::PushAckFrame ack;
      {
        Scope sp(lane, "client_push");
        ack = s.push_some(0, batch);
      }
      r.push_rtt_us.push_back((now_s() - t0) * 1e6);
      ++r.push_calls;
      if (ack.accepted < k) ++r.push_short;
      r.pushed += ack.accepted;
      sh.batch_accepted.fetch_add(ack.accepted, std::memory_order_relaxed);
      if (ack.ended != 0 || now_s() > deadline) {
        r.ok = false;
        r.error = ack.ended != 0 ? "push ended early" : "push timed out";
        break;
      }
      // Drain what was just accepted, or stop at the first empty poll.
      std::uint64_t got = 0;
      while (got < ack.accepted) {
        const net::DeliverFrame d = timed_poll(s, 4096, r, lane);
        got += d.items.size();
        if (d.items.empty() || d.ended != 0) break;
      }
    }
    sh.batch_done.fetch_add(1);
    done = true;
    close_and_finish(s, r, lane, deadline);
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
    // Release the coordinator's waits.
    if (!opened) sh.opened.fetch_add(1);
    if (!done) sh.batch_done.fetch_add(1);
  }
}

void interactive_conn(net::Client& c, std::uint16_t id, std::uint64_t seed,
                      Shared& sh, ConnResult& r, Lane* lane) {
  const double deadline = now_s() + kEpisodeTimeout_s;
  bool opened = false;
  try {
    net::ClientStream s = timed_open(c, id, open_frame(true), r, lane);
    sh.opened.fetch_add(1);
    opened = true;
    Scope drive(lane, "drive");
    while (!sh.stop.load(std::memory_order_relaxed)) {
      const bool in_window = sh.window.load(std::memory_order_relaxed) == 1;
      const double t0 = now_s();
      net::PushAckFrame ack;
      {
        Scope sp(lane, "client_push");
        ack = s.push_some(0, seeded_values(seed, 1, r.pushed, 1));
      }
      r.push_rtt_us.push_back((now_s() - t0) * 1e6);
      ++r.push_calls;
      if (ack.ended != 0 || now_s() > deadline) {
        r.ok = false;
        r.error = "interactive push ended early";
        break;
      }
      if (ack.accepted == 0) {
        ++r.push_short;
        continue;
      }
      ++r.pushed;
      std::uint64_t got = 0;
      while (got == 0 && now_s() < deadline) {
        const net::DeliverFrame d = timed_poll(s, 1, r, lane);
        got = d.items.size();
        if (d.ended != 0) break;
      }
      if (in_window && sh.window.load(std::memory_order_relaxed) == 1)
        r.rtt_us.push_back((now_s() - t0) * 1e6);
      sh.interactive_done.fetch_add(1, std::memory_order_relaxed);
    }
    close_and_finish(s, r, lane, deadline);
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
    if (!opened) sh.opened.fetch_add(1);
  }
}

struct Episode {
  bool many = true;  // the W-worker daemon (else the 1-worker one)
  bool traced = false;
  bool warmup = false;  // checked for correctness, left out of the figures
  double rate = 0.0;  // batch tenant items/s over the window
  double cpu_us_per_item = 0.0;
  double window_items = 0.0;  // batch + interactive items in the window
  std::vector<ConnResult> conns;  // [0] interactive, [1..2] batch
  std::map<std::string, double> stats0, stats1;  // traced only
};

std::optional<net::Client> connect(const Daemon& d) {
  net::ConnectOptions retry;
  retry.attempts = 14;
  retry.backoff = std::chrono::milliseconds(1);
  return net::Client::connect_unix(d.socket(), retry);
}

// The Stats page, parsed; empty (and a recorded failure) on a protocol
// error, which must not escape while connection threads are running.
std::map<std::string, double> stats_page(net::Client* observer, Result& res) {
  if (observer == nullptr) return {};
  try {
    return parse_prom(observer->stats());
  } catch (const std::exception& e) {
    res.check(false, std::string("wire_mix: stats: ") + e.what());
    return {};
  }
}

bool wait_until(const std::function<bool()>& pred, double deadline) {
  while (!pred()) {
    if (now_s() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

Episode run_episode(const Daemon& d, std::vector<std::optional<net::Client>>& conns,
                    net::Client* observer, std::uint16_t id,
                    std::uint64_t batch_items, std::uint64_t seed, bool many,
                    Recorder* recorder, Result& res) {
  Episode ep;
  ep.many = many;
  ep.traced = recorder != nullptr;
  ep.conns.resize(3);
  Shared sh;
  std::vector<std::thread> threads;
  std::vector<Lane*> lanes(3, nullptr);
  if (recorder != nullptr)
    for (auto& l : lanes) l = recorder->lane();
  threads.emplace_back(interactive_conn, std::ref(*conns[0]), id, seed,
                       std::ref(sh), std::ref(ep.conns[0]), lanes[0]);
  for (std::size_t b = 1; b <= 2; ++b)
    threads.emplace_back(batch_conn, std::ref(*conns[b]), id,
                         std::uint64_t{b + 1}, batch_items, seed, std::ref(sh),
                         std::ref(ep.conns[b]), lanes[b]);
  const double deadline = now_s() + kEpisodeTimeout_s;
  bool ok = wait_until([&] { return sh.opened.load() == 3; }, deadline) &&
            wait_until(
                [&] {
                  return sh.batch_accepted.load() >= 2 * batch_items / 5 ||
                         sh.batch_done.load() > 0;
                },
                deadline);
  const double t0 = now_s();
  const std::uint64_t a0 = sh.batch_accepted.load();
  const std::uint64_t i0 = sh.interactive_done.load();
  const double cpu0 = proc_cpu_s(d.pid());
  ep.stats0 = stats_page(observer, res);
  sh.window.store(1);
  ok = ok && wait_until([&] { return sh.batch_done.load() > 0; }, deadline);
  sh.window.store(2);
  const double t1 = now_s();
  const std::uint64_t a1 = sh.batch_accepted.load();
  const std::uint64_t i1 = sh.interactive_done.load();
  const double cpu1 = proc_cpu_s(d.pid());
  ep.stats1 = stats_page(observer, res);
  sh.stop.store(true);
  for (auto& t : threads) t.join();
  res.check(ok, "wire_mix: episode reached its measurement window");
  ep.window_items = static_cast<double>((a1 - a0) + (i1 - i0));
  if (t1 > t0 && a1 > a0) {
    ep.rate = static_cast<double>(a1 - a0) / (t1 - t0);
    ep.cpu_us_per_item = (cpu1 - cpu0) * 1e6 / ep.window_items;
  }
  return ep;
}

// Stats-page invariants once every stream has finished: each admitted
// stream was released (no stream left open, one admission per stream) and
// no tenant holds credits.
void check_quiesced(net::Client& c, const char* which, Result& res) {
  const auto m = parse_prom(c.stats());
  const double admitted = prom(m, "sdaf_admission_admitted_total");
  const double streams = prom(m, "sdafd_streams_total");
  const double open = prom(m, "sdafd_streams_open");
  bool credits_zero = true;
  for (const auto& [key, v] : m)
    if (key.rfind("sdaf_tenant_credits_in_flight{", 0) == 0 && v != 0.0)
      credits_zero = false;
  res.check(admitted == streams && open == 0.0,
            std::string("wire_mix: ") + which + " daemon admitted == released");
  res.check(credits_zero,
            std::string("wire_mix: ") + which + " daemon credits_in_flight == 0");
}

struct SetupTrial {
  double setup_s = 0.0;
  double open_s = 0.0;
  bool cache_hit = false;
};

SetupTrial setup_trial(const Options& opt, std::uint64_t seed, Lane* lane,
                       Result& res) {
  SetupTrial t;
  Scope setup(lane, "setup");
  const double t0 = now_s();
  Daemon d(opt.sdafd, opt.work_dir, kDaemonWorkers, kTenantCredits);
  bool ok = false;
  {
    Scope s(lane, "daemon_start");
    ok = d.start();
  }
  // Readiness through single-attempt ConnectOptions at 200 us intervals:
  // the exponential retry schedule would add its own jittered gaps to a
  // set-up time of a few milliseconds.
  std::optional<net::Client> c;
  if (ok) {
    Scope s(lane, "connect");
    net::ConnectOptions once;
    once.attempts = 1;
    const double deadline = now_s() + 10.0;
    while (!c && now_s() < deadline) {
      c = net::Client::connect_unix(d.socket(), once);
      if (!c) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  res.check(c.has_value(), "wire_mix: set-up connect");
  if (!c) return t;
  try {
    ConnResult r;
    net::ClientStream s = timed_open(*c, 1, open_frame(false), r, lane);
    net::PushAckFrame ack;
    {
      Scope sp(lane, "client_push");
      ack = s.push_some(0, seeded_values(seed, 9, 0, 1));
    }
    t.setup_s = now_s() - t0;
    t.open_s = r.open_s;
    t.cache_hit = r.cache_hit;
    close_and_finish(s, r, lane, now_s() + kEpisodeTimeout_s);
    res.check(ack.accepted == 1 && r.report.completed && r.ok,
              "wire_mix: set-up stream");
  } catch (const std::exception& e) {
    res.check(false, std::string("wire_mix: set-up: ") + e.what());
  }
  return t;
}

}  // namespace

Result run_wire_mix(const Options& opt) {
  Result res;
  Recorder recorder("wire_mix-" + std::to_string(opt.seed));
  Lane* main_lane = opt.trace ? recorder.lane() : nullptr;
  // Items per batch connection per episode: a few tenths of a second, with
  // thousands of interactive round trips in the window.
  const std::uint64_t batch_items = opt.tiny ? 4096 : (1u << 18);

  // ---- set-up trials: fresh daemon -> connect -> Open -> first accepted
  // push ----
  std::vector<double> setups, miss_opens;
  std::uint64_t opens = 0, hits = 0;
  const double t_setup = now_s();
  while (another_setup_trial(setups.size(), t_setup, opt.tiny)) {
    const SetupTrial t = setup_trial(opt, opt.seed, main_lane, res);
    setups.push_back(t.setup_s);
    miss_opens.push_back(t.open_s);
    ++opens;
    hits += t.cache_hit ? 1 : 0;
  }

  // ---- steady state ----
  Daemon many(opt.sdafd, opt.work_dir, kDaemonWorkers, kTenantCredits);
  Daemon one(opt.sdafd, opt.work_dir, 1, kTenantCredits);
  // The 1-worker daemon is the single-worker baseline of the traced run.
  const bool need_one = opt.trace;
  res.check(many.start() && (!need_one || one.start()), "wire_mix: daemon start");
  std::vector<std::optional<net::Client>> conns_many(3), conns_one(3);
  std::optional<net::Client> observer_many, observer_one;
  for (auto& c : conns_many) c = connect(many);
  observer_many = connect(many);
  if (need_one) {
    for (auto& c : conns_one) c = connect(one);
    observer_one = connect(one);
  }
  bool connected = observer_many.has_value() && (!need_one || observer_one.has_value());
  for (auto& c : conns_many) connected = connected && c.has_value();
  if (need_one)
    for (auto& c : conns_one) connected = connected && c.has_value();
  res.check(connected, "wire_mix: connections");
  if (!connected) return res;

  std::vector<Episode> episodes;
  const double t_start = now_s();
  const int rounds_min = opt.tiny ? 1 : 4;
  std::uint16_t id_many = 1, id_one = 1;
  // Untraced: the W-worker daemon. Traced: the W-worker daemon untraced
  // (kind 0) and traced (kind 1), and the 1-worker daemon (kind 2), in an
  // order that rotates every round so drift hits all of them equally.
  const int kinds = opt.trace ? 3 : 1;
  for (int round = 0;; ++round) {
    if (now_s() - t_start >= opt.seconds && round >= rounds_min) break;
    const std::size_t first_of_round = episodes.size();
    for (int k = 0; k < kinds; ++k) {
      const int kind = (k + round) % kinds;
      if (kind == 2) {
        episodes.push_back(run_episode(one, conns_one, nullptr, id_one++,
                                       batch_items, opt.seed, false, nullptr, res));
      } else {
        const bool traced = kind == 1 && (round > 0 || opt.tiny);
        episodes.push_back(run_episode(many, conns_many,
                                       traced ? &*observer_many : nullptr,
                                       id_many++, batch_items, opt.seed, true,
                                       traced ? &recorder : nullptr, res));
      }
    }
    // Round 0 warms both daemons and is only checked for correctness.
    for (std::size_t e = first_of_round; e < episodes.size(); ++e)
      episodes[e].warmup = round == 0 && !opt.tiny;
  }
  try {
    check_quiesced(*observer_many, "W-worker", res);
    if (need_one) check_quiesced(*observer_one, "1-worker", res);
  } catch (const std::exception& e) {
    res.check(false, std::string("wire_mix: stats: ") + e.what());
  }
  const double peak_rss = peak_rss_mb(many.pid());
  for (auto* v : {&conns_many, &conns_one})
    for (auto& c : *v) c.reset();
  observer_many.reset();
  observer_one.reset();
  many.stop();
  one.stop();

  // ---- correctness: every stream against the in-process reference ----
  const Reference ref_b1 = wire_reference(open_frame(false), opt.seed, 2, batch_items);
  Reference ref_b2 = wire_reference(open_frame(false), opt.seed, 3, batch_items);
  if (opt.perturb_reference) ref_b2.digest.hash ^= 1;
  std::map<std::uint64_t, Reference> ref_inter;
  for (const Episode& ep : episodes) {
    for (std::size_t c = 0; c < ep.conns.size(); ++c) {
      const ConnResult& r = ep.conns[c];
      res.check(r.ok, "wire_mix: connection ran (" + r.error + ")");
      res.check(r.report.completed, "wire_mix: completed verdict");
      const Reference* ref = c == 1 ? &ref_b1 : c == 2 ? &ref_b2 : nullptr;
      if (ref == nullptr) {
        auto it = ref_inter.find(r.pushed);
        if (it == ref_inter.end())
          it = ref_inter
                   .emplace(r.pushed,
                            wire_reference(open_frame(true), opt.seed, 1, r.pushed))
                   .first;
        ref = &it->second;
      }
      res.check(r.digest == ref->digest,
                "wire_mix: outputs equal the in-process reference");
      res.check(same_traffic(r.report, ref->report),
                "wire_mix: per-edge counts equal the in-process reference");
      res.count_ok(r.push_calls + r.poll_calls + 1);
      ++opens;
      hits += r.cache_hit ? 1 : 0;
    }
  }

  auto pick = [&](bool many_side, bool traced, auto field) {
    std::vector<double> v;
    for (const Episode& ep : episodes)
      if (ep.many == many_side && ep.traced == traced && !ep.warmup)
        v.push_back(field(ep));
    return v;
  };
  const auto rate = [](const Episode& e) { return e.rate; };
  const auto cpu = [](const Episode& e) { return e.cpu_us_per_item; };

  if (!opt.trace) {
    res.set("setup_s", median(setups));
    res.set("items_per_s", median(pick(true, false, rate)));
    res.set("cpu_us_per_item", median(pick(true, false, cpu)));
    // Per-episode percentiles of the interactive round trips, then the
    // median across episodes.
    res.set("rtt_p50_us",
            median(pick(true, false,
                        [](const Episode& e) { return quantile(e.conns[0].rtt_us, 0.50); })));
    res.set("peak_rss_mb", peak_rss);
    std::fprintf(stderr,
                 "perfbench: wire_mix setup trials=%zu episodes=%zu batch "
                 "items/connection=%llu\n",
                 setups.size(), episodes.size(),
                 static_cast<unsigned long long>(batch_items));
    for (const Episode& ep : episodes)
      std::fprintf(stderr,
                   "perfbench:   episode %s%s items/s=%.0f cpu_us/item=%.3f "
                   "rtt p50/p99 us=%.0f/%.0f (%zu samples)\n",
                   ep.many ? "W " : "1w", ep.warmup ? " warm-up" : "", ep.rate,
                   ep.cpu_us_per_item, quantile(ep.conns[0].rtt_us, 0.5),
                   quantile(ep.conns[0].rtt_us, 0.99), ep.conns[0].rtt_us.size());
    return res;
  }

  // ---- per-layer metrics (traced run) ----
  const auto spans = recorder.totals();
  auto span_s = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_s;
  };
  std::vector<double> open_s, finish_s, push_rtt, poll_rtt;
  std::uint64_t push_calls = 0, push_short = 0, poll_calls = 0, poll_empty = 0;
  double items = 0.0, fires = 0.0, dummies = 0.0, data = 0.0, delivered = 0.0;
  double window_items = 0.0, d_frames = 0.0, d_timeouts = 0.0, d_steals = 0.0,
         d_fails = 0.0, d_futex = 0.0, d_wakes = 0.0, d_inter = 0.0, d_batch = 0.0;
  double inter_depth = 0.0, batch_depth = 0.0;
  for (const Episode& ep : episodes) {
    if (!ep.traced || ep.warmup) continue;
    for (std::size_t c = 0; c < ep.conns.size(); ++c) {
      const ConnResult& r = ep.conns[c];
      open_s.push_back(r.open_s);
      finish_s.push_back(r.finish_s);
      if (c != 0) push_rtt.insert(push_rtt.end(), r.push_rtt_us.begin(), r.push_rtt_us.end());
      poll_rtt.insert(poll_rtt.end(), r.poll_rtt_us.begin(), r.poll_rtt_us.end());
      push_calls += r.push_calls;
      push_short += r.push_short;
      poll_calls += r.poll_calls;
      poll_empty += r.poll_empty;
      items += static_cast<double>(r.pushed);
      delivered += static_cast<double>(r.digest.count);
      for (const auto f : r.report.fires) fires += static_cast<double>(f);
      dummies += static_cast<double>(r.report.total_dummies());
      data += static_cast<double>(r.report.total_data());
    }
    const auto& s0 = ep.stats0;
    const auto& s1 = ep.stats1;
    window_items += ep.window_items;
    d_frames += prom(s1, "sdafd_frames_total") - prom(s0, "sdafd_frames_total");
    d_timeouts +=
        prom(s1, "sdafd_push_timeouts_total") - prom(s0, "sdafd_push_timeouts_total");
    d_steals += worker_sum(s1, "sdaf_worker_steals_total") -
                worker_sum(s0, "sdaf_worker_steals_total");
    d_fails += worker_sum(s1, "sdaf_worker_steal_fails_total") -
               worker_sum(s0, "sdaf_worker_steal_fails_total");
    d_futex += worker_sum(s1, "sdaf_worker_futex_parks_total") -
               worker_sum(s0, "sdaf_worker_futex_parks_total");
    d_wakes += worker_sum(s1, "sdaf_worker_wakes_total") -
               worker_sum(s0, "sdaf_worker_wakes_total");
    const std::string deq = "sdaf_tenant_sched_dequeued_total{tenant=\"";
    d_inter += prom(s1, deq + "interactive\"}") - prom(s0, deq + "interactive\"}");
    d_batch += prom(s1, deq + "batch\"}") - prom(s0, deq + "batch\"}");
    const std::string depth = "sdaf_tenant_queue_depth_max{tenant=\"";
    inter_depth = std::max(inter_depth, prom(s1, depth + "interactive\"}"));
    batch_depth = std::max(batch_depth, prom(s1, depth + "batch\"}"));
  }
  const double untraced_cpu = median(pick(true, false, cpu));
  const double untraced_rate = median(pick(true, false, rate));
  const double traced_rate = median(pick(true, true, rate));
  const double firings_per_item = fires / std::max(1.0, items);
  const double wi = std::max(1.0, window_items);
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  res.set("core.compile_s",
          std::max(0.0, median(miss_opens) - median(open_s)));
  res.set("core.cache_hit_ratio", ratio(static_cast<double>(hits),
                                        static_cast<double>(opens)));
  res.set("exec.open_s", median(open_s));
  res.set("exec.push_blocked_frac", ratio(span_s("client_push"), span_s("drive")));
  res.set("exec.push_short_ratio", ratio(static_cast<double>(push_short),
                                         static_cast<double>(push_calls)));
  res.set("exec.poll_empty_ratio", ratio(static_cast<double>(poll_empty),
                                         static_cast<double>(poll_calls)));
  res.set("exec.finish_s", median(finish_s));
  res.set("runtime.firings_per_item", firings_per_item);
  res.set("runtime.cpu_ns_per_firing", ratio(untraced_cpu * 1e3, firings_per_item));
  res.set("runtime.steals_per_item", d_steals / wi);
  res.set("runtime.steal_fail_ratio", ratio(d_fails, d_steals + d_fails));
  res.set("runtime.futex_parks_per_item", d_futex / wi);
  res.set("runtime.wakes_per_item", d_wakes / wi);
  res.set("dummies_per_item", ratio(dummies, items));
  res.set("net.polls_per_item", ratio(static_cast<double>(poll_calls), items));
  res.set("net.push_rtt_us", median(push_rtt));
  res.set("net.poll_rtt_us", median(poll_rtt));
  res.set("net.short_ack_ratio", ratio(static_cast<double>(push_short),
                                       static_cast<double>(push_calls)));
  res.set("net.server_frames_per_item", d_frames / wi);
  res.set("net.push_timeouts_per_item", d_timeouts / wi);
  res.set("qos.interactive_dequeue_share", ratio(d_inter, d_inter + d_batch));
  res.set("qos.interactive_queue_depth_max", inter_depth);
  res.set("qos.batch_queue_depth_max", batch_depth);
  res.set("trace.overhead_frac", ratio(untraced_rate - traced_rate, untraced_rate));
  res.set("items_per_s_1w", median(pick(false, false, rate)));
  res.set("rtt_p99_us",
          median(pick(true, false,
                      [](const Episode& e) { return quantile(e.conns[0].rtt_us, 0.99); })));

  const MicroCosts micro = measure_micro(opt.tiny);
  add_micro_metrics(res, micro);
  // Frame payload bytes per item: one PushBatch value plus one Deliver item
  // (seq + value), at the closed loop's batch size.
  net::PushBatchFrame pf;
  net::DeliverFrame df;
  for (std::uint32_t i = 0; i < kBatch; ++i) {
    pf.values.emplace_back(item_value(opt.seed, 2, i));
    df.items.push_back({i, runtime::Value(item_value(opt.seed, 2, i))});
  }
  net::Writer pw, dw;
  net::encode(pf, pw);
  net::encode(df, dw);
  OpCounts ops;
  ops.firings = firings_per_item;
  ops.data_msgs = ratio(data, items);
  ops.dummies = ratio(dummies, items);
  ops.port_msgs = 1.0 + ratio(delivered, items);
  ops.futex_parks = d_futex / wi;
  ops.wire_bytes =
      static_cast<double>(pw.bytes().size() + dw.bytes().size()) / kBatch;
  add_accounting(res, micro, ops, untraced_cpu, "wire_mix");
  // No barrier snapshots on the wire path.
  res.not_exercised(
      {"ckpt.barrier_ms_p50", "ckpt.barrier_ms_max", "ckpt.snapshot_bytes"});
  if (!opt.trace_out.empty() && !recorder.write_chrome(opt.trace_out, 50000))
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
  return res;
}

}  // namespace perfbench
