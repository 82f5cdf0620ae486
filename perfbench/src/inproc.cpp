// ladder_pass and filter_dense: closed-loop in-process drivers over
// exec::Session / exec::Stream ports on a shared PoolExecutor, checked
// against a Sim run of the same inputs.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/ckpt/snapshot.h"
#include "src/core/compile_cache.h"
#include "src/exec/session.h"
#include "src/graph/io.h"
#include "src/runtime/pool_executor.h"
#include "src/support/prng.h"
#include "src/workloads/filters.h"
#include "src/workloads/random_ladder.h"
#include "src/workloads/topologies.h"
#include "reference.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sdaf;
using KernelFactory =
    std::function<std::vector<std::shared_ptr<runtime::Kernel>>(
        const StreamGraph&)>;

constexpr auto kPushWait = std::chrono::milliseconds(1);
constexpr std::size_t kPollMax = 4096;
constexpr double kEpisodeTimeout_s = 60.0;

struct Workload {
  const char* name = "";
  StreamGraph graph;
  KernelFactory kernels;
  std::uint32_t batch = 1;
  std::uint64_t items = 0;            // per episode
  std::uint64_t window_start = 0;     // first item of the steady window
  std::size_t push_chunk = 1;         // values per push_batch_for call
  std::uint64_t snapshot_period = 0;  // items between barriers; 0 = none
};

exec::StreamSpec stream_spec(const Workload& w,
                             const core::CompileResult& compiled,
                             exec::Backend backend,
                             runtime::PoolExecutor* pool) {
  exec::StreamSpec spec;
  spec.run.backend = backend;
  spec.run.mode = runtime::DummyMode::Propagation;
  spec.run.apply(compiled);
  spec.run.batch = w.batch;
  spec.run.pool = pool;
  return spec;
}

std::uint64_t sum(const std::vector<std::uint64_t>& v) {
  std::uint64_t s = 0;
  for (const auto x : v) s += x;
  return s;
}

struct WorkerTotals {
  std::uint64_t steals = 0, steal_fails = 0, futex_parks = 0, wakes = 0;
};

WorkerTotals worker_totals(const exec::Stream& s) {
  WorkerTotals t;
  for (const auto& w : s.metrics().workers) {
    t.steals += w.steals;
    t.steal_fails += w.steal_fails;
    t.futex_parks += w.futex_parks;
    t.wakes += w.wakes;
  }
  return t;
}

enum class Kind { One, Many, ManyTraced };

struct Episode {
  Kind kind = Kind::Many;
  bool warmup = false;  // checked for correctness, left out of the figures
  bool ok = true;
  std::string error;
  double rate = 0.0;            // items/s over the steady window
  double cpu_us_per_item = 0.0;  // process CPU over the steady window
  std::size_t latency_samples = 0;  // push -> poll, items in the window
  double rtt_p50_us = 0.0, rtt_p99_us = 0.0;
  OutputDigest digest;
  bool completed = false;   // RunReport verdict
  bool traffic_ok = false;  // RunReport per-edge counts equal the reference's
  double open_s = 0.0, finish_s = 0.0;
  std::uint64_t push_calls = 0, push_short = 0, poll_calls = 0, poll_empty = 0;
  std::vector<double> barrier_ms;
  std::vector<double> snapshot_bytes;
  WorkerTotals workers;  // delta over the episode
};

// The driver's per-episode scratch, allocated and touched once before the
// resident-set baseline is read, so peak_rss_mb counts the system's memory
// and not the benchmark's bookkeeping.
struct EpisodeBuffers {
  std::vector<double> push_time;   // per item
  std::vector<double> latency_us;  // items in the steady window
  std::vector<exec::OutputPort::Item> items;

  explicit EpisodeBuffers(const Workload& w)
      : push_time(w.items, 0.0),
        latency_us(w.items - w.window_start, 0.0),
        items(kPollMax) {}
};

// One closed-loop stream of w.items inputs: push_batch_for (parks on a full
// feed for at most kPushWait) interleaved with poll_batch, barriers every
// snapshot_period items, then close, drain and finish. The steady window
// runs from the push that crosses window_start (past the pipeline fill) to
// the last push.
Episode run_episode(const Workload& w, exec::Session& session,
                    core::CompileCache& cache, runtime::PoolExecutor& pool,
                    Kind kind, std::uint64_t seed, const Reference& ref,
                    EpisodeBuffers& buf, Lane* lane) {
  Episode ep;
  ep.kind = kind;
  Scope episode_span(lane, "episode");
  const double t_open = now_s();
  std::optional<exec::Stream> stream;
  {
    Scope s(lane, "open");
    std::shared_ptr<const core::CompileResult> compiled;
    {
      Scope c(lane, "compile");
      compiled = cache.get_or_compile(w.graph);
    }
    stream.emplace(session.open(
        stream_spec(w, *compiled, exec::Backend::Pooled, &pool)));
  }
  ep.open_s = now_s() - t_open;
  const WorkerTotals before = worker_totals(*stream);

  exec::InputPort& in = stream->input(0);
  exec::OutputPort& out = stream->output(0);
  const std::uint64_t n = w.items;
  const std::uint64_t window_start = w.window_start;
  std::vector<double>& push_time = buf.push_time;
  std::vector<double>& latency_us = buf.latency_us;
  std::vector<exec::OutputPort::Item>& items = buf.items;
  latency_us.clear();
  double w0 = 0.0, w1 = 0.0, cpu0 = 0.0, cpu1 = 0.0;
  std::uint64_t pushed = 0;
  std::uint64_t next_snapshot = w.snapshot_period;
  bool snapshot_pending = false;
  double snapshot_t0 = 0.0;
  const double t_drive = now_s();
  const double deadline = t_drive + kEpisodeTimeout_s;

  auto poll_once = [&] {
    items.clear();
    std::size_t got = 0;
    {
      Scope s(lane, "poll_batch");
      got = out.poll_batch(&items, kPollMax);
    }
    ++ep.poll_calls;
    if (got == 0) {
      ++ep.poll_empty;
      return got;
    }
    const double t = now_s();
    for (const auto& it : items) {
      ep.digest.add(it.seq, it.value.as<std::int64_t>());
      if (it.seq >= window_start && it.seq < n)
        latency_us.push_back((t - push_time[it.seq]) * 1e6);
    }
    return got;
  };
  auto poll_snapshot = [&] {
    std::optional<ckpt::StreamSnapshot> snap;
    {
      Scope s(lane, "snapshot_poll");
      snap = stream->snapshot_poll();
    }
    if (!snap) return;
    snapshot_pending = false;
    ep.barrier_ms.push_back((now_s() - snapshot_t0) * 1e3);
    if (lane != nullptr)
      ep.snapshot_bytes.push_back(
          static_cast<double>(ckpt::serialize(*snap).size()));
  };

  {
    Scope drive(lane, "drive");
    while (pushed < n) {
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(w.push_chunk, n - pushed));
      auto chunk = seeded_values(seed, 0, pushed, want);
      std::size_t acc = 0;
      {
        Scope s(lane, "push_batch_for");
        acc = in.push_batch_for(std::move(chunk), kPushWait);
      }
      const double t1 = now_s();
      ++ep.push_calls;
      if (acc < want) ++ep.push_short;
      for (std::size_t i = 0; i < acc; ++i) push_time[pushed + i] = t1;
      if (pushed < window_start && pushed + acc >= window_start) {
        w0 = t1;
        cpu0 = process_cpu_s();
      }
      pushed += acc;
      if (acc == 0 && t1 > deadline) {
        ep.ok = false;
        ep.error = "push made no progress before the deadline";
        break;
      }
      if (w.snapshot_period != 0) {
        if (snapshot_pending) poll_snapshot();
        if (!snapshot_pending && pushed >= next_snapshot) {
          Scope s(lane, "snapshot_begin");
          snapshot_pending = stream->snapshot_begin();
          snapshot_t0 = now_s();
          next_snapshot += w.snapshot_period;
        }
      }
      poll_once();
    }
    w1 = now_s();
    cpu1 = process_cpu_s();
    while (snapshot_pending && now_s() < deadline) {
      poll_snapshot();
      poll_once();
    }
    if (snapshot_pending) {
      ep.ok = false;
      ep.error = "barrier snapshot did not complete";
    }
    in.close();
    while (!out.ended() && now_s() < deadline) {
      if (poll_once() > 0) continue;
      std::optional<exec::OutputPort::Item> it;
      {
        Scope s(lane, "next");
        it = out.next();
      }
      if (!it) break;
      ep.digest.add(it->seq, it->value.as<std::int64_t>());
      if (it->seq >= window_start)
        latency_us.push_back((now_s() - push_time[it->seq]) * 1e6);
    }
  }
  const WorkerTotals after = worker_totals(*stream);
  ep.workers = {after.steals - before.steals,
                after.steal_fails - before.steal_fails,
                after.futex_parks - before.futex_parks,
                after.wakes - before.wakes};
  const double t_fin = now_s();
  exec::RunReport report;
  {
    Scope s(lane, "finish");
    report = stream->finish();
  }
  ep.finish_s = now_s() - t_fin;
  // Compared here, past the steady window, so no episode's per-edge report
  // outlives it and the driver's memory stays flat across episodes.
  ep.completed = report.completed;
  ep.traffic_ok = same_traffic(report, ref.report);
  const double window_items = static_cast<double>(n - window_start);
  if (w1 > w0 && window_items > 0) {
    ep.rate = window_items / (w1 - w0);
    ep.cpu_us_per_item = (cpu1 - cpu0) * 1e6 / window_items;
  }
  ep.latency_samples = latency_us.size();
  ep.rtt_p50_us = quantile(latency_us, 0.50);
  ep.rtt_p99_us = quantile(latency_us, 0.99);
  return ep;
}

// Set-up as a user pays it: graph text -> parse -> cold compile through a
// fresh CompileCache -> Session -> pool start -> open -> first accepted
// push. The trial stream is then finished and torn down (untimed).
struct SetupTrial {
  double setup_s = 0.0;
  double compile_s = 0.0;
  bool ok = false;
};

SetupTrial setup_trial(const Workload& w, std::size_t workers,
                       std::uint64_t seed, Lane* lane) {
  SetupTrial t;
  const std::string text = to_text(w.graph);
  Scope setup(lane, "setup");
  const double t0 = now_s();
  const StreamGraph g = from_text(text);
  core::CompileCache cache;
  std::shared_ptr<const core::CompileResult> compiled;
  {
    Scope s(lane, "compile");
    const double tc = now_s();
    compiled = cache.get_or_compile(g);
    t.compile_s = now_s() - tc;
  }
  std::optional<runtime::PoolExecutor> pool;
  {
    Scope s(lane, "pool_start");
    pool.emplace(workers);
  }
  exec::Session session(g, w.kernels(g));
  std::optional<exec::Stream> stream;
  {
    Scope s(lane, "open");
    stream.emplace(
        session.open(stream_spec(w, *compiled, exec::Backend::Pooled, &*pool)));
  }
  std::size_t acc = 0;
  {
    Scope s(lane, "first_push");
    acc = stream->input(0).push_batch_for(seeded_values(seed, 0, 0, 1),
                                          std::chrono::seconds(10));
  }
  t.setup_s = now_s() - t0;
  stream->input(0).close();
  while (!stream->output(0).ended() && stream->output(0).next().has_value()) {
  }
  const exec::RunReport r = stream->finish();
  t.ok = acc == 1 && r.completed && compiled->ok;
  return t;
}

Result run_inproc(const Workload& w, const Options& opt) {
  Result res;
  Recorder recorder(std::string(w.name) + "-" + std::to_string(opt.seed));
  Lane* lane = opt.trace ? recorder.lane() : nullptr;

  // ---- the Sim reference, before anything is measured ----
  core::CompileCache cache;
  const auto compiled = cache.get_or_compile(w.graph);
  res.check(compiled->ok, std::string(w.name) + ": compile");
  Reference ref = sim_reference(
      w.graph, w.kernels(w.graph),
      stream_spec(w, *compiled, exec::Backend::Sim, nullptr), opt.seed, 0,
      w.items);
  if (opt.perturb_reference) ref.digest.hash ^= 1;
  res.check(ref.report.completed && ref.digest.count > 0,
            std::string(w.name) + ": Sim reference completed");

  // The resident-set baseline: the driver's buffers are in it, and the
  // pages the reference run freed are handed back first so that the
  // measured streams cannot reuse them unseen.
  EpisodeBuffers buffers(w);
  malloc_trim(0);
  const double rss_base = rss_mb();

  // ---- steady state ----
  runtime::PoolExecutor pool_many(opt.workers);
  std::optional<runtime::PoolExecutor> pool_one;  // the traced run's baseline
  if (opt.trace) pool_one.emplace(1);
  exec::Session session(w.graph, w.kernels(w.graph));

  // Untraced runs measure W workers. The traced run alternates W untraced,
  // W traced (tracing overhead) and the 1-worker baseline. Round 0 warms
  // caches, page tables and CPU clocks and is only checked for correctness.
  const std::vector<Kind> cycle =
      opt.trace ? std::vector<Kind>{Kind::One, Kind::Many, Kind::ManyTraced}
                : std::vector<Kind>{Kind::Many};
  const int rounds_min = opt.tiny ? 1 : 4;
  std::vector<Episode> episodes;
  const double t_start = now_s();
  for (int round = 0;; ++round) {
    const bool enough = now_s() - t_start >= opt.seconds;
    if (enough && round >= rounds_min) break;
    for (std::size_t k = 0; k < cycle.size(); ++k) {
      // Rotate the order every round, so drift hits every kind equally.
      const Kind kind = cycle[(k + static_cast<std::size_t>(round)) % cycle.size()];
      runtime::PoolExecutor& pool = kind == Kind::One ? *pool_one : pool_many;
      const bool warmup = round == 0 && !opt.tiny;
      episodes.push_back(run_episode(
          w, session, cache, pool, kind, opt.seed, ref, buffers,
          kind == Kind::ManyTraced && !warmup ? lane : nullptr));
      episodes.back().warmup = warmup;
    }
  }
  // High-water resident set above the baseline: the library's compiles,
  // pools, rings and streams.
  const double peak_rss = peak_rss_mb() - rss_base;

  // ---- correctness: every episode against the Sim reference ----
  for (const Episode& ep : episodes) {
    res.check(ep.ok, std::string(w.name) + ": episode ran (" + ep.error + ")");
    res.check(ep.completed, std::string(w.name) + ": completed verdict");
    res.check(ep.digest == ref.digest,
              std::string(w.name) + ": sink output equals Sim reference");
    res.check(ep.traffic_ok,
              std::string(w.name) + ": per-edge data/dummy counts equal Sim");
    res.count_ok(ep.push_calls + 2);  // pushes + open
  }

  // ---- set-up trials, after the resident-set peak is read ----
  std::vector<double> setups, compiles;
  const double t_setup = now_s();
  while (another_setup_trial(setups.size(), t_setup, opt.tiny)) {
    const SetupTrial t = setup_trial(w, opt.workers, opt.seed, lane);
    res.check(t.ok, std::string(w.name) + ": set-up trial stream");
    setups.push_back(t.setup_s);
    compiles.push_back(t.compile_s);
  }

  auto pick = [&](Kind kind, auto field) {
    std::vector<double> v;
    for (const Episode& ep : episodes)
      if (ep.kind == kind && !ep.warmup) v.push_back(field(ep));
    return v;
  };
  const auto rate = [](const Episode& e) { return e.rate; };
  const double items = static_cast<double>(w.items);
  const double dummies_per_item =
      static_cast<double>(ref.report.total_dummies()) / items;

  if (!opt.trace) {
    res.set("setup_s", median(setups));
    res.set("items_per_s", median(pick(Kind::Many, rate)));
    res.set("cpu_us_per_item",
            median(pick(Kind::Many,
                        [](const Episode& e) { return e.cpu_us_per_item; })));
    // Per-episode percentiles (thousands of samples each), then the
    // median across episodes.
    res.set("rtt_p50_us",
            median(pick(Kind::Many, [](const Episode& e) { return e.rtt_p50_us; })));
    res.set("peak_rss_mb", peak_rss);
    std::fprintf(stderr,
                 "perfbench: %s setup trials=%zu episodes=%zu items/episode=%llu "
                 "dummies_per_item=%.6f\n",
                 w.name, setups.size(), episodes.size(),
                 static_cast<unsigned long long>(w.items), dummies_per_item);
    for (const Episode& ep : episodes)
      std::fprintf(stderr,
                   "perfbench:   episode %s%s items/s=%.0f cpu_us/item=%.3f "
                   "rtt p50/p99 us=%.0f/%.0f (%zu samples)\n",
                   ep.kind == Kind::One ? "1w" : "W ",
                   ep.warmup ? " warm-up" : "", ep.rate, ep.cpu_us_per_item,
                   ep.rtt_p50_us, ep.rtt_p99_us, ep.latency_samples);
    return res;
  }

  // ---- per-layer metrics (traced run) ----
  const auto spans = recorder.totals();
  auto span_s = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_s;
  };
  std::uint64_t push_calls = 0, push_short = 0, poll_calls = 0, poll_empty = 0;
  WorkerTotals wt;
  std::vector<double> barrier_ms, snap_bytes, cpu_traced;
  for (const Episode& ep : episodes) {
    if (ep.kind != Kind::ManyTraced || ep.warmup) continue;
    push_calls += ep.push_calls;
    push_short += ep.push_short;
    poll_calls += ep.poll_calls;
    poll_empty += ep.poll_empty;
    wt.steals += ep.workers.steals;
    wt.steal_fails += ep.workers.steal_fails;
    wt.futex_parks += ep.workers.futex_parks;
    wt.wakes += ep.workers.wakes;
    barrier_ms.insert(barrier_ms.end(), ep.barrier_ms.begin(), ep.barrier_ms.end());
    snap_bytes.insert(snap_bytes.end(), ep.snapshot_bytes.begin(),
                      ep.snapshot_bytes.end());
  }
  const double traced_items =
      items * static_cast<double>(pick(Kind::ManyTraced, rate).size());
  const auto cstats = cache.stats();
  const double firings_per_item =
      static_cast<double>(sum(ref.report.fires)) / items;
  const double untraced_cpu = median(
      pick(Kind::Many, [](const Episode& e) { return e.cpu_us_per_item; }));
  const double untraced_rate = median(pick(Kind::Many, rate));
  const double traced_rate = median(pick(Kind::ManyTraced, rate));

  res.set("core.compile_s", median(compiles));
  res.set("core.cache_hit_ratio",
          static_cast<double>(cstats.hits) /
              static_cast<double>(std::max<std::uint64_t>(
                  1, cstats.hits + cstats.misses)));
  res.set("exec.open_s",
          median(pick(Kind::ManyTraced, [](const Episode& e) { return e.open_s; })));
  res.set("exec.push_blocked_frac", span_s("push_batch_for") / span_s("drive"));
  res.set("exec.push_short_ratio",
          static_cast<double>(push_short) /
              static_cast<double>(std::max<std::uint64_t>(1, push_calls)));
  res.set("exec.poll_empty_ratio",
          static_cast<double>(poll_empty) /
              static_cast<double>(std::max<std::uint64_t>(1, poll_calls)));
  res.set("exec.finish_s",
          median(pick(Kind::ManyTraced,
                      [](const Episode& e) { return e.finish_s; })));
  res.set("items_per_s_1w", median(pick(Kind::One, rate)));
  res.set("runtime.firings_per_item", firings_per_item);
  res.set("runtime.cpu_ns_per_firing", untraced_cpu * 1e3 / firings_per_item);
  res.set("runtime.steals_per_item", static_cast<double>(wt.steals) / traced_items);
  res.set("runtime.steal_fail_ratio",
          static_cast<double>(wt.steal_fails) /
              static_cast<double>(std::max<std::uint64_t>(
                  1, wt.steals + wt.steal_fails)));
  res.set("runtime.futex_parks_per_item",
          static_cast<double>(wt.futex_parks) / traced_items);
  res.set("runtime.wakes_per_item", static_cast<double>(wt.wakes) / traced_items);
  res.set("dummies_per_item", dummies_per_item);
  if (w.snapshot_period != 0) {
    res.set("ckpt.barrier_ms_p50", quantile(barrier_ms, 0.5));
    res.set("ckpt.barrier_ms_max", quantile(barrier_ms, 1.0));
    res.set("ckpt.snapshot_bytes", median(snap_bytes));
  } else {
    res.not_exercised(
        {"ckpt.barrier_ms_p50", "ckpt.barrier_ms_max", "ckpt.snapshot_bytes"});
  }
  res.set("trace.overhead_frac",
          untraced_rate > 0 ? (untraced_rate - traced_rate) / untraced_rate : 0.0);
  res.set("rtt_p99_us",
          median(pick(Kind::Many, [](const Episode& e) { return e.rtt_p99_us; })));

  const MicroCosts micro = measure_micro(opt.tiny);
  add_micro_metrics(res, micro);
  OpCounts ops;
  ops.firings = firings_per_item;
  ops.data_msgs = static_cast<double>(ref.report.total_data()) / items;
  ops.dummies = dummies_per_item;
  ops.port_msgs = 1.0 + static_cast<double>(ref.digest.count) / items;
  ops.futex_parks = static_cast<double>(wt.futex_parks) / traced_items;
  add_accounting(res, micro, ops, untraced_cpu, w.name);
  // No client, daemon or DRR lanes in-process.
  res.not_exercised({"net.polls_per_item", "net.push_rtt_us", "net.poll_rtt_us",
                     "net.short_ack_ratio", "net.server_frames_per_item",
                     "net.push_timeouts_per_item", "qos.interactive_dequeue_share",
                     "qos.interactive_queue_depth_max",
                     "qos.batch_queue_depth_max"});

  if (!opt.trace_out.empty() && !recorder.write_chrome(opt.trace_out, 50000))
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
  return res;
}

}  // namespace

Result run_ladder_pass(const Options& opt) {
  Workload w;
  w.name = "ladder_pass";
  // ladder_of(1000) from bench/bench_pool_scaling.cpp, generator seed
  // included: ~1000 interior nodes plus source and sink. The topology is
  // fixed and --seed picks the pushed values, because buffer capacity along
  // the ladder sets how many items are in flight, so a per-seed shape would
  // move latency and set-up time with the seed rather than with the code.
  const std::size_t nodes = opt.tiny ? 40 : 1000;
  Prng rng(0xBEEF ^ nodes);
  workloads::RandomLadderOptions lo;
  lo.rungs = nodes / 4;
  lo.left_interior = nodes / 2;
  lo.right_interior = nodes / 2;
  lo.component_edges = 1;
  lo.max_buffer = 4;
  w.graph = workloads::random_ladder(rng, lo);
  w.kernels = [](const StreamGraph& g) {
    return workloads::passthrough_kernels(g);
  };
  w.batch = 1;
  // ~730 items are in flight once the pipeline is full; the window starts
  // well past that.
  w.items = opt.tiny ? 200 : 2400;
  w.window_start = w.items * 3 / 8;
  w.push_chunk = 16;
  return run_inproc(w, opt);
}

Result run_filter_dense(const Options& opt) {
  Workload w;
  w.name = "filter_dense";
  w.graph = workloads::continuation_ladder(16, 64, 1);
  const std::uint64_t seed = opt.seed;
  w.kernels = [seed](const StreamGraph& g) {
    return workloads::relay_kernels(g, 0.1, seed);
  };
  w.batch = 64;
  // ~1% of items reach the sink: 2^18 items leave ~2000 latency samples in
  // the window, so each episode's p99 has ~20 samples beyond it.
  w.items = opt.tiny ? 20000 : (1u << 18);
  w.window_start = w.items / 5;
  w.push_chunk = 64;
  w.snapshot_period = w.items / 8;
  return run_inproc(w, opt);
}

}  // namespace perfbench
