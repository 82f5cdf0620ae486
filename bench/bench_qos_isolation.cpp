// Multi-tenant QoS isolation: what a latency-sensitive tenant's push ->
// poll round trip costs while a batch tenant saturates the same shared
// pool, and how much of that interference the qos machinery (weighted
// deficit-round-robin injector lanes + per-tenant credit windows) removes.
//
// Recorded in BENCH_qos.json by tools/bench.sh (fixed benchmark names =
// the schema). Three interactive configurations, same counters each
// (p50_ns / p99_ns over every round trip, batch_items pushed by the
// co-tenant while they were taken, and the host's hardware_concurrency):
//   - BM_QosInteractive_Solo: the interactive tenant alone on the shared
//     pool. The baseline every other number is compared against.
//   - BM_QosInteractive_SharedDRR: a batch tenant saturates the pool;
//     DRR on (interactive weight 4 vs batch 1) and the batch tenant runs
//     under a 64-item credit window. The figure of merit: p99 here should
//     stay within a small multiple of solo p99 (tools/bench.sh prints the
//     ratio; the acceptance budget is <= 5x on a multi-core host).
//   - BM_QosInteractive_SharedUnfair: same co-tenant, fair_injector off
//     and no credit window -- the legacy single-lane injector. This is
//     the interference the subsystem exists to remove; expect p99 to
//     degrade with the batch tenant's queue depth.
// Plus the bandwidth-share check:
//   - BM_QosWeightedShare: two identical batch tenants, weights 4 and 1,
//     pushing concurrently through the DRR injector; counters heavy_items
//     / light_items and share_ratio (heavy / light items accepted --
//     biased toward the heavy tenant when injector bandwidth is the
//     bottleneck, and an exact fairness audit lives in
//     PoolExecutor::tenant_metrics() rather than this wall-clock number).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/compile.h"
#include "src/exec/session.h"
#include "src/exec/stream.h"
#include "src/qos/credit.h"
#include "src/runtime/pool_executor.h"
#include "src/support/contracts.h"
#include "src/support/timer.h"
#include "src/workloads/filters.h"
#include "src/workloads/topologies.h"

namespace {

using namespace sdaf;

constexpr std::uint64_t kRoundTrips = 1500;

exec::StreamSpec tenant_spec(const core::CompileResult& compiled,
                             runtime::PoolExecutor& pool,
                             const std::string& tenant, double weight) {
  exec::StreamSpec spec;
  spec.run.backend = exec::Backend::Pooled;
  spec.run.mode = runtime::DummyMode::Propagation;
  spec.run.apply(compiled);
  spec.run.pool = &pool;
  spec.run.tenant = tenant;
  spec.run.tenant_weight = weight;
  spec.metrics = false;
  return spec;
}

// A batch tenant that pushes as fast as backpressure (channel space and,
// when its spec carries a credit gauge, the tenant window) allows, with a
// drainer thread on the tap, until asked to stop.
struct BatchTenant {
  exec::Session session;
  exec::Stream stream;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> pushed{0};
  std::thread pusher;
  std::thread drainer;

  BatchTenant(const StreamGraph& g, exec::StreamSpec spec)
      : session(g, workloads::passthrough_kernels(g)),
        stream(session.open(std::move(spec))) {}

  void start() {
    pusher = std::thread([this] {
      using namespace std::chrono_literals;
      exec::InputPort& in = stream.input(0);
      while (!stop.load(std::memory_order_relaxed)) {
        // Deadline-bounded so a raised stop flag is honored promptly even
        // when the credit window or the feed is full.
        if (in.try_push_for(runtime::Value{}, 5ms) ==
            exec::PortPushOutcome::Ok)
          pushed.fetch_add(1, std::memory_order_relaxed);
      }
      in.close();
    });
    drainer = std::thread([this] {
      exec::OutputPort& out = stream.output(0);
      while (out.next().has_value()) {
      }
    });
  }

  std::uint64_t finish() {
    stop.store(true, std::memory_order_relaxed);
    pusher.join();
    drainer.join();
    const auto report = stream.finish();
    SDAF_ASSERT(report.completed);
    return pushed.load(std::memory_order_relaxed);
  }
};

void report_percentiles(benchmark::State& state,
                        std::vector<double>& samples_ns) {
  SDAF_ASSERT(!samples_ns.empty());
  std::sort(samples_ns.begin(), samples_ns.end());
  const auto at = [&](double q) {
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(samples_ns.size() - 1));
    return samples_ns[idx];
  };
  state.counters["p50_ns"] = at(0.50);
  state.counters["p99_ns"] = at(0.99);
}

// One interactive round trip at a time against an optionally saturated
// pool. `with_batch` runs the co-tenant; `fair` + `credit_limit` pick the
// qos configuration under test.
void run_interactive(benchmark::State& state, bool with_batch, bool fair,
                     std::uint64_t credit_limit) {
  const StreamGraph g = workloads::continuation_ladder(4, 64, 1);
  const auto compiled = core::compile(g);
  SDAF_ASSERT(compiled.ok);
  std::vector<double> samples_ns;
  samples_ns.reserve(kRoundTrips);
  std::uint64_t batch_items = 0;
  for (auto _ : state) {
    runtime::PoolExecutor::Options popt;
    popt.workers = 2;
    popt.fair_injector = fair;
    runtime::PoolExecutor pool(popt);
    qos::CreditGauge batch_credits(credit_limit);  // limit 0 = unlimited

    std::unique_ptr<BatchTenant> batch;
    if (with_batch) {
      exec::StreamSpec bs = tenant_spec(compiled, pool, "batch", 1.0);
      if (credit_limit > 0) bs.run.credits = &batch_credits;
      batch = std::make_unique<BatchTenant>(g, std::move(bs));
      batch->start();
    }

    exec::Session session(g, workloads::passthrough_kernels(g));
    exec::Stream stream =
        session.open(tenant_spec(compiled, pool, "interactive", 4.0));
    exec::InputPort& in = stream.input(0);
    exec::OutputPort& out = stream.output(0);
    for (std::uint64_t i = 0; i < kRoundTrips; ++i) {
      Stopwatch rtt;
      const bool ok = in.push();
      SDAF_ASSERT(ok);
      auto item = out.next();
      SDAF_ASSERT(item.has_value());
      samples_ns.push_back(rtt.elapsed_seconds() * 1e9);
      benchmark::DoNotOptimize(item->seq);
    }
    in.close();
    const auto report = stream.finish();
    SDAF_ASSERT(report.completed);
    if (batch != nullptr) batch_items += batch->finish();
  }
  report_percentiles(state, samples_ns);
  state.counters["batch_items"] = static_cast<double>(batch_items);
  // tools/bench.sh reads this to tell evidence (>= 4 hardware threads)
  // from a host that cannot demonstrate isolation.
  state.counters["hardware_concurrency"] =
      static_cast<double>(std::thread::hardware_concurrency());
}

void BM_QosInteractive_Solo(benchmark::State& state) {
  run_interactive(state, /*with_batch=*/false, /*fair=*/true,
                  /*credit_limit=*/0);
}
BENCHMARK(BM_QosInteractive_Solo)->Iterations(3)->Unit(benchmark::kMillisecond);

void BM_QosInteractive_SharedDRR(benchmark::State& state) {
  run_interactive(state, /*with_batch=*/true, /*fair=*/true,
                  /*credit_limit=*/64);
}
BENCHMARK(BM_QosInteractive_SharedDRR)
    ->Iterations(3)->Unit(benchmark::kMillisecond);

void BM_QosInteractive_SharedUnfair(benchmark::State& state) {
  run_interactive(state, /*with_batch=*/true, /*fair=*/false,
                  /*credit_limit=*/0);
}
BENCHMARK(BM_QosInteractive_SharedUnfair)
    ->Iterations(3)->Unit(benchmark::kMillisecond);

// Two identical saturating tenants at weights 4:1 on the DRR injector for
// a fixed wall-time window; the accepted-item split is the coarse share
// check (the exact per-lane grant accounting is tenant_metrics()).
void BM_QosWeightedShare(benchmark::State& state) {
  const StreamGraph g = workloads::continuation_ladder(4, 64, 1);
  const auto compiled = core::compile(g);
  SDAF_ASSERT(compiled.ok);
  std::uint64_t heavy_items = 0;
  std::uint64_t light_items = 0;
  for (auto _ : state) {
    runtime::PoolExecutor::Options popt;
    popt.workers = 2;
    popt.fair_injector = true;
    runtime::PoolExecutor pool(popt);

    BatchTenant heavy(g, tenant_spec(compiled, pool, "heavy", 4.0));
    BatchTenant light(g, tenant_spec(compiled, pool, "light", 1.0));
    heavy.start();
    light.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    heavy_items += heavy.finish();
    light_items += light.finish();
  }
  state.counters["heavy_items"] = static_cast<double>(heavy_items);
  state.counters["light_items"] = static_cast<double>(light_items);
  state.counters["share_ratio"] =
      light_items > 0
          ? static_cast<double>(heavy_items) / static_cast<double>(light_items)
          : 0.0;
}
BENCHMARK(BM_QosWeightedShare)->Iterations(2)->Unit(benchmark::kMillisecond);

}  // namespace
