#include "src/runtime/pool_executor.h"

#include <gtest/gtest.h>

#include "src/core/compile.h"
#include "src/exec/session.h"
#include "src/exec/stream.h"
#include "src/support/prng.h"
#include "src/workloads/filters.h"
#include "src/workloads/random_ladder.h"
#include "src/workloads/topologies.h"
#include "tests/harness/stress_harness.h"

namespace sdaf::runtime {
namespace {

// The differential harness: one workload through the deterministic
// simulator and the pooled scheduler must produce bit-identical sink data,
// per-edge traffic, and the same completion/deadlock verdict -- they
// implement one semantics.
struct ParityCase {
  const StreamGraph& graph;
  DummyMode mode;
  std::vector<std::int64_t> intervals;
  std::vector<std::uint8_t> forward_on_filter;
  std::uint64_t num_inputs = 0;
  double pass_rate = 1.0;
  std::uint64_t seed = 0;
};

std::vector<std::shared_ptr<Kernel>> case_kernels(const ParityCase& c) {
  return workloads::relay_kernels(c.graph, c.pass_rate, c.seed);
}

exec::RunSpec run_spec(const ParityCase& c) {
  exec::RunSpec opt;
  opt.mode = c.mode;
  opt.intervals = c.intervals;
  opt.forward_on_filter = c.forward_on_filter;
  opt.num_inputs = c.num_inputs;
  return opt;
}

exec::RunReport run_sim(const ParityCase& c) {
  exec::Session s(c.graph, case_kernels(c));
  return s.run(run_spec(c));
}

// A batch run on the test's own pool, through the facade.
exec::RunReport run_on(PoolExecutor& pool, const StreamGraph& g,
                       std::vector<std::shared_ptr<Kernel>> kernels,
                       exec::RunSpec spec) {
  spec.backend = exec::Backend::Pooled;
  spec.pool = &pool;
  exec::Session session(g, std::move(kernels));
  return session.run(spec);
}

void expect_parity(const exec::RunReport& expected, const exec::RunReport& actual,
                   const std::string& label) {
  ASSERT_EQ(expected.deadlocked, actual.deadlocked) << label;
  ASSERT_EQ(expected.completed, actual.completed) << label;
  ASSERT_EQ(expected.sink_data, actual.sink_data) << label;
  ASSERT_EQ(expected.fires, actual.fires) << label;
  ASSERT_EQ(expected.edges.size(), actual.edges.size()) << label;
  for (std::size_t e = 0; e < expected.edges.size(); ++e) {
    EXPECT_EQ(expected.edges[e].data, actual.edges[e].data)
        << label << " edge " << e;
    EXPECT_EQ(expected.edges[e].dummies, actual.edges[e].dummies)
        << label << " edge " << e;
  }
}

void check_pool_parity(PoolExecutor& pool, const ParityCase& c,
                       const std::string& label) {
  const auto expected = run_sim(c);
  const auto pooled = run_on(pool, c.graph, case_kernels(c), run_spec(c));
  expect_parity(expected, pooled, label + " [pool]");
}

TEST(PoolExecutor, PipelineDeliversEverything) {
  const StreamGraph g = workloads::pipeline(4, 2);
  PoolExecutor pool(2);
  exec::RunSpec opt;
  opt.mode = DummyMode::None;
  opt.num_inputs = 100;
  const auto r = run_on(pool, g, workloads::passthrough_kernels(g), opt);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.deadlocked);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_EQ(r.edges[e].data, 100u);
    EXPECT_EQ(r.edges[e].dummies, 0u);
  }
  EXPECT_EQ(r.sink_data.back(), 100u);
}

TEST(PoolExecutor, Fig2DeadlockVerdictIsExact) {
  // Fig. 2's triangle with the adversarial filter and no dummies: the
  // simulator proves deadlock; the pool's quiescence check must agree
  // without any watchdog timing.
  const StreamGraph g = workloads::fig2_triangle(2, 2, 2);
  auto kernels = [&] {
    std::vector<std::shared_ptr<Kernel>> k;
    k.push_back(std::make_shared<RelayKernel>(
        workloads::adversarial_prefix_filter(1, 100)));
    k.push_back(pass_through_kernel());
    k.push_back(pass_through_kernel());
    return k;
  };
  exec::Session s(g, kernels());
  exec::RunSpec sopt;
  sopt.mode = DummyMode::None;
  sopt.num_inputs = 100;
  const auto expected = s.run(sopt);
  ASSERT_TRUE(expected.deadlocked);

  PoolExecutor pool(2);
  exec::RunSpec opt;
  opt.mode = DummyMode::None;
  opt.num_inputs = 100;
  const auto r = run_on(pool, g, kernels(), opt);
  EXPECT_TRUE(r.deadlocked);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(expected.sink_data, r.sink_data);
}

TEST(PoolExecutor, Fig2SafeWithCompiledIntervalsBothModes) {
  const StreamGraph g = workloads::fig2_triangle(2, 2, 2);
  PoolExecutor pool(2);
  for (const auto algorithm :
       {core::Algorithm::Propagation, core::Algorithm::NonPropagation}) {
    core::CompileOptions copt;
    copt.algorithm = algorithm;
    const auto compiled = core::compile(g, copt);
    ASSERT_TRUE(compiled.ok);
    ParityCase c{g,
                 algorithm == core::Algorithm::Propagation
                     ? DummyMode::Propagation
                     : DummyMode::NonPropagation,
                 compiled.integer_intervals(core::Rounding::Floor),
                 {},
                 /*num_inputs=*/100,
                 /*pass_rate=*/1.0,
                 /*seed=*/7};
    if (algorithm == core::Algorithm::Propagation)
      c.forward_on_filter = compiled.forward_on_filter();
    // The triangle needs the adversarial kernels, not relays: build inline.
    std::vector<std::shared_ptr<Kernel>> kernels;
    kernels.push_back(std::make_shared<RelayKernel>(
        workloads::adversarial_prefix_filter(1, 100)));
    kernels.push_back(pass_through_kernel());
    kernels.push_back(pass_through_kernel());
    const auto r = run_on(pool, g, std::move(kernels), run_spec(c));
    EXPECT_TRUE(r.completed) << to_string(algorithm);
    EXPECT_EQ(r.sink_data[2], 100u);
  }
}

TEST(PoolExecutor, RandomizedParityWithSimulatorBothModes) {
  // >= 100 randomized workloads x both dummy algorithms, bit-identical
  // against the simulator (the harness also runs a 1-worker pool leg).
  // SP-DAGs and SP-ladders, random filtering; ported onto the stress
  // harness, which prints a one-line repro on mismatch.
  Prng rng(0x9A417EE5);
  PoolExecutor pool(3);
  int cases = 0;
  for (int i = 0; i < 55; ++i) {
    for (const auto mode :
         {DummyMode::Propagation, DummyMode::NonPropagation}) {
      harness::CaseSpec spec;
      spec.topology =
          i < 30 ? harness::Topology::Sp : harness::Topology::Ladder;
      spec.seed = rng.next_u64();
      spec.num_inputs = 40 + rng.next_below(60);
      spec.pass_rate = 0.3 + 0.7 * rng.next_double();
      spec.mode = mode;
      spec.batch = 1;
      const auto failure = harness::run_differential(spec, &pool);
      ASSERT_FALSE(failure.has_value()) << *failure;
      ++cases;
    }
  }
  EXPECT_GE(cases, 100);
}

TEST(PoolExecutor, MultiTenantInstancesInterleave) {
  // Several concurrent instances of different graphs on one pool: each
  // result must match its own simulator run, untouched by co-tenants.
  const StreamGraph pipeline = workloads::pipeline(6, 2);
  const StreamGraph splitjoin = workloads::splitjoin(3, 2, 4);
  const StreamGraph triangle = workloads::fig2_triangle(2, 2, 2);
  const auto compiled = core::compile(triangle);
  ASSERT_TRUE(compiled.ok);

  PoolExecutor pool(3);
  struct Submitted {
    ParityCase c;
    exec::Session::Pending pending;
  };
  std::vector<Submitted> submitted;
  for (int round = 0; round < 4; ++round) {
    ParityCase p{pipeline, DummyMode::None, {}, {}, 120, 0.8,
                 0x50u + static_cast<std::uint64_t>(round)};
    ParityCase s{splitjoin, DummyMode::None, {}, {}, 90, 1.0,
                 0x60u + static_cast<std::uint64_t>(round)};
    ParityCase t{triangle,
                 DummyMode::Propagation,
                 compiled.integer_intervals(core::Rounding::Floor),
                 compiled.forward_on_filter(),
                 70,
                 0.5,
                 0x70u + static_cast<std::uint64_t>(round)};
    for (const auto& c : {p, s, t}) {
      exec::RunSpec spec = run_spec(c);
      spec.backend = exec::Backend::Pooled;
      spec.pool = &pool;
      submitted.push_back(
          {c, exec::Session(c.graph, case_kernels(c)).submit(spec)});
    }
  }
  for (auto& sub : submitted)
    expect_parity(run_sim(sub.c), sub.pending.get(), "multi-tenant");
}

TEST(PoolExecutor, TenThousandNodeLadderOnSixteenThreads) {
  // The scaling claim: a >= 10k-node graph runs on a fixed pool (the
  // one OS thread per node would need >= 10k threads here).
  workloads::RandomLadderOptions opt;
  opt.rungs = 2500;
  opt.left_interior = 5000;
  opt.right_interior = 5000;
  opt.component_edges = 1;
  opt.max_buffer = 4;
  Prng rng(0xFEED);
  const StreamGraph g = workloads::random_ladder(rng, opt);
  ASSERT_GE(g.node_count(), 10000u);

  PoolExecutor pool(8);
  ASSERT_LE(pool.worker_count(), 16u);
  exec::RunSpec eopt;
  eopt.mode = DummyMode::None;
  eopt.num_inputs = 3;
  const auto r = run_on(pool, g, workloads::passthrough_kernels(g), eopt);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.sink_data[g.unique_sink()],
            3u * g.in_degree(g.unique_sink()));
}

TEST(PoolExecutor, TinyRingExercisesOverflowAndSleepPath) {
  // A 4-slot deque forces constant ring growth and steal contention while
  // workers sleep and wake, hammering the paths a 256 ring rarely reaches.
  // Results must stay bit-identical to the simulator.
  PoolExecutor::Options popt;
  popt.workers = 3;
  popt.max_steps_per_quantum = 2;  // frequent yields: maximal re-queuing
  popt.deque_capacity = 4;
  PoolExecutor pool(popt);
  const StreamGraph g = workloads::splitjoin(4, 3, 2);
  for (int round = 0; round < 5; ++round) {
    ParityCase c{g,      DummyMode::None,
                 {},     {},
                 200,    0.7,
                 0xABCu + static_cast<std::uint64_t>(round)};
    check_pool_parity(pool, c, "tiny-ring round " + std::to_string(round));
  }
}

// ---- scheduler-v2 quiescence regressions: exact verdicts while steals
// ---- and futex parks are in flight ----

// An adversarial pool for the quiescence regressions: more workers than the
// workload has nodes (every local enqueue is typically drained by a thief),
// 2-slot deques (rings grow mid-steal), 1-step quanta (tasks bounce through
// the injector constantly) and heavy injected yielding. Under these options
// the instance reaches its quiescence point over and over with steal CASes
// and park/wake handshakes genuinely in flight.
PoolExecutor::Options adversarial_options(std::uint64_t seed) {
  PoolExecutor::Options popt;
  popt.workers = 6;
  popt.deque_capacity = 2;
  popt.max_steps_per_quantum = 1;
  popt.perturb_yield_in_256 = 96;
  popt.seed = seed;
  return popt;
}

TEST(PoolExecutor, DeadlockVerdictExactWhileStealsInFlight) {
  // The Fig. 2 wedge on the adversarial pool: the deadlock verdict must be
  // exactly the simulator's, certified by quiescence alone -- a task held
  // by a thief between its winning steal CAS and run_task still counts as
  // pending work, so the distributed queues never produce a false verdict.
  const StreamGraph g = workloads::fig2_triangle(2, 2, 2);
  auto kernels = [&] {
    std::vector<std::shared_ptr<Kernel>> k;
    k.push_back(std::make_shared<RelayKernel>(
        workloads::adversarial_prefix_filter(1, 100)));
    k.push_back(pass_through_kernel());
    k.push_back(pass_through_kernel());
    return k;
  };
  exec::Session s(g, kernels());
  exec::RunSpec sopt;
  sopt.mode = DummyMode::None;
  sopt.num_inputs = 100;
  const auto expected = s.run(sopt);
  ASSERT_TRUE(expected.deadlocked);

  exec::RunSpec opt;
  opt.mode = DummyMode::None;
  opt.num_inputs = 100;
  for (std::uint64_t round = 0; round < 8; ++round) {
    PoolExecutor pool(adversarial_options(0x5DEA1 + round));
    const auto r = run_on(pool, g, kernels(), opt);
    EXPECT_TRUE(r.deadlocked) << "round " << round;
    EXPECT_FALSE(r.completed) << "round " << round;
    EXPECT_EQ(expected.sink_data, r.sink_data) << "round " << round;
    EXPECT_FALSE(r.state_dump.empty()) << "round " << round;
  }
}

TEST(PoolExecutor, RandomizedWedgeVerdictsExactUnderPerturbation) {
  // Randomized wedge-capable workloads (avoidance off, message-at-a-time):
  // completion/deadlock verdict, traffic, fires and sink data bit-identical
  // to the simulator under the steal-heavy and park-storm regimes. The
  // harness builds the perturbed pool itself from spec.sched.
  Prng rng(0x3D9E);
  int deadlocks = 0;
  for (int i = 0; i < 24; ++i) {
    harness::CaseSpec spec;
    spec.topology = i % 3 == 0 ? harness::Topology::Triangle
                               : harness::Topology::Sp;
    spec.seed = rng.next_u64();
    spec.num_inputs = 30 + rng.next_below(50);
    spec.pass_rate = 0.3 + 0.7 * rng.next_double();
    spec.mode = DummyMode::None;
    spec.batch = 1;
    spec.sched = i % 2 == 0 ? harness::Sched::StealHeavy
                            : harness::Sched::ParkStorm;
    bool deadlocked = false;
    const auto failure = harness::run_differential(spec, nullptr, &deadlocked);
    ASSERT_FALSE(failure.has_value()) << *failure;
    if (deadlocked) ++deadlocks;
  }
  // The sweep is only a quiescence regression if some cases actually wedge.
  EXPECT_GE(deadlocks, 1);
}

TEST(PoolExecutor, OpenPortStreamIdlesNotDeadlocksUnderAdversarialSchedule) {
  // A live stream on the adversarial pool, pushed in bursts with full
  // drains between them: the instance quiesces mid-steal after every burst,
  // and each time the open ports must hold the verdict ("idle, awaiting the
  // caller") rather than let a racing finalize declare deadlock or
  // completion early.
  const StreamGraph g = workloads::pipeline(3, 2);
  PoolExecutor pool(adversarial_options(0x0BEA7));
  exec::Session session(g, workloads::passthrough_kernels(g));
  exec::StreamSpec ss;
  ss.run.backend = exec::Backend::Pooled;
  ss.run.pool = &pool;
  ss.run.mode = DummyMode::None;
  exec::Stream stream = session.open(ss);
  std::vector<exec::OutputPort::Item> got;
  for (std::int64_t burst = 0; burst < 10; ++burst) {
    for (std::int64_t i = 0; i < 6; ++i)
      ASSERT_TRUE(stream.input(0).push(Value(burst * 6 + i)));
    // Drain everything this burst produced: the instance goes fully
    // quiescent (all tasks parked, workers futex-parked) with the port
    // still open before the next burst arrives.
    while (got.size() < static_cast<std::size_t>((burst + 1) * 6))
      if (auto item = stream.output(0).poll()) got.push_back(*item);
  }
  stream.input(0).close();
  const exec::RunReport report = stream.finish();
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.deadlocked);
  ASSERT_EQ(got.size(), 60u);
  for (std::size_t k = 0; k < got.size(); ++k)
    EXPECT_EQ(got[k].value.as<std::int64_t>(), static_cast<std::int64_t>(k));
}

TEST(PoolExecutor, BarrierSnapshotPendingMidStealRestoresExactly) {
  // The crash differential with a barrier snapshot racing the steal-heavy
  // regime: push a random prefix, take an asynchronous barrier snapshot on
  // the perturbed pool (markers are occupancy-neutral pending work, so the
  // barrier must complete even though every marker hop crosses a steal),
  // destroy the stream, restore and replay -- bit-identical to an
  // uninterrupted run. Cross-checks tests/test_ckpt.cpp from the scheduler
  // side.
  Prng rng(0xC4A5);
  for (int i = 0; i < 4; ++i) {
    harness::CaseSpec spec;
    spec.topology =
        i % 2 == 0 ? harness::Topology::Ladder : harness::Topology::Sp;
    spec.seed = rng.next_u64();
    spec.num_inputs = 40;
    spec.pass_rate = 0.6;
    spec.mode = DummyMode::Propagation;
    spec.batch = 1;
    spec.feed = harness::FeedMode::Port;
    spec.chunk = 5;
    spec.sched =
        i < 2 ? harness::Sched::StealHeavy : harness::Sched::ParkStorm;
    const auto failure = harness::run_crash_differential(
        spec, exec::Backend::Pooled, rng.next_u64(), nullptr);
    ASSERT_FALSE(failure.has_value()) << *failure;
  }
}

TEST(PoolExecutor, RepeatedRunsAreIndependent) {
  const StreamGraph g = workloads::fig1_splitjoin(2);
  PoolExecutor pool(2);
  exec::RunSpec opt;
  opt.mode = DummyMode::None;
  opt.num_inputs = 20;
  const auto r1 = run_on(pool, g, workloads::passthrough_kernels(g), opt);
  const auto r2 = run_on(pool, g, workloads::passthrough_kernels(g), opt);
  EXPECT_TRUE(r1.completed);
  EXPECT_TRUE(r2.completed);
  EXPECT_EQ(r1.total_data(), r2.total_data());
}

}  // namespace
}  // namespace sdaf::runtime
