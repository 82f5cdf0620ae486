// E7/E8 -- SP-ladder interval computation scaling (Section VI):
//   * Propagation, paper recurrence:  O(|G|)   (Section VI.A)
//   * Propagation, cycle enumeration: O(k^2)   (our exact reference)
//   * Non-Propagation:                O(|G|^3) (Section VI.B)
// plus full-graph exponential baseline on small ladders for the blow-up
// contrast. Sizes are rung counts; component_edges scales |G| per rung.
// BM_Compile_Ladder times the whole core::compile() (analysis, intervals,
// forwarding set) by node count, on bench_pool_scaling's ladder shape.
#include <benchmark/benchmark.h>

#include <map>

#include "src/core/compile.h"
#include "src/cs4/decompose.h"
#include "src/intervals/baseline.h"
#include "src/support/contracts.h"
#include "src/support/prng.h"
#include "src/workloads/random_ladder.h"

namespace {

using namespace sdaf;

struct LadderCase {
  StreamGraph graph;
  Cs4Analysis analysis;
};

const LadderCase& ladder_of(std::size_t rungs) {
  static std::map<std::size_t, LadderCase> cache;
  auto it = cache.find(rungs);
  if (it == cache.end()) {
    Prng rng(0xABCD + rungs);
    workloads::RandomLadderOptions opt;
    opt.rungs = rungs;
    opt.left_interior = rungs;
    opt.right_interior = rungs;
    opt.component_edges = 3;
    opt.max_buffer = 16;
    LadderCase c{workloads::random_ladder(rng, opt), {}};
    c.analysis = analyze_cs4(c.graph);
    SDAF_ASSERT(c.analysis.is_cs4);
    it = cache.emplace(rungs, std::move(c)).first;
  }
  return it->second;
}

void BM_LadderProp_PaperRecurrence(benchmark::State& state) {
  const auto& c = ladder_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto iv = cs4_propagation_intervals(c.graph, c.analysis,
                                        LadderMethod::PaperRecurrence);
    benchmark::DoNotOptimize(iv);
  }
  state.counters["edges"] = static_cast<double>(c.graph.edge_count());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LadderProp_PaperRecurrence)
    ->RangeMultiplier(4)
    ->Range(2, 512)
    ->Complexity(benchmark::oN);

void BM_LadderProp_Enumeration(benchmark::State& state) {
  const auto& c = ladder_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto iv = cs4_propagation_intervals(c.graph, c.analysis,
                                        LadderMethod::Enumeration);
    benchmark::DoNotOptimize(iv);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LadderProp_Enumeration)
    ->RangeMultiplier(4)
    ->Range(2, 512)
    ->Complexity(benchmark::oNSquared);

void BM_LadderNonProp(benchmark::State& state) {
  const auto& c = ladder_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto iv = cs4_nonprop_intervals(c.graph, c.analysis);
    benchmark::DoNotOptimize(iv);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LadderNonProp)
    ->RangeMultiplier(4)
    ->Range(2, 128)
    ->Complexity(benchmark::oNCubed);

// Ladder recognition + decomposition (skeleton extraction, outer cycle,
// rung layout): the compile step before the interval engines.
void BM_LadderRecognition(benchmark::State& state) {
  const auto& c = ladder_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto a = analyze_cs4(c.graph);
    benchmark::DoNotOptimize(a);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LadderRecognition)
    ->RangeMultiplier(4)
    ->Range(2, 128)
    ->Complexity(benchmark::oNSquared);

// bench_pool_scaling's ladder_of(nodes): nodes/4 rungs on plain channels.
StreamGraph pool_ladder_of(std::size_t nodes) {
  Prng rng(0xBEEF ^ nodes);
  workloads::RandomLadderOptions opt;
  opt.rungs = nodes / 4;
  opt.left_interior = nodes / 2;
  opt.right_interior = nodes / 2;
  opt.component_edges = 1;
  opt.max_buffer = 4;
  return workloads::random_ladder(rng, opt);
}

void BM_Compile_Ladder(benchmark::State& state) {
  const StreamGraph g =
      pool_ladder_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = core::compile(g);
    SDAF_ASSERT(r.ok);
    benchmark::DoNotOptimize(r);
  }
  state.counters["nodes"] = static_cast<double>(g.node_count());
  state.counters["edges"] = static_cast<double>(g.edge_count());
}
BENCHMARK(BM_Compile_Ladder)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

void BM_LadderProp_ExponentialBaseline(benchmark::State& state) {
  const auto& c = ladder_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto iv = propagation_intervals_exact(c.graph);
    benchmark::DoNotOptimize(iv);
  }
}
BENCHMARK(BM_LadderProp_ExponentialBaseline)->RangeMultiplier(2)->Range(2, 8);

}  // namespace
