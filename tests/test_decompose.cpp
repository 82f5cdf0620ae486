#include "src/cs4/decompose.h"

#include <gtest/gtest.h>

#include "src/graph/cycles.h"
#include "src/graph/validate.h"
#include "src/support/prng.h"
#include "src/workloads/random_ladder.h"
#include "src/workloads/random_sp.h"
#include "src/workloads/topologies.h"

namespace sdaf {
namespace {

TEST(Decompose, PureSpPath) {
  const auto a = analyze_cs4(workloads::fig3_cycle());
  EXPECT_TRUE(a.is_cs4);
  EXPECT_TRUE(a.pure_sp);
  EXPECT_TRUE(a.ladders.empty());
}

TEST(Decompose, Fig4LeftIsOneLadder) {
  const auto a = analyze_cs4(workloads::fig4_left());
  EXPECT_TRUE(a.is_cs4);
  EXPECT_FALSE(a.pure_sp);
  ASSERT_EQ(a.ladders.size(), 1u);
}

TEST(Decompose, ButterflyRejectedWithReason) {
  const auto a = analyze_cs4(workloads::fig4_butterfly());
  EXPECT_TRUE(a.two_terminal);
  EXPECT_FALSE(a.is_cs4);
  EXPECT_FALSE(a.reason.empty());
}

TEST(Decompose, ButterflyRewriteAccepted) {
  const auto a = analyze_cs4(workloads::butterfly_rewrite());
  EXPECT_TRUE(a.is_cs4);
  EXPECT_EQ(a.ladders.size(), 1u);
}

TEST(Decompose, RejectsMultiTerminal) {
  StreamGraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  g.add_edge(a, c, 1);
  g.add_edge(b, c, 1);
  const auto r = analyze_cs4(g);
  EXPECT_FALSE(r.two_terminal);
  EXPECT_FALSE(r.is_cs4);
}

TEST(Decompose, ChainMixesLaddersAndBridges) {
  Prng rng(7);
  workloads::RandomCs4Options opt;
  opt.components = 4;
  opt.ladder_probability = 0.5;
  for (int trial = 0; trial < 10; ++trial) {
    const auto g = workloads::random_cs4_chain(rng, opt);
    const auto a = analyze_cs4(g);
    EXPECT_TRUE(a.is_cs4) << a.reason;
  }
}

class DecomposeOracle : public ::testing::TestWithParam<std::uint64_t> {};

// Theorem V.7 as a property test: the structural decomposition must accept
// exactly the graphs the exponential cycle-counting oracle calls CS4.
TEST_P(DecomposeOracle, AgreesWithEnumerationOracle) {
  Prng rng(GetParam() * 104729 + 1);
  for (int trial = 0; trial < 8; ++trial) {
    workloads::RandomDagOptions opt;
    opt.interior_nodes = 3 + static_cast<std::size_t>(trial % 5);
    opt.edge_density = 0.25 + 0.1 * static_cast<double>(trial % 4);
    const auto g = workloads::random_two_terminal_dag(rng, opt);
    if (!validate(g).two_terminal()) continue;
    const bool oracle = is_cs4_by_enumeration(g);
    const auto a = analyze_cs4(g);
    EXPECT_EQ(a.is_cs4, oracle)
        << "disagreement on " << g.node_count() << " nodes, "
        << g.edge_count() << " edges (reason: " << a.reason << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecomposeOracle,
                         ::testing::Range<std::uint64_t>(0, 40));

class DecomposePositive : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecomposePositive, AcceptsAllGeneratedCs4Chains) {
  Prng rng(GetParam() * 31337 + 5);
  workloads::RandomCs4Options opt;
  opt.components = 1 + GetParam() % 4;
  opt.ladder.rungs = 1 + GetParam() % 3;
  opt.ladder.component_edges = 1 + GetParam() % 2;
  const auto g = workloads::random_cs4_chain(rng, opt);
  const auto a = analyze_cs4(g);
  EXPECT_TRUE(a.is_cs4) << a.reason;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecomposePositive,
                         ::testing::Range<std::uint64_t>(0, 30));

}  // namespace
}  // namespace sdaf
