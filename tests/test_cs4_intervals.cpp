#include <gtest/gtest.h>

#include "src/cs4/decompose.h"
#include "src/intervals/baseline.h"
#include "src/support/prng.h"
#include "src/workloads/random_ladder.h"
#include "src/workloads/topologies.h"

namespace sdaf {
namespace {

TEST(Cs4Propagation, Fig4LeftHandComputed) {
  const StreamGraph g = workloads::fig4_left(2);
  const auto a = analyze_cs4(g);
  ASSERT_TRUE(a.is_cs4);
  const auto iv = cs4_propagation_intervals(g, a);
  EXPECT_EQ(iv[0], Rational(2));  // X->a
  EXPECT_EQ(iv[1], Rational(4));  // X->b
  EXPECT_EQ(iv[2], Rational(2));  // a->b (rung)
  EXPECT_EQ(iv[3], Rational(4));  // a->Y
  EXPECT_TRUE(iv[4].is_infinite());
}

TEST(Cs4Propagation, RecurrenceMatchesOnFig4LeftAndFig5) {
  for (const StreamGraph& g :
       {workloads::fig4_left(2), workloads::fig5_ladder(3)}) {
    const auto a = analyze_cs4(g);
    ASSERT_TRUE(a.is_cs4) << a.reason;
    const auto enum_iv =
        cs4_propagation_intervals(g, a, LadderMethod::Enumeration);
    const auto rec_iv =
        cs4_propagation_intervals(g, a, LadderMethod::PaperRecurrence);
    EXPECT_EQ(enum_iv, rec_iv);
  }
}

TEST(Cs4Propagation, SpFallbackMatchesSetivals) {
  const StreamGraph g = workloads::fig3_cycle();
  const auto a = analyze_cs4(g);
  ASSERT_TRUE(a.pure_sp);
  const auto iv = cs4_propagation_intervals(g, a);
  EXPECT_EQ(iv[0], Rational(6));
  EXPECT_EQ(iv[1], Rational(8));
}

TEST(Cs4NonProp, Fig4LeftHandComputed) {
  const StreamGraph g = workloads::fig4_left(2);
  const auto a = analyze_cs4(g);
  const auto iv = cs4_nonprop_intervals(g, a);
  EXPECT_EQ(iv[0], Rational(1));
  EXPECT_EQ(iv[1], Rational(2));
  EXPECT_EQ(iv[2], Rational(1));
  EXPECT_EQ(iv[3], Rational(2));
  EXPECT_EQ(iv[4], Rational(1));
}

class LadderIntervalProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

// Both CS4 engines must agree with the exponential baseline on random
// ladders (small enough to enumerate full-graph cycles).
TEST_P(LadderIntervalProperty, EnumMatchesExactBaseline) {
  Prng rng(GetParam() * 7 + 3);
  workloads::RandomLadderOptions opt;
  opt.rungs = 1 + GetParam() % 4;
  opt.left_interior = 1 + GetParam() % 3;
  opt.right_interior = 1 + (GetParam() / 2) % 3;
  opt.component_edges = 1 + GetParam() % 2;
  const auto g = workloads::random_ladder(rng, opt);
  const auto a = analyze_cs4(g);
  ASSERT_TRUE(a.is_cs4) << a.reason;

  const auto prop = cs4_propagation_intervals(g, a);
  const auto prop_exact = propagation_intervals_exact(g);
  EXPECT_EQ(prop, prop_exact) << "propagation mismatch";

  const auto np = cs4_nonprop_intervals(g, a);
  const auto np_exact = nonprop_intervals_exact(g);
  EXPECT_EQ(np, np_exact) << "non-propagation mismatch";
}

INSTANTIATE_TEST_SUITE_P(Seeds, LadderIntervalProperty,
                         ::testing::Range<std::uint64_t>(0, 60));

class ChainIntervalProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChainIntervalProperty, Cs4ChainMatchesExactBaseline) {
  Prng rng(GetParam() * 13 + 11);
  workloads::RandomCs4Options opt;
  opt.components = 1 + GetParam() % 3;
  opt.ladder.rungs = 1 + GetParam() % 2;
  opt.sp.target_edges = 6;
  const auto g = workloads::random_cs4_chain(rng, opt);
  const auto a = analyze_cs4(g);
  ASSERT_TRUE(a.is_cs4) << a.reason;
  EXPECT_EQ(cs4_propagation_intervals(g, a), propagation_intervals_exact(g));
  EXPECT_EQ(cs4_nonprop_intervals(g, a), nonprop_intervals_exact(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainIntervalProperty,
                         ::testing::Range<std::uint64_t>(0, 40));

class RecurrenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

// Paper recurrence vs enumeration. Without shared rung endpoints they are
// identical; with shared endpoints the (fixed-up) recurrence must never be
// looser (larger) than exact -- looser would be unsafe.
TEST_P(RecurrenceProperty, NoSharedEndpointsExactMatch) {
  Prng rng(GetParam() * 101 + 1);
  workloads::RandomLadderOptions opt;
  opt.rungs = 1 + GetParam() % 4;
  opt.allow_shared_endpoints = false;
  opt.component_edges = 1 + GetParam() % 3;
  const auto g = workloads::random_ladder(rng, opt);
  const auto a = analyze_cs4(g);
  ASSERT_TRUE(a.is_cs4) << a.reason;
  EXPECT_EQ(cs4_propagation_intervals(g, a, LadderMethod::Enumeration),
            cs4_propagation_intervals(g, a, LadderMethod::PaperRecurrence));
}

TEST_P(RecurrenceProperty, SharedEndpointsNeverLooser) {
  Prng rng(GetParam() * 103 + 29);
  workloads::RandomLadderOptions opt;
  opt.rungs = 2 + GetParam() % 4;
  opt.left_interior = 1 + GetParam() % 2;  // force sharing
  opt.right_interior = 1 + GetParam() % 2;
  opt.allow_shared_endpoints = true;
  const auto g = workloads::random_ladder(rng, opt);
  const auto a = analyze_cs4(g);
  ASSERT_TRUE(a.is_cs4) << a.reason;
  const auto exact =
      cs4_propagation_intervals(g, a, LadderMethod::Enumeration);
  const auto rec =
      cs4_propagation_intervals(g, a, LadderMethod::PaperRecurrence);
  for (EdgeId e = 0; e < g.edge_count(); ++e)
    EXPECT_LE(rec[e], exact[e]) << "recurrence looser than exact on " << e;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecurrenceProperty,
                         ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
}  // namespace sdaf
