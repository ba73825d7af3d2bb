// Tests for the SIP bound machinery (Section 4.1): the estimated
// LowerB/UpperB must sandwich the exact subgraph isomorphism probability
// (within Monte-Carlo tolerance), the OPT bounds must dominate the greedy
// ones, and edge cases (absent feature, truncation) must behave.

#include <gtest/gtest.h>

#include "oracles/exact_probability.h"
#include "pgsim/bounds/sip_bounds.h"
#include "pgsim/graph/vf2.h"
#include "test_util.h"

namespace pgsim {
namespace {

using ::pgsim::testing::MakeGraph;
using ::pgsim::testing::MakePath;
using ::pgsim::testing::RandomGraph;
using ::pgsim::testing::RandomProbGraph;

SipBoundOptions TestOptions() {
  SipBoundOptions options;
  options.mc.xi = 0.05;
  options.mc.tau = 0.03;
  options.mc.max_samples = 60'000;
  return options;
}

TEST(SipBoundsTest, AbsentFeatureGivesExactZero) {
  Rng rng(701);
  const Graph g = MakePath(4);
  const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
  const Graph feature = MakeGraph({9, 9}, {{0, 1, 0}});  // label 9 nowhere
  const SipBounds b = ComputeSipBounds(pg, feature, TestOptions(), &rng);
  EXPECT_EQ(b.num_embeddings, 0u);
  EXPECT_DOUBLE_EQ(b.lower_opt, 0.0);
  EXPECT_DOUBLE_EQ(b.upper_opt, 0.0);
}

TEST(SipBoundsTest, BoundsAreOrdered) {
  Rng rng(703);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = RandomGraph(&rng, 6, 3, 2);
    const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
    const Graph feature = MakePath(2, g.VertexLabel(0));
    const SipBounds b = ComputeSipBounds(pg, feature, TestOptions(), &rng);
    EXPECT_LE(b.lower_opt, b.upper_opt + 1e-12);
    EXPECT_LE(b.lower_simple, b.upper_simple + 1e-12);
    EXPECT_GE(b.lower_opt, 0.0);
    EXPECT_LE(b.upper_opt, 1.0);
  }
}

class SipSandwichTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SipSandwichTest, BoundsSandwichExactSip) {
  Rng rng(GetParam());
  // Monte-Carlo slack: the Algorithm 3 estimates carry tau-level noise that
  // propagates through the clique products.
  const double slack = 0.06;
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = RandomGraph(&rng, 6, 3, 2);
    const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
    // Feature: a 2-edge path extracted from g itself so embeddings exist.
    Graph feature;
    {
      const VertexId center = 0;
      if (g.Degree(center) < 2) continue;
      const auto& adj = g.Neighbors(center);
      GraphBuilder builder;
      const VertexId c = builder.AddVertex(g.VertexLabel(center));
      const VertexId a = builder.AddVertex(g.VertexLabel(adj[0].neighbor));
      const VertexId b2 = builder.AddVertex(g.VertexLabel(adj[1].neighbor));
      auto r1 = builder.AddEdge(c, a, g.EdgeLabel(adj[0].edge));
      auto r2 = builder.AddEdge(c, b2, g.EdgeLabel(adj[1].edge));
      (void)r1;
      (void)r2;
      feature = builder.Build();
    }
    auto exact = ExactSubgraphIsomorphismProbability(pg, feature);
    ASSERT_TRUE(exact.ok());
    const SipBounds b = ComputeSipBounds(pg, feature, TestOptions(), &rng);
    EXPECT_LE(b.lower_opt, *exact + slack)
        << "trial=" << trial << " exact=" << *exact;
    EXPECT_GE(b.upper_opt, *exact - slack)
        << "trial=" << trial << " exact=" << *exact;
    EXPECT_LE(b.lower_simple, *exact + slack);
    EXPECT_GE(b.upper_simple, *exact - slack);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SipSandwichTest,
                         ::testing::Values(711ULL, 713ULL, 719ULL, 723ULL));

TEST(SipBoundsTest, OptLowerBoundDominatesGreedy) {
  // The max-weight clique can only improve on the greedy clique, so
  // lower_opt >= lower_simple (both built from the same estimates).
  Rng rng(727);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = RandomGraph(&rng, 7, 4, 1);
    const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
    const Graph feature = MakePath(3, 0);
    if (!IsSubgraphIsomorphic(feature, g)) continue;
    const SipBounds b = ComputeSipBounds(pg, feature, TestOptions(), &rng);
    EXPECT_GE(b.lower_opt, b.lower_simple - 1e-9);
    EXPECT_LE(b.upper_opt, b.upper_simple + 1e-9);
  }
}

TEST(SipBoundsTest, TruncatedEmbeddingsFallBackToUpperOne) {
  Rng rng(733);
  const Graph g = RandomGraph(&rng, 8, 6, 1);
  const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
  const Graph feature = MakePath(2, g.VertexLabel(0));
  SipBoundOptions options = TestOptions();
  options.max_cut_embeddings = 1;  // force truncation
  options.mc.max_samples = 2000;
  const SipBounds b = ComputeSipBounds(pg, feature, options, &rng);
  if (b.embeddings_truncated) {
    EXPECT_DOUBLE_EQ(b.upper_opt, 1.0);
    EXPECT_TRUE(b.cuts_truncated);
  }
}

TEST(SipBoundsTest, BatchMatchesSingleFeaturePath) {
  Rng rng(739);
  const Graph g = RandomGraph(&rng, 6, 3, 2);
  const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
  const Graph f1 = MakePath(2, g.VertexLabel(0));
  const Graph f2 = MakePath(3, g.VertexLabel(0));
  Rng rng_batch(99), rng_single(99);
  const auto batch =
      ComputeSipBoundsBatch(pg, {&f1, &f2}, TestOptions(), &rng_batch);
  ASSERT_EQ(batch.size(), 2u);
  // Same structural quantities as the single-feature path (the Monte-Carlo
  // estimates share worlds in the batch, so compare structure, not values).
  const SipBounds single = ComputeSipBounds(pg, f1, TestOptions(), &rng_single);
  EXPECT_EQ(batch[0].num_embeddings, single.num_embeddings);
  EXPECT_EQ(batch[0].num_cuts, single.num_cuts);
}

TEST(ExactSipTest, MatchesHandComputedIndependentCase) {
  // Path a-b with one uncertain edge of probability p: a single-edge feature
  // with the same labels has SIP = p.
  GraphBuilder builder;
  const VertexId a = builder.AddVertex(1);
  const VertexId b = builder.AddVertex(2);
  auto e = builder.AddEdge(a, b, 0);
  ASSERT_TRUE(e.ok());
  const Graph certain = builder.Build();
  NeighborEdgeSet ne;
  ne.edges = {0};
  ne.table = JointProbTable::Independent({0.37}).value();
  auto pg = ProbabilisticGraph::Create(certain, {ne});
  ASSERT_TRUE(pg.ok());
  const Graph feature = MakeGraph({1, 2}, {{0, 1, 0}});
  auto sip = ExactSubgraphIsomorphismProbability(*pg, feature);
  ASSERT_TRUE(sip.ok());
  EXPECT_NEAR(*sip, 0.37, 1e-12);
}

}  // namespace
}  // namespace pgsim
