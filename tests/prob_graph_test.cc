// Tests for the probabilistic graph model (Definitions 1-4, Equation 1,
// Figure 1 / Example 1) and possible-world enumeration.

#include <gtest/gtest.h>

#include "oracles/possible_world.h"
#include "pgsim/prob/probabilistic_graph.h"
#include "test_util.h"

namespace pgsim {
namespace {

using ::pgsim::testing::MakeGraph;
using ::pgsim::testing::MakePath;
using ::pgsim::testing::RandomGraph;
using ::pgsim::testing::RandomProbGraph;

NeighborEdgeSet MakeNe(std::vector<EdgeId> edges, std::vector<double> weights) {
  NeighborEdgeSet ne;
  ne.edges = std::move(edges);
  ne.table = JointProbTable::FromWeights(std::move(weights)).value();
  return ne;
}

// Figure 1's probabilistic graph 002: 5 vertices a,a,b,b,c; edges
// e1..e5 arranged so {e1,e2,e3} share a vertex and {e3,e4,e5} share another.
//   v0(a) - v1(a): e1;  v0 - v2(b): e2;  v0 - v3(b): e3   (share v0)
//   v3 - v2: e4;  v3 - v4(c): e5                          (e3,e4,e5 share v3)
Graph MakeGraph002() {
  return MakeGraph({0, 0, 1, 1, 2}, {{0, 1, 0},
                                     {0, 2, 0},
                                     {0, 3, 0},
                                     {2, 3, 0},
                                     {3, 4, 0}});
}

TEST(ProbGraphTest, CreateValidatesCoverage) {
  const Graph g = MakePath(3);  // 2 edges
  // Only edge 0 covered.
  auto pg = ProbabilisticGraph::Create(g, {MakeNe({0}, {0.5, 0.5})});
  ASSERT_FALSE(pg.ok());
  EXPECT_EQ(pg.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProbGraphTest, CreateValidatesArity) {
  const Graph g = MakePath(3);
  NeighborEdgeSet ne;
  ne.edges = {0, 1};
  ne.table = JointProbTable::FromWeights({0.5, 0.5}).value();  // arity 1
  auto pg = ProbabilisticGraph::Create(g, {std::move(ne)});
  EXPECT_FALSE(pg.ok());
}

TEST(ProbGraphTest, CreateValidatesNeighborProperty) {
  // Edges (0,1) and (2,3) of a path of 4 share no vertex: not neighbor edges.
  const Graph g = MakePath(4);
  auto pg = ProbabilisticGraph::Create(
      g, {MakeNe({0, 2}, {0.25, 0.25, 0.25, 0.25}),
          MakeNe({1}, {0.5, 0.5})});
  ASSERT_FALSE(pg.ok());
  // With validation off the same structure is accepted.
  ProbGraphOptions options;
  options.validate_neighbor_property = false;
  auto pg2 = ProbabilisticGraph::Create(
      g, {MakeNe({0, 2}, {0.25, 0.25, 0.25, 0.25}), MakeNe({1}, {0.5, 0.5})},
      options);
  EXPECT_TRUE(pg2.ok());
}

TEST(ProbGraphTest, TriangleIsValidNeighborSet) {
  const Graph g = MakeGraph({0, 0, 0}, {{0, 1, 0}, {1, 2, 0}, {0, 2, 0}});
  std::vector<double> w(8, 0.125);
  auto pg = ProbabilisticGraph::Create(g, {MakeNe({0, 1, 2}, w)});
  EXPECT_TRUE(pg.ok());
  EXPECT_EQ(pg->kind(), JointModelKind::kPartition);
}

TEST(ProbGraphTest, PartitionModelEquationOneLiterally) {
  // Star v0 with edges e0,e1 grouped; singleton e2 on v1.
  const Graph g = MakeGraph({0, 0, 0, 0},
                            {{0, 1, 0}, {0, 2, 0}, {1, 3, 0}});
  auto pg = ProbabilisticGraph::Create(
      g, {MakeNe({0, 1}, {0.1, 0.2, 0.3, 0.4}), MakeNe({2}, {0.25, 0.75})});
  ASSERT_TRUE(pg.ok());
  EXPECT_EQ(pg->kind(), JointModelKind::kPartition);
  // World {e0 present, e1 absent, e2 present}: Pr = 0.2 * 0.75.
  EdgeBitset world(3);
  world.Set(0);
  world.Set(2);
  EXPECT_NEAR(pg->WorldProbability(world), 0.2 * 0.75, 1e-12);
}

TEST(ProbGraphTest, WorldProbabilitiesSumToOnePartition) {
  Rng rng(83);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = RandomGraph(&rng, 6, 3, 2);
    const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
    auto total = TotalWorldProbability(pg);
    ASSERT_TRUE(total.ok());
    EXPECT_NEAR(*total, 1.0, 1e-9);
  }
}

TEST(ProbGraphTest, OverlappingSetsMakeTreeModel) {
  const Graph g002 = MakeGraph002();
  std::vector<double> w1(8), w2(8);
  // JPT1 rows from Figure 1 (e1 e2 e3 with "1 1 1 -> 0.3", "0 1 1 -> 0.3");
  // unspecified rows share the remaining 0.4 uniformly.
  for (auto& w : w1) w = 0.4 / 6;
  w1[0b111] = 0.3;
  w1[0b110] = 0.3;  // e1=0, e2=1, e3=1 with e1 as bit 0
  // JPT2 rows (e3 e4 e5): "1 1 0 -> 0.25", "1 1 1 -> 0.15".
  for (auto& w : w2) w = 0.6 / 6;
  w2[0b011] = 0.25;
  w2[0b111] = 0.15;
  auto pg = ProbabilisticGraph::Create(
      g002, {MakeNe({0, 1, 2}, w1), MakeNe({2, 3, 4}, w2)});
  ASSERT_TRUE(pg.ok());
  EXPECT_EQ(pg->kind(), JointModelKind::kTree);

  // Example 1's join: the (unnormalized) weight of PWG(1) = {e1..e4}, no e5,
  // is Pr(e1=1,e2=1,e3=1) * Pr(e3=1,e4=1,e5=0) = 0.3 * 0.25 = 0.075.
  EdgeBitset pwg1(5);
  pwg1.Set(0);
  pwg1.Set(1);
  pwg1.Set(2);
  pwg1.Set(3);
  EXPECT_NEAR(pg->inference().WorldWeight(pwg1), 0.075, 1e-12);
  // The normalized probability divides by the partition function.
  EXPECT_NEAR(pg->WorldProbability(pwg1), 0.075 / pg->inference().Z(), 1e-12);
  // And all world probabilities still sum to 1.
  auto total = TotalWorldProbability(*pg);
  ASSERT_TRUE(total.ok());
  EXPECT_NEAR(*total, 1.0, 1e-9);
}

TEST(ProbGraphTest, MarginalsAgreeWithEnumeration) {
  Rng rng(89);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = RandomGraph(&rng, 5, 3, 2);
    const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
    // Random event: a few edges present, a few absent.
    EdgeBitset care(pg.NumEdges()), value(pg.NumEdges());
    for (EdgeId e = 0; e < pg.NumEdges(); ++e) {
      if (rng.Bernoulli(0.5)) {
        care.Set(e);
        if (rng.Bernoulli(0.5)) value.Set(e);
      }
    }
    double expected = 0.0;
    ASSERT_TRUE(EnumerateWorlds(pg,
                                [&](const EdgeBitset& world, double p) {
                                  bool match = true;
                                  for (uint32_t e : care.ToVector()) {
                                    if (world.Test(e) != value.Test(e)) {
                                      match = false;
                                      break;
                                    }
                                  }
                                  if (match) expected += p;
                                  return true;
                                })
                    .ok());
    EXPECT_NEAR(pg.Probability(care, value), expected, 1e-9);
  }
}

TEST(ProbGraphTest, EdgeMarginalMatchesEnumeration) {
  Rng rng(97);
  const Graph g = RandomGraph(&rng, 5, 2, 1);
  const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
  for (EdgeId e = 0; e < pg.NumEdges(); ++e) {
    double expected = 0.0;
    ASSERT_TRUE(EnumerateWorlds(pg,
                                [&](const EdgeBitset& world, double p) {
                                  if (world.Test(e)) expected += p;
                                  return true;
                                })
                    .ok());
    EXPECT_NEAR(pg.EdgeMarginal(e), expected, 1e-9);
  }
}

TEST(ProbGraphTest, SampleWorldMatchesDistribution) {
  Rng rng(101);
  const Graph g = MakePath(4);  // 3 edges
  const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
  std::vector<double> expected(8, 0.0);
  ASSERT_TRUE(EnumerateWorlds(pg,
                              [&](const EdgeBitset& world, double p) {
                                uint32_t mask = 0;
                                for (uint32_t e : world.ToVector()) {
                                  mask |= 1U << e;
                                }
                                expected[mask] = p;
                                return true;
                              })
                  .ok());
  std::vector<int> counts(8, 0);
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    const EdgeBitset world = pg.SampleWorld(&rng);
    uint32_t mask = 0;
    for (uint32_t e : world.ToVector()) mask |= 1U << e;
    ++counts[mask];
  }
  for (uint32_t mask = 0; mask < 8; ++mask) {
    EXPECT_NEAR(counts[mask] / static_cast<double>(n), expected[mask], 0.01);
  }
}

TEST(ProbGraphTest, ConditionedSamplingForcesEdges) {
  Rng rng(103);
  const Graph g = MakePath(5);
  const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
  EdgeBitset care(pg.NumEdges()), value(pg.NumEdges());
  care.Set(1);
  value.Set(1);
  care.Set(2);  // edge 2 forced absent
  for (int i = 0; i < 200; ++i) {
    auto world = pg.SampleWorldConditioned(&rng, care, value);
    ASSERT_TRUE(world.ok());
    EXPECT_TRUE(world->Test(1));
    EXPECT_FALSE(world->Test(2));
  }
}

TEST(ProbGraphTest, IndependentModelPreservesMarginals) {
  Rng rng(107);
  const Graph g = RandomGraph(&rng, 6, 3, 2);
  const ProbabilisticGraph cor = RandomProbGraph(g, &rng);
  auto ind = ToIndependentModel(cor);
  ASSERT_TRUE(ind.ok());
  EXPECT_EQ(ind->kind(), JointModelKind::kPartition);
  for (EdgeId e = 0; e < cor.NumEdges(); ++e) {
    EXPECT_NEAR(ind->EdgeMarginal(e), cor.EdgeMarginal(e), 1e-9);
  }
  // Singleton ne sets.
  for (const auto& ne : ind->ne_sets()) {
    EXPECT_EQ(ne.edges.size(), 1u);
  }
}

TEST(PossibleWorldTest, EnumerationGuardsLargeGraphs) {
  Rng rng(109);
  const Graph g = RandomGraph(&rng, 30, 20, 1);
  const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
  WorldEnumOptions options;
  options.max_edges = 10;
  const Status s = EnumerateWorlds(
      pg, [](const EdgeBitset&, double) { return true; }, options);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

TEST(PossibleWorldTest, EarlyStopViaCallback) {
  Rng rng(113);
  const Graph g = MakePath(4);
  const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
  int seen = 0;
  ASSERT_TRUE(EnumerateWorlds(pg, [&](const EdgeBitset&, double) {
                return ++seen < 3;
              }).ok());
  EXPECT_EQ(seen, 3);
}

}  // namespace
}  // namespace pgsim
