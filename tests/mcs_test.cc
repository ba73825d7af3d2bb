// Tests for maximum common subgraph / subgraph distance (Definitions 7-8)
// and the relaxation machinery of Section 3.1, including the property that
// ties them together: dis(q, g) <= delta iff some delta-relaxed query embeds
// in g (the basis of Lemma 1).

#include <gtest/gtest.h>

#include "oracles/mcs.h"
#include "pgsim/graph/relaxation.h"
#include "pgsim/graph/vf2.h"
#include "test_util.h"

namespace pgsim {
namespace {

using ::pgsim::testing::MakeGraph;
using ::pgsim::testing::MakePath;
using ::pgsim::testing::MakeTriangle;
using ::pgsim::testing::RandomGraph;

TEST(McsTest, IdenticalGraphsHaveZeroDistance) {
  const Graph g = MakeTriangle(0, 1, 2);
  EXPECT_EQ(SubgraphDistance(g, g), 0u);
  EXPECT_TRUE(IsSubgraphSimilar(g, g, 0));
}

TEST(McsTest, SubgraphHasZeroDistance) {
  EXPECT_EQ(SubgraphDistance(MakePath(3), MakeTriangle(0, 0, 0)), 0u);
}

TEST(McsTest, TriangleVsPathNeedsOneDeletion) {
  // A triangle's best common subgraph with a path of 3 is the 2-edge path.
  EXPECT_EQ(SubgraphDistance(MakeTriangle(0, 0, 0), MakePath(3)), 1u);
  EXPECT_FALSE(IsSubgraphSimilar(MakeTriangle(0, 0, 0), MakePath(3), 0));
  EXPECT_TRUE(IsSubgraphSimilar(MakeTriangle(0, 0, 0), MakePath(3), 1));
}

TEST(McsTest, LabelMismatchForcesDeletions) {
  const Graph q = MakeGraph({1, 1}, {{0, 1, 0}});
  const Graph g = MakeGraph({2, 2}, {{0, 1, 0}});
  // No common edge at all: distance = |E(q)| = 1.
  EXPECT_EQ(SubgraphDistance(q, g), 1u);
}

TEST(McsTest, DistanceIsEdgeCountMinusMcs) {
  // q = square with diagonal (5 edges), g = square (4 edges): mcs = 4.
  const Graph q = MakeGraph(
      {0, 0, 0, 0},
      {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {0, 3, 0}, {0, 2, 0}});
  const Graph g =
      MakeGraph({0, 0, 0, 0}, {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {0, 3, 0}});
  EXPECT_EQ(MaxCommonSubgraphEdges(q, g), 4u);
  EXPECT_EQ(SubgraphDistance(q, g), 1u);
}

TEST(McsTest, GiveUpAtShortCircuits) {
  const Graph q = MakePath(6);
  const Graph g = MakePath(10);
  EXPECT_EQ(MaxCommonSubgraphEdges(q, g, 3), 3u);
}

TEST(McsTest, DeltaAtLeastEdgesAlwaysSimilar) {
  const Graph q = MakeTriangle(1, 2, 3);
  const Graph g = MakeGraph({9}, {});
  EXPECT_TRUE(IsSubgraphSimilar(q, g, 3));
  EXPECT_TRUE(IsSubgraphSimilar(q, g, 5));
}

TEST(RelaxationTest, CountDeletionSets) {
  EXPECT_EQ(CountDeletionSets(5, 0), 1u);
  EXPECT_EQ(CountDeletionSets(5, 1), 5u);
  EXPECT_EQ(CountDeletionSets(5, 2), 10u);
  EXPECT_EQ(CountDeletionSets(6, 3), 20u);
  EXPECT_EQ(CountDeletionSets(3, 4), 0u);
  EXPECT_EQ(CountDeletionSets(60, 30), 118264581564861424ULL);
}

TEST(RelaxationTest, DeltaZeroYieldsQueryItself) {
  const Graph q = MakeTriangle(0, 1, 2);
  auto u = GenerateRelaxedQueries(q, 0);
  ASSERT_TRUE(u.ok());
  ASSERT_EQ(u->size(), 1u);
  EXPECT_TRUE(AreIsomorphic((*u)[0], q));
}

TEST(RelaxationTest, TriangleDeltaOneGivesOnePathUpToIso) {
  // Deleting any edge of an unlabeled triangle leaves a path of 3; all three
  // deletions are isomorphic, so |U| = 1.
  auto u = GenerateRelaxedQueries(MakeTriangle(0, 0, 0), 1);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->size(), 1u);
  EXPECT_TRUE(AreIsomorphic((*u)[0], MakePath(3)));
}

TEST(RelaxationTest, LabelsBreakSymmetry) {
  // Distinct vertex labels make the three triangle relaxations distinct.
  auto u = GenerateRelaxedQueries(MakeTriangle(0, 1, 2), 1);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->size(), 3u);
}

TEST(RelaxationTest, RelaxedGraphsDropIsolatedVertices) {
  // A star with 2 edges relaxed by 1 leaves a single edge, 2 vertices.
  const Graph star = MakeGraph({0, 1, 2}, {{0, 1, 0}, {0, 2, 0}});
  auto u = GenerateRelaxedQueries(star, 1);
  ASSERT_TRUE(u.ok());
  for (const Graph& rq : *u) {
    EXPECT_EQ(rq.NumEdges(), 1u);
    EXPECT_EQ(rq.NumVertices(), 2u);
  }
}

TEST(RelaxationTest, DeltaEqualEdgesRejected) {
  EXPECT_FALSE(GenerateRelaxedQueries(MakePath(3), 2).ok());
}

TEST(RelaxationTest, CombinationCapRespected) {
  RelaxationOptions options;
  options.max_combinations = 5;
  const Graph q = MakePath(7);  // C(6, 2) = 15 > 5
  auto u = GenerateRelaxedQueries(q, 2, options);
  ASSERT_FALSE(u.ok());
  EXPECT_EQ(u.status().code(), StatusCode::kOutOfRange);
}

// Property: q ⊆sim g (distance <= delta) iff some rq in U embeds in g.
// This is the exact statement the pipeline's filtering relies on (Lemma 1's
// deterministic core), checked on random instances.
class RelaxSimilarityTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

TEST_P(RelaxSimilarityTest, RelaxedEmbeddingIffDistanceAtMostDelta) {
  const auto [seed, delta] = GetParam();
  Rng rng(seed);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph q = RandomGraph(&rng, 5, 2, 2);
    const Graph g = RandomGraph(&rng, 7, 4, 2);
    if (delta >= q.NumEdges()) continue;
    auto u = GenerateRelaxedQueries(q, delta);
    ASSERT_TRUE(u.ok());
    bool any_embeds = false;
    for (const Graph& rq : *u) {
      if (IsSubgraphIsomorphic(rq, g)) {
        any_embeds = true;
        break;
      }
    }
    EXPECT_EQ(any_embeds, IsSubgraphSimilar(q, g, delta))
        << "seed=" << seed << " delta=" << delta << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RelaxSimilarityTest,
    ::testing::Combine(::testing::Values(201, 202, 203),
                       ::testing::Values(0u, 1u, 2u, 3u)));

}  // namespace
}  // namespace pgsim
