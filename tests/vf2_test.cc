// Tests for the VF2 engine: hand cases, label constraints, disconnected
// patterns, and a parameterized cross-check against an independent
// brute-force embedding enumerator.

#include <gtest/gtest.h>

#include "pgsim/graph/vf2.h"
#include "test_util.h"

namespace pgsim {
namespace {

using ::pgsim::testing::BruteForceEmbeddings;
using ::pgsim::testing::MakeGraph;
using ::pgsim::testing::MakePath;
using ::pgsim::testing::MakeTriangle;
using ::pgsim::testing::RandomGraph;

TEST(Vf2Test, PathInTriangle) {
  EXPECT_TRUE(IsSubgraphIsomorphic(MakePath(3), MakeTriangle(0, 0, 0)));
  EXPECT_FALSE(IsSubgraphIsomorphic(MakeTriangle(0, 0, 0), MakePath(3)));
}

TEST(Vf2Test, VertexLabelsMustMatch) {
  const Graph pattern = MakeGraph({1, 2}, {{0, 1, 0}});
  const Graph yes = MakeGraph({2, 1, 3}, {{0, 1, 0}, {1, 2, 0}});
  const Graph no = MakeGraph({3, 3}, {{0, 1, 0}});
  EXPECT_TRUE(IsSubgraphIsomorphic(pattern, yes));
  EXPECT_FALSE(IsSubgraphIsomorphic(pattern, no));
}

TEST(Vf2Test, EdgeLabelsMustMatch) {
  const Graph pattern = MakeGraph({0, 0}, {{0, 1, 5}});
  const Graph yes = MakeGraph({0, 0}, {{0, 1, 5}});
  const Graph no = MakeGraph({0, 0}, {{0, 1, 6}});
  EXPECT_TRUE(IsSubgraphIsomorphic(pattern, yes));
  EXPECT_FALSE(IsSubgraphIsomorphic(pattern, no));
}

TEST(Vf2Test, NonInducedSemantics) {
  // A path of 3 embeds in a triangle even though the triangle has the extra
  // closing edge (monomorphism, not induced).
  EXPECT_TRUE(IsSubgraphIsomorphic(MakePath(3), MakeTriangle(0, 0, 0)));
}

TEST(Vf2Test, DisconnectedPatternMatches) {
  // Two disjoint edges embed into a path of 5 (edges (0,1) and (2,3)).
  const Graph pattern =
      MakeGraph({0, 0, 0, 0}, {{0, 1, 0}, {2, 3, 0}});
  EXPECT_TRUE(IsSubgraphIsomorphic(pattern, MakePath(5)));
  // But not into a path of 3 (only 2 edges share the middle vertex).
  EXPECT_FALSE(IsSubgraphIsomorphic(pattern, MakePath(3)));
}

TEST(Vf2Test, SingleVertexPattern) {
  const Graph pattern = MakeGraph({7}, {});
  const Graph target = MakeGraph({5, 7}, {{0, 1, 0}});
  const Graph miss = MakeGraph({5, 6}, {{0, 1, 0}});
  EXPECT_TRUE(IsSubgraphIsomorphic(pattern, target));
  EXPECT_FALSE(IsSubgraphIsomorphic(pattern, miss));
}

TEST(Vf2Test, EmbeddingDedupByEdgeSet) {
  // A path of 3 in a triangle: 3 distinct edge pairs, though 6 vertex maps.
  const auto sets = EmbeddingEdgeSets(MakePath(3), MakeTriangle(0, 0, 0), 0);
  EXPECT_EQ(sets.size(), 3u);
}

TEST(Vf2Test, EmbeddingWithoutDedupCountsAutomorphisms) {
  Vf2Options options;
  options.dedup_by_edge_set = false;
  Vf2Scratch scratch;
  size_t count = 0;
  EnumerateEmbeddings(CompileMatchPlan(MakePath(3)), MakeTriangle(0, 0, 0),
                      options, &scratch, [&](const Embedding&) {
                        ++count;
                        return true;
                      });
  EXPECT_EQ(count, 6u);  // 3 middle choices x 2 orientations
}

TEST(Vf2Test, MaxEmbeddingsCapStopsEnumeration) {
  bool truncated = false;
  const auto sets =
      EmbeddingEdgeSets(MakePath(2), MakePath(10), 4, &truncated);
  EXPECT_EQ(sets.size(), 4u);
  EXPECT_TRUE(truncated);
}

TEST(Vf2Test, EmbeddingMapsAreConsistent) {
  const Graph pattern = MakeGraph({1, 2}, {{0, 1, 3}});
  const Graph target =
      MakeGraph({2, 1, 2}, {{0, 1, 3}, {1, 2, 3}});
  Vf2Options options;
  Vf2Scratch scratch;
  size_t checked = 0;
  EnumerateEmbeddings(CompileMatchPlan(pattern), target, options, &scratch,
                      [&](const Embedding& emb) {
    // Vertex labels preserved.
    for (VertexId pv = 0; pv < pattern.NumVertices(); ++pv) {
      EXPECT_EQ(pattern.VertexLabel(pv),
                target.VertexLabel(emb.vertex_map[pv]));
    }
    // Edge images connect the mapped endpoints with the right label.
    for (EdgeId pe = 0; pe < pattern.NumEdges(); ++pe) {
      const Edge& p = pattern.GetEdge(pe);
      const Edge& t = target.GetEdge(emb.edge_map[pe]);
      EXPECT_EQ(pattern.EdgeLabel(pe), target.EdgeLabel(emb.edge_map[pe]));
      const VertexId tu = emb.vertex_map[p.u], tv = emb.vertex_map[p.v];
      EXPECT_TRUE((t.u == std::min(tu, tv)) && (t.v == std::max(tu, tv)));
    }
    ++checked;
    return true;
  });
  EXPECT_EQ(checked, 2u);
}

TEST(AreIsomorphicTest, HandCases) {
  EXPECT_TRUE(AreIsomorphic(MakePath(3), MakePath(3)));
  EXPECT_FALSE(AreIsomorphic(MakePath(3), MakePath(4)));
  EXPECT_FALSE(AreIsomorphic(MakePath(4), MakeTriangle(0, 0, 0)));
  // Same sizes, different labels.
  EXPECT_FALSE(AreIsomorphic(MakeTriangle(0, 0, 0), MakeTriangle(0, 0, 1)));
  EXPECT_TRUE(AreIsomorphic(MakeTriangle(0, 1, 0), MakeTriangle(1, 0, 0)));
}

// Parameterized cross-check against the brute-force oracle over random
// (pattern, target) pairs of varying density and label-alphabet size.
struct RandomCaseParam {
  uint64_t seed;
  uint32_t pattern_n, pattern_extra;
  uint32_t target_n, target_extra;
  uint32_t labels;
};

class Vf2RandomTest : public ::testing::TestWithParam<RandomCaseParam> {};

TEST_P(Vf2RandomTest, MatchesBruteForceEmbeddingSets) {
  const RandomCaseParam p = GetParam();
  Rng rng(p.seed);
  for (int trial = 0; trial < 12; ++trial) {
    const Graph pattern =
        RandomGraph(&rng, p.pattern_n, p.pattern_extra, p.labels);
    const Graph target = RandomGraph(&rng, p.target_n, p.target_extra,
                                     p.labels);
    const auto expected = BruteForceEmbeddings(pattern, target);
    const auto actual = EmbeddingEdgeSets(pattern, target, 0);
    EXPECT_EQ(actual.size(), expected.size());
    for (const EdgeBitset& e : expected) {
      EXPECT_NE(std::find(actual.begin(), actual.end(), e), actual.end());
    }
    EXPECT_EQ(IsSubgraphIsomorphic(pattern, target), !expected.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Vf2RandomTest,
    ::testing::Values(RandomCaseParam{101, 3, 1, 6, 4, 1},
                      RandomCaseParam{102, 3, 1, 6, 4, 2},
                      RandomCaseParam{103, 4, 2, 7, 5, 1},
                      RandomCaseParam{104, 4, 2, 7, 5, 3},
                      RandomCaseParam{105, 5, 3, 7, 6, 2},
                      RandomCaseParam{106, 2, 0, 8, 8, 1},
                      RandomCaseParam{107, 5, 5, 6, 6, 2}));

}  // namespace
}  // namespace pgsim
