// Tests for embedding cuts: minimal hitting sets, the parallel graph cG of
// Theorem 6, and their equivalence (including the paper's Example 7).

#include <algorithm>

#include <gtest/gtest.h>

#include "oracles/bounds_reference.h"
#include "pgsim/bounds/embedding_cuts.h"
#include "pgsim/graph/vf2.h"
#include "test_util.h"

namespace pgsim {
namespace {

using ::pgsim::testing::MakeGraph;

bool IsCut(const EdgeBitset& cut, const std::vector<EdgeBitset>& embeddings) {
  for (const EdgeBitset& emb : embeddings) {
    if (!cut.Intersects(emb)) return false;
  }
  return true;
}

bool IsMinimalCut(const EdgeBitset& cut,
                  const std::vector<EdgeBitset>& embeddings) {
  if (!IsCut(cut, embeddings)) return false;
  for (uint32_t e : cut.ToVector()) {
    EdgeBitset smaller = cut;
    smaller.Reset(e);
    if (IsCut(smaller, embeddings)) return false;
  }
  return true;
}

// Brute-force minimal cuts by subset enumeration (small universes only).
std::vector<EdgeBitset> BruteForceMinimalCuts(
    const std::vector<EdgeBitset>& embeddings, uint32_t num_edges,
    size_t max_size) {
  std::vector<EdgeBitset> cuts;
  for (uint32_t mask = 1; mask < (1U << num_edges); ++mask) {
    EdgeBitset candidate(num_edges);
    for (uint32_t e = 0; e < num_edges; ++e) {
      if ((mask >> e) & 1U) candidate.Set(e);
    }
    if (candidate.Count() > max_size) continue;
    if (IsMinimalCut(candidate, embeddings)) cuts.push_back(candidate);
  }
  return cuts;
}

bool SameCutSets(std::vector<EdgeBitset> a, std::vector<EdgeBitset> b) {
  if (a.size() != b.size()) return false;
  for (const EdgeBitset& x : a) {
    if (std::find(b.begin(), b.end(), x) == b.end()) return false;
  }
  return true;
}

TEST(EmbeddingCutsTest, SingleEmbeddingCutsAreItsSingletons) {
  const std::vector<EdgeBitset> embeddings{
      EdgeBitset::FromIndices(6, {1, 3, 4})};
  CutEnumOptions options;
  const auto cuts = EnumerateMinimalEmbeddingCuts(embeddings, 6, options);
  EXPECT_EQ(cuts.size(), 3u);
  for (const EdgeBitset& c : cuts) {
    EXPECT_EQ(c.Count(), 1u);
    EXPECT_TRUE(IsMinimalCut(c, embeddings));
  }
}

TEST(EmbeddingCutsTest, DisjointEmbeddingsNeedOneEdgeEach) {
  const std::vector<EdgeBitset> embeddings{
      EdgeBitset::FromIndices(6, {0, 1}), EdgeBitset::FromIndices(6, {2, 3})};
  CutEnumOptions options;
  const auto cuts = EnumerateMinimalEmbeddingCuts(embeddings, 6, options);
  EXPECT_EQ(cuts.size(), 4u);  // one edge from each embedding: 2 x 2
  for (const EdgeBitset& c : cuts) {
    EXPECT_EQ(c.Count(), 2u);
    EXPECT_TRUE(IsMinimalCut(c, embeddings));
  }
}

TEST(EmbeddingCutsTest, SharedEdgeGivesSingletonCut) {
  const std::vector<EdgeBitset> embeddings{
      EdgeBitset::FromIndices(5, {0, 1}), EdgeBitset::FromIndices(5, {1, 2})};
  CutEnumOptions options;
  const auto cuts = EnumerateMinimalEmbeddingCuts(embeddings, 5, options);
  // {1} kills both; {0,2} is the other minimal cut.
  ASSERT_EQ(cuts.size(), 2u);
  EXPECT_TRUE(SameCutSets(cuts, {EdgeBitset::FromIndices(5, {1}),
                                 EdgeBitset::FromIndices(5, {0, 2})}));
}

TEST(EmbeddingCutsTest, MatchesBruteForceOnRandomHypergraphs) {
  Rng rng(401);
  for (int trial = 0; trial < 30; ++trial) {
    const uint32_t num_edges = 8;
    const size_t num_embeddings = 1 + rng.Uniform(4);
    std::vector<EdgeBitset> embeddings;
    for (size_t i = 0; i < num_embeddings; ++i) {
      EdgeBitset emb(num_edges);
      const uint32_t size = 1 + rng.Uniform(3);
      for (uint32_t j = 0; j < size; ++j) emb.Set(rng.Uniform(num_edges));
      embeddings.push_back(emb);
    }
    CutEnumOptions options;
    options.max_cuts = 1000;
    options.max_cut_size = 8;
    options.max_nodes = 1'000'000;
    const auto actual =
        EnumerateMinimalEmbeddingCuts(embeddings, num_edges, options);
    const auto expected = BruteForceMinimalCuts(embeddings, num_edges, 8);
    EXPECT_TRUE(SameCutSets(actual, expected)) << "trial=" << trial;
  }
}

TEST(EmbeddingCutsTest, CutSizeCapDropsLargeCuts) {
  // Three disjoint embeddings: every minimal cut has exactly 3 edges.
  const std::vector<EdgeBitset> embeddings{EdgeBitset::FromIndices(9, {0}),
                                           EdgeBitset::FromIndices(9, {1}),
                                           EdgeBitset::FromIndices(9, {2})};
  CutEnumOptions options;
  options.max_cut_size = 2;
  const auto cuts = EnumerateMinimalEmbeddingCuts(embeddings, 9, options);
  EXPECT_TRUE(cuts.empty());
}

TEST(EmbeddingCutsTest, MaxCutsTruncates) {
  std::vector<EdgeBitset> embeddings{EdgeBitset::FromIndices(8, {0, 1, 2, 3}),
                                     EdgeBitset::FromIndices(8, {4, 5, 6, 7})};
  CutEnumOptions options;
  options.max_cuts = 3;  // 16 exist
  bool truncated = false;
  const auto cuts =
      EnumerateMinimalEmbeddingCuts(embeddings, 8, options, &truncated);
  EXPECT_EQ(cuts.size(), 3u);
  EXPECT_TRUE(truncated);
  for (const auto& c : cuts) EXPECT_TRUE(IsMinimalCut(c, embeddings));
}

TEST(ParallelGraphTest, StructureOfTheorem6) {
  // Two embeddings of 2 edges each: each line contributes k+1 = 3 cG edges
  // (1 connector at s, 2 labeled, 1 connector at t) -> 4 edges per line.
  const std::vector<EdgeBitset> embeddings{
      EdgeBitset::FromIndices(4, {0, 1}), EdgeBitset::FromIndices(4, {2, 3})};
  const ParallelGraph cg = BuildParallelGraph(embeddings);
  EXPECT_EQ(cg.num_nodes, 2u + 3u + 3u);
  EXPECT_EQ(cg.edges.size(), 8u);
  size_t labeled = 0;
  for (const auto& e : cg.edges) {
    if (e.label != kInvalidEdge) ++labeled;
  }
  EXPECT_EQ(labeled, 4u);
}

TEST(ParallelGraphTest, CutsEqualHittingSets) {
  Rng rng(409);
  for (int trial = 0; trial < 15; ++trial) {
    const uint32_t num_edges = 7;
    std::vector<EdgeBitset> embeddings;
    const size_t k = 1 + rng.Uniform(3);
    for (size_t i = 0; i < k; ++i) {
      EdgeBitset emb(num_edges);
      const uint32_t size = 1 + rng.Uniform(3);
      for (uint32_t j = 0; j < size; ++j) emb.Set(rng.Uniform(num_edges));
      embeddings.push_back(emb);
    }
    const ParallelGraph cg = BuildParallelGraph(embeddings);
    const auto via_cg = EnumerateParallelGraphCuts(cg, num_edges, num_edges);
    CutEnumOptions options;
    options.max_cuts = 1000;
    options.max_cut_size = num_edges;
    options.max_nodes = 1'000'000;
    const auto via_hitting =
        EnumerateMinimalEmbeddingCuts(embeddings, num_edges, options);
    EXPECT_TRUE(SameCutSets(via_cg, via_hitting)) << "trial=" << trial;
  }
}

TEST(ParallelGraphTest, PaperExample7) {
  // Feature f2's embeddings in graph 002 (Figure 7): EM1={e1,e2},
  // EM2={e2,e3}, EM3={e3,e4} (0-indexed here as {0,1},{1,2},{2,3}).
  const std::vector<EdgeBitset> embeddings{EdgeBitset::FromIndices(5, {0, 1}),
                                           EdgeBitset::FromIndices(5, {1, 2}),
                                           EdgeBitset::FromIndices(5, {2, 3})};
  const ParallelGraph cg = BuildParallelGraph(embeddings);
  const auto cuts = EnumerateParallelGraphCuts(cg, 5, 5);
  CutEnumOptions options;
  options.max_cuts = 100;
  options.max_cut_size = 5;
  const auto expected = EnumerateMinimalEmbeddingCuts(embeddings, 5, options);
  EXPECT_TRUE(SameCutSets(cuts, expected));
  // Example 7 lists {e2,e4}, {e2,e3} (both minimal, found here) and
  // {e1,e3,e4} — but {e1,e3} already severs all three lines, so the paper's
  // third cut is not minimal; the true minimal cuts are {e2,e4}, {e2,e3},
  // {e1,e3} (0-indexed: {1,3}, {1,2}, {0,2}).
  EXPECT_TRUE(SameCutSets(cuts, {EdgeBitset::FromIndices(5, {1, 3}),
                                 EdgeBitset::FromIndices(5, {1, 2}),
                                 EdgeBitset::FromIndices(5, {0, 2})}));
}

}  // namespace
}  // namespace pgsim
