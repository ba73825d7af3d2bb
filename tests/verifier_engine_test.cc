// Tests for PR 3's verification engine: the scratch-threaded,
// support-restricted Karp-Luby sampler. (Byte-identical pipeline answers
// with candidates verified in parallel are pinned by task_scheduler_test's
// StealingBatchTest.MatchesSequentialQueryAtEveryWidth and by
// golden_pipeline_test.)
//
//   * sampled-vs-exact agreement within the tau/xi tolerance on small
//     seeded graphs, for partition AND tree (overlapping ne set) models;
//   * steady-state scratch reuse: a second pass over the same workload
//     performs no event-pool growth;
//   * determinism: same RNG state => bit-identical estimate, with a fresh
//     or a dirty reused scratch, and legacy wrapper == scratch API;
//   * the inclusive embedding caps (satellite fix: a relaxed query with
//     exactly max_embeddings_per_rq embeddings, or a candidate with exactly
//     max_total_embeddings events, must NOT error);
//   * BuildEdgeSubsetGraph (the world-enumeration fast path) matches a
//     GraphBuilder-built world.

#include <gtest/gtest.h>

#include "pgsim/datasets/synthetic.h"
#include "pgsim/graph/relaxation.h"
#include "pgsim/graph/vf2.h"
#include "pgsim/query/verifier.h"
#include "test_util.h"

namespace pgsim {
namespace {

using ::pgsim::testing::MakeGraph;
using ::pgsim::testing::MakePath;
using ::pgsim::testing::RandomGraph;
using ::pgsim::testing::RandomProbGraph;

// Overlapping ne sets (kTree): two vertex-anchored groups sharing edge 2.
ProbabilisticGraph MakeTreeModelGraph(Rng* rng) {
  const Graph g = MakeGraph({0, 0, 0, 0},
                            {{0, 1, 0}, {0, 2, 0}, {0, 3, 0}, {2, 3, 0}});
  std::vector<double> w1(8), w2(4);
  for (auto& w : w1) w = 0.05 + rng->UniformDouble();
  for (auto& w : w2) w = 0.05 + rng->UniformDouble();
  NeighborEdgeSet ne1, ne2;
  ne1.edges = {0, 1, 2};
  ne1.table = JointProbTable::FromWeights(w1).value();
  ne2.edges = {2, 3};
  ne2.table = JointProbTable::FromWeights(w2).value();
  auto pg = ProbabilisticGraph::Create(g, {ne1, ne2});
  EXPECT_TRUE(pg.ok());
  EXPECT_EQ(pg->kind(), JointModelKind::kTree);
  return std::move(pg).value();
}

TEST(VerifierEngineTest, SampledMatchesExactWithinTolerance_Partition) {
  Rng rng(9001);
  VerifierOptions options;
  options.mc.xi = 0.05;
  options.mc.tau = 0.03;
  options.mc.max_samples = 50'000;
  VerifierScratch scratch;
  int checked = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = RandomGraph(&rng, 6, 3, 2);
    const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
    const Graph q = RandomGraph(&rng, 4, 1, 2);
    for (uint32_t delta = 0; delta <= 1 && delta < q.NumEdges(); ++delta) {
      auto relaxed = GenerateRelaxedQueries(q, delta);
      ASSERT_TRUE(relaxed.ok());
      auto exact = ExactSubgraphSimilarityProbability(pg, *relaxed, options,
                                                      &scratch);
      ASSERT_TRUE(exact.ok());
      auto smp = SampleSubgraphSimilarityProbability(pg, *relaxed, options,
                                                     &rng, &scratch);
      ASSERT_TRUE(smp.ok());
      EXPECT_NEAR(*smp, *exact, 0.05) << "trial=" << trial
                                      << " delta=" << delta;
      ++checked;
    }
  }
  EXPECT_GT(checked, 4);
}

TEST(VerifierEngineTest, SampledMatchesExactWithinTolerance_TreeModel) {
  Rng rng(9011);
  VerifierOptions options;
  options.mc.xi = 0.05;
  options.mc.tau = 0.03;
  options.mc.max_samples = 50'000;
  VerifierScratch scratch;
  for (int trial = 0; trial < 4; ++trial) {
    const ProbabilisticGraph pg = MakeTreeModelGraph(&rng);
    const Graph q = MakePath(3, 0);
    auto relaxed = GenerateRelaxedQueries(q, 1);
    ASSERT_TRUE(relaxed.ok());
    auto exact = ExactSubgraphSimilarityProbability(pg, *relaxed, options,
                                                    &scratch);
    ASSERT_TRUE(exact.ok());
    auto smp = SampleSubgraphSimilarityProbability(pg, *relaxed, options,
                                                   &rng, &scratch);
    ASSERT_TRUE(smp.ok());
    EXPECT_NEAR(*smp, *exact, 0.05) << "trial=" << trial;
  }
}

TEST(VerifierEngineTest, ScratchReuseAndDeterminism) {
  Rng rng(9021);
  const Graph g = RandomGraph(&rng, 7, 4, 2);
  const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
  const Graph q = RandomGraph(&rng, 4, 1, 2);
  auto relaxed = GenerateRelaxedQueries(q, 1);
  ASSERT_TRUE(relaxed.ok());
  VerifierOptions options;
  options.mc.min_samples = 2000;
  options.mc.max_samples = 2000;

  // Same RNG state => bit-identical estimate, fresh scratch vs dirty reused
  // scratch vs the legacy (scratch-free) wrapper.
  VerifierScratch fresh;
  Rng r1(77);
  auto a = SampleSubgraphSimilarityProbability(pg, *relaxed, options, &r1,
                                               &fresh);
  ASSERT_TRUE(a.ok());
  Rng r2(77);
  auto b = SampleSubgraphSimilarityProbability(pg, *relaxed, options, &r2,
                                               &fresh);  // dirty reuse
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  Rng r3(77);
  auto c = SampleSubgraphSimilarityProbability(pg, *relaxed, options, &r3);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*a, *c);
}

TEST(VerifierEngineTest, SecondPassPerformsNoPoolGrowth) {
  // A small workload of candidates; after one full pass the scratch has
  // seen the largest candidate, so a second pass must not grow the pool.
  SyntheticOptions dataset;
  dataset.num_graphs = 8;
  dataset.avg_vertices = 10;
  dataset.num_vertex_labels = 3;
  dataset.seed = 9031;
  const auto db = GenerateDatabase(dataset).value();
  Rng qrng(9032);
  const Graph q = ExtractQuery(db[0].certain(), 4, &qrng).value();
  auto relaxed = GenerateRelaxedQueries(q, 1);
  ASSERT_TRUE(relaxed.ok());
  VerifierOptions options;
  options.mc.min_samples = 300;
  options.mc.max_samples = 300;

  VerifierScratch scratch;
  Rng rng(9033);
  for (const auto& g : db) {
    (void)SampleSubgraphSimilarityProbability(g, *relaxed, options, &rng,
                                              &scratch);
  }
  const size_t capacity_after_first = scratch.PoolCapacityWords();
  EXPECT_GT(capacity_after_first, 0u);
  for (const auto& g : db) {
    (void)SampleSubgraphSimilarityProbability(g, *relaxed, options, &rng,
                                              &scratch);
  }
  EXPECT_EQ(scratch.PoolCapacityWords(), capacity_after_first);
}

TEST(VerifierEngineTest, PerRqCapIsInclusive) {
  // A single-edge pattern has exactly 4 embeddings in a 5-path: a cap of 4
  // must succeed (the old collector reported truncation at exactly-cap),
  // and a cap of 3 must error.
  Rng rng(9051);
  const Graph target = MakePath(5);
  const ProbabilisticGraph pg = RandomProbGraph(target, &rng);
  const Graph q = MakePath(2);
  auto relaxed = GenerateRelaxedQueries(q, 0);
  ASSERT_TRUE(relaxed.ok());
  VerifierOptions options;

  VerifierScratch scratch;
  options.max_embeddings_per_rq = 4;
  ASSERT_TRUE(CollectSimilarityEvents(pg, *relaxed, options, &scratch).ok());
  EXPECT_EQ(scratch.events.size(), 4u);

  options.max_embeddings_per_rq = 3;
  EXPECT_EQ(CollectSimilarityEvents(pg, *relaxed, options, &scratch).code(),
            StatusCode::kResourceExhausted);
}

TEST(VerifierEngineTest, TotalCapIsInclusive) {
  Rng rng(9053);
  const Graph target = MakePath(5);
  const ProbabilisticGraph pg = RandomProbGraph(target, &rng);
  const Graph q = MakePath(2);
  auto relaxed = GenerateRelaxedQueries(q, 0);
  ASSERT_TRUE(relaxed.ok());
  VerifierOptions options;

  VerifierScratch scratch;
  options.max_total_embeddings = 4;  // exactly the distinct event count
  ASSERT_TRUE(CollectSimilarityEvents(pg, *relaxed, options, &scratch).ok());
  EXPECT_EQ(scratch.events.size(), 4u);

  options.max_total_embeddings = 3;
  EXPECT_EQ(CollectSimilarityEvents(pg, *relaxed, options, &scratch).code(),
            StatusCode::kResourceExhausted);
}

TEST(VerifierEngineTest, DedupTableGrowthKeepsEveryDistinctEvent) {
  // A star with 800 leaves gives a single-edge query exactly 800 distinct
  // one-edge events — enough to force the open-addressing dedup table to
  // grow mid-collection (default table: 1024 slots, grows at the 769th
  // insert). Regression test: growth must not rehash the in-flight row,
  // which used to make the triggering event a "duplicate of itself" and
  // silently drop it.
  constexpr uint32_t kLeaves = 800;
  GraphBuilder builder;
  const VertexId hub = builder.AddVertex(0);
  std::vector<NeighborEdgeSet> ne_sets;
  for (uint32_t i = 0; i < kLeaves; ++i) {
    const VertexId leaf = builder.AddVertex(1);
    auto e = builder.AddEdge(hub, leaf, 0);
    ASSERT_TRUE(e.ok());
    NeighborEdgeSet ne;
    ne.edges = {*e};
    ne.table = JointProbTable::Independent({0.5}).value();
    ne_sets.push_back(std::move(ne));
  }
  auto pg = ProbabilisticGraph::Create(builder.Build(), std::move(ne_sets));
  ASSERT_TRUE(pg.ok());
  const Graph q = MakeGraph({0, 1}, {{0, 1, 0}});
  VerifierOptions options;
  options.max_embeddings_per_rq = 0;  // uncapped (also pins 0's meaning)
  options.max_total_embeddings = 4096;
  VerifierScratch scratch;
  ASSERT_TRUE(CollectSimilarityEvents(*pg, {q}, options, &scratch).ok());
  EXPECT_EQ(scratch.events.size(), kLeaves);
}

TEST(VerifierEngineTest, BuildEdgeSubsetGraphMatchesBuilder) {
  Rng rng(9061);
  const Graph base = RandomGraph(&rng, 8, 6, 3);
  Graph reused;
  for (int trial = 0; trial < 20; ++trial) {
    EdgeBitset present(base.NumEdges());
    for (EdgeId e = 0; e < base.NumEdges(); ++e) {
      if (rng.Bernoulli(0.5)) present.Set(e);
    }
    // Reference: the old per-world GraphBuilder path.
    GraphBuilder builder;
    for (VertexId v = 0; v < base.NumVertices(); ++v) {
      builder.AddVertex(base.VertexLabel(v));
    }
    for (uint32_t e : present.ToVector()) {
      const Edge& edge = base.GetEdge(e);
      ASSERT_TRUE(builder.AddEdge(edge.u, edge.v, edge.label).ok());
    }
    const Graph expected = builder.Build();

    BuildEdgeSubsetGraph(base, present, &reused);  // storage reused per trial
    ASSERT_EQ(reused.NumVertices(), expected.NumVertices());
    ASSERT_EQ(reused.NumEdges(), expected.NumEdges());
    EXPECT_EQ(reused.VertexLabels(), expected.VertexLabels());
    EXPECT_EQ(reused.AdjOffsets(), expected.AdjOffsets());
    for (EdgeId e = 0; e < reused.NumEdges(); ++e) {
      EXPECT_EQ(reused.GetEdge(e).u, expected.GetEdge(e).u);
      EXPECT_EQ(reused.GetEdge(e).v, expected.GetEdge(e).v);
      EXPECT_EQ(reused.GetEdge(e).label, expected.GetEdge(e).label);
    }
    for (VertexId v = 0; v < reused.NumVertices(); ++v) {
      const auto a = reused.Neighbors(v);
      const auto b = expected.Neighbors(v);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].neighbor, b[i].neighbor);
        EXPECT_EQ(a[i].edge, b[i].edge);
      }
    }
  }
}

}  // namespace
}  // namespace pgsim
