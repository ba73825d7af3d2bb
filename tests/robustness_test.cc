// Robustness and cross-cutting property tests: the full pipeline on
// tree-model (overlapping ne-set) databases, the >64-term exact-DNF
// fallback, cap/saturation behaviors, and the star-query extractor.

#include <gtest/gtest.h>

#include "oracles/mcs.h"
#include "oracles/possible_world.h"
#include "pgsim/datasets/synthetic.h"
#include "pgsim/graph/relaxation.h"
#include "pgsim/graph/vf2.h"
#include "pgsim/index/pmi.h"
#include "pgsim/prob/dnf_exact.h"
#include "pgsim/query/processor.h"
#include "test_util.h"

namespace pgsim {
namespace {

using ::pgsim::testing::RandomGraph;
using ::pgsim::testing::RandomProbGraph;

TEST(TreeModelPipelineTest, PipelineMatchesExactScanOnOverlappingNeSets) {
  SyntheticOptions options;
  options.num_graphs = 8;
  options.avg_vertices = 7;
  options.edge_factor = 1.3;
  options.num_vertex_labels = 3;
  options.overlap_fraction = 0.7;  // force kTree models
  options.seed = 5001;
  auto db = GenerateDatabase(options).value();
  size_t tree_models = 0;
  for (const auto& g : db) tree_models += g.kind() == JointModelKind::kTree;
  ASSERT_GT(tree_models, 0u);

  PmiBuildOptions build;
  build.miner.beta = 0.2;
  build.miner.gamma = -1.0;
  build.miner.max_vertices = 3;
  build.sip.mc.min_samples = 3000;
  build.sip.mc.max_samples = 3000;
  auto pmi = ProbabilisticMatrixIndex::Build(db, build).value();
  std::vector<Graph> certain;
  for (const auto& g : db) certain.push_back(g.certain());
  auto filter = StructuralFilter::Build(certain, pmi.features());
  const QueryProcessor processor(&db, &pmi, &filter);

  Rng rng(5);
  QueryOptions qopts;
  qopts.delta = 1;
  qopts.epsilon = 0.4;
  qopts.verify_mode = QueryOptions::VerifyMode::kExact;
  for (int trial = 0; trial < 3; ++trial) {
    auto q = ExtractQuery(certain[rng.Uniform(certain.size())], 4, &rng);
    ASSERT_TRUE(q.ok());
    auto pipeline = processor.Query(*q, qopts);
    auto exact = processor.ExactScan(*q, qopts);
    ASSERT_TRUE(pipeline.ok());
    ASSERT_TRUE(exact.ok());
    // Disagreements only near the threshold (Monte-Carlo PMI bounds).
    std::vector<uint32_t> sym_diff;
    std::set_symmetric_difference(pipeline->begin(), pipeline->end(),
                                  exact->begin(), exact->end(),
                                  std::back_inserter(sym_diff));
    auto relaxed = GenerateRelaxedQueries(*q, qopts.delta);
    ASSERT_TRUE(relaxed.ok());
    for (uint32_t gi : sym_diff) {
      auto ssp = ExactSubgraphSimilarityProbability(db[gi], *relaxed);
      ASSERT_TRUE(ssp.ok());
      EXPECT_NEAR(*ssp, qopts.epsilon, 0.12) << "graph " << gi;
    }
  }
}

TEST(DnfFallbackTest, ManyTermsMatchBruteForceViaShannon) {
  // > 64 absorbed terms forces the Shannon engine even on partition models.
  Rng rng(5003);
  const Graph g = RandomGraph(&rng, 10, 9, 1);
  const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
  const uint32_t m = pg.NumEdges();
  ASSERT_GE(m, 13u);  // C(13, 2) = 78 > 64 pair terms
  // 2-edge terms: all pairs (i, j) gives C(m,2) >= 36; add 3-edge terms to
  // exceed 64 after absorption... use all pairs plus shifted triples.
  std::vector<EdgeBitset> terms;
  for (uint32_t i = 0; i < m; ++i) {
    for (uint32_t j = i + 1; j < m; ++j) {
      terms.push_back(EdgeBitset::FromIndices(m, {i, j}));
    }
  }
  const auto reduced = AbsorbDnfTerms(terms);
  ASSERT_GT(reduced.size(), 64u);
  auto fast = ExactDnfProbability(pg, terms);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  // Brute force over worlds.
  double expected = 0.0;
  ASSERT_TRUE(EnumerateWorlds(pg,
                              [&](const EdgeBitset& world, double p) {
                                for (const EdgeBitset& t : terms) {
                                  if (world.ContainsAll(t)) {
                                    expected += p;
                                    break;
                                  }
                                }
                                return true;
                              })
                  .ok());
  EXPECT_NEAR(*fast, expected, 1e-9);
}

TEST(RelaxationCapTest, MaxRelaxedGraphsCapSurfaces) {
  Rng rng(5007);
  // A query whose relaxations are all non-isomorphic: distinct labels.
  GraphBuilder builder;
  for (uint32_t i = 0; i < 7; ++i) builder.AddVertex(i);
  for (uint32_t i = 0; i + 1 < 7; ++i) {
    ASSERT_TRUE(builder.AddEdge(i, i + 1, 0).ok());
  }
  const Graph q = builder.Build();
  RelaxationOptions options;
  options.max_relaxed_graphs = 3;
  auto u = GenerateRelaxedQueries(q, 2, options);
  ASSERT_FALSE(u.ok());
  EXPECT_EQ(u.status().code(), StatusCode::kResourceExhausted);
}

TEST(StructuralFilterSaturationTest, SaturatedCountsStaySound) {
  SyntheticOptions options;
  options.num_graphs = 10;
  options.avg_vertices = 9;
  options.num_vertex_labels = 2;  // many embeddings -> saturation
  options.seed = 5011;
  auto db = GenerateDatabase(options).value();
  std::vector<Graph> certain;
  for (const auto& g : db) certain.push_back(g.certain());
  FeatureMinerOptions miner;
  miner.beta = 0.2;
  miner.gamma = -1.0;
  miner.max_vertices = 3;
  auto features = MineFeatures(certain, miner).value();
  StructuralFilterOptions sf_options;
  sf_options.max_count = 1;  // force saturation nearly everywhere
  sf_options.exact_check = false;
  auto filter = StructuralFilter::Build(certain, features.features,
                                        sf_options);
  Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    const uint32_t delta = trial % 2;
    auto q = ExtractQuery(certain[rng.Uniform(certain.size())], 3 + delta,
                          &rng);
    ASSERT_TRUE(q.ok());
    auto relaxed = GenerateRelaxedQueries(*q, delta);
    ASSERT_TRUE(relaxed.ok());
    const auto survivors = filter.Filter(*q, *relaxed, delta);
    for (uint32_t gi = 0; gi < certain.size(); ++gi) {
      if (IsSubgraphSimilar(*q, certain[gi], delta)) {
        EXPECT_NE(std::find(survivors.begin(), survivors.end(), gi),
                  survivors.end())
            << "saturated filter dropped a true answer";
      }
    }
  }
}

TEST(StarQueryTest, ExtractsRequestedStar) {
  Rng rng(5013);
  const Graph g = RandomGraph(&rng, 10, 8, 2);
  auto star = ExtractStarQuery(g, 3, &rng);
  if (!star.ok()) GTEST_SKIP() << "no vertex of degree >= 3 in this draw";
  EXPECT_EQ(star->NumEdges(), 3u);
  EXPECT_EQ(star->NumVertices(), 4u);
  // One center of degree 3, three leaves of degree 1.
  uint32_t centers = 0, leaves = 0;
  for (VertexId v = 0; v < star->NumVertices(); ++v) {
    if (star->Degree(v) == 3) ++centers;
    if (star->Degree(v) == 1) ++leaves;
  }
  EXPECT_EQ(centers, 1u);
  EXPECT_EQ(leaves, 3u);
  EXPECT_TRUE(IsSubgraphIsomorphic(*star, g));
}

TEST(StarQueryTest, FailsWithoutBigEnoughHub) {
  Rng rng(5017);
  const Graph path = ::pgsim::testing::MakePath(5);
  EXPECT_FALSE(ExtractStarQuery(path, 3, &rng).ok());
}

TEST(HubGroupingTest, HubEdgesShareNeSets) {
  SyntheticOptions options;
  options.num_graphs = 4;
  options.avg_vertices = 12;
  options.edge_factor = 1.6;
  options.max_ne_size = 4;
  options.group_hubs_first = true;
  options.seed = 5019;
  auto db = GenerateDatabase(options).value();
  for (const auto& g : db) {
    // The highest-degree vertex's edges should concentrate in few groups:
    // at most ceil(degree / max_ne_size) + 1 groups touch it.
    VertexId hub = 0;
    for (VertexId v = 0; v < g.certain().NumVertices(); ++v) {
      if (g.certain().Degree(v) > g.certain().Degree(hub)) hub = v;
    }
    EdgeBitset hub_edges(g.NumEdges());
    for (const AdjEntry& adj : g.certain().Neighbors(hub)) {
      hub_edges.Set(adj.edge);
    }
    size_t groups_touching = 0;
    for (const NeighborEdgeSet& ne : g.ne_sets()) {
      for (EdgeId e : ne.edges) {
        if (hub_edges.Test(e)) {
          ++groups_touching;
          break;
        }
      }
    }
    const size_t degree = g.certain().Degree(hub);
    EXPECT_LE(groups_touching, (degree + 3) / 4 + 1);
  }
}

TEST(PmiRebuildDeterminismTest, SameSeedSameIndex) {
  SyntheticOptions options;
  options.num_graphs = 6;
  options.avg_vertices = 8;
  options.seed = 5023;
  auto db = GenerateDatabase(options).value();
  PmiBuildOptions build;
  build.miner.beta = 0.2;
  build.miner.gamma = -1.0;
  build.seed = 99;
  auto a = ProbabilisticMatrixIndex::Build(db, build).value();
  auto b = ProbabilisticMatrixIndex::Build(db, build).value();
  ASSERT_EQ(a.features().size(), b.features().size());
  for (uint32_t gi = 0; gi < a.num_graphs(); ++gi) {
    const auto& ea = a.EntriesFor(gi);
    const auto& eb = b.EntriesFor(gi);
    ASSERT_EQ(ea.size(), eb.size());
    for (size_t k = 0; k < ea.size(); ++k) {
      EXPECT_EQ(ea[k].feature_id, eb[k].feature_id);
      EXPECT_FLOAT_EQ(ea[k].lower_opt, eb[k].lower_opt);
      EXPECT_FLOAT_EQ(ea[k].upper_opt, eb[k].upper_opt);
    }
  }
}

}  // namespace
}  // namespace pgsim
