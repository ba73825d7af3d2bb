// Tests for the synthetic dataset generator (the Section 6 substitute):
// structural validity, probability statistics, JPT rules, families, and
// query extraction.

#include <gtest/gtest.h>

#include "oracles/possible_world.h"
#include "pgsim/datasets/synthetic.h"
#include "pgsim/graph/vf2.h"

namespace pgsim {
namespace {

SyntheticOptions SmallOptions(uint64_t seed) {
  SyntheticOptions options;
  options.num_graphs = 12;
  options.avg_vertices = 10;
  options.edge_factor = 1.4;
  options.seed = seed;
  return options;
}

TEST(SyntheticTest, DatabaseShapeAndValidity) {
  auto db = GenerateDatabase(SmallOptions(1101));
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db->size(), 12u);
  for (const ProbabilisticGraph& g : *db) {
    EXPECT_GE(g.certain().NumVertices(), 4u);
    EXPECT_TRUE(g.certain().IsConnected());
    EXPECT_EQ(g.kind(), JointModelKind::kPartition);
    // Every ne set's arity is capped and its table normalized.
    for (const NeighborEdgeSet& ne : g.ne_sets()) {
      EXPECT_LE(ne.edges.size(), 3u);
      EXPECT_NEAR(ne.table.TotalMass(), 1.0, 1e-9);
    }
  }
}

TEST(SyntheticTest, Deterministic) {
  auto a = GenerateDatabase(SmallOptions(7));
  auto b = GenerateDatabase(SmallOptions(7));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_TRUE(AreIsomorphic((*a)[i].certain(), (*b)[i].certain()));
    EXPECT_EQ((*a)[i].certain().NumEdges(), (*b)[i].certain().NumEdges());
    for (EdgeId e = 0; e < (*a)[i].NumEdges(); ++e) {
      EXPECT_NEAR((*a)[i].EdgeMarginal(e), (*b)[i].EdgeMarginal(e), 1e-12);
    }
  }
}

TEST(SyntheticTest, MeanEdgeProbabilityNearPaperValue) {
  SyntheticOptions options = SmallOptions(1103);
  options.num_graphs = 30;
  options.jpt_rule = JptRule::kIndependent;  // marginals == drawn p's
  auto db = GenerateDatabase(options);
  ASSERT_TRUE(db.ok());
  double sum = 0.0;
  size_t n = 0;
  for (const ProbabilisticGraph& g : *db) {
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      sum += g.EdgeMarginal(e);
      ++n;
    }
  }
  EXPECT_NEAR(sum / n, 0.383, 0.05);
}

TEST(SyntheticTest, PaperMaxRuleInducesCorrelation) {
  // Under the max rule the joint is NOT the product of its marginals for
  // multi-edge ne sets (that is the point of the correlated model).
  SyntheticOptions options = SmallOptions(1109);
  options.num_graphs = 5;
  auto db = GenerateDatabase(options);
  ASSERT_TRUE(db.ok());
  bool found_correlated_set = false;
  for (const ProbabilisticGraph& g : *db) {
    for (const NeighborEdgeSet& ne : g.ne_sets()) {
      if (ne.edges.size() < 2) continue;
      // Compare Pr(all present) with the product of single marginals.
      const uint32_t all = (1U << ne.edges.size()) - 1;
      double product = 1.0;
      for (size_t j = 0; j < ne.edges.size(); ++j) {
        product *= ne.table.Marginal(1U << j, 1U << j);
      }
      if (std::abs(ne.table.MarginalAllPresent(all) - product) > 1e-3) {
        found_correlated_set = true;
      }
    }
  }
  EXPECT_TRUE(found_correlated_set);
}

TEST(SyntheticTest, ComonotoneRulePushesMassToExtremes) {
  SyntheticOptions options = SmallOptions(1117);
  options.jpt_rule = JptRule::kComonotone;
  options.comonotone_lambda = 0.9;
  options.num_graphs = 3;
  auto db = GenerateDatabase(options);
  ASSERT_TRUE(db.ok());
  for (const ProbabilisticGraph& g : *db) {
    for (const NeighborEdgeSet& ne : g.ne_sets()) {
      if (ne.edges.size() < 2) continue;
      const uint32_t all = (1U << ne.edges.size()) - 1;
      // All-present plus all-absent should dominate the mass.
      EXPECT_GT(ne.table.Prob(0) + ne.table.Prob(all), 0.5);
    }
  }
}

TEST(SyntheticTest, OverlapFractionProducesTreeModels) {
  SyntheticOptions options = SmallOptions(1123);
  options.overlap_fraction = 0.8;
  options.num_graphs = 10;
  auto db = GenerateDatabase(options);
  ASSERT_TRUE(db.ok());
  size_t tree_models = 0;
  for (const ProbabilisticGraph& g : *db) {
    if (g.kind() == JointModelKind::kTree) ++tree_models;
    // Worlds must still sum to 1 when small enough to enumerate.
    if (g.NumEdges() <= 18) {
      auto total = TotalWorldProbability(g);
      ASSERT_TRUE(total.ok());
      EXPECT_NEAR(*total, 1.0, 1e-9);
    }
  }
  EXPECT_GT(tree_models, 0u);
}

TEST(SyntheticTest, FamilyDatabaseGroundTruth) {
  FamilyOptions options;
  options.num_families = 3;
  options.graphs_per_family = 4;
  options.base = SmallOptions(1129);
  auto fdb = GenerateFamilyDatabase(options);
  ASSERT_TRUE(fdb.ok());
  EXPECT_EQ(fdb->graphs.size(), 12u);
  EXPECT_EQ(fdb->family_of.size(), 12u);
  EXPECT_EQ(fdb->seeds.size(), 3u);
  for (size_t i = 0; i < fdb->graphs.size(); ++i) {
    EXPECT_EQ(fdb->family_of[i], i / 4);
  }
  // Members resemble their seed: high vertex-count overlap.
  for (size_t i = 0; i < fdb->graphs.size(); ++i) {
    const Graph& seed = fdb->seeds[fdb->family_of[i]];
    const Graph& member = fdb->graphs[i].certain();
    EXPECT_EQ(member.NumVertices(), seed.NumVertices());
  }
}

TEST(SyntheticTest, ExtractQueryIsConnectedSubgraph) {
  auto db = GenerateDatabase(SmallOptions(1151));
  ASSERT_TRUE(db.ok());
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph& source = (*db)[trial % db->size()].certain();
    auto q = ExtractQuery(source, 4, &rng);
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(q->NumEdges(), 4u);
    EXPECT_TRUE(q->IsConnected());
    EXPECT_TRUE(IsSubgraphIsomorphic(*q, source));
  }
}

TEST(SyntheticTest, ExtractQueryRejectsTooSmallSource) {
  GraphBuilder builder;
  builder.AddVertex(0);
  builder.AddVertex(0);
  auto e = builder.AddEdge(0, 1, 0);
  ASSERT_TRUE(e.ok());
  const Graph tiny = builder.Build();
  Rng rng(6);
  EXPECT_FALSE(ExtractQuery(tiny, 5, &rng).ok());
}

TEST(SyntheticTest, GenerateQueriesProducesRequestedCount) {
  auto db = GenerateDatabase(SmallOptions(1153));
  ASSERT_TRUE(db.ok());
  auto queries = GenerateQueries(*db, 5, 7, 99);
  ASSERT_TRUE(queries.ok());
  EXPECT_EQ(queries->size(), 7u);
  for (const Graph& q : *queries) {
    EXPECT_EQ(q.NumEdges(), 5u);
  }
}

}  // namespace
}  // namespace pgsim
