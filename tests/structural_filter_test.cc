// Tests for structural pruning (Theorem 1): the count filter must never
// dismiss a true answer (soundness), and the exact check must compute SCq
// precisely.

#include <gtest/gtest.h>

#include "oracles/mcs.h"
#include "pgsim/datasets/synthetic.h"
#include "pgsim/graph/relaxation.h"
#include "pgsim/mining/feature_miner.h"
#include "pgsim/query/structural_filter.h"

namespace pgsim {
namespace {

struct Fixture {
  std::vector<ProbabilisticGraph> db;
  std::vector<Graph> certain;
  FeatureSet features;
};

Fixture MakeFixture(uint64_t seed) {
  SyntheticOptions options;
  options.num_graphs = 15;
  options.avg_vertices = 9;
  options.edge_factor = 1.3;
  options.num_vertex_labels = 4;
  options.seed = seed;
  Fixture fx;
  fx.db = GenerateDatabase(options).value();
  for (const auto& g : fx.db) fx.certain.push_back(g.certain());
  FeatureMinerOptions miner;
  miner.alpha = 0.0;
  miner.beta = 0.2;
  miner.gamma = -1.0;
  miner.max_vertices = 3;
  fx.features = MineFeatures(fx.certain, miner).value();
  return fx;
}

class StructuralFilterTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

TEST_P(StructuralFilterTest, ExactCheckEqualsSubgraphSimilarity) {
  const auto [seed, delta] = GetParam();
  Fixture fx = MakeFixture(seed);
  const StructuralFilter filter =
      StructuralFilter::Build(fx.certain, fx.features.features);

  Rng rng(seed * 3 + 1);
  for (int trial = 0; trial < 4; ++trial) {
    auto q = ExtractQuery(fx.certain[rng.Uniform(fx.certain.size())],
                          delta + 3, &rng);
    ASSERT_TRUE(q.ok());
    auto relaxed = GenerateRelaxedQueries(*q, delta);
    ASSERT_TRUE(relaxed.ok());
    StructuralFilterStats stats;
    const auto survivors = filter.Filter(*q, *relaxed, delta, &stats);
    // Exact semantics: survivors == {g : dis(q, gc) <= delta}.
    std::vector<uint32_t> expected;
    for (uint32_t gi = 0; gi < fx.certain.size(); ++gi) {
      if (IsSubgraphSimilar(*q, fx.certain[gi], delta)) {
        expected.push_back(gi);
      }
    }
    EXPECT_EQ(survivors, expected)
        << "seed=" << seed << " delta=" << delta << " trial=" << trial;
    EXPECT_GE(stats.count_filter_survivors, stats.exact_survivors);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StructuralFilterTest,
    ::testing::Combine(::testing::Values(1301ULL, 1303ULL),
                       ::testing::Values(0u, 1u, 2u)));

TEST(StructuralFilterSoundnessTest, CountFilterNeverDropsTrueAnswers) {
  Fixture fx = MakeFixture(1307);
  StructuralFilterOptions options;
  options.exact_check = false;  // count filter alone
  const StructuralFilter filter =
      StructuralFilter::Build(fx.certain, fx.features.features, options);
  Rng rng(17);
  for (int trial = 0; trial < 6; ++trial) {
    const uint32_t delta = trial % 3;
    auto q = ExtractQuery(fx.certain[rng.Uniform(fx.certain.size())],
                          delta + 3, &rng);
    ASSERT_TRUE(q.ok());
    auto relaxed = GenerateRelaxedQueries(*q, delta);
    ASSERT_TRUE(relaxed.ok());
    const auto survivors = filter.Filter(*q, *relaxed, delta);
    for (uint32_t gi = 0; gi < fx.certain.size(); ++gi) {
      if (IsSubgraphSimilar(*q, fx.certain[gi], delta)) {
        EXPECT_NE(std::find(survivors.begin(), survivors.end(), gi),
                  survivors.end())
            << "sound filter dropped true answer " << gi << " at delta "
            << delta;
      }
    }
  }
}

TEST(StructuralFilterTest, SelfQueryAlwaysSurvives) {
  Fixture fx = MakeFixture(1311);
  const StructuralFilter filter =
      StructuralFilter::Build(fx.certain, fx.features.features);
  Rng rng(23);
  // A query extracted from graph 0 must keep graph 0 as a survivor.
  auto q = ExtractQuery(fx.certain[0], 4, &rng);
  ASSERT_TRUE(q.ok());
  auto relaxed = GenerateRelaxedQueries(*q, 1);
  ASSERT_TRUE(relaxed.ok());
  const auto survivors = filter.Filter(*q, *relaxed, 1);
  EXPECT_NE(std::find(survivors.begin(), survivors.end(), 0u),
            survivors.end());
}

TEST(StructuralFilterTest, FilterReducesCandidates) {
  // A query with a label that exists nowhere prunes everything.
  Fixture fx = MakeFixture(1313);
  const StructuralFilter filter =
      StructuralFilter::Build(fx.certain, fx.features.features);
  GraphBuilder builder;
  const VertexId a = builder.AddVertex(77);
  const VertexId b = builder.AddVertex(77);
  const VertexId c = builder.AddVertex(77);
  ASSERT_TRUE(builder.AddEdge(a, b, 0).ok());
  ASSERT_TRUE(builder.AddEdge(b, c, 0).ok());
  const Graph q = builder.Build();
  auto relaxed = GenerateRelaxedQueries(q, 1);
  ASSERT_TRUE(relaxed.ok());
  const auto survivors = filter.Filter(q, *relaxed, 1);
  EXPECT_TRUE(survivors.empty());
}

}  // namespace
}  // namespace pgsim
