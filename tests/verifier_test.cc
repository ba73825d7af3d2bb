// Tests for verification (Section 5): exact SSP (two independent engines
// must agree with the Definition 9 world-enumeration ground truth) and the
// SMP Karp-Luby sampler (Algorithm 5) concentration around the exact value.

#include <gtest/gtest.h>

#include "oracles/exact_probability.h"
#include "pgsim/graph/relaxation.h"
#include "pgsim/query/verifier.h"
#include "test_util.h"

namespace pgsim {
namespace {

using ::pgsim::testing::MakeGraph;
using ::pgsim::testing::MakePath;
using ::pgsim::testing::RandomGraph;
using ::pgsim::testing::RandomProbGraph;

TEST(VerifierTest, HandCaseSingleEdgeQuery) {
  // g: one uncertain edge with p = 0.4; q: the same edge; delta = 0.
  const Graph certain = MakeGraph({1, 2}, {{0, 1, 0}});
  NeighborEdgeSet ne;
  ne.edges = {0};
  ne.table = JointProbTable::Independent({0.4}).value();
  auto pg = ProbabilisticGraph::Create(certain, {ne});
  ASSERT_TRUE(pg.ok());
  const Graph q = MakeGraph({1, 2}, {{0, 1, 0}});
  auto relaxed = GenerateRelaxedQueries(q, 0);
  ASSERT_TRUE(relaxed.ok());
  auto exact = ExactSubgraphSimilarityProbability(*pg, *relaxed);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(*exact, 0.4, 1e-12);
}

class SspAgreementTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

TEST_P(SspAgreementTest, DnfEngineMatchesWorldEnumeration) {
  const auto [seed, delta] = GetParam();
  Rng rng(seed);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = RandomGraph(&rng, 6, 3, 2);
    const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
    const Graph q = RandomGraph(&rng, 4, 1, 2);
    if (delta >= q.NumEdges()) continue;
    auto relaxed = GenerateRelaxedQueries(q, delta);
    ASSERT_TRUE(relaxed.ok());
    auto exact_dnf = ExactSubgraphSimilarityProbability(pg, *relaxed);
    ASSERT_TRUE(exact_dnf.ok());
    auto exact_world = ExactSspByWorldEnumeration(pg, q, delta);
    ASSERT_TRUE(exact_world.ok());
    EXPECT_NEAR(*exact_dnf, *exact_world, 1e-9)
        << "seed=" << seed << " delta=" << delta << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SspAgreementTest,
    ::testing::Combine(::testing::Values(1001ULL, 1003ULL, 1007ULL),
                       ::testing::Values(0u, 1u, 2u)));

class SmpConcentrationTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

TEST_P(SmpConcentrationTest, SmpEstimateNearExact) {
  const auto [seed, delta] = GetParam();
  Rng rng(seed);
  VerifierOptions options;
  options.mc.xi = 0.05;
  options.mc.tau = 0.03;
  options.mc.max_samples = 50'000;
  for (int trial = 0; trial < 3; ++trial) {
    const Graph g = RandomGraph(&rng, 6, 3, 1);
    const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
    const Graph q = RandomGraph(&rng, 4, 1, 1);
    if (delta >= q.NumEdges()) continue;
    auto relaxed = GenerateRelaxedQueries(q, delta);
    ASSERT_TRUE(relaxed.ok());
    auto exact = ExactSubgraphSimilarityProbability(pg, *relaxed);
    ASSERT_TRUE(exact.ok());
    auto smp =
        SampleSubgraphSimilarityProbability(pg, *relaxed, options, &rng);
    ASSERT_TRUE(smp.ok());
    EXPECT_NEAR(*smp, *exact, 0.05)
        << "seed=" << seed << " delta=" << delta << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SmpConcentrationTest,
    ::testing::Combine(::testing::Values(1011ULL, 1013ULL),
                       ::testing::Values(0u, 1u)));

TEST(VerifierTest, NoEmbeddingsMeansZero) {
  Rng rng(1021);
  const Graph g = MakePath(4, /*label=*/0);
  const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
  // Query whose labels never occur in g.
  const Graph q = MakeGraph({7, 7, 7}, {{0, 1, 0}, {1, 2, 0}});
  auto relaxed = GenerateRelaxedQueries(q, 1);
  ASSERT_TRUE(relaxed.ok());
  auto exact = ExactSubgraphSimilarityProbability(pg, *relaxed);
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(*exact, 0.0);
  VerifierOptions options;
  options.mc.max_samples = 1000;
  auto smp = SampleSubgraphSimilarityProbability(pg, *relaxed, options, &rng);
  ASSERT_TRUE(smp.ok());
  EXPECT_DOUBLE_EQ(*smp, 0.0);
}

TEST(VerifierTest, EventCapsSurfaceAsErrors) {
  Rng rng(1031);
  const Graph g = RandomGraph(&rng, 10, 8, 1);
  const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
  const Graph q = MakePath(3, 0);
  auto relaxed = GenerateRelaxedQueries(q, 1);
  ASSERT_TRUE(relaxed.ok());
  VerifierOptions options;
  options.max_embeddings_per_rq = 1;
  VerifierScratch scratch;
  const Status s = CollectSimilarityEvents(pg, *relaxed, options, &scratch);
  if (!s.ok()) {
    EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  }
}

TEST(VerifierTest, MonotoneInDelta) {
  // Relaxing more can only increase SSP.
  Rng rng(1033);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = RandomGraph(&rng, 6, 3, 1);
    const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
    const Graph q = RandomGraph(&rng, 4, 2, 1);
    double prev = -1.0;
    for (uint32_t delta = 0; delta < q.NumEdges() && delta <= 2; ++delta) {
      auto relaxed = GenerateRelaxedQueries(q, delta);
      ASSERT_TRUE(relaxed.ok());
      auto exact = ExactSubgraphSimilarityProbability(pg, *relaxed);
      ASSERT_TRUE(exact.ok());
      EXPECT_GE(*exact, prev - 1e-9);
      prev = *exact;
    }
  }
}

TEST(VerifierTest, TreeModelSspAgreesWithWorldEnumeration) {
  // Overlapping ne sets exercise the Shannon exact engine end to end.
  const Graph g = MakeGraph({0, 0, 0, 0},
                            {{0, 1, 0}, {0, 2, 0}, {0, 3, 0}, {2, 3, 0}});
  Rng rng(1039);
  std::vector<double> w1(8), w2(4);
  for (auto& w : w1) w = 0.05 + rng.UniformDouble();
  for (auto& w : w2) w = 0.05 + rng.UniformDouble();
  NeighborEdgeSet ne1, ne2;
  ne1.edges = {0, 1, 2};  // share v0
  ne1.table = JointProbTable::FromWeights(w1).value();
  ne2.edges = {2, 3};  // share v3, overlap on edge 2
  ne2.table = JointProbTable::FromWeights(w2).value();
  auto pg = ProbabilisticGraph::Create(g, {ne1, ne2});
  ASSERT_TRUE(pg.ok());
  ASSERT_EQ(pg->kind(), JointModelKind::kTree);
  const Graph q = MakePath(3, 0);
  auto relaxed = GenerateRelaxedQueries(q, 1);
  ASSERT_TRUE(relaxed.ok());
  auto exact_dnf = ExactSubgraphSimilarityProbability(*pg, *relaxed);
  ASSERT_TRUE(exact_dnf.ok());
  auto exact_world = ExactSspByWorldEnumeration(*pg, q, 1);
  ASSERT_TRUE(exact_world.ok());
  EXPECT_NEAR(*exact_dnf, *exact_world, 1e-9);
}

}  // namespace
}  // namespace pgsim
