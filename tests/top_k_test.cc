// Tests for the top-k extension: ranking correctness against a full exact
// scan, early-termination soundness, and parameter validation.

#include <gtest/gtest.h>

#include "pgsim/datasets/synthetic.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/top_k.h"
#include "pgsim/query/verifier.h"

namespace pgsim {
namespace {

struct Fixture {
  std::vector<ProbabilisticGraph> db;
  std::vector<Graph> certain;
  ProbabilisticMatrixIndex pmi;
  StructuralFilter filter;
};

Fixture MakeFixture(uint64_t seed) {
  SyntheticOptions options;
  options.num_graphs = 14;
  options.avg_vertices = 8;
  options.edge_factor = 1.3;
  options.num_vertex_labels = 3;
  options.seed = seed;
  Fixture fx;
  fx.db = GenerateDatabase(options).value();
  for (const auto& g : fx.db) fx.certain.push_back(g.certain());
  PmiBuildOptions build;
  build.miner.beta = 0.2;
  build.miner.gamma = -1.0;
  build.miner.max_vertices = 3;
  build.sip.mc.min_samples = 4000;
  build.sip.mc.max_samples = 4000;
  fx.pmi = ProbabilisticMatrixIndex::Build(fx.db, build).value();
  fx.filter = StructuralFilter::Build(fx.certain, fx.pmi.features());
  return fx;
}

TEST(TopKTest, RejectsBadParameters) {
  Fixture fx = MakeFixture(4001);
  Rng rng(1);
  auto q = ExtractQuery(fx.certain[0], 4, &rng);
  ASSERT_TRUE(q.ok());
  TopKOptions options;
  options.k = 0;
  EXPECT_FALSE(TopKQuery(fx.db, fx.pmi, &fx.filter, *q, options).ok());
  options.k = 3;
  options.delta = 4;  // == |E(q)|
  EXPECT_FALSE(TopKQuery(fx.db, fx.pmi, &fx.filter, *q, options).ok());
}

class TopKRankingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TopKRankingTest, ExactModeMatchesFullScanRanking) {
  Fixture fx = MakeFixture(GetParam());
  Rng rng(GetParam() + 1);
  auto q = ExtractQuery(fx.certain[1], 4, &rng);
  ASSERT_TRUE(q.ok());
  TopKOptions options;
  options.k = 4;
  options.delta = 1;
  options.exact_verification = true;
  auto result = TopKQuery(fx.db, fx.pmi, &fx.filter, *q, options);
  ASSERT_TRUE(result.ok());

  // Ground truth: exact SSP of every graph, ranked.
  auto relaxed = GenerateRelaxedQueries(*q, options.delta).value();
  std::vector<std::pair<double, uint32_t>> truth;
  for (uint32_t gi = 0; gi < fx.db.size(); ++gi) {
    auto ssp = ExactSubgraphSimilarityProbability(fx.db[gi], relaxed);
    ASSERT_TRUE(ssp.ok());
    if (*ssp > 0.0) truth.emplace_back(*ssp, gi);
  }
  std::sort(truth.begin(), truth.end(), std::greater<>());

  // The returned entries must be the true top-k up to the Monte-Carlo
  // noise of the PMI upper bounds that drive early termination: a graph may
  // be swapped for one whose exact SSP is within the noise band.
  const size_t expected = std::min<size_t>(options.k, truth.size());
  ASSERT_EQ(result->entries.size(), expected);
  for (size_t i = 0; i < expected; ++i) {
    EXPECT_NEAR(result->entries[i].ssp, truth[i].first, 0.05)
        << "rank " << i;
  }
  // Entries are sorted descending.
  for (size_t i = 1; i < result->entries.size(); ++i) {
    EXPECT_GE(result->entries[i - 1].ssp, result->entries[i].ssp);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TopKRankingTest,
                         ::testing::Values(4003ULL, 4007ULL, 4013ULL));

TEST(TopKTest, EarlyTerminationNeverDropsTrueTopK) {
  // Even when candidates are skipped by the bound, the exact-mode result
  // must equal the brute-force ranking (the bound is an upper bound).
  Fixture fx = MakeFixture(4019);
  Rng rng(5);
  for (int trial = 0; trial < 3; ++trial) {
    auto q = ExtractQuery(fx.certain[trial], 4, &rng);
    ASSERT_TRUE(q.ok());
    TopKOptions options;
    options.k = 2;
    options.delta = 1;
    options.exact_verification = true;
    auto result = TopKQuery(fx.db, fx.pmi, &fx.filter, *q, options);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->verified + result->skipped_by_bound,
              result->structural_candidates);
    auto relaxed = GenerateRelaxedQueries(*q, options.delta).value();
    double best = 0.0;
    for (uint32_t gi = 0; gi < fx.db.size(); ++gi) {
      auto ssp = ExactSubgraphSimilarityProbability(fx.db[gi], relaxed);
      ASSERT_TRUE(ssp.ok());
      best = std::max(best, *ssp);
    }
    if (!result->entries.empty()) {
      // The true best can only be missed within the bound-noise band.
      EXPECT_NEAR(result->entries[0].ssp, best, 0.05) << "trial " << trial;
    } else {
      EXPECT_EQ(best, 0.0);
    }
  }
}

TEST(TopKTest, SampledModeApproximatesExactRanking) {
  Fixture fx = MakeFixture(4021);
  Rng rng(9);
  auto q = ExtractQuery(fx.certain[2], 4, &rng);
  ASSERT_TRUE(q.ok());
  TopKOptions exact_options;
  exact_options.k = 3;
  exact_options.delta = 1;
  exact_options.exact_verification = true;
  TopKOptions smp_options = exact_options;
  smp_options.exact_verification = false;
  smp_options.verifier.mc.min_samples = 20000;
  smp_options.verifier.mc.max_samples = 20000;
  auto exact = TopKQuery(fx.db, fx.pmi, &fx.filter, *q, exact_options);
  auto smp = TopKQuery(fx.db, fx.pmi, &fx.filter, *q, smp_options);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(smp.ok());
  ASSERT_EQ(exact->entries.size(), smp->entries.size());
  // The sampled probabilities of the top entries are close to exact ones.
  for (size_t i = 0; i < exact->entries.size(); ++i) {
    EXPECT_NEAR(exact->entries[i].ssp, smp->entries[i].ssp, 0.08)
        << "rank " << i;
  }
}

TEST(TopKTest, WorksWithoutStructuralFilter) {
  Fixture fx = MakeFixture(4027);
  Rng rng(13);
  auto q = ExtractQuery(fx.certain[3], 4, &rng);
  ASSERT_TRUE(q.ok());
  TopKOptions options;
  options.k = 3;
  options.delta = 1;
  options.exact_verification = true;
  auto with = TopKQuery(fx.db, fx.pmi, &fx.filter, *q, options);
  auto without = TopKQuery(fx.db, fx.pmi, nullptr, *q, options);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  ASSERT_EQ(with->entries.size(), without->entries.size());
  for (size_t i = 0; i < with->entries.size(); ++i) {
    EXPECT_NEAR(with->entries[i].ssp, without->entries[i].ssp, 1e-9);
  }
}

}  // namespace
}  // namespace pgsim
