// Tests for probabilistic pruning (Theorems 3-4): the Usim/Lsim bounds must
// bracket the exact SSP (within Monte-Carlo slack on the PMI entries), and
// pruning decisions must be consistent with exact answers.

#include <gtest/gtest.h>

#include "pgsim/datasets/synthetic.h"
#include "pgsim/graph/relaxation.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/prob_pruner.h"
#include "pgsim/query/verifier.h"

namespace pgsim {
namespace {

struct Fixture {
  std::vector<ProbabilisticGraph> db;
  ProbabilisticMatrixIndex pmi;
};

Fixture MakeFixture(uint64_t seed) {
  SyntheticOptions options;
  options.num_graphs = 10;
  options.avg_vertices = 8;
  options.edge_factor = 1.3;
  options.num_vertex_labels = 3;
  options.seed = seed;
  Fixture fx;
  fx.db = GenerateDatabase(options).value();
  PmiBuildOptions build;
  build.miner.alpha = 0.0;
  build.miner.beta = 0.2;
  build.miner.gamma = -1.0;
  build.miner.max_vertices = 3;
  build.sip.mc.min_samples = 8000;
  build.sip.mc.max_samples = 8000;
  fx.pmi = ProbabilisticMatrixIndex::Build(fx.db, build).value();
  return fx;
}

class PrunerBoundsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrunerBoundsTest, UsimAndLsimBracketExactSsp) {
  Fixture fx = MakeFixture(GetParam());
  ProbPrunerOptions options;
  ProbabilisticPruner pruner(&fx.pmi, options);
  PrunerScratch scratch;
  Rng rng(GetParam() + 1);
  // Monte-Carlo slack on the SIP estimates propagates into Usim/Lsim.
  const double slack = 0.1;
  for (int trial = 0; trial < 3; ++trial) {
    auto q = ExtractQuery(fx.db[rng.Uniform(fx.db.size())].certain(), 4,
                          &rng);
    ASSERT_TRUE(q.ok());
    const uint32_t delta = 1;
    auto relaxed = GenerateRelaxedQueries(*q, delta);
    ASSERT_TRUE(relaxed.ok());
    pruner.PrepareQuery(*relaxed);
    for (uint32_t gi = 0; gi < fx.db.size(); ++gi) {
      auto exact = ExactSubgraphSimilarityProbability(fx.db[gi], *relaxed);
      if (!exact.ok()) continue;
      // Evaluate with epsilon 2.0 so no branch short-circuits and we get
      // both bounds back.
      const PruneDecision d = pruner.Evaluate(gi, 2.0, &rng, &scratch);
      EXPECT_GE(d.usim, *exact - slack)
          << "graph " << gi << " exact=" << *exact;
      EXPECT_LE(d.lsim, *exact + slack)
          << "graph " << gi << " exact=" << *exact;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PrunerBoundsTest,
                         ::testing::Values(1401ULL, 1403ULL, 1409ULL));

TEST(PrunerDecisionTest, OutcomesPartitionTheCandidates) {
  Fixture fx = MakeFixture(1411);
  ProbPrunerOptions options;
  ProbabilisticPruner pruner(&fx.pmi, options);
  PrunerScratch scratch;
  Rng rng(31);
  auto q = ExtractQuery(fx.db[0].certain(), 4, &rng);
  ASSERT_TRUE(q.ok());
  auto relaxed = GenerateRelaxedQueries(*q, 1);
  ASSERT_TRUE(relaxed.ok());
  pruner.PrepareQuery(*relaxed);
  for (uint32_t gi = 0; gi < fx.db.size(); ++gi) {
    const PruneDecision d = pruner.Evaluate(gi, 0.5, &rng, &scratch);
    switch (d.outcome) {
      case PruneOutcome::kPruned:
        EXPECT_LT(d.usim, 0.5);
        break;
      case PruneOutcome::kAccepted:
        EXPECT_GE(d.lsim, 0.5);
        break;
      case PruneOutcome::kCandidate:
        EXPECT_GE(d.usim, 0.5);
        EXPECT_LT(d.lsim, 0.5);
        break;
    }
    EXPECT_GE(d.usim, 0.0);
    EXPECT_LE(d.usim, 1.0);
    EXPECT_GE(d.lsim, 0.0);
    EXPECT_LE(d.lsim, 1.0);
  }
}

TEST(PrunerVariantTest, OptimizedUsimNoLooserThanRandom) {
  // Algorithm 1's cover is a minimization; a random per-rq choice can only
  // be >= on average. Check it holds in aggregate.
  Fixture fx = MakeFixture(1423);
  ProbPrunerOptions opt_options;
  opt_options.selection = BoundSelection::kOptimized;
  ProbPrunerOptions rnd_options;
  rnd_options.selection = BoundSelection::kRandom;
  ProbabilisticPruner opt(&fx.pmi, opt_options);
  ProbabilisticPruner rnd(&fx.pmi, rnd_options);
  PrunerScratch scratch;
  Rng rng(37);
  auto q = ExtractQuery(fx.db[1].certain(), 4, &rng);
  ASSERT_TRUE(q.ok());
  auto relaxed = GenerateRelaxedQueries(*q, 1);
  ASSERT_TRUE(relaxed.ok());
  opt.PrepareQuery(*relaxed);
  rnd.PrepareQuery(*relaxed);
  double opt_total = 0.0, rnd_total = 0.0;
  for (uint32_t gi = 0; gi < fx.db.size(); ++gi) {
    opt_total += opt.Evaluate(gi, 2.0, &rng, &scratch).usim;
    rnd_total += rnd.Evaluate(gi, 2.0, &rng, &scratch).usim;
  }
  EXPECT_LE(opt_total, rnd_total + 1e-9);
}

TEST(PrunerVariantTest, SipVariantSelectsDifferentEntries) {
  Fixture fx = MakeFixture(1427);
  ProbPrunerOptions opt_options;
  opt_options.sip_variant = SipVariant::kOpt;
  ProbPrunerOptions simple_options;
  simple_options.sip_variant = SipVariant::kSimple;
  ProbabilisticPruner opt(&fx.pmi, opt_options);
  ProbabilisticPruner simple(&fx.pmi, simple_options);
  PrunerScratch scratch;
  Rng rng(41);
  auto q = ExtractQuery(fx.db[2].certain(), 4, &rng);
  ASSERT_TRUE(q.ok());
  auto relaxed = GenerateRelaxedQueries(*q, 1);
  ASSERT_TRUE(relaxed.ok());
  opt.PrepareQuery(*relaxed);
  simple.PrepareQuery(*relaxed);
  // OPT SIP upper bounds are tighter (<=), so OPT Usim <= simple Usim.
  double opt_total = 0.0, simple_total = 0.0;
  for (uint32_t gi = 0; gi < fx.db.size(); ++gi) {
    opt_total += opt.Evaluate(gi, 2.0, &rng, &scratch).usim;
    simple_total += simple.Evaluate(gi, 2.0, &rng, &scratch).usim;
  }
  EXPECT_LE(opt_total, simple_total + 1e-9);
}

}  // namespace
}  // namespace pgsim
