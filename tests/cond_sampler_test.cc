// Tests for the Algorithm 3 conditional-probability sampler against exact
// conditionals computed by world enumeration.

#include <gtest/gtest.h>

#include "oracles/bounds_reference.h"
#include "oracles/possible_world.h"
#include "pgsim/bounds/cond_sampler.h"
#include "test_util.h"

namespace pgsim {
namespace {

using ::pgsim::testing::RandomGraph;
using ::pgsim::testing::RandomProbGraph;

double ExactConditional(const ProbabilisticGraph& g, const EdgeEvent& target,
                        const std::vector<EdgeEvent>& conditioning) {
  double num = 0.0, den = 0.0;
  EXPECT_TRUE(EnumerateWorlds(g,
                              [&](const EdgeBitset& world, double p) {
                                bool clear = true;
                                for (const EdgeEvent& ev : conditioning) {
                                  if (ev.Holds(world)) {
                                    clear = false;
                                    break;
                                  }
                                }
                                if (clear) {
                                  den += p;
                                  if (target.Holds(world)) num += p;
                                }
                                return true;
                              })
                  .ok());
  return den > 0.0 ? num / den : 0.0;
}

TEST(MonteCarloParamsTest, SampleCountFormula) {
  MonteCarloParams p;
  p.xi = 0.1;
  p.tau = 0.1;
  p.min_samples = 1;
  p.max_samples = 1'000'000;
  // 4 ln(20) / 0.01 ~ 1198.3
  EXPECT_EQ(p.NumSamples(), 1199u);
  p.tau = 1.0;
  p.min_samples = 100;
  EXPECT_EQ(p.NumSamples(), 100u);  // clamped up to min
  p.tau = 1e-9;
  p.max_samples = 5000;
  EXPECT_EQ(p.NumSamples(), 5000u);  // clamped down to max
}

TEST(EdgeEventTest, HoldsSemantics) {
  EdgeBitset world = EdgeBitset::FromIndices(6, {0, 2, 4});
  EdgeEvent embedding{EdgeBitset::FromIndices(6, {0, 2}), true};
  EdgeEvent missing_embedding{EdgeBitset::FromIndices(6, {0, 1}), true};
  EdgeEvent cut{EdgeBitset::FromIndices(6, {1, 3}), false};
  EdgeEvent broken_cut{EdgeBitset::FromIndices(6, {1, 4}), false};
  EXPECT_TRUE(embedding.Holds(world));
  EXPECT_FALSE(missing_embedding.Holds(world));
  EXPECT_TRUE(cut.Holds(world));        // both absent: cut realized
  EXPECT_FALSE(broken_cut.Holds(world));  // edge 4 present
}

TEST(CondSamplerTest, UnconditionalMatchesMarginal) {
  Rng rng(601);
  const Graph g = RandomGraph(&rng, 6, 3, 1);
  const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
  EdgeEvent target{EdgeBitset::FromIndices(pg.NumEdges(), {0, 1}), true};
  MonteCarloParams params;
  params.xi = 0.05;
  params.tau = 0.03;
  params.max_samples = 100'000;
  const double estimate =
      EstimateConditionalProbability(pg, target, {}, params, &rng);
  EXPECT_NEAR(estimate, pg.MarginalAllPresent(target.edges), 0.03);
}

TEST(CondSamplerTest, ScratchOverloadIsBitIdenticalToLegacy) {
  Rng seed_rng(603);
  const Graph g = RandomGraph(&seed_rng, 6, 3, 1);
  const ProbabilisticGraph pg = RandomProbGraph(g, &seed_rng);
  EdgeEvent target{EdgeBitset::FromIndices(pg.NumEdges(), {0, 1}), true};
  std::vector<EdgeEvent> conditioning{
      EdgeEvent{EdgeBitset::FromIndices(pg.NumEdges(), {2}), false}};
  MonteCarloParams params;
  params.min_samples = 2000;
  params.max_samples = 2000;
  Rng r1(41), r2(41), r3(41);
  const double legacy =
      EstimateConditionalProbability(pg, target, conditioning, params, &r1);
  CondSamplerScratch scratch;
  const double with_scratch = EstimateConditionalProbability(
      pg, target, conditioning, params, &r2, &scratch);
  EXPECT_EQ(legacy, with_scratch);
  // Dirty reuse of the same scratch must not change the estimate.
  const double reused = EstimateConditionalProbability(
      pg, target, conditioning, params, &r3, &scratch);
  EXPECT_EQ(legacy, reused);
}

class CondSamplerRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CondSamplerRandomTest, MatchesExactConditional) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = RandomGraph(&rng, 6, 3, 1);
    const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
    const uint32_t m = pg.NumEdges();
    // Target: a 2-edge embedding event; conditioning: two other events.
    EdgeEvent target{EdgeBitset::FromIndices(m, {0, 1 % m}), true};
    std::vector<EdgeEvent> conditioning{
        EdgeEvent{EdgeBitset::FromIndices(m, {2 % m, 3 % m}), true},
        EdgeEvent{EdgeBitset::FromIndices(m, {4 % m}), false}};
    const double exact = ExactConditional(pg, target, conditioning);
    MonteCarloParams params;
    params.xi = 0.05;
    params.tau = 0.02;
    params.max_samples = 200'000;
    const double estimate = EstimateConditionalProbability(
        pg, target, conditioning, params, &rng);
    EXPECT_NEAR(estimate, exact, 0.04) << "trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CondSamplerRandomTest,
                         ::testing::Values(611ULL, 613ULL, 617ULL));

TEST(CondSamplerTest, ImpossibleConditioningReturnsZero) {
  Rng rng(619);
  const Graph g = RandomGraph(&rng, 4, 1, 1);
  const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
  // Conditioning event that always holds: edge 0 present OR absent both
  // listed, so every world triggers one of them -> n2 stays 0.
  std::vector<EdgeEvent> conditioning{
      EdgeEvent{EdgeBitset::FromIndices(pg.NumEdges(), {0}), true},
      EdgeEvent{EdgeBitset::FromIndices(pg.NumEdges(), {0}), false}};
  EdgeEvent target{EdgeBitset::FromIndices(pg.NumEdges(), {1}), true};
  MonteCarloParams params;
  params.max_samples = 2000;
  const double estimate =
      EstimateConditionalProbability(pg, target, conditioning, params, &rng);
  EXPECT_DOUBLE_EQ(estimate, 0.0);
}

}  // namespace
}  // namespace pgsim
