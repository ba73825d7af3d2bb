// Tests for Algorithm 1 (greedy weighted set cover).

#include <cmath>

#include <gtest/gtest.h>

#include "oracles/pruner_reference.h"
#include "pgsim/query/set_cover.h"

namespace pgsim {
namespace {

WeightedSet Make(uint32_t id, std::vector<uint32_t> elements, double w) {
  WeightedSet s;
  s.id = id;
  s.elements = std::move(elements);
  s.weight = w;
  return s;
}

TEST(SetCoverTest, EmptyUniverseIsCoveredForFree) {
  const auto result = GreedyWeightedSetCover(0, {});
  EXPECT_TRUE(result.covered);
  EXPECT_EQ(result.total_weight, 0.0);
  EXPECT_TRUE(result.chosen_ids.empty());
}

TEST(SetCoverTest, PaperExample3) {
  // Figure 5: s1 = {rq1, rq2} w=0.4, s2 = {rq2, rq3} w=0.1,
  // s3 = {rq1, rq3} w=0.5. Candidate covers: 0.4+0.1=0.5, 0.4+0.5=0.9,
  // 0.1+0.5=0.6; the greedy ratio rule picks s2 (0.05/elem) then s1, giving
  // the optimal Usim = 0.5 the paper reports.
  const std::vector<WeightedSet> sets{Make(1, {0, 1}, 0.4),
                                      Make(2, {1, 2}, 0.1),
                                      Make(3, {0, 2}, 0.5)};
  const auto result = GreedyWeightedSetCover(3, sets);
  EXPECT_TRUE(result.covered);
  EXPECT_NEAR(result.total_weight, 0.5, 1e-12);
  EXPECT_EQ(result.chosen_ids.size(), 2u);
}

TEST(SetCoverTest, UncoverableElementsReported) {
  const std::vector<WeightedSet> sets{Make(0, {0, 1}, 0.2)};
  const auto result = GreedyWeightedSetCover(4, sets);
  EXPECT_FALSE(result.covered);
  EXPECT_EQ(result.num_uncovered, 2u);
  EXPECT_NEAR(result.total_weight, 0.2, 1e-12);
}

TEST(SetCoverTest, ZeroWeightSetsPreferred) {
  // A zero-weight set covering everything should always be chosen alone.
  const std::vector<WeightedSet> sets{Make(0, {0, 1, 2}, 0.0),
                                      Make(1, {0}, 0.5),
                                      Make(2, {1, 2}, 0.5)};
  const auto result = GreedyWeightedSetCover(3, sets);
  EXPECT_TRUE(result.covered);
  EXPECT_EQ(result.total_weight, 0.0);
  EXPECT_EQ(result.chosen_ids, (std::vector<uint32_t>{0}));
}

TEST(SetCoverTest, RedundantSetsSkipped) {
  // Once the universe is covered, no further sets are added.
  const std::vector<WeightedSet> sets{Make(0, {0, 1}, 0.1),
                                      Make(1, {0, 1}, 0.2),
                                      Make(2, {0}, 0.05)};
  const auto result = GreedyWeightedSetCover(2, sets);
  EXPECT_TRUE(result.covered);
  EXPECT_NEAR(result.total_weight, 0.1, 1e-12);
  EXPECT_EQ(result.chosen_ids.size(), 1u);
}

TEST(SetCoverTest, OutOfRangeElementsIgnored) {
  const std::vector<WeightedSet> sets{Make(0, {0, 99}, 0.3)};
  const auto result = GreedyWeightedSetCover(1, sets);
  EXPECT_TRUE(result.covered);
  EXPECT_NEAR(result.total_weight, 0.3, 1e-12);
}

TEST(SetCoverTest, GreedyWithinLogFactorOnKnownHardCase) {
  // Classic greedy-vs-optimal gap instance: elements 0..5; optimal picks two
  // sets of weight 1 each; greedy may pay more but never more than
  // OPT * ln|U| (Algorithm 1's guarantee from [12]).
  const std::vector<WeightedSet> sets{
      Make(0, {0, 1, 2}, 1.0), Make(1, {3, 4, 5}, 1.0),
      Make(2, {0, 3}, 0.62),   Make(3, {1, 4}, 0.62),
      Make(4, {2, 5}, 0.62)};
  const auto result = GreedyWeightedSetCover(6, sets);
  EXPECT_TRUE(result.covered);
  const double opt = 2.0;
  EXPECT_LE(result.total_weight, opt * std::log(6.0) + 1e-9);
}

}  // namespace
}  // namespace pgsim
