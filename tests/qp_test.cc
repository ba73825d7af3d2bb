// Tests for Algorithm 2 (tightest Lsim): objective evaluation, relaxed-QP
// upper bounding, rounding validity, and comparison against brute-force
// best selections on small instances.

#include <gtest/gtest.h>

#include "oracles/pruner_reference.h"
#include "pgsim/query/quadratic_program.h"

namespace pgsim {
namespace {

QpWeightedSet Make(uint32_t id, std::vector<uint32_t> elements, double wl,
                   double wu) {
  QpWeightedSet s;
  s.id = id;
  s.elements = std::move(elements);
  s.wl = wl;
  s.wu = wu;
  return s;
}

// Best Definition 11 objective over all subsets (small n only).
double BruteForceBest(const std::vector<QpWeightedSet>& sets) {
  const size_t n = sets.size();
  double best = 0.0;
  for (uint32_t mask = 0; mask < (1U << n); ++mask) {
    std::vector<size_t> selection;
    for (size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1U) selection.push_back(i);
    }
    best = std::max(best, LsimObjective(sets, selection));
  }
  return best;
}

TEST(LsimObjectiveTest, MatchesDefinition11) {
  const std::vector<QpWeightedSet> sets{Make(0, {0}, 0.3, 0.4),
                                        Make(1, {1}, 0.2, 0.1)};
  // sum wl - (sum wu)^2 = 0.5 - 0.25 = 0.25.
  EXPECT_NEAR(LsimObjective(sets, {0, 1}), 0.25, 1e-12);
  // Single set: 0.3 - 0.16 = 0.14.
  EXPECT_NEAR(LsimObjective(sets, {0}), 0.14, 1e-12);
  // Clamped at zero when the quadratic term dominates.
  const std::vector<QpWeightedSet> heavy{Make(0, {0}, 0.1, 0.9)};
  EXPECT_DOUBLE_EQ(LsimObjective(heavy, {0}), 0.0);
}

TEST(LsimSolverTest, EmptySetsGiveZero) {
  Rng rng(901);
  const auto result = SolveTightestLsim(3, {}, LsimOptions(), &rng);
  EXPECT_DOUBLE_EQ(result.lsim, 0.0);
  EXPECT_TRUE(result.chosen_ids.empty());
}

TEST(LsimSolverTest, PaperExample4) {
  // Figure 6: s1 = {rq1} with (wL, wU) = (0.28, 0.36); s2 = {rq1, rq2, rq3}
  // with (0.08, 0.15). The paper assigns Lsim = 0.31, which is
  // 0.28 + 0.08 - (0.36 + 0.15)^2 = 0.0999... rounded? Both sets:
  // 0.36 - 0.2601 = 0.0999; s1 alone: 0.28 - 0.1296 = 0.1504;
  // s2 alone: 0.08 - 0.0225 = 0.0575. Our solver returns the best
  // achievable objective (0.1504 from s1 alone).
  const std::vector<QpWeightedSet> sets{Make(1, {0}, 0.28, 0.36),
                                        Make(2, {0, 1, 2}, 0.08, 0.15)};
  Rng rng(903);
  const auto result = SolveTightestLsim(3, sets, LsimOptions(), &rng);
  EXPECT_NEAR(result.lsim, BruteForceBest(sets), 1e-9);
}

TEST(LsimSolverTest, RelaxedObjectiveUpperBoundsDiscrete) {
  Rng rng(907);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 2 + rng.Uniform(5);
    const size_t universe = 1 + rng.Uniform(4);
    std::vector<QpWeightedSet> sets;
    for (size_t i = 0; i < n; ++i) {
      std::vector<uint32_t> elements;
      for (uint32_t e = 0; e < universe; ++e) {
        if (rng.Bernoulli(0.6)) elements.push_back(e);
      }
      sets.push_back(Make(static_cast<uint32_t>(i), elements,
                          rng.UniformDouble() * 0.5,
                          rng.UniformDouble() * 0.5));
    }
    const auto result = SolveTightestLsim(universe, sets, LsimOptions(), &rng);
    // Feasible integral solutions that satisfy coverage are feasible for the
    // relaxation, so QP(I) upper-bounds the best *covering* selection; and
    // the solver's returned lsim is always a realizable objective.
    EXPECT_GE(result.lsim, 0.0);
    // The returned lsim equals the objective of the returned selection.
    std::vector<size_t> selection;
    for (uint32_t id : result.chosen_ids) {
      for (size_t i = 0; i < sets.size(); ++i) {
        if (sets[i].id == id) selection.push_back(i);
      }
    }
    EXPECT_NEAR(result.lsim, LsimObjective(sets, selection), 1e-9);
  }
}

TEST(LsimSolverTest, FindsNearBruteForceBest) {
  Rng rng(911);
  for (int trial = 0; trial < 15; ++trial) {
    const size_t n = 2 + rng.Uniform(5);
    std::vector<QpWeightedSet> sets;
    for (size_t i = 0; i < n; ++i) {
      sets.push_back(Make(static_cast<uint32_t>(i),
                          {static_cast<uint32_t>(i % 3)},
                          rng.UniformDouble() * 0.4,
                          rng.UniformDouble() * 0.4));
    }
    const auto result = SolveTightestLsim(3, sets, LsimOptions(), &rng);
    const double best = BruteForceBest(sets);
    // The greedy fallback considers sets in decreasing marginal order and
    // the rounding adds randomization; on these small instances we ask for
    // at least 60% of the brute-force best (typically it is equal).
    EXPECT_GE(result.lsim, 0.6 * best - 1e-9)
        << "trial=" << trial << " best=" << best << " got=" << result.lsim;
  }
}

TEST(LsimSolverTest, CoverageFlagAccurate) {
  // One set covering everything.
  const std::vector<QpWeightedSet> cover_all{Make(0, {0, 1}, 0.5, 0.1)};
  Rng rng(919);
  const auto r1 = SolveTightestLsim(2, cover_all, LsimOptions(), &rng);
  EXPECT_TRUE(r1.covered);
  // Universe element 1 is in no set: coverage ignores uncoverable elements,
  // element 0 must still be covered by the chosen selection (it is, since
  // choosing the only set maximizes the objective here).
  const std::vector<QpWeightedSet> partial{Make(0, {0}, 0.5, 0.1)};
  const auto r2 = SolveTightestLsim(2, partial, LsimOptions(), &rng);
  EXPECT_TRUE(r2.covered);
}

}  // namespace
}  // namespace pgsim
