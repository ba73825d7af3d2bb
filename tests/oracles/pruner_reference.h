// Test-only oracles for probabilistic pruning (paper Section 3): the
// vector-of-sets layouts of the set-cover and Lsim inputs, adapters that
// run the library's view-based solvers on them, and the allocating
// per-Lookup pruner the columnar ProbabilisticPruner is pinned against.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pgsim/common/random.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/prob_pruner.h"
#include "pgsim/query/quadratic_program.h"
#include "pgsim/query/set_cover.h"

namespace pgsim {

/// One candidate set with its weight (Algorithm 1 input).
struct WeightedSet {
  uint32_t id = 0;                 ///< caller's id (e.g. feature id)
  std::vector<uint32_t> elements;  ///< universe element indices
  double weight = 0.0;
};

/// One candidate set with pair weights (wL = LowerB(f), wU = UpperB(f)).
struct QpWeightedSet {
  uint32_t id = 0;
  std::vector<uint32_t> elements;
  double wl = 0.0;
  double wu = 0.0;
};

/// Flattens `sets` into a view and runs the library's greedy cover on it.
SetCoverResult GreedyWeightedSetCover(size_t universe_size,
                                      const std::vector<WeightedSet>& sets);

/// Flattens `sets` into a view and runs the library's Lsim solver on it
/// (same RNG draws as the view call on equal inputs).
LsimResult SolveTightestLsim(size_t universe_size,
                             const std::vector<QpWeightedSet>& sets,
                             const LsimOptions& options, Rng* rng);

/// Lsim value of an explicit selection (Definition 11's objective, clamped
/// at 0).
double LsimObjective(const std::vector<QpWeightedSet>& sets,
                     const std::vector<size_t>& selection);

/// ProbabilisticPruner::Evaluate rebuilt from per-candidate WeightedSet /
/// QpWeightedSet vectors and one PMI Lookup per feature. Decisions and RNG
/// draws are bit-identical to the library's. With epsilon = 2.0 it computes
/// what Bounds() reports (Pruning 1 always fires, so lsim stays 0); only the
/// outcome differs, since Bounds() resets it to kCandidate.
PruneDecision EvaluatePrunerReference(const ProbabilisticMatrixIndex& pmi,
                                      const ProbPrunerOptions& options,
                                      const PreparedQueryRelations& prepared,
                                      uint32_t graph_id, double epsilon,
                                      Rng* rng);

}  // namespace pgsim
