// Tightest Usim(q) via greedy weighted set cover (paper Section 3.2.1,
// Definition 10, Algorithm 1).
//
// Universe: the relaxed queries U = {rq1..rqa}. One candidate set per
// feature f: s_f = {rq : rq ⊇iso f} with weight UpperB(f). A cover C gives
// Usim(q) = sum of chosen weights, an upper bound of Pr(q ⊆sim g)
// (Theorem 3); the greedy is within ln|U| of the optimum [12].
//
// Sets arrive as a columnar view over caller-owned arrays, and every buffer
// comes from a reusable scratch, so the pruner's per-candidate path
// allocates nothing.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pgsim {

/// Non-owning columnar view of weighted sets: set i has id ids[i], weight
/// weights[i], and elements elements[span_begin[i] .. span_end[i]). The
/// backing arrays belong to the caller (e.g. a compiled bound program plus
/// per-candidate gathered weights).
struct WeightedSetsView {
  size_t num_sets = 0;
  const uint32_t* ids = nullptr;
  const double* weights = nullptr;
  const uint32_t* elements = nullptr;
  const uint32_t* span_begin = nullptr;
  const uint32_t* span_end = nullptr;
};

/// Reusable buffers for GreedyWeightedSetCover; capacities survive
/// across calls so a steady-state cover loop allocates nothing.
struct SetCoverScratch {
  std::vector<char> covered;
  std::vector<char> used;
};

/// Greedy cover outcome.
struct SetCoverResult {
  std::vector<uint32_t> chosen_ids;  ///< ids of the selected sets
  double total_weight = 0.0;         ///< sum of selected weights
  bool covered = false;              ///< all universe elements covered?
  uint32_t num_uncovered = 0;        ///< elements no set contains
};

/// Algorithm 1: repeatedly picks the set minimizing weight / newly-covered
/// count until the universe is covered or no set adds coverage. Sets are
/// visited in index order and ties resolve to the lowest index. Reuses
/// `*scratch` and `*result` capacity (allocation-free in steady state).
void GreedyWeightedSetCover(size_t universe_size, const WeightedSetsView& sets,
                            SetCoverScratch* scratch, SetCoverResult* result);

}  // namespace pgsim
