// Tightest Lsim(q) via relaxed quadratic programming + randomized rounding
// (paper Section 3.2.2, Definition 11, Equation 9, Algorithm 2, Theorem 5).
//
// Candidate sets s_f = {rq : rq ⊆iso f} carry pair weights
// (wL, wU) = (LowerB(f), UpperB(f)). For a selection C,
//
//   Lsim(C) = sum_{C} wL - (sum_{C} wU)^2
//
// (the paper's double sum over ordered pairs of C) is a valid lower bound of
// Pr(q ⊆sim g) by Theorem 4 for ANY C — coverage of U only drives tightness.
// Equation 9's 0/1 program is relaxed to x in [0,1]^n, which makes the
// objective concave (the quadratic term is rank-1), solved here by projected
// gradient ascent with cyclic projections onto {box ∩ cover half-spaces},
// then rounded by Algorithm 2: 2 ln|U| rounds picking each set with
// probability x*_s. The returned bound is the best of the rounded selection,
// a deterministic greedy selection, and the best single set — all valid.
//
// Sets arrive as a columnar view over caller-owned arrays, and every buffer
// comes from a reusable scratch, so the pruner's per-candidate path
// allocates nothing.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pgsim/common/random.h"

namespace pgsim {

/// Non-owning columnar view: set i has id ids[i], pair weights
/// (wl[i], wu[i]) = (LowerB(f), UpperB(f)), and elements
/// elements[span_begin[i] .. span_end[i]).
struct QpWeightedSetsView {
  size_t num_sets = 0;
  const uint32_t* ids = nullptr;
  const double* wl = nullptr;
  const double* wu = nullptr;
  const uint32_t* elements = nullptr;
  const uint32_t* span_begin = nullptr;
  const uint32_t* span_end = nullptr;
};

/// Solver knobs.
struct LsimOptions {
  int gradient_iterations = 120;
  int projection_sweeps = 25;
  /// Rounding rounds = ceil(rounding_factor * ln(max(2, |U|))) (Alg 2: 2ln|U|).
  double rounding_factor = 2.0;
};

/// Reusable solver buffers for SolveTightestLsim; capacities
/// survive across calls so a steady-state Lsim loop allocates nothing.
struct LsimScratch {
  std::vector<uint32_t> elem_offsets;  ///< element -> sets CSR (universe+1)
  std::vector<uint32_t> elem_cursor;
  std::vector<uint32_t> elem_sets;
  std::vector<double> x;
  std::vector<double> best_x;
  std::vector<char> picked;
  std::vector<char> chosen_mask;
  std::vector<char> covered;
  std::vector<uint32_t> order;
  std::vector<uint32_t> rounded;
  std::vector<uint32_t> greedy;
  std::vector<uint32_t> single;
};

/// Outcome of the Lsim computation.
struct LsimResult {
  double lsim = 0.0;                 ///< best lower bound found (>= 0)
  std::vector<uint32_t> chosen_ids;  ///< selection achieving it
  bool covered = false;              ///< selection covers U?
  double relaxed_objective = 0.0;    ///< QP(I), an upper bound on Eq. 9
};

/// Computes the tightest Lsim(q) over the candidate sets. Reuses
/// `*scratch` and `*result` capacity (allocation-free in steady state).
void SolveTightestLsim(size_t universe_size, const QpWeightedSetsView& sets,
                       const LsimOptions& options, Rng* rng,
                       LsimScratch* scratch, LsimResult* result);

}  // namespace pgsim
