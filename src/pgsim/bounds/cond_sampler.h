// Algorithm 3 vocabulary: edge events and Monte-Carlo sample counts.
//
// Events are conjunctions over one edge set: an *embedding event* is true
// when all of its edges are present in a sampled world; a *cut event* is true
// when all of its edges are absent (the cut "exists", destroying every
// embedding). Algorithm 3 samples possible worlds and estimates
//
//   Pr(target | conditioning events all false)
//     = #(target true ∧ all conditioning events false)
//       / #(all conditioning events false).
//
// ComputeSipBoundsBatch (sip_bounds.h) runs it for every estimate of one
// graph over a single shared world pool. The sample count follows the
// Monte-Carlo bound m = (4 ln(2/ξ)) / τ² cited from [26].

#pragma once

#include <cstdint>

#include "pgsim/common/bitset.h"

namespace pgsim {

/// A conjunction event over one edge subset.
struct EdgeEvent {
  EdgeBitset edges;
  /// true: event holds when all edges are present (embedding Bf).
  /// false: event holds when all edges are absent (cut Bc).
  bool all_present = true;

  /// Evaluates the event on a sampled world.
  bool Holds(const EdgeBitset& world) const {
    return all_present ? world.ContainsAll(edges)
                       : !world.Intersects(edges);
  }
};

/// Accuracy knobs for every Monte-Carlo routine in the library
/// (Algorithm 3 in the SIP bounds, Algorithm 5 in the verifier).
struct MonteCarloParams {
  double xi = 0.1;    ///< Confidence parameter ξ in (0, 1).
  double tau = 0.1;   ///< Accuracy parameter τ > 0.
  uint64_t min_samples = 200;
  uint64_t max_samples = 500'000;

  /// m = (4 ln(2/ξ)) / τ², clamped to [min_samples, max_samples].
  uint64_t NumSamples() const;
};

}  // namespace pgsim
