// Lower and upper bounds of the Subgraph Isomorphism Probability
// (paper Section 4.1, Equations 10–20).
//
// For a feature f and probabilistic graph g:
//   LowerB(f) = 1 - prod_{i in IN} (1 - Pr(Bfi | COR_i))   over a family IN
//               of pairwise edge-disjoint embeddings (Eq. 17);
//   UpperB(f) = prod_{i in IN'} (1 - Pr(Bci | COM_i))      over a family IN'
//               of pairwise edge-disjoint minimal embedding cuts (Eq. 20).
//
// Pr(.|.) terms come from the Algorithm 3 sampler; the *tightest* family is
// the max-weight clique of the disjointness graph fG with node weights
// -ln(1 - p) (Section 4.1 "Obtain Tightest Lower Bound"). The non-OPT
// variants of the experiments (SIPBound in Figure 11) use a greedy clique
// instead — both are computed here side by side.

#pragma once

#include <cstdint>
#include <vector>

#include "pgsim/bounds/cond_sampler.h"
#include "pgsim/bounds/embedding_cuts.h"
#include "pgsim/bounds/max_clique.h"
#include "pgsim/common/random.h"
#include "pgsim/graph/graph.h"
#include "pgsim/graph/vf2.h"
#include "pgsim/prob/probabilistic_graph.h"

namespace pgsim {

/// Knobs for the SIP bound computation.
struct SipBoundOptions {
  /// Cap on embeddings used for the *lower* bound (a subset only loosens it).
  size_t max_embeddings = 48;
  /// Cap on embeddings enumerated to build cuts. The cut construction needs
  /// the FULL embedding set to stay sound; if this cap is hit the upper
  /// bound falls back to 1.
  size_t max_cut_embeddings = 512;
  /// Minimal-cut enumeration caps (a subset of cuts stays sound).
  CutEnumOptions cuts;
  /// Algorithm 3 sampling accuracy.
  MonteCarloParams mc;
  /// Max-weight-clique solver knobs.
  MaxCliqueOptions clique;
};

/// Bounds of Pr(f ⊆iso g), in both tightest (OPT) and greedy flavors.
struct SipBounds {
  double lower_opt = 0.0;     ///< Eq. 17 with max-weight-clique IN.
  double upper_opt = 1.0;     ///< Eq. 20 with max-weight-clique IN'.
  double lower_simple = 0.0;  ///< Eq. 17 with greedy IN (SIPBound variant).
  double upper_simple = 1.0;  ///< Eq. 20 with greedy IN'.
  uint32_t num_embeddings = 0;
  uint32_t num_cuts = 0;
  bool embeddings_truncated = false;
  bool cuts_truncated = false;
};

/// Computes SIP bounds of `feature` against `g`. A feature with no embedding
/// in gc has SIP = 0 and returns all-zero bounds.
SipBounds ComputeSipBounds(const ProbabilisticGraph& g, const Graph& feature,
                           const SipBoundOptions& options, Rng* rng);

/// Computes SIP bounds for many features against one graph, sharing a single
/// Monte-Carlo world pool across all Algorithm 3 estimates (the PMI builder's
/// hot path: identical estimates, ~|features| times fewer sampled worlds).
///
/// `feature_plans`, when non-null, supplies one compiled MatchPlan per entry
/// of `features` (the PMI passes its build-once feature plans); null entries
/// or a null vector fall back to compiling per call. Plans must be
/// default-seeded so the embedding enumeration order — which the bound
/// families depend on — matches the per-call compilation exactly.
std::vector<SipBounds> ComputeSipBoundsBatch(
    const ProbabilisticGraph& g, const std::vector<const Graph*>& features,
    const SipBoundOptions& options, Rng* rng,
    const std::vector<const MatchPlan*>* feature_plans = nullptr);

}  // namespace pgsim
