// Test-only oracles for exact probabilities, computed the slow way: SSP
// straight from Definition 9 by world enumeration, SIP (Definition 6) from
// the full embedding list, and the collected Bf events copied out of a
// verifier scratch as bitsets.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pgsim/common/bitset.h"
#include "pgsim/common/status.h"
#include "pgsim/graph/graph.h"
#include "pgsim/prob/probabilistic_graph.h"
#include "pgsim/query/verifier.h"

namespace pgsim {

/// Definition 9 evaluated literally: sums Pr(g => g') over the worlds g'
/// with dis(q, g') <= delta. Tiny graphs only.
Result<double> ExactSspByWorldEnumeration(const ProbabilisticGraph& g,
                                          const Graph& q, uint32_t delta,
                                          uint32_t max_edges = 18);

/// Exact Pr(f ⊆iso g) (Definition 6 / Equation 10) via the exact DNF engine
/// over every embedding of `feature`; exponential worst case.
Result<double> ExactSubgraphIsomorphismProbability(const ProbabilisticGraph& g,
                                                   const Graph& feature,
                                                   size_t max_embeddings = 4096);

/// The rows CollectSimilarityEvents left in `scratch.events`, as bitsets
/// over [0, num_edges).
std::vector<EdgeBitset> EventBitsets(const VerifierScratch& scratch,
                                     size_t num_edges);

}  // namespace pgsim
