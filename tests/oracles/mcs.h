// Test-only oracle: maximum common subgraph and subgraph distance (paper
// Definitions 7–8).
//
// dis(q, g) = |E(q)| - |mcs(q, g)| where mcs is the largest edge subgraph of
// q that is subgraph isomorphic to g. `q ⊆sim g` (subgraph similar) iff
// dis(q, g) <= delta.
//
// The solver is a branch-and-bound over injective partial vertex mappings of
// q into g: each q vertex is either mapped to a label-compatible unused g
// vertex or left unmapped; the score is the number of q edges whose mapped
// endpoints are joined in g by an equal-labeled edge. An optimistic bound
// (score so far + undecided edges) prunes the search.

#pragma once

#include <cstdint>

#include "pgsim/graph/graph.h"

namespace pgsim {

/// Size (edge count) of the maximum common subgraph mcs(q, g).
/// `give_up_at` short-circuits: once a common subgraph of that many edges is
/// found the search stops and returns `give_up_at` (0 = run to optimality).
uint32_t MaxCommonSubgraphEdges(const Graph& q, const Graph& g,
                                uint32_t give_up_at = 0);

/// Subgraph distance dis(q, g) = |E(q)| - |mcs(q, g)| (Definition 8).
uint32_t SubgraphDistance(const Graph& q, const Graph& g);

/// True iff dis(q, g) <= delta, i.e. q is subgraph similar to g.
/// Cheaper than SubgraphDistance: stops as soon as |E(q)| - delta common
/// edges are found.
bool IsSubgraphSimilar(const Graph& q, const Graph& g, uint32_t delta);

}  // namespace pgsim
