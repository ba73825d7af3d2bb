// Embedding cuts (paper Section 4.1.2, Theorem 6, Example 7).
//
// An embedding cut of feature f in gc is an edge set whose removal destroys
// every embedding of f; minimal cuts are exactly the minimal transversals
// (hitting sets) of the hypergraph whose hyperedges are the embeddings' edge
// sets. The enumeration engine here is a minimal-hitting-set search; the
// paper's parallel-graph construction cG (Theorem 6) is a test oracle under
// tests/oracles/ that embedding_cuts_test checks it against.

#pragma once

#include <cstdint>
#include <vector>

#include "pgsim/common/bitset.h"
#include "pgsim/common/status.h"
#include "pgsim/graph/graph.h"

namespace pgsim {

/// Caps for the minimal-cut enumeration.
struct CutEnumOptions {
  /// Stop after this many minimal cuts.
  size_t max_cuts = 32;
  /// Ignore cuts with more edges than this (a subset of all minimal cuts
  /// still yields a valid upper bound — Pr(no cut in the subset realized)
  /// only grows as cuts are dropped).
  size_t max_cut_size = 5;
  /// Search-node budget.
  uint64_t max_nodes = 20'000;
};

/// Enumerates (a subset of) the minimal embedding cuts of the hypergraph
/// given by `embeddings` (bitsets over [0, num_edges)). Every returned set
/// intersects every embedding and is minimal with that property. Sets
/// `truncated` when a cap stopped the enumeration.
std::vector<EdgeBitset> EnumerateMinimalEmbeddingCuts(
    const std::vector<EdgeBitset>& embeddings, size_t num_edges,
    const CutEnumOptions& options, bool* truncated = nullptr);

}  // namespace pgsim
