// Feature generation (paper Algorithm 4, Section 4.2).
//
// Features are small deterministic graphs mined from the certain database
// Dc. Selection follows the paper's two rules — prefer features with many
// pairwise-disjoint embeddings (Rule 1) and small size (Rule 2) — through
// three thresholds:
//
//   frq(f)  = |{g : f ⊆iso gc and |IN|/|Ef| >= alpha}| / |D|  >= beta,
//             where IN is a maximal disjoint embedding family and Ef all
//             embeddings of f in gc;
//   dis(f)  computed from support-list intersections of f's subfeatures
//             (gIndex-style). Note: the paper's printed formula
//             |∩Df'|/|Df| is identically >= 1 (Df ⊆ ∩Df'), which cannot be
//             thresholded by gamma in (0, 1); we implement the evidently
//             intended quantity dis(f) = 1 - |Df| / |∩{Df' : f' ⊂iso f}| —
//             the fraction of subfeature-supporting graphs that f prunes —
//             which is in [0, 1) and shrinks the index as gamma grows,
//             matching Figure 12(d).
//
// Growth is pattern-extension from actual occurrences (an edge adjacent to
// an embedding, or an edge closing a cycle inside one), levelled by edge
// count, capped by maxL vertices. All single-edge features are retained
// unconditionally (Algorithm 4 lines 1–4); they also guarantee that every
// non-empty relaxed query can be covered in the set-cover step.

#pragma once

#include <cstdint>
#include <vector>

#include "pgsim/common/bitset.h"
#include "pgsim/common/status.h"
#include "pgsim/graph/graph.h"

namespace pgsim {

/// Mining thresholds and caps. Defaults mirror the paper's defaults
/// (alpha = beta = gamma = 0.15) at laptop scale.
struct FeatureMinerOptions {
  double alpha = 0.15;        ///< min disjoint-embedding ratio |IN|/|Ef|.
  double beta = 0.15;         ///< min frequency frq(f).
  double gamma = 0.15;        ///< min discriminative score dis(f).
  uint32_t max_vertices = 6;  ///< maxL: feature size cap in vertices.
  /// Embedding-enumeration cap per (feature, graph) when computing |Ef|.
  size_t max_embeddings_per_graph = 64;
  /// Candidate patterns examined per level (growth beam).
  size_t max_candidates_per_level = 4000;
  /// Features kept per level after filtering.
  size_t max_features_per_level = 200;
  /// Total feature budget.
  size_t max_features_total = 600;
  /// Supporting graphs sampled per feature when generating extensions.
  size_t max_growth_graphs = 24;
  /// Embeddings sampled per supporting graph when generating extensions.
  size_t max_growth_embeddings = 8;
  /// Worker threads for candidate enumeration and per-candidate evaluation;
  /// 0 means ThreadPool::DefaultThreads(), 1 runs fully inline. The mined
  /// feature set is bit-identical at every thread count: parallel phases fan
  /// out per-parent / per-candidate work items and merge them in input order.
  uint32_t num_threads = 0;
};

/// One mined feature: its graph and support list Df (indices into Dc).
struct Feature {
  Graph graph;
  std::vector<uint32_t> support;  ///< sorted graph indices with f ⊆iso gc.
  double frequency = 0.0;         ///< frq(f).
  double discriminative = 1.0;    ///< dis(f).
  uint32_t level = 1;             ///< edge count at mining time.
};

/// The mined feature set F plus mining statistics.
struct FeatureSet {
  std::vector<Feature> features;
  uint64_t candidates_examined = 0;
  uint64_t isomorphism_tests = 0;
  double mining_seconds = 0.0;
};

/// Mines F from the certain database Dc (Algorithm 4).
Result<FeatureSet> MineFeatures(const std::vector<Graph>& database,
                                const FeatureMinerOptions& options =
                                    FeatureMinerOptions());

/// Size of a maximal pairwise-edge-disjoint embedding family chosen greedily
/// from `embeddings` (the |IN| of Rule 1). Exposed for tests.
size_t GreedyDisjointCount(const std::vector<EdgeBitset>& embeddings);

}  // namespace pgsim
