// Test-only oracles for the SIP bound machinery (paper Section 4.1):
//   * Algorithm 3 as a standalone per-estimate sampler — the library runs
//     it for all estimates of a graph over one shared world pool inside
//     ComputeSipBoundsBatch;
//   * Theorem 6's parallel graph cG and a brute-force minimal s-t cut
//     enumeration over it — the library enumerates minimal embedding cuts
//     as minimal hitting sets (EnumerateMinimalEmbeddingCuts).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pgsim/bounds/cond_sampler.h"
#include "pgsim/common/bitset.h"
#include "pgsim/common/random.h"
#include "pgsim/graph/graph.h"
#include "pgsim/prob/probabilistic_graph.h"

namespace pgsim {

/// Reusable buffers for EstimateConditionalProbability: the sampled-world
/// bitset plus the clique-tree temporaries behind it. Not concurrency-safe.
struct CondSamplerScratch {
  EdgeBitset world;
  WorldSampleScratch sample;
};

/// Algorithm 3. Estimates Pr(target | all `conditioning` events false) by
/// sampling `params.NumSamples()` worlds of `g`. Returns 0 when the
/// conditioning event was never observed (conservative for both bound
/// directions: a zero estimate only loosens the bounds).
double EstimateConditionalProbability(const ProbabilisticGraph& g,
                                      const EdgeEvent& target,
                                      const std::vector<EdgeEvent>& conditioning,
                                      const MonteCarloParams& params, Rng* rng);

/// As above, drawing every temporary from `*scratch`. Identical estimates
/// for identical RNG state.
double EstimateConditionalProbability(const ProbabilisticGraph& g,
                                      const EdgeEvent& target,
                                      const std::vector<EdgeEvent>& conditioning,
                                      const MonteCarloParams& params, Rng* rng,
                                      CondSamplerScratch* scratch);

/// The parallel graph cG of Theorem 6 / Figure 8: one s->t line per
/// embedding whose internal edges carry the original edge ids as labels.
struct ParallelGraph {
  /// Node 0 is s, node 1 is t.
  struct PEdge {
    uint32_t a;
    uint32_t b;
    EdgeId label;  ///< original gc edge id; kInvalidEdge for s/t connectors.
  };
  uint32_t num_nodes = 2;
  std::vector<PEdge> edges;
};

/// Builds cG from embedding edge lists (each embedding's edges in any fixed
/// order, as in the paper's random labeling).
ParallelGraph BuildParallelGraph(const std::vector<EdgeBitset>& embeddings);

/// Theorem 6 literally: enumerates minimal s-t cuts of cG expressed as sets
/// of original edge ids (removing an id removes *all* cG edges carrying it;
/// connector edges are never removable). Exponential in the number of
/// distinct labels.
std::vector<EdgeBitset> EnumerateParallelGraphCuts(const ParallelGraph& cg,
                                                   size_t num_edges,
                                                   size_t max_cut_size);

}  // namespace pgsim
