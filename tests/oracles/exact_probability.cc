#include "oracles/exact_probability.h"

#include "oracles/mcs.h"
#include "oracles/possible_world.h"
#include "pgsim/graph/vf2.h"
#include "pgsim/prob/dnf_exact.h"

namespace pgsim {

Result<double> ExactSspByWorldEnumeration(const ProbabilisticGraph& g,
                                          const Graph& q, uint32_t delta,
                                          uint32_t max_edges) {
  WorldEnumOptions world_options;
  world_options.max_edges = max_edges;
  double total = 0.0;
  // One world-view graph reused across all 2^|E| worlds: BuildEdgeSubsetGraph
  // refills its CSR storage instead of running a GraphBuilder per world.
  Graph world_graph;
  PGSIM_RETURN_NOT_OK(EnumerateWorlds(
      g,
      [&](const EdgeBitset& world, double p) {
        BuildEdgeSubsetGraph(g.certain(), world, &world_graph);
        if (IsSubgraphSimilar(q, world_graph, delta)) total += p;
        return true;
      },
      world_options));
  return total;
}

Result<double> ExactSubgraphIsomorphismProbability(const ProbabilisticGraph& g,
                                                   const Graph& feature,
                                                   size_t max_embeddings) {
  bool truncated = false;
  std::vector<EdgeBitset> embeddings =
      EmbeddingEdgeSets(feature, g.certain(), max_embeddings, &truncated);
  if (truncated) {
    return Status::ResourceExhausted(
        "ExactSubgraphIsomorphismProbability: embedding cap hit");
  }
  if (embeddings.empty()) return 0.0;
  return ExactDnfProbability(g, embeddings);
}

std::vector<EdgeBitset> EventBitsets(const VerifierScratch& scratch,
                                     size_t num_edges) {
  std::vector<EdgeBitset> events(scratch.events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    events[i].AssignWords(scratch.events.Row(i), num_edges);
  }
  return events;
}

}  // namespace pgsim
