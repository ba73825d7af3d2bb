#include "oracles/bounds_reference.h"

#include <algorithm>

namespace pgsim {

double EstimateConditionalProbability(
    const ProbabilisticGraph& g, const EdgeEvent& target,
    const std::vector<EdgeEvent>& conditioning, const MonteCarloParams& params,
    Rng* rng) {
  CondSamplerScratch scratch;
  return EstimateConditionalProbability(g, target, conditioning, params, rng,
                                        &scratch);
}

double EstimateConditionalProbability(
    const ProbabilisticGraph& g, const EdgeEvent& target,
    const std::vector<EdgeEvent>& conditioning, const MonteCarloParams& params,
    Rng* rng, CondSamplerScratch* scratch) {
  const uint64_t m = params.NumSamples();
  uint64_t n1 = 0, n2 = 0;
  EdgeBitset& world = scratch->world;
  for (uint64_t i = 0; i < m; ++i) {
    g.SampleWorldInto(rng, &scratch->sample, &world);
    bool conditioning_clear = true;
    for (const EdgeEvent& ev : conditioning) {
      if (ev.Holds(world)) {
        conditioning_clear = false;
        break;
      }
    }
    if (!conditioning_clear) continue;
    ++n2;
    if (target.Holds(world)) ++n1;
  }
  if (n2 == 0) return 0.0;
  return static_cast<double>(n1) / static_cast<double>(n2);
}

ParallelGraph BuildParallelGraph(const std::vector<EdgeBitset>& embeddings) {
  ParallelGraph cg;
  cg.num_nodes = 2;  // s = 0, t = 1
  for (const EdgeBitset& emb : embeddings) {
    const std::vector<uint32_t> edges = emb.ToVector();
    // Line: s - n1 - n2 - ... - nk - t with k = |edges| internal hops.
    uint32_t prev = 0;  // s
    for (size_t i = 0; i < edges.size(); ++i) {
      const uint32_t node = cg.num_nodes++;
      cg.edges.push_back({prev, node,
                          i == 0 ? kInvalidEdge : edges[i - 1]});
      prev = node;
    }
    // Last labeled edge, then connector to t.
    if (!edges.empty()) {
      const uint32_t node = cg.num_nodes++;
      cg.edges.push_back({prev, node, edges.back()});
      cg.edges.push_back({node, 1, kInvalidEdge});
    }
  }
  return cg;
}

namespace {

bool StillConnected(const ParallelGraph& cg, const EdgeBitset& removed) {
  std::vector<char> seen(cg.num_nodes, 0);
  std::vector<uint32_t> stack{0};
  seen[0] = 1;
  std::vector<std::vector<uint32_t>> adj(cg.num_nodes);
  for (size_t i = 0; i < cg.edges.size(); ++i) {
    const auto& e = cg.edges[i];
    if (e.label != kInvalidEdge && removed.Test(e.label)) continue;
    adj[e.a].push_back(e.b);
    adj[e.b].push_back(e.a);
  }
  while (!stack.empty()) {
    const uint32_t v = stack.back();
    stack.pop_back();
    if (v == 1) return true;
    for (uint32_t nb : adj[v]) {
      if (!seen[nb]) {
        seen[nb] = 1;
        stack.push_back(nb);
      }
    }
  }
  return false;
}

}  // namespace

std::vector<EdgeBitset> EnumerateParallelGraphCuts(const ParallelGraph& cg,
                                                   size_t num_edges,
                                                   size_t max_cut_size) {
  // Labels actually used in cG.
  std::vector<uint32_t> labels;
  {
    EdgeBitset used(num_edges);
    for (const auto& e : cg.edges) {
      if (e.label != kInvalidEdge) used.Set(e.label);
    }
    labels = used.ToVector();
  }
  std::vector<EdgeBitset> cuts;
  // Brute force over label subsets in increasing size: a subset is a minimal
  // cut iff it disconnects s from t and no already-found cut is contained
  // in it (size ordering makes subset-pruning == minimality).
  std::vector<uint32_t> subset;
  const size_t n = labels.size();
  auto enumerate = [&](auto&& self, size_t start, size_t remaining) -> void {
    if (remaining == 0) {
      EdgeBitset candidate(num_edges);
      for (uint32_t idx : subset) candidate.Set(labels[idx]);
      for (const EdgeBitset& c : cuts) {
        if (candidate.ContainsAll(c)) return;  // superset of a smaller cut
      }
      if (!StillConnected(cg, candidate)) cuts.push_back(candidate);
      return;
    }
    for (size_t i = start; i + remaining <= n; ++i) {
      subset.push_back(static_cast<uint32_t>(i));
      self(self, i + 1, remaining - 1);
      subset.pop_back();
    }
  };
  for (size_t size = 1; size <= std::min(max_cut_size, n); ++size) {
    enumerate(enumerate, 0, size);
  }
  return cuts;
}

}  // namespace pgsim
