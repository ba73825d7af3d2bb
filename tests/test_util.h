// Shared helpers for the pgsim test suite: tiny-graph builders, independent
// brute-force oracles (used to cross-check VF2 / MCS / inference), and small
// random-instance generators.

#pragma once

#include <algorithm>
#include <numeric>
#include <vector>

#include "pgsim/common/bitset.h"
#include "pgsim/common/random.h"
#include "pgsim/graph/graph.h"
#include "pgsim/prob/jpt.h"
#include "pgsim/prob/probabilistic_graph.h"
#include "pgsim/query/processor.h"

namespace pgsim::testing {

/// Builds a graph from vertex labels and edge triples (u, v, label).
inline Graph MakeGraph(const std::vector<LabelId>& vertex_labels,
                       const std::vector<std::tuple<VertexId, VertexId,
                                                    LabelId>>& edges) {
  GraphBuilder builder;
  for (LabelId l : vertex_labels) builder.AddVertex(l);
  for (const auto& [u, v, l] : edges) {
    auto r = builder.AddEdge(u, v, l);
    (void)r;
  }
  return builder.Build();
}

/// A path graph with `n` vertices, all labels `label`, edge labels 0.
inline Graph MakePath(uint32_t n, LabelId label = 0) {
  GraphBuilder builder;
  for (uint32_t i = 0; i < n; ++i) builder.AddVertex(label);
  for (uint32_t i = 0; i + 1 < n; ++i) {
    auto r = builder.AddEdge(i, i + 1, 0);
    (void)r;
  }
  return builder.Build();
}

/// A triangle with the given vertex labels.
inline Graph MakeTriangle(LabelId a, LabelId b, LabelId c) {
  return MakeGraph({a, b, c}, {{0, 1, 0}, {1, 2, 0}, {0, 2, 0}});
}

/// Independent brute-force embedding counter: enumerates all injective
/// vertex maps (no VF2 machinery shared), returns distinct target-edge sets.
inline std::vector<EdgeBitset> BruteForceEmbeddings(const Graph& pattern,
                                                    const Graph& target) {
  std::vector<EdgeBitset> found;
  if (pattern.NumVertices() > target.NumVertices()) return found;
  std::vector<VertexId> map(pattern.NumVertices(), kInvalidVertex);
  std::vector<char> used(target.NumVertices(), 0);

  auto valid_full = [&]() -> bool {
    for (EdgeId e = 0; e < pattern.NumEdges(); ++e) {
      const Edge& pe = pattern.GetEdge(e);
      const VertexId tu = map[pe.u], tv = map[pe.v];
      const auto te = target.FindEdge(std::min(tu, tv), std::max(tu, tv));
      if (!te.has_value() || target.EdgeLabel(*te) != pe.label) return false;
    }
    return true;
  };
  auto record = [&]() {
    EdgeBitset set(target.NumEdges());
    for (EdgeId e = 0; e < pattern.NumEdges(); ++e) {
      const Edge& pe = pattern.GetEdge(e);
      const VertexId tu = map[pe.u], tv = map[pe.v];
      set.Set(*target.FindEdge(std::min(tu, tv), std::max(tu, tv)));
    }
    for (const EdgeBitset& s : found) {
      if (s == set) return;
    }
    found.push_back(set);
  };

  auto recurse = [&](auto&& self, VertexId pv) -> void {
    if (pv == pattern.NumVertices()) {
      if (valid_full()) record();
      return;
    }
    for (VertexId tv = 0; tv < target.NumVertices(); ++tv) {
      if (used[tv] || target.VertexLabel(tv) != pattern.VertexLabel(pv)) {
        continue;
      }
      map[pv] = tv;
      used[tv] = 1;
      self(self, pv + 1);
      used[tv] = 0;
      map[pv] = kInvalidVertex;
    }
  };
  recurse(recurse, 0);
  return found;
}

/// Random small labeled graph: `n` vertices, ~`extra` edges beyond a
/// spanning tree, labels < num_labels.
inline Graph RandomGraph(Rng* rng, uint32_t n, uint32_t extra,
                         uint32_t num_labels) {
  GraphBuilder builder;
  for (uint32_t i = 0; i < n; ++i) {
    builder.AddVertex(static_cast<LabelId>(rng->Uniform(num_labels)));
  }
  for (uint32_t v = 1; v < n; ++v) {
    auto r = builder.AddEdge(static_cast<VertexId>(rng->Uniform(v)), v, 0);
    (void)r;
  }
  for (uint32_t i = 0; i < extra; ++i) {
    const VertexId a = static_cast<VertexId>(rng->Uniform(n));
    const VertexId b = static_cast<VertexId>(rng->Uniform(n));
    if (a == b) continue;
    auto r = builder.AddEdge(a, b, 0);
    (void)r;
  }
  return builder.Build();
}

/// Random partition-model probabilistic graph over `certain`: vertex-anchored
/// ne groups of size <= max_ne, random (correlated) JPTs.
inline ProbabilisticGraph RandomProbGraph(const Graph& certain, Rng* rng,
                                          uint32_t max_ne = 3) {
  const uint32_t m = certain.NumEdges();
  std::vector<char> assigned(m, 0);
  std::vector<NeighborEdgeSet> ne_sets;
  for (VertexId v = 0; v < certain.NumVertices(); ++v) {
    std::vector<EdgeId> pool;
    for (const AdjEntry& adj : certain.Neighbors(v)) {
      if (!assigned[adj.edge]) pool.push_back(adj.edge);
    }
    size_t i = 0;
    while (i < pool.size()) {
      const size_t take = std::min<size_t>(1 + rng->Uniform(max_ne),
                                           pool.size() - i);
      NeighborEdgeSet ne;
      ne.edges.assign(pool.begin() + i, pool.begin() + i + take);
      for (EdgeId e : ne.edges) assigned[e] = 1;
      std::vector<double> weights(1ULL << take);
      for (auto& w : weights) w = 0.05 + rng->UniformDouble();
      ne.table = JointProbTable::FromWeights(weights).value();
      ne_sets.push_back(std::move(ne));
      i += take;
    }
  }
  return ProbabilisticGraph::Create(certain, std::move(ne_sets)).value();
}

/// Every QueryCounters field in declaration order, so roll-up tests can sum
/// them field by field without going through QueryCounters::operator+=.
inline std::vector<size_t> CounterFields(const QueryCounters& c) {
  static_assert(sizeof(QueryCounters) == 14 * sizeof(size_t),
                "a QueryCounters field was added: list it here too");
  return {c.num_relaxed_queries,      c.structural_candidates,
          c.pruned_by_upper,          c.accepted_by_lower,
          c.verification_candidates,  c.verification_failures,
          c.cancelled_candidates,     c.answers,
          c.sig_pairs_rejected,       c.domain_candidates_pruned,
          c.vf2_calls_avoided,        c.sample_draws,
          c.bound_decided,            c.stopped_early};
}

/// Adds `c`'s fields into `sum` (sized by CounterFields on first use).
inline void AddCounterFields(const QueryCounters& c, std::vector<size_t>* sum) {
  const std::vector<size_t> fields = CounterFields(c);
  sum->resize(fields.size(), 0);
  for (size_t i = 0; i < fields.size(); ++i) (*sum)[i] += fields[i];
}

}  // namespace pgsim::testing
