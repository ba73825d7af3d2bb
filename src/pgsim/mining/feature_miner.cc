#include "pgsim/mining/feature_miner.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "pgsim/common/thread_pool.h"
#include "pgsim/common/timer.h"
#include "pgsim/graph/signature.h"
#include "pgsim/graph/vf2.h"

namespace pgsim {

size_t GreedyDisjointCount(const std::vector<EdgeBitset>& embeddings) {
  std::vector<EdgeBitset> chosen;
  for (const EdgeBitset& e : embeddings) {
    bool disjoint = true;
    for (const EdgeBitset& c : chosen) {
      if (e.Intersects(c)) {
        disjoint = false;
        break;
      }
    }
    if (disjoint) chosen.push_back(e);
  }
  return chosen.size();
}

namespace {

struct Candidate {
  Graph graph;
  uint64_t fingerprint = 0;
  // Indices into the database that *might* support it (parent's support).
  std::vector<uint32_t> parent_support;
};

// Dedup helper: fingerprint buckets + exact isomorphism.
class PatternPool {
 public:
  // Returns true if the pattern was new.
  bool Insert(const Graph& g, uint64_t fp) {
    auto& bucket = buckets_[fp];
    for (const Graph* existing : bucket) {
      if (AreIsomorphic(*existing, g)) return false;
    }
    owned_.push_back(std::make_unique<Graph>(g));
    bucket.push_back(owned_.back().get());
    return true;
  }

 private:
  std::unordered_map<uint64_t, std::vector<const Graph*>> buckets_;
  std::vector<std::unique_ptr<Graph>> owned_;
};

// Builds `base` plus one extra edge. `anchor_map` maps base vertices to data
// vertices of `data`; the new edge is (data_u, data_v) where data_u is the
// image of base vertex `bu`, and data_v either maps back to base vertex `bv`
// (closing edge, bv != kInvalidVertex) or is a fresh vertex with label
// `new_label`.
Graph ExtendPattern(const Graph& base, VertexId bu, VertexId bv,
                    LabelId new_vertex_label, LabelId edge_label) {
  GraphBuilder builder;
  for (VertexId v = 0; v < base.NumVertices(); ++v) {
    builder.AddVertex(base.VertexLabel(v));
  }
  for (EdgeId e = 0; e < base.NumEdges(); ++e) {
    const Edge& edge = base.GetEdge(e);
    auto r = builder.AddEdge(edge.u, edge.v, edge.label);
    (void)r;
  }
  if (bv == kInvalidVertex) {
    const VertexId fresh = builder.AddVertex(new_vertex_label);
    auto r = builder.AddEdge(bu, fresh, edge_label);
    (void)r;
  } else {
    auto r = builder.AddEdge(bu, bv, edge_label);
    (void)r;
  }
  return builder.Build();
}

}  // namespace

Result<FeatureSet> MineFeatures(const std::vector<Graph>& database,
                                const FeatureMinerOptions& options) {
  if (database.empty()) {
    return Status::InvalidArgument("MineFeatures: empty database");
  }
  if (options.max_vertices < 2) {
    return Status::InvalidArgument("MineFeatures: max_vertices must be >= 2");
  }
  WallTimer timer;
  FeatureSet out;

  // ---- Level 1: all distinct single-edge patterns, kept unconditionally
  // (Algorithm 4 lines 1-4). ----
  struct EdgePatternKey {
    LabelId lu, lv, le;  // lu <= lv
    bool operator==(const EdgePatternKey& o) const {
      return lu == o.lu && lv == o.lv && le == o.le;
    }
  };
  struct EdgePatternKeyHash {
    size_t operator()(const EdgePatternKey& k) const {
      return (size_t{k.lu} * 1315423911u) ^ (size_t{k.lv} * 2654435761u) ^
             k.le;
    }
  };
  std::unordered_map<EdgePatternKey, std::vector<uint32_t>, EdgePatternKeyHash>
      edge_patterns;
  for (uint32_t gi = 0; gi < database.size(); ++gi) {
    std::unordered_set<size_t> seen_in_graph;
    for (const Edge& e : database[gi].Edges()) {
      LabelId lu = database[gi].VertexLabel(e.u);
      LabelId lv = database[gi].VertexLabel(e.v);
      if (lu > lv) std::swap(lu, lv);
      const EdgePatternKey key{lu, lv, e.label};
      const size_t h = EdgePatternKeyHash{}(key);
      if (!seen_in_graph.insert(h).second) continue;
      edge_patterns[key].push_back(gi);
    }
  }
  for (auto& [key, support] : edge_patterns) {
    GraphBuilder builder;
    const VertexId a = builder.AddVertex(key.lu);
    const VertexId b = builder.AddVertex(key.lv);
    auto r = builder.AddEdge(a, b, key.le);
    (void)r;
    Feature f;
    f.graph = builder.Build();
    std::sort(support.begin(), support.end());
    f.support = std::move(support);
    f.frequency =
        static_cast<double>(f.support.size()) / database.size();
    f.discriminative = 1.0;
    f.level = 1;
    out.features.push_back(std::move(f));
  }
  // Deterministic order regardless of hash iteration.
  std::sort(out.features.begin(), out.features.end(),
            [](const Feature& a, const Feature& b) {
              const Graph &ga = a.graph, &gb = b.graph;
              if (ga.VertexLabel(0) != gb.VertexLabel(0)) {
                return ga.VertexLabel(0) < gb.VertexLabel(0);
              }
              if (ga.VertexLabel(1) != gb.VertexLabel(1)) {
                return ga.VertexLabel(1) < gb.VertexLabel(1);
              }
              return ga.EdgeLabel(0) < gb.EdgeLabel(0);
            });

  // ---- Levels 2+: pattern growth by one edge. ----
  // `frontier` holds pointers into `out.features`; reserve enough capacity
  // up front that no push_back below ever reallocates.
  out.features.reserve(out.features.size() + options.max_features_total + 1);
  std::vector<const Feature*> frontier;
  for (const Feature& f : out.features) frontier.push_back(&f);

  // Compiled match plans parallel to out.features, extended as levels land:
  // Phase B's subfeature tests reuse them across every candidate instead of
  // recompiling per (prior, candidate) pair. Default (max-degree) seeds keep
  // the enumeration order — and thus the mined feature set — bit-identical
  // to the reference engine.
  std::vector<MatchPlan> feature_plans;
  feature_plans.reserve(out.features.capacity());
  for (const Feature& f : out.features) {
    feature_plans.push_back(CompileMatchPlan(f.graph));
  }

  // Signature cover-test inputs: one per-vertex signature set per database
  // graph (built once, reused by every candidate's support scan) and one per
  // accepted feature (pattern side of the subfeature containment tests).
  // Cover-test failures prove zero embeddings, so the skips cannot change
  // the mined set — they only shrink isomorphism_tests.
  std::vector<QuerySignature> db_sigs(database.size());
  for (size_t gi = 0; gi < database.size(); ++gi) {
    db_sigs[gi] = BuildQuerySignature(database[gi]);
  }
  std::vector<QuerySignature> feature_sigs;
  feature_sigs.reserve(out.features.capacity());
  for (const Feature& f : out.features) {
    feature_sigs.push_back(BuildQuerySignature(f.graph));
  }

  Vf2Options emb_options;
  emb_options.max_embeddings = options.max_growth_embeddings;
  emb_options.dedup_by_edge_set = true;

  // Worker resolution: each level fans its per-parent enumeration and
  // per-candidate scoring across the pool and merges slots in input order,
  // so the mined feature set is bit-identical at every thread count.
  const ScopedPool scoped_pool(options.num_threads);
  ThreadPool* workers = scoped_pool.get();

  for (uint32_t level = 2; !frontier.empty(); ++level) {
    if (out.features.size() >= options.max_features_total) break;

    // Phase A: parents enumerate their extension candidates independently
    // (dedup within the parent; its slot is all it writes), in fixed-size
    // waves. Waves bound peak memory — at most kParentWave parents hold
    // un-merged candidate lists — and let enumeration stop at the level cap
    // with at most one wave of overshoot, while staying thread-count
    // independent: the wave size is a constant, and the cap decision is
    // taken only at wave boundaries after an in-order merge.
    struct ParentCandidates {
      std::vector<Candidate> candidates;
      uint64_t embeddings_examined = 0;
    };
    constexpr size_t kParentWave = 32;
    std::vector<Candidate> candidates;
    PatternPool level_pool;
    for (size_t wave_begin = 0;
         wave_begin < frontier.size() &&
         candidates.size() < options.max_candidates_per_level;
         wave_begin += kParentWave) {
      const size_t wave_size =
          std::min(kParentWave, frontier.size() - wave_begin);
      std::vector<ParentCandidates> per_parent(wave_size);
      ForEachIndex(workers, wave_size, 1, [&](size_t wi) {
        const Feature* parent = frontier[wave_begin + wi];
        ParentCandidates& slot = per_parent[wi];
        PatternPool parent_pool;
        const Graph& pg = parent->graph;
        // One plan + scratch per parent, reused across its support graphs.
        const MatchPlan parent_plan = CompileMatchPlan(pg);
        Vf2Scratch vf2;
        size_t graphs_used = 0;
        for (uint32_t gi : parent->support) {
          if (graphs_used++ >= options.max_growth_graphs) break;
          const Graph& data = database[gi];
          EnumerateEmbeddings(
              parent_plan, data, emb_options, &vf2,
              [&](const Embedding& emb) {
                ++slot.embeddings_examined;
                // Reverse map: data vertex -> pattern vertex.
                std::unordered_map<VertexId, VertexId> reverse;
                for (VertexId pv = 0; pv < pg.NumVertices(); ++pv) {
                  reverse[emb.vertex_map[pv]] = pv;
                }
                std::unordered_set<EdgeId> used_edges(emb.edge_map.begin(),
                                                      emb.edge_map.end());
                for (VertexId pv = 0; pv < pg.NumVertices(); ++pv) {
                  const VertexId dv = emb.vertex_map[pv];
                  for (const AdjEntry& a : data.Neighbors(dv)) {
                    if (used_edges.count(a.edge)) continue;
                    const auto it = reverse.find(a.neighbor);
                    Graph extended;
                    if (it != reverse.end()) {
                      // Closing edge between two mapped vertices; skip if the
                      // pattern already has it (shouldn't: edge not used).
                      if (pv > it->second) continue;  // emit once per pair
                      if (pg.FindEdge(std::min(pv, it->second),
                                      std::max(pv, it->second))
                              .has_value()) {
                        continue;
                      }
                      extended = ExtendPattern(pg, pv, it->second, 0,
                                               data.EdgeLabel(a.edge));
                    } else {
                      if (pg.NumVertices() + 1 > options.max_vertices) continue;
                      extended = ExtendPattern(
                          pg, pv, kInvalidVertex,
                          data.VertexLabel(a.neighbor), data.EdgeLabel(a.edge));
                    }
                    const uint64_t fp = GraphFingerprint(extended);
                    if (parent_pool.Insert(extended, fp)) {
                      Candidate cand;
                      cand.graph = std::move(extended);
                      cand.fingerprint = fp;
                      cand.parent_support = parent->support;
                      slot.candidates.push_back(std::move(cand));
                    }
                  }
                }
                return slot.candidates.size() <
                       options.max_candidates_per_level;
              });
          if (slot.candidates.size() >= options.max_candidates_per_level) {
            break;
          }
        }
      });

      // Merge the wave in parent order with cross-parent dedup and the
      // level cap: the candidate sequence matches what one thread
      // enumerating parent-by-parent would produce.
      for (ParentCandidates& slot : per_parent) {
        out.candidates_examined += slot.embeddings_examined;
        for (Candidate& cand : slot.candidates) {
          if (candidates.size() >= options.max_candidates_per_level) break;
          if (level_pool.Insert(cand.graph, cand.fingerprint)) {
            candidates.push_back(std::move(cand));
          }
        }
      }
    }
    if (candidates.empty()) break;

    // Phase B: score every candidate — support with the alpha disjointness
    // rule, frequency, discriminative score — in parallel. out.features only
    // holds *previous* levels during this phase, so reads are stable.
    struct ScoredCandidate {
      bool pass = false;
      Feature feature;
      uint64_t isomorphism_tests = 0;
    };
    std::vector<ScoredCandidate> scored(candidates.size());
    ForEachIndex(workers, candidates.size(), 1, [&](size_t ci) {
      Candidate& cand = candidates[ci];
      ScoredCandidate& slot = scored[ci];
      // One plan per candidate, reused across its whole parent support (and
      // one scratch for every enumeration/test this candidate runs).
      const MatchPlan cand_plan = CompileMatchPlan(cand.graph);
      const QuerySignature cand_sig = BuildQuerySignature(cand.graph);
      Vf2Scratch vf2;
      // Support and alpha-qualified support.
      std::vector<uint32_t> support;
      size_t alpha_qualified = 0;
      for (uint32_t gi : cand.parent_support) {
        if (!SignatureCoverTest(cand.graph, cand_sig.view(), database[gi],
                                db_sigs[gi].view())) {
          continue;  // provably zero embeddings: skip the (uncounted) VF2
        }
        ++slot.isomorphism_tests;
        bool truncated = false;
        const std::vector<EdgeBitset> embeddings =
            EmbeddingEdgeSets(cand_plan, database[gi],
                              options.max_embeddings_per_graph, &truncated,
                              &vf2);
        if (embeddings.empty()) continue;
        support.push_back(gi);
        const size_t disjoint = GreedyDisjointCount(embeddings);
        if (static_cast<double>(disjoint) / embeddings.size() >=
            options.alpha) {
          ++alpha_qualified;
        }
      }
      const double frq =
          static_cast<double>(alpha_qualified) / database.size();
      if (frq < options.beta) return;

      // dis(f): 1 - |Df| / |∩ Df'| over proper subfeatures already in F.
      size_t intersection_size = database.size();
      {
        std::vector<uint32_t> intersection;
        bool first = true;
        for (size_t pi = 0; pi < out.features.size(); ++pi) {
          const Feature& prior = out.features[pi];
          if (prior.graph.NumEdges() >= cand.graph.NumEdges()) continue;
          if (!SignatureCoverTest(prior.graph, feature_sigs[pi].view(),
                                  cand.graph, cand_sig.view())) {
            continue;  // cover fail ⟹ prior ⊄ cand: same branch, no VF2
          }
          ++slot.isomorphism_tests;
          if (!IsSubgraphIsomorphic(feature_plans[pi], cand.graph, &vf2)) {
            continue;
          }
          if (first) {
            intersection = prior.support;
            first = false;
          } else {
            std::vector<uint32_t> merged;
            std::set_intersection(intersection.begin(), intersection.end(),
                                  prior.support.begin(), prior.support.end(),
                                  std::back_inserter(merged));
            intersection = std::move(merged);
          }
          if (intersection.empty()) break;
        }
        if (!first) intersection_size = intersection.size();
      }
      const double dis =
          intersection_size == 0
              ? 1.0
              : 1.0 - static_cast<double>(support.size()) / intersection_size;
      if (dis <= options.gamma) return;

      slot.feature.graph = std::move(cand.graph);
      slot.feature.support = std::move(support);
      slot.feature.frequency = frq;
      slot.feature.discriminative = dis;
      slot.feature.level = slot.feature.graph.NumEdges();
      slot.pass = true;
    });

    std::vector<Feature> accepted;
    for (ScoredCandidate& slot : scored) {
      out.isomorphism_tests += slot.isomorphism_tests;
      if (!slot.pass) continue;
      if (out.features.size() + accepted.size() >=
          options.max_features_total) {
        continue;  // budget spent; keep draining counters deterministically
      }
      accepted.push_back(std::move(slot.feature));
    }

    // Beam: keep the most frequent features of this level.
    std::stable_sort(accepted.begin(), accepted.end(),
                     [](const Feature& a, const Feature& b) {
                       return a.frequency > b.frequency;
                     });
    if (accepted.size() > options.max_features_per_level) {
      accepted.resize(options.max_features_per_level);
    }

    frontier.clear();
    for (Feature& f : accepted) {
      out.features.push_back(std::move(f));
      frontier.push_back(&out.features.back());
      feature_plans.push_back(CompileMatchPlan(out.features.back().graph));
      feature_sigs.push_back(BuildQuerySignature(out.features.back().graph));
    }
  }

  out.mining_seconds = timer.Seconds();
  return out;
}

}  // namespace pgsim
