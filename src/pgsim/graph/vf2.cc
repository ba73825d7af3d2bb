#include "pgsim/graph/vf2.h"

#include <algorithm>

namespace pgsim {

namespace {

// ---- Plan compilation ----------------------------------------------------

// Seed choice for the next component: legacy rule is max degree with
// smallest-id tie-break; with label frequencies, rarest target label first,
// then max degree, then smallest id. Both are total orders over distinct
// vertex ids, so plans are deterministic.
VertexId PickSeed(const Graph& pattern, const std::vector<bool>& placed,
                  const std::vector<uint32_t>* label_freq) {
  const uint32_t n = pattern.NumVertices();
  VertexId seed = kInvalidVertex;
  for (VertexId v = 0; v < n; ++v) {
    if (placed[v]) continue;
    if (seed == kInvalidVertex) {
      seed = v;
      continue;
    }
    if (label_freq != nullptr) {
      auto freq = [&](VertexId u) -> uint64_t {
        const LabelId l = pattern.VertexLabel(u);
        return l < label_freq->size() ? (*label_freq)[l] : 0;
      };
      const uint64_t fv = freq(v), fs = freq(seed);
      if (fv != fs) {
        if (fv < fs) seed = v;
        continue;
      }
    }
    if (pattern.Degree(v) > pattern.Degree(seed)) seed = v;
  }
  return seed;
}

// ---- Back-edge lookup ----------------------------------------------------

// The target edge between u and v, or kInvalidEdge. Scans the
// smaller-degree endpoint's sorted adjacency with a gallop (exponential
// probe + binary search) — sub-logarithmic when the match lands early,
// which it usually does on the short list, and never worse than the plain
// binary search over the longer list that Graph::FindEdge would do.
EdgeId FindEdgeGallop(const Graph& target, VertexId u, VertexId v) {
  if (target.Degree(u) > target.Degree(v)) std::swap(u, v);
  const Span<AdjEntry> adj = target.Neighbors(u);
  const size_t n = adj.size();
  if (n == 0) return kInvalidEdge;
  // Exponential probe for the first index with neighbor >= v.
  size_t bound = 1;
  while (bound < n && adj[bound - 1].neighbor < v) bound <<= 1;
  const size_t lo = bound >> 1;
  const size_t hi = std::min(bound, n);
  const AdjEntry* it = std::lower_bound(
      adj.begin() + lo, adj.begin() + hi, v,
      [](const AdjEntry& a, VertexId want) { return a.neighbor < want; });
  if (it != adj.end() && it->neighbor == v) return it->edge;
  return kInvalidEdge;
}

// Label-aware look-ahead: every later-placed pattern neighbor of this
// position must map to a distinct unused target neighbor of `cand` carrying
// the right (vertex label, edge label) pair. Groups partition the adjacency
// entries (distinct vertices, one label pair each), so satisfying every
// group's count is necessary for the subtree to complete; failing one dooms
// it. Skips only fruitless branches — the embedding sequence is unchanged.
inline bool HasForwardRoom(const MatchPlan& plan, const Graph& target,
                           VertexId cand, uint32_t pos, Vf2Scratch* s) {
  const uint32_t fo = plan.fwd_offsets[pos];
  const uint32_t fe = plan.fwd_offsets[pos + 1];
  uint32_t remaining = fe - fo;
  s->fwd_need.resize(remaining);
  for (uint32_t k = 0; k < remaining; ++k) {
    s->fwd_need[k] = plan.fwd[fo + k].need;
  }
  uint32_t open = remaining;
  for (const AdjEntry& a : target.Neighbors(cand)) {
    if (s->used[a.neighbor]) continue;
    const LabelId vl = target.VertexLabel(a.neighbor);
    const LabelId el = target.EdgeLabel(a.edge);
    for (uint32_t k = 0; k < remaining; ++k) {
      if (s->fwd_need[k] == 0) continue;
      const MatchPlan::ForwardNeed& fn = plan.fwd[fo + k];
      if (fn.vertex_label != vl || fn.edge_label != el) continue;
      if (--s->fwd_need[k] == 0 && --open == 0) return true;
      break;
    }
  }
  return open == 0;
}

// ---- Iterative matcher core ----------------------------------------------

// Explicit-stack matcher over a compiled plan. Templated on the callback so
// the existence check's trivial lambda inlines; the FunctionRef entry point
// instantiates it once for the generic case. Candidate domains:
//   * anchored positions walk the adjacency of the anchor's image (the
//     cursor indexes that span), checking the anchor edge label inline and
//     the remaining back edges via FindEdgeGallop — recording every matched
//     target edge id into the embedding's edge map as it goes;
//   * anchorless positions walk the target's label bucket (ascending id,
//     exactly the vertices a full scan filtered by label would visit).
template <typename Callback>
size_t RunMatch(const MatchPlan& plan, const Graph& target,
                const Vf2Options& options, Vf2Scratch* s, Callback&& callback) {
  const uint32_t n = static_cast<uint32_t>(plan.order.size());
  if (n == 0) return 0;
  if (n > target.NumVertices() ||
      plan.num_pattern_edges > target.NumEdges()) {
    return 0;
  }
  // Signature-derived domains restrict candidate iteration without changing
  // the embedding set or order: domain segments are ascending-id subsets of
  // the label buckets, and membership is a necessary condition for any
  // completed embedding. A mismatched domain (wrong pair) is a caller bug.
  const CandidateDomains* domains = options.domains;
  if (domains != nullptr &&
      (domains->num_pattern_vertices != plan.num_pattern_vertices ||
       domains->num_target_vertices != target.NumVertices())) {
    domains = nullptr;
  }
  s->map.assign(plan.num_pattern_vertices, kInvalidVertex);
  s->used.assign(target.NumVertices(), 0);
  s->cursor.resize(n);
  s->dom_adj.resize(n);
  s->dom_bucket.resize(n);
  s->dom_size.resize(n);
  Embedding& emb = s->embedding;
  emb.vertex_map.resize(plan.num_pattern_vertices);
  emb.edge_map.resize(plan.num_pattern_edges);
  const bool dedup = options.dedup_by_edge_set;
  if (dedup) {
    s->seen.Reset(target.NumEdges());
    s->dedup.Reset(options.max_embeddings != 0
                       ? std::min(options.max_embeddings, size_t{512})
                       : 0);
  }

  size_t reported = 0;
  uint32_t pos = 0;
  // Computes position `pos`'s candidate domain (called exactly once per
  // entry; backtrack returns reuse the stored span — the domain depends
  // only on earlier placements, which are fixed while `pos` is active).
  auto enter_position = [&](uint32_t p) {
    s->cursor[p] = 0;
    const uint32_t boff = plan.back_offsets[p];
    if (boff != plan.back_offsets[p + 1]) {
      const Span<AdjEntry> adj =
          target.Neighbors(s->map[plan.back[boff].other]);
      s->dom_adj[p] = adj.data();
      s->dom_size[p] = static_cast<uint32_t>(adj.size());
    } else if (domains != nullptr) {
      // Domain segment: the ascending-id subset of the label bucket whose
      // signatures dominate this pattern vertex's.
      const VertexId pv = plan.order[p];
      const uint32_t begin = domains->offsets[pv];
      s->dom_bucket[p] = domains->verts.data() + begin;
      s->dom_size[p] = domains->offsets[pv + 1] - begin;
    } else {
      const Span<VertexId> bucket =
          target.VerticesWithLabel(plan.pos_label[p]);
      s->dom_bucket[p] = bucket.data();
      s->dom_size[p] = static_cast<uint32_t>(bucket.size());
    }
  };
  enter_position(0);
  // Invariant at the top of the loop: positions [0, pos) are placed,
  // position `pos` is not, and cursor[pos] is the next candidate index.
  for (;;) {
    const VertexId pv = plan.order[pos];
    const LabelId pl = plan.pos_label[pos];
    const uint32_t pdeg = plan.min_degree[pos];
    const uint32_t boff = plan.back_offsets[pos];
    const uint32_t bend = plan.back_offsets[pos + 1];
    const uint32_t dom_n = s->dom_size[pos];
    bool placed = false;

    if (boff != bend) {
      const PlanBackEdge& anchor = plan.back[boff];
      const AdjEntry* adj = s->dom_adj[pos];
      const uint8_t* member =
          domains != nullptr
              ? domains->member.data() +
                    size_t{pv} * domains->num_target_vertices
              : nullptr;
      uint32_t& cur = s->cursor[pos];
      while (cur < dom_n) {
        const AdjEntry ta = adj[cur++];
        const VertexId cand = ta.neighbor;
        if (s->used[cand] || target.VertexLabel(cand) != pl) continue;
        if (member != nullptr && member[cand] == 0) continue;
        if (target.Degree(cand) < pdeg) continue;
        if (target.EdgeLabel(ta.edge) != anchor.label) continue;
        if (plan.min_forward[pos] != 0 &&
            !HasForwardRoom(plan, target, cand, pos, s)) {
          continue;
        }
        bool ok = true;
        for (uint32_t b = boff + 1; b < bend; ++b) {
          const PlanBackEdge& be = plan.back[b];
          const EdgeId te = FindEdgeGallop(target, cand, s->map[be.other]);
          if (te == kInvalidEdge || target.EdgeLabel(te) != be.label) {
            ok = false;
            break;
          }
          emb.edge_map[be.pattern_edge] = te;
        }
        if (!ok) continue;
        emb.edge_map[anchor.pattern_edge] = ta.edge;
        s->map[pv] = cand;
        s->used[cand] = 1;
        placed = true;
        break;
      }
    } else {
      const VertexId* bucket = s->dom_bucket[pos];
      uint32_t& cur = s->cursor[pos];
      while (cur < dom_n) {
        const VertexId cand = bucket[cur++];
        if (s->used[cand]) continue;
        if (target.Degree(cand) < pdeg) continue;
        if (plan.min_forward[pos] != 0 &&
            !HasForwardRoom(plan, target, cand, pos, s)) {
          continue;
        }
        s->map[pv] = cand;
        s->used[cand] = 1;
        placed = true;
        break;
      }
    }

    if (placed) {
      if (pos + 1 < n) {
        ++pos;
        enter_position(pos);
        continue;
      }
      // Full assignment: report (duplicates neither count nor report).
      bool fresh = true;
      if (dedup) {
        const size_t row = s->seen.AddRow();
        for (EdgeId e : emb.edge_map) s->seen.SetBit(row, e);
        fresh = s->dedup.InsertLastRow(&s->seen);
      }
      if (fresh) {
        emb.vertex_map.assign(s->map.begin(), s->map.end());
        ++reported;
        if (!callback(emb)) return reported;
        if (options.max_embeddings != 0 &&
            reported >= options.max_embeddings) {
          return reported;
        }
      }
      // Retract this position and keep scanning its candidates.
      s->used[s->map[pv]] = 0;
      s->map[pv] = kInvalidVertex;
    } else {
      // Exhausted: backtrack.
      if (pos == 0) return reported;
      --pos;
      const VertexId prev = plan.order[pos];
      s->used[s->map[prev]] = 0;
      s->map[prev] = kInvalidVertex;
    }
  }
}

}  // namespace

MatchPlan CompileMatchPlan(const Graph& pattern,
                           const MatchPlanOptions& options) {
  const uint32_t n = pattern.NumVertices();
  MatchPlan plan;
  plan.num_pattern_vertices = n;
  plan.num_pattern_edges = pattern.NumEdges();
  plan.order.reserve(n);
  std::vector<bool> placed(n, false);
  std::vector<uint32_t> position(n, 0);

  // BFS from each component's seed, so every vertex after the first of its
  // component has at least one previously matched neighbor.
  while (plan.order.size() < n) {
    const VertexId seed = PickSeed(pattern, placed, options.label_freq);
    std::vector<VertexId> frontier{seed};
    placed[seed] = true;
    position[seed] = static_cast<uint32_t>(plan.order.size());
    plan.order.push_back(seed);
    size_t head = 0;
    while (head < frontier.size()) {
      const VertexId v = frontier[head++];
      for (const AdjEntry& a : pattern.Neighbors(v)) {
        if (placed[a.neighbor]) continue;
        placed[a.neighbor] = true;
        position[a.neighbor] = static_cast<uint32_t>(plan.order.size());
        plan.order.push_back(a.neighbor);
        frontier.push_back(a.neighbor);
      }
    }
  }

  plan.pos_label.resize(n);
  plan.min_degree.resize(n);
  plan.min_forward.resize(n);
  plan.back_offsets.assign(n + 1, 0);
  plan.fwd_offsets.assign(n + 1, 0);
  for (uint32_t pos = 0; pos < n; ++pos) {
    const VertexId pv = plan.order[pos];
    plan.pos_label[pos] = pattern.VertexLabel(pv);
    plan.min_degree[pos] = pattern.Degree(pv);
    uint32_t forward = 0;
    const size_t fwd_begin = plan.fwd.size();
    for (const AdjEntry& a : pattern.Neighbors(pv)) {
      if (position[a.neighbor] < pos) {
        plan.back.push_back(
            PlanBackEdge{a.neighbor, pattern.EdgeLabel(a.edge), a.edge});
      } else {
        ++forward;
        const LabelId vl = pattern.VertexLabel(a.neighbor);
        const LabelId el = pattern.EdgeLabel(a.edge);
        bool merged = false;
        for (size_t k = fwd_begin; k < plan.fwd.size(); ++k) {
          if (plan.fwd[k].vertex_label == vl && plan.fwd[k].edge_label == el) {
            ++plan.fwd[k].need;
            merged = true;
            break;
          }
        }
        if (!merged) {
          plan.fwd.push_back(MatchPlan::ForwardNeed{vl, el, 1});
        }
      }
    }
    // Deterministic group order (adjacency order is already deterministic,
    // but sorting makes the plan independent of neighbor id layout).
    std::sort(plan.fwd.begin() + fwd_begin, plan.fwd.end(),
              [](const MatchPlan::ForwardNeed& a,
                 const MatchPlan::ForwardNeed& b) {
                if (a.vertex_label != b.vertex_label) {
                  return a.vertex_label < b.vertex_label;
                }
                return a.edge_label < b.edge_label;
              });
    plan.min_forward[pos] = forward;
    plan.fwd_offsets[pos + 1] = static_cast<uint32_t>(plan.fwd.size());
    plan.back_offsets[pos + 1] = static_cast<uint32_t>(plan.back.size());
  }
  return plan;
}

size_t Vf2Scratch::CapacityBytes() const {
  return map.capacity() * sizeof(VertexId) + used.capacity() +
         cursor.capacity() * sizeof(uint32_t) +
         dom_adj.capacity() * sizeof(const AdjEntry*) +
         dom_bucket.capacity() * sizeof(const VertexId*) +
         dom_size.capacity() * sizeof(uint32_t) +
         fwd_need.capacity() * sizeof(uint32_t) +
         embedding.vertex_map.capacity() * sizeof(VertexId) +
         embedding.edge_map.capacity() * sizeof(EdgeId) +
         seen.word_capacity() * sizeof(uint64_t) + dedup.CapacityBytes() +
         domains.CapacityBytes();
}

size_t EnumerateEmbeddings(const MatchPlan& plan, const Graph& target,
                           const Vf2Options& options, Vf2Scratch* scratch,
                           FunctionRef<bool(const Embedding&)> callback) {
  return RunMatch(plan, target, options, scratch, callback);
}

bool IsSubgraphIsomorphic(const MatchPlan& plan, const Graph& target,
                          Vf2Scratch* scratch,
                          const CandidateDomains* domains) {
  if (plan.num_pattern_vertices == 0) return true;  // empty pattern maps
  Vf2Options options;
  options.max_embeddings = 1;
  options.dedup_by_edge_set = false;
  options.domains = domains;
  return RunMatch(plan, target, options, scratch,
                  [](const Embedding&) { return false; }) > 0;
}

std::vector<EdgeBitset> EmbeddingEdgeSets(const MatchPlan& plan,
                                          const Graph& target,
                                          size_t max_embeddings,
                                          bool* truncated,
                                          Vf2Scratch* scratch) {
  std::vector<EdgeBitset> out;
  Vf2Options options;
  // Probe one past the inclusive cap so "exactly at the cap" is
  // distinguishable from "cut off"; 0 keeps its "uncapped" meaning (and
  // SIZE_MAX wraps to it, same intent).
  options.max_embeddings = max_embeddings == 0 ? 0 : max_embeddings + 1;
  options.dedup_by_edge_set = true;
  const size_t n = RunMatch(
      plan, target, options, scratch, [&](const Embedding& emb) {
        if (max_embeddings != 0 && out.size() == max_embeddings) {
          return true;  // the probe embedding: proves truncation, not kept
        }
        out.push_back(
            EdgeBitset::FromIndices(target.NumEdges(), emb.edge_map));
        return true;
      });
  if (truncated != nullptr) {
    *truncated = (max_embeddings != 0 && n > max_embeddings);
  }
  return out;
}

bool IsSubgraphIsomorphic(const Graph& pattern, const Graph& target) {
  if (pattern.NumVertices() == 0) return true;  // empty pattern trivially maps
  Vf2Scratch scratch;
  return IsSubgraphIsomorphic(CompileMatchPlan(pattern), target, &scratch);
}

std::vector<EdgeBitset> EmbeddingEdgeSets(const Graph& pattern,
                                          const Graph& target,
                                          size_t max_embeddings,
                                          bool* truncated) {
  Vf2Scratch scratch;
  return EmbeddingEdgeSets(CompileMatchPlan(pattern), target, max_embeddings,
                           truncated, &scratch);
}

bool AreIsomorphic(const Graph& g1, const Graph& g2) {
  if (g1.NumVertices() != g2.NumVertices() || g1.NumEdges() != g2.NumEdges()) {
    return false;
  }
  // With equal vertex and edge counts, a monomorphism is a full isomorphism.
  return IsSubgraphIsomorphic(g1, g2);
}

}  // namespace pgsim
