#include "oracles/vf2_reference.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

namespace pgsim {

namespace {

struct ReferencePlan {
  std::vector<VertexId> order;               // position -> pattern vertex
  std::vector<std::vector<AdjEntry>> back;   // matched pattern neighbors
  std::vector<bool> has_anchor;              // position has matched neighbor
};

ReferencePlan BuildReferencePlan(const Graph& pattern) {
  const uint32_t n = pattern.NumVertices();
  ReferencePlan plan;
  plan.order.reserve(n);
  std::vector<bool> placed(n, false);
  std::vector<uint32_t> position(n, 0);

  while (plan.order.size() < n) {
    // Seed: unplaced vertex of max degree.
    VertexId seed = kInvalidVertex;
    for (VertexId v = 0; v < n; ++v) {
      if (placed[v]) continue;
      if (seed == kInvalidVertex || pattern.Degree(v) > pattern.Degree(seed)) {
        seed = v;
      }
    }
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

  plan.back.resize(n);
  plan.has_anchor.resize(n, false);
  for (uint32_t pos = 0; pos < n; ++pos) {
    const VertexId pv = plan.order[pos];
    for (const AdjEntry& a : pattern.Neighbors(pv)) {
      if (position[a.neighbor] < pos) {
        plan.back[pos].push_back(a);
        plan.has_anchor[pos] = true;
      }
    }
  }
  return plan;
}

class ReferenceState {
 public:
  ReferenceState(const Graph& pattern, const Graph& target,
                 const Vf2Options& options,
                 const std::function<bool(const Embedding&)>& callback)
      : pattern_(pattern),
        target_(target),
        options_(options),
        callback_(callback),
        plan_(BuildReferencePlan(pattern)),
        map_(pattern.NumVertices(), kInvalidVertex),
        used_(target.NumVertices(), false) {}

  size_t Run() {
    if (pattern_.NumVertices() == 0) return 0;
    if (pattern_.NumVertices() > target_.NumVertices() ||
        pattern_.NumEdges() > target_.NumEdges()) {
      return 0;
    }
    Recurse(0);
    return reported_;
  }

 private:
  // Returns false when enumeration must stop entirely.
  bool Recurse(uint32_t pos) {
    if (pos == plan_.order.size()) return Report();
    const VertexId pv = plan_.order[pos];
    const LabelId pl = pattern_.VertexLabel(pv);
    const uint32_t pdeg = pattern_.Degree(pv);

    if (plan_.has_anchor[pos]) {
      // Candidates: target neighbors of the image of one matched neighbor.
      const AdjEntry& anchor = plan_.back[pos][0];
      const VertexId tv_anchor = map_[anchor.neighbor];
      for (const AdjEntry& ta : target_.Neighbors(tv_anchor)) {
        const VertexId cand = ta.neighbor;
        if (used_[cand] || target_.VertexLabel(cand) != pl) continue;
        if (target_.Degree(cand) < pdeg) continue;
        if (target_.EdgeLabel(ta.edge) != pattern_.EdgeLabel(anchor.edge)) {
          continue;
        }
        if (!CheckBackEdges(pos, cand, /*skip_first=*/true)) continue;
        if (!Descend(pos, pv, cand)) return false;
      }
    } else {
      for (VertexId cand = 0; cand < target_.NumVertices(); ++cand) {
        if (used_[cand] || target_.VertexLabel(cand) != pl) continue;
        if (target_.Degree(cand) < pdeg) continue;
        if (!Descend(pos, pv, cand)) return false;
      }
    }
    return true;
  }

  bool CheckBackEdges(uint32_t pos, VertexId cand, bool skip_first) const {
    const auto& back = plan_.back[pos];
    for (size_t i = skip_first ? 1 : 0; i < back.size(); ++i) {
      const auto te = target_.FindEdge(std::min(cand, map_[back[i].neighbor]),
                                       std::max(cand, map_[back[i].neighbor]));
      if (!te.has_value() ||
          target_.EdgeLabel(*te) != pattern_.EdgeLabel(back[i].edge)) {
        return false;
      }
    }
    return true;
  }

  bool Descend(uint32_t pos, VertexId pv, VertexId cand) {
    map_[pv] = cand;
    used_[cand] = true;
    const bool keep_going = Recurse(pos + 1);
    used_[cand] = false;
    map_[pv] = kInvalidVertex;
    return keep_going;
  }

  bool Report() {
    Embedding emb;
    emb.vertex_map = map_;
    emb.edge_map.resize(pattern_.NumEdges());
    for (EdgeId e = 0; e < pattern_.NumEdges(); ++e) {
      const Edge& pe = pattern_.GetEdge(e);
      const VertexId tu = map_[pe.u];
      const VertexId tv = map_[pe.v];
      emb.edge_map[e] = *target_.FindEdge(std::min(tu, tv), std::max(tu, tv));
    }
    if (options_.dedup_by_edge_set) {
      EdgeBitset key =
          EdgeBitset::FromIndices(target_.NumEdges(), emb.edge_map);
      if (!seen_.insert(std::move(key)).second) return true;  // duplicate
    }
    ++reported_;
    const bool keep_going = callback_(emb);
    if (!keep_going) return false;
    if (options_.max_embeddings != 0 && reported_ >= options_.max_embeddings) {
      return false;
    }
    return true;
  }

  const Graph& pattern_;
  const Graph& target_;
  const Vf2Options& options_;
  const std::function<bool(const Embedding&)>& callback_;
  ReferencePlan plan_;
  std::vector<VertexId> map_;
  std::vector<bool> used_;
  std::unordered_set<EdgeBitset, EdgeBitsetHash> seen_;
  size_t reported_ = 0;
};

}  // namespace

size_t EnumerateEmbeddingsReference(
    const Graph& pattern, const Graph& target, const Vf2Options& options,
    const std::function<bool(const Embedding&)>& callback) {
  ReferenceState state(pattern, target, options, callback);
  return state.Run();
}

}  // namespace pgsim
