#include "oracles/mcs.h"

#include <algorithm>
#include <vector>

namespace pgsim {

namespace {

class McsSolver {
 public:
  McsSolver(const Graph& q, const Graph& g, uint32_t give_up_at)
      : q_(q), g_(g), give_up_at_(give_up_at) {
    BuildOrder();
    map_.assign(q_.NumVertices(), kInvalidVertex);
    used_.assign(g_.NumVertices(), false);
    // undecided_[pos] = q edges with at least one endpoint at position >= pos
    // — the optimistic number of edges still winnable at that depth.
    undecided_.assign(order_.size() + 1, 0);
    std::vector<uint32_t> position(q_.NumVertices(), 0);
    for (uint32_t pos = 0; pos < order_.size(); ++pos) {
      position[order_[pos]] = pos;
    }
    for (EdgeId e = 0; e < q_.NumEdges(); ++e) {
      const Edge& edge = q_.GetEdge(e);
      const uint32_t later = std::max(position[edge.u], position[edge.v]);
      // Edge e is decided exactly when the later endpoint is placed.
      for (uint32_t pos = 0; pos <= later; ++pos) ++undecided_[pos];
    }
  }

  uint32_t Solve() {
    Recurse(0, 0);
    return best_;
  }

 private:
  void BuildOrder() {
    // BFS order from the max-degree vertex maximizes early edge decisions.
    const uint32_t n = q_.NumVertices();
    std::vector<bool> placed(n, false);
    order_.reserve(n);
    while (order_.size() < n) {
      VertexId seed = kInvalidVertex;
      for (VertexId v = 0; v < n; ++v) {
        if (!placed[v] &&
            (seed == kInvalidVertex || q_.Degree(v) > q_.Degree(seed))) {
          seed = v;
        }
      }
      placed[seed] = true;
      order_.push_back(seed);
      for (size_t head = order_.size() - 1; head < order_.size(); ++head) {
        for (const AdjEntry& a : q_.Neighbors(order_[head])) {
          if (!placed[a.neighbor]) {
            placed[a.neighbor] = true;
            order_.push_back(a.neighbor);
          }
        }
      }
    }
  }

  bool Done() const { return give_up_at_ != 0 && best_ >= give_up_at_; }

  // Number of q edges gained by mapping q vertex `qv` to g vertex `gv`
  // given the current partial map. Returns -1 on any label clash making the
  // assignment outright invalid (vertex label mismatch handled by caller).
  int GainedEdges(VertexId qv, VertexId gv) const {
    int gained = 0;
    for (const AdjEntry& a : q_.Neighbors(qv)) {
      const VertexId img = map_[a.neighbor];
      if (img == kInvalidVertex) continue;
      const auto ge = g_.FindEdge(std::min(gv, img), std::max(gv, img));
      if (ge.has_value() && g_.EdgeLabel(*ge) == q_.EdgeLabel(a.edge)) {
        ++gained;
      }
    }
    return gained;
  }

  void Recurse(uint32_t pos, uint32_t score) {
    if (Done()) return;
    if (pos == order_.size()) {
      best_ = std::max(best_, score);
      return;
    }
    if (score + undecided_[pos] <= best_) return;  // bound: cannot improve

    const VertexId qv = order_[pos];
    const LabelId ql = q_.VertexLabel(qv);
    for (VertexId gv = 0; gv < g_.NumVertices(); ++gv) {
      if (used_[gv] || g_.VertexLabel(gv) != ql) continue;
      const int gained = GainedEdges(qv, gv);
      map_[qv] = gv;
      used_[gv] = true;
      Recurse(pos + 1, score + static_cast<uint32_t>(gained));
      used_[gv] = false;
      map_[qv] = kInvalidVertex;
      if (Done()) return;
    }
    // Leave qv unmapped: all its incident edges are lost.
    Recurse(pos + 1, score);
  }

  const Graph& q_;
  const Graph& g_;
  const uint32_t give_up_at_;
  std::vector<VertexId> order_;
  std::vector<VertexId> map_;
  std::vector<bool> used_;
  std::vector<uint32_t> undecided_;
  uint32_t best_ = 0;
};

}  // namespace

uint32_t MaxCommonSubgraphEdges(const Graph& q, const Graph& g,
                                uint32_t give_up_at) {
  if (q.NumEdges() == 0) return 0;
  McsSolver solver(q, g, give_up_at);
  const uint32_t result = solver.Solve();
  return give_up_at != 0 ? std::min(result, give_up_at) : result;
}

uint32_t SubgraphDistance(const Graph& q, const Graph& g) {
  return q.NumEdges() - MaxCommonSubgraphEdges(q, g);
}

bool IsSubgraphSimilar(const Graph& q, const Graph& g, uint32_t delta) {
  if (delta >= q.NumEdges()) return true;  // even the empty subgraph suffices
  const uint32_t needed = q.NumEdges() - delta;
  return MaxCommonSubgraphEdges(q, g, needed) >= needed;
}

}  // namespace pgsim
