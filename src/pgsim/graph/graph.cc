#include "pgsim/graph/graph.h"

#include <algorithm>
#include <sstream>

namespace pgsim {

std::optional<EdgeId> Graph::FindEdge(VertexId u, VertexId v) const {
  if (u >= NumVertices() || v >= NumVertices()) return std::nullopt;
  const Span<AdjEntry> adj = Neighbors(u);
  auto it = std::lower_bound(
      adj.begin(), adj.end(), v,
      [](const AdjEntry& a, VertexId target) { return a.neighbor < target; });
  if (it != adj.end() && it->neighbor == v) return it->edge;
  return std::nullopt;
}

Span<VertexId> Graph::VerticesWithLabel(LabelId l) const {
  const auto it = std::lower_bound(label_keys_.begin(), label_keys_.end(), l);
  if (it == label_keys_.end() || *it != l) return Span<VertexId>();
  const size_t k = static_cast<size_t>(it - label_keys_.begin());
  return Span<VertexId>(label_vertices_.data() + label_offsets_[k],
                        label_offsets_[k + 1] - label_offsets_[k]);
}

void Graph::BuildLabelIndex() {
  const uint32_t n = NumVertices();
  label_vertices_.resize(n);
  for (VertexId v = 0; v < n; ++v) label_vertices_[v] = v;
  // Stable ordering by (label, id): ids are distinct, so a plain sort on the
  // composite key is deterministic and leaves each bucket ascending by id.
  std::sort(label_vertices_.begin(), label_vertices_.end(),
            [&](VertexId a, VertexId b) {
              if (vertex_labels_[a] != vertex_labels_[b]) {
                return vertex_labels_[a] < vertex_labels_[b];
              }
              return a < b;
            });
  label_keys_.clear();
  label_offsets_.assign(1, 0);
  size_t i = 0;
  while (i < label_vertices_.size()) {
    const LabelId label = vertex_labels_[label_vertices_[i]];
    size_t j = i + 1;
    while (j < label_vertices_.size() &&
           vertex_labels_[label_vertices_[j]] == label) {
      ++j;
    }
    label_keys_.push_back(label);
    label_offsets_.push_back(static_cast<uint32_t>(j));
    i = j;
  }
}

bool Graph::IsConnected() const {
  uint32_t num_components = 0;
  ConnectedComponents(&num_components);
  return num_components <= 1;
}

std::vector<uint32_t> Graph::ConnectedComponents(
    uint32_t* num_components) const {
  std::vector<uint32_t> comp(NumVertices(), 0xFFFFFFFFu);
  uint32_t next = 0;
  std::vector<VertexId> stack;
  for (VertexId s = 0; s < NumVertices(); ++s) {
    if (comp[s] != 0xFFFFFFFFu) continue;
    comp[s] = next;
    stack.push_back(s);
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (const AdjEntry& a : Neighbors(v)) {
        if (comp[a.neighbor] == 0xFFFFFFFFu) {
          comp[a.neighbor] = next;
          stack.push_back(a.neighbor);
        }
      }
    }
    ++next;
  }
  if (num_components != nullptr) *num_components = next;
  return comp;
}

std::string Graph::DebugString() const {
  std::ostringstream os;
  os << "Graph(" << NumVertices() << " vertices, " << NumEdges() << " edges)\n";
  for (VertexId v = 0; v < NumVertices(); ++v) {
    os << "  v" << v << " label=" << vertex_labels_[v] << "\n";
  }
  for (EdgeId e = 0; e < NumEdges(); ++e) {
    os << "  e" << e << " (" << edges_[e].u << "," << edges_[e].v
       << ") label=" << edges_[e].label << "\n";
  }
  return os.str();
}

VertexId GraphBuilder::AddVertex(LabelId label) {
  vertex_labels_.push_back(label);
  return static_cast<VertexId>(vertex_labels_.size() - 1);
}

Result<EdgeId> GraphBuilder::AddEdge(VertexId u, VertexId v, LabelId label) {
  if (u >= vertex_labels_.size() || v >= vertex_labels_.size()) {
    return Status::InvalidArgument("AddEdge: endpoint out of range");
  }
  if (u == v) {
    return Status::InvalidArgument("AddEdge: self-loops are not allowed");
  }
  if (u > v) std::swap(u, v);
  const uint64_t key = (uint64_t{u} << 32) | v;
  if (!edge_keys_.insert(key).second) {
    return Status::InvalidArgument("AddEdge: parallel edge (" +
                                   std::to_string(u) + "," +
                                   std::to_string(v) + ")");
  }
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{u, v, label});
  return id;
}

Graph GraphBuilder::Build() {
  Graph g;
  g.vertex_labels_ = std::move(vertex_labels_);
  g.edges_ = std::move(edges_);

  // Counting sort of the 2m half-edges into the flat CSR arrays.
  const size_t n = g.vertex_labels_.size();
  g.adj_offsets_.assign(n + 1, 0);
  for (const Edge& e : g.edges_) {
    ++g.adj_offsets_[e.u + 1];
    ++g.adj_offsets_[e.v + 1];
  }
  for (size_t v = 1; v <= n; ++v) g.adj_offsets_[v] += g.adj_offsets_[v - 1];
  g.adj_entries_.resize(2 * g.edges_.size());
  std::vector<uint32_t> cursor(g.adj_offsets_.begin(),
                               g.adj_offsets_.begin() + n);
  for (EdgeId id = 0; id < g.edges_.size(); ++id) {
    const Edge& e = g.edges_[id];
    g.adj_entries_[cursor[e.u]++] = AdjEntry{e.v, id};
    g.adj_entries_[cursor[e.v]++] = AdjEntry{e.u, id};
  }
  for (size_t v = 0; v < n; ++v) {
    std::sort(g.adj_entries_.begin() + g.adj_offsets_[v],
              g.adj_entries_.begin() + g.adj_offsets_[v + 1],
              [](const AdjEntry& a, const AdjEntry& b) {
                return a.neighbor < b.neighbor;
              });
  }

  g.BuildLabelIndex();

  vertex_labels_.clear();
  edges_.clear();
  edge_keys_.clear();
  return g;
}

void BuildEdgeSubsetGraph(const Graph& base, const EdgeBitset& present,
                          Graph* out) {
  const size_t n = base.NumVertices();
  out->vertex_labels_.assign(base.VertexLabels().begin(),
                             base.VertexLabels().end());
  // The vertex set and labels match `base`, so the label index does too —
  // copy it (into reused storage) rather than re-sorting per world.
  out->label_keys_.assign(base.label_keys_.begin(), base.label_keys_.end());
  out->label_offsets_.assign(base.label_offsets_.begin(),
                             base.label_offsets_.end());
  out->label_vertices_.assign(base.label_vertices_.begin(),
                              base.label_vertices_.end());
  out->edges_.clear();
  for (EdgeId e = 0; e < base.NumEdges(); ++e) {
    if (present.Test(e)) out->edges_.push_back(base.GetEdge(e));
  }

  // Same counting sort as GraphBuilder::Build, into reused storage; the
  // offsets array doubles as the fill cursor and is shifted back afterwards,
  // so no temporary cursor vector is needed.
  out->adj_offsets_.assign(n + 1, 0);
  for (const Edge& e : out->edges_) {
    ++out->adj_offsets_[e.u + 1];
    ++out->adj_offsets_[e.v + 1];
  }
  for (size_t v = 1; v <= n; ++v) {
    out->adj_offsets_[v] += out->adj_offsets_[v - 1];
  }
  out->adj_entries_.resize(2 * out->edges_.size());
  for (EdgeId id = 0; id < out->edges_.size(); ++id) {
    const Edge& e = out->edges_[id];
    out->adj_entries_[out->adj_offsets_[e.u]++] = AdjEntry{e.v, id};
    out->adj_entries_[out->adj_offsets_[e.v]++] = AdjEntry{e.u, id};
  }
  // adj_offsets_[v] now holds the end of segment v; shift right to restore.
  for (size_t v = n; v > 0; --v) out->adj_offsets_[v] = out->adj_offsets_[v - 1];
  out->adj_offsets_[0] = 0;
  for (size_t v = 0; v < n; ++v) {
    std::sort(out->adj_entries_.begin() + out->adj_offsets_[v],
              out->adj_entries_.begin() + out->adj_offsets_[v + 1],
              [](const AdjEntry& a, const AdjEntry& b) {
                return a.neighbor < b.neighbor;
              });
  }
}

Graph EdgeInducedSubgraph(const Graph& g, const std::vector<EdgeId>& edge_ids,
                          std::vector<VertexId>* vertex_map) {
  std::vector<VertexId> map(g.NumVertices(), kInvalidVertex);
  GraphBuilder builder;
  for (EdgeId e : edge_ids) {
    const Edge& edge = g.GetEdge(e);
    for (VertexId endpoint : {edge.u, edge.v}) {
      if (map[endpoint] == kInvalidVertex) {
        map[endpoint] = builder.AddVertex(g.VertexLabel(endpoint));
      }
    }
  }
  for (EdgeId e : edge_ids) {
    const Edge& edge = g.GetEdge(e);
    auto r = builder.AddEdge(map[edge.u], map[edge.v], edge.label);
    (void)r;  // Duplicate ids in edge_ids would error; callers pass sets.
  }
  if (vertex_map != nullptr) *vertex_map = std::move(map);
  return builder.Build();
}

std::string GraphExactKey(const Graph& g) {
  std::string key;
  key.reserve(8 + 4 * g.NumVertices() + 12 * g.NumEdges());
  const auto append_u32 = [&key](uint32_t v) {
    key.push_back(static_cast<char>(v));
    key.push_back(static_cast<char>(v >> 8));
    key.push_back(static_cast<char>(v >> 16));
    key.push_back(static_cast<char>(v >> 24));
  };
  append_u32(g.NumVertices());
  append_u32(g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) append_u32(g.VertexLabel(v));
  for (const Edge& e : g.Edges()) {
    append_u32(e.u);
    append_u32(e.v);
    append_u32(e.label);
  }
  return key;
}

uint64_t GraphFingerprint(const Graph& g) {
  // Two rounds of Weisfeiler–Lehman-style label refinement, then an
  // order-independent combine. Invariant under isomorphism by construction.
  auto mix = [](uint64_t h, uint64_t x) {
    h ^= x + 0x9e3779b97f4a7c15ULL + (h << 12) + (h >> 4);
    return h * 0xff51afd7ed558ccdULL;
  };
  std::vector<uint64_t> color(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    color[v] = mix(0x12345678ULL, g.VertexLabel(v));
  }
  for (int round = 0; round < 2; ++round) {
    std::vector<uint64_t> next(g.NumVertices());
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      // Sum of neighbor signatures is order-independent.
      uint64_t acc = 0;
      for (const AdjEntry& a : g.Neighbors(v)) {
        acc += mix(color[a.neighbor], g.EdgeLabel(a.edge) + 1);
      }
      next[v] = mix(color[v], acc);
    }
    color.swap(next);
  }
  uint64_t h = 0xcbf29ce484222325ULL ^ (uint64_t{g.NumVertices()} << 32 |
                                        uint64_t{g.NumEdges()});
  uint64_t sum = 0, xor_acc = 0;
  for (uint64_t c : color) {
    sum += c;
    xor_acc ^= mix(0xabcdef, c);
  }
  return mix(mix(h, sum), xor_acc);
}

namespace {

// Sorts `labels` and run-length-encodes it into ascending (label, count)
// pairs, reusing `out`'s capacity.
void EncodeHistogram(std::vector<LabelId>* labels,
                     std::vector<std::pair<LabelId, uint32_t>>* out) {
  std::sort(labels->begin(), labels->end());
  out->clear();
  size_t i = 0;
  while (i < labels->size()) {
    size_t j = i + 1;
    while (j < labels->size() && (*labels)[j] == (*labels)[i]) ++j;
    out->emplace_back((*labels)[i], static_cast<uint32_t>(j - i));
    i = j;
  }
}

}  // namespace

void AccumulateVertexLabelFrequencies(const Graph& g,
                                      std::vector<uint32_t>* freq) {
  for (LabelId l : g.VertexLabels()) {
    if (l >= freq->size()) freq->resize(l + 1, 0);
    ++(*freq)[l];
  }
}

void BuildLabelHistogram(const Graph& g, LabelHistogram* out) {
  std::vector<LabelId> scratch(g.VertexLabels());
  EncodeHistogram(&scratch, &out->vertex_labels);
  scratch.clear();
  scratch.reserve(g.NumEdges());
  for (const Edge& e : g.Edges()) scratch.push_back(e.label);
  EncodeHistogram(&scratch, &out->edge_labels);
}

namespace {

bool CoversPattern(const std::vector<std::pair<LabelId, uint32_t>>& target,
                   const std::vector<std::pair<LabelId, uint32_t>>& pattern) {
  // Both sides ascend by label: one merge pass.
  size_t ti = 0;
  for (const auto& [label, count] : pattern) {
    while (ti < target.size() && target[ti].first < label) ++ti;
    if (ti == target.size() || target[ti].first != label ||
        target[ti].second < count) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool HistogramCoversPattern(const LabelHistogram& target,
                            const LabelHistogram& pattern) {
  return CoversPattern(target.vertex_labels, pattern.vertex_labels) &&
         CoversPattern(target.edge_labels, pattern.edge_labels);
}

}  // namespace pgsim
