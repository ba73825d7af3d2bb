// Deterministic labeled undirected graph (paper Definition 1).
//
// `Graph` is immutable once built: vertices and edges get dense uint32 ids
// and adjacency lives in one flat CSR layout — `adj_offsets_` (n+1 prefix
// sums) indexing into `adj_entries_` (2m entries, sorted by neighbor within
// each vertex's segment). `Neighbors(v)` is a contiguous Span view, so the
// VF2/MCS inner loops scan cache-line-adjacent memory instead of chasing
// per-vertex vector allocations. Lookups like FindEdge are O(log degree).
// All higher layers (VF2, mining, the probabilistic model, PMI) operate on
// this one representation.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "pgsim/common/bitset.h"
#include "pgsim/common/span.h"
#include "pgsim/common/status.h"
#include "pgsim/graph/label_table.h"

namespace pgsim {

/// Dense vertex id within one graph.
using VertexId = uint32_t;
/// Dense edge id within one graph.
using EdgeId = uint32_t;

/// Sentinel for "no such vertex".
inline constexpr VertexId kInvalidVertex = 0xFFFFFFFFu;
/// Sentinel for "no such edge".
inline constexpr EdgeId kInvalidEdge = 0xFFFFFFFFu;

/// One undirected labeled edge.
struct Edge {
  VertexId u;      ///< Smaller endpoint id (normalized so u < v).
  VertexId v;      ///< Larger endpoint id.
  LabelId label;   ///< Interned edge label.
};

/// (neighbor, connecting edge) entry of an adjacency list.
struct AdjEntry {
  VertexId neighbor;
  EdgeId edge;
};

/// Immutable labeled undirected graph. Build with GraphBuilder.
class Graph {
 public:
  Graph() = default;

  /// Number of vertices.
  uint32_t NumVertices() const {
    return static_cast<uint32_t>(vertex_labels_.size());
  }
  /// Number of edges. Definition 8's |g| is this count.
  uint32_t NumEdges() const { return static_cast<uint32_t>(edges_.size()); }

  /// Label of vertex `v`.
  LabelId VertexLabel(VertexId v) const { return vertex_labels_[v]; }
  /// Label of edge `e`.
  LabelId EdgeLabel(EdgeId e) const { return edges_[e].label; }
  /// Endpoints (u < v) and label of edge `e`.
  const Edge& GetEdge(EdgeId e) const { return edges_[e]; }

  /// Sorted adjacency of `v`: a contiguous view into the CSR entry array.
  Span<AdjEntry> Neighbors(VertexId v) const {
    return Span<AdjEntry>(adj_entries_.data() + adj_offsets_[v],
                          adj_offsets_[v + 1] - adj_offsets_[v]);
  }
  /// Degree of `v`.
  uint32_t Degree(VertexId v) const {
    return adj_offsets_[v + 1] - adj_offsets_[v];
  }

  /// CSR offset array (size NumVertices()+1, offsets[n] == 2*NumEdges()).
  const std::vector<uint32_t>& AdjOffsets() const { return adj_offsets_; }
  /// CSR entry array (size 2*NumEdges(), segment-sorted by neighbor).
  const std::vector<AdjEntry>& AdjEntries() const { return adj_entries_; }

  /// Vertices carrying label `l`, ascending by id — a contiguous view into
  /// the vertex-by-label CSR index built at construction. The VF2 matcher
  /// iterates this bucket for seed/anchorless positions instead of scanning
  /// all vertices; ascending-id order makes the bucket scan visit exactly
  /// the vertices a full 0..n scan filtered by label would, in the same
  /// order. Unknown labels yield an empty view.
  Span<VertexId> VerticesWithLabel(LabelId l) const;
  /// Number of vertices carrying label `l` (the bucket size).
  uint32_t LabelFrequency(LabelId l) const {
    return static_cast<uint32_t>(VerticesWithLabel(l).size());
  }
  /// Distinct vertex labels present, ascending (the label index's keys).
  const std::vector<LabelId>& DistinctVertexLabels() const {
    return label_keys_;
  }

  /// The edge id between u and v, if present.
  std::optional<EdgeId> FindEdge(VertexId u, VertexId v) const;

  /// All edges, normalized with u < v, in id order.
  const std::vector<Edge>& Edges() const { return edges_; }
  /// All vertex labels, in id order.
  const std::vector<LabelId>& VertexLabels() const { return vertex_labels_; }

  /// True iff the graph is connected (the empty graph counts as connected).
  bool IsConnected() const;

  /// Connected component id per vertex, components numbered from 0.
  std::vector<uint32_t> ConnectedComponents(uint32_t* num_components) const;

  /// Human-readable dump (for logs/tests), one vertex/edge per line.
  std::string DebugString() const;

 private:
  friend class GraphBuilder;
  friend void BuildEdgeSubsetGraph(const Graph& base, const EdgeBitset& present,
                                   Graph* out);

  /// Rebuilds the vertex-by-label CSR index from vertex_labels_ (called by
  /// the builders after the label array is final).
  void BuildLabelIndex();

  std::vector<LabelId> vertex_labels_;
  std::vector<Edge> edges_;
  // CSR adjacency: entries of vertex v live at
  // adj_entries_[adj_offsets_[v] .. adj_offsets_[v+1]), sorted by neighbor.
  // Size NumVertices()+1 always, so the empty graph holds a single 0.
  std::vector<uint32_t> adj_offsets_ = {0};
  std::vector<AdjEntry> adj_entries_;
  // Vertex-by-label CSR: vertices labeled label_keys_[k] live at
  // label_vertices_[label_offsets_[k] .. label_offsets_[k+1]), ascending id;
  // label_keys_ ascends so lookup is a binary search over distinct labels.
  std::vector<LabelId> label_keys_;
  std::vector<uint32_t> label_offsets_ = {0};
  std::vector<VertexId> label_vertices_;
};

/// Incremental builder producing an immutable Graph.
///
/// Rejects self-loops and parallel edges (probabilistic PPI/road graphs are
/// simple graphs; Definition 1 assumes simple undirected graphs).
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Adds a vertex with the given interned label; returns its id.
  VertexId AddVertex(LabelId label);

  /// Adds an undirected edge; endpoints must exist, no self-loops or
  /// duplicates. Returns the new edge id.
  Result<EdgeId> AddEdge(VertexId u, VertexId v, LabelId label);

  /// Number of vertices added so far.
  uint32_t NumVertices() const {
    return static_cast<uint32_t>(vertex_labels_.size());
  }
  /// Number of edges added so far.
  uint32_t NumEdges() const { return static_cast<uint32_t>(edges_.size()); }

  /// Finalizes: counting-sorts edges into the flat CSR arrays, sorts each
  /// vertex's segment by neighbor, and moves data into an immutable Graph.
  /// The builder is left empty.
  Graph Build();

 private:
  std::vector<LabelId> vertex_labels_;
  std::vector<Edge> edges_;
  // Normalized (u << 32 | v) keys of present edges, for O(1) duplicate
  // rejection in AddEdge without per-vertex adjacency vectors.
  std::unordered_set<uint64_t> edge_keys_;
};

/// Rebuilds `*out` as the possible-world view of `base`: every vertex of
/// `base` plus exactly the edges whose bit is set in `present` (edge ids
/// renumbered densely in base-id order). Reuses `out`'s vector storage, so
/// the world-enumeration hot loop builds 2^|E| graphs with zero steady-state
/// allocation instead of one GraphBuilder per world.
void BuildEdgeSubsetGraph(const Graph& base, const EdgeBitset& present,
                          Graph* out);

/// The subgraph of `g` induced by `edge_ids`: keeps exactly those edges and
/// the vertices they touch (isolated vertices are dropped, consistent with
/// the edge-based subgraph distance of Definition 8).
///
/// If `vertex_map` is non-null it receives old->new vertex ids
/// (kInvalidVertex for dropped vertices).
Graph EdgeInducedSubgraph(const Graph& g, const std::vector<EdgeId>& edge_ids,
                          std::vector<VertexId>* vertex_map = nullptr);

/// Byte-exact structural key of `g` AS LABELED: equal keys <=> identical
/// vertex-label sequences and identical (u, v, label) edge lists. O(|V| +
/// |E|); isomorphic graphs with different vertex orders get different keys.
/// Everything the query pipeline derives from a query (its relaxation set,
/// and through U's order every sampled verdict) is a pure function of this
/// form, so both query caches key on it.
std::string GraphExactKey(const Graph& g);

/// A cheap isomorphism-invariant fingerprint: equal graphs hash equal;
/// unequal hashes imply non-isomorphic. Used to bucket candidates before an
/// exact isomorphism check.
uint64_t GraphFingerprint(const Graph& g);

/// Sorted (label, count) multiset summaries of a graph's vertex and edge
/// labels. A monomorphism maps vertices/edges injectively onto equal labels,
/// so pattern ⊆iso target requires the pattern's histogram to be covered by
/// the target's — a cheap sound guard run before VF2 (it can only skip pairs
/// VF2 would reject, never change an answer).
struct LabelHistogram {
  /// Ascending by label; counts are > 0.
  std::vector<std::pair<LabelId, uint32_t>> vertex_labels;
  std::vector<std::pair<LabelId, uint32_t>> edge_labels;
};

/// Fills `*out` with g's histograms (reusing the vectors' capacity).
void BuildLabelHistogram(const Graph& g, LabelHistogram* out);

/// Adds g's vertex-label counts into `*freq` (indexed by LabelId, grown as
/// needed). Callers aggregate a database's frequencies to feed
/// MatchPlanOptions::label_freq — one shared definition so the filter's
/// standalone seeding and the processor's shared plans cannot diverge.
void AccumulateVertexLabelFrequencies(const Graph& g,
                                      std::vector<uint32_t>* freq);

/// True iff every (label, count) of `pattern` is matched by `target` with at
/// least that count, for vertices and edges. False return proves no
/// monomorphism pattern -> target exists.
bool HistogramCoversPattern(const LabelHistogram& target,
                            const LabelHistogram& pattern);

}  // namespace pgsim
