// VF2-style subgraph isomorphism (paper Definition 5, reference [10]),
// rebuilt as a compiled matching engine.
//
// Used pervasively: feature-vs-graph containment when building the PMI,
// feature-vs-relaxed-query tests during probabilistic pruning (Section 3),
// embedding enumeration for SIP bounds (Section 4.1) and for the Algorithm 5
// sampler (Section 5).
//
// Semantics: *monomorphism* — an injective vertex mapping preserving vertex
// labels, and every pattern edge must map to a target edge with equal label
// (extra target edges are allowed; the embedding is a subgraph, not induced).
// Disconnected patterns are supported (relaxed queries can disconnect).
//
// Engine layout:
//   * A MatchPlan is compiled once per pattern (CompileMatchPlan): the
//     matching order, per-position required label / min-degree, and the
//     back-edge constraints with their pattern edge ids. Query-side callers
//     compile each relaxed query's plan once per query (held in its
//     CompiledQuery) and run it against every candidate, instead of rebuilding
//     the plan per (pattern, target) call.
//   * The matcher itself is iterative (explicit per-position cursors, no
//     recursion) and draws every buffer from a caller-owned Vf2Scratch:
//     map/used arrays, the reused Embedding record, and a pooled edge-set
//     dedup table (EventSetPool + open addressing). Steady-state enumeration
//     performs zero heap allocation per embedding.
//   * Target edge ids are recorded *while* back edges are checked, so
//     reporting an embedding never performs a FindEdge lookup; back-edge
//     checks themselves gallop over the smaller-degree endpoint's sorted
//     adjacency instead of binary-searching a fixed endpoint.
//   * Seed/anchorless positions iterate the target's vertex-by-label CSR
//     bucket (Graph::VerticesWithLabel) instead of all vertices. Ascending
//     id order inside a bucket preserves the reference enumeration order.
//   * Callbacks travel as FunctionRef through a templated core, so the
//     IsSubgraphIsomorphic existence check inlines its (trivial) callback.
//
// Enumeration-order contract: a plan compiled with the default (max-degree)
// seed rule enumerates embeddings in exactly the order of the recursive
// reference engine kept under tests/oracles/ (vf2_engine_test pins it),
// which offline consumers (feature mining's greedy disjoint counts, SIP
// bounds) depend on for bit-identical artifacts. Plans compiled with
// MatchPlanOptions::label_freq reorder component seeds rarest-label-first;
// that changes only the order in which embeddings are discovered, never the
// set.

#pragma once

#include <cstdint>
#include <vector>

#include "pgsim/common/bitset.h"
#include "pgsim/common/event_pool.h"
#include "pgsim/common/function_ref.h"
#include "pgsim/common/span.h"
#include "pgsim/common/status.h"
#include "pgsim/graph/graph.h"

namespace pgsim {

/// One subgraph-isomorphic image of a pattern inside a target graph.
struct Embedding {
  /// pattern vertex id -> target vertex id.
  std::vector<VertexId> vertex_map;
  /// pattern edge id -> target edge id.
  std::vector<EdgeId> edge_map;
};

/// Per-pattern-vertex candidate sets, precomputed from neighborhood
/// signatures (graph/signature.h) for one (pattern, target) pair. Domains
/// are *sound* restrictions: every vertex removed from a label bucket is
/// provably unable to host its pattern vertex in any monomorphism, so
/// substituting the domain for the bucket changes neither the embedding set
/// nor the enumeration order (segments keep the bucket's ascending-id
/// order). Storage is caller-owned and reused across pairs (Vf2Scratch).
struct CandidateDomains {
  uint32_t num_pattern_vertices = 0;
  uint32_t num_target_vertices = 0;
  /// CSR over pattern vertices: vertex pv's domain is
  /// verts[offsets[pv] .. offsets[pv+1]), ascending target ids.
  std::vector<uint32_t> offsets;
  std::vector<VertexId> verts;
  /// Pattern-major membership mask, member[pv * num_target_vertices + tv]:
  /// one byte probe for the anchored (adjacency-driven) positions.
  std::vector<uint8_t> member;

  size_t CapacityBytes() const {
    return offsets.capacity() * sizeof(uint32_t) +
           verts.capacity() * sizeof(VertexId) + member.capacity();
  }
};

/// Enumeration knobs.
struct Vf2Options {
  /// Stop after this many *distinct edge-set* embeddings (0 = no cap).
  size_t max_embeddings = 0;
  /// If true (paper semantics), embeddings that cover the same target edge
  /// set are reported once: Definition 5 defines the embedding as the
  /// subgraph (V3, E3) of g, so pattern automorphisms do not multiply counts.
  bool dedup_by_edge_set = true;
  /// Optional signature-derived candidate domains for this (pattern, target)
  /// pair: anchorless positions iterate the pattern vertex's domain segment
  /// instead of the full label bucket, and anchored positions reject
  /// non-members with one byte probe. Must have been built for exactly this
  /// pair (num_pattern_vertices/num_target_vertices are asserted). The
  /// embedding set and enumeration order are unchanged.
  const CandidateDomains* domains = nullptr;
};

/// One compiled back-edge constraint of a match position: the candidate must
/// be adjacent to the image of pattern vertex `other` through a target edge
/// labeled `label`; the edge found is recorded as the image of pattern edge
/// `pattern_edge` (each pattern edge appears in exactly one back list — at
/// the position where its later endpoint is placed — so a full assignment
/// fills the whole edge map with no lookups at report time).
struct PlanBackEdge {
  VertexId other;
  LabelId label;
  EdgeId pattern_edge;
};

/// Plan compilation knobs.
struct MatchPlanOptions {
  /// Optional label frequencies of the intended target population, indexed
  /// by LabelId (ids >= size() have frequency 0). When non-null, each
  /// component's seed — and thereby the component order — is chosen
  /// rarest-label-first, with max-degree then smallest-id tie-breaks, so the
  /// matcher's top-level branching starts at the thinnest label bucket.
  /// When null, the legacy max-degree/smallest-id rule applies and the plan
  /// reproduces the reference engine's enumeration order byte for byte.
  const std::vector<uint32_t>* label_freq = nullptr;
};

/// A pattern's matching program, compiled once and reusable against any
/// number of targets (immutable after CompileMatchPlan; safe to share across
/// threads). Matching order is BFS within each component, so every position
/// after its component's seed has at least one previously matched neighbor.
struct MatchPlan {
  uint32_t num_pattern_vertices = 0;
  uint32_t num_pattern_edges = 0;
  /// position -> pattern vertex.
  std::vector<VertexId> order;
  /// position -> required target vertex label.
  std::vector<LabelId> pos_label;
  /// position -> pattern degree (candidates of smaller degree cannot match).
  std::vector<uint32_t> min_degree;
  /// position -> pattern neighbors placed *later* in the order. A candidate
  /// must still have that many unused target neighbors, or the subtree
  /// cannot complete (look-ahead prune: skips only fruitless branches, so
  /// the embedding sequence is unchanged).
  std::vector<uint32_t> min_forward;
  /// Label-aware refinement of min_forward: the later-placed neighbors of a
  /// position, grouped by (neighbor vertex label, connecting edge label)
  /// with multiplicities. A candidate needs `need` distinct unused
  /// neighbors per group (adjacency entries are distinct vertices, so
  /// groups partition them — per-group counting is sound and strictly
  /// stronger than the aggregate). CSR over positions via fwd_offsets.
  struct ForwardNeed {
    LabelId vertex_label;
    LabelId edge_label;
    uint32_t need;
  };
  std::vector<ForwardNeed> fwd;
  std::vector<uint32_t> fwd_offsets;
  /// Back-edge CSR: position p's constraints are
  /// back[back_offsets[p] .. back_offsets[p+1]); the first entry of a
  /// non-empty segment is the anchor whose image's adjacency supplies the
  /// candidate set. Empty segment = seed/anchorless position (candidates
  /// come from the target's label bucket).
  std::vector<PlanBackEdge> back;
  std::vector<uint32_t> back_offsets;
};

/// Compiles the matching plan of `pattern`. Deterministic: equal patterns
/// and options yield identical plans.
MatchPlan CompileMatchPlan(const Graph& pattern,
                           const MatchPlanOptions& options = MatchPlanOptions());

/// Reusable per-thread matcher scratch: the explicit-stack state, the reused
/// Embedding record, and the pooled edge-set dedup table. Vector/pool
/// capacities survive across runs, so a steady-state enumeration loop
/// performs no heap allocation. Not concurrency-safe: one per thread.
struct Vf2Scratch {
  /// pattern vertex -> target vertex (kInvalidVertex when unmapped).
  std::vector<VertexId> map;
  /// target vertex occupancy.
  std::vector<uint8_t> used;
  /// Per-position cursor into the candidate domain.
  std::vector<uint32_t> cursor;
  /// Per-position candidate domain, computed once when the position is
  /// entered (anchored: the anchor image's adjacency span; anchorless: the
  /// target's label bucket) and reused across every backtrack return —
  /// the domain depends only on earlier placements, which are fixed while
  /// the position is active.
  std::vector<const AdjEntry*> dom_adj;
  std::vector<const VertexId*> dom_bucket;
  std::vector<uint32_t> dom_size;
  /// Residual per-group needs for the label-aware look-ahead.
  std::vector<uint32_t> fwd_need;
  /// The report record handed to callbacks (valid only during the call).
  Embedding embedding;
  /// Distinct-edge-set rows seen so far (dedup_by_edge_set).
  EventSetPool seen;
  /// Open-addressing table over `seen` rows.
  EventRowDedup dedup;
  /// Caller-filled candidate domains (BuildCandidateDomains writes here and
  /// Vf2Options::domains points at it); storage only, the engine never
  /// touches it unless the options request domain-restricted iteration.
  CandidateDomains domains;

  /// Total reserved bytes across all buffers — lets tests pin "a second
  /// pass over the same workload performs no scratch growth".
  size_t CapacityBytes() const;
};

/// Runs `plan` against `target`, invoking `callback` for each embedding (the
/// Embedding reference is scratch-owned and valid only during the call);
/// enumeration stops early when the callback returns false. Returns the
/// number of embeddings reported. This is the engine's hot entry point:
/// zero heap allocation once `scratch` has warmed up.
size_t EnumerateEmbeddings(const MatchPlan& plan, const Graph& target,
                           const Vf2Options& options, Vf2Scratch* scratch,
                           FunctionRef<bool(const Embedding&)> callback);

/// Existence check against a compiled plan: stops at the first embedding,
/// skips dedup and report materialization entirely. `domains` optionally
/// restricts candidate iteration (see Vf2Options::domains).
bool IsSubgraphIsomorphic(const MatchPlan& plan, const Graph& target,
                          Vf2Scratch* scratch,
                          const CandidateDomains* domains = nullptr);

/// Plan-based variant of EmbeddingEdgeSets (see below for the truncation
/// contract), drawing matcher state from `*scratch`.
std::vector<EdgeBitset> EmbeddingEdgeSets(const MatchPlan& plan,
                                          const Graph& target,
                                          size_t max_embeddings,
                                          bool* truncated, Vf2Scratch* scratch);

/// True iff `pattern` is subgraph isomorphic to `target` (q ⊆iso g).
bool IsSubgraphIsomorphic(const Graph& pattern, const Graph& target);

/// Convenience: the distinct target-edge sets of all embeddings of `pattern`
/// in `target`, as bitsets over target edge ids, capped at `max_embeddings`
/// (0 = uncapped). If `truncated` is non-null it reports whether matches
/// were genuinely cut off: the engine probes one embedding past the cap, so
/// a pattern with *exactly* max_embeddings embeddings returns them all with
/// truncated == false (inclusive-cap semantics, matching VerifierOptions).
std::vector<EdgeBitset> EmbeddingEdgeSets(const Graph& pattern,
                                          const Graph& target,
                                          size_t max_embeddings,
                                          bool* truncated = nullptr);

/// True iff g1 and g2 are isomorphic (equal sizes + monomorphism suffices).
bool AreIsomorphic(const Graph& g1, const Graph& g2);

}  // namespace pgsim
