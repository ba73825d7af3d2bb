// Structural pruning (paper Theorem 1, Section 1.2, reference [38]).
//
// Stage 1 of the pipeline: if q is not subgraph similar to the certain graph
// gc, then Pr(q ⊆sim g) = 0 and g can be dropped outright. Following [38]
// (Grafil), a feature-count filter avoids pairwise similarity computation:
//
//   If some rq (q minus delta edges) embeds in gc, then for every feature f,
//       count_f(gc) >= count_f(q) - delta * maxPerEdge_f(q),
//   where count_f(.) is the number of distinct embeddings of f and
//   maxPerEdge_f(q) bounds how many embeddings one edge deletion can destroy.
//
// Graphs failing the inequality for any feature are pruned (provably sound);
// survivors are optionally checked exactly by testing rq ⊆iso gc over the
// relaxed query set U, yielding SCq = {g : q ⊆sim gc} as in the paper.
//
// Counts live in one contiguous feature-major uint16 matrix
// (counts()[feature * col_capacity() + graph]), so each query threshold is a
// contiguous row sweep narrowing a survivor bitset — thresholds run
// most-selective-first for early shrinkage. The survivor set is identical to
// the per-graph formulation (a graph survives iff it passes every
// threshold); only the memory access order changed.
//
// Live maintenance mirrors the PMI contract (see index/pmi.h): AddGraph
// appends a column in place — the matrix over-allocates its row stride
// (col_capacity() >= num_graphs()) with amortized doubling, so an append
// re-strides only when capacity is exhausted — and RemoveGraph tombstones a
// column without shifting ids (a live mask seeds every sweep, so dead
// columns can never survive, even for threshold-free queries). Compact()
// reclaims tombstones and renumbers; callers coordinate it with the PMI's
// Compact() so both structures renumber identically.

#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "pgsim/common/bitset.h"
#include "pgsim/common/status.h"
#include "pgsim/graph/graph.h"
#include "pgsim/graph/signature.h"
#include "pgsim/graph/vf2.h"
#include "pgsim/index/domain_index.h"
#include "pgsim/mining/feature_miner.h"

namespace pgsim {

/// Build/query knobs.
struct StructuralFilterOptions {
  /// Saturating embedding-count cap per (feature, graph); saturated counts
  /// are treated as "unknown, never prune" to stay sound.
  uint32_t max_count = 64;
  /// Embedding cap when counting features inside the query.
  uint32_t max_query_count = 256;
  /// Run the exact rq ⊆iso gc check on filter survivors (gives exactly SCq).
  bool exact_check = true;
  /// Worker threads for Build()'s per-graph count table; 0 means
  /// ThreadPool::DefaultThreads(), 1 builds inline. Every cell is written by
  /// exactly one worker, so the table is bit-identical at any thread count.
  uint32_t num_threads = 0;
};

/// Per-query stage statistics.
///
/// `isomorphism_tests` counts VF2 invocations actually executed (query
/// feature counting + the exact check). Pairs dismissed by the cheap
/// label-multiset/size guard before VF2 are NOT counted: the counter
/// reports work done, not pairs considered — so guard improvements shrink
/// it without changing any survivor set.
struct StructuralFilterStats {
  size_t count_filter_survivors = 0;
  size_t exact_survivors = 0;
  uint64_t isomorphism_tests = 0;
  /// (gi, rq) exact-check pairs dismissed by the signature cover test before
  /// VF2 (each is one isomorphism test avoided). Zero when the caller passes
  /// no signature index.
  uint64_t sig_pairs_rejected = 0;
  /// Candidate vertices removed from signature-built VF2 domains for pairs
  /// that survived the cover test.
  uint64_t domain_candidates_pruned = 0;
  double seconds = 0.0;
};

/// Build()-time statistics.
struct StructuralFilterBuildStats {
  double seconds = 0.0;
  size_t counted_pairs = 0;    ///< (feature, graph) cells filled
  uint32_t build_threads = 1;  ///< effective worker count
};

/// Per-query feature embedding statistics — the expensive half of Filter(),
/// computed once per query into its CompiledQuery. Every field is invariant
/// under relabeling of q's vertices (embedding counts and the per-edge
/// maximum are properties of the isomorphism class).
struct QueryFeatureCounts {
  struct Entry {
    uint32_t feature;       ///< feature index into the filter's feature set
    uint32_t count;         ///< distinct embeddings of the feature in q
    uint32_t max_per_edge;  ///< max embeddings any single query edge touches
  };
  std::vector<Entry> entries;  ///< ascending feature index
};

/// Reusable per-thread scratch for Filter: vector capacities survive across
/// queries so a steady-state filter pass allocates nothing. Owned by
/// QueryContext; a default-constructed one works standalone too.
struct StructuralFilterScratch {
  /// (feature index, required count) pruning thresholds for this query.
  std::vector<std::pair<size_t, uint32_t>> thresholds;
  /// Per-query-edge embedding-hit counts.
  std::vector<uint32_t> per_edge;
  /// Survivor bitset narrowed by the per-threshold row sweeps.
  EdgeBitset alive;
  /// Relaxed-query visit order for the exact check (ascending edge count).
  std::vector<uint32_t> rq_order;
  /// Per-relaxed-query label histograms for the pre-VF2 guard.
  std::vector<LabelHistogram> rq_hist;
  /// Per-query feature counts when no precomputed ones are supplied.
  QueryFeatureCounts counts;
  /// VF2 matcher state (query feature counting + the exact check).
  Vf2Scratch vf2;
  /// Relaxed-query plans compiled locally when the caller passes none.
  std::vector<MatchPlan> rq_plans;
};

/// Precomputed per-graph feature-embedding counts + the exact checker.
class StructuralFilter {
 public:
  /// Counts each feature's embeddings (saturating at options.max_count) in
  /// every certain graph of its support.
  static StructuralFilter Build(const std::vector<Graph>& certain_db,
                                const std::vector<Feature>& features,
                                const StructuralFilterOptions& options =
                                    StructuralFilterOptions());

  /// Returns SCq as database indices: graphs that pass the count filter and
  /// (when exact_check) actually satisfy q ⊆sim gc, decided by testing the
  /// relaxed queries `relaxed` against gc with VF2.
  std::vector<uint32_t> Filter(const Graph& q,
                               const std::vector<Graph>& relaxed,
                               uint32_t delta,
                               StructuralFilterStats* stats = nullptr) const;

  /// Scratch-reusing variant: clears `*survivors` (keeping capacity) and
  /// fills it with SCq, drawing temporaries from `*scratch`.
  ///
  /// `precomputed` short-circuits the per-feature embedding counting with
  /// counts from ComputeQueryCounts on q (or on any isomorphic query) — the
  /// pruning thresholds derived from them are bit-identical to a fresh
  /// computation.
  /// When `computed_counts` is non-null and the counts were computed here,
  /// they are copied out so the caller can cache them.
  ///
  /// `rq_plans`, when non-null, supplies one compiled MatchPlan per relaxed
  /// query for the exact check (the processor's per-query shared set);
  /// otherwise plans are compiled into the scratch — once per query, reused
  /// across every surviving candidate.
  ///
  /// `sigs` + `rq_sigs` (both or neither) arm the signature cover test in
  /// the exact check: barren (gi, rq) pairs skip VF2 entirely and survivors
  /// run VF2 over signature-built candidate domains. The cover test is
  /// sound, so the survivor set is bit-identical with or without them.
  /// `sigs` must index the same graph ids this filter was built over;
  /// `rq_sigs` holds one QuerySignature per relaxed query, in U's order.
  void Filter(const Graph& q, const std::vector<Graph>& relaxed,
              uint32_t delta, std::vector<uint32_t>* survivors,
              StructuralFilterScratch* scratch,
              StructuralFilterStats* stats = nullptr,
              const QueryFeatureCounts* precomputed = nullptr,
              QueryFeatureCounts* computed_counts = nullptr,
              const std::vector<MatchPlan>* rq_plans = nullptr,
              const SignatureIndex* sigs = nullptr,
              const std::vector<QuerySignature>* rq_sigs = nullptr) const;

  /// Counts each indexed feature's embeddings in `q` (the expensive half of
  /// Filter, which takes the result as `precomputed`); `isomorphism_tests`,
  /// when non-null, is incremented per feature tested. Matcher temporaries
  /// come from `scratch` when non-null.
  QueryFeatureCounts ComputeQueryCounts(
      const Graph& q, uint64_t* isomorphism_tests = nullptr,
      StructuralFilterScratch* scratch = nullptr) const;

  /// Number of graph columns, INCLUDING tombstoned ones (the valid graph-id
  /// range is [0, num_graphs())).
  size_t num_graphs() const { return num_graphs_; }

  /// Columns still serving.
  size_t num_alive() const { return num_alive_; }

  /// False for tombstoned or out-of-range ids.
  bool IsAlive(uint32_t graph_id) const {
    return graph_id < num_graphs_ && live_mask_.Test(graph_id);
  }

  /// Number of feature rows.
  size_t num_features() const { return feature_graphs_.size(); }

  /// Row stride of counts(): >= num_graphs(); Build() sets it exactly equal,
  /// AddGraph grows it by doubling.
  size_t col_capacity() const { return col_capacity_; }

  /// The raw saturating count matrix, feature-major:
  /// counts()[feature * col_capacity() + graph] (tests/diagnostics).
  const std::vector<uint16_t>& counts() const { return counts_; }

  /// One cell of the count matrix (0xFFFF = saturated/unknown).
  uint16_t CountAt(uint32_t feature, uint32_t graph) const {
    return counts_[static_cast<size_t>(feature) * col_capacity_ + graph];
  }

  /// Build statistics.
  const StructuralFilterBuildStats& build_stats() const {
    return build_stats_;
  }

  /// Persists the filter state that is NOT derivable from (certain_db,
  /// features) alone — the count matrix, live mask, and filtering options —
  /// as a versioned, checksummed "PGSF" file (per-section CRC32C + whole-
  /// file footer), installed atomically. Counts are written at stride
  /// num_graphs(), so Save -> Load -> Save is byte-identical.
  Status Save(const std::string& path) const;

  /// Restores a filter saved by Save(), rebinding it to `certain_db` and
  /// `features` (which must match the database the filter was saved over:
  /// sizes are validated, and the usual Build() aliasing contract applies —
  /// both containers must stay alive and unmodified). Match plans, label
  /// frequencies, and label histograms are recomputed deterministically.
  /// Any torn, truncated, or bit-flipped file is rejected with
  /// Status::DataLoss.
  static Result<StructuralFilter> Load(const std::string& path,
                                       const std::vector<Graph>& certain_db,
                                       const std::vector<Feature>& features);

  /// Incremental maintenance: appends a graph column in place. The filter
  /// COPIES `gc` into stable internal storage (the Build() aliasing caveat
  /// does not apply to added graphs). `contained_features`, when non-null,
  /// lists the features known to embed in gc (PMI::AddGraph's `contained`
  /// out-param) so only those cells are counted; when null every feature is
  /// tested. Returns the new graph id == previous num_graphs().
  uint32_t AddGraph(const Graph& gc,
                    const std::vector<uint32_t>* contained_features = nullptr);

  /// Incremental maintenance: tombstones a column. Ids are STABLE (no
  /// shift); the column's cells are zeroed and its live bit cleared, so no
  /// query — even one with zero pruning thresholds — can emit it.
  Status RemoveGraph(uint32_t graph_id);

  /// Reclaims tombstoned columns, renumbering alive ids downward in order —
  /// the same renumbering PMI::Compact() performs, so a caller compacting
  /// both keeps ids aligned. Storage owned for removed added graphs is NOT
  /// released (deque addresses must stay stable); it is bounded by the
  /// number of removed adds. No-op when there are no tombstones.
  void Compact();

  /// Pre-grows the column stride so the next `extra` AddGraph calls skip the
  /// re-stride entirely.
  void ReserveGraphCapacity(size_t extra);

 private:
  void CountQueryFeatures(const Graph& q, std::vector<uint32_t>* per_edge,
                          uint64_t* isomorphism_tests, Vf2Scratch* vf2,
                          QueryFeatureCounts* out) const;

  /// Grows col_capacity_ to at least `capacity`, re-striding every feature
  /// row (the amortized half of AddGraph).
  void GrowCapacity(size_t capacity);

  StructuralFilterOptions options_;
  StructuralFilterBuildStats build_stats_;
  // Pointers to the caller's graphs/features — element pointers, stable
  // under moves of this filter and of the owning containers' *objects*
  // (callers must keep the containers alive and unmodified). Graphs
  // appended by AddGraph instead point into owned_graphs_.
  std::vector<const Graph*> graphs_;
  std::vector<const Graph*> feature_graphs_;
  // Stable-address storage for graphs added after Build() (deque: growth
  // never moves existing elements, so graphs_ pointers stay valid).
  std::deque<Graph> owned_graphs_;
  // Compiled match plans, one per feature, built once at Build() and reused
  // for every count (build-time and query-time).
  std::vector<MatchPlan> feature_plans_;
  // Database-aggregate vertex-label frequencies (index = LabelId): seed
  // ordering input for relaxed-query plans compiled for the exact check.
  // Maintained exactly under AddGraph/RemoveGraph (dead graphs subtracted).
  std::vector<uint32_t> label_freq_;
  uint32_t num_graphs_ = 0;
  uint32_t num_alive_ = 0;
  // Row stride of counts_ (>= num_graphs_; slack makes AddGraph in-place).
  size_t col_capacity_ = 0;
  // Feature-major count matrix: counts_[feature * col_capacity_ + graph],
  // saturating at options_.max_count (0xFFFF = saturated).
  std::vector<uint16_t> counts_;
  // Bit g set iff column g is alive; seeds every sweep's survivor bitset so
  // tombstoned columns never surface. Capacity tracks col_capacity_.
  EdgeBitset live_mask_;
  // Per-graph label histograms for the exact check's pre-VF2 guard.
  std::vector<LabelHistogram> graph_hist_;
};

}  // namespace pgsim
