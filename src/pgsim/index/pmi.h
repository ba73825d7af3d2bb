// Probabilistic Matrix Index — PMI (paper Section 3.1, Figure 4, Section 4).
//
// Rows are mined features, columns are the probabilistic graphs of the
// database. Entry (f, g) stores tight lower/upper bounds of the subgraph
// isomorphism probability Pr(f ⊆iso g); a missing entry encodes the paper's
// <0> (f is not subgraph isomorphic to gc, so SIP is exactly 0).
//
// Each entry carries the bounds in both flavors exercised by the paper's
// experiments: OPT (max-weight-clique selection, feeding OPT-SIPBound) and
// simple (greedy selection, feeding SIPBound, Figure 11's ablation).
//
// Storage is columnar: the four bound flavors live in flat graph-major
// float matrices (`flat_*()[graph * num_features() + feature]`) with absent
// cells holding 0.0f — the paper's <0> — plus a parallel presence byte
// matrix, so the pruner's per-candidate reads (one graph, many features)
// are contiguous indexed loads. Graph-major layout also makes the index
// update-friendly: AddGraph appends one num_features()-cell block per
// matrix in place — O(|F|) per add, independent of the database size —
// because the feature set (the stride) is immutable after Build/Load.
//
// Live maintenance contract (see also QueryProcessor's mutation API):
//   - Graph ids are STABLE under RemoveGraph: removal tombstones the column
//     (IsAlive(g) turns false, Lookup/EntriesFor report empty) without
//     shifting any other id. Compact() reclaims tombstoned columns and is
//     the only operation that renumbers ids.
//   - Every mutation (AddGraph, RemoveGraph, Compact) bumps a monotonically
//     increasing `epoch()`. Any caller-side artifact derived from graph ids
//     or index contents (cached verdicts, answer caches) must be considered
//     stale when the epoch it was computed under differs from the current
//     one.
//   - Feature::frequency is recomputed on every mutation as
//     |support| / num_alive() (support lists hold only alive ids). Mining's
//     alpha-disjointness refinement of the numerator is a build-time
//     construct; after the first mutation, frequency reports plain support
//     frequency (documented drift; `maintenance().remine_advised` raises a
//     flag when any feature falls below the mining beta watermark).
// The sparse per-graph views (EntriesFor) and the serialized format are
// materialized from / rebuilt into the columnar storage. Save() writes the
// checksummed PMI3 container (per-section CRC32C + whole-file footer,
// atomic temp+rename install); Load() verifies every checksum — corruption
// is Status::DataLoss, never a silently wrong index. Load() reads PMI3 only:
// any other magic, the retired "PMI1"/"PMI2" stream formats included, is
// Status::InvalidArgument.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pgsim/bounds/sip_bounds.h"
#include "pgsim/common/random.h"
#include "pgsim/common/status.h"
#include "pgsim/graph/graph.h"
#include "pgsim/mining/feature_miner.h"
#include "pgsim/prob/probabilistic_graph.h"

namespace pgsim {

/// One PMI cell: SIP bounds of feature `feature_id` against one graph.
struct PmiEntry {
  uint32_t feature_id = 0;
  float lower_opt = 0.0f;
  float upper_opt = 1.0f;
  float lower_simple = 0.0f;
  float upper_simple = 1.0f;
};

/// Build configuration.
struct PmiBuildOptions {
  FeatureMinerOptions miner;
  SipBoundOptions sip;
  uint64_t seed = 42;  ///< Seed for the Algorithm 3 samplers.
  /// Worker threads for the whole offline pipeline (feature mining + the
  /// per-graph SIP bound columns); 0 means ThreadPool::DefaultThreads(),
  /// 1 builds fully inline. The miner runs at this width unless
  /// miner.num_threads is set. The built index is bit-identical at every
  /// thread count: per-graph RNGs are forked sequentially up front and every
  /// parallel phase merges per-item slots in input order.
  uint32_t num_threads = 0;
};

/// Build-time statistics (Figure 12(c)/(d) report these).
struct PmiStats {
  double mining_seconds = 0.0;
  double bounds_seconds = 0.0;
  double total_seconds = 0.0;
  size_t num_features = 0;
  size_t num_entries = 0;
  size_t size_bytes = 0;       ///< serialized index size
  uint32_t build_threads = 1;  ///< effective worker count of Build()
};

/// Live-maintenance snapshot (see the header comment's contract).
struct PmiMaintenance {
  uint64_t epoch = 0;            ///< bumped by every mutation
  uint32_t num_alive = 0;        ///< columns not tombstoned
  uint32_t num_tombstones = 0;   ///< removed-but-unreclaimed columns
  uint64_t adds_since_build = 0;
  uint64_t removes_since_build = 0;
  double min_feature_frequency = 0.0;  ///< over the current feature set
  /// True when some feature's maintained frequency dropped below the mining
  /// beta recorded at Build() — the distribution drifted past what the
  /// mined feature set was selected for; schedule a full re-mine.
  bool remine_advised = false;
};

/// The feature-by-graph matrix of SIP bounds.
class ProbabilisticMatrixIndex {
 public:
  ProbabilisticMatrixIndex() = default;

  /// Mines features from the certain database and fills the matrix by
  /// running the Section 4.1 bound machinery per (feature, graph) pair.
  static Result<ProbabilisticMatrixIndex> Build(
      const std::vector<ProbabilisticGraph>& database,
      const PmiBuildOptions& options = PmiBuildOptions());

  /// Indexed features (row headers).
  const std::vector<Feature>& features() const { return features_; }

  /// Compiled VF2 match plans, one per feature, built once with the index
  /// (features are immutable afterwards). The pruner's PrepareQuery runs
  /// these against every relaxed query instead of recompiling a plan per
  /// (feature, rq) test.
  const std::vector<MatchPlan>& feature_plans() const {
    return feature_plans_;
  }

  /// Number of graph columns, INCLUDING tombstoned ones (column slots; the
  /// valid graph-id range is [0, num_graphs())).
  uint32_t num_graphs() const { return num_graphs_; }

  /// Number of feature rows — also the graph-major matrix stride.
  uint32_t num_features() const {
    return static_cast<uint32_t>(features_.size());
  }

  /// Columns still serving (num_graphs() minus tombstones).
  uint32_t num_alive() const { return num_alive_; }

  /// Tombstoned columns awaiting Compact().
  uint32_t num_tombstones() const { return num_graphs_ - num_alive_; }

  /// False for tombstoned or out-of-range ids.
  bool IsAlive(uint32_t graph_id) const {
    return graph_id < num_graphs_ && alive_[graph_id] != 0;
  }

  /// Monotonically increasing mutation counter; equal epochs guarantee the
  /// index (ids, columns, features) has not changed in between.
  uint64_t epoch() const { return epoch_; }

  /// Maintenance snapshot (epoch, tombstones, frequency watermark).
  PmiMaintenance maintenance() const;

  /// Dg: the entries of graph `graph_id`, sorted by feature id, materialized
  /// from the columnar storage. Features not listed have SIP = 0; a
  /// tombstoned column has no entries.
  std::vector<PmiEntry> EntriesFor(uint32_t graph_id) const;

  /// True iff the (graph, feature) cell is present (f ⊆iso gc). Ids out of
  /// range — and tombstoned columns, whose cells are cleared on removal —
  /// are absent by definition.
  bool Contains(uint32_t graph_id, uint32_t feature_id) const {
    return graph_id < num_graphs_ && feature_id < features_.size() &&
           present_[Flat(feature_id, graph_id)] != 0;
  }

  /// Direct columnar lookup: fills `*out` and returns true when the cell is
  /// present, returns false (leaving `*out` untouched) for the paper's <0>
  /// and for out-of-range ids.
  bool Lookup(uint32_t graph_id, uint32_t feature_id, PmiEntry* out) const;

  /// Flat graph-major bound matrices, one float per (graph, feature) cell
  /// at index `graph * num_features() + feature`; absent cells are 0.0f.
  /// These back the pruner's allocation-free per-candidate gathers (one
  /// contiguous block per candidate graph).
  const std::vector<float>& flat_lower_opt() const { return lower_opt_; }
  const std::vector<float>& flat_upper_opt() const { return upper_opt_; }
  const std::vector<float>& flat_lower_simple() const { return lower_simple_; }
  const std::vector<float>& flat_upper_simple() const { return upper_simple_; }
  /// Presence bytes (1 = entry exists), same graph-major indexing.
  const std::vector<uint8_t>& flat_present() const { return present_; }

  /// Build statistics.
  const PmiStats& stats() const { return stats_; }

  /// SIP-bound options remembered from Build() and reused by AddGraph when
  /// the caller passes none. Save() persists them, so Load() restores the
  /// build-time knobs.
  const SipBoundOptions& sip_options() const { return sip_options_; }
  void set_sip_options(const SipBoundOptions& sip) { sip_options_ = sip; }

  /// Serialized size in bytes (features + the sparse per-graph entry
  /// format Save() writes). NOT the resident footprint: in memory the four
  /// bound flavors + presence live as dense graph-major matrices
  /// (~17 bytes per (feature, graph) cell), which dwarfs this number on
  /// sparse databases.
  size_t SizeBytes() const;

  /// Persists the index (features, matrix, stats, epoch, tombstones, sip
  /// options) as a checksummed PMI3 file, installed atomically (temp +
  /// fsync + rename — a crash leaves the old file intact). A mutated index
  /// round-trips exactly: Save -> Load -> Save produces byte-identical
  /// files.
  Status Save(const std::string& path) const;

  /// Restores an index saved by Save(). A file too short for a magic, or
  /// with any magic but PMI3, is Status::InvalidArgument; a PMI3 file torn,
  /// truncated, or bit-flipped past its magic is Status::DataLoss (checksums
  /// are verified before any section is parsed).
  static Result<ProbabilisticMatrixIndex> Load(const std::string& path);

  /// Incremental maintenance: appends a new graph column in place —
  /// O(|F|) matrix work plus the per-contained-feature bound computation,
  /// independent of the database size (BM_Pmi_AddGraph pins this). Bounds
  /// are computed against the existing feature set; features are NOT
  /// re-mined (watch maintenance().remine_advised). Returns the new graph
  /// id and bumps the epoch. `contained`, when non-null, receives the
  /// feature ids embedded in the new graph (callers forward it to
  /// StructuralFilter::AddGraph to skip recomputing containment).
  Result<uint32_t> AddGraph(const ProbabilisticGraph& graph,
                            const SipBoundOptions& sip, uint64_t seed,
                            std::vector<uint32_t>* contained = nullptr);

  /// Incremental maintenance: tombstones a graph column. All other graph
  /// ids are STABLE (no shift); the column's cells are cleared, support
  /// lists drop the id, frequencies are recomputed, and the epoch bumps.
  /// Removing an already-tombstoned or out-of-range id errors.
  Status RemoveGraph(uint32_t graph_id);

  /// Reclaims tombstoned columns: alive columns are renumbered downward in
  /// order (new id = old id - tombstones below it), matrices shrink, and
  /// the epoch bumps. Callers holding graph ids must re-derive them — the
  /// epoch bump is the invalidation signal. No-op (and no epoch bump) when
  /// there are no tombstones.
  void Compact();

 private:
  size_t Flat(uint32_t feature_id, uint32_t graph_id) const {
    return static_cast<size_t>(graph_id) * features_.size() + feature_id;
  }

  /// Rebuilds the columnar storage from sparse feature-sorted columns.
  void SetColumns(std::vector<std::vector<PmiEntry>>&& columns);

  /// Recompiles feature_plans_ from features_ (Build/Load call this once
  /// the feature set is final).
  void RebuildFeaturePlans();

  /// Recomputes every feature's maintained frequency (|support| /
  /// num_alive_) after a mutation.
  void RecomputeFrequencies();

  std::vector<Feature> features_;
  std::vector<MatchPlan> feature_plans_;
  uint32_t num_graphs_ = 0;
  uint32_t num_alive_ = 0;
  // Per-graph sorted feature-id lists (CSR) — the sparse structure backing
  // EntriesFor and the serialized format. A tombstoned column keeps its
  // (now-ignored) CSR range until Compact().
  std::vector<uint32_t> col_offsets_ = {0};
  std::vector<uint32_t> col_features_;
  // Graph-major flat matrices; absent cells 0.0f / present byte 0.
  std::vector<float> lower_opt_;
  std::vector<float> upper_opt_;
  std::vector<float> lower_simple_;
  std::vector<float> upper_simple_;
  std::vector<uint8_t> present_;
  // Tombstone bytes, one per column (1 = alive).
  std::vector<uint8_t> alive_;
  uint64_t epoch_ = 0;
  uint64_t adds_since_build_ = 0;
  uint64_t removes_since_build_ = 0;
  // Mining beta recorded at Build(): the re-mine watermark.
  double beta_watermark_ = 0.0;
  SipBoundOptions sip_options_;
  PmiStats stats_;
};

}  // namespace pgsim
