// SignatureIndex: the database-side neighborhood-signature store.
//
// One flat, vertex-major columnar block per signature column (nbr_bits /
// hop2_bits / degree / label_counts — see graph/signature.h for the
// per-vertex encoding), with a CSR of per-graph vertex offsets on top.
// ForGraph(gi) hands the verifier a borrowed SignatureView over graph gi's
// slice; the query side pairs it with a compiled QuerySignature to run the
// cover test and build candidate domains before each stage-3 VF2 call.
//
// Lifecycle mirrors the other serving structures:
//   * Build — parallel over graphs (each worker owns disjoint pre-sized
//     slices, so the arrays are byte-identical at any thread count);
//   * AddGraph appends a column, RemoveGraph tombstones in place (stable
//     ids), Compact packs alive graphs ascending — the same renumbering
//     PMI::Compact and StructuralFilter::Compact perform, so a caller
//     compacting all three keeps ids aligned;
//   * Save/Load — checksummed PGSG snapshot container (storage/io_util):
//     truncation or bit flips surface as DataLoss, never as garbage
//     signatures. The epoch stamped at Save time lets DurableDatabase
//     cross-check the file against its MANIFEST.
//
// The index prunes only (never affects answers), so a missing or
// version-skewed file is recoverable by rebuilding from the database —
// DurableDatabase does exactly that for pre-signature snapshot directories.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pgsim/common/status.h"
#include "pgsim/graph/signature.h"
#include "pgsim/prob/probabilistic_graph.h"

namespace pgsim {

class SignatureIndex {
 public:
  struct BuildOptions {
    /// Worker threads for the per-graph build; 0 = hardware concurrency,
    /// 1 = inline.
    uint32_t num_threads = 1;
  };

  SignatureIndex() = default;

  /// Builds signatures for every graph's certain part. Byte-identical output
  /// at any thread count. (Two overloads, not a default argument: a nested
  /// class with member initializers cannot default-construct as a default
  /// argument inside its enclosing class.)
  static SignatureIndex Build(const std::vector<ProbabilisticGraph>& database,
                              const BuildOptions& options);
  static SignatureIndex Build(const std::vector<ProbabilisticGraph>& database);

  size_t num_graphs() const { return offsets_.size() - 1; }
  size_t num_alive() const { return num_alive_; }
  bool IsAlive(uint32_t graph_id) const {
    return graph_id < alive_.size() && alive_[graph_id] != 0;
  }
  /// The epoch recorded in the snapshot this index was loaded from (0 for a
  /// fresh build).
  uint64_t saved_epoch() const { return saved_epoch_; }

  /// Borrowed view over graph `graph_id`'s signature slice. Valid until the
  /// next mutation of the index.
  SignatureView ForGraph(uint32_t graph_id) const {
    SignatureView v;
    const uint32_t begin = offsets_[graph_id];
    v.nbr_bits = nbr_bits_.data() + begin;
    v.hop2_bits = hop2_bits_.data() + begin;
    v.degree = degree_.data() + begin;
    v.label_counts = label_counts_.data() + size_t{begin} * kSignatureLabelSlots;
    v.num_vertices = offsets_[graph_id + 1] - begin;
    return v;
  }

  /// Appends one graph's signatures; returns its id (== previous
  /// num_graphs()).
  uint32_t AddGraph(const Graph& certain);

  /// Tombstones a graph in place (id stays valid, signatures kept until
  /// Compact so ForGraph on a dead id is still well-formed).
  Status RemoveGraph(uint32_t graph_id);

  /// Reclaims tombstoned columns: alive graphs are packed ascending, the
  /// same renumbering the PMI and filter Compact perform.
  void Compact();

  /// Persists the index as a PGSG container, stamped with `epoch` (the
  /// owning processor's mutation epoch at snapshot time).
  Status Save(const std::string& path, uint64_t epoch) const;

  /// Restores an index saved by Save(). Corruption => DataLoss; a missing
  /// file => NotFound (callers rebuild instead).
  static Result<SignatureIndex> Load(const std::string& path);

 private:
  /// Per-graph vertex offsets into the flat columns (size num_graphs + 1).
  std::vector<uint32_t> offsets_ = {0};
  std::vector<uint64_t> nbr_bits_;
  std::vector<uint64_t> hop2_bits_;
  std::vector<uint32_t> degree_;
  std::vector<uint8_t> label_counts_;
  std::vector<uint8_t> alive_;
  size_t num_alive_ = 0;
  uint64_t saved_epoch_ = 0;
};

}  // namespace pgsim
