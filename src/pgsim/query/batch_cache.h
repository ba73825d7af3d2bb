// Batch-scoped memoization of per-query derived artifacts.
//
// Workloads repeat structure: many queries in one batch are byte-identical
// or isomorphic to each other. The expensive per-query computations that
// precede any per-graph work — the relaxation set U (edge-deletion
// enumeration + isomorphism dedup), the per-query feature embedding counts
// feeding the structural filter thresholds, and the pruner's feature/rq
// relations (a VF2 test per (feature, rq) pair) together with the compiled
// bound program that rides inside PreparedQueryRelations — are pure
// functions of the query, so QueryProcessor::QueryBatch shares them across
// the batch through this cache.
//
// Keying is two-tier, chosen so that a cache hit is *provably* bit-identical
// to a fresh computation (QueryBatch's answers must not depend on the cache
// or on which worker populated it):
//
//   - class key: CanonicalCode(q). Feature embedding counts are invariant
//     under vertex relabeling, so any query of the class may reuse them.
//   - exact key: GraphExactKey(q). The relaxation set's *order* depends on
//     q's concrete edge order, and downstream stages (set cover ties, the
//     shared verification RNG stream) are order-sensitive — so U, and the
//     pruner relations derived from U, are reused only for byte-identical
//     duplicates, where GenerateRelaxedQueries is deterministic and
//     reproduces the cached value exactly.
//
// Entries are immutable once stored (shared_ptr<const ...>); the first
// completion to publish wins and later equal stores are dropped, so
// concurrent workers racing on the same class still read one consistent
// value. The publish order is whatever task-completion order the
// work-stealing scheduler produces, and is immaterial by the determinism
// argument above: every store of a given key carries the same
// bytes. The cache assumes one QueryOptions for all queries probing it —
// true by construction for a QueryBatch call, which owns the cache's
// lifetime.

#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "pgsim/graph/graph.h"
#include "pgsim/graph/signature.h"
#include "pgsim/graph/vf2.h"
#include "pgsim/query/prob_pruner.h"
#include "pgsim/query/structural_filter.h"

namespace pgsim {

/// Hit/miss counters, snapshot via BatchQueryCache::stats(). A "probe" is
/// one Find() call for a cacheable query; counts_*/prepared_* counters track
/// probes even when the corresponding stage later skips storing (filter or
/// probabilistic pruning disabled).
struct BatchCacheStats {
  size_t relax_hits = 0;      ///< relaxation sets reused (exact duplicates)
  size_t relax_misses = 0;
  size_t counts_hits = 0;     ///< feature-count sets reused (iso class hits)
  size_t counts_misses = 0;
  size_t prepared_hits = 0;   ///< pruner relations reused (exact duplicates)
  size_t prepared_misses = 0;
  size_t plans_hits = 0;      ///< rq match-plan sets reused (exact duplicates)
  size_t plans_misses = 0;
  size_t sigs_hits = 0;       ///< rq signature sets reused (exact duplicates)
  size_t sigs_misses = 0;     ///< probes counted even with signatures off
  size_t uncacheable = 0;     ///< canonical code over budget; query ran cold
};

/// Thread-safe per-batch artifact cache. See the file comment for the
/// determinism contract.
class BatchQueryCache {
 public:
  /// One probe's outcome: keys plus whatever artifacts were already cached.
  struct Lookup {
    bool cacheable = false;    ///< false when CanonicalCode failed
    std::string canonical_key;
    std::string exact_key;
    /// Non-null on a relaxation hit (byte-identical query seen before).
    std::shared_ptr<const std::vector<Graph>> relaxed;
    /// Non-null on a feature-count hit (isomorphic query seen before).
    std::shared_ptr<const QueryFeatureCounts> counts;
    /// Non-null on a pruner-relations hit (byte-identical query; the
    /// relations are a function of U, which is reused under the same key).
    std::shared_ptr<const PreparedQueryRelations> prepared;
    /// Non-null on a match-plan hit: one compiled MatchPlan per relaxed
    /// query, in U's order — a pure function of U (plus the processor's
    /// fixed database label frequencies), so exact-key semantics apply as
    /// for `relaxed`.
    std::shared_ptr<const std::vector<MatchPlan>> plans;
    /// Non-null on a query-signature hit: one QuerySignature per relaxed
    /// query, in U's order — a pure function of U, so exact-key semantics
    /// apply as for `relaxed`.
    std::shared_ptr<const std::vector<QuerySignature>> sigs;
  };

  /// Computes both keys of `q`, probes the cache, and bumps counters.
  Lookup Find(const Graph& q);

  /// Publishes a freshly computed relaxation set for lk's exact form.
  /// First store per class wins; equal later stores are dropped.
  void StoreRelaxed(const Lookup& lk,
                    std::shared_ptr<const std::vector<Graph>> relaxed);

  /// Publishes freshly computed feature counts for lk's isomorphism class.
  void StoreCounts(const Lookup& lk,
                   std::shared_ptr<const QueryFeatureCounts> counts);

  /// Publishes pruner relations for lk's exact form. Dropped unless the
  /// class entry's stored relaxation variant is lk's exact form (the
  /// relations must describe the exact U that relax-tier hits will reuse).
  void StorePrepared(const Lookup& lk,
                     std::shared_ptr<const PreparedQueryRelations> prepared);

  /// Publishes the compiled relaxed-query match plans for lk's exact form
  /// (same gating as StorePrepared: the plans must describe the exact U
  /// that relax-tier hits will reuse).
  void StorePlans(const Lookup& lk,
                  std::shared_ptr<const std::vector<MatchPlan>> plans);

  /// Publishes the relaxed-query vertex signatures for lk's exact form
  /// (same gating as StorePlans: the signatures must describe the exact U
  /// that relax-tier hits will reuse).
  void StoreSigs(const Lookup& lk,
                 std::shared_ptr<const std::vector<QuerySignature>> sigs);

  /// Counter snapshot (consistent under the cache mutex).
  BatchCacheStats stats() const;

 private:
  struct ClassEntry {
    /// Exact key of the variant whose relaxation set (and pruner relations)
    /// are stored; isomorphic queries with a different vertex order miss
    /// those tiers.
    std::string exact_key;
    std::shared_ptr<const std::vector<Graph>> relaxed;
    std::shared_ptr<const QueryFeatureCounts> counts;
    std::shared_ptr<const PreparedQueryRelations> prepared;
    std::shared_ptr<const std::vector<MatchPlan>> plans;
    std::shared_ptr<const std::vector<QuerySignature>> sigs;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, ClassEntry> classes_;
  BatchCacheStats stats_;
};

}  // namespace pgsim
