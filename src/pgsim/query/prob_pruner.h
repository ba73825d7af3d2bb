// Probabilistic pruning (paper Section 3, Theorems 3–4).
//
// For each candidate graph g surviving structural pruning, the pruner reads
// Dg (g's PMI column) and derives bounds of Pr(q ⊆sim g):
//
//   Pruning 1 (Theorem 3): Usim(q) = sum of UpperB(f¹) over a cover of
//     U = {rq1..rqa} by features f¹ ⊆iso rq. If Usim < ε, prune g.
//   Pruning 2 (Theorem 4): Lsim(q) = sum LowerB(f²) - (sum UpperB(f²))²
//     over features f² ⊇iso rq. If Lsim >= ε, g is an answer outright.
//
// Two selection policies implement the paper's experimental variants:
//   kOptimized — Algorithm 1 set cover for Usim, Algorithm 2 QP/rounding for
//     Lsim (OPT-SSPBound);
//   kRandom — one random qualifying feature per rq (SSPBound).
// Orthogonally, SipVariant picks which PMI bound flavor feeds the weights
// (OPT-SIPBound vs SIPBound, Figure 11).
//
// Evaluate/Bounds execute the "bound program" compiled once per query by
// PrepareQuery — flattened qualifying-feature lists and element spans —
// gathering per-candidate weights from the PMI's flat graph-major matrices
// into a reusable PrunerScratch: zero heap allocation per candidate in
// steady state. An allocating per-Lookup oracle with bit-identical decisions
// and RNG draws lives under tests/oracles/.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "pgsim/common/random.h"
#include "pgsim/common/status.h"
#include "pgsim/graph/graph.h"
#include "pgsim/graph/vf2.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/quadratic_program.h"
#include "pgsim/query/set_cover.h"

namespace pgsim {

/// How f¹/f² features are chosen per relaxed query.
enum class BoundSelection {
  kOptimized,  ///< Algorithm 1 + Algorithm 2 (OPT-SSPBound)
  kRandom,     ///< arbitrary qualifying feature (SSPBound)
};

/// Which SIP bound flavor of the PMI entry feeds the weights.
enum class SipVariant {
  kOpt,     ///< max-weight-clique bounds (OPT-SIPBound)
  kSimple,  ///< greedy bounds (SIPBound)
};

/// Pruner configuration.
struct ProbPrunerOptions {
  BoundSelection selection = BoundSelection::kOptimized;
  SipVariant sip_variant = SipVariant::kOpt;
  LsimOptions lsim;
};

/// Per-graph pruning verdict.
enum class PruneOutcome {
  kPruned,     ///< Usim < ε: g cannot be an answer.
  kAccepted,   ///< Lsim >= ε: g is an answer without verification.
  kCandidate,  ///< bounds straddle ε: verification required.
};

/// Verdict plus the bounds that produced it.
struct PruneDecision {
  PruneOutcome outcome = PruneOutcome::kCandidate;
  double usim = 1.0;
  double lsim = 0.0;
};

/// The candidate-invariant half of Evaluate, flattened: qualifying
/// feature-id lists and their rq-element spans in one contiguous pool per
/// bound, plus per-rq CSRs for the kRandom selection. Compiled by
/// PrepareQuery as a pure function of the feature/rq relations, so it rides
/// along when the relations are shared through a CompiledQuery.
struct BoundProgram {
  /// Features with >= 1 sub-rq (f usable as f¹), ascending feature id; set k
  /// covers rq elements usim_elems[usim_offsets[k] .. usim_offsets[k+1]).
  std::vector<uint32_t> usim_ids;
  std::vector<uint32_t> usim_offsets;  ///< usim_ids.size() + 1
  std::vector<uint32_t> usim_elems;
  /// Features with >= 1 super-rq (f usable as f²), ascending feature id.
  std::vector<uint32_t> lsim_ids;
  std::vector<uint32_t> lsim_offsets;  ///< lsim_ids.size() + 1
  std::vector<uint32_t> lsim_elems;
  /// Per-rq qualifying features for kRandom (CSRs over rq index).
  std::vector<uint32_t> rq_sub_offsets;  ///< universe_size + 1
  std::vector<uint32_t> rq_sub_elems;
  std::vector<uint32_t> rq_super_offsets;
  std::vector<uint32_t> rq_super_elems;
};

/// The query-level feature relations PrepareQuery derives from the relaxed
/// set U — a pure function of (U, PMI feature set), immutable once built.
/// A CompiledQuery holds them next to the U they describe. They are
/// order-sensitive in U, so they are shared only among byte-identical
/// queries, never merely isomorphic ones.
struct PreparedQueryRelations {
  size_t universe_size = 0;  ///< |U|
  /// Per feature: rq indices with f ⊆iso rq (f usable as f¹).
  std::vector<std::vector<uint32_t>> feature_sub_rqs;
  /// Per feature: rq indices with rq ⊆iso f (f usable as f²).
  std::vector<std::vector<uint32_t>> feature_super_rqs;
  /// Per rq: features usable as f¹ (inverse of feature_sub_rqs).
  std::vector<std::vector<uint32_t>> rq_sub_features;
  /// Per rq: features usable as f² (inverse of feature_super_rqs).
  std::vector<std::vector<uint32_t>> rq_super_features;
  /// Columnar compilation of the above that Evaluate/Bounds execute.
  BoundProgram program;
};

/// Reusable per-thread scratch for Evaluate/Bounds. Vector
/// capacities survive across candidates, so a steady-state pruning sweep
/// performs zero heap allocation. Owned by QueryContext; a
/// default-constructed one works standalone too.
struct PrunerScratch {
  std::vector<double> usim_weights;    ///< gathered UpperB per usim set
  std::vector<uint32_t> lsim_sel_ids;  ///< present-in-column f² features
  std::vector<double> lsim_sel_wl;
  std::vector<double> lsim_sel_wu;
  std::vector<uint32_t> lsim_sel_begin;  ///< element spans into lsim_elems
  std::vector<uint32_t> lsim_sel_end;
  std::vector<uint32_t> chosen;  ///< kRandom f² picks before dedup
  SetCoverScratch cover;
  SetCoverResult cover_result;
  LsimScratch lsim;
  LsimResult lsim_result;

  /// Total reserved capacity in bytes across all buffers — the no-growth
  /// steady-state pin mirrors verifier_engine_test's pool check.
  size_t CapacityBytes() const;
};

/// Evaluates pruning conditions against a PMI.
class ProbabilisticPruner {
 public:
  ProbabilisticPruner(const ProbabilisticMatrixIndex* pmi,
                      const ProbPrunerOptions& options)
      : pmi_(pmi), options_(options) {}

  /// Computes the query-level feature relations (f ⊆iso rq and rq ⊆iso f)
  /// once — they are shared by every graph of the database — and compiles
  /// the bound program. A label-multiset/size guard skips VF2 tests that
  /// provably cannot match; prepare_isomorphism_tests() counts only the VF2
  /// tests actually executed. Feature-side match plans come precompiled
  /// from the PMI; `rq_plans`, when non-null, supplies one compiled plan
  /// per relaxed query (the processor's per-query shared set) — otherwise
  /// plans are compiled here, once per rq rather than once per (f, rq).
  void PrepareQuery(const std::vector<Graph>& relaxed,
                    const std::vector<MatchPlan>* rq_plans = nullptr);

  /// Adopts relations computed by a previous PrepareQuery over an identical
  /// relaxed set (the query's CompiledQuery) — skips every VF2 test;
  /// prepare_isomorphism_tests() reports 0.
  void PrepareFromCache(std::shared_ptr<const PreparedQueryRelations> prepared);

  /// Shares the current relations for caching (valid after PrepareQuery /
  /// PrepareFromCache; null before).
  std::shared_ptr<const PreparedQueryRelations> SharePrepared() const {
    return prepared_;
  }

  /// Applies Pruning 1 and Pruning 2 to one graph column, drawing all
  /// temporaries from `*scratch`. Short-circuits: when Pruning 1 fires, Lsim
  /// is not computed (decision.lsim stays 0).
  PruneDecision Evaluate(uint32_t graph_id, double epsilon, Rng* rng,
                         PrunerScratch* scratch) const;

  /// Usim for ranking (top-k scheduling, diagnostics): the outcome field is
  /// meaningless and lsim reports 0 (see the .cc note on the historical
  /// short-circuit, preserved to keep RNG draw sequences stable).
  PruneDecision Bounds(uint32_t graph_id, Rng* rng,
                       PrunerScratch* scratch) const;

  /// VF2 tests executed in PrepareQuery (statistics). Pairs skipped by the
  /// label-multiset/size guard are not counted: the counter reports work
  /// done, not pairs considered.
  uint64_t prepare_isomorphism_tests() const { return prepare_iso_tests_; }

 private:
  const ProbabilisticMatrixIndex* pmi_;
  ProbPrunerOptions options_;
  /// Immutable once set; shared with a CompiledQuery via SharePrepared().
  std::shared_ptr<const PreparedQueryRelations> prepared_;
  uint64_t prepare_iso_tests_ = 0;
};

}  // namespace pgsim
