// Verification (paper Section 5): computing the Subgraph Similarity
// Probability of a candidate graph.
//
// Exact: SSP = Pr(Bf1 ∨ ... ∨ Bfm) (Equation 22) over the embeddings of all
// relaxed queries — evaluated by the exact monotone-DNF engine (exponential
// worst case, the paper's "Exact" baseline). Definition 9 computed literally
// by world enumeration is a test-only oracle (tests/oracles/).
//
// SMP (Algorithm 5): Karp–Luby coverage sampling. m embedding events with
// exact marginals Pr(Bfi) from the joint model, V = sum_i Pr(Bfi); each
// round samples i ∝ Pr(Bfi)/V, then a world conditioned on Bfi = 1, and
// counts rounds where no earlier event holds. The unbiased estimator is
// V * Cnt / N (the paper's pseudocode prints Cnt/N with V computed on line 1
// but unused; V * Cnt / N is the estimator its Monte-Carlo citation [26]
// prescribes, and the one implemented here).
//
// Engine layout (this file's scratch-threaded entry points):
//   * Events live in a contiguous EventSetPool inside a caller-owned
//     VerifierScratch; marginal/cumulative/world/index buffers are all
//     reused across candidates, so steady-state verification performs no
//     heap allocation in this layer (VF2 enumeration keeps its own small
//     per-call state).
//   * Sampling is support-restricted: conditioned worlds draw only the ne
//     sets intersecting the union of event supports — edges outside it
//     cannot affect any event, so the estimator distribution is unchanged
//     while draws per round shrink to the support size.
//   * The Karp–Luby canonicity check runs in descending-marginal event
//     order with a per-edge inverted index: each round marks the events
//     killed by the support edges absent from the sampled world and scans
//     the (likeliest-first) earlier events for a survivor.
//
// Any fixed event order yields an unbiased estimator, but the order (and
// the support restriction) changes which RNG draws happen when — estimates
// differ draw-by-draw from the pre-scratch engine while concentrating on
// the same SSP. Determinism contract: equal (graph, relaxed, options, RNG
// state) produce bit-identical estimates, with or without a reused scratch,
// and independent of the VF2 plan variant that enumerated the events: the
// sampling order sorts by descending marginal with row-content tie-breaks,
// so it is a pure function of the (deduplicated) event set and the model,
// not of event insertion order.

#pragma once

#include <cstdint>
#include <vector>

#include "pgsim/bounds/cond_sampler.h"
#include "pgsim/common/cancel.h"
#include "pgsim/common/event_pool.h"
#include "pgsim/common/random.h"
#include "pgsim/common/status.h"
#include "pgsim/graph/graph.h"
#include "pgsim/graph/signature.h"
#include "pgsim/graph/vf2.h"
#include "pgsim/prob/dnf_exact.h"
#include "pgsim/prob/probabilistic_graph.h"

namespace pgsim {

/// Verification knobs.
struct VerifierOptions {
  /// Algorithm 5 sample count parameters: N = 4 ln(2/ξ) / τ².
  MonteCarloParams mc;
  /// Cap on embeddings enumerated per relaxed query, inclusive: a relaxed
  /// query with exactly this many embeddings is fine; one more errors.
  /// 0 = uncapped.
  size_t max_embeddings_per_rq = 512;
  /// Cap on the total event count m (deduplicated across relaxed queries),
  /// inclusive: collection errors only when event m+1 would be inserted.
  size_t max_total_embeddings = 4096;
  /// Exact-engine limits.
  DnfExactOptions exact;
};

/// Reusable per-thread scratch for the verification engine. Owns the event
/// pool and every buffer the collector/sampler/exact paths fill per
/// candidate; repeated calls reuse all capacity (PoolCapacityWords() is
/// stable once the largest candidate has been seen). Not concurrency-safe:
/// one scratch per verifying thread.
struct VerifierScratch {
  /// Collected (then absorbed) event supports, one row per event.
  EventSetPool events;
  /// The same rows permuted into descending-marginal order — the canonicity
  /// scan walks them contiguously.
  EventSetPool sorted_events;
  /// Open-addressing dedup table over event rows.
  EventRowDedup dedup;
  /// Pr(Bfi) per pool row.
  std::vector<double> marginals;
  /// Event rows in descending-marginal order.
  std::vector<uint32_t> order;
  /// Cumulative marginals over `order` (the i ∝ Pr(Bfi)/V distribution).
  std::vector<double> cumulative;
  /// Per-edge CSR inverted index: edge -> ascending sorted-event positions.
  std::vector<uint32_t> inv_offsets;
  std::vector<uint32_t> inv_entries;
  /// Canonicity marking: dead_stamp[p] == stamp means sorted event p is
  /// killed by an absent support edge in the current round.
  std::vector<uint32_t> dead_stamp;
  uint32_t stamp = 0;
  /// Union of event supports / sampled world / per-event bitset views.
  EdgeBitset support;
  EdgeBitset world;
  EdgeBitset tmp;
  /// ne-set indices intersecting the support (partition models).
  std::vector<uint32_t> active_ne;
  /// Clique-tree buffers (tree models).
  WorldSampleScratch sample;
  /// Exact-engine event materialization (element capacity reused).
  std::vector<EdgeBitset> exact_events;

  /// VF2 matcher state for embedding collection (map/used/cursor arrays,
  /// reused Embedding, pooled edge-set dedup).
  Vf2Scratch vf2;
  /// Per-relaxed-query plans compiled locally when the caller supplies none
  /// (the processor passes its per-query shared plan set instead, so this
  /// fallback only pays on standalone verifier calls). Compilation is lazy:
  /// a relaxed query rejected by the signature gate never compiles a plan.
  std::vector<MatchPlan> rq_plans;

  /// Signature-gate telemetry, reset at every CollectSimilarityEvents call
  /// (the caller accumulates across candidates): (rq, candidate) pairs
  /// rejected outright, label-bucket vertices pruned from surviving pairs'
  /// domains, matcher invocations skipped, and fallback plans actually
  /// compiled (audits the lazy compile above).
  uint64_t sig_pairs_rejected = 0;
  uint64_t domain_candidates_pruned = 0;
  uint64_t vf2_calls_avoided = 0;
  uint64_t rq_plans_compiled = 0;

  /// Partition-model sampling plan, rebuilt per candidate (see verifier.cc:
  /// per active ne set an unconditional compact CDF with per-entry OR-masks,
  /// plus per-event overrides for the ne sets the event conditions). The
  /// per-draw loop then touches nothing but these flat arrays.
  std::vector<uint64_t> world_words;   ///< sampled world, one word per 64 edges
  std::vector<uint32_t> plan_step_off; ///< per active ne: entry range begin
  std::vector<double> plan_prob;       ///< per entry: assignment probability
  std::vector<uint64_t> plan_bits;     ///< per entry: wpr OR-mask words
  std::vector<uint32_t> ov_row_off;    ///< per event row: override range
  std::vector<uint32_t> ov_active;     ///< per override: active-ne position
  std::vector<uint32_t> ov_entry_off;  ///< per override: entry range begin
  std::vector<double> ov_mass;         ///< per override: conditional mass
  std::vector<double> ov_prob;         ///< override entries: probability
  std::vector<uint64_t> ov_bits;       ///< override entries: OR-mask words

  /// Allocated words in the event pool — lets tests pin "the second pass
  /// over a workload performs no pool growth".
  size_t PoolCapacityWords() const { return events.word_capacity(); }
};

/// Collects the deduplicated embedding edge sets of every relaxed query in
/// `relaxed` inside gc (the Bf events of Equation 22) into
/// `scratch->events`. Fails when a cap is hit (the exact engine would be
/// unsound on a partial list; SMP callers may treat the failure as "fall
/// back to exact bounds"); the pool contents are unspecified on error.
///
/// A signature gate for one (query, candidate) pairing: the candidate
/// graph's signature view plus one compiled QuerySignature per relaxed
/// query (same order as `relaxed`). When supplied, every relaxed query runs
/// the cover test against the candidate before its matcher call — barren
/// pairs contribute no embeddings by construction, so skipping them leaves
/// the event pool, and therefore every probability downstream, bit-identical
/// — and survivors enumerate against signature-built candidate domains.
struct SignatureGate {
  SignatureView target;
  const std::vector<QuerySignature>* rq = nullptr;
};

/// `plans`, when non-null, supplies one compiled MatchPlan per relaxed
/// query (same order as `relaxed`) — the query pipeline compiles them once
/// per query and reuses them for every candidate. When null, plans are
/// compiled into the scratch per call, lazily: only for relaxed queries the
/// signature gate (if any) lets through. `gate`, when non-null, prunes and
/// domain-seeds as described on SignatureGate.
Status CollectSimilarityEvents(const ProbabilisticGraph& g,
                               const std::vector<Graph>& relaxed,
                               const VerifierOptions& options,
                               VerifierScratch* scratch,
                               const std::vector<MatchPlan>* plans = nullptr,
                               const SignatureGate* gate = nullptr);

/// Exact SSP via the monotone-DNF engine (Equation 22) over the events in
/// `scratch->events` (as left by CollectSimilarityEvents).
Result<double> ExactSspFromEvents(const ProbabilisticGraph& g,
                                  const VerifierOptions& options,
                                  VerifierScratch* scratch);

/// Exact SSP of q against g (relaxes q internally). Exponential worst case.
Result<double> ExactSubgraphSimilarityProbability(
    const ProbabilisticGraph& g, const std::vector<Graph>& relaxed,
    const VerifierOptions& options = VerifierOptions());

/// As above, drawing all event storage from `*scratch`; `plans` and `gate`
/// as in CollectSimilarityEvents.
Result<double> ExactSubgraphSimilarityProbability(
    const ProbabilisticGraph& g, const std::vector<Graph>& relaxed,
    const VerifierOptions& options, VerifierScratch* scratch,
    const std::vector<MatchPlan>* plans = nullptr,
    const SignatureGate* gate = nullptr);

/// Algorithm 5 (SMP). Returns the estimated SSP in [0, 1].
Result<double> SampleSubgraphSimilarityProbability(
    const ProbabilisticGraph& g, const std::vector<Graph>& relaxed,
    const VerifierOptions& options, Rng* rng);

/// As above, drawing every event/marginal/world buffer from `*scratch` —
/// the zero-allocation steady-state hot path QueryProcessor runs. `plans`
/// as in CollectSimilarityEvents; event *sets* (and therefore the sampled
/// estimate's distribution and, absent exact marginal ties, its draws) are
/// independent of the plan variant used to enumerate them.
Result<double> SampleSubgraphSimilarityProbability(
    const ProbabilisticGraph& g, const std::vector<Graph>& relaxed,
    const VerifierOptions& options, Rng* rng, VerifierScratch* scratch,
    const std::vector<MatchPlan>* plans = nullptr,
    const SignatureGate* gate = nullptr);

/// Cooperative-cancellation controls for the anytime sampler.
struct SampleControl {
  /// Polled once per draw (one relaxed load); null = never cancelled.
  const CancelState* cancel = nullptr;
  /// Deterministic test hook: stop before draw `cancel_after_draws + 1`
  /// regardless of `cancel`. 0 = disabled. Because it counts *this
  /// candidate's* draws (per-candidate RNGs are pre-forked sequentially),
  /// the partial outcome is byte-identical across runs and scheduler widths.
  uint64_t cancel_after_draws = 0;
};

/// What the anytime sampler knew when it stopped — complete or cancelled.
struct SampleOutcome {
  /// The running Karp-Luby estimate v * cnt / drawn, clamped to [0, 1].
  double estimate = 0.0;
  /// Hoeffding confidence interval at level 1 - xi around `estimate`:
  /// half-width v * sqrt(ln(2/xi) / (2 * drawn)). Before the first draw the
  /// only known bounds are [0, min(v, 1)] (union bound), or [0, 1] when
  /// cancellation struck before the events were even collected.
  double lo = 0.0;
  double hi = 1.0;
  /// Draws taken and canonical hits among them.
  uint64_t drawn = 0;
  uint64_t hits = 0;
  /// False iff the sampler stopped at a cancellation point.
  bool completed = true;
};

/// The anytime form of Algorithm 5: identical draw-for-draw to
/// SampleSubgraphSimilarityProbability (which wraps it with a null control),
/// but stoppable at every draw, returning the partial estimate plus its
/// confidence interval instead of an error. Event-collection failures (caps)
/// still surface as errors — there is no partial answer without events.
Result<SampleOutcome> SampleSubgraphSimilarityProbabilityAnytime(
    const ProbabilisticGraph& g, const std::vector<Graph>& relaxed,
    const VerifierOptions& options, Rng* rng, VerifierScratch* scratch,
    const std::vector<MatchPlan>* plans = nullptr,
    const SampleControl& control = SampleControl{},
    const SignatureGate* gate = nullptr);

}  // namespace pgsim
