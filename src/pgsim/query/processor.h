// End-to-end T-PS query processing (paper Section 1.2):
// structural pruning -> probabilistic pruning -> verification.
//
// QueryProcessor owns nothing: it composes a database, an optional PMI and
// an optional structural filter into the three-stage pipeline and reports
// per-stage statistics (the quantities plotted in Figures 9–13). The
// deterministic counts are one QueryCounters per query; QueryBatch sums them
// into BatchStats::totals and ServingCore into ServingStats::totals.
//
// One execution path runs the pipeline. A query is three steps:
//   1. RunFrontStages — answer-cache probe -> the query's CompiledQuery
//      (looked up by exact form, or built by CompileQuery) -> structural
//      filter -> probabilistic pruning, ending with one RNG pre-forked per
//      surviving candidate, in candidate order;
//   2. VerifyCandidate, once per candidate;
//   3. FinishQuery, which merges the verdicts in candidate order.
// Query() runs the three inline on the caller's QueryContext. QueryBatch and
// ServingCore run them as a per-query task graph (QueryTaskGraph) on a
// work-stealing TaskScheduler: a front task, one verify task per candidate,
// and a merge by whichever verify task finishes last. Each caller supplies
// only its wiring (QueryTaskRun) and its completion.
//
// Answers are bit-identical across entry points, scheduler widths and steal
// schedules: each query reruns its pipeline from QueryOptions::seed,
// candidates draw from their pre-forked RNGs, and verdicts merge in
// candidate order (golden_pipeline_test pins this).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "pgsim/common/cancel.h"
#include "pgsim/common/random.h"
#include "pgsim/common/status.h"
#include "pgsim/common/timer.h"
#include "pgsim/graph/graph.h"
#include "pgsim/graph/relaxation.h"
#include "pgsim/index/domain_index.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/answer_cache.h"
#include "pgsim/query/prob_pruner.h"
#include "pgsim/query/structural_filter.h"
#include "pgsim/query/verifier.h"

namespace pgsim {

class CompiledQueryCache;
class DurableDatabase;
class TaskScheduler;
class QueryProcessor;
struct QueryContext;

/// One T-PS query's parameters. Every field can change the answer set; the
/// stages a query runs are fixed by which indexes its processor holds.
struct QueryOptions {
  uint32_t delta = 2;      ///< subgraph distance threshold δ
  double epsilon = 0.5;    ///< probability threshold ε
  RelaxationOptions relax;
  ProbPrunerOptions pruner;
  VerifierOptions verifier;
  /// Verification engine for surviving candidates.
  enum class VerifyMode { kSample, kExact };
  VerifyMode verify_mode = VerifyMode::kSample;
  uint64_t seed = 7;       ///< randomized pruning/verification seed
};

/// Equality-exact byte fingerprint of every QueryOptions field (delta,
/// epsilon, relaxation caps, pruner config, verifier config, verify mode,
/// seed): two option sets share answer-cache entries exactly when they are
/// equal. (Scheduler widths are not QueryOptions at all.)
std::string QueryOptionsFingerprint(const QueryOptions& options);

/// The deterministic per-query counts of the filter-and-verify pipeline
/// (the quantities the paper plots in Figures 10-12). Defined once here:
/// QueryStats carries one query's, BatchStats and ServingStats sum them with
/// operator+=, and the CLI prints them with one function.
///
/// Every field is equal for the same (query, options, index) regardless of
/// entry point, batching, scheduler width or compiled-query cache hits. A
/// whole-answer AnswerCache hit skips the pipeline, so only `answers` is
/// nonzero. For every query that was not cancelled, structural_candidates ==
/// pruned_by_upper + accepted_by_lower + verification_candidates.
struct QueryCounters {
  size_t num_relaxed_queries = 0;      ///< |U| after isomorphism dedup
  size_t structural_candidates = 0;    ///< |SCq|
  size_t pruned_by_upper = 0;          ///< Pruning 1 hits
  size_t accepted_by_lower = 0;        ///< Pruning 2 hits
  size_t verification_candidates = 0;  ///< graphs sent to the verifier
  size_t verification_failures = 0;    ///< verifier errors (kept as answers=no)
  size_t cancelled_candidates = 0;     ///< candidates stopped at a
                                       ///< cancellation point (their anytime
                                       ///< intervals live in QueryJob)
  size_t answers = 0;
  /// Signature-gate work avoidance, over the structural filter's exact
  /// check and stage 3.
  size_t sig_pairs_rejected = 0;       ///< (rq, candidate) pairs refuted
  size_t domain_candidates_pruned = 0; ///< bucket vertices pruned from domains
  size_t vf2_calls_avoided = 0;        ///< matcher invocations skipped;
                                       ///< each refuted pair skips one, so
                                       ///< this equals sig_pairs_rejected

  QueryCounters& operator+=(const QueryCounters& o) {
    num_relaxed_queries += o.num_relaxed_queries;
    structural_candidates += o.structural_candidates;
    pruned_by_upper += o.pruned_by_upper;
    accepted_by_lower += o.accepted_by_lower;
    verification_candidates += o.verification_candidates;
    verification_failures += o.verification_failures;
    cancelled_candidates += o.cancelled_candidates;
    answers += o.answers;
    sig_pairs_rejected += o.sig_pairs_rejected;
    domain_candidates_pruned += o.domain_candidates_pruned;
    vf2_calls_avoided += o.vf2_calls_avoided;
    return *this;
  }
};

/// One query run: its QueryCounters plus flags and timings.
///
/// `database_size` and `structural_detail` are deterministic like the
/// counters, with one documented exception: on a compiled-query cache hit
/// `structural_detail.isomorphism_tests` omits the query feature-counting
/// tests the shared CompiledQuery already paid for. `isomorphism_tests`
/// counts VF2 invocations actually executed; pairs dismissed by the pre-VF2
/// label-multiset/size guard are not counted (see StructuralFilterStats).
/// `*_seconds` fields are wall-clock measurements and vary run to run.
/// On a scheduler (QueryBatch, ServingCore) `verify_seconds` spans
/// front-stages-end to last-verdict wall clock (candidate tasks may queue
/// behind other queries' work), and under QueryBatch `queue_wait_seconds`
/// reports how long the query waited from batch admission to the start of
/// its front stages.
/// Offline index-build timings live with the index itself: PmiStats
/// (mining/bounds/total seconds, build_threads) and
/// StructuralFilterBuildStats (seconds, counted_pairs, build_threads).
struct QueryStats : QueryCounters {
  size_t database_size = 0;
  bool compiled_cache_hit = false; ///< CompiledQuery shared from an earlier
                                   ///< byte-identical query of the batch
  bool answer_cache_hit = false;   ///< whole answer set served from the
                                   ///< cross-batch AnswerCache (stage
                                   ///< counters below the probe stay 0)
  double relax_seconds = 0.0;      ///< relaxation stage (0 on a cache hit)
  double structural_seconds = 0.0; ///< stage 1 wall clock
  double prob_seconds = 0.0;       ///< stage 2 wall clock
  double verify_seconds = 0.0;     ///< stage 3 wall clock
  double cache_seconds = 0.0;      ///< answer + compiled cache probe time
  double queue_wait_seconds = 0.0; ///< admission -> front-stages start
                                   ///< (QueryBatch only)
  double total_seconds = 0.0;      ///< whole pipeline wall clock
  StructuralFilterStats structural_detail;
};

/// Everything the pipeline derives from a query before it touches a
/// database graph: the relaxation set U = {q minus delta edges} (paper
/// Section 1.2) and what stages 1-3 compile from it. Every field is a pure
/// function of q's exact form (GraphExactKey), the QueryOptions and the
/// processor's index state, so QueryBatch shares one instance among
/// byte-identical queries. Built once by QueryProcessor::CompileQuery and
/// immutable afterwards; the fields of a stage whose index the processor
/// lacks stay empty.
struct CompiledQuery {
  /// U in generation order. The order is part of the contract: set-cover
  /// ties and the per-candidate verification draws follow it.
  std::vector<Graph> relaxed;
  /// One MatchPlan per rq, in U's order, seeded rarest-database-label-first;
  /// shared by the filter's exact check, PrepareQuery and stage 3.
  std::vector<MatchPlan> plans;
  /// One QuerySignature per rq, in U's order: the signature gate's pattern
  /// side.
  std::vector<QuerySignature> sigs;
  /// q's feature embedding counts, when the structural filter runs.
  QueryFeatureCounts counts;
  /// The feature/rq relations (f ⊆iso rq, rq ⊆iso f) and compiled bound
  /// program, when probabilistic pruning runs.
  std::shared_ptr<const PreparedQueryRelations> prepared;
};

/// Decomposed per-query pipeline state: the unit the task-graph execution
/// path schedules. One query becomes a front-stages task (relaxation ->
/// match plans -> structural filter -> probabilistic pruning, which also
/// pre-forks the per-candidate verification RNGs in candidate order) plus
/// one verification task per candidate that any worker may execute; the
/// last one to finish merges verdicts in candidate order.
/// Everything order-sensitive therefore lives here — the job must outlive
/// the worker that started it — while reusable *scratch* (filter/pruner/
/// verifier temporaries) stays in the executing worker's QueryContext.
/// Sequential Query() reuses the job embedded in its QueryContext.
struct QueryJob {
  const Graph* query = nullptr;
  /// The query's compiled form (possibly shared with other queries of the
  /// batch); null until the front stages compiled or found it.
  std::shared_ptr<const CompiledQuery> compiled;

  std::vector<uint32_t> structural_candidates;  ///< stage 1 output SCq
  std::vector<uint32_t> to_verify;              ///< stage 2 output
  std::vector<uint32_t> answers;                ///< accumulated answer ids
  /// Per-candidate RNGs, pre-forked sequentially in candidate order so
  /// verification answers are identical under any schedule.
  std::vector<Rng> verify_rngs;
  /// Per-candidate verdicts, merged in candidate order by FinishQuery.
  std::vector<uint8_t> verdicts;

  /// Cooperative cancellation token (not owned; null = never cancelled),
  /// wired from QueryContext by RunFrontStages. Polled at the front-stage
  /// checkpoints and every draw of the sampling loop.
  const CancelState* cancel = nullptr;
  /// Deterministic test hook: per-candidate sampling-draw budget
  /// (SampleControl::cancel_after_draws). 0 = disabled.
  uint64_t cancel_after_draws = 0;
  /// Set (relaxed; distinct tasks may race to set it true) once any
  /// cancellation point fired — the pipeline unwound early, the answer set
  /// is partial, and `intervals` carries the anytime state. FinishQuery
  /// never stores a cancelled result in the answer cache.
  std::atomic<bool> cancelled{false};
  /// Per-candidate anytime outcomes, parallel to to_verify. Meaningful at
  /// index k iff verdicts[k] is "cancelled": the confidence interval from
  /// the samples candidate k drew before stopping (default-initialized
  /// [0, 1] when it never started).
  std::vector<SampleOutcome> intervals;

  /// Stage-3 signature-gate tallies, accumulated by concurrent verification
  /// workers and merged into `stats` by FinishQuery (the filter exact
  /// check's share arrives via structural_detail instead).
  std::atomic<uint64_t> sig_pairs_rejected{0};
  std::atomic<uint64_t> domain_candidates_pruned{0};
  std::atomic<uint64_t> vf2_calls_avoided{0};

  QueryStats stats;
  Status status = Status::OK();
  WallTimer total_timer;
  WallTimer verify_timer;

  /// Cross-batch answer cache wiring, captured at probe time so FinishQuery
  /// (which may run on a different worker than the front stages) can
  /// fill the slot the probe addressed, under the epoch the answer was
  /// computed at.
  AnswerCache* answer_cache = nullptr;
  AnswerCache::Probe answer_probe;
  uint64_t answer_epoch = 0;

  /// Clears (capacity-preserving) all per-query state.
  void Clear() {
    query = nullptr;
    compiled.reset();
    structural_candidates.clear();
    to_verify.clear();
    answers.clear();
    verify_rngs.clear();
    verdicts.clear();
    cancel = nullptr;
    cancel_after_draws = 0;
    cancelled.store(false, std::memory_order_relaxed);
    intervals.clear();
    sig_pairs_rejected.store(0, std::memory_order_relaxed);
    domain_candidates_pruned.store(0, std::memory_order_relaxed);
    vf2_calls_avoided.store(0, std::memory_order_relaxed);
    stats = QueryStats();
    status = Status::OK();
    answer_cache = nullptr;
    answer_probe = AnswerCache::Probe();
    answer_epoch = 0;
  }
};

/// Per-thread reusable query scratch.
///
/// A QueryContext owns every *reusable* temporary the three-stage pipeline
/// fills per query (filter/pruner/verifier scratch, RNG, and an embedded
/// QueryJob for the sequential path). QueryProcessor::Query clears them
/// between runs instead of reallocating, so a steady-state query loop
/// performs near-zero heap allocation in the processor itself. The task
/// graph keeps one context per scheduler worker (owned by the TaskScheduler,
/// so a thread reuses its scratch across stolen tasks and across batches).
/// A context must not be shared by two queries running concurrently.
struct QueryContext {
  Rng rng;
  /// Optional cross-batch answer cache (not owned; see answer_cache.h).
  /// When set, `answer_fingerprint` must point at the QueryOptions
  /// fingerprint of the options being run (QueryOptionsFingerprint) and
  /// `answer_epoch` must hold the processor's epoch() — QueryBatch wires
  /// all three from BatchOptions::answer_cache; manual Query() callers do
  /// the same by hand.
  AnswerCache* answer_cache = nullptr;
  const std::string* answer_fingerprint = nullptr;
  uint64_t answer_epoch = 0;
  /// Cooperative cancellation wiring (not owned), copied into the job by
  /// RunFrontStages. The task graph's front task points these at its
  /// query's wiring (ServingCore sets one token per ticket); batch and
  /// sequential callers leave them null/0 (never cancelled — bit-identical
  /// answers).
  const CancelState* cancel = nullptr;
  uint64_t cancel_after_draws = 0;
  /// Per-query pipeline state for the inline Query() path (the task graph
  /// uses per-query jobs that outlive the worker instead).
  QueryJob job;
  /// Stage 1 temporaries.
  StructuralFilterScratch filter_scratch;
  /// Stage 2 temporaries: the pruner's columnar evaluate path draws every
  /// per-candidate buffer from here (zero steady-state allocation).
  PrunerScratch pruner_scratch;
  /// Stage 3 scratch: Query()'s inline verification and every verification
  /// task executed by this context's worker use this.
  VerifierScratch verifier_scratch;

  /// Reseeds the RNG (per-query state is cleared by the pipeline itself).
  void Reset(uint64_t seed) { rng = Rng(seed); }
};

/// What every query of one task-graph run shares: one QueryBatch call, or
/// one ServingCore for its lifetime (which re-freezes `answer_epoch` per
/// wave). The front task copies the wiring into the executing worker's
/// QueryContext before running the front stages.
struct QueryTaskRun {
  const QueryProcessor* proc = nullptr;
  const QueryOptions* options = nullptr;
  TaskScheduler* sched = nullptr;
  /// QueryBatch's compiled-query cache (null = every query compiles).
  CompiledQueryCache* cache = nullptr;
  /// Cross-batch answer cache wiring (see QueryContext).
  AnswerCache* answer_cache = nullptr;
  const std::string* answer_fingerprint = nullptr;
  uint64_t answer_epoch = 0;
  /// Failpoint checked before each query's front stages (null = none); a
  /// fired failpoint fails that query with the injected status.
  const char* front_failpoint = nullptr;
  /// Admission clock: a query's queue_wait_seconds is its reading when the
  /// front task starts (null = not measured).
  const WallTimer* admitted = nullptr;
  /// Front tasks in flight, and verify tasks that ran while one was — the
  /// stage-level pipelining BatchStats::overlapped_verify_tasks reports.
  std::atomic<uint32_t> front_inflight{0};
  std::atomic<uint64_t> overlapped_verify{0};
};

/// One query's task graph: a front task (RunFrontStages), one verify task
/// per candidate (VerifyCandidate), and a merge (FinishQuery) by whichever
/// verify task finishes last. The caller fills `run`, `query` and the
/// per-query cancellation wiring, keeps the object alive until Complete()
/// runs, and receives the finished `job` there.
struct QueryTaskGraph {
  QueryTaskGraph() = default;
  QueryTaskGraph(const QueryTaskGraph&) = delete;
  QueryTaskGraph& operator=(const QueryTaskGraph&) = delete;
  virtual ~QueryTaskGraph() = default;
  /// Runs exactly once, on the worker that finished the query, after
  /// FinishQuery merged `job`. Nothing touches the graph afterwards, so
  /// an override may delete it.
  virtual void Complete() = 0;

  QueryTaskRun* run = nullptr;
  const Graph* query = nullptr;
  /// Cooperative cancellation (see QueryContext); serving wires these.
  const CancelState* cancel = nullptr;
  uint64_t cancel_after_draws = 0;
  QueryJob job;
  std::atomic<uint32_t> remaining{0};  ///< verify tasks not yet finished
};

/// Batch execution knobs.
struct BatchOptions {
  /// Width of the TaskScheduler QueryBatch builds for the call; 0 means
  /// ThreadPool::DefaultThreads(), 1 runs the batch inline on the calling
  /// thread. Ignored when `stealer` is set.
  uint32_t num_threads = 0;
  /// Caller-owned work-stealing scheduler (not owned; must outlive the
  /// call). Server loops issuing many batches set this: reusing one
  /// scheduler reuses its threads and its per-worker QueryContext scratch
  /// (no per-batch thread spawn or warm-up allocation).
  TaskScheduler* stealer = nullptr;
  /// Caller-owned cross-batch answer cache (not owned; must outlive the
  /// call). When set, every query probes it before the pipeline and fills
  /// it after; entries are invalidated exactly by the processor's mutation
  /// epoch (see answer_cache.h). Answers are bit-identical with the cache
  /// on or off. Unlike the batch's own compiled-query cache it survives
  /// across QueryBatch calls — that is its point — so a serving loop keeps
  /// one AnswerCache next to its TaskScheduler.
  AnswerCache* answer_cache = nullptr;
};

/// Aggregated counters over one QueryBatch call. `totals` is the sum of the
/// successful queries' QueryCounters. Every QueryBatch shares
/// CompiledQuery objects among byte-identical queries through a cache keyed
/// by GraphExactKey; each query that reaches compilation probes it once.
/// hits + misses (the probe count) is deterministic; the hit/miss split is
/// only deterministic at num_threads == 1 — concurrent workers can both
/// miss on the same query before either store lands, so parallel batches
/// may report fewer hits than sequential ones. Answers are unaffected
/// either way (a miss just recompiles the identical object).
/// Scheduler counters (`tasks_*`, `steal_attempts`, `max_queue_depth`,
/// `overlapped_verify_tasks`, `sum_queue_wait_seconds`) vary run to run
/// with the steal schedule; `overlapped_verify_tasks` counts verification
/// tasks that ran while some other query's front stages were in flight —
/// direct evidence of stage-level pipelining.
struct BatchStats {
  size_t num_queries = 0;
  size_t failed_queries = 0;          ///< queries whose pipeline errored
  QueryCounters totals;               ///< summed over successful queries
  size_t compiled_cache_hits = 0;     ///< CompiledQuery shared (duplicates)
  size_t compiled_cache_misses = 0;   ///< CompiledQuery built
  /// Cross-batch AnswerCache counter deltas over this batch (all zero when
  /// BatchOptions::answer_cache is null). hits are whole queries whose
  /// answer set was served without running the pipeline; stale counts
  /// entries dropped because the index epoch moved.
  AnswerCacheStats answer_cache;
  uint32_t threads_used = 0;          ///< scheduler width the batch ran on
  size_t tasks_executed = 0;          ///< scheduler tasks (front + verify)
  size_t tasks_stolen = 0;            ///< tasks run by a non-spawning worker
  size_t steal_attempts = 0;          ///< victim probes (incl. unsuccessful)
  size_t max_queue_depth = 0;         ///< deepest worker deque observed
  size_t overlapped_verify_tasks = 0; ///< verify tasks overlapping another
                                      ///< query's front stages
  double sum_queue_wait_seconds = 0.0; ///< summed per-query admission waits
  double wall_seconds = 0.0;          ///< batch wall clock
  double sum_query_seconds = 0.0;     ///< summed per-query total_seconds
  double cache_seconds = 0.0;         ///< summed per-query cache_seconds
};

/// One query's slot in a QueryBatch result, in input order.
struct BatchQueryResult {
  Status status = Status::OK();
  std::vector<uint32_t> answers;      ///< valid iff status.ok(); sorted
  QueryStats stats;
};

/// Three-stage T-PS query pipeline plus the Exact-scan baseline.
///
/// Live database contract (mirrors index/pmi.h): a processor constructed
/// over NON-const structures additionally serves AddGraph/RemoveGraph/
/// Compact, which thread the mutation through every serving structure
/// incrementally — database vector, PMI column, filter column, label
/// frequencies — and bump the mutation epoch(). Queries and mutations
/// synchronize on an internal reader/writer lock: any number of concurrent
/// Query/QueryBatch/ExactScan calls run against a frozen index state, and a
/// mutation waits for in-flight queries, applies atomically, then lets
/// queries resume (maintenance_test exercises this under TSan). Graph ids
/// are stable under RemoveGraph (tombstones); only Compact() renumbers.
class QueryProcessor {
 public:
  /// `pmi` and/or `structural` may be null; the corresponding stage is then
  /// skipped. Aggregates the database's vertex
  /// label frequencies once — every query's relaxed-query match plans are
  /// compiled against them (rarest-label-first seed ordering). A processor
  /// built through this overload is read-only: AddGraph/RemoveGraph error.
  ///
  /// `signatures`, when non-null, is the caller's neighborhood-signature
  /// index (not owned; DurableDatabase passes its loaded one). When null the
  /// processor builds and owns one from the database, so the signature gate
  /// runs on every query.
  QueryProcessor(const std::vector<ProbabilisticGraph>* database,
                 const ProbabilisticMatrixIndex* pmi,
                 const StructuralFilter* structural,
                 const SignatureIndex* signatures = nullptr);

  /// Mutable overload: same serving behavior, plus the mutation API below
  /// operates on the caller's structures in place. The caller must not
  /// mutate them directly while this processor exists. A caller-supplied
  /// `signatures` is maintained in place by AddGraph/RemoveGraph/Compact;
  /// when null the processor maintains its own.
  QueryProcessor(std::vector<ProbabilisticGraph>* database,
                 ProbabilisticMatrixIndex* pmi, StructuralFilter* structural,
                 SignatureIndex* signatures = nullptr);

  /// Recovers a crash-consistent database from `dir` (convenience forwarder
  /// for DurableDatabase::Open, storage/durable_db.h): loads the last
  /// checksummed snapshot generation and replays the write-ahead log tail.
  /// The returned database's processor() serves queries and its mutation
  /// API is durable. Defined in storage/durable_db.cc.
  static Result<std::unique_ptr<DurableDatabase>> Open(const std::string& dir);

  /// Runs the full pipeline; returns answer graph ids (sorted).
  Result<std::vector<uint32_t>> Query(const Graph& q,
                                      const QueryOptions& options,
                                      QueryStats* stats = nullptr) const;

  /// As above, drawing all scratch from `*ctx` (reset internally). Repeated
  /// calls with the same context reuse its capacity.
  Result<std::vector<uint32_t>> Query(const Graph& q,
                                      const QueryOptions& options,
                                      QueryContext* ctx,
                                      QueryStats* stats = nullptr) const;

  /// Runs `queries` as task graphs on BatchOptions::stealer, or on a
  /// scheduler of BatchOptions::num_threads built for the call. Results are
  /// in input order and bit-identical to sequential Query(queries[i],
  /// options) calls at any width: every query reruns the pipeline from the
  /// same options.seed regardless of which worker claims which task.
  std::vector<BatchQueryResult> QueryBatch(
      const std::vector<Graph>& queries, const QueryOptions& options,
      const BatchOptions& batch = BatchOptions(),
      BatchStats* batch_stats = nullptr) const;

  /// The paper's Exact baseline: computes the exact SSP of every database
  /// graph, no filtering. Exponential per graph.
  Result<std::vector<uint32_t>> ExactScan(const Graph& q,
                                          const QueryOptions& options,
                                          QueryStats* stats = nullptr) const;

  // ---- Live mutation API (mutable-ctor processors only). ----

  /// Appends `graph` as a new database member and threads it through every
  /// serving structure incrementally: PMI column (bounds computed under
  /// `seed` with the PMI's remembered SIP options), filter column (feature
  /// containment reused from the PMI's decision), label frequencies, alive
  /// set. Blocks until in-flight queries drain; bumps epoch(). Returns the
  /// new graph id.
  Result<uint32_t> AddGraph(const ProbabilisticGraph& graph, uint64_t seed);

  /// Tombstones `graph_id` in every serving structure. Ids are STABLE (no
  /// shift); the graph stops appearing in any answer set from the next
  /// query on. Bumps epoch(). When tombstones exceed the auto-compaction
  /// threshold (>= 16 and >= half the columns), a Compact() runs
  /// immediately after under the same lock.
  Status RemoveGraph(uint32_t graph_id);

  /// Reclaims tombstoned columns in the database vector, PMI, and filter,
  /// renumbering alive ids downward in order (all three renumber
  /// identically). Bumps epoch(); callers holding graph ids must re-derive
  /// them. No-op without tombstones.
  void Compact();

  /// Monotonically increasing mutation counter: bumped by every AddGraph/
  /// RemoveGraph/Compact. The AnswerCache invalidates on inequality.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Database members not tombstoned.
  uint32_t num_alive() const {
    return num_alive_.load(std::memory_order_acquire);
  }

 private:
  friend class ServingCore;  // admission-queue frontend (serving/)

  /// Spawns `g`'s front task onto `worker`'s deque of g->run->sched. Call
  /// only from inside a task running on `worker`.
  static void SpawnQuery(QueryTaskGraph* g, uint32_t worker);

  /// The task-graph bodies (TaskScheduler::TaskFn signature): the front
  /// stages, one candidate's verification (k = a), and the merge plus the
  /// caller's completion.
  static void FrontTask(void* arg, uint32_t worker, uint32_t a, uint32_t b);
  static void VerifyTask(void* arg, uint32_t worker, uint32_t a, uint32_t b);
  static void FinishTask(QueryTaskGraph* g);

  /// Stage 0–2 of the decomposed pipeline: answer-cache probe, the
  /// query's CompiledQuery (from `cache` when non-null, else compiled),
  /// structural filter, probabilistic pruning, and the sequential pre-fork
  /// of per-candidate verification RNGs. Fills `*job`; on return
  /// job->status reflects any pipeline error, job->to_verify holds the
  /// candidates awaiting VerifyCandidate, and job->verify_timer is running.
  void RunFrontStages(const Graph& q, const QueryOptions& options,
                      CompiledQueryCache* cache, QueryContext* ctx,
                      QueryJob* job) const;

  /// Verifies candidate `k` of `job` (writes job->verdicts[k]); safe to
  /// call concurrently for distinct `k` with distinct scratches.
  void VerifyCandidate(const QueryOptions& options, QueryJob* job, size_t k,
                       VerifierScratch* scratch) const;

  /// Merges verdicts in candidate order, sorts answers, finalizes stats.
  void FinishQuery(QueryJob* job) const;

  Status FrontStagesImpl(const Graph& q, const QueryOptions& options,
                         CompiledQueryCache* cache, QueryContext* ctx,
                         QueryJob* job) const;

  /// Builds q's CompiledQuery. Records in job->stats the relaxation time
  /// (relax_seconds), the feature-counting time and VF2 tests (stage-1
  /// timer and structural_detail) and the PrepareQuery time (stage-2
  /// timer). Returns null when the job's cancellation token fired after
  /// relaxation: a partial compile is never published.
  Result<std::shared_ptr<const CompiledQuery>> CompileQuery(
      const Graph& q, const QueryOptions& options, QueryContext* ctx,
      QueryJob* job) const;

  /// Compact() body; caller holds the unique serving lock.
  void CompactLocked();

  const std::vector<ProbabilisticGraph>* database_;
  const ProbabilisticMatrixIndex* pmi_;
  const StructuralFilter* structural_;
  /// Non-null only for mutable-ctor processors (same objects as the const
  /// pointers above); the mutation API requires them.
  std::vector<ProbabilisticGraph>* mutable_database_ = nullptr;
  ProbabilisticMatrixIndex* mutable_pmi_ = nullptr;
  StructuralFilter* mutable_structural_ = nullptr;
  /// Neighborhood-signature index: `sigs_` is the serving pointer (owned or
  /// caller-supplied; non-null whenever the database is), `mutable_sigs_`
  /// its writable alias for the mutation API. Tombstones and Compact renumbering track the PMI exactly.
  std::unique_ptr<SignatureIndex> owned_sigs_;
  const SignatureIndex* sigs_ = nullptr;
  SignatureIndex* mutable_sigs_ = nullptr;
  /// Vertex-label frequencies summed over the database (index = LabelId):
  /// the MatchPlanOptions::label_freq input for per-query plan compilation.
  /// Maintained exactly under AddGraph/RemoveGraph — an add→remove round
  /// trip restores it byte-identically, which the add→remove answer
  /// bit-identity pin depends on (plans compile against these frequencies).
  std::vector<uint32_t> db_label_freq_;
  /// Per-database-member alive bytes (1 = serving): the tombstone view used
  /// by the paths that enumerate the whole database (delta shortcut,
  /// filter-disabled stage 1, ExactScan). Stage-1-filtered queries get the
  /// same exclusion from the filter's live mask.
  std::vector<uint8_t> alive_;
  std::atomic<uint32_t> num_alive_{0};
  std::atomic<uint64_t> epoch_{0};
  /// Reader/writer serving lock: queries shared, mutations exclusive.
  mutable std::shared_mutex live_mu_;
};

}  // namespace pgsim
