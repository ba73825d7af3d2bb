#include "pgsim/query/processor.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "pgsim/common/failpoint.h"
#include "pgsim/common/fingerprint.h"
#include "pgsim/common/task_scheduler.h"

namespace pgsim {

// QueryBatch's compiled-query cache: GraphExactKey(q) -> CompiledQuery. A
// byte-identical query compiles to byte-identical contents (relaxation is
// deterministic and every other field is a function of U), and one batch
// fixes the QueryOptions and — under its shared serving lock — the index
// state, so sharing the stored object is bit-identical to recompiling. The
// first store wins; a duplicate that missed concurrently keeps its own copy.
class CompiledQueryCache {
 public:
  std::shared_ptr<const CompiledQuery> Find(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    return it->second;
  }

  void Store(std::string key, std::shared_ptr<const CompiledQuery> compiled) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.emplace(std::move(key), std::move(compiled));
  }

  std::pair<size_t, size_t> HitsAndMisses() {
    std::lock_guard<std::mutex> lock(mu_);
    return {hits_, misses_};
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const CompiledQuery>>
      entries_;
  size_t hits_ = 0;
  size_t misses_ = 0;
};

namespace {

// Per-candidate verdict codes (QueryJob::verdicts).
constexpr uint8_t kVerifyFailed = 0;
constexpr uint8_t kVerifyReject = 1;
constexpr uint8_t kVerifyAccept = 2;
constexpr uint8_t kVerifyCancelled = 3;  ///< stopped at a cancellation point;
                                         ///< job->intervals[k] holds the
                                         ///< anytime [lo, hi]

// A cancellation point: one relaxed load of the job's token. When it fired,
// marks the job cancelled (its answer set is partial).
bool CancelledNow(QueryJob* job) {
  if (job->cancel == nullptr || !job->cancel->IsCancelled()) return false;
  job->cancelled.store(true, std::memory_order_relaxed);
  return true;
}

}  // namespace

std::string QueryOptionsFingerprint(const QueryOptions& options) {
  Fingerprint fp;
  fp.AddU32(options.delta);
  fp.AddDouble(options.epsilon);
  fp.AddU64(options.relax.max_combinations);
  fp.AddU64(options.relax.max_relaxed_graphs);
  fp.AddU32(static_cast<uint32_t>(options.pruner.selection));
  fp.AddU32(static_cast<uint32_t>(options.pruner.sip_variant));
  fp.AddU32(static_cast<uint32_t>(options.pruner.lsim.gradient_iterations));
  fp.AddU32(static_cast<uint32_t>(options.pruner.lsim.projection_sweeps));
  fp.AddDouble(options.pruner.lsim.rounding_factor);
  fp.AddDouble(options.verifier.mc.xi);
  fp.AddDouble(options.verifier.mc.tau);
  fp.AddU64(options.verifier.mc.min_samples);
  fp.AddU64(options.verifier.mc.max_samples);
  fp.AddU64(options.verifier.max_embeddings_per_rq);
  fp.AddU64(options.verifier.max_total_embeddings);
  fp.AddU64(options.verifier.exact.max_terms);
  fp.AddU64(options.verifier.exact.max_shannon_nodes);
  fp.AddU32(static_cast<uint32_t>(options.verify_mode));
  fp.AddU64(options.seed);
  return fp.bytes();
}

QueryProcessor::QueryProcessor(const std::vector<ProbabilisticGraph>* database,
                               const ProbabilisticMatrixIndex* pmi,
                               const StructuralFilter* structural,
                               const SignatureIndex* signatures)
    : database_(database), pmi_(pmi), structural_(structural) {
  if (database_ != nullptr) {
    for (const ProbabilisticGraph& g : *database_) {
      AccumulateVertexLabelFrequencies(g.certain(), &db_label_freq_);
    }
    // Alive view: everything serves, unless the PMI was loaded/mutated with
    // tombstones and aligns with the database — then inherit its view (and
    // its epoch), so a Save/Load'd mutated index keeps excluding removed
    // graphs.
    alive_.assign(database_->size(), 1);
    uint32_t alive_count = static_cast<uint32_t>(database_->size());
    if (pmi_ != nullptr && pmi_->num_graphs() == database_->size()) {
      for (uint32_t gi = 0; gi < pmi_->num_graphs(); ++gi) {
        if (!pmi_->IsAlive(gi)) {
          alive_[gi] = 0;
          --alive_count;
        }
      }
      // Dead graphs' labels must not steer plan seed ordering.
      for (uint32_t gi = 0; gi < pmi_->num_graphs(); ++gi) {
        if (alive_[gi]) continue;
        for (LabelId l : (*database_)[gi].certain().VertexLabels()) {
          --db_label_freq_[l];
        }
      }
    }
    num_alive_.store(alive_count, std::memory_order_release);
  }
  if (pmi_ != nullptr) {
    epoch_.store(pmi_->epoch(), std::memory_order_release);
  }
  // Signature index: serve the caller's, or build an owned one over the
  // database (cheap — one adjacency pass per graph) and inherit the same
  // tombstone view as above so Compact renumbering stays aligned.
  if (signatures != nullptr) {
    sigs_ = signatures;
  } else if (database_ != nullptr) {
    owned_sigs_ = std::make_unique<SignatureIndex>(
        SignatureIndex::Build(*database_));
    for (uint32_t gi = 0; gi < alive_.size(); ++gi) {
      if (alive_[gi] == 0) (void)owned_sigs_->RemoveGraph(gi);
    }
    sigs_ = owned_sigs_.get();
  }
}

QueryProcessor::QueryProcessor(std::vector<ProbabilisticGraph>* database,
                               ProbabilisticMatrixIndex* pmi,
                               StructuralFilter* structural,
                               SignatureIndex* signatures)
    : QueryProcessor(
          static_cast<const std::vector<ProbabilisticGraph>*>(database),
          static_cast<const ProbabilisticMatrixIndex*>(pmi),
          static_cast<const StructuralFilter*>(structural),
          static_cast<const SignatureIndex*>(signatures)) {
  mutable_database_ = database;
  mutable_pmi_ = pmi;
  mutable_structural_ = structural;
  mutable_sigs_ = signatures != nullptr ? signatures : owned_sigs_.get();
}

// ---------------------------------------------------------------------------
// Live mutation API. Each call takes the serving lock exclusively: it waits
// for in-flight queries, applies the mutation to every structure, bumps the
// epoch, and returns — queries admitted afterwards see the new state
// atomically, and the answer cache drops pre-mutation entries on epoch
// mismatch.
// ---------------------------------------------------------------------------

Result<uint32_t> QueryProcessor::AddGraph(const ProbabilisticGraph& graph,
                                          uint64_t seed) {
  if (mutable_database_ == nullptr) {
    return Status::InvalidArgument(
        "AddGraph: processor was built over const structures (read-only)");
  }
  std::unique_lock<std::shared_mutex> lock(live_mu_);
  const uint32_t graph_id = static_cast<uint32_t>(mutable_database_->size());
  std::vector<uint32_t> contained;
  if (mutable_pmi_ != nullptr) {
    PGSIM_ASSIGN_OR_RETURN(
        const uint32_t pmi_id,
        mutable_pmi_->AddGraph(graph, mutable_pmi_->sip_options(), seed,
                               &contained));
    if (pmi_id != graph_id) {
      return Status::Internal("AddGraph: PMI and database ids diverged");
    }
  }
  if (mutable_structural_ != nullptr) {
    const uint32_t filter_id = mutable_structural_->AddGraph(
        graph.certain(), mutable_pmi_ != nullptr ? &contained : nullptr);
    if (filter_id != graph_id) {
      return Status::Internal("AddGraph: filter and database ids diverged");
    }
  }
  if (mutable_sigs_ != nullptr) {
    const uint32_t sig_id = mutable_sigs_->AddGraph(graph.certain());
    if (sig_id != graph_id) {
      return Status::Internal(
          "AddGraph: signature index and database ids diverged");
    }
  }
  mutable_database_->push_back(graph);
  AccumulateVertexLabelFrequencies(graph.certain(), &db_label_freq_);
  alive_.push_back(1);
  num_alive_.fetch_add(1, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  return graph_id;
}

Status QueryProcessor::RemoveGraph(uint32_t graph_id) {
  if (mutable_database_ == nullptr) {
    return Status::InvalidArgument(
        "RemoveGraph: processor was built over const structures (read-only)");
  }
  std::unique_lock<std::shared_mutex> lock(live_mu_);
  if (graph_id >= alive_.size() || alive_[graph_id] == 0) {
    return Status::InvalidArgument(
        "RemoveGraph: graph id out of range or already removed");
  }
  if (mutable_pmi_ != nullptr) {
    PGSIM_RETURN_NOT_OK(mutable_pmi_->RemoveGraph(graph_id));
  }
  if (mutable_structural_ != nullptr) {
    PGSIM_RETURN_NOT_OK(mutable_structural_->RemoveGraph(graph_id));
  }
  if (mutable_sigs_ != nullptr) {
    PGSIM_RETURN_NOT_OK(mutable_sigs_->RemoveGraph(graph_id));
  }
  // Exact label-frequency rollback: an add→remove round trip restores the
  // frequencies byte-identically, so compiled plans — and therefore every
  // answer — match the pre-mutation state bit for bit.
  for (LabelId l : (*mutable_database_)[graph_id].certain().VertexLabels()) {
    --db_label_freq_[l];
  }
  alive_[graph_id] = 0;
  num_alive_.fetch_sub(1, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  // Auto-compaction: reclaim once tombstones dominate. The extra epoch bump
  // from CompactLocked() is correct — compaction renumbers ids.
  const size_t tombstones =
      alive_.size() - num_alive_.load(std::memory_order_relaxed);
  if (tombstones >= 16 && tombstones * 2 >= alive_.size()) {
    CompactLocked();
  }
  return Status::OK();
}

void QueryProcessor::Compact() {
  if (mutable_database_ == nullptr) return;
  std::unique_lock<std::shared_mutex> lock(live_mu_);
  CompactLocked();
}

void QueryProcessor::CompactLocked() {
  const uint32_t alive_count = num_alive_.load(std::memory_order_relaxed);
  if (alive_count == alive_.size()) return;
  if (mutable_pmi_ != nullptr) mutable_pmi_->Compact();
  if (mutable_structural_ != nullptr) mutable_structural_->Compact();
  if (mutable_sigs_ != nullptr) mutable_sigs_->Compact();
  // All three structures renumber identically: alive ids shift down by the
  // number of dead slots below them.
  auto& db = *mutable_database_;
  size_t write = 0;
  for (size_t read = 0; read < db.size(); ++read) {
    if (alive_[read] == 0) continue;
    if (write != read) db[write] = std::move(db[read]);
    ++write;
  }
  db.resize(write);
  alive_.assign(write, 1);
  num_alive_.store(static_cast<uint32_t>(write), std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Decomposed pipeline stages. Inline Query() and the task graph (QueryBatch,
// ServingCore) both execute exactly these — one code path for the
// order-sensitive work is what keeps answers bit-identical across entry
// points.
// ---------------------------------------------------------------------------

Result<std::shared_ptr<const CompiledQuery>> QueryProcessor::CompileQuery(
    const Graph& q, const QueryOptions& options, QueryContext* ctx,
    QueryJob* job) const {
  QueryStats& local = job->stats;
  auto compiled = std::make_shared<CompiledQuery>();

  // ---- Relaxation: U = {rq1..rqa}. ----
  WallTimer relax_timer;
  PGSIM_RETURN_NOT_OK(GenerateRelaxedQueriesInto(q, options.delta,
                                                 options.relax,
                                                 &compiled->relaxed));
  const std::vector<Graph>& relaxed = compiled->relaxed;
  local.num_relaxed_queries = relaxed.size();
  local.relax_seconds = relax_timer.Seconds();
  if (CancelledNow(job)) return std::shared_ptr<const CompiledQuery>();

  // ---- Relaxed-query match plans and vertex signatures. ----
  // One compiled MatchPlan per rq, seeded rarest-database-label-first, and
  // one QuerySignature per rq: the pattern side of every exact check,
  // PrepareQuery test and stage-3 candidate of this query.
  MatchPlanOptions plan_options;
  plan_options.label_freq = &db_label_freq_;
  compiled->plans.reserve(relaxed.size());
  for (const Graph& rq : relaxed) {
    compiled->plans.push_back(CompileMatchPlan(rq, plan_options));
  }
  compiled->sigs.reserve(relaxed.size());
  for (const Graph& rq : relaxed) {
    compiled->sigs.push_back(BuildQuerySignature(rq));
  }

  // ---- Stage-1 input: q's feature embedding counts. ----
  if (structural_ != nullptr) {
    WallTimer counting_timer;
    compiled->counts = structural_->ComputeQueryCounts(
        q, &local.structural_detail.isomorphism_tests, &ctx->filter_scratch);
    local.structural_detail.seconds = counting_timer.Seconds();
    local.structural_seconds = local.structural_detail.seconds;
  }

  // ---- Stage-2 input: feature/rq relations + bound program. ----
  if (pmi_ != nullptr) {
    WallTimer prepare_timer;
    ProbabilisticPruner pruner(pmi_, options.pruner);
    pruner.PrepareQuery(relaxed, &compiled->plans);
    compiled->prepared = pruner.SharePrepared();
    local.prob_seconds = prepare_timer.Seconds();
  }
  return std::shared_ptr<const CompiledQuery>(std::move(compiled));
}

Status QueryProcessor::FrontStagesImpl(const Graph& q,
                                       const QueryOptions& options,
                                       CompiledQueryCache* cache,
                                       QueryContext* ctx,
                                       QueryJob* job) const {
  const auto& db = *database_;
  QueryStats& local = job->stats;
  local.database_size = db.size();

  if (options.delta >= q.NumEdges()) {
    // dis(q, g') <= |E(q)| <= delta for every world: SSP = 1 for every
    // graph that is still alive.
    for (uint32_t i = 0; i < db.size(); ++i) {
      if (alive_[i]) job->answers.push_back(i);
    }
    return Status::OK();
  }

  // ---- Cross-batch answer cache probe (see answer_cache.h). ----
  // A hit returns the whole answer set computed under this exact epoch +
  // options fingerprint; every stage below is skipped. The wiring is copied
  // into the job so FinishQuery can fill the slot after a miss.
  if (ctx->answer_cache != nullptr && ctx->answer_fingerprint != nullptr) {
    WallTimer cache_timer;
    job->answer_cache = ctx->answer_cache;
    job->answer_epoch = ctx->answer_epoch;
    job->answer_probe =
        ctx->answer_cache->Find(q, *ctx->answer_fingerprint, ctx->answer_epoch);
    local.cache_seconds += cache_timer.Seconds();
    if (job->answer_probe.hit) {
      job->answers = *job->answer_probe.answers;
      local.answer_cache_hit = true;
      return Status::OK();
    }
  }

  // Cancellation points: one relaxed load at every stage boundary (and per
  // candidate inside the stage-2 loop / per draw inside the sampler). A
  // query cancelled before its candidates are known unwinds with whatever
  // partial state exists; FinishQuery reports it as cancelled and never
  // caches it. The answer-cache probe above deliberately runs first — a hit
  // is exact and effectively free, so even an expired query serves it.
  if (CancelledNow(job)) return Status::OK();

  // ---- The compiled query: shared by an earlier duplicate, or built. ----
  std::string exact_key;
  if (cache != nullptr) {
    WallTimer cache_timer;
    exact_key = GraphExactKey(q);
    job->compiled = cache->Find(exact_key);
    local.cache_seconds += cache_timer.Seconds();
    local.compiled_cache_hit = job->compiled != nullptr;
  }
  if (job->compiled == nullptr) {
    PGSIM_ASSIGN_OR_RETURN(job->compiled, CompileQuery(q, options, ctx, job));
    if (job->compiled == nullptr) return Status::OK();  // cancelled
    if (cache != nullptr) cache->Store(std::move(exact_key), job->compiled);
  }
  const CompiledQuery& cq = *job->compiled;
  local.num_relaxed_queries = cq.relaxed.size();

  // ---- Stage 1: structural pruning (Theorem 1). ----
  WallTimer structural_timer;
  std::vector<uint32_t>& sc_q = job->structural_candidates;
  if (structural_ != nullptr) {
    // CompileQuery's feature counting (zero on a cache hit) joins the
    // filter's own tests and time.
    const StructuralFilterStats counting = local.structural_detail;
    structural_->Filter(q, cq.relaxed, options.delta, &sc_q,
                        &ctx->filter_scratch, &local.structural_detail,
                        &cq.counts, nullptr, &cq.plans, sigs_, &cq.sigs);
    local.structural_detail.isomorphism_tests += counting.isomorphism_tests;
    local.structural_detail.seconds += counting.seconds;
    // The exact check's signature rejections are whole VF2 calls avoided.
    local.sig_pairs_rejected += local.structural_detail.sig_pairs_rejected;
    local.domain_candidates_pruned +=
        local.structural_detail.domain_candidates_pruned;
    local.vf2_calls_avoided += local.structural_detail.sig_pairs_rejected;
  } else {
    for (uint32_t i = 0; i < db.size(); ++i) {
      if (alive_[i]) sc_q.push_back(i);
    }
  }
  local.structural_candidates = sc_q.size();
  local.structural_seconds += structural_timer.Seconds();
  if (CancelledNow(job)) return Status::OK();

  // ---- Stage 2: probabilistic pruning (Theorems 3-4). ----
  WallTimer prob_timer;
  Rng& rng = ctx->rng;
  std::vector<uint32_t>& to_verify = job->to_verify;
  if (pmi_ != nullptr) {
    ProbabilisticPruner pruner(pmi_, options.pruner);
    pruner.PrepareFromCache(cq.prepared);
    for (size_t ci = 0; ci < sc_q.size(); ++ci) {
      if (CancelledNow(job)) {
        // The unpruned tail goes to verification anyway: each of those
        // candidates' verify tasks observes the cancel immediately and
        // records the unknown [0, 1] interval, so every structural
        // candidate is accounted for in the degraded answer.
        to_verify.insert(to_verify.end(), sc_q.begin() + ci, sc_q.end());
        break;
      }
      const uint32_t gi = sc_q[ci];
      const PruneDecision d =
          pruner.Evaluate(gi, options.epsilon, &rng, &ctx->pruner_scratch);
      switch (d.outcome) {
        case PruneOutcome::kPruned:
          ++local.pruned_by_upper;
          break;
        case PruneOutcome::kAccepted:
          ++local.accepted_by_lower;
          job->answers.push_back(gi);
          break;
        case PruneOutcome::kCandidate:
          to_verify.push_back(gi);
          break;
      }
    }
  } else {
    to_verify = sc_q;
  }
  local.verification_candidates = to_verify.size();
  local.prob_seconds += prob_timer.Seconds();

  // ---- Stage 3 setup: pre-fork per-candidate RNGs. ----
  // Sequential forks in candidate order pin every candidate's random draws
  // before any verification runs, so verdicts are independent of which
  // worker (or steal schedule) executes each candidate.
  job->verify_rngs.reserve(to_verify.size());
  for (size_t k = 0; k < to_verify.size(); ++k) {
    job->verify_rngs.push_back(rng.Fork());
  }
  job->verdicts.assign(to_verify.size(), kVerifyFailed);
  job->intervals.assign(to_verify.size(), SampleOutcome());
  return Status::OK();
}

void QueryProcessor::RunFrontStages(const Graph& q,
                                    const QueryOptions& options,
                                    CompiledQueryCache* cache,
                                    QueryContext* ctx, QueryJob* job) const {
  job->Clear();
  job->query = &q;
  job->cancel = ctx->cancel;
  job->cancel_after_draws = ctx->cancel_after_draws;
  job->total_timer.Restart();
  ctx->Reset(options.seed);
  job->status = FrontStagesImpl(q, options, cache, ctx, job);
  job->verify_timer.Restart();
}

void QueryProcessor::VerifyCandidate(const QueryOptions& options,
                                     QueryJob* job, size_t k,
                                     VerifierScratch* scratch) const {
  const auto& db = *database_;
  const uint32_t gi = job->to_verify[k];
  const CompiledQuery& cq = *job->compiled;
  // Signature gate: refutes barren (rq, candidate) pairs before their VF2
  // call. It never changes the similarity events, so it only saves work.
  SignatureGate gate;
  gate.target = sigs_->ForGraph(gi);
  gate.rq = &cq.sigs;
  const auto accumulate_gate_counters = [job, scratch] {
    job->sig_pairs_rejected.fetch_add(scratch->sig_pairs_rejected,
                                      std::memory_order_relaxed);
    job->domain_candidates_pruned.fetch_add(scratch->domain_candidates_pruned,
                                            std::memory_order_relaxed);
    job->vf2_calls_avoided.fetch_add(scratch->vf2_calls_avoided,
                                     std::memory_order_relaxed);
  };
  if (options.verify_mode == QueryOptions::VerifyMode::kExact) {
    // The exact DNF engine has no internal cancellation points; honor the
    // token at candidate granularity.
    if (job->cancel != nullptr && job->cancel->IsCancelled()) {
      job->verdicts[k] = kVerifyCancelled;
      job->intervals[k].completed = false;  // nothing known: [0, 1]
      job->cancelled.store(true, std::memory_order_relaxed);
      return;
    }
    const Result<double> ssp = ExactSubgraphSimilarityProbability(
        db[gi], cq.relaxed, options.verifier, scratch, &cq.plans, &gate);
    accumulate_gate_counters();
    if (!ssp.ok()) {
      job->verdicts[k] = kVerifyFailed;
    } else {
      job->verdicts[k] =
          ssp.value() >= options.epsilon ? kVerifyAccept : kVerifyReject;
    }
    return;
  }
  SampleControl control;
  control.cancel = job->cancel;
  control.cancel_after_draws = job->cancel_after_draws;
  const Result<SampleOutcome> out = SampleSubgraphSimilarityProbabilityAnytime(
      db[gi], cq.relaxed, options.verifier, &job->verify_rngs[k], scratch,
      &cq.plans, control, &gate);
  accumulate_gate_counters();
  if (!out.ok()) {
    job->verdicts[k] = kVerifyFailed;
  } else if (!out->completed) {
    job->verdicts[k] = kVerifyCancelled;
    job->intervals[k] = *out;
    job->cancelled.store(true, std::memory_order_relaxed);
  } else {
    job->verdicts[k] =
        out->estimate >= options.epsilon ? kVerifyAccept : kVerifyReject;
  }
}

void QueryProcessor::FinishQuery(QueryJob* job) const {
  QueryStats& local = job->stats;
  if (job->status.ok()) {
    for (size_t k = 0; k < job->to_verify.size(); ++k) {
      switch (job->verdicts[k]) {
        case kVerifyFailed:
          ++local.verification_failures;
          break;
        case kVerifyAccept:
          job->answers.push_back(job->to_verify[k]);
          break;
        case kVerifyCancelled:
          ++local.cancelled_candidates;
          break;
        default:
          break;
      }
    }
    std::sort(job->answers.begin(), job->answers.end());
    local.answers = job->answers.size();
  }
  // The filter's share of the signature counters was folded in at stage 1;
  // stage 3's share was accumulated per-candidate into the job atomics.
  local.sig_pairs_rejected +=
      job->sig_pairs_rejected.load(std::memory_order_relaxed);
  local.domain_candidates_pruned +=
      job->domain_candidates_pruned.load(std::memory_order_relaxed);
  local.vf2_calls_avoided +=
      job->vf2_calls_avoided.load(std::memory_order_relaxed);
  local.verify_seconds = job->verify_timer.Seconds();
  local.total_seconds = job->total_timer.Seconds();
  // Fill the answer-cache slot this query's probe addressed (no-op on a
  // hit). The epoch was captured under the serving lock
  // the answers were computed at, so a concurrent mutation can never store
  // pre-mutation answers under a post-mutation epoch. A cancelled run never
  // stores: its answer set is partial (a degraded interval answer must not
  // be served later as an exact one).
  if (job->status.ok() && job->answer_cache != nullptr &&
      !job->cancelled.load(std::memory_order_relaxed) &&
      !job->answer_probe.hit) {
    job->answer_cache->Store(job->answer_probe, job->answer_epoch,
                             job->answers);
  }
}

// ---------------------------------------------------------------------------
// Inline entry point. The public overloads take the serving lock shared (so
// mutations wait for them and vice versa) and run the three steps on the
// caller's context, candidates in order.
// ---------------------------------------------------------------------------

Result<std::vector<uint32_t>> QueryProcessor::Query(
    const Graph& q, const QueryOptions& options, QueryStats* stats) const {
  QueryContext ctx;
  return Query(q, options, &ctx, stats);
}

Result<std::vector<uint32_t>> QueryProcessor::Query(
    const Graph& q, const QueryOptions& options, QueryContext* ctx,
    QueryStats* stats) const {
  std::shared_lock<std::shared_mutex> lock(live_mu_);
  QueryJob& job = ctx->job;
  RunFrontStages(q, options, /*cache=*/nullptr, ctx, &job);
  if (!job.status.ok()) return job.status;
  for (size_t k = 0; k < job.to_verify.size(); ++k) {
    VerifyCandidate(options, &job, k, &ctx->verifier_scratch);
  }
  FinishQuery(&job);
  if (stats != nullptr) *stats = job.stats;
  return job.answers;
}

// ---------------------------------------------------------------------------
// The task graph: one query -> a front task + one verify task per candidate.
// The front task runs stages 0-2 on whichever worker claims it, then spawns
// the verify tasks onto that worker's own deque (newest-first, so the
// spawning worker proceeds with warm caches while idle workers steal from
// the other end). The last verify task to finish — whoever executes it —
// merges the verdicts and hands the job to the caller's Complete().
// Everything runs under the caller's shared serving lock, so no task may
// take it again.
// ---------------------------------------------------------------------------

void QueryProcessor::SpawnQuery(QueryTaskGraph* g, uint32_t worker) {
  TaskScheduler::Task task;
  task.fn = &FrontTask;
  task.ctx = g;
  g->run->sched->Spawn(worker, task);
}

void QueryProcessor::FrontTask(void* arg, uint32_t worker, uint32_t /*a*/,
                               uint32_t /*b*/) {
  auto* g = static_cast<QueryTaskGraph*>(arg);
  QueryTaskRun* run = g->run;
  if (run->front_failpoint != nullptr) {
    const Status injected = FailpointCheck(run->front_failpoint);
    if (!injected.ok()) {
      g->job.Clear();
      g->job.status = injected;
      FinishTask(g);
      return;
    }
  }
  QueryContext* ctx = run->sched->WorkerState<QueryContext>(worker);
  ctx->answer_cache = run->answer_cache;
  ctx->answer_fingerprint = run->answer_fingerprint;
  ctx->answer_epoch = run->answer_epoch;
  ctx->cancel = g->cancel;
  ctx->cancel_after_draws = g->cancel_after_draws;
  const double queue_wait =
      run->admitted != nullptr ? run->admitted->Seconds() : 0.0;
  run->front_inflight.fetch_add(1, std::memory_order_relaxed);
  run->proc->RunFrontStages(*g->query, *run->options, run->cache, ctx,
                            &g->job);
  run->front_inflight.fetch_sub(1, std::memory_order_relaxed);
  // The job captured the cancellation wiring; clear the worker's context so
  // a later query on this worker cannot inherit another query's token.
  ctx->cancel = nullptr;
  ctx->cancel_after_draws = 0;
  g->job.stats.queue_wait_seconds = queue_wait;

  const size_t n = g->job.to_verify.size();
  if (!g->job.status.ok() || n == 0) {
    FinishTask(g);
    return;
  }
  g->remaining.store(static_cast<uint32_t>(n), std::memory_order_relaxed);
  // Reverse spawn order: the owner pops its deque LIFO, so candidate 0 runs
  // next on this worker while thieves steal from the tail.
  for (size_t k = n; k-- > 0;) {
    TaskScheduler::Task task;
    task.fn = &VerifyTask;
    task.ctx = g;
    task.a = static_cast<uint32_t>(k);
    run->sched->Spawn(worker, task);
  }
}

void QueryProcessor::VerifyTask(void* arg, uint32_t worker, uint32_t a,
                                uint32_t /*b*/) {
  auto* g = static_cast<QueryTaskGraph*>(arg);
  QueryTaskRun* run = g->run;
  if (run->front_inflight.load(std::memory_order_relaxed) > 0) {
    // Stage-level pipelining observed: some other query is still in its
    // front stages while this candidate verifies.
    run->overlapped_verify.fetch_add(1, std::memory_order_relaxed);
  }
  QueryContext* ctx = run->sched->WorkerState<QueryContext>(worker);
  run->proc->VerifyCandidate(*run->options, &g->job, a,
                             &ctx->verifier_scratch);
  // acq_rel: the last finisher must observe every other task's verdict and
  // interval writes before merging.
  if (g->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    FinishTask(g);
  }
}

void QueryProcessor::FinishTask(QueryTaskGraph* g) {
  g->run->proc->FinishQuery(&g->job);
  g->Complete();
}

namespace {

// QueryBatch's completion: publish the finished job into its result slot.
struct BatchQuery final : QueryTaskGraph {
  std::vector<BatchQueryResult>* results = nullptr;
  size_t qi = 0;

  void Complete() override {
    BatchQueryResult& slot = (*results)[qi];
    if (job.status.ok()) {
      slot.stats = job.stats;
      slot.answers = std::move(job.answers);
    } else {
      slot.status = job.status;
    }
  }
};

}  // namespace

std::vector<BatchQueryResult> QueryProcessor::QueryBatch(
    const std::vector<Graph>& queries, const QueryOptions& options,
    const BatchOptions& batch, BatchStats* batch_stats) const {
  WallTimer wall_timer;
  // One shared serving lock for the WHOLE batch: every worker sees the same
  // frozen index state (and the same epoch), and a mutation either waits for
  // the batch or the batch sees it completely.
  std::shared_lock<std::shared_mutex> serving_lock(live_mu_);
  std::unique_ptr<TaskScheduler> owned;
  TaskScheduler* sched = batch.stealer;
  if (sched == nullptr) {
    owned = std::make_unique<TaskScheduler>(batch.num_threads);
    sched = owned.get();
  }

  // Byte-identical queries of the batch share one CompiledQuery.
  CompiledQueryCache cache;

  QueryTaskRun run;
  run.proc = this;
  run.options = &options;
  run.sched = sched;
  run.cache = &cache;
  run.admitted = &wall_timer;
  // Cross-batch answer cache wiring: fingerprint once per batch, epoch read
  // under the serving lock above (it cannot move until the batch finishes).
  std::string answer_fingerprint;
  AnswerCacheStats answer_before;
  if (batch.answer_cache != nullptr) {
    answer_fingerprint = QueryOptionsFingerprint(options);
    run.answer_cache = batch.answer_cache;
    run.answer_fingerprint = &answer_fingerprint;
    run.answer_epoch = epoch();
    answer_before = batch.answer_cache->stats();
  }

  std::vector<BatchQueryResult> results(queries.size());
  std::vector<BatchQuery> graphs(queries.size());
  std::vector<TaskScheduler::Task> roots(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    graphs[qi].run = &run;
    graphs[qi].query = &queries[qi];
    graphs[qi].results = &results;
    graphs[qi].qi = qi;
    roots[qi].fn = &FrontTask;
    roots[qi].ctx = &graphs[qi];
  }
  const SchedulerRunStats sched_stats = sched->Run(roots);

  if (batch_stats != nullptr) {
    BatchStats agg;
    agg.num_queries = queries.size();
    agg.threads_used = sched->num_workers();
    agg.tasks_executed = sched_stats.tasks_executed;
    agg.tasks_stolen = sched_stats.tasks_stolen;
    agg.steal_attempts = sched_stats.steal_attempts;
    agg.max_queue_depth = sched_stats.max_queue_depth;
    agg.overlapped_verify_tasks =
        run.overlapped_verify.load(std::memory_order_relaxed);
    for (const BatchQueryResult& r : results) {
      if (!r.status.ok()) {
        ++agg.failed_queries;
        continue;
      }
      agg.totals += r.stats;
      agg.sum_queue_wait_seconds += r.stats.queue_wait_seconds;
      agg.sum_query_seconds += r.stats.total_seconds;
      agg.cache_seconds += r.stats.cache_seconds;
    }
    std::tie(agg.compiled_cache_hits, agg.compiled_cache_misses) =
        cache.HitsAndMisses();
    if (batch.answer_cache != nullptr) {
      const AnswerCacheStats after = batch.answer_cache->stats();
      agg.answer_cache.hits = after.hits - answer_before.hits;
      agg.answer_cache.misses = after.misses - answer_before.misses;
      agg.answer_cache.stale = after.stale - answer_before.stale;
      agg.answer_cache.evictions = after.evictions - answer_before.evictions;
    }
    agg.wall_seconds = wall_timer.Seconds();
    *batch_stats = agg;
  }
  return results;
}

Result<std::vector<uint32_t>> QueryProcessor::ExactScan(
    const Graph& q, const QueryOptions& options, QueryStats* stats) const {
  WallTimer total_timer;
  std::shared_lock<std::shared_mutex> lock(live_mu_);
  QueryStats local;
  const auto& db = *database_;
  local.database_size = db.size();

  if (options.delta >= q.NumEdges()) {
    std::vector<uint32_t> all;
    for (uint32_t i = 0; i < db.size(); ++i) {
      if (alive_[i]) all.push_back(i);
    }
    local.answers = all.size();
    local.total_seconds = total_timer.Seconds();
    if (stats != nullptr) *stats = local;
    return all;
  }

  WallTimer relax_timer;
  PGSIM_ASSIGN_OR_RETURN(
      const std::vector<Graph> relaxed,
      GenerateRelaxedQueries(q, options.delta, options.relax));
  local.num_relaxed_queries = relaxed.size();
  local.relax_seconds = relax_timer.Seconds();

  std::vector<uint32_t> answers;
  WallTimer verify_timer;
  for (uint32_t gi = 0; gi < db.size(); ++gi) {
    if (!alive_[gi]) continue;
    ++local.verification_candidates;
    const Result<double> ssp =
        ExactSubgraphSimilarityProbability(db[gi], relaxed, options.verifier);
    if (!ssp.ok()) {
      ++local.verification_failures;
      continue;
    }
    if (ssp.value() >= options.epsilon) answers.push_back(gi);
  }
  local.verify_seconds = verify_timer.Seconds();
  local.answers = answers.size();
  local.total_seconds = total_timer.Seconds();
  if (stats != nullptr) *stats = local;
  return answers;
}

}  // namespace pgsim
