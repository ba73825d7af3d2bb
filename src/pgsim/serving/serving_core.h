// Always-on serving core: the continuously-admitting frontend over
// QueryProcessor + TaskScheduler.
//
// Where QueryBatch hands the scheduler a CLOSED root array and waits for the
// whole graph to drain, ServingCore::Submit returns a QueryTicket
// immediately and feeds the live scheduler from a bounded priority admission
// queue — queries, AddGraph and RemoveGraph all flow through the same queue,
// so mutations interleave with the always-on frontend instead of waiting for
// whole batches.
//
// Execution model — waves under the serving lock:
//   A dispatcher thread owns the reader/writer serving lock discipline. When
//   the queue head is a query it takes QueryProcessor::live_mu_ SHARED,
//   freezes the epoch, and runs one TaskScheduler wave whose single root is
//   the *pump task*: the pump pops every poppable query (head not an
//   exclusive mutation), spawns its task graph mid-run (the same
//   QueryTaskGraph QueryBatch runs; see query/processor.h), re-spawns
//   itself while queries are in flight — so arrivals DURING the wave join
//   it, stage-pipelined with running queries — and exits once nothing is in
//   flight and no query is poppable.
//   The wave then drains, the shared lock drops, and the dispatcher pops an
//   exclusive mutation if one heads the queue, applies it (the processor
//   takes the lock exclusive internally), resolves its ticket, and loops.
//   A mutation therefore waits only for in-flight queries — exactly the
//   writer-preference the live database already implements — while queries
//   queued behind it wait their turn.
//
// Deadlines & graceful degradation:
//   SubmitOptions::deadline_ms arms a deadline thread that flips the
//   ticket's CancelState when the instant passes. The pipeline polls the
//   flag at its cancellation points (FrontStagesImpl stage boundaries, each
//   stage-2 candidate, every Karp-Luby draw), so the query unwinds within
//   one cancellation-point granularity and resolves as:
//     - allow_degraded=false: Status kDeadlineExceeded.
//     - allow_degraded=true: OK with degraded=true — the answers verified
//       so far plus a per-candidate [lo, hi] Hoeffding interval from the
//       samples each unresolved candidate had already drawn. For a fixed
//       seed and cancel point the degraded answer is byte-identical across
//       runs and scheduler widths (per-candidate RNGs are pre-forked).
//   Undeadlined queries run the identical code path with a null token and
//   stay bit-identical to QueryBatch.
//
// Overload shedding:
//   The admission queue is bounded (ServingOptions::max_queue). A push into
//   a full queue either rejects the newcomer or — when it strictly outranks
//   the lowest-priority queued item — evicts that class's youngest member;
//   the shed ticket resolves kUnavailable carrying a retry-after hint from
//   the observed drain rate. Every ticket resolves exactly once, always.
//
// Answer cache on the admission path:
//   When ServingOptions::answer_cache is set, Submit probes it under a brief
//   shared lock and resolves a hit instantly — the query never queues.
//   Misses are filled by the pipeline as usual; degraded or cancelled
//   results are never stored (see FinishQuery).
//
// Counters:
//   Every ticket resolves through ServingCore::Resolve, which counts its
//   outcome and adds its ServeResult::stats (one QueryCounters per query)
//   to ServingStats::totals under a leaf lock; stats() returns a copy.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "pgsim/common/cancel.h"
#include "pgsim/common/status.h"
#include "pgsim/query/processor.h"
#include "pgsim/serving/admission_queue.h"
#include "pgsim/serving/deadline.h"

namespace pgsim {

class TaskScheduler;

/// Per-submission knobs.
struct SubmitOptions {
  /// Relative deadline in milliseconds; < 0 = none. Enforced cooperatively:
  /// the query resolves within deadline + one cancellation-point granule.
  int64_t deadline_ms = -1;
  /// Admission priority: higher pops first; FIFO within a class. Under
  /// overload a newcomer that strictly outranks the lowest queued class
  /// evicts its youngest member instead of being rejected.
  int priority = 0;
  /// Deadline behavior: false resolves kDeadlineExceeded; true resolves OK
  /// with degraded=true and the anytime answer.
  bool allow_degraded = false;
  /// Deterministic cancellation test hook: stop each candidate's sampling
  /// loop after this many draws (0 = disabled). Unlike a wall-clock
  /// deadline, the resulting degraded answer is byte-identical across runs
  /// and scheduler widths.
  uint64_t cancel_after_draws = 0;
  /// Invoked exactly once, on a serving thread, when the ticket resolves
  /// (in addition to waking QueryTicket::Wait). Keep it cheap.
  std::function<void(const struct ServeResult&)> callback;
};

/// A candidate the deadline cut off mid-verification: the anytime state.
struct IntervalAnswer {
  uint32_t graph_id = 0;
  double estimate = 0.0;  ///< running Karp-Luby estimate (0 when no draws)
  double lo = 0.0;        ///< Hoeffding interval at the verifier's 1 - xi
  double hi = 1.0;
  uint64_t samples = 0;   ///< draws taken before the cancellation point
};

/// How one ticket resolved. Exactly one of these reaches every ticket.
struct ServeResult {
  /// OK: exact answers, or (degraded=true) the anytime answer. Error codes:
  /// kDeadlineExceeded, kUnavailable (shed; see retry_after_seconds), or a
  /// pipeline/mutation error passed through.
  Status status;
  /// True iff the deadline fired and SubmitOptions::allow_degraded kept the
  /// partial answer: `answers` holds every graph VERIFIED similar so far,
  /// `intervals` one [lo, hi] per candidate still unresolved.
  bool degraded = false;
  std::vector<uint32_t> answers;          ///< sorted graph ids
  std::vector<IntervalAnswer> intervals;  ///< degraded only
  QueryStats stats;                       ///< query tickets only
  /// kUnavailable only: when a retry would likely find a slot, from the
  /// observed queue drain rate.
  double retry_after_seconds = 0.0;
  /// Mutation tickets: id AddGraph assigned.
  uint32_t graph_id = 0;
  /// Index epoch the result was computed at (mutations: epoch after apply).
  uint64_t epoch = 0;
};

/// Shared query/mutation ticket state. Internal to the serving core, but
/// the chaos harness reads resolve_count to pin exactly-once resolution.
struct TicketState {
  enum class Kind : uint8_t { kQuery, kAddGraph, kRemoveGraph };

  uint64_t id = 0;
  Kind kind = Kind::kQuery;
  Graph query;                   ///< kQuery (copied at Submit)
  ProbabilisticGraph add_graph;  ///< kAddGraph
  uint64_t add_seed = 0;
  uint32_t remove_id = 0;        ///< kRemoveGraph

  int priority = 0;
  bool allow_degraded = false;
  uint64_t cancel_after_draws = 0;
  DeadlinePoint deadline = DeadlinePoint::max();
  CancelState cancel;
  std::function<void(const ServeResult&)> callback;

  /// Times Resolve ran — the chaos invariant is that this is exactly 1 for
  /// every submitted ticket (a second Resolve is dropped and counted).
  std::atomic<uint32_t> resolve_count{0};

  /// First-resolution wins; wakes waiters and fires the callback. Returns
  /// false (and changes nothing) when the ticket was already resolved.
  bool Resolve(ServeResult result);
  /// Blocks until resolved; the result reference lives as long as the
  /// ticket.
  const ServeResult& Wait();
  bool resolved() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool resolved_ = false;
  ServeResult result_;
};

/// Caller-facing handle. Cheap to copy (shared state).
class QueryTicket {
 public:
  QueryTicket() = default;
  explicit QueryTicket(std::shared_ptr<TicketState> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }
  uint64_t id() const { return state_->id; }
  /// Blocks until the ticket resolves.
  const ServeResult& Wait() { return state_->Wait(); }
  bool resolved() const { return state_->resolved(); }
  /// Cooperative cancel, same mechanism as a deadline: the query resolves
  /// degraded or kDeadlineExceeded at its next cancellation point.
  void Cancel() { state_->cancel.Cancel(); }

  std::shared_ptr<TicketState> state() const { return state_; }

 private:
  std::shared_ptr<TicketState> state_;
};

/// Monotonic counters, kept under ServingCore's stats lock and copied out
/// by ServingCore::stats().
struct ServingStats {
  uint64_t submitted = 0;          ///< all tickets handed out
  uint64_t admitted = 0;           ///< entered the queue
  uint64_t answer_cache_hits = 0;  ///< resolved at Submit, never queued
  uint64_t shed = 0;               ///< kUnavailable (rejected or evicted)
  uint64_t completed = 0;          ///< resolved OK, exact
  uint64_t degraded = 0;           ///< resolved OK, degraded
  uint64_t deadline_exceeded = 0;  ///< resolved kDeadlineExceeded
  uint64_t failed = 0;             ///< resolved with any other error
  uint64_t mutations_applied = 0;  ///< AddGraph/RemoveGraph applied
  uint64_t waves = 0;              ///< scheduler runs the dispatcher issued
  uint64_t double_resolves = 0;    ///< Resolve calls dropped (MUST stay 0)
  /// Summed ServeResult::stats of every resolved ticket (see QueryCounters);
  /// Submit-time answer-cache hits count their answers.
  QueryCounters totals;
};

/// Construction knobs.
struct ServingOptions {
  /// Scheduler width; 0 = hardware threads, 1 = waves run inline on the
  /// dispatcher thread.
  uint32_t num_threads = 0;
  /// Admission queue capacity; pushes beyond it shed (see file comment).
  size_t max_queue = 256;
  /// Fixed per-core query options (the options fingerprint is computed once;
  /// every submitted query runs under these).
  QueryOptions query;
  /// Optional cross-batch answer cache (not owned; must outlive the core).
  AnswerCache* answer_cache = nullptr;
  /// Mutation backends; default to QueryProcessor::AddGraph/RemoveGraph.
  /// A DurableDatabase caller points these at its WAL'd mutation path.
  std::function<Result<uint32_t>(const ProbabilisticGraph&, uint64_t)> add;
  std::function<Status(uint32_t)> remove;
};

class ServingCore {
 public:
  /// `proc` must outlive the core. Mutation submissions require `proc` to be
  /// mutable-constructed (or ServingOptions hooks to be set).
  ServingCore(QueryProcessor* proc, ServingOptions options);
  ~ServingCore();

  ServingCore(const ServingCore&) = delete;
  ServingCore& operator=(const ServingCore&) = delete;

  /// Admits a query; returns immediately. The graph is copied.
  QueryTicket Submit(const Graph& query, const SubmitOptions& opts = {});

  /// Admits a mutation as an exclusive task in the same queue: it runs after
  /// every query ahead of it (and every in-flight one) and before every
  /// query behind it. `graph` is moved into the ticket.
  QueryTicket SubmitAddGraph(ProbabilisticGraph graph, uint64_t seed,
                             const SubmitOptions& opts = {});
  QueryTicket SubmitRemoveGraph(uint32_t graph_id,
                                const SubmitOptions& opts = {});

  /// Stops admitting (new Submits shed with kUnavailable), drains every
  /// queued ticket, and joins the serving threads. Idempotent; the
  /// destructor calls it.
  void Shutdown();

  /// Point-in-time copy of the counters (monotonic).
  ServingStats stats() const;

  /// Current admission queue depth (advisory).
  size_t queue_depth() const { return queue_.size(); }

 private:
  struct TicketQuery;  // a query ticket's task graph (serving_core.cc)

  static void PumpTask(void* ctx, uint32_t worker, uint32_t a, uint32_t b);

  QueryTicket SubmitTicket(std::shared_ptr<TicketState> ticket);
  void DispatcherLoop();
  void DeadlineLoop();
  void RunWave();
  void ApplyMutation(const std::shared_ptr<TicketState>& ticket);
  void ResolveQuery(TicketQuery* query);
  void ResolveShed(const std::shared_ptr<TicketState>& ticket);
  /// The one resolution point of every ticket: counts `outcome` (null = by
  /// status), folds r.stats into stats_.totals, then resolves.
  void Resolve(TicketState* ticket, ServeResult r,
               uint64_t ServingStats::*outcome = nullptr);
  /// Adds one to a ServingStats counter.
  void Count(uint64_t ServingStats::*counter);
  void ArmDeadline(const std::shared_ptr<TicketState>& ticket);

  QueryProcessor* proc_;
  ServingOptions options_;
  std::string fingerprint_;  ///< QueryOptionsFingerprint(options_.query)
  std::unique_ptr<TaskScheduler> sched_;
  /// Task-graph wiring every wave's queries share; RunWave re-freezes its
  /// answer_epoch before each scheduler run.
  QueryTaskRun run_;

  BoundedPriorityQueue<std::shared_ptr<TicketState>> queue_;
  DrainRateEstimator drain_;
  WallTimer clock_;  ///< serving-core lifetime clock for the estimator

  std::mutex core_mu_;
  std::condition_variable work_cv_;
  bool shutdown_ = false;

  /// Queries popped into the current wave and not yet resolved.
  std::atomic<uint32_t> wave_inflight_{0};

  std::atomic<uint64_t> next_ticket_id_{1};

  // Deadline thread state.
  struct DeadlineEntry {
    DeadlinePoint when;
    std::weak_ptr<TicketState> ticket;
    bool operator>(const DeadlineEntry& o) const { return when > o.when; }
  };
  std::mutex deadline_mu_;
  std::condition_variable deadline_cv_;
  std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                      std::greater<DeadlineEntry>>
      deadlines_;
  bool deadline_shutdown_ = false;

  /// Counters. stats_mu_ is a leaf lock: it is never held across a call.
  mutable std::mutex stats_mu_;
  ServingStats stats_;

  std::thread dispatcher_;
  std::thread deadline_thread_;
};

}  // namespace pgsim
