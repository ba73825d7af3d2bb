#include "pgsim/serving/serving_core.h"

#include <algorithm>
#include <chrono>
#include <shared_mutex>
#include <utility>

#include "pgsim/common/failpoint.h"
#include "pgsim/common/task_scheduler.h"

namespace pgsim {

// ---------------------------------------------------------------------------
// TicketState
// ---------------------------------------------------------------------------

bool TicketState::Resolve(ServeResult result) {
  resolve_count.fetch_add(1, std::memory_order_relaxed);
  std::function<void(const ServeResult&)> cb;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (resolved_) return false;
    result_ = std::move(result);
    resolved_ = true;
    cb = std::move(callback);
  }
  cv_.notify_all();
  // Outside the lock: a callback that calls Wait()/resolved() must not
  // deadlock. result_ is immutable once resolved_.
  if (cb) cb(result_);
  return true;
}

const ServeResult& TicketState::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return resolved_; });
  return result_;
}

bool TicketState::resolved() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resolved_;
}

// ---------------------------------------------------------------------------
// A popped query ticket's task graph: heap-allocated by the pump, resolved
// and deleted by its own completion (a batch owns its graphs; a wave does
// not).
// ---------------------------------------------------------------------------

struct ServingCore::TicketQuery final : QueryTaskGraph {
  ServingCore* core = nullptr;
  std::shared_ptr<TicketState> ticket;

  void Complete() override {
    ServingCore* c = core;
    c->ResolveQuery(this);
    delete this;
    // Release AFTER the resolve: the pump's "stay resident" check may only
    // see 0 once this query is fully accounted for.
    c->wave_inflight_.fetch_sub(1, std::memory_order_acq_rel);
  }
};

// ---------------------------------------------------------------------------
// Construction / shutdown
// ---------------------------------------------------------------------------

ServingCore::ServingCore(QueryProcessor* proc, ServingOptions options)
    : proc_(proc),
      options_(std::move(options)),
      fingerprint_(QueryOptionsFingerprint(options_.query)),
      queue_(options_.max_queue) {
  if (!options_.add) {
    options_.add = [proc](const ProbabilisticGraph& g, uint64_t seed) {
      return proc->AddGraph(g, seed);
    };
  }
  if (!options_.remove) {
    options_.remove = [proc](uint32_t id) { return proc->RemoveGraph(id); };
  }
  sched_ = std::make_unique<TaskScheduler>(options_.num_threads);
  run_.proc = proc_;
  run_.options = &options_.query;
  run_.sched = sched_.get();
  run_.answer_cache = options_.answer_cache;  // no batch-scoped cache
  run_.answer_fingerprint = &fingerprint_;
  run_.front_failpoint = "serving.query.front";
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
  deadline_thread_ = std::thread([this] { DeadlineLoop(); });
}

ServingCore::~ServingCore() { Shutdown(); }

void ServingCore::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(core_mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  // joinable() goes false after the first join, so a repeat call (the
  // destructor after an explicit Shutdown) is a no-op.
  if (dispatcher_.joinable()) dispatcher_.join();
  {
    std::lock_guard<std::mutex> lock(deadline_mu_);
    deadline_shutdown_ = true;
  }
  deadline_cv_.notify_all();
  if (deadline_thread_.joinable()) deadline_thread_.join();
}

// ---------------------------------------------------------------------------
// Submission
// ---------------------------------------------------------------------------

QueryTicket ServingCore::Submit(const Graph& query, const SubmitOptions& opts) {
  auto ticket = std::make_shared<TicketState>();
  ticket->id = next_ticket_id_.fetch_add(1, std::memory_order_relaxed);
  ticket->kind = TicketState::Kind::kQuery;
  ticket->query = query;
  ticket->priority = opts.priority;
  ticket->allow_degraded = opts.allow_degraded;
  ticket->cancel_after_draws = opts.cancel_after_draws;
  ticket->deadline = DeadlineAfterMs(opts.deadline_ms);
  ticket->callback = opts.callback;
  n_submitted_.fetch_add(1, std::memory_order_relaxed);

  // Answer-cache probe on the admission path: a hit is exact and effectively
  // free, so it resolves here — the query never queues, never sheds, and
  // beats its deadline by construction. The epoch must be read under the
  // shared lock (a concurrent mutation bumps it only while holding the lock
  // exclusive), which also orders the cached answers with the index state.
  if (options_.answer_cache != nullptr) {
    AnswerCache::Probe probe;
    uint64_t epoch = 0;
    {
      std::shared_lock<std::shared_mutex> lock(proc_->live_mu_);
      epoch = proc_->epoch();
      probe = options_.answer_cache->Find(query, fingerprint_, epoch);
    }
    if (probe.hit) {
      n_cache_hits_.fetch_add(1, std::memory_order_relaxed);
      ServeResult r;
      r.answers = *probe.answers;
      r.stats.answer_cache_hit = true;
      r.stats.answers = r.answers.size();
      r.epoch = epoch;
      n_completed_.fetch_add(1, std::memory_order_relaxed);
      ticket->Resolve(std::move(r));
      return QueryTicket(ticket);
    }
  }
  return SubmitTicket(std::move(ticket));
}

QueryTicket ServingCore::SubmitAddGraph(ProbabilisticGraph graph,
                                        uint64_t seed,
                                        const SubmitOptions& opts) {
  auto ticket = std::make_shared<TicketState>();
  ticket->id = next_ticket_id_.fetch_add(1, std::memory_order_relaxed);
  ticket->kind = TicketState::Kind::kAddGraph;
  ticket->add_graph = std::move(graph);
  ticket->add_seed = seed;
  ticket->priority = opts.priority;
  ticket->deadline = DeadlineAfterMs(opts.deadline_ms);
  ticket->callback = opts.callback;
  n_submitted_.fetch_add(1, std::memory_order_relaxed);
  return SubmitTicket(std::move(ticket));
}

QueryTicket ServingCore::SubmitRemoveGraph(uint32_t graph_id,
                                           const SubmitOptions& opts) {
  auto ticket = std::make_shared<TicketState>();
  ticket->id = next_ticket_id_.fetch_add(1, std::memory_order_relaxed);
  ticket->kind = TicketState::Kind::kRemoveGraph;
  ticket->remove_id = graph_id;
  ticket->priority = opts.priority;
  ticket->deadline = DeadlineAfterMs(opts.deadline_ms);
  ticket->callback = opts.callback;
  n_submitted_.fetch_add(1, std::memory_order_relaxed);
  return SubmitTicket(std::move(ticket));
}

QueryTicket ServingCore::SubmitTicket(std::shared_ptr<TicketState> ticket) {
  QueryTicket handle(ticket);
  if (DeadlineExpired(ticket->deadline)) {
    // Dead on arrival: resolve without consuming a queue slot.
    ServeResult r;
    r.status = Status::DeadlineExceeded("deadline expired before admission");
    n_deadline_.fetch_add(1, std::memory_order_relaxed);
    ticket->Resolve(std::move(r));
    return handle;
  }

  using Queue = BoundedPriorityQueue<std::shared_ptr<TicketState>>;
  std::shared_ptr<TicketState> evicted;
  auto outcome = Queue::PushOutcome::kRejected;
  bool shed_for_shutdown = false;
  {
    // Push under core_mu_: the dispatcher exits only on (shutdown_ && queue
    // empty) under the same mutex, so a ticket can never land in a queue
    // nobody will drain. Resolution happens OUTSIDE the lock — a ticket
    // callback is allowed to Submit again.
    std::lock_guard<std::mutex> lock(core_mu_);
    if (shutdown_) {
      shed_for_shutdown = true;
    } else {
      outcome = queue_.TryPush(ticket, ticket->priority, &evicted);
    }
  }
  if (shed_for_shutdown || outcome == Queue::PushOutcome::kRejected) {
    ResolveShed(ticket);
    return handle;
  }
  if (outcome == Queue::PushOutcome::kAdmittedEvicted) {
    ResolveShed(evicted);
  }
  n_admitted_.fetch_add(1, std::memory_order_relaxed);
  if (ticket->deadline != NoDeadline()) ArmDeadline(ticket);
  work_cv_.notify_one();
  return handle;
}

void ServingCore::ResolveShed(const std::shared_ptr<TicketState>& ticket) {
  ServeResult r;
  r.retry_after_seconds = drain_.RetryAfterSeconds(queue_.size());
  r.status = Status::Unavailable(
      "admission queue full; retry after ~" +
      std::to_string(r.retry_after_seconds) + "s");
  n_shed_.fetch_add(1, std::memory_order_relaxed);
  if (!ticket->Resolve(std::move(r))) {
    n_double_resolves_.fetch_add(1, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Deadline thread: min-heap of (instant, ticket); flips CancelState when an
// instant passes. Tickets resolved earlier are held only weakly and lapse.
// ---------------------------------------------------------------------------

void ServingCore::ArmDeadline(const std::shared_ptr<TicketState>& ticket) {
  {
    std::lock_guard<std::mutex> lock(deadline_mu_);
    deadlines_.push(DeadlineEntry{ticket->deadline, ticket});
  }
  deadline_cv_.notify_one();
}

void ServingCore::DeadlineLoop() {
  std::unique_lock<std::mutex> lock(deadline_mu_);
  for (;;) {
    if (deadline_shutdown_) return;
    if (deadlines_.empty()) {
      deadline_cv_.wait(lock, [&] {
        return deadline_shutdown_ || !deadlines_.empty();
      });
      continue;
    }
    const DeadlinePoint next = deadlines_.top().when;
    if (std::chrono::steady_clock::now() < next) {
      deadline_cv_.wait_until(lock, next);
      continue;  // re-evaluate: new earlier deadline or shutdown
    }
    auto ticket = deadlines_.top().ticket.lock();
    deadlines_.pop();
    if (ticket != nullptr && !ticket->resolved()) {
      ticket->cancel.Cancel();
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatcher: alternates query waves (shared serving lock) with exclusive
// mutations, in admission-queue order.
// ---------------------------------------------------------------------------

void ServingCore::DispatcherLoop() {
  for (;;) {
    bool head_exclusive = false;
    bool have_head = false;
    {
      std::unique_lock<std::mutex> lock(core_mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
    }
    have_head = queue_.PeekHead([&](const std::shared_ptr<TicketState>& t) {
      head_exclusive = t->kind != TicketState::Kind::kQuery;
    });
    if (!have_head) continue;
    if (head_exclusive) {
      std::shared_ptr<TicketState> ticket;
      if (queue_.TryPopIf(
              [](const std::shared_ptr<TicketState>& t) {
                return t->kind != TicketState::Kind::kQuery;
              },
              &ticket)) {
        ApplyMutation(ticket);
      }
    } else {
      RunWave();
    }
  }
}

void ServingCore::RunWave() {
  // One wave = one scheduler Run under one shared serving lock = one frozen
  // epoch. The pump root admits queries mid-run; the wave ends when no query
  // is poppable and none is in flight.
  std::shared_lock<std::shared_mutex> lock(proc_->live_mu_);
  // Read by wave tasks — ordered by the scheduler's run boundary.
  run_.answer_epoch = proc_->epoch();
  n_waves_.fetch_add(1, std::memory_order_relaxed);
  TaskScheduler::Task root;
  root.fn = &ServingCore::PumpTask;
  root.ctx = this;
  sched_->Run(&root, 1);
}

void ServingCore::ApplyMutation(const std::shared_ptr<TicketState>& ticket) {
  ServeResult r;
  if (ticket->cancel.IsCancelled() || DeadlineExpired(ticket->deadline)) {
    r.status = Status::DeadlineExceeded("mutation expired while queued");
    n_deadline_.fetch_add(1, std::memory_order_relaxed);
    if (!ticket->Resolve(std::move(r))) {
      n_double_resolves_.fetch_add(1, std::memory_order_relaxed);
    }
    drain_.RecordCompletion(clock_.Seconds());
    return;
  }
  const Status injected = FailpointCheck("serving.mutation.apply");
  if (!injected.ok()) {
    r.status = injected;
  } else if (ticket->kind == TicketState::Kind::kAddGraph) {
    Result<uint32_t> added = options_.add(ticket->add_graph, ticket->add_seed);
    if (added.ok()) {
      r.graph_id = added.value();
    } else {
      r.status = added.status();
    }
  } else {
    r.status = options_.remove(ticket->remove_id);
  }
  r.epoch = proc_->epoch();
  RecordResolution(r.status, /*degraded=*/false);
  if (r.status.ok()) n_mutations_.fetch_add(1, std::memory_order_relaxed);
  if (!ticket->Resolve(std::move(r))) {
    n_double_resolves_.fetch_add(1, std::memory_order_relaxed);
  }
  drain_.RecordCompletion(clock_.Seconds());
}

void ServingCore::RecordResolution(const Status& status, bool degraded) {
  if (!status.ok()) {
    if (status.code() == StatusCode::kDeadlineExceeded) {
      n_deadline_.fetch_add(1, std::memory_order_relaxed);
    } else {
      n_failed_.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (degraded) {
    n_degraded_.fetch_add(1, std::memory_order_relaxed);
  } else {
    n_completed_.fetch_add(1, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Wave tasks
// ---------------------------------------------------------------------------

void ServingCore::PumpTask(void* ctx, uint32_t worker, uint32_t /*a*/,
                           uint32_t /*b*/) {
  auto* core = static_cast<ServingCore*>(ctx);
  // Pop every currently-poppable query. Incrementing wave_inflight_ BEFORE
  // spawning keeps the "stay resident" decision below conservative.
  std::vector<TicketQuery*> popped;
  std::shared_ptr<TicketState> ticket;
  while (core->queue_.TryPopIf(
      [](const std::shared_ptr<TicketState>& t) {
        return t->kind == TicketState::Kind::kQuery;
      },
      &ticket)) {
    auto* query = new TicketQuery();
    query->core = core;
    query->run = &core->run_;
    query->query = &ticket->query;
    query->cancel = &ticket->cancel;
    query->cancel_after_draws = ticket->cancel_after_draws;
    query->ticket = std::move(ticket);
    core->wave_inflight_.fetch_add(1, std::memory_order_acq_rel);
    popped.push_back(query);
  }
  const bool stay =
      !popped.empty() ||
      core->wave_inflight_.load(std::memory_order_acquire) > 0;
  if (stay) {
    // Re-spawn the pump FIRST: the owner pops its deque LIFO, so the query
    // tasks below run (or are stolen) before the pump comes around again —
    // the pump polls for mid-wave arrivals without starving real work.
    TaskScheduler::Task pump;
    pump.fn = &ServingCore::PumpTask;
    pump.ctx = core;
    core->sched_->Spawn(worker, pump);
    if (popped.empty()) {
      // Nothing new this round: yield briefly so the resident pump does not
      // spin a worker at 100% while in-flight queries finish elsewhere.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  for (size_t i = popped.size(); i-- > 0;) {
    QueryProcessor::SpawnQuery(popped[i], worker);
  }
  // !stay: queue head is empty or exclusive and nothing is in flight — the
  // wave drains and the dispatcher re-evaluates (mutation, wait, shutdown).
}

void ServingCore::ResolveQuery(TicketQuery* query) {
  QueryJob& job = query->job;
  TicketState* t = query->ticket.get();

  ServeResult r;
  r.epoch = run_.answer_epoch;
  if (!job.status.ok()) {
    r.status = job.status;
  } else if (job.cancelled.load(std::memory_order_relaxed)) {
    if (t->allow_degraded) {
      // The anytime answer: graphs verified similar so far, plus one
      // interval per candidate the cancellation cut off. Candidates the
      // front stages never even enumerated are simply absent — that is the
      // "one cancellation-point granularity" the contract allows.
      r.degraded = true;
      r.answers = std::move(job.answers);
      for (size_t k = 0; k < job.to_verify.size(); ++k) {
        if (job.intervals[k].completed) continue;
        IntervalAnswer ia;
        ia.graph_id = job.to_verify[k];
        ia.estimate = job.intervals[k].estimate;
        ia.lo = job.intervals[k].lo;
        ia.hi = job.intervals[k].hi;
        ia.samples = job.intervals[k].drawn;
        r.intervals.push_back(ia);
      }
      r.stats = job.stats;
    } else {
      r.status = Status::DeadlineExceeded("query cancelled at deadline");
      r.stats = job.stats;
    }
  } else {
    r.answers = std::move(job.answers);
    r.stats = job.stats;
  }
  // Every branch above filled r.stats from job.stats; fold the per-query
  // counters into the core totals before resolving.
  n_sig_pairs_rejected_.fetch_add(r.stats.sig_pairs_rejected,
                                  std::memory_order_relaxed);
  n_domain_candidates_pruned_.fetch_add(r.stats.domain_candidates_pruned,
                                        std::memory_order_relaxed);
  n_vf2_calls_avoided_.fetch_add(r.stats.vf2_calls_avoided,
                                 std::memory_order_relaxed);
  n_verification_failures_.fetch_add(r.stats.verification_failures,
                                     std::memory_order_relaxed);
  n_cancelled_candidates_.fetch_add(r.stats.cancelled_candidates,
                                    std::memory_order_relaxed);
  RecordResolution(r.status, r.degraded);
  if (!t->Resolve(std::move(r))) {
    n_double_resolves_.fetch_add(1, std::memory_order_relaxed);
  }
  drain_.RecordCompletion(clock_.Seconds());
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

ServingStats ServingCore::stats() const {
  ServingStats s;
  s.submitted = n_submitted_.load(std::memory_order_relaxed);
  s.admitted = n_admitted_.load(std::memory_order_relaxed);
  s.answer_cache_hits = n_cache_hits_.load(std::memory_order_relaxed);
  s.shed = n_shed_.load(std::memory_order_relaxed);
  s.completed = n_completed_.load(std::memory_order_relaxed);
  s.degraded = n_degraded_.load(std::memory_order_relaxed);
  s.deadline_exceeded = n_deadline_.load(std::memory_order_relaxed);
  s.failed = n_failed_.load(std::memory_order_relaxed);
  s.mutations_applied = n_mutations_.load(std::memory_order_relaxed);
  s.waves = n_waves_.load(std::memory_order_relaxed);
  s.double_resolves = n_double_resolves_.load(std::memory_order_relaxed);
  s.sig_pairs_rejected =
      n_sig_pairs_rejected_.load(std::memory_order_relaxed);
  s.domain_candidates_pruned =
      n_domain_candidates_pruned_.load(std::memory_order_relaxed);
  s.vf2_calls_avoided = n_vf2_calls_avoided_.load(std::memory_order_relaxed);
  s.verification_failures =
      n_verification_failures_.load(std::memory_order_relaxed);
  s.cancelled_candidates =
      n_cancelled_candidates_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace pgsim
