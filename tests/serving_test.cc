// Tests for the always-on serving core: golden re-sweep against QueryBatch
// (undeadlined queries stay bit-identical), deadline behavior (hard
// kDeadlineExceeded vs anytime degraded answers), deterministic cooperative
// cancellation (same seed + same cancel point => byte-identical partial
// intervals across runs AND scheduler widths), overload shedding with
// priority-aware eviction and retry-after hints, mutation interleaving with
// epoch correctness, the admission-path answer cache, the
// degraded-results-are-never-cached guarantee, and the ServingStats::totals
// roll-up of every resolved ticket's counters.
//
// Queries are small connected subgraphs of database graphs (SubgraphQueries):
// whole database graphs rarely have answers at delta = 1, and stage 3
// settles their candidates from the exact marginal bounds before the first
// draw, so they never reach a cancellation point of the sampling loop. Every
// answer-equality check below first asserts the compared answers are
// non-empty.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <vector>

#include "pgsim/datasets/synthetic.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/answer_cache.h"
#include "pgsim/query/processor.h"
#include "pgsim/query/structural_filter.h"
#include "pgsim/serving/serving_core.h"
#include "test_util.h"

namespace pgsim {
namespace {

using ::pgsim::testing::AddCounterFields;
using ::pgsim::testing::CounterFields;

struct ServeSetup {
  std::vector<ProbabilisticGraph> db;
  ProbabilisticMatrixIndex pmi;
  std::vector<Graph> certain;
  StructuralFilter filter;
};

ServeSetup BuildServeSetup(uint64_t seed, size_t n) {
  ServeSetup s;
  SyntheticOptions gen;
  gen.num_graphs = n;
  gen.avg_vertices = 9;
  gen.num_vertex_labels = 4;
  gen.seed = seed;
  s.db = GenerateDatabase(gen).value();
  PmiBuildOptions build;
  build.miner.beta = 0.2;
  build.miner.gamma = -1.0;
  build.miner.max_vertices = 3;
  build.sip.mc.min_samples = 2000;
  build.sip.mc.max_samples = 2000;
  s.pmi = ProbabilisticMatrixIndex::Build(s.db, build).value();
  for (const auto& g : s.db) s.certain.push_back(g.certain());
  s.filter = StructuralFilter::Build(s.certain, s.pmi.features(),
                                     StructuralFilterOptions());
  return s;
}

QueryOptions ServeQueryOptions() {
  QueryOptions options;
  options.delta = 1;
  options.epsilon = 0.3;
  options.seed = 11;
  return options;
}

// `count` connected `edges`-edge queries, the i-th extracted from database
// graph i (cyclically) by ExtractQuery under one RNG seeded with `seed`.
std::vector<Graph> SubgraphQueries(const ServeSetup& s, uint64_t seed,
                                   uint32_t edges, size_t count) {
  Rng rng(seed);
  std::vector<Graph> queries;
  for (size_t src = 0; queries.size() < count; ++src) {
    auto q = ExtractQuery(s.certain[src % s.certain.size()], edges, &rng);
    if (q.ok()) queries.push_back(std::move(q).value());
  }
  return queries;
}

ProbabilisticGraph ExtraGraph(uint64_t seed) {
  SyntheticOptions gen;
  gen.num_graphs = 1;
  gen.avg_vertices = 9;
  gen.num_vertex_labels = 4;
  gen.seed = seed;
  return GenerateDatabase(gen).value()[0];
}

// --- Golden re-sweep: the serving path is answer-preserving -----------------

TEST(ServingCoreTest, UndeadlinedQueriesMatchQueryBatchAtEveryWidth) {
  ServeSetup s = BuildServeSetup(9001, 8);
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);
  const QueryOptions options = ServeQueryOptions();
  const std::vector<Graph> queries = SubgraphQueries(s, 9001, 4, 3);

  BatchOptions batch;
  batch.num_threads = 1;
  const auto golden = processor.QueryBatch(queries, options, batch);
  ASSERT_EQ(golden.size(), queries.size());
  for (const auto& r : golden) {
    ASSERT_TRUE(r.status.ok());
    ASSERT_FALSE(r.answers.empty());
  }

  for (uint32_t width : {1u, 2u, 4u}) {
    ServingOptions so;
    so.num_threads = width;
    so.query = options;
    ServingCore core(&processor, so);
    std::vector<QueryTicket> tickets;
    for (const auto& q : queries) tickets.push_back(core.Submit(q));
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const ServeResult& r = tickets[qi].Wait();
      ASSERT_TRUE(r.status.ok()) << "width " << width << " query " << qi;
      EXPECT_FALSE(r.degraded);
      EXPECT_EQ(r.answers, golden[qi].answers)
          << "width " << width << " query " << qi;
      EXPECT_EQ(r.epoch, processor.epoch());
    }
    core.Shutdown();
    const ServingStats st = core.stats();
    EXPECT_EQ(st.submitted, queries.size());
    EXPECT_EQ(st.completed, queries.size());
    EXPECT_EQ(st.double_resolves, 0u);
  }
}

// --- Deadlines ---------------------------------------------------------------

TEST(ServingCoreTest, ExpiredDeadlineResolvesDeadlineExceeded) {
  ServeSetup s = BuildServeSetup(9007, 6);
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);
  ServingOptions so;
  so.num_threads = 1;
  so.query = ServeQueryOptions();
  ServingCore core(&processor, so);

  // deadline_ms = 0 is expired on (or immediately after) arrival; without
  // allow_degraded the only legal outcome is kDeadlineExceeded, whether the
  // DOA check or the first cancellation point catches it.
  SubmitOptions opts;
  opts.deadline_ms = 0;
  QueryTicket t = core.Submit(s.db[0].certain(), opts);
  const ServeResult& r = t.Wait();
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(r.degraded);
  EXPECT_TRUE(r.answers.empty());
  core.Shutdown();
  EXPECT_EQ(core.stats().deadline_exceeded, 1u);
  EXPECT_EQ(core.stats().double_resolves, 0u);
}

TEST(ServingCoreTest, CancelledTicketWithAllowDegradedResolvesOk) {
  ServeSetup s = BuildServeSetup(9011, 6);
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);
  ServingOptions so;
  so.num_threads = 1;
  so.query = ServeQueryOptions();
  ServingCore core(&processor, so);

  // A deterministic cancel point (first draw of every candidate) with
  // allow_degraded: the ticket must resolve OK with the anytime answer.
  SubmitOptions opts;
  opts.allow_degraded = true;
  opts.cancel_after_draws = 1;
  QueryTicket t = core.Submit(SubgraphQueries(s, 9011, 4, 1)[0], opts);
  const ServeResult& r = t.Wait();
  ASSERT_TRUE(r.status.ok());
  // This query has candidates the exact bounds leave open, so at least one
  // was cut off mid-sampling.
  EXPECT_TRUE(r.degraded);
  EXPECT_FALSE(r.intervals.empty());
  for (const auto& ia : r.intervals) {
    EXPECT_LE(0.0, ia.lo);
    EXPECT_LE(ia.lo, ia.hi);
    EXPECT_LE(ia.hi, 1.0);
    EXPECT_LE(ia.lo, ia.estimate);
    EXPECT_LE(ia.estimate, ia.hi);
    EXPECT_EQ(ia.samples, 1u);
  }
  core.Shutdown();
  EXPECT_EQ(core.stats().degraded, 1u);
}

TEST(ServingCoreTest, BoundDecidedCandidatesResolveExactUnderACancelPoint) {
  ServeSetup s = BuildServeSetup(9011, 6);
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);
  ServingOptions so;
  so.num_threads = 1;
  so.query = ServeQueryOptions();
  ServingCore core(&processor, so);

  // Two-edge queries: the exact bounds max Pr(Bfi) <= SSP <= min(V, 1)
  // settle every candidate before the first draw, so a cancel point at draw
  // 1 never fires and the ticket resolves exact, not degraded.
  SubmitOptions cut;
  cut.allow_degraded = true;
  cut.cancel_after_draws = 1;
  for (const Graph& q : SubgraphQueries(s, 9049, 2, 3)) {
    QueryTicket uncut = core.Submit(q);
    const ServeResult& golden = uncut.Wait();
    ASSERT_TRUE(golden.status.ok());
    ASSERT_FALSE(golden.answers.empty());
    QueryTicket t = core.Submit(q, cut);
    const ServeResult& r = t.Wait();
    ASSERT_TRUE(r.status.ok());
    EXPECT_FALSE(r.degraded);
    EXPECT_TRUE(r.intervals.empty());
    EXPECT_EQ(r.answers, golden.answers);
    EXPECT_GT(r.stats.verification_candidates, 0u);
    EXPECT_EQ(r.stats.bound_decided, r.stats.verification_candidates);
    EXPECT_EQ(r.stats.sample_draws, 0u);
    EXPECT_EQ(r.stats.cancelled_candidates, 0u);
  }
  core.Shutdown();
  EXPECT_EQ(core.stats().degraded, 0u);
}

TEST(ServingCoreTest, WallClockDeadlineResolvesWithinBound) {
  ServeSetup s = BuildServeSetup(9013, 6);
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);
  ServingOptions so;
  so.num_threads = 2;
  so.query = ServeQueryOptions();
  ServingCore core(&processor, so);

  SubmitOptions opts;
  opts.deadline_ms = 1;
  opts.allow_degraded = true;
  QueryTicket t = core.Submit(s.db[2].certain(), opts);
  const ServeResult& r = t.Wait();
  // Three legal outcomes: finished before the deadline (exact), cancelled
  // mid-flight (degraded), or dead on arrival (kDeadlineExceeded — the DOA
  // path has no partial work to degrade to). Never anything else.
  if (r.status.ok()) {
    SUCCEED();
  } else {
    EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  }
  core.Shutdown();
  EXPECT_EQ(core.stats().double_resolves, 0u);
}

// --- Deterministic cancellation (satellite: reproducible anytime answers) ---

TEST(ServingCoreTest, CancelPointAnswersAreByteIdenticalAcrossRunsAndWidths) {
  ServeSetup s = BuildServeSetup(9017, 8);
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);
  const QueryOptions options = ServeQueryOptions();
  // A three-edge query whose degraded answer holds both bound-accepted
  // candidates and intervals for the candidates the cancel point cut off.
  const Graph query = SubgraphQueries(s, 9017, 3, 1)[0];

  SubmitOptions opts;
  opts.allow_degraded = true;
  opts.cancel_after_draws = 7;

  auto run_once = [&](uint32_t width) {
    ServingOptions so;
    so.num_threads = width;
    so.query = options;
    ServingCore core(&processor, so);
    QueryTicket t = core.Submit(query, opts);
    ServeResult r = t.Wait();  // copy before the core dies
    core.Shutdown();
    EXPECT_TRUE(r.status.ok());
    return r;
  };

  const ServeResult base = run_once(1);
  ASSERT_TRUE(base.degraded);
  ASSERT_FALSE(base.answers.empty());
  ASSERT_FALSE(base.intervals.empty());
  for (uint32_t width : {1u, 4u}) {
    for (int rep = 0; rep < 2; ++rep) {
      const ServeResult r = run_once(width);
      EXPECT_EQ(r.degraded, base.degraded)
          << "width " << width << " rep " << rep;
      EXPECT_EQ(r.answers, base.answers);
      ASSERT_EQ(r.intervals.size(), base.intervals.size());
      for (size_t i = 0; i < r.intervals.size(); ++i) {
        EXPECT_EQ(r.intervals[i].graph_id, base.intervals[i].graph_id);
        // Byte-identical, not approximately equal: the per-candidate RNGs
        // are pre-forked, so the draw sequence cannot depend on scheduling.
        EXPECT_EQ(r.intervals[i].estimate, base.intervals[i].estimate);
        EXPECT_EQ(r.intervals[i].lo, base.intervals[i].lo);
        EXPECT_EQ(r.intervals[i].hi, base.intervals[i].hi);
        EXPECT_EQ(r.intervals[i].samples, base.intervals[i].samples);
      }
    }
  }
}

// --- Overload shedding --------------------------------------------------------

TEST(ServingCoreTest, ZeroCapacityQueueShedsEverythingWithRetryAfter) {
  ServeSetup s = BuildServeSetup(9019, 4);
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);
  ServingOptions so;
  so.num_threads = 1;
  so.max_queue = 0;
  so.query = ServeQueryOptions();
  ServingCore core(&processor, so);

  QueryTicket t = core.Submit(s.db[0].certain());
  const ServeResult& r = t.Wait();
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  EXPECT_GT(r.retry_after_seconds, 0.0);
  core.Shutdown();
  EXPECT_EQ(core.stats().shed, 1u);
  EXPECT_EQ(core.stats().admitted, 0u);
}

TEST(ServingCoreTest, FullQueueShedsLowPriorityAndAdmitsHighPriority) {
  ServeSetup s = BuildServeSetup(9023, 4);
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);

  // Block the dispatcher inside a mutation so the queue can only fill.
  std::promise<void> entered_promise;
  std::shared_future<void> entered = entered_promise.get_future().share();
  std::promise<void> release_promise;
  std::shared_future<void> release = release_promise.get_future().share();
  ServingOptions so;
  so.num_threads = 1;
  so.max_queue = 2;
  so.query = ServeQueryOptions();
  so.add = [&](const ProbabilisticGraph& g, uint64_t seed) {
    entered_promise.set_value();
    release.wait();
    return Result<uint32_t>(Status::Internal("gate: mutation dropped"));
  };
  ServingCore core(&processor, so);

  QueryTicket gate = core.SubmitAddGraph(ExtraGraph(9024), 1);
  entered.wait();  // dispatcher is now parked inside the mutation hook

  // Fill both slots at priority 0, then overflow.
  QueryTicket q0 = core.Submit(s.db[0].certain());
  QueryTicket q1 = core.Submit(s.db[1].certain());
  EXPECT_EQ(core.queue_depth(), 2u);

  // Same priority: the newcomer itself is rejected (equal rank does not
  // evict — queued tickets keep their sunk wait time).
  QueryTicket q2 = core.Submit(s.db[2].certain());
  EXPECT_EQ(q2.Wait().status.code(), StatusCode::kUnavailable);

  // Higher priority: admitted by evicting the youngest low-priority member.
  SubmitOptions hi;
  hi.priority = 5;
  QueryTicket q3 = core.Submit(s.db[3].certain(), hi);
  EXPECT_EQ(core.queue_depth(), 2u);

  release_promise.set_value();
  // Everything resolves: shed tickets with kUnavailable + retry hint, the
  // admitted ones with their real outcome once the dispatcher resumes.
  size_t shed = 0;
  for (QueryTicket* t : {&q0, &q1, &q2, &q3}) {
    const ServeResult& r = t->Wait();
    if (r.status.code() == StatusCode::kUnavailable) {
      ++shed;
      EXPECT_GT(r.retry_after_seconds, 0.0);
    }
  }
  EXPECT_EQ(shed, 2u);
  // The high-priority submit survived the overload.
  EXPECT_NE(q3.Wait().status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(gate.Wait().status.code(), StatusCode::kInternal);

  core.Shutdown();
  const ServingStats st = core.stats();
  EXPECT_EQ(st.shed, 2u);
  EXPECT_EQ(st.double_resolves, 0u);
}

TEST(ServingCoreTest, ShutdownShedsLateSubmits) {
  ServeSetup s = BuildServeSetup(9029, 4);
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);
  ServingOptions so;
  so.num_threads = 1;
  so.query = ServeQueryOptions();
  ServingCore core(&processor, so);
  core.Shutdown();
  QueryTicket t = core.Submit(s.db[0].certain());
  EXPECT_EQ(t.Wait().status.code(), StatusCode::kUnavailable);
}

// --- Mutation interleaving -----------------------------------------------------

TEST(ServingCoreTest, MutationsInterleaveAndStampEpochs) {
  ServeSetup s = BuildServeSetup(9031, 8);
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);
  ServingOptions so;
  so.num_threads = 2;
  so.query = ServeQueryOptions();
  ServingCore core(&processor, so);

  // The second query: the first has no answers.
  const Graph query = SubgraphQueries(s, 9031, 4, 2)[1];
  const uint64_t epoch0 = processor.epoch();
  QueryTicket q1 = core.Submit(query);
  const ServeResult& r1 = q1.Wait();
  ASSERT_TRUE(r1.status.ok());
  ASSERT_FALSE(r1.answers.empty());
  EXPECT_EQ(r1.epoch, epoch0);

  QueryTicket add = core.SubmitAddGraph(ExtraGraph(9032), 77);
  const ServeResult& ra = add.Wait();
  ASSERT_TRUE(ra.status.ok()) << ra.status.message();
  EXPECT_GT(ra.epoch, epoch0);
  const uint32_t added_id = ra.graph_id;

  QueryTicket q2 = core.Submit(query);
  const ServeResult& r2 = q2.Wait();
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r2.epoch, ra.epoch);
  // Same query, new index state: answers recomputed against the grown
  // database still contain everything the pre-mutation answer did.
  for (uint32_t id : r1.answers) {
    EXPECT_TRUE(std::find(r2.answers.begin(), r2.answers.end(), id) !=
                r2.answers.end());
  }

  QueryTicket rm = core.SubmitRemoveGraph(added_id);
  const ServeResult& rr = rm.Wait();
  ASSERT_TRUE(rr.status.ok()) << rr.status.message();
  EXPECT_GT(rr.epoch, ra.epoch);

  QueryTicket q3 = core.Submit(query);
  const ServeResult& r3 = q3.Wait();
  ASSERT_TRUE(r3.status.ok());
  EXPECT_EQ(r3.answers, r1.answers);  // round trip is answer-preserving

  core.Shutdown();
  const ServingStats st = core.stats();
  EXPECT_EQ(st.mutations_applied, 2u);
  EXPECT_EQ(st.double_resolves, 0u);
}

// --- Answer cache on the admission path ----------------------------------------

TEST(ServingCoreTest, AdmissionPathServesAnswerCacheHitsInstantly) {
  ServeSetup s = BuildServeSetup(9037, 8);
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);
  AnswerCache cache;
  ServingOptions so;
  so.num_threads = 1;
  so.query = ServeQueryOptions();
  so.answer_cache = &cache;
  ServingCore core(&processor, so);

  const Graph q = SubgraphQueries(s, 9037, 4, 1)[0];
  QueryTicket t1 = core.Submit(q);
  const ServeResult& r1 = t1.Wait();
  ASSERT_TRUE(r1.status.ok());
  ASSERT_FALSE(r1.answers.empty());
  EXPECT_FALSE(r1.stats.answer_cache_hit);
  EXPECT_EQ(cache.size(), 1u);  // the pipeline stored the exact answer

  QueryTicket t2 = core.Submit(q);
  const ServeResult& r2 = t2.Wait();
  ASSERT_TRUE(r2.status.ok());
  EXPECT_TRUE(r2.stats.answer_cache_hit);
  EXPECT_EQ(r2.answers, r1.answers);
  EXPECT_EQ(r2.epoch, r1.epoch);

  core.Shutdown();
  const ServingStats st = core.stats();
  EXPECT_EQ(st.answer_cache_hits, 1u);
  EXPECT_EQ(st.admitted, 1u);  // the hit never queued
}

TEST(ServingCoreTest, TotalsAreTheSumOfEveryResolvedQueryTicket) {
  ServeSetup s = BuildServeSetup(9011, 6);
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);
  AnswerCache cache;
  ServingOptions so;
  so.num_threads = 2;
  so.query = ServeQueryOptions();
  so.answer_cache = &cache;
  ServingCore core(&processor, so);

  // Four-edge subgraphs of database graphs: small enough to have answers.
  // The fifth is kept out of the cache for the degraded ticket below.
  std::vector<Graph> queries = SubgraphQueries(s, 9049, 4, 5);
  const Graph cut_query = std::move(queries.back());
  queries.pop_back();
  std::vector<QueryTicket> tickets;
  for (const Graph& q : queries) tickets.push_back(core.Submit(q));
  size_t most = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(tickets[i].Wait().status.ok());
    if (tickets[i].Wait().answers.size() >
        tickets[most].Wait().answers.size()) {
      most = i;
    }
  }
  // Resolved at Submit from the answer cache: it never reaches a wave.
  tickets.push_back(core.Submit(queries[most]));
  ASSERT_TRUE(tickets.back().Wait().stats.answer_cache_hit);
  ASSERT_FALSE(tickets.back().Wait().answers.empty());
  // Cut off at its first draw, like the query of
  // CancelledTicketWithAllowDegradedResolvesOk: a degraded ticket's
  // counters fold too.
  SubmitOptions cut;
  cut.allow_degraded = true;
  cut.cancel_after_draws = 1;
  tickets.push_back(core.Submit(cut_query, cut));
  ASSERT_TRUE(tickets.back().Wait().degraded);
  core.Shutdown();

  std::vector<size_t> sum;
  for (QueryTicket& t : tickets) {
    const ServeResult& r = t.Wait();
    EXPECT_EQ(r.stats.structural_candidates,
              r.stats.pruned_by_upper + r.stats.accepted_by_lower +
                  r.stats.verification_candidates);
    EXPECT_EQ(r.stats.answers, r.answers.size());
    AddCounterFields(r.stats, &sum);
  }
  const ServingStats st = core.stats();
  EXPECT_EQ(st.answer_cache_hits, 1u);
  EXPECT_EQ(st.submitted, tickets.size());
  EXPECT_EQ(CounterFields(st.totals), sum);
  EXPECT_GT(st.totals.structural_candidates, 0u);
  EXPECT_GT(st.totals.cancelled_candidates, 0u);
  // Stage 3's sampling counters are exercised by the roll-up too.
  EXPECT_GT(st.totals.sample_draws, 0u);
  EXPECT_GT(st.totals.bound_decided, 0u);
  EXPECT_GT(st.totals.stopped_early, 0u);
}

// Satellite: a degraded answer produced at a deadline must NEVER be stored,
// so the same query submitted later is recomputed exactly — an interval
// answer can never masquerade as an exact cache hit.
TEST(ServingCoreTest, DegradedResultsAreNeverCached) {
  ServeSetup s = BuildServeSetup(9041, 8);
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);
  const QueryOptions options = ServeQueryOptions();

  AnswerCache cache;
  ServingOptions so;
  so.num_threads = 1;
  so.query = options;
  so.answer_cache = &cache;
  ServingCore core(&processor, so);

  // Find a query that genuinely degrades at the cancel point (one whose
  // candidates are not all decided by bounds before sampling). Queries that
  // complete exactly along the way store into the cache as usual.
  SubmitOptions degraded_opts;
  degraded_opts.allow_degraded = true;
  degraded_opts.cancel_after_draws = 1;
  Graph q;
  size_t exact_runs = 0;
  bool found = false;
  for (const Graph& cand : SubgraphQueries(s, 9041, 4, s.db.size())) {
    if (found) break;
    QueryTicket t = core.Submit(cand, degraded_opts);
    const ServeResult& r = t.Wait();
    ASSERT_TRUE(r.status.ok());
    if (r.degraded) {
      q = cand;
      found = true;
    } else {
      ++exact_runs;
    }
  }
  ASSERT_TRUE(found) << "no query in the setup reaches the sampling loop";
  EXPECT_EQ(cache.size(), exact_runs) << "degraded result leaked into cache";

  // Golden exact answer, computed outside the serving/cache path.
  BatchOptions batch;
  batch.num_threads = 1;
  const auto golden = processor.QueryBatch({q}, options, batch);
  ASSERT_TRUE(golden[0].status.ok());
  ASSERT_FALSE(golden[0].answers.empty());

  // Resubmitted without a cancel point: must MISS (no stored entry), rerun
  // the full pipeline, and produce the exact golden answer.
  QueryTicket t2 = core.Submit(q);
  const ServeResult& r2 = t2.Wait();
  ASSERT_TRUE(r2.status.ok());
  EXPECT_FALSE(r2.degraded);
  EXPECT_FALSE(r2.stats.answer_cache_hit);
  EXPECT_EQ(r2.answers, golden[0].answers);
  EXPECT_EQ(core.stats().answer_cache_hits, 0u);

  // Only now does the cache hold the (exact) entry, and only now do hits
  // start.
  EXPECT_EQ(cache.size(), exact_runs + 1);
  QueryTicket t3 = core.Submit(q);
  const ServeResult& r3 = t3.Wait();
  ASSERT_TRUE(r3.status.ok());
  EXPECT_TRUE(r3.stats.answer_cache_hit);
  EXPECT_EQ(r3.answers, golden[0].answers);
  core.Shutdown();
}

// --- Callbacks & ticket plumbing -------------------------------------------------

TEST(ServingCoreTest, CallbackFiresExactlyOnceWithTheResolvedResult) {
  ServeSetup s = BuildServeSetup(9043, 4);
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);
  ServingOptions so;
  so.num_threads = 1;
  so.query = ServeQueryOptions();
  ServingCore core(&processor, so);

  std::atomic<int> fired{0};
  std::promise<std::vector<uint32_t>> answers_promise;
  SubmitOptions opts;
  opts.callback = [&](const ServeResult& r) {
    if (fired.fetch_add(1) == 0) answers_promise.set_value(r.answers);
  };
  QueryTicket t = core.Submit(SubgraphQueries(s, 9043, 4, 1)[0], opts);
  const ServeResult& r = t.Wait();
  ASSERT_TRUE(r.status.ok());
  ASSERT_FALSE(r.answers.empty());
  EXPECT_EQ(answers_promise.get_future().get(), r.answers);
  core.Shutdown();
  EXPECT_EQ(fired.load(), 1);
}

}  // namespace
}  // namespace pgsim
