// Tests of the batched parallel query engine: QueryBatch must return
// bit-identical answers (and identical deterministic counters) to sequential
// Query calls at any thread count, QueryContext reuse must not leak state
// between queries, and the ThreadPool must cover ranges exactly once.

#include <atomic>
#include <gtest/gtest.h>

#include "pgsim/common/task_scheduler.h"
#include "pgsim/common/thread_pool.h"
#include "pgsim/datasets/synthetic.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/processor.h"
#include "pgsim/query/structural_filter.h"
#include "test_util.h"

namespace pgsim {
namespace {

using ::pgsim::testing::AddCounterFields;
using ::pgsim::testing::CounterFields;

struct Pipeline {
  std::vector<ProbabilisticGraph> db;
  std::vector<Graph> certain;
  ProbabilisticMatrixIndex pmi;
  StructuralFilter filter;
};

Pipeline MakePipeline(uint64_t seed) {
  SyntheticOptions options;
  options.num_graphs = 15;
  options.avg_vertices = 8;
  options.edge_factor = 1.3;
  options.num_vertex_labels = 3;
  options.seed = seed;
  Pipeline p;
  p.db = GenerateDatabase(options).value();
  for (const auto& g : p.db) p.certain.push_back(g.certain());
  PmiBuildOptions build;
  build.miner.alpha = 0.0;
  build.miner.beta = 0.2;
  build.miner.gamma = -1.0;
  build.miner.max_vertices = 3;
  build.sip.mc.min_samples = 500;
  build.sip.mc.max_samples = 500;
  p.pmi = ProbabilisticMatrixIndex::Build(p.db, build).value();
  p.filter = StructuralFilter::Build(p.certain, p.pmi.features());
  return p;
}

std::vector<Graph> MakeQueries(const Pipeline& p, uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<Graph> queries;
  while (queries.size() < count) {
    auto q = ExtractQuery(p.certain[rng.Uniform(p.certain.size())], 4, &rng);
    if (q.ok()) queries.push_back(std::move(q).value());
  }
  return queries;
}

QueryOptions FastOptions() {
  QueryOptions options;
  options.delta = 1;
  options.epsilon = 0.4;
  options.verifier.mc.min_samples = 400;
  options.verifier.mc.max_samples = 400;
  return options;
}

TEST(QueryBatchTest, MatchesSequentialQueryAtAnyThreadCount) {
  const Pipeline p = MakePipeline(2201);
  const QueryProcessor processor(&p.db, &p.pmi, &p.filter);
  const std::vector<Graph> queries = MakeQueries(p, 2202, 8);
  const QueryOptions options = FastOptions();

  std::vector<std::vector<uint32_t>> sequential;
  std::vector<QueryStats> sequential_stats(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto answers = processor.Query(queries[i], options, &sequential_stats[i]);
    ASSERT_TRUE(answers.ok());
    sequential.push_back(std::move(answers).value());
  }

  for (uint32_t threads : {1u, 2u, 4u}) {
    BatchOptions batch;
    batch.num_threads = threads;
    BatchStats stats;
    const auto results = processor.QueryBatch(queries, options, batch, &stats);
    ASSERT_EQ(results.size(), queries.size());
    size_t expected_answers = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok()) << "threads=" << threads;
      // Bit-identical answer sets: same ids, same order.
      EXPECT_EQ(results[i].answers, sequential[i])
          << "query " << i << " at threads=" << threads;
      // Deterministic pipeline counters must match too.
      EXPECT_EQ(results[i].stats.structural_candidates,
                sequential_stats[i].structural_candidates);
      EXPECT_EQ(results[i].stats.verification_candidates,
                sequential_stats[i].verification_candidates);
      EXPECT_EQ(results[i].stats.pruned_by_upper,
                sequential_stats[i].pruned_by_upper);
      EXPECT_EQ(results[i].stats.accepted_by_lower,
                sequential_stats[i].accepted_by_lower);
      expected_answers += sequential[i].size();
    }
    EXPECT_EQ(stats.num_queries, queries.size());
    EXPECT_EQ(stats.failed_queries, 0u);
    EXPECT_EQ(stats.totals.answers, expected_answers);
    EXPECT_EQ(stats.threads_used, threads);
    EXPECT_GT(stats.wall_seconds, 0.0);
  }
}

TEST(QueryBatchTest, TotalsAreTheFieldWiseSumOfPerQueryCounters) {
  const Pipeline p = MakePipeline(2201);
  const QueryProcessor processor(&p.db, &p.pmi, &p.filter);
  std::vector<Graph> queries = MakeQueries(p, 2402, 6);
  queries.push_back(queries[0]);  // duplicates share one CompiledQuery
  queries.push_back(queries[3]);
  const QueryOptions options = FastOptions();

  for (uint32_t threads : {1u, 4u}) {
    AnswerCache answer_cache;
    BatchOptions batch;
    batch.num_threads = threads;
    batch.answer_cache = &answer_cache;
    // Pass 0 runs the pipeline; pass 1 is served from the answer cache.
    for (int pass = 0; pass < 2; ++pass) {
      BatchStats stats;
      const auto results =
          processor.QueryBatch(queries, options, batch, &stats);
      std::vector<size_t> sum;
      for (size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].status.ok());
        const QueryStats& q = results[i].stats;
        // Every structural candidate is pruned, accepted or verified.
        EXPECT_EQ(q.structural_candidates, q.pruned_by_upper +
                                               q.accepted_by_lower +
                                               q.verification_candidates)
            << "threads=" << threads << " pass " << pass << " query " << i;
        EXPECT_EQ(q.answers, results[i].answers.size());
        AddCounterFields(q, &sum);
      }
      EXPECT_EQ(CounterFields(stats.totals), sum)
          << "threads=" << threads << " pass " << pass;
      if (pass == 0) {
        EXPECT_GT(stats.totals.structural_candidates, 0u);
      } else {
        EXPECT_EQ(stats.answer_cache.hits, queries.size());
      }
    }
  }
}

TEST(QueryBatchTest, CallerOwnedSchedulerMatchesOwnedScheduler) {
  const Pipeline p = MakePipeline(2201);
  const QueryProcessor processor(&p.db, &p.pmi, &p.filter);
  const std::vector<Graph> queries = MakeQueries(p, 2202, 6);
  const QueryOptions options = FastOptions();

  const auto baseline = processor.QueryBatch(queries, options);
  TaskScheduler sched(3);
  BatchOptions batch;
  batch.stealer = &sched;
  for (int round = 0; round < 2; ++round) {  // scheduler survives batches
    BatchStats stats;
    const auto results = processor.QueryBatch(queries, options, batch, &stats);
    ASSERT_EQ(results.size(), baseline.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok());
      EXPECT_EQ(results[i].answers, baseline[i].answers);
    }
    EXPECT_EQ(stats.threads_used, 3u);
  }
}

TEST(QueryBatchTest, ReusedContextMatchesFreshContexts) {
  const Pipeline p = MakePipeline(2301);
  const QueryProcessor processor(&p.db, &p.pmi, &p.filter);
  const std::vector<Graph> queries = MakeQueries(p, 2302, 6);
  const QueryOptions options = FastOptions();

  QueryContext reused;
  for (const Graph& q : queries) {
    auto with_reuse = processor.Query(q, options, &reused);
    auto fresh = processor.Query(q, options);
    ASSERT_TRUE(with_reuse.ok());
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(*with_reuse, *fresh);
  }
}

TEST(QueryBatchTest, TrivialDeltaReturnsWholeDatabase) {
  const Pipeline p = MakePipeline(2401);
  const QueryProcessor processor(&p.db, &p.pmi, &p.filter);
  std::vector<Graph> queries = MakeQueries(p, 2402, 3);
  QueryOptions options = FastOptions();
  options.delta = 1000;  // >= |E(q)|: every graph is an answer
  const auto results = processor.QueryBatch(queries, options);
  for (const auto& r : results) {
    ASSERT_TRUE(r.status.ok());
    ASSERT_EQ(r.answers.size(), p.db.size());
    for (uint32_t i = 0; i < p.db.size(); ++i) EXPECT_EQ(r.answers[i], i);
  }
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<uint32_t>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kN, 7, [&](uint32_t rank, size_t begin, size_t end) {
    EXPECT_LT(rank, 4u);
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1u) << i;
}

TEST(ThreadPoolTest, SubmitAndWaitDrainsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, 4, [&](uint32_t, size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace pgsim
