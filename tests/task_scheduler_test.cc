// Tests of the work-stealing TaskScheduler and the batch paths built on it:
// every task in a (nested) graph executes exactly once; a skewed spawn
// pattern actually gets stolen by idle workers; exceptions propagate out of
// Run() without wedging the scheduler; ThreadPool's bulk submission and
// shutdown drain everything; and QueryBatch answers are bit-identical to
// sequential Query at every worker count. The multi-worker suites are part
// of the TSan CI job.

#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <stdexcept>
#include <thread>

#include "pgsim/common/task_scheduler.h"
#include "pgsim/common/thread_pool.h"
#include "pgsim/datasets/synthetic.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/processor.h"
#include "pgsim/query/structural_filter.h"

namespace pgsim {
namespace {

using Task = TaskScheduler::Task;

// ---------------------------------------------------------------------------
// Scheduler core.
// ---------------------------------------------------------------------------

struct CountCtx {
  std::atomic<uint64_t> executed{0};
};

void CountTask(void* ctx, uint32_t /*worker*/, uint32_t /*a*/, uint32_t /*b*/) {
  static_cast<CountCtx*>(ctx)->executed.fetch_add(1,
                                                  std::memory_order_relaxed);
}

TEST(TaskSchedulerTest, RunExecutesEveryRootExactlyOnce) {
  for (uint32_t workers : {1u, 4u}) {
    TaskScheduler sched(workers);
    EXPECT_EQ(sched.num_workers(), workers);
    CountCtx ctx;
    std::vector<Task> roots(257);
    for (Task& t : roots) t = Task{&CountTask, &ctx, 0, 0};
    const SchedulerRunStats stats = sched.Run(roots);
    EXPECT_EQ(ctx.executed.load(), roots.size()) << "workers=" << workers;
    EXPECT_EQ(stats.tasks_executed, roots.size());
  }
}

TEST(TaskSchedulerTest, RootClaimCoversAllRoots) {
  TaskScheduler sched(4);
  CountCtx ctx;
  std::vector<Task> roots(100);
  for (Task& t : roots) t = Task{&CountTask, &ctx, 0, 0};
  const SchedulerRunStats stats = sched.Run(roots);
  EXPECT_EQ(ctx.executed.load(), roots.size());
  EXPECT_EQ(stats.tasks_executed, roots.size());
  // Roots are claimed, never stolen: nothing was spawned onto a deque.
  EXPECT_EQ(stats.tasks_stolen, 0u);
}

struct TreeCtx {
  TaskScheduler* sched = nullptr;
  std::atomic<uint64_t> executed{0};
};

// Spawns a binary tree of depth `a`: ~2^(a+1)-1 tasks per root.
void TreeTask(void* ctx, uint32_t worker, uint32_t a, uint32_t b) {
  TreeCtx* tree = static_cast<TreeCtx*>(ctx);
  tree->executed.fetch_add(1, std::memory_order_relaxed);
  if (a == 0) return;
  tree->sched->Spawn(worker, Task{&TreeTask, ctx, a - 1, b});
  tree->sched->Spawn(worker, Task{&TreeTask, ctx, a - 1, b});
}

TEST(TaskSchedulerTest, NestedSpawnTreeExecutesEveryTask) {
  for (uint32_t workers : {1u, 4u}) {
    TaskScheduler sched(workers);
    TreeCtx tree;
    tree.sched = &sched;
    constexpr uint32_t kDepth = 10;  // 2^11 - 1 = 2047 tasks per root
    const Task root{&TreeTask, &tree, kDepth, 0};
    const SchedulerRunStats stats = sched.Run(&root, 1);
    EXPECT_EQ(tree.executed.load(), (1ull << (kDepth + 1)) - 1);
    EXPECT_EQ(stats.tasks_executed, (1ull << (kDepth + 1)) - 1);
    EXPECT_GT(stats.max_queue_depth, 0u);
  }
}

struct SkewCtx {
  TaskScheduler* sched = nullptr;
  std::atomic<uint32_t> worker_seen[64] = {};
  std::atomic<uint64_t> executed{0};
};

void SkewChildTask(void* ctx, uint32_t worker, uint32_t, uint32_t) {
  SkewCtx* skew = static_cast<SkewCtx*>(ctx);
  skew->worker_seen[worker].store(1, std::memory_order_relaxed);
  skew->executed.fetch_add(1, std::memory_order_relaxed);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

// One pathological root: spawns a pile of work onto its own deque, then
// stays busy. Idle workers must steal from it — the scenario the chunked
// parallel-for cannot balance.
void SkewRootTask(void* ctx, uint32_t worker, uint32_t, uint32_t) {
  SkewCtx* skew = static_cast<SkewCtx*>(ctx);
  skew->worker_seen[worker].store(1, std::memory_order_relaxed);
  for (int i = 0; i < 64; ++i) {
    skew->sched->Spawn(worker, Task{&SkewChildTask, ctx, 0, 0});
  }
  // Keep the spawner occupied so thieves get a window.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

TEST(TaskSchedulerTest, IdleWorkersStealFromSkewedSpawner) {
  TaskScheduler sched(4);
  SkewCtx skew;
  skew.sched = &sched;
  const Task root{&SkewRootTask, &skew, 0, 0};
  const SchedulerRunStats stats = sched.Run(&root, 1);
  EXPECT_EQ(skew.executed.load(), 64u);
  // Liveness: the other three workers cannot get work any way but stealing.
  EXPECT_GE(stats.tasks_stolen, 1u);
  uint32_t distinct = 0;
  for (uint32_t w = 0; w < sched.num_workers(); ++w) {
    distinct += skew.worker_seen[w].load();
  }
  EXPECT_GE(distinct, 2u);
}

void ThrowingTask(void* /*ctx*/, uint32_t, uint32_t a, uint32_t) {
  if (a == 1) throw std::runtime_error("task failed");
}

TEST(TaskSchedulerTest, ExceptionPropagatesAndSchedulerStaysUsable) {
  for (uint32_t workers : {1u, 4u}) {
    TaskScheduler sched(workers);
    CountCtx ctx;
    std::vector<Task> roots;
    for (int i = 0; i < 16; ++i) roots.push_back(Task{&CountTask, &ctx, 0, 0});
    roots.push_back(Task{&ThrowingTask, nullptr, 1, 0});
    for (int i = 0; i < 16; ++i) roots.push_back(Task{&CountTask, &ctx, 0, 0});
    EXPECT_THROW(sched.Run(roots), std::runtime_error) << "workers=" << workers;
    // The graph still drained: every non-throwing task ran.
    EXPECT_EQ(ctx.executed.load(), 32u);
    // And the scheduler is reusable after a failed run.
    const SchedulerRunStats stats =
        sched.Run(std::vector<Task>(8, Task{&CountTask, &ctx, 0, 0}));
    EXPECT_EQ(stats.tasks_executed, 8u);
    EXPECT_EQ(ctx.executed.load(), 40u);
  }
}

TEST(TaskSchedulerTest, WorkerStateIsRetainedAcrossRuns) {
  TaskScheduler sched(2);
  int* state = sched.WorkerState<int>(0);
  *state = 41;
  CountCtx ctx;
  const Task root{&CountTask, &ctx, 0, 0};
  sched.Run(&root, 1);
  EXPECT_EQ(sched.WorkerState<int>(0), state);  // same slot, not recreated
  EXPECT_EQ(*sched.WorkerState<int>(0), 41);
}

// ---------------------------------------------------------------------------
// ThreadPool bulk submission and shutdown (the SubmitMany satellite).
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, SubmitManyDrainsEveryTask) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back([&done] { done.fetch_add(1); });
  }
  pool.SubmitMany(std::move(tasks));
  pool.Wait();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 64; ++i) {
      tasks.push_back([&done] { done.fetch_add(1); });
    }
    pool.SubmitMany(std::move(tasks));
    // No Wait(): shutdown must still run everything already queued.
  }
  EXPECT_EQ(done.load(), 64);
}

// ---------------------------------------------------------------------------
// QueryBatch: task-graph vs sequential Query equivalence.
// ---------------------------------------------------------------------------

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

TEST(StealingBatchTest, MatchesSequentialQueryAtEveryWidth) {
  const Pipeline p = MakePipeline(3301);
  const QueryProcessor processor(&p.db, &p.pmi, &p.filter);
  const std::vector<Graph> queries = MakeQueries(p, 3302, 8);
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
    size_t verify_tasks = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok());
      EXPECT_EQ(results[i].answers, sequential[i])
          << "query " << i << " threads=" << threads;
      EXPECT_EQ(results[i].stats.verification_candidates,
                sequential_stats[i].verification_candidates);
      EXPECT_EQ(results[i].stats.pruned_by_upper,
                sequential_stats[i].pruned_by_upper);
      EXPECT_EQ(results[i].stats.accepted_by_lower,
                sequential_stats[i].accepted_by_lower);
      verify_tasks += results[i].stats.verification_candidates;
    }
    // One front task per query plus one verify task per candidate.
    EXPECT_EQ(stats.tasks_executed, queries.size() + verify_tasks);
    EXPECT_EQ(stats.threads_used, threads);
  }
}

TEST(StealingBatchTest, CallerOwnedSchedulerReusedAcrossBatches) {
  const Pipeline p = MakePipeline(3301);
  const QueryProcessor processor(&p.db, &p.pmi, &p.filter);
  const std::vector<Graph> queries = MakeQueries(p, 3302, 6);
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
    EXPECT_GE(stats.tasks_executed, queries.size());
  }
}

TEST(StealingBatchTest, SecondPassGrowsNoWorkerScratch) {
  // Extends the PR 3–5 no-allocation-growth pins to the scheduler-owned
  // per-worker scratch: after a warm-up batch, rerunning the same workload
  // must not grow the verifier scratch pool. Width 1 keeps the pin
  // deterministic (one worker sees every candidate, no steal schedule).
  const Pipeline p = MakePipeline(3401);
  const QueryProcessor processor(&p.db, &p.pmi, &p.filter);
  const std::vector<Graph> queries = MakeQueries(p, 3402, 6);
  const QueryOptions options = FastOptions();

  TaskScheduler sched(1);
  BatchOptions batch;
  batch.stealer = &sched;
  const auto first = processor.QueryBatch(queries, options, batch);
  const size_t warm_words =
      sched.WorkerState<QueryContext>(0)->verifier_scratch.PoolCapacityWords();
  ASSERT_GT(warm_words, 0u);
  const auto second = processor.QueryBatch(queries, options, batch);
  EXPECT_EQ(
      sched.WorkerState<QueryContext>(0)->verifier_scratch.PoolCapacityWords(),
      warm_words);
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].answers, second[i].answers);
  }
}

TEST(StealingBatchTest, ReportsQueueWaitAndOverlap) {
  const Pipeline p = MakePipeline(3501);
  const QueryProcessor processor(&p.db, &p.pmi, &p.filter);
  const std::vector<Graph> queries = MakeQueries(p, 3502, 8);
  const QueryOptions options = FastOptions();

  BatchOptions batch;
  batch.num_threads = 2;
  BatchStats stats;
  const auto results = processor.QueryBatch(queries, options, batch, &stats);
  ASSERT_EQ(results.size(), queries.size());
  // Every query waited a measurable (possibly tiny) time for admission.
  EXPECT_GT(stats.sum_queue_wait_seconds, 0.0);
  for (const auto& r : results) {
    EXPECT_GE(r.stats.queue_wait_seconds, 0.0);
  }
}

}  // namespace
}  // namespace pgsim
