// Correctness of the batch-scoped query cache: a batch with duplicated and
// isomorphic queries must answer bit-identically with the cache on or off
// (at any thread count), and BatchStats must expose the hit/miss counters.

#include <gtest/gtest.h>

#include "pgsim/datasets/synthetic.h"
#include "pgsim/graph/canonical.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/batch_cache.h"
#include "pgsim/query/processor.h"
#include "pgsim/query/structural_filter.h"

namespace pgsim {
namespace {

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
  build.sip.mc.min_samples = 400;
  build.sip.mc.max_samples = 400;
  p.pmi = ProbabilisticMatrixIndex::Build(p.db, build).value();
  p.filter = StructuralFilter::Build(p.certain, p.pmi.features());
  return p;
}

QueryOptions FastOptions() {
  QueryOptions options;
  options.delta = 1;
  options.epsilon = 0.4;
  options.verifier.mc.min_samples = 400;
  options.verifier.mc.max_samples = 400;
  return options;
}

// An isomorphic copy of `g` with vertex ids reversed: same class, different
// exact form (unless the graph is order-symmetric).
Graph ReverseVertexOrder(const Graph& g) {
  const uint32_t n = g.NumVertices();
  GraphBuilder builder;
  for (uint32_t pos = 0; pos < n; ++pos) {
    builder.AddVertex(g.VertexLabel(n - 1 - pos));
  }
  for (const Edge& e : g.Edges()) {
    auto r = builder.AddEdge(n - 1 - e.u, n - 1 - e.v, e.label);
    (void)r;
  }
  return builder.Build();
}

std::vector<Graph> MakeRepetitiveBatch(const Pipeline& p, uint64_t seed) {
  Rng rng(seed);
  std::vector<Graph> base;
  while (base.size() < 3) {
    auto q = ExtractQuery(p.certain[rng.Uniform(p.certain.size())], 4, &rng);
    if (q.ok()) base.push_back(std::move(q).value());
  }
  // Layout: [q0, q1, q2, q0(dup), q1(dup), q0(iso), q2(dup), q1(iso)].
  std::vector<Graph> queries = base;
  queries.push_back(base[0]);
  queries.push_back(base[1]);
  queries.push_back(ReverseVertexOrder(base[0]));
  queries.push_back(base[2]);
  queries.push_back(ReverseVertexOrder(base[1]));
  return queries;
}

TEST(BatchCacheTest, CachedBatchMatchesUncachedAtAnyThreadCount) {
  const Pipeline p = MakePipeline(3101);
  const QueryProcessor processor(&p.db, &p.pmi, &p.filter);
  const std::vector<Graph> queries = MakeRepetitiveBatch(p, 3102);
  const QueryOptions options = FastOptions();

  BatchOptions uncached;
  uncached.num_threads = 1;
  uncached.enable_cache = false;
  BatchStats uncached_stats;
  const auto baseline =
      processor.QueryBatch(queries, options, uncached, &uncached_stats);
  EXPECT_EQ(uncached_stats.relax_cache_hits + uncached_stats.relax_cache_misses,
            0u);

  for (uint32_t threads : {1u, 2u, 4u}) {
    BatchOptions cached;
    cached.num_threads = threads;
    cached.enable_cache = true;
    BatchStats stats;
    const auto results = processor.QueryBatch(queries, options, cached, &stats);
    ASSERT_EQ(results.size(), baseline.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok()) << "threads=" << threads;
      EXPECT_EQ(results[i].answers, baseline[i].answers)
          << "query " << i << " threads=" << threads;
      // Deterministic pipeline counters are cache-invariant too.
      EXPECT_EQ(results[i].stats.structural_candidates,
                baseline[i].stats.structural_candidates);
      EXPECT_EQ(results[i].stats.verification_candidates,
                baseline[i].stats.verification_candidates);
      EXPECT_EQ(results[i].stats.answers, baseline[i].stats.answers);
    }
    // The probe count (hits + misses) is deterministic even in parallel —
    // every cacheable query probes each tier exactly once; the hit/miss
    // split can shift with thread scheduling, so it is pinned only in the
    // single-thread test below.
    EXPECT_EQ(stats.relax_cache_hits + stats.relax_cache_misses,
              queries.size());
    EXPECT_EQ(stats.counts_cache_hits + stats.counts_cache_misses,
              queries.size());
    EXPECT_EQ(stats.cache_uncacheable, 0u);
  }
}

TEST(BatchCacheTest, SingleThreadHitCountersAreExact) {
  const Pipeline p = MakePipeline(3201);
  const QueryProcessor processor(&p.db, &p.pmi, &p.filter);
  const std::vector<Graph> queries = MakeRepetitiveBatch(p, 3202);
  // Sanity: the reversed copies must be genuine new exact forms.
  ASSERT_NE(GraphExactKey(queries[5]), GraphExactKey(queries[0]));
  ASSERT_EQ(CanonicalCode(queries[5]).value(),
            CanonicalCode(queries[0]).value());
  ASSERT_NE(GraphExactKey(queries[7]), GraphExactKey(queries[1]));
  ASSERT_EQ(CanonicalCode(queries[7]).value(),
            CanonicalCode(queries[1]).value());

  BatchOptions batch;
  batch.num_threads = 1;
  BatchStats stats;
  const auto results =
      processor.QueryBatch(queries, FastOptions(), batch, &stats);

  // [q0, q1, q2, q0(dup), q1(dup), q0(iso), q2(dup), q1(iso)] in order:
  // the relax and pruner-relation tiers hit on exact duplicates only
  // (3, 4, 6); the counts tier additionally hits the isomorphic
  // relabelings (5, 7).
  EXPECT_EQ(stats.relax_cache_hits, 3u);
  EXPECT_EQ(stats.relax_cache_misses, 5u);
  EXPECT_EQ(stats.counts_cache_hits, 5u);
  EXPECT_EQ(stats.counts_cache_misses, 3u);
  EXPECT_EQ(stats.prepared_cache_hits, 3u);
  EXPECT_EQ(stats.prepared_cache_misses, 5u);
  EXPECT_EQ(stats.cache_uncacheable, 0u);

  const std::vector<bool> expect_relax_hit{false, false, false, true,
                                           true,  false, true,  false};
  const std::vector<bool> expect_counts_hit{false, false, false, true,
                                            true,  true,  true,  true};
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok());
    EXPECT_EQ(results[i].stats.relax_cache_hit, expect_relax_hit[i]) << i;
    EXPECT_EQ(results[i].stats.counts_cache_hit, expect_counts_hit[i]) << i;
    EXPECT_EQ(results[i].stats.prepared_cache_hit, expect_relax_hit[i]) << i;
  }
}

TEST(BatchCacheTest, CacheHitSkipsNoAnswersForIsomorphicQueries) {
  // The iso-class tier must hand back counts whose derived thresholds are
  // bit-identical: compare a relabeled query's full pipeline run cold vs
  // after the class is warm.
  const Pipeline p = MakePipeline(3301);
  const QueryProcessor processor(&p.db, &p.pmi, &p.filter);
  Rng rng(3302);
  Graph q;
  for (;;) {
    auto extracted =
        ExtractQuery(p.certain[rng.Uniform(p.certain.size())], 4, &rng);
    if (extracted.ok()) {
      q = std::move(extracted).value();
      break;
    }
  }
  const Graph iso = ReverseVertexOrder(q);
  const QueryOptions options = FastOptions();

  QueryStats cold_stats;
  const auto cold = processor.Query(iso, options, &cold_stats);
  ASSERT_TRUE(cold.ok());

  BatchOptions batch;
  batch.num_threads = 1;
  const std::vector<Graph> queries{q, iso};
  const auto results = processor.QueryBatch(queries, options, batch);
  ASSERT_TRUE(results[1].status.ok());
  EXPECT_TRUE(results[1].stats.counts_cache_hit);
  EXPECT_EQ(results[1].answers, *cold);
  EXPECT_EQ(results[1].stats.structural_candidates,
            cold_stats.structural_candidates);
}

TEST(BatchCacheTest, DirectCacheApiStoresAndFinds) {
  BatchQueryCache cache;
  GraphBuilder builder;
  const VertexId a = builder.AddVertex(0);
  const VertexId b = builder.AddVertex(1);
  auto r = builder.AddEdge(a, b, 0);
  (void)r;
  const Graph g = builder.Build();

  auto first = cache.Find(g);
  ASSERT_TRUE(first.cacheable);
  EXPECT_EQ(first.relaxed, nullptr);
  EXPECT_EQ(first.counts, nullptr);

  auto relaxed = std::make_shared<std::vector<Graph>>();
  relaxed->push_back(g);
  cache.StoreRelaxed(first, relaxed);
  auto counts = std::make_shared<QueryFeatureCounts>();
  counts->entries.push_back({0, 2, 1});
  cache.StoreCounts(first, counts);

  auto second = cache.Find(g);
  ASSERT_NE(second.relaxed, nullptr);
  EXPECT_EQ(second.relaxed->size(), 1u);
  ASSERT_NE(second.counts, nullptr);
  EXPECT_EQ(second.counts->entries.size(), 1u);

  const BatchCacheStats stats = cache.stats();
  EXPECT_EQ(stats.relax_hits, 1u);
  EXPECT_EQ(stats.relax_misses, 1u);
  EXPECT_EQ(stats.counts_hits, 1u);
  EXPECT_EQ(stats.counts_misses, 1u);
}

}  // namespace
}  // namespace pgsim
