// Correctness of QueryBatch's compiled-query cache: byte-identical queries
// share one CompiledQuery, isomorphic relabelings compile their own, every
// query answers as a sequential Query() does at any width, and BatchStats
// exposes the hit/miss counters.

#include <gtest/gtest.h>

#include "pgsim/datasets/synthetic.h"
#include "pgsim/graph/vf2.h"
#include "pgsim/index/pmi.h"
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

TEST(BatchCacheTest, BatchMatchesSequentialQueryAtAnyWidth) {
  const Pipeline p = MakePipeline(3101);
  const QueryProcessor processor(&p.db, &p.pmi, &p.filter);
  const std::vector<Graph> queries = MakeRepetitiveBatch(p, 3102);
  const QueryOptions options = FastOptions();

  std::vector<std::vector<uint32_t>> expected;
  std::vector<QueryStats> expected_stats;
  for (const Graph& q : queries) {
    QueryStats stats;
    const auto answers = processor.Query(q, options, &stats);
    ASSERT_TRUE(answers.ok());
    expected.push_back(*answers);
    expected_stats.push_back(stats);
  }

  for (uint32_t threads : {1u, 2u, 4u}) {
    BatchOptions batch;
    batch.num_threads = threads;
    BatchStats stats;
    const auto results = processor.QueryBatch(queries, options, batch, &stats);
    ASSERT_EQ(results.size(), queries.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok()) << "threads=" << threads;
      EXPECT_EQ(results[i].answers, expected[i])
          << "query " << i << " threads=" << threads;
      // Deterministic pipeline counters do not depend on sharing either.
      EXPECT_EQ(results[i].stats.num_relaxed_queries,
                expected_stats[i].num_relaxed_queries);
      EXPECT_EQ(results[i].stats.structural_candidates,
                expected_stats[i].structural_candidates);
      EXPECT_EQ(results[i].stats.pruned_by_upper,
                expected_stats[i].pruned_by_upper);
      EXPECT_EQ(results[i].stats.accepted_by_lower,
                expected_stats[i].accepted_by_lower);
      EXPECT_EQ(results[i].stats.verification_candidates,
                expected_stats[i].verification_candidates);
      EXPECT_EQ(results[i].stats.answers, expected_stats[i].answers);
    }
    // Every query probes once, so the probe count is deterministic even in
    // parallel; the hit/miss split can shift with thread scheduling, so it
    // is pinned only in the single-thread test below.
    EXPECT_EQ(stats.compiled_cache_hits + stats.compiled_cache_misses,
              queries.size())
        << "threads=" << threads;
  }
}

TEST(BatchCacheTest, SingleThreadHitCountersAreExact) {
  const Pipeline p = MakePipeline(3201);
  const QueryProcessor processor(&p.db, &p.pmi, &p.filter);
  const std::vector<Graph> queries = MakeRepetitiveBatch(p, 3202);
  // Sanity: the reversed copies are isomorphic but new exact forms.
  ASSERT_NE(GraphExactKey(queries[5]), GraphExactKey(queries[0]));
  ASSERT_TRUE(AreIsomorphic(queries[5], queries[0]));
  ASSERT_NE(GraphExactKey(queries[7]), GraphExactKey(queries[1]));
  ASSERT_TRUE(AreIsomorphic(queries[7], queries[1]));

  BatchOptions batch;
  batch.num_threads = 1;
  BatchStats stats;
  const auto results =
      processor.QueryBatch(queries, FastOptions(), batch, &stats);

  // [q0, q1, q2, q0(dup), q1(dup), q0(iso), q2(dup), q1(iso)] in order:
  // only the exact duplicates (3, 4, 6) share a compiled query.
  EXPECT_EQ(stats.compiled_cache_hits, 3u);
  EXPECT_EQ(stats.compiled_cache_misses, 5u);
  const std::vector<bool> expect_hit{false, false, false, true,
                                     true,  false, true,  false};
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok());
    EXPECT_EQ(results[i].stats.compiled_cache_hit, expect_hit[i]) << i;
  }
}

TEST(BatchCacheTest, IsomorphicRelabelingMissesAndMatchesColdQuery) {
  // A relabeling has its own relaxation order, so it must compile its own
  // query: its run after the original is a full cold run, counters and all.
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
  ASSERT_NE(GraphExactKey(iso), GraphExactKey(q));
  const QueryOptions options = FastOptions();

  QueryStats cold_stats;
  const auto cold = processor.Query(iso, options, &cold_stats);
  ASSERT_TRUE(cold.ok());

  BatchOptions batch;
  batch.num_threads = 1;
  BatchStats stats;
  const std::vector<Graph> queries{q, iso};
  const auto results = processor.QueryBatch(queries, options, batch, &stats);
  ASSERT_TRUE(results[1].status.ok());
  EXPECT_FALSE(results[1].stats.compiled_cache_hit);
  EXPECT_EQ(stats.compiled_cache_hits, 0u);
  EXPECT_EQ(stats.compiled_cache_misses, 2u);
  EXPECT_EQ(results[1].answers, *cold);
  EXPECT_EQ(results[1].stats.num_relaxed_queries,
            cold_stats.num_relaxed_queries);
  EXPECT_EQ(results[1].stats.structural_candidates,
            cold_stats.structural_candidates);
  EXPECT_EQ(results[1].stats.verification_candidates,
            cold_stats.verification_candidates);
  // A miss pays for its own feature counting: the full test count.
  EXPECT_EQ(results[1].stats.structural_detail.isomorphism_tests,
            cold_stats.structural_detail.isomorphism_tests);
}

}  // namespace
}  // namespace pgsim
