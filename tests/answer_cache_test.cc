// Tests for the cross-batch AnswerCache: probe/store mechanics, exact
// epoch-based invalidation (mutations can never leak stale answers),
// exact-key conflicts between isomorphic-but-relabeled queries, LRU
// eviction, and the QueryProcessor/QueryBatch integration including the
// BatchStats counter deltas.

#include <gtest/gtest.h>

#include "pgsim/datasets/synthetic.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/answer_cache.h"
#include "pgsim/query/processor.h"
#include "pgsim/query/structural_filter.h"

namespace pgsim {
namespace {

Graph Triangle(LabelId a, LabelId b, LabelId c) {
  GraphBuilder builder;
  const VertexId va = builder.AddVertex(a);
  const VertexId vb = builder.AddVertex(b);
  const VertexId vc = builder.AddVertex(c);
  EXPECT_TRUE(builder.AddEdge(va, vb, 0).ok());
  EXPECT_TRUE(builder.AddEdge(vb, vc, 0).ok());
  EXPECT_TRUE(builder.AddEdge(va, vc, 0).ok());
  return builder.Build();
}

TEST(AnswerCacheTest, MissStoreHit) {
  AnswerCache cache;
  const Graph q = Triangle(0, 1, 2);
  const std::string fp = "options-v1";

  AnswerCache::Probe probe = cache.Find(q, fp, /*epoch=*/0);
  EXPECT_TRUE(probe.cacheable);
  EXPECT_FALSE(probe.hit);
  EXPECT_EQ(cache.stats().misses, 1u);

  cache.Store(probe, /*epoch=*/0, {3, 7, 9});
  EXPECT_EQ(cache.size(), 1u);

  const AnswerCache::Probe again = cache.Find(q, fp, /*epoch=*/0);
  ASSERT_TRUE(again.hit);
  EXPECT_EQ(*again.answers, (std::vector<uint32_t>{3, 7, 9}));
  EXPECT_EQ(cache.stats().hits, 1u);

  // A different options fingerprint addresses a different slot.
  EXPECT_FALSE(cache.Find(q, "options-v2", 0).hit);
}

TEST(AnswerCacheTest, EpochMismatchDropsEntry) {
  AnswerCache cache;
  const Graph q = Triangle(0, 1, 2);
  AnswerCache::Probe probe = cache.Find(q, "fp", 0);
  cache.Store(probe, 0, {1});

  // The index mutated: the entry must never be served again.
  const AnswerCache::Probe stale = cache.Find(q, "fp", /*epoch=*/1);
  EXPECT_FALSE(stale.hit);
  EXPECT_EQ(cache.stats().stale, 1u);
  EXPECT_EQ(cache.size(), 0u);  // dropped eagerly (epochs are monotone)

  // Recompute under the new epoch and it serves again.
  cache.Store(stale, 1, {2});
  EXPECT_TRUE(cache.Find(q, "fp", 1).hit);
  EXPECT_EQ(cache.stats().stale, 1u);
}

TEST(AnswerCacheTest, ExactKeyConflictIsNeverServed) {
  // Same isomorphism class (one canonical slot), different vertex order:
  // sampled verdicts may differ, so the hit must be refused and counted.
  AnswerCache cache;
  const Graph q1 = Triangle(0, 1, 2);
  const Graph q2 = Triangle(2, 1, 0);  // isomorphic, different labeling
  AnswerCache::Probe p1 = cache.Find(q1, "fp", 0);
  ASSERT_TRUE(p1.cacheable);
  cache.Store(p1, 0, {4});

  const AnswerCache::Probe p2 = cache.Find(q2, "fp", 0);
  ASSERT_EQ(p2.key, p1.key);  // same canonical bucket...
  EXPECT_NE(p2.exact_key, p1.exact_key);
  EXPECT_FALSE(p2.hit);  // ...but never served across exact keys
  EXPECT_EQ(cache.stats().conflicts, 1u);
  // The original entry survives a conflict; its own query still hits.
  EXPECT_TRUE(cache.Find(q1, "fp", 0).hit);
}

TEST(AnswerCacheTest, LruEviction) {
  AnswerCacheOptions options;
  options.max_entries = 2;
  AnswerCache cache(options);
  const Graph a = Triangle(0, 0, 0);
  const Graph b = Triangle(1, 1, 1);
  const Graph c = Triangle(2, 2, 2);
  cache.Store(cache.Find(a, "fp", 0), 0, {1});
  cache.Store(cache.Find(b, "fp", 0), 0, {2});
  // Touch `a` so `b` is the LRU victim when `c` lands.
  EXPECT_TRUE(cache.Find(a, "fp", 0).hit);
  cache.Store(cache.Find(c, "fp", 0), 0, {3});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.Find(a, "fp", 0).hit);
  EXPECT_FALSE(cache.Find(b, "fp", 0).hit);
  EXPECT_TRUE(cache.Find(c, "fp", 0).hit);
}

TEST(AnswerCacheTest, OptionsFingerprintSeparatesAnswerAffectingKnobs) {
  QueryOptions a;
  QueryOptions b = a;
  EXPECT_EQ(QueryOptionsFingerprint(a), QueryOptionsFingerprint(b));
  b.epsilon = 0.75;
  EXPECT_NE(QueryOptionsFingerprint(a), QueryOptionsFingerprint(b));
  // Execution-only knobs must NOT fragment the key space.
  QueryOptions c = a;
  c.use_signatures = !a.use_signatures;
  EXPECT_EQ(QueryOptionsFingerprint(a), QueryOptionsFingerprint(c));
}

// ---------------------------------------------------------------------------
// QueryBatch integration.
// ---------------------------------------------------------------------------

struct BatchSetup {
  std::vector<ProbabilisticGraph> db;
  ProbabilisticMatrixIndex pmi;
  std::vector<Graph> certain;
  StructuralFilter filter;
};

BatchSetup BuildBatchSetup(uint64_t seed, size_t n) {
  BatchSetup s;
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

TEST(AnswerCacheBatchTest, RepeatedBatchesHitAndMutationsInvalidate) {
  BatchSetup s = BuildBatchSetup(8009, 8);
  auto extra_gen = [&] {
    SyntheticOptions gen;
    gen.num_graphs = 1;
    gen.avg_vertices = 9;
    gen.num_vertex_labels = 4;
    gen.seed = 8011;
    return GenerateDatabase(gen).value()[0];
  };
  const ProbabilisticGraph extra = extra_gen();
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);

  QueryOptions options;
  options.delta = 1;
  options.epsilon = 0.3;
  options.seed = 11;
  const std::vector<Graph> queries = {s.db[0].certain(), s.db[3].certain(),
                                      s.db[6].certain()};
  AnswerCache answer_cache;
  BatchOptions batch;
  batch.num_threads = 1;  // deterministic hit/miss split
  batch.answer_cache = &answer_cache;

  // Pass 1: all misses, cache fills.
  BatchStats stats1;
  const auto run1 = processor.QueryBatch(queries, options, batch, &stats1);
  EXPECT_EQ(stats1.answer_cache_hits, 0u);
  EXPECT_EQ(stats1.answer_cache_misses, queries.size());
  EXPECT_EQ(answer_cache.size(), queries.size());

  // Pass 2: every query served from cache, answers bit-identical, stage
  // counters prove the pipeline was skipped.
  BatchStats stats2;
  const auto run2 = processor.QueryBatch(queries, options, batch, &stats2);
  EXPECT_EQ(stats2.answer_cache_hits, queries.size());
  EXPECT_EQ(stats2.answer_cache_misses, 0u);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    ASSERT_TRUE(run2[qi].status.ok());
    EXPECT_EQ(run2[qi].answers, run1[qi].answers) << "query " << qi;
    EXPECT_TRUE(run2[qi].stats.answer_cache_hit);
    EXPECT_EQ(run2[qi].stats.structural_candidates, 0u);
    EXPECT_EQ(run2[qi].stats.verification_candidates, 0u);
  }

  // Mutate (add then remove the same graph): the epoch moves, so every
  // cached answer is stale — zero hits, and the recomputed answers match
  // pass 1 exactly (the round trip is answer-preserving).
  const uint64_t epoch_before = processor.epoch();
  auto id = processor.AddGraph(extra, 99);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(processor.RemoveGraph(*id).ok());
  EXPECT_GT(processor.epoch(), epoch_before);

  BatchStats stats3;
  const auto run3 = processor.QueryBatch(queries, options, batch, &stats3);
  EXPECT_EQ(stats3.answer_cache_hits, 0u);
  EXPECT_EQ(stats3.answer_cache_stale, queries.size());
  EXPECT_EQ(stats3.answer_cache_misses, queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    ASSERT_TRUE(run3[qi].status.ok());
    EXPECT_EQ(run3[qi].answers, run1[qi].answers) << "query " << qi;
    EXPECT_FALSE(run3[qi].stats.answer_cache_hit);
  }

  // Pass 4: refilled under the new epoch, hits resume.
  BatchStats stats4;
  const auto run4 = processor.QueryBatch(queries, options, batch, &stats4);
  EXPECT_EQ(stats4.answer_cache_hits, queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    EXPECT_EQ(run4[qi].answers, run1[qi].answers);
  }
}

TEST(AnswerCacheBatchTest, MultiWorkerBatchUsesTheCacheToo) {
  BatchSetup s = BuildBatchSetup(8017, 8);
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);
  QueryOptions options;
  options.delta = 1;
  options.epsilon = 0.3;
  options.seed = 13;
  const std::vector<Graph> queries = {s.db[1].certain(), s.db[2].certain(),
                                      s.db[5].certain(), s.db[7].certain()};
  AnswerCache answer_cache;
  BatchOptions batch;
  batch.num_threads = 3;
  batch.answer_cache = &answer_cache;

  const auto run1 = processor.QueryBatch(queries, options, batch);
  BatchStats stats2;
  const auto run2 = processor.QueryBatch(queries, options, batch, &stats2);
  EXPECT_EQ(stats2.answer_cache_hits, queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    ASSERT_TRUE(run2[qi].status.ok());
    EXPECT_EQ(run2[qi].answers, run1[qi].answers) << "query " << qi;
  }
}

TEST(AnswerCacheBatchTest, CacheOffIsUnchangedBehavior) {
  BatchSetup s = BuildBatchSetup(8021, 6);
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);
  QueryOptions options;
  options.delta = 1;
  options.epsilon = 0.3;
  const std::vector<Graph> queries = {s.db[0].certain(), s.db[2].certain()};
  AnswerCache answer_cache;
  BatchOptions with_cache;
  with_cache.num_threads = 1;
  with_cache.answer_cache = &answer_cache;
  BatchOptions without_cache;
  without_cache.num_threads = 1;

  const auto cold = processor.QueryBatch(queries, options, without_cache);
  processor.QueryBatch(queries, options, with_cache);  // fill
  const auto warm = processor.QueryBatch(queries, options, with_cache);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    EXPECT_EQ(warm[qi].answers, cold[qi].answers) << "query " << qi;
  }
}

}  // namespace
}  // namespace pgsim
