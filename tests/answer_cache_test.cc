// Tests for the cross-batch AnswerCache: probe/store mechanics, exact
// epoch-based invalidation (mutations can never leak stale answers),
// separate entries for isomorphic-but-relabeled queries, LRU eviction, and
// the QueryProcessor/QueryBatch/ServingCore integration including the
// BatchStats counter deltas and highly symmetric queries.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "pgsim/datasets/synthetic.h"
#include "pgsim/graph/vf2.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/answer_cache.h"
#include "pgsim/query/processor.h"
#include "pgsim/query/structural_filter.h"
#include "pgsim/serving/serving_core.h"

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

TEST(AnswerCacheTest, IsomorphicRelabelingKeepsItsOwnEntry) {
  // Same isomorphism class, different vertex order: sampled verdicts may
  // differ, so a relabeling is never served its sibling's answers — and
  // storing it must not evict the sibling either.
  AnswerCache cache;
  const Graph q1 = Triangle(0, 1, 2);
  const Graph q2 = Triangle(2, 1, 0);  // isomorphic, different labeling
  ASSERT_TRUE(AreIsomorphic(q1, q2));
  const AnswerCache::Probe p1 = cache.Find(q1, "fp", 0);
  cache.Store(p1, 0, {4});

  const AnswerCache::Probe p2 = cache.Find(q2, "fp", 0);
  EXPECT_FALSE(p2.hit);
  EXPECT_NE(p2.key, p1.key);
  cache.Store(p2, 0, {5});
  EXPECT_EQ(cache.size(), 2u);

  const AnswerCache::Probe again1 = cache.Find(q1, "fp", 0);
  ASSERT_TRUE(again1.hit);
  EXPECT_EQ(*again1.answers, (std::vector<uint32_t>{4}));
  const AnswerCache::Probe again2 = cache.Find(q2, "fp", 0);
  ASSERT_TRUE(again2.hit);
  EXPECT_EQ(*again2.answers, (std::vector<uint32_t>{5}));
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
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
  const QueryOptions base;
  const std::string base_fp = QueryOptionsFingerprint(base);
  EXPECT_EQ(QueryOptionsFingerprint(QueryOptions(base)), base_fp);
  // Every settable QueryOptions value, each changed alone: all of them can
  // change the answer set, so each must move the fingerprint.
  using Tweak = void (*)(QueryOptions*);
  const std::vector<std::pair<const char*, Tweak>> tweaks = {
      {"delta", [](QueryOptions* o) { o->delta += 1; }},
      {"epsilon", [](QueryOptions* o) { o->epsilon = 0.75; }},
      {"relax.max_combinations",
       [](QueryOptions* o) { o->relax.max_combinations += 1; }},
      {"relax.max_relaxed_graphs",
       [](QueryOptions* o) { o->relax.max_relaxed_graphs += 1; }},
      {"pruner.selection",
       [](QueryOptions* o) { o->pruner.selection = BoundSelection::kRandom; }},
      {"pruner.sip_variant",
       [](QueryOptions* o) { o->pruner.sip_variant = SipVariant::kSimple; }},
      {"pruner.lsim.gradient_iterations",
       [](QueryOptions* o) { o->pruner.lsim.gradient_iterations += 1; }},
      {"pruner.lsim.projection_sweeps",
       [](QueryOptions* o) { o->pruner.lsim.projection_sweeps += 1; }},
      {"pruner.lsim.rounding_factor",
       [](QueryOptions* o) { o->pruner.lsim.rounding_factor += 0.5; }},
      {"verifier.mc.xi", [](QueryOptions* o) { o->verifier.mc.xi = 0.2; }},
      {"verifier.mc.tau", [](QueryOptions* o) { o->verifier.mc.tau = 0.2; }},
      {"verifier.mc.min_samples",
       [](QueryOptions* o) { o->verifier.mc.min_samples += 1; }},
      {"verifier.mc.max_samples",
       [](QueryOptions* o) { o->verifier.mc.max_samples += 1; }},
      {"verifier.adaptive",
       [](QueryOptions* o) { o->verifier.adaptive = !o->verifier.adaptive; }},
      {"verifier.max_embeddings_per_rq",
       [](QueryOptions* o) { o->verifier.max_embeddings_per_rq += 1; }},
      {"verifier.max_total_embeddings",
       [](QueryOptions* o) { o->verifier.max_total_embeddings += 1; }},
      {"verifier.exact.max_terms",
       [](QueryOptions* o) { o->verifier.exact.max_terms += 1; }},
      {"verifier.exact.max_shannon_nodes",
       [](QueryOptions* o) { o->verifier.exact.max_shannon_nodes += 1; }},
      {"verify_mode",
       [](QueryOptions* o) {
         o->verify_mode = QueryOptions::VerifyMode::kExact;
       }},
      {"seed", [](QueryOptions* o) { o->seed += 1; }},
  };
  ASSERT_EQ(tweaks.size(), 20u);
  std::set<std::string> seen = {base_fp};
  for (const auto& [name, tweak] : tweaks) {
    QueryOptions changed = base;
    tweak(&changed);
    const std::string fp = QueryOptionsFingerprint(changed);
    EXPECT_NE(fp, base_fp) << name;
    EXPECT_TRUE(seen.insert(fp).second) << name;
  }
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

TEST(AnswerCacheBatchTest, SymmetricQueryIsCachedInBatchAndServing) {
  // A single-label cycle has a huge automorphism group — the worst case for
  // a canonical-form key. The exact key is linear in its size, so the query
  // caches like any other: the second batch and the repeated Submit are
  // answered from the cache.
  BatchSetup s = BuildBatchSetup(8027, 6);
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);
  const Graph& source = s.db[0].certain();
  ASSERT_GT(source.NumEdges(), 0u);
  const LabelId vertex_label = source.VertexLabel(0);
  const LabelId edge_label = source.Edges()[0].label;
  GraphBuilder builder;
  constexpr uint32_t kCycle = 16;
  for (uint32_t v = 0; v < kCycle; ++v) builder.AddVertex(vertex_label);
  for (uint32_t v = 0; v < kCycle; ++v) {
    ASSERT_TRUE(builder.AddEdge(v, (v + 1) % kCycle, edge_label).ok());
  }
  const Graph cycle = builder.Build();

  QueryOptions options;
  options.delta = 1;
  options.epsilon = 0.3;
  AnswerCache batch_cache;
  BatchOptions batch;
  batch.num_threads = 1;
  batch.answer_cache = &batch_cache;
  BatchStats stats1;
  const auto run1 = processor.QueryBatch({cycle}, options, batch, &stats1);
  ASSERT_TRUE(run1[0].status.ok());
  EXPECT_EQ(stats1.answer_cache_misses, 1u);
  EXPECT_EQ(batch_cache.size(), 1u);  // cacheable: the answer was stored
  BatchStats stats2;
  const auto run2 = processor.QueryBatch({cycle}, options, batch, &stats2);
  ASSERT_TRUE(run2[0].status.ok());
  EXPECT_EQ(stats2.answer_cache_hits, 1u);
  EXPECT_TRUE(run2[0].stats.answer_cache_hit);
  EXPECT_EQ(run2[0].answers, run1[0].answers);

  AnswerCache serving_cache;
  ServingOptions so;
  so.num_threads = 1;
  so.query = options;
  so.answer_cache = &serving_cache;
  ServingCore core(&processor, so);
  QueryTicket t1 = core.Submit(cycle);
  const ServeResult& r1 = t1.Wait();
  ASSERT_TRUE(r1.status.ok());
  EXPECT_FALSE(r1.stats.answer_cache_hit);
  EXPECT_EQ(r1.answers, run1[0].answers);
  QueryTicket t2 = core.Submit(cycle);
  const ServeResult& r2 = t2.Wait();
  ASSERT_TRUE(r2.status.ok());
  EXPECT_TRUE(r2.stats.answer_cache_hit);
  EXPECT_EQ(r2.answers, r1.answers);
  core.Shutdown();
  EXPECT_EQ(core.stats().answer_cache_hits, 1u);
}

}  // namespace
}  // namespace pgsim
