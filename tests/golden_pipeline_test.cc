// End-to-end golden test of the full offline + online pipeline over a seeded
// synthetic database: mine -> build PMI -> build StructuralFilter -> relax ->
// filter -> prune -> verify. The answer sets below were produced by this
// exact configuration and are pinned so refactors of the offline phase (or
// of batching/caching) cannot silently change results. Every stage is
// deterministic by construction — seeded RNGs, order-preserving parallel
// merges — so these values are stable across entry points, scheduler
// widths and cache modes.
//
// If a change legitimately alters them (e.g. a new mining rule), re-pin by
// rerunning this configuration and updating kGolden* — and say so in the
// commit message; these numbers are the pipeline's contract.

#include <gtest/gtest.h>

#include <string>

#include "pgsim/common/task_scheduler.h"
#include "pgsim/datasets/synthetic.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/processor.h"
#include "pgsim/query/structural_filter.h"

namespace pgsim {
namespace {

constexpr size_t kGoldenNumFeatures = 93;
constexpr size_t kGoldenNumEntries = 690;

struct GoldenQuery {
  std::vector<uint32_t> answers;
  size_t structural_candidates;
  size_t verification_candidates;
  size_t num_relaxed_queries;
};

// Re-pinned for PR 3's verification engine: stage 3 now pre-forks one RNG
// per candidate (instead of drawing candidates sequentially from the query
// RNG) and the Karp-Luby sampler is support-restricted with a
// descending-marginal event order and a draw-free position-0 shortcut, so
// the draw sequence — and one near-threshold verdict (query 4 gained graph
// 3) — legitimately changed. The estimates still concentrate on the same
// SSPs (verifier_engine_test pins sampled-vs-exact agreement).
const std::vector<GoldenQuery>& GoldenQueries() {
  static const std::vector<GoldenQuery> golden{
      {{2, 3, 6, 8, 13, 18}, 10, 7, 4},
      {{}, 7, 2, 3},
      {{0, 2, 3, 4, 5, 8, 16}, 13, 10, 4},
      {{13}, 9, 9, 4},
      {{0, 2, 3, 4, 5, 8, 16}, 13, 10, 4},
      {{10}, 3, 2, 4},
  };
  return golden;
}

TEST(GoldenPipelineTest, FullPipelineAnswersArePinned) {
  SyntheticOptions dataset;
  dataset.num_graphs = 20;
  dataset.avg_vertices = 9;
  dataset.edge_factor = 1.4;
  dataset.num_vertex_labels = 3;
  dataset.seed = 4100;
  const auto db = GenerateDatabase(dataset).value();
  std::vector<Graph> certain;
  for (const auto& g : db) certain.push_back(g.certain());

  PmiBuildOptions build;
  build.miner.alpha = 0.0;
  build.miner.beta = 0.2;
  build.miner.gamma = -1.0;
  build.miner.max_vertices = 4;
  build.sip.mc.min_samples = 400;
  build.sip.mc.max_samples = 400;
  const auto pmi = ProbabilisticMatrixIndex::Build(db, build).value();
  EXPECT_EQ(pmi.stats().num_features, kGoldenNumFeatures);
  EXPECT_EQ(pmi.stats().num_entries, kGoldenNumEntries);
  const auto filter = StructuralFilter::Build(certain, pmi.features());

  Rng qrng(4101);
  std::vector<Graph> queries;
  while (queries.size() < GoldenQueries().size()) {
    auto q = ExtractQuery(certain[qrng.Uniform(certain.size())], 4, &qrng);
    if (q.ok()) queries.push_back(std::move(q).value());
  }

  QueryOptions options;
  options.delta = 1;
  options.epsilon = 0.4;
  options.verifier.mc.min_samples = 400;
  options.verifier.mc.max_samples = 400;
  const QueryProcessor processor(&db, &pmi, &filter);

  // The pinned values must hold through every entry point — inline Query on
  // one reused QueryContext, and the QueryBatch task graph at widths 1 and 4
  // on an owned or a caller-owned TaskScheduler (the steal schedule must not
  // move an answer) — with the batch cache on or off, and with the signature
  // gate on or off (its cover test is sound, so skipped matcher calls can
  // never change an answer or a pinned candidate count).
  const auto expect_golden = [](size_t i, const std::vector<uint32_t>& answers,
                                const QueryStats& stats,
                                const std::string& where) {
    const GoldenQuery& golden = GoldenQueries()[i];
    EXPECT_EQ(answers, golden.answers) << "query " << i << " " << where;
    EXPECT_EQ(stats.structural_candidates, golden.structural_candidates)
        << i << " " << where;
    EXPECT_EQ(stats.verification_candidates, golden.verification_candidates)
        << i << " " << where;
    EXPECT_EQ(stats.num_relaxed_queries, golden.num_relaxed_queries)
        << i << " " << where;
  };
  for (const bool use_signatures : {true, false}) {
    options.use_signatures = use_signatures;
    const std::string sig = " signatures=" + std::to_string(use_signatures);

    QueryContext ctx;
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryStats stats;
      const auto answers = processor.Query(queries[i], options, &ctx, &stats);
      ASSERT_TRUE(answers.ok()) << "query " << i;
      expect_golden(i, *answers, stats, "Query(ctx)" + sig);
    }

    for (const bool enable_cache : {true, false}) {
      for (const uint32_t width : {1u, 4u}) {
        for (const bool caller_owned : {false, true}) {
          TaskScheduler sched(width);
          BatchOptions batch;
          batch.enable_cache = enable_cache;
          if (caller_owned) {
            batch.stealer = &sched;
          } else {
            batch.num_threads = width;
          }
          const auto results = processor.QueryBatch(queries, options, batch);
          ASSERT_EQ(results.size(), GoldenQueries().size());
          const std::string where =
              "QueryBatch width=" + std::to_string(width) +
              " caller_owned=" + std::to_string(caller_owned) +
              " cache=" + std::to_string(enable_cache) + sig;
          for (size_t i = 0; i < results.size(); ++i) {
            ASSERT_TRUE(results[i].status.ok()) << "query " << i;
            expect_golden(i, results[i].answers, results[i].stats, where);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace pgsim
