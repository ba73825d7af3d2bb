// End-to-end golden test of the full offline + online pipeline over a seeded
// synthetic database: mine -> build PMI -> build StructuralFilter -> relax ->
// filter -> prune -> verify. The answer sets below were produced by this
// exact configuration and are pinned so refactors of the offline phase (or
// of batching/caching) cannot silently change results. Every stage is
// deterministic by construction — seeded RNGs, order-preserving parallel
// merges — so these values are stable across entry points, scheduler
// widths and batches whose duplicates share one compiled query.
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
  // move an answer) — for the query list as is and for a batch holding
  // every query twice (the second copy shares the first one's compiled
  // query).
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

  QueryContext ctx;
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryStats stats;
    const auto answers = processor.Query(queries[i], options, &ctx, &stats);
    ASSERT_TRUE(answers.ok()) << "query " << i;
    expect_golden(i, *answers, stats, "Query(ctx)");
  }

  for (const bool duplicated : {false, true}) {
    // Duplicated layout: [q0, q0, q1, q1, ...]; slot j holds query
    // j / copies.
    const size_t copies = duplicated ? 2 : 1;
    std::vector<Graph> batch_queries;
    for (const Graph& q : queries) {
      for (size_t c = 0; c < copies; ++c) batch_queries.push_back(q);
    }
    for (const uint32_t width : {1u, 4u}) {
      for (const bool caller_owned : {false, true}) {
        TaskScheduler sched(width);
        BatchOptions batch;
        if (caller_owned) {
          batch.stealer = &sched;
        } else {
          batch.num_threads = width;
        }
        BatchStats batch_stats;
        const auto results =
            processor.QueryBatch(batch_queries, options, batch, &batch_stats);
        ASSERT_EQ(results.size(), batch_queries.size());
        EXPECT_EQ(batch_stats.compiled_cache_hits +
                      batch_stats.compiled_cache_misses,
                  batch_queries.size());
        const std::string where =
            "QueryBatch width=" + std::to_string(width) +
            " caller_owned=" + std::to_string(caller_owned) +
            " duplicated=" + std::to_string(duplicated);
        for (size_t j = 0; j < results.size(); ++j) {
          ASSERT_TRUE(results[j].status.ok()) << "slot " << j;
          expect_golden(j / copies, results[j].answers, results[j].stats,
                        where + " slot=" + std::to_string(j));
        }
      }
    }
  }
}

}  // namespace
}  // namespace pgsim
