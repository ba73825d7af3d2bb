// Equivalence suite for PR 4's columnar filter/prune engine.
//
//   * Filter(): survivors of the feature-major bitset sweep must be
//     bit-identical to a per-graph reference evaluation of the same
//     thresholds (including saturated 0xFFFF cells, which never prune);
//   * the exact check's label-multiset/size guard and ascending-edge rq
//     order must not change SCq (cross-checked against an unguarded,
//     unordered VF2 loop);
//   * ProbabilisticPruner: the columnar bound-program path must produce
//     bit-identical PruneDecision streams AND leave the RNG in the same
//     state as the allocating oracle (tests/oracles/pruner_reference.h), for
//     both BoundSelection x both SipVariant, several delta/epsilon points,
//     and duplicated batches whose copies share one compiled query;
//   * steady state: a second pruning pass over the same candidates performs
//     no scratch growth (mirrors verifier_engine_test's pool pin).

#include <gtest/gtest.h>

#include "oracles/pruner_reference.h"
#include "pgsim/datasets/synthetic.h"
#include "pgsim/graph/relaxation.h"
#include "pgsim/graph/vf2.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/prob_pruner.h"
#include "pgsim/query/processor.h"
#include "pgsim/query/structural_filter.h"

namespace pgsim {
namespace {

struct Fixture {
  std::vector<ProbabilisticGraph> db;
  std::vector<Graph> certain;
  ProbabilisticMatrixIndex pmi;
};

Fixture MakeFixture(uint64_t seed, size_t num_graphs = 12) {
  SyntheticOptions options;
  options.num_graphs = num_graphs;
  options.avg_vertices = 9;
  options.edge_factor = 1.3;
  options.num_vertex_labels = 3;
  options.seed = seed;
  Fixture fx;
  fx.db = GenerateDatabase(options).value();
  for (const auto& g : fx.db) fx.certain.push_back(g.certain());
  PmiBuildOptions build;
  build.miner.alpha = 0.0;
  build.miner.beta = 0.2;
  build.miner.gamma = -1.0;
  build.miner.max_vertices = 3;
  build.sip.mc.min_samples = 400;
  build.sip.mc.max_samples = 400;
  fx.pmi = ProbabilisticMatrixIndex::Build(fx.db, build).value();
  return fx;
}

// Reference count filter: the pre-columnar per-graph inner loop over
// thresholds, rebuilt from the public count matrix.
std::vector<uint32_t> ReferenceCountFilter(const StructuralFilter& filter,
                                           const QueryFeatureCounts& counts,
                                           uint32_t delta) {
  std::vector<std::pair<uint32_t, uint32_t>> thresholds;
  for (const QueryFeatureCounts::Entry& entry : counts.entries) {
    const uint64_t destroyed = uint64_t{delta} * entry.max_per_edge;
    if (entry.count > destroyed) {
      thresholds.emplace_back(entry.feature,
                              static_cast<uint32_t>(entry.count - destroyed));
    }
  }
  std::vector<uint32_t> survivors;
  for (uint32_t gi = 0; gi < filter.num_graphs(); ++gi) {
    bool pruned = false;
    for (const auto& [feature, needed] : thresholds) {
      const uint16_t have = filter.CountAt(feature, gi);
      if (have == 0xFFFF) continue;  // saturated: unknown, cannot prune
      if (have < needed) {
        pruned = true;
        break;
      }
    }
    if (!pruned) survivors.push_back(gi);
  }
  return survivors;
}

class ColumnarFilterTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ColumnarFilterTest, CountSweepMatchesReference) {
  const uint64_t seed = GetParam();
  Fixture fx = MakeFixture(seed);
  // max_count = 2 forces saturated cells (0xFFFF) on common features, so
  // the "saturated never prunes" rule is exercised, not just dodged.
  for (const uint32_t max_count : {64u, 2u}) {
    StructuralFilterOptions options;
    options.max_count = max_count;
    options.exact_check = false;  // isolate the count sweep
    const StructuralFilter filter =
        StructuralFilter::Build(fx.certain, fx.pmi.features(), options);
    if (max_count == 2) {
      size_t saturated = 0;
      for (uint16_t c : filter.counts()) saturated += (c == 0xFFFF);
      EXPECT_GT(saturated, 0u) << "fixture must exercise saturated cells";
    }
    Rng rng(seed + 17);
    for (int trial = 0; trial < 4; ++trial) {
      for (const uint32_t delta : {0u, 1u, 2u}) {
        auto q = ExtractQuery(fx.certain[rng.Uniform(fx.certain.size())],
                              delta + 3, &rng);
        if (!q.ok()) continue;
        auto relaxed = GenerateRelaxedQueries(*q, delta);
        ASSERT_TRUE(relaxed.ok());
        const auto survivors = filter.Filter(*q, *relaxed, delta);
        const auto expected =
            ReferenceCountFilter(filter, filter.ComputeQueryCounts(*q), delta);
        EXPECT_EQ(survivors, expected)
            << "seed=" << seed << " trial=" << trial << " delta=" << delta
            << " max_count=" << max_count;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ColumnarFilterTest,
                         ::testing::Values(7001ULL, 7003ULL, 7005ULL));

TEST(ColumnarFilterTest, ExactCheckGuardsPreserveSurvivors) {
  Fixture fx = MakeFixture(7011);
  const StructuralFilter filter =
      StructuralFilter::Build(fx.certain, fx.pmi.features());
  StructuralFilterOptions count_only;
  count_only.exact_check = false;
  const StructuralFilter count_filter =
      StructuralFilter::Build(fx.certain, fx.pmi.features(), count_only);
  Rng rng(7012);
  int checked = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const uint32_t delta = trial % 3;
    auto q = ExtractQuery(fx.certain[rng.Uniform(fx.certain.size())],
                          delta + 3, &rng);
    if (!q.ok()) continue;
    auto relaxed = GenerateRelaxedQueries(*q, delta);
    ASSERT_TRUE(relaxed.ok());
    StructuralFilterStats stats;
    const auto survivors = filter.Filter(*q, *relaxed, delta, &stats);
    // Reference: unguarded VF2 over the count-filter survivors in input
    // order. The guard and the ascending-edge visit order may only skip
    // tests, never flip a survivor.
    std::vector<uint32_t> expected;
    for (uint32_t gi : count_filter.Filter(*q, *relaxed, delta)) {
      for (const Graph& rq : *relaxed) {
        if (IsSubgraphIsomorphic(rq, fx.certain[gi])) {
          expected.push_back(gi);
          break;
        }
      }
    }
    EXPECT_EQ(survivors, expected) << "trial=" << trial;
    ++checked;
  }
  EXPECT_GE(checked, 4);
}

struct PrunerCase {
  BoundSelection selection;
  SipVariant sip;
};

class ColumnarPrunerTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(ColumnarPrunerTest, DecisionStreamAndRngMatchReference) {
  const auto [seed, case_index] = GetParam();
  static const PrunerCase cases[] = {
      {BoundSelection::kOptimized, SipVariant::kOpt},
      {BoundSelection::kOptimized, SipVariant::kSimple},
      {BoundSelection::kRandom, SipVariant::kOpt},
      {BoundSelection::kRandom, SipVariant::kSimple},
  };
  const PrunerCase& pc = cases[case_index];
  Fixture fx = MakeFixture(seed);
  ProbPrunerOptions options;
  options.selection = pc.selection;
  options.sip_variant = pc.sip;
  ProbabilisticPruner pruner(&fx.pmi, options);
  Rng qrng(seed + 31);
  PrunerScratch scratch;
  for (const uint32_t delta : {0u, 1u}) {
    auto q = ExtractQuery(fx.certain[qrng.Uniform(fx.certain.size())],
                          delta + 3, &qrng);
    if (!q.ok()) continue;
    auto relaxed = GenerateRelaxedQueries(*q, delta);
    ASSERT_TRUE(relaxed.ok());
    pruner.PrepareQuery(*relaxed);
    const PreparedQueryRelations& prepared = *pruner.SharePrepared();
    for (const double epsilon : {0.1, 0.5, 0.9, 2.0}) {
      // Same-seeded RNG pair: decisions AND the post-evaluation RNG state
      // must agree graph by graph (the processor's verification stage forks
      // from this stream, so any divergence would change answers).
      Rng ref_rng(seed ^ 0xABCD);
      Rng col_rng(seed ^ 0xABCD);
      for (uint32_t gi = 0; gi < fx.db.size(); ++gi) {
        const PruneDecision ref = EvaluatePrunerReference(
            fx.pmi, options, prepared, gi, epsilon, &ref_rng);
        const PruneDecision col =
            pruner.Evaluate(gi, epsilon, &col_rng, &scratch);
        EXPECT_EQ(static_cast<int>(ref.outcome), static_cast<int>(col.outcome))
            << "graph " << gi << " eps=" << epsilon << " delta=" << delta;
        EXPECT_EQ(ref.usim, col.usim) << "graph " << gi;
        EXPECT_EQ(ref.lsim, col.lsim) << "graph " << gi;
        EXPECT_EQ(ref_rng.Next(), col_rng.Next()) << "graph " << gi;
      }
      // Bounds too: the oracle at epsilon 2.0 computes what Bounds reports.
      Rng ref_rng2(seed ^ 0x1234);
      Rng col_rng2(seed ^ 0x1234);
      for (uint32_t gi = 0; gi < fx.db.size(); ++gi) {
        const PruneDecision ref = EvaluatePrunerReference(
            fx.pmi, options, prepared, gi, 2.0, &ref_rng2);
        const PruneDecision col = pruner.Bounds(gi, &col_rng2, &scratch);
        EXPECT_EQ(ref.usim, col.usim) << "graph " << gi;
        EXPECT_EQ(ref.lsim, col.lsim) << "graph " << gi;
        EXPECT_EQ(ref_rng2.Next(), col_rng2.Next()) << "graph " << gi;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ColumnarPrunerTest,
    ::testing::Combine(::testing::Values(7101ULL, 7103ULL),
                       ::testing::Values(0, 1, 2, 3)));

TEST(ColumnarPrunerTest, PreparedFromCacheCarriesTheProgram) {
  // A pruner fed relations through the cache tier must evaluate exactly like
  // the pruner that computed them (the compiled program rides along).
  Fixture fx = MakeFixture(7111);
  ProbPrunerOptions options;
  ProbabilisticPruner fresh(&fx.pmi, options);
  Rng qrng(7112);
  auto q = ExtractQuery(fx.certain[0], 4, &qrng);
  ASSERT_TRUE(q.ok());
  auto relaxed = GenerateRelaxedQueries(*q, 1);
  ASSERT_TRUE(relaxed.ok());
  fresh.PrepareQuery(*relaxed);
  EXPECT_GT(fresh.prepare_isomorphism_tests(), 0u);

  ProbabilisticPruner cached(&fx.pmi, options);
  cached.PrepareFromCache(fresh.SharePrepared());
  EXPECT_EQ(cached.prepare_isomorphism_tests(), 0u);

  PrunerScratch s1, s2;
  Rng r1(99), r2(99);
  for (uint32_t gi = 0; gi < fx.db.size(); ++gi) {
    const PruneDecision a = fresh.Evaluate(gi, 0.5, &r1, &s1);
    const PruneDecision b = cached.Evaluate(gi, 0.5, &r2, &s2);
    EXPECT_EQ(a.usim, b.usim);
    EXPECT_EQ(a.lsim, b.lsim);
    EXPECT_EQ(static_cast<int>(a.outcome), static_cast<int>(b.outcome));
  }
}

TEST(ColumnarPrunerTest, SecondPassPerformsNoScratchGrowth) {
  // After one sweep over every candidate the scratch has seen the largest
  // gather/solve shapes, so a second identical sweep must not grow any
  // buffer — the zero-steady-state-allocation pin for the per-candidate
  // path (mirrors verifier_engine_test's pool capacity check).
  Fixture fx = MakeFixture(7121, /*num_graphs=*/16);
  for (const BoundSelection selection :
       {BoundSelection::kOptimized, BoundSelection::kRandom}) {
    ProbPrunerOptions options;
    options.selection = selection;
    ProbabilisticPruner pruner(&fx.pmi, options);
    Rng qrng(7122);
    // 3-edge query at delta 2 leaves single-edge rqs, so f² (super) features
    // exist and both pruning bounds do real gather/solve work.
    auto q = ExtractQuery(fx.certain[1], 3, &qrng);
    ASSERT_TRUE(q.ok());
    auto relaxed = GenerateRelaxedQueries(*q, 2);
    ASSERT_TRUE(relaxed.ok());
    pruner.PrepareQuery(*relaxed);
    ASSERT_FALSE(pruner.SharePrepared()->program.lsim_ids.empty())
        << "fixture must exercise the Lsim path";

    PrunerScratch scratch;
    Rng rng(7123);
    // Epsilon 0: Pruning 1 never fires (usim >= 0) so the full Lsim
    // gather/solve runs for every candidate — maximum scratch pressure.
    for (uint32_t gi = 0; gi < fx.db.size(); ++gi) {
      (void)pruner.Evaluate(gi, 0.0, &rng, &scratch);
    }
    const size_t capacity_after_first = scratch.CapacityBytes();
    EXPECT_GT(capacity_after_first, 0u);
    for (int pass = 0; pass < 2; ++pass) {
      for (uint32_t gi = 0; gi < fx.db.size(); ++gi) {
        (void)pruner.Evaluate(gi, 0.0, &rng, &scratch);
      }
    }
    EXPECT_EQ(scratch.CapacityBytes(), capacity_after_first)
        << "selection=" << static_cast<int>(selection);
  }
}

TEST(ColumnarPipelineTest, DuplicatedBatchMatchesSequentialQuery) {
  // End-to-end: the decision stream feeding stage 3 must be identical when
  // a query reuses its duplicate's compiled query (the shared
  // PreparedQueryRelations carries the compiled bound program) — answers
  // and every deterministic counter agree with a cold sequential Query().
  Fixture fx = MakeFixture(7131, /*num_graphs=*/18);
  const StructuralFilter filter =
      StructuralFilter::Build(fx.certain, fx.pmi.features());
  const QueryProcessor processor(&fx.db, &fx.pmi, &filter);
  Rng qrng(7132);
  std::vector<Graph> queries;
  while (queries.size() < 6) {
    auto q = ExtractQuery(fx.certain[qrng.Uniform(fx.certain.size())], 4,
                          &qrng);
    if (q.ok()) {
      queries.push_back(*q);
      queries.push_back(std::move(q).value());  // duplicate: shares compile
    }
  }
  for (const double epsilon : {0.2, 0.5}) {
    QueryOptions options;
    options.delta = 1;
    options.epsilon = epsilon;
    options.verifier.mc.min_samples = 200;
    options.verifier.mc.max_samples = 200;
    std::vector<std::vector<uint32_t>> reference;
    std::vector<QueryStats> reference_stats;
    for (const Graph& q : queries) {
      QueryStats stats;
      const auto answers = processor.Query(q, options, &stats);
      ASSERT_TRUE(answers.ok());
      reference.push_back(*answers);
      reference_stats.push_back(stats);
    }
    for (const uint32_t width : {1u, 4u}) {
      BatchOptions batch;
      batch.num_threads = width;
      const auto results = processor.QueryBatch(queries, options, batch);
      ASSERT_EQ(results.size(), reference.size());
      for (size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].status.ok());
        EXPECT_EQ(results[i].answers, reference[i])
            << "query " << i << " eps=" << epsilon << " width=" << width;
        EXPECT_EQ(results[i].stats.structural_candidates,
                  reference_stats[i].structural_candidates);
        EXPECT_EQ(results[i].stats.pruned_by_upper,
                  reference_stats[i].pruned_by_upper);
        EXPECT_EQ(results[i].stats.accepted_by_lower,
                  reference_stats[i].accepted_by_lower);
        EXPECT_EQ(results[i].stats.verification_candidates,
                  reference_stats[i].verification_candidates);
      }
    }
  }
}

}  // namespace
}  // namespace pgsim
