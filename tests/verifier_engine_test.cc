// Tests for PR 3's verification engine: the scratch-threaded,
// support-restricted Karp-Luby sampler. (Byte-identical pipeline answers
// with candidates verified in parallel are pinned by task_scheduler_test's
// StealingBatchTest.MatchesSequentialQueryAtEveryWidth and by
// golden_pipeline_test.)
//
//   * sampled-vs-exact agreement within the tau/xi tolerance on small
//     seeded graphs, for partition AND tree (overlapping ne set) models;
//   * steady-state scratch reuse: a second pass over the same workload
//     performs no event-pool growth;
//   * determinism: same RNG state => bit-identical estimate, with a fresh
//     or a dirty reused scratch, and legacy wrapper == scratch API;
//   * the inclusive embedding caps (satellite fix: a relaxed query with
//     exactly max_embeddings_per_rq embeddings, or a candidate with exactly
//     max_total_embeddings events, must NOT error);
//   * BuildEdgeSubsetGraph (the world-enumeration fast path) matches a
//     GraphBuilder-built world;
//   * decision mode (SampleControl::epsilon): accepts and rejects from the
//     exact bounds [max Pr(Bfi), min(V, 1)] with no draw, stops at a look
//     whose interval clears ε, completes when a look lands on the cancel
//     point, and leaves estimator mode at exactly N draws;
//   * decision mode against the world-enumeration oracle: a bound-decided
//     verdict is never on the wrong side of exact SSP vs ε, and on
//     near-threshold instances wrong early decisions stay within ξ.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "pgsim/datasets/synthetic.h"
#include "pgsim/graph/relaxation.h"
#include "pgsim/graph/vf2.h"
#include "pgsim/query/verifier.h"
#include "oracles/exact_probability.h"
#include "test_util.h"

namespace pgsim {
namespace {

using ::pgsim::testing::MakeGraph;
using ::pgsim::testing::MakePath;
using ::pgsim::testing::RandomGraph;
using ::pgsim::testing::RandomProbGraph;

// Overlapping ne sets (kTree): two vertex-anchored groups sharing edge 2.
ProbabilisticGraph MakeTreeModelGraph(Rng* rng) {
  const Graph g = MakeGraph({0, 0, 0, 0},
                            {{0, 1, 0}, {0, 2, 0}, {0, 3, 0}, {2, 3, 0}});
  std::vector<double> w1(8), w2(4);
  for (auto& w : w1) w = 0.05 + rng->UniformDouble();
  for (auto& w : w2) w = 0.05 + rng->UniformDouble();
  NeighborEdgeSet ne1, ne2;
  ne1.edges = {0, 1, 2};
  ne1.table = JointProbTable::FromWeights(w1).value();
  ne2.edges = {2, 3};
  ne2.table = JointProbTable::FromWeights(w2).value();
  auto pg = ProbabilisticGraph::Create(g, {ne1, ne2});
  EXPECT_TRUE(pg.ok());
  EXPECT_EQ(pg->kind(), JointModelKind::kTree);
  return std::move(pg).value();
}

TEST(VerifierEngineTest, SampledMatchesExactWithinTolerance_Partition) {
  Rng rng(9001);
  VerifierOptions options;
  options.mc.xi = 0.05;
  options.mc.tau = 0.03;
  options.mc.max_samples = 50'000;
  VerifierScratch scratch;
  int checked = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = RandomGraph(&rng, 6, 3, 2);
    const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
    const Graph q = RandomGraph(&rng, 4, 1, 2);
    for (uint32_t delta = 0; delta <= 1 && delta < q.NumEdges(); ++delta) {
      auto relaxed = GenerateRelaxedQueries(q, delta);
      ASSERT_TRUE(relaxed.ok());
      auto exact = ExactSubgraphSimilarityProbability(pg, *relaxed, options,
                                                      &scratch);
      ASSERT_TRUE(exact.ok());
      auto smp = SampleSubgraphSimilarityProbability(pg, *relaxed, options,
                                                     &rng, &scratch);
      ASSERT_TRUE(smp.ok());
      EXPECT_NEAR(*smp, *exact, 0.05) << "trial=" << trial
                                      << " delta=" << delta;
      ++checked;
    }
  }
  EXPECT_GT(checked, 4);
}

TEST(VerifierEngineTest, SampledMatchesExactWithinTolerance_TreeModel) {
  Rng rng(9011);
  VerifierOptions options;
  options.mc.xi = 0.05;
  options.mc.tau = 0.03;
  options.mc.max_samples = 50'000;
  VerifierScratch scratch;
  for (int trial = 0; trial < 4; ++trial) {
    const ProbabilisticGraph pg = MakeTreeModelGraph(&rng);
    const Graph q = MakePath(3, 0);
    auto relaxed = GenerateRelaxedQueries(q, 1);
    ASSERT_TRUE(relaxed.ok());
    auto exact = ExactSubgraphSimilarityProbability(pg, *relaxed, options,
                                                    &scratch);
    ASSERT_TRUE(exact.ok());
    auto smp = SampleSubgraphSimilarityProbability(pg, *relaxed, options,
                                                   &rng, &scratch);
    ASSERT_TRUE(smp.ok());
    EXPECT_NEAR(*smp, *exact, 0.05) << "trial=" << trial;
  }
}

TEST(VerifierEngineTest, ScratchReuseAndDeterminism) {
  Rng rng(9021);
  const Graph g = RandomGraph(&rng, 7, 4, 2);
  const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
  const Graph q = RandomGraph(&rng, 4, 1, 2);
  auto relaxed = GenerateRelaxedQueries(q, 1);
  ASSERT_TRUE(relaxed.ok());
  VerifierOptions options;
  options.mc.min_samples = 2000;
  options.mc.max_samples = 2000;

  // Same RNG state => bit-identical estimate, fresh scratch vs dirty reused
  // scratch vs the legacy (scratch-free) wrapper.
  VerifierScratch fresh;
  Rng r1(77);
  auto a = SampleSubgraphSimilarityProbability(pg, *relaxed, options, &r1,
                                               &fresh);
  ASSERT_TRUE(a.ok());
  Rng r2(77);
  auto b = SampleSubgraphSimilarityProbability(pg, *relaxed, options, &r2,
                                               &fresh);  // dirty reuse
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  Rng r3(77);
  auto c = SampleSubgraphSimilarityProbability(pg, *relaxed, options, &r3);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*a, *c);
}

TEST(VerifierEngineTest, SecondPassPerformsNoPoolGrowth) {
  // A small workload of candidates; after one full pass the scratch has
  // seen the largest candidate, so a second pass must not grow the pool.
  SyntheticOptions dataset;
  dataset.num_graphs = 8;
  dataset.avg_vertices = 10;
  dataset.num_vertex_labels = 3;
  dataset.seed = 9031;
  const auto db = GenerateDatabase(dataset).value();
  Rng qrng(9032);
  const Graph q = ExtractQuery(db[0].certain(), 4, &qrng).value();
  auto relaxed = GenerateRelaxedQueries(q, 1);
  ASSERT_TRUE(relaxed.ok());
  VerifierOptions options;
  options.mc.min_samples = 300;
  options.mc.max_samples = 300;

  VerifierScratch scratch;
  Rng rng(9033);
  for (const auto& g : db) {
    (void)SampleSubgraphSimilarityProbability(g, *relaxed, options, &rng,
                                              &scratch);
  }
  const size_t capacity_after_first = scratch.PoolCapacityWords();
  EXPECT_GT(capacity_after_first, 0u);
  for (const auto& g : db) {
    (void)SampleSubgraphSimilarityProbability(g, *relaxed, options, &rng,
                                              &scratch);
  }
  EXPECT_EQ(scratch.PoolCapacityWords(), capacity_after_first);
}

TEST(VerifierEngineTest, PerRqCapIsInclusive) {
  // A single-edge pattern has exactly 4 embeddings in a 5-path: a cap of 4
  // must succeed (the old collector reported truncation at exactly-cap),
  // and a cap of 3 must error.
  Rng rng(9051);
  const Graph target = MakePath(5);
  const ProbabilisticGraph pg = RandomProbGraph(target, &rng);
  const Graph q = MakePath(2);
  auto relaxed = GenerateRelaxedQueries(q, 0);
  ASSERT_TRUE(relaxed.ok());
  VerifierOptions options;

  VerifierScratch scratch;
  options.max_embeddings_per_rq = 4;
  ASSERT_TRUE(CollectSimilarityEvents(pg, *relaxed, options, &scratch).ok());
  EXPECT_EQ(scratch.events.size(), 4u);

  options.max_embeddings_per_rq = 3;
  EXPECT_EQ(CollectSimilarityEvents(pg, *relaxed, options, &scratch).code(),
            StatusCode::kResourceExhausted);
}

TEST(VerifierEngineTest, TotalCapIsInclusive) {
  Rng rng(9053);
  const Graph target = MakePath(5);
  const ProbabilisticGraph pg = RandomProbGraph(target, &rng);
  const Graph q = MakePath(2);
  auto relaxed = GenerateRelaxedQueries(q, 0);
  ASSERT_TRUE(relaxed.ok());
  VerifierOptions options;

  VerifierScratch scratch;
  options.max_total_embeddings = 4;  // exactly the distinct event count
  ASSERT_TRUE(CollectSimilarityEvents(pg, *relaxed, options, &scratch).ok());
  EXPECT_EQ(scratch.events.size(), 4u);

  options.max_total_embeddings = 3;
  EXPECT_EQ(CollectSimilarityEvents(pg, *relaxed, options, &scratch).code(),
            StatusCode::kResourceExhausted);
}

TEST(VerifierEngineTest, DedupTableGrowthKeepsEveryDistinctEvent) {
  // A star with 800 leaves gives a single-edge query exactly 800 distinct
  // one-edge events — enough to force the open-addressing dedup table to
  // grow mid-collection (default table: 1024 slots, grows at the 769th
  // insert). Regression test: growth must not rehash the in-flight row,
  // which used to make the triggering event a "duplicate of itself" and
  // silently drop it.
  constexpr uint32_t kLeaves = 800;
  GraphBuilder builder;
  const VertexId hub = builder.AddVertex(0);
  std::vector<NeighborEdgeSet> ne_sets;
  for (uint32_t i = 0; i < kLeaves; ++i) {
    const VertexId leaf = builder.AddVertex(1);
    auto e = builder.AddEdge(hub, leaf, 0);
    ASSERT_TRUE(e.ok());
    NeighborEdgeSet ne;
    ne.edges = {*e};
    ne.table = JointProbTable::Independent({0.5}).value();
    ne_sets.push_back(std::move(ne));
  }
  auto pg = ProbabilisticGraph::Create(builder.Build(), std::move(ne_sets));
  ASSERT_TRUE(pg.ok());
  const Graph q = MakeGraph({0, 1}, {{0, 1, 0}});
  VerifierOptions options;
  options.max_embeddings_per_rq = 0;  // uncapped (also pins 0's meaning)
  options.max_total_embeddings = 4096;
  VerifierScratch scratch;
  ASSERT_TRUE(CollectSimilarityEvents(*pg, {q}, options, &scratch).ok());
  EXPECT_EQ(scratch.events.size(), kLeaves);
}

TEST(VerifierEngineTest, BuildEdgeSubsetGraphMatchesBuilder) {
  Rng rng(9061);
  const Graph base = RandomGraph(&rng, 8, 6, 3);
  Graph reused;
  for (int trial = 0; trial < 20; ++trial) {
    EdgeBitset present(base.NumEdges());
    for (EdgeId e = 0; e < base.NumEdges(); ++e) {
      if (rng.Bernoulli(0.5)) present.Set(e);
    }
    // Reference: the old per-world GraphBuilder path.
    GraphBuilder builder;
    for (VertexId v = 0; v < base.NumVertices(); ++v) {
      builder.AddVertex(base.VertexLabel(v));
    }
    for (uint32_t e : present.ToVector()) {
      const Edge& edge = base.GetEdge(e);
      ASSERT_TRUE(builder.AddEdge(edge.u, edge.v, edge.label).ok());
    }
    const Graph expected = builder.Build();

    BuildEdgeSubsetGraph(base, present, &reused);  // storage reused per trial
    ASSERT_EQ(reused.NumVertices(), expected.NumVertices());
    ASSERT_EQ(reused.NumEdges(), expected.NumEdges());
    EXPECT_EQ(reused.VertexLabels(), expected.VertexLabels());
    EXPECT_EQ(reused.AdjOffsets(), expected.AdjOffsets());
    for (EdgeId e = 0; e < reused.NumEdges(); ++e) {
      EXPECT_EQ(reused.GetEdge(e).u, expected.GetEdge(e).u);
      EXPECT_EQ(reused.GetEdge(e).v, expected.GetEdge(e).v);
      EXPECT_EQ(reused.GetEdge(e).label, expected.GetEdge(e).label);
    }
    for (VertexId v = 0; v < reused.NumVertices(); ++v) {
      const auto a = reused.Neighbors(v);
      const auto b = expected.Neighbors(v);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].neighbor, b[i].neighbor);
        EXPECT_EQ(a[i].edge, b[i].edge);
      }
    }
  }
}

// --- Decision mode -----------------------------------------------------------

// A tiny random instance: a partition-model graph and a 4-vertex query
// relaxed at delta = 1, small enough for world enumeration.
struct Instance {
  ProbabilisticGraph pg;
  Graph q;
  std::vector<Graph> relaxed;
  double max_marginal = 0.0;  ///< max Pr(Bfi) over the absorbed events
  double v = 0.0;             ///< V = sum Pr(Bfi)
};

constexpr uint32_t kDelta = 1;

Instance RandomInstance(Rng* rng) {
  const Graph g = RandomGraph(rng, 6, 3, 2);
  Instance in{RandomProbGraph(g, rng), RandomGraph(rng, 4, 1, 2), {}};
  in.relaxed = GenerateRelaxedQueries(in.q, kDelta).value();
  // An estimator run leaves the absorbed events' marginals in the scratch.
  VerifierScratch scratch;
  Rng draws(1);
  EXPECT_TRUE(SampleSubgraphSimilarityProbabilityAnytime(
                  in.pg, in.relaxed, VerifierOptions(), &draws, &scratch)
                  .ok());
  for (size_t i = 0; i < scratch.events.size(); ++i) {
    in.max_marginal = std::max(in.max_marginal, scratch.marginals[i]);
    in.v += scratch.marginals[i];
  }
  return in;
}

SampleOutcome Decide(const Instance& in, double epsilon, uint64_t seed,
                     uint64_t cancel_after_draws = 0) {
  SampleControl control;
  control.epsilon = epsilon;
  control.cancel_after_draws = cancel_after_draws;
  VerifierScratch scratch;
  Rng rng(seed);
  return SampleSubgraphSimilarityProbabilityAnytime(
             in.pg, in.relaxed, VerifierOptions(), &rng, &scratch, nullptr,
             control)
      .value();
}

double ExactSsp(const Instance& in) {
  return ExactSspByWorldEnumeration(in.pg, in.q, kDelta).value();
}

// Well-formed and consistent: lo <= estimate <= hi inside [0, 1].
void ExpectOrdered(const SampleOutcome& out) {
  EXPECT_LE(0.0, out.lo);
  EXPECT_LE(out.lo, out.estimate);
  EXPECT_LE(out.estimate, out.hi);
  EXPECT_LE(out.hi, 1.0);
}

TEST(VerifierDecisionTest, BoundAcceptAndBoundRejectTakeNoDraw) {
  Rng rng(9071);
  bool accepted = false;
  bool rejected = false;
  for (int trial = 0; trial < 200 && !(accepted && rejected); ++trial) {
    const Instance in = RandomInstance(&rng);
    // Two or more events with V < 1: the bounds leave a gap on both sides.
    if (in.max_marginal <= 0.0 || in.v >= 1.0 || in.max_marginal >= in.v) {
      continue;
    }
    const double exact = ExactSsp(in);
    if (!accepted) {
      // max Pr(Bfi) >= ε: accepted before the first draw.
      const double epsilon = in.max_marginal;
      const SampleOutcome out = Decide(in, epsilon, 5);
      EXPECT_TRUE(out.completed);
      EXPECT_TRUE(out.decided_early);
      EXPECT_EQ(out.drawn, 0u);
      ExpectOrdered(out);
      EXPECT_GE(out.estimate, epsilon);
      EXPECT_GE(exact + 1e-12, epsilon);
      EXPECT_LE(out.lo, exact + 1e-12);
      EXPECT_LE(exact, out.hi + 1e-12);
      accepted = true;
    }
    if (!rejected) {
      // V < ε: rejected before the first draw.
      const double epsilon = 0.5 * (in.v + 1.0);
      const SampleOutcome out = Decide(in, epsilon, 5);
      EXPECT_TRUE(out.completed);
      EXPECT_TRUE(out.decided_early);
      EXPECT_EQ(out.drawn, 0u);
      ExpectOrdered(out);
      EXPECT_LT(out.estimate, epsilon);
      EXPECT_LT(out.hi, epsilon);
      EXPECT_LT(exact, epsilon);
      EXPECT_LE(out.lo, exact + 1e-12);
      EXPECT_LE(exact, out.hi + 1e-12);
      rejected = true;
    }
  }
  EXPECT_TRUE(accepted && rejected) << "no instance with a two-sided gap";
}

// The first instance and ε (on a 0.05 grid) that the bounds leave open and a
// look settles; sets *epsilon and returns the outcome.
SampleOutcome FindLookStop(Rng* rng, Instance* in, double* epsilon) {
  for (int trial = 0; trial < 200; ++trial) {
    *in = RandomInstance(rng);
    for (int step = 1; step < 20; ++step) {
      *epsilon = 0.05 * step;
      const SampleOutcome out = Decide(*in, *epsilon, 13);
      if (out.decided_early && out.drawn > 0) return out;
    }
  }
  ADD_FAILURE() << "no instance stopped at a look";
  return SampleOutcome();
}

TEST(VerifierDecisionTest, StopsAtTheFirstLookWhoseIntervalClearsEpsilon) {
  Rng rng(9073);
  Instance in;
  double epsilon = 0.0;
  const SampleOutcome out = FindLookStop(&rng, &in, &epsilon);
  ASSERT_GT(out.drawn, 0u);
  const uint64_t n = VerifierOptions().mc.NumSamples();
  // Looks fall at 64 * 2^k draws, below N.
  EXPECT_EQ(out.drawn % 64, 0u);
  EXPECT_EQ((out.drawn / 64) & (out.drawn / 64 - 1), 0u);
  EXPECT_LT(out.drawn, n);
  EXPECT_TRUE(out.completed);
  ExpectOrdered(out);
  // The interval lies wholly on one side of ε, and the estimate with it.
  EXPECT_TRUE(out.lo >= epsilon || out.hi < epsilon);
  EXPECT_EQ(out.estimate >= epsilon, out.lo >= epsilon);
  // It is the Hoeffding interval at the look's spent level: the look at
  // 64 * 2^(k-1) draws runs at ξk = ξ / 2^k.
  int k = 1;
  while ((uint64_t{64} << (k - 1)) < out.drawn) ++k;
  const double xi_k = VerifierOptions().mc.xi / static_cast<double>(1 << k);
  const double half_width =
      in.v * std::sqrt(std::log(2.0 / xi_k) /
                       (2.0 * static_cast<double>(out.drawn)));
  EXPECT_NEAR(out.lo, std::max(out.estimate - half_width, 0.0), 1e-9);
  EXPECT_NEAR(out.hi, std::min({out.estimate + half_width, in.v, 1.0}),
              1e-9);
  // Looks are draw counts: the stopped run is the estimator's run cut at
  // the same draw, draw for draw.
  SampleControl cut;
  cut.cancel_after_draws = out.drawn;
  VerifierScratch scratch;
  Rng r(13);
  const SampleOutcome prefix =
      SampleSubgraphSimilarityProbabilityAnytime(in.pg, in.relaxed,
                                                 VerifierOptions(), &r,
                                                 &scratch, nullptr, cut)
          .value();
  EXPECT_EQ(prefix.drawn, out.drawn);
  EXPECT_EQ(prefix.hits, out.hits);
  EXPECT_EQ(prefix.estimate, out.estimate);
  // An earlier look (if any) did not clear ε: the stop is the first one.
  if (out.drawn > 64) {
    const SampleOutcome earlier = Decide(in, epsilon, 13, out.drawn / 2);
    EXPECT_FALSE(earlier.completed);
  }
}

TEST(VerifierDecisionTest, ALookOnTheCancelPointCompletes) {
  Rng rng(9079);
  Instance in;
  double epsilon = 0.0;
  const SampleOutcome out = FindLookStop(&rng, &in, &epsilon);
  ASSERT_GT(out.drawn, 0u);
  // The look at draw n runs before the cancellation check at n.
  const SampleOutcome at = Decide(in, epsilon, 13, out.drawn);
  EXPECT_TRUE(at.completed);
  EXPECT_TRUE(at.decided_early);
  EXPECT_EQ(at.drawn, out.drawn);
  EXPECT_EQ(at.estimate, out.estimate);
  EXPECT_EQ(at.lo, out.lo);
  EXPECT_EQ(at.hi, out.hi);
  // One draw earlier, the cancel point wins.
  const SampleOutcome before = Decide(in, epsilon, 13, out.drawn - 1);
  EXPECT_FALSE(before.completed);
  EXPECT_FALSE(before.decided_early);
  EXPECT_EQ(before.drawn, out.drawn - 1);
}

TEST(VerifierDecisionTest, EstimatorModeTakesExactlyNDraws) {
  Rng rng(9083);
  const VerifierOptions options;
  int checked = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const Instance in = RandomInstance(&rng);
    if (in.v <= 0.0) continue;
    VerifierScratch scratch;
    Rng r1(trial);
    const SampleOutcome out =
        SampleSubgraphSimilarityProbabilityAnytime(in.pg, in.relaxed, options,
                                                   &r1, &scratch)
            .value();
    EXPECT_EQ(out.drawn, options.mc.NumSamples());
    EXPECT_TRUE(out.completed);
    EXPECT_FALSE(out.decided_early);
    Rng r2(trial);
    const double estimate =
        SampleSubgraphSimilarityProbability(in.pg, in.relaxed, options, &r2)
            .value();
    EXPECT_EQ(out.estimate, estimate);
    ++checked;
  }
  EXPECT_GT(checked, 5);
}

TEST(VerifierDecisionTest, BoundDecidedVerdictsMatchWorldEnumeration) {
  Rng rng(9089);
  int bound_decided = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Instance in = RandomInstance(&rng);
    const double exact = ExactSsp(in);
    for (int step = 1; step < 20; ++step) {
      const double epsilon = 0.05 * step;
      const SampleOutcome out = Decide(in, epsilon, trial);
      if (!out.decided_early || out.drawn != 0) continue;
      ++bound_decided;
      // The bounds are exact, so the verdict is too, whatever ξ.
      EXPECT_EQ(out.estimate >= epsilon, exact >= epsilon)
          << "trial " << trial << " epsilon " << epsilon << " exact "
          << exact;
      EXPECT_LE(out.lo, exact + 1e-12);
      EXPECT_LE(exact, out.hi + 1e-12);
    }
  }
  EXPECT_GT(bound_decided, 100);
}

TEST(VerifierDecisionTest, WrongEarlyDecisionsStayWithinXiNearThreshold) {
  // Instances whose bounds leave SSP open, probed at ε a little above and a
  // little below exact SSP: every early decision there is close, so this is
  // where the α-spent looks could go wrong.
  Rng rng(9091);
  const double xi = VerifierOptions().mc.xi;
  int instances = 0;
  int runs = 0;
  int early = 0;
  int wrong = 0;
  for (int trial = 0; trial < 200 && instances < 4; ++trial) {
    const Instance in = RandomInstance(&rng);
    const double exact = ExactSsp(in);
    if (in.max_marginal >= exact - 0.1 || in.v <= exact + 0.1) continue;
    ++instances;
    for (const double epsilon : {exact - 0.05, exact + 0.05}) {
      for (uint64_t seed = 0; seed < 100; ++seed) {
        const SampleOutcome out = Decide(in, epsilon, 1000 + seed);
        ++runs;
        if (!out.decided_early) continue;
        ASSERT_GT(out.drawn, 0u);  // the bounds cannot decide here
        ++early;
        if ((out.estimate >= epsilon) != (exact >= epsilon)) ++wrong;
      }
    }
  }
  ASSERT_EQ(instances, 4);
  EXPECT_GT(early, 0);
  EXPECT_LE(wrong, xi * runs) << wrong << " wrong of " << runs << " runs, "
                              << early << " decided early";
}

}  // namespace
}  // namespace pgsim
