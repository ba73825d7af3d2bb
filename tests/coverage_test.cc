// Coverage for remaining behavioral corners: similarity-event collection
// semantics, processor failure accounting and threshold extremes, the
// random-selection Lsim path, and Figure-1/Example-1 style end-to-end
// checks on hand-built graphs.

#include <gtest/gtest.h>

#include "oracles/exact_probability.h"
#include "pgsim/datasets/synthetic.h"
#include "pgsim/graph/relaxation.h"
#include "pgsim/graph/vf2.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/processor.h"
#include "pgsim/query/verifier.h"
#include "pgsim/serving/serving_core.h"
#include "test_util.h"

namespace pgsim {
namespace {

using ::pgsim::testing::MakeGraph;
using ::pgsim::testing::MakePath;
using ::pgsim::testing::RandomGraph;
using ::pgsim::testing::RandomProbGraph;

TEST(SimilarityEventsTest, DeduplicatesAcrossRelaxedQueries) {
  // q = path of 3 (2 edges); delta = 1 gives two single-edge relaxations
  // whose embeddings into a path target overlap heavily; the event list
  // must contain each distinct edge set exactly once.
  Rng rng(7001);
  const Graph target = MakePath(5);
  const ProbabilisticGraph pg = RandomProbGraph(target, &rng);
  const Graph q = MakePath(3);
  auto relaxed = GenerateRelaxedQueries(q, 1);
  ASSERT_TRUE(relaxed.ok());
  VerifierOptions options;
  VerifierScratch scratch;
  ASSERT_TRUE(CollectSimilarityEvents(pg, *relaxed, options, &scratch).ok());
  const std::vector<EdgeBitset> events =
      EventBitsets(scratch, pg.NumEdges());
  for (size_t i = 0; i < events.size(); ++i) {
    for (size_t j = i + 1; j < events.size(); ++j) {
      EXPECT_FALSE(events[i] == events[j]) << i << "," << j;
    }
  }
  // A path of 5 has 4 single-edge subgraphs: exactly 4 events.
  EXPECT_EQ(events.size(), 4u);
}

TEST(SimilarityEventsTest, EventsAreActualEmbeddings) {
  Rng rng(7003);
  const Graph g = RandomGraph(&rng, 7, 4, 2);
  const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
  const Graph q = RandomGraph(&rng, 4, 1, 2);
  if (q.NumEdges() < 2) GTEST_SKIP();
  auto relaxed = GenerateRelaxedQueries(q, 1);
  ASSERT_TRUE(relaxed.ok());
  VerifierOptions options;
  VerifierScratch scratch;
  ASSERT_TRUE(CollectSimilarityEvents(pg, *relaxed, options, &scratch).ok());
  // Every event's edge set, taken as a subgraph, contains some rq.
  for (const EdgeBitset& event : EventBitsets(scratch, pg.NumEdges())) {
    const Graph sub = EdgeInducedSubgraph(g, event.ToVector());
    bool matches_some_rq = false;
    for (const Graph& rq : *relaxed) {
      if (AreIsomorphic(rq, sub)) {
        matches_some_rq = true;
        break;
      }
    }
    EXPECT_TRUE(matches_some_rq);
  }
}

TEST(ProcessorEdgeTest, EpsilonOneStillWellDefined) {
  SyntheticOptions options;
  options.num_graphs = 6;
  options.avg_vertices = 8;
  options.seed = 7007;
  auto db = GenerateDatabase(options).value();
  const QueryProcessor processor(&db, nullptr, nullptr);
  Rng rng(3);
  auto q = ExtractQuery(db[0].certain(), 3, &rng);
  ASSERT_TRUE(q.ok());
  QueryOptions qo;
  qo.delta = 1;
  qo.epsilon = 1.0;
  qo.verify_mode = QueryOptions::VerifyMode::kExact;
  auto answers = processor.Query(*q, qo);
  ASSERT_TRUE(answers.ok());
  // Only graphs with SSP exactly 1 qualify; verify the claim per answer.
  auto relaxed = GenerateRelaxedQueries(*q, 1).value();
  for (uint32_t gi : answers.value()) {
    auto ssp = ExactSubgraphSimilarityProbability(db[gi], relaxed);
    ASSERT_TRUE(ssp.ok());
    EXPECT_GE(*ssp, 1.0 - 1e-12);
  }
}

TEST(ProcessorEdgeTest, VerificationFailuresAreCountedNotFatal) {
  SyntheticOptions options;
  options.num_graphs = 6;
  options.avg_vertices = 10;
  options.edge_factor = 1.7;
  options.num_vertex_labels = 2;  // embedding-rich
  options.seed = 7011;
  auto db = GenerateDatabase(options).value();
  const QueryProcessor processor(&db, nullptr, nullptr);
  Rng rng(5);
  auto q = ExtractQuery(db[0].certain(), 4, &rng);
  ASSERT_TRUE(q.ok());
  QueryOptions qo;
  qo.delta = 2;
  qo.epsilon = 0.3;
  qo.verify_mode = QueryOptions::VerifyMode::kSample;
  // Absurdly small caps force CollectSimilarityEvents failures.
  qo.verifier.max_embeddings_per_rq = 1;
  qo.verifier.max_total_embeddings = 1;
  QueryStats stats;
  auto answers = processor.Query(*q, qo, &stats);
  ASSERT_TRUE(answers.ok());
  EXPECT_GT(stats.verification_failures, 0u);

  // The dropped candidates reach every roll-up: the batch and serving sums
  // equal the per-query QueryStats sums.
  auto q2 = ExtractQuery(db[1].certain(), 4, &rng);
  ASSERT_TRUE(q2.ok());
  const std::vector<Graph> queries{*q, *q2, *q};
  size_t failures = 0;
  size_t cancelled = 0;
  for (const Graph& query : queries) {
    QueryStats s;
    ASSERT_TRUE(processor.Query(query, qo, &s).ok());
    failures += s.verification_failures;
    cancelled += s.cancelled_candidates;
  }
  BatchOptions batch;
  batch.num_threads = 2;
  BatchStats batch_stats;
  processor.QueryBatch(queries, qo, batch, &batch_stats);
  EXPECT_EQ(batch_stats.totals.verification_failures, failures);
  EXPECT_EQ(batch_stats.totals.cancelled_candidates, cancelled);

  QueryProcessor serving_processor(&db, nullptr, nullptr);
  ServingOptions serving;
  serving.num_threads = 2;
  serving.query = qo;
  ServingCore core(&serving_processor, serving);
  std::vector<QueryTicket> tickets;
  for (const Graph& query : queries) tickets.push_back(core.Submit(query));
  for (QueryTicket& t : tickets) ASSERT_TRUE(t.Wait().status.ok());
  core.Shutdown();
  EXPECT_EQ(core.stats().totals.verification_failures, failures);
}

TEST(PrunerRandomLsimTest, RandomSelectionLsimIsValidLowerBound) {
  SyntheticOptions options;
  options.num_graphs = 8;
  options.avg_vertices = 8;
  options.num_vertex_labels = 3;
  options.seed = 7013;
  auto db = GenerateDatabase(options).value();
  PmiBuildOptions build;
  build.miner.beta = 0.2;
  build.miner.gamma = -1.0;
  build.miner.max_vertices = 3;
  build.sip.mc.min_samples = 6000;
  build.sip.mc.max_samples = 6000;
  auto pmi = ProbabilisticMatrixIndex::Build(db, build).value();
  ProbPrunerOptions po;
  po.selection = BoundSelection::kRandom;
  ProbabilisticPruner pruner(&pmi, po);
  PrunerScratch scratch;
  Rng rng(11);
  auto q = ExtractQuery(db[1].certain(), 4, &rng);
  ASSERT_TRUE(q.ok());
  auto relaxed = GenerateRelaxedQueries(*q, 1).value();
  pruner.PrepareQuery(relaxed);
  for (uint32_t gi = 0; gi < db.size(); ++gi) {
    auto exact = ExactSubgraphSimilarityProbability(db[gi], relaxed);
    if (!exact.ok()) continue;
    const PruneDecision d = pruner.Bounds(gi, &rng, &scratch);
    EXPECT_LE(d.lsim, *exact + 0.1) << "graph " << gi;
    EXPECT_GE(d.usim, *exact - 0.1) << "graph " << gi;
  }
}

TEST(EndToEndHandCaseTest, TwoGraphDatabaseWithKnownProbabilities) {
  // Database of two one-edge graphs: Pr(edge) = 0.9 and 0.2. Query = that
  // edge, delta = 0. At epsilon = 0.5 exactly one graph qualifies.
  auto make = [](double p) {
    GraphBuilder builder;
    const VertexId a = builder.AddVertex(1);
    const VertexId b = builder.AddVertex(2);
    auto e = builder.AddEdge(a, b, 0);
    EXPECT_TRUE(e.ok());
    NeighborEdgeSet ne;
    ne.edges = {0};
    ne.table = JointProbTable::Independent({p}).value();
    return ProbabilisticGraph::Create(builder.Build(), {ne}).value();
  };
  std::vector<ProbabilisticGraph> db{make(0.9), make(0.2)};
  const QueryProcessor processor(&db, nullptr, nullptr);
  const Graph q = MakeGraph({1, 2}, {{0, 1, 0}});
  QueryOptions qo;
  qo.delta = 0;
  qo.epsilon = 0.5;
  qo.verify_mode = QueryOptions::VerifyMode::kExact;
  auto answers = processor.Query(q, qo);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(*answers, (std::vector<uint32_t>{0}));

  qo.epsilon = 0.1;
  answers = processor.Query(q, qo);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 2u);
}

TEST(EndToEndHandCaseTest, CorrelationChangesTheAnswer) {
  // Two edges at a shared vertex, each with marginal 0.5. Query needs both.
  // Comonotone: Pr(both) = 0.5; independent: 0.25. At epsilon = 0.4 the
  // correlated graph qualifies, the independent one does not — the paper's
  // core message in four lines of data.
  GraphBuilder builder;
  const VertexId a = builder.AddVertex(1);
  const VertexId b = builder.AddVertex(2);
  const VertexId c = builder.AddVertex(3);
  ASSERT_TRUE(builder.AddEdge(a, b, 0).ok());
  ASSERT_TRUE(builder.AddEdge(a, c, 0).ok());
  const Graph certain = builder.Build();

  NeighborEdgeSet correlated;
  correlated.edges = {0, 1};
  correlated.table =
      JointProbTable::FromWeights({0.5, 0.0, 0.0, 0.5}).value();
  NeighborEdgeSet independent;
  independent.edges = {0, 1};
  independent.table = JointProbTable::Independent({0.5, 0.5}).value();

  std::vector<ProbabilisticGraph> db{
      ProbabilisticGraph::Create(certain, {correlated}).value(),
      ProbabilisticGraph::Create(certain, {independent}).value()};
  const QueryProcessor processor(&db, nullptr, nullptr);
  QueryOptions qo;
  qo.delta = 0;
  qo.epsilon = 0.4;
  qo.verify_mode = QueryOptions::VerifyMode::kExact;
  auto answers = processor.Query(certain, qo);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(*answers, (std::vector<uint32_t>{0}));
}

}  // namespace
}  // namespace pgsim
