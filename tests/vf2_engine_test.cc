// Equivalence suite for the compiled VF2 matching engine: pins the
// plan-based iterative matcher against the recursive reference engine
// (oracles/vf2_reference.h) and the independent brute-force
// oracle — embedding *sets* are order-insensitive, reported counts are
// bit-identical, and default-plan enumeration preserves the reference
// order byte for byte (offline artifacts depend on it). Also covers the
// vertex-by-label index, rarest-label seed ordering, the inclusive
// max_embeddings truncation contract, dedup interaction, and the
// no-scratch-growth steady-state pin.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "oracles/vf2_reference.h"
#include "pgsim/graph/vf2.h"
#include "pgsim/query/verifier.h"
#include "test_util.h"

namespace pgsim {
namespace {

using ::pgsim::testing::BruteForceEmbeddings;
using ::pgsim::testing::MakeGraph;
using ::pgsim::testing::MakePath;
using ::pgsim::testing::MakeTriangle;
using ::pgsim::testing::RandomProbGraph;

// Random labeled graph with random *edge* labels too (test_util's RandomGraph
// keeps all edge labels 0, which would leave the engine's edge-label
// constraints untested).
Graph RandomMultiLabelGraph(Rng* rng, uint32_t n, uint32_t extra,
                            uint32_t vertex_labels, uint32_t edge_labels) {
  GraphBuilder builder;
  for (uint32_t i = 0; i < n; ++i) {
    builder.AddVertex(static_cast<LabelId>(rng->Uniform(vertex_labels)));
  }
  for (uint32_t v = 1; v < n; ++v) {
    auto r = builder.AddEdge(static_cast<VertexId>(rng->Uniform(v)), v,
                             static_cast<LabelId>(rng->Uniform(edge_labels)));
    (void)r;
  }
  for (uint32_t i = 0; i < extra; ++i) {
    const VertexId a = static_cast<VertexId>(rng->Uniform(n));
    const VertexId b = static_cast<VertexId>(rng->Uniform(n));
    if (a == b) continue;
    auto r = builder.AddEdge(a, b,
                             static_cast<LabelId>(rng->Uniform(edge_labels)));
    (void)r;
  }
  return builder.Build();
}

// A disconnected pattern: two random components side by side.
Graph RandomDisconnectedPattern(Rng* rng, uint32_t vertex_labels,
                                uint32_t edge_labels) {
  const Graph a = RandomMultiLabelGraph(rng, 2 + rng->Uniform(2), 1,
                                        vertex_labels, edge_labels);
  const Graph b = RandomMultiLabelGraph(rng, 2 + rng->Uniform(2), 0,
                                        vertex_labels, edge_labels);
  GraphBuilder builder;
  for (LabelId l : a.VertexLabels()) builder.AddVertex(l);
  for (LabelId l : b.VertexLabels()) builder.AddVertex(l);
  for (const Edge& e : a.Edges()) {
    auto r = builder.AddEdge(e.u, e.v, e.label);
    (void)r;
  }
  for (const Edge& e : b.Edges()) {
    auto r = builder.AddEdge(a.NumVertices() + e.u, a.NumVertices() + e.v,
                             e.label);
    (void)r;
  }
  return builder.Build();
}

std::vector<EdgeBitset> ReferenceEdgeSets(const Graph& pattern,
                                          const Graph& target) {
  std::vector<EdgeBitset> out;
  Vf2Options options;
  EnumerateEmbeddingsReference(pattern, target, options,
                               [&](const Embedding& emb) {
                                 out.push_back(EdgeBitset::FromIndices(
                                     target.NumEdges(), emb.edge_map));
                                 return true;
                               });
  return out;
}

void ExpectSameSets(const std::vector<EdgeBitset>& a,
                    const std::vector<EdgeBitset>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const EdgeBitset& e : a) {
    EXPECT_NE(std::find(b.begin(), b.end(), e), b.end());
  }
}

TEST(LabelIndexTest, BucketsMatchFullScan) {
  Rng rng(71);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = RandomMultiLabelGraph(&rng, 3 + rng.Uniform(12),
                                          rng.Uniform(8), 4, 2);
    std::set<LabelId> labels(g.VertexLabels().begin(), g.VertexLabels().end());
    size_t covered = 0;
    for (LabelId l : labels) {
      const Span<VertexId> bucket = g.VerticesWithLabel(l);
      EXPECT_EQ(bucket.size(), g.LabelFrequency(l));
      covered += bucket.size();
      // Ascending ids, exactly the vertices a filtered 0..n scan visits.
      std::vector<VertexId> expected;
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (g.VertexLabel(v) == l) expected.push_back(v);
      }
      ASSERT_EQ(bucket.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(bucket[i], expected[i]);
      }
    }
    EXPECT_EQ(covered, g.NumVertices());  // buckets partition the vertex set
    EXPECT_TRUE(g.VerticesWithLabel(12345).empty());
    EXPECT_EQ(g.DistinctVertexLabels().size(), labels.size());
  }
}

TEST(LabelIndexTest, EdgeSubsetGraphInheritsIndex) {
  Rng rng(72);
  const Graph base = RandomMultiLabelGraph(&rng, 8, 4, 3, 2);
  EdgeBitset present(base.NumEdges());
  for (EdgeId e = 0; e < base.NumEdges(); e += 2) present.Set(e);
  Graph world;
  BuildEdgeSubsetGraph(base, present, &world);
  for (LabelId l : base.DistinctVertexLabels()) {
    const Span<VertexId> a = base.VerticesWithLabel(l);
    const Span<VertexId> b = world.VerticesWithLabel(l);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

// The compiled matcher with a default plan must reproduce the reference
// engine's enumeration *order* exactly — mining's greedy disjoint counts
// and SIP bounds consume embeddings in order, so offline artifacts are
// bit-identical only if the sequence is.
TEST(Vf2EngineTest, DefaultPlanPreservesReferenceOrder) {
  Rng rng(201);
  for (int trial = 0; trial < 30; ++trial) {
    const Graph pattern = RandomMultiLabelGraph(&rng, 3 + rng.Uniform(3),
                                                rng.Uniform(3), 3, 2);
    const Graph target = RandomMultiLabelGraph(&rng, 6 + rng.Uniform(4),
                                               3 + rng.Uniform(5), 3, 2);
    std::vector<Embedding> ref, fast;
    Vf2Options options;
    EnumerateEmbeddingsReference(pattern, target, options,
                                 [&](const Embedding& e) {
                                   ref.push_back(e);
                                   return true;
                                 });
    const MatchPlan plan = CompileMatchPlan(pattern);
    Vf2Scratch scratch;
    EnumerateEmbeddings(plan, target, options, &scratch,
                        [&](const Embedding& e) {
                          fast.push_back(e);  // copies the scratch record
                          return true;
                        });
    ASSERT_EQ(ref.size(), fast.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(ref[i].vertex_map, fast[i].vertex_map) << "trial " << trial;
      EXPECT_EQ(ref[i].edge_map, fast[i].edge_map) << "trial " << trial;
    }
  }
}

struct EngineCaseParam {
  uint64_t seed;
  uint32_t pattern_n, pattern_extra;
  uint32_t target_n, target_extra;
  uint32_t vertex_labels, edge_labels;
  bool disconnected;
};

class Vf2EngineEquivalenceTest
    : public ::testing::TestWithParam<EngineCaseParam> {};

TEST_P(Vf2EngineEquivalenceTest, SetsAndCountsMatchReferenceAndBruteForce) {
  const EngineCaseParam p = GetParam();
  Rng rng(p.seed);
  const MatchPlanOptions default_opts;
  for (int trial = 0; trial < 10; ++trial) {
    const Graph pattern =
        p.disconnected
            ? RandomDisconnectedPattern(&rng, p.vertex_labels, p.edge_labels)
            : RandomMultiLabelGraph(&rng, p.pattern_n, p.pattern_extra,
                                    p.vertex_labels, p.edge_labels);
    const Graph target = RandomMultiLabelGraph(
        &rng, p.target_n, p.target_extra, p.vertex_labels, p.edge_labels);

    const auto expected_ref = ReferenceEdgeSets(pattern, target);
    const auto expected_brute = BruteForceEmbeddings(pattern, target);
    ExpectSameSets(expected_ref, expected_brute);

    // Default plan and rarest-label plan: identical sets, identical counts.
    Vf2Scratch scratch;
    for (const bool use_freq : {false, true}) {
      MatchPlanOptions opts;
      std::vector<uint32_t> freq;
      if (use_freq) {
        for (LabelId l : target.VertexLabels()) {
          if (l >= freq.size()) freq.resize(l + 1, 0);
          ++freq[l];
        }
        opts.label_freq = &freq;
      }
      const MatchPlan plan = CompileMatchPlan(pattern, opts);
      bool truncated = true;
      const auto actual =
          EmbeddingEdgeSets(plan, target, 0, &truncated, &scratch);
      EXPECT_FALSE(truncated);
      ExpectSameSets(actual, expected_ref);
      EXPECT_EQ(IsSubgraphIsomorphic(plan, target, &scratch),
                !expected_ref.empty());
    }
    EXPECT_EQ(IsSubgraphIsomorphic(pattern, target), !expected_ref.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Vf2EngineEquivalenceTest,
    ::testing::Values(
        EngineCaseParam{301, 3, 1, 6, 4, 1, 1, false},
        EngineCaseParam{302, 3, 1, 6, 4, 2, 2, false},
        EngineCaseParam{303, 4, 2, 7, 5, 3, 1, false},
        EngineCaseParam{304, 4, 2, 7, 5, 1, 3, false},
        EngineCaseParam{305, 5, 3, 8, 6, 2, 2, false},
        EngineCaseParam{306, 2, 0, 8, 8, 1, 1, false},
        EngineCaseParam{307, 0, 0, 7, 6, 2, 2, true},
        EngineCaseParam{308, 0, 0, 8, 8, 3, 2, true}));

TEST(Vf2EngineTest, RarestLabelSeedOrdering) {
  // Pattern: two components — an edge labeled (0,0) and a single vertex
  // labeled 1. Target frequencies make label 1 rare, so the single-vertex
  // component must seed first under the frequency rule; under the default
  // rule the higher-degree component comes first.
  const Graph pattern = MakeGraph({0, 0, 1}, {{0, 1, 0}});
  const std::vector<uint32_t> freq = {10, 1};  // label 0 common, 1 rare
  MatchPlanOptions opts;
  opts.label_freq = &freq;
  const MatchPlan with_freq = CompileMatchPlan(pattern, opts);
  EXPECT_EQ(with_freq.order[0], 2u);  // rare-label vertex seeds first
  const MatchPlan without = CompileMatchPlan(pattern);
  EXPECT_EQ(without.order[0], 0u);  // max-degree (ties broken by id)

  // Determinism: recompilation yields an identical plan.
  const MatchPlan again = CompileMatchPlan(pattern, opts);
  EXPECT_EQ(with_freq.order, again.order);
  EXPECT_EQ(with_freq.back_offsets, again.back_offsets);
}

TEST(Vf2EngineTest, TruncationReflectsGenuineCutoff) {
  // MakePath(2) in MakePath(10): exactly 9 embeddings.
  bool truncated = true;
  auto sets = EmbeddingEdgeSets(MakePath(2), MakePath(10), 9, &truncated);
  EXPECT_EQ(sets.size(), 9u);
  EXPECT_FALSE(truncated);  // exactly at the cap: nothing was cut off

  sets = EmbeddingEdgeSets(MakePath(2), MakePath(10), 8, &truncated);
  EXPECT_EQ(sets.size(), 8u);
  EXPECT_TRUE(truncated);

  sets = EmbeddingEdgeSets(MakePath(2), MakePath(10), 10, &truncated);
  EXPECT_EQ(sets.size(), 9u);
  EXPECT_FALSE(truncated);

  sets = EmbeddingEdgeSets(MakePath(2), MakePath(10), 0, &truncated);
  EXPECT_EQ(sets.size(), 9u);
  EXPECT_FALSE(truncated);
}

TEST(Vf2EngineTest, TruncationCountsDistinctEdgeSetsOnly) {
  // Path-3 in a triangle: 6 vertex maps but 3 distinct edge sets. A cap of
  // 3 must report all of them untruncated — automorphic duplicates do not
  // burn cap budget (dedup_by_edge_set interaction).
  bool truncated = true;
  const auto sets =
      EmbeddingEdgeSets(MakePath(3), MakeTriangle(0, 0, 0), 3, &truncated);
  EXPECT_EQ(sets.size(), 3u);
  EXPECT_FALSE(truncated);

  bool truncated2 = false;
  const auto sets2 =
      EmbeddingEdgeSets(MakePath(3), MakeTriangle(0, 0, 0), 2, &truncated2);
  EXPECT_EQ(sets2.size(), 2u);
  EXPECT_TRUE(truncated2);
}

TEST(Vf2EngineTest, SecondPassPerformsNoScratchGrowth) {
  Rng rng(401);
  std::vector<Graph> patterns, targets;
  for (int i = 0; i < 6; ++i) {
    patterns.push_back(RandomMultiLabelGraph(&rng, 4, 2, 2, 2));
    targets.push_back(RandomMultiLabelGraph(&rng, 10, 8, 2, 2));
  }
  std::vector<MatchPlan> plans;
  for (const Graph& p : patterns) plans.push_back(CompileMatchPlan(p));

  Vf2Scratch scratch;
  Vf2Options options;
  auto sweep = [&]() {
    size_t total = 0;
    for (size_t pi = 0; pi < patterns.size(); ++pi) {
      for (const Graph& t : targets) {
        total += EnumerateEmbeddings(plans[pi], t, options, &scratch,
                                     [](const Embedding&) { return true; });
      }
    }
    return total;
  };
  const size_t first = sweep();
  const size_t warmed = scratch.CapacityBytes();
  const size_t second = sweep();
  EXPECT_EQ(first, second);
  EXPECT_EQ(scratch.CapacityBytes(), warmed)
      << "steady-state enumeration must not grow the scratch";
}

// Uniform-probability model over `certain`: one ne set per edge, each with
// Pr(present) = 0.5 — distinct events of equal size then have *exactly*
// tied marginals, the adversarial case for order sensitivity.
ProbabilisticGraph UniformProbGraph(const Graph& certain) {
  std::vector<NeighborEdgeSet> ne_sets;
  for (EdgeId e = 0; e < certain.NumEdges(); ++e) {
    NeighborEdgeSet ne;
    ne.edges = {e};
    ne.table = JointProbTable::FromWeights({1.0, 1.0}).value();
    ne_sets.push_back(std::move(ne));
  }
  return ProbabilisticGraph::Create(certain, std::move(ne_sets)).value();
}

// Verifier-level pin: the events collected through the processor's shared
// (rarest-label-seeded) plans are exactly the events the plan-less path
// collects, and the sampled SSP estimate is *bit-identical* across plan
// variants — the sampler orders events by descending marginal with
// row-content tie-breaks, so its draw stream is a pure function of the
// event set and the model, never of enumeration order. The sweep includes
// a uniform-probability model where distinct equal-size events have
// exactly tied marginals (the case a first-seen tie-break would get wrong).
TEST(Vf2EngineTest, EventSetsAndDrawStreamsArePlanIndependent) {
  Rng rng(501);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph certain = RandomMultiLabelGraph(&rng, 9, 5, 2, 1);
    const bool uniform = trial % 2 == 0;
    const ProbabilisticGraph g =
        uniform ? UniformProbGraph(certain) : RandomProbGraph(certain, &rng);
    // Relaxed set: drop each edge of a small query once (plus the query).
    const Graph query = RandomMultiLabelGraph(&rng, 4, 1, 2, 1);
    std::vector<Graph> relaxed{query};
    for (EdgeId e = 0; e < query.NumEdges(); ++e) {
      std::vector<EdgeId> keep;
      for (EdgeId k = 0; k < query.NumEdges(); ++k) {
        if (k != e) keep.push_back(k);
      }
      relaxed.push_back(EdgeInducedSubgraph(query, keep));
    }

    VerifierOptions options;
    VerifierScratch plain, planned;
    const Status s1 = CollectSimilarityEvents(g, relaxed, options, &plain);
    std::vector<uint32_t> freq;
    AccumulateVertexLabelFrequencies(certain, &freq);
    MatchPlanOptions plan_options;
    plan_options.label_freq = &freq;
    std::vector<MatchPlan> plans;
    for (const Graph& rq : relaxed) {
      plans.push_back(CompileMatchPlan(rq, plan_options));
    }
    const Status s2 =
        CollectSimilarityEvents(g, relaxed, options, &planned, &plans);
    ASSERT_EQ(s1.ok(), s2.ok());
    if (!s1.ok()) continue;

    auto materialize = [&](const VerifierScratch& s) {
      std::vector<EdgeBitset> events(s.events.size());
      for (size_t i = 0; i < events.size(); ++i) {
        events[i].AssignWords(s.events.Row(i), g.NumEdges());
      }
      return events;
    };
    ExpectSameSets(materialize(plain), materialize(planned));

    // Same RNG state + either plan variant => bit-identical estimate.
    options.mc.min_samples = 300;
    options.mc.max_samples = 300;
    Rng r1(777), r2(777);
    const auto ssp_default =
        SampleSubgraphSimilarityProbability(g, relaxed, options, &r1, &plain);
    const auto ssp_planned = SampleSubgraphSimilarityProbability(
        g, relaxed, options, &r2, &planned, &plans);
    ASSERT_EQ(ssp_default.ok(), ssp_planned.ok());
    if (ssp_default.ok()) {
      EXPECT_EQ(*ssp_default, *ssp_planned)
          << "trial " << trial << (uniform ? " (uniform/tied)" : "");
    }
  }
}

}  // namespace
}  // namespace pgsim
