// Tests for the exact monotone-DNF probability engine against brute-force
// world enumeration, on both the partition and tree models.

#include <gtest/gtest.h>

#include "oracles/possible_world.h"
#include "pgsim/prob/dnf_exact.h"
#include "test_util.h"

namespace pgsim {
namespace {

using ::pgsim::testing::MakeGraph;
using ::pgsim::testing::RandomGraph;
using ::pgsim::testing::RandomProbGraph;

double BruteDnf(const ProbabilisticGraph& g,
                const std::vector<EdgeBitset>& terms) {
  double total = 0.0;
  EXPECT_TRUE(EnumerateWorlds(g,
                              [&](const EdgeBitset& world, double p) {
                                for (const EdgeBitset& t : terms) {
                                  if (world.ContainsAll(t)) {
                                    total += p;
                                    break;
                                  }
                                }
                                return true;
                              })
                  .ok());
  return total;
}

std::vector<EdgeBitset> RandomTerms(Rng* rng, uint32_t num_edges,
                                    size_t num_terms, uint32_t max_term) {
  std::vector<EdgeBitset> terms;
  for (size_t t = 0; t < num_terms; ++t) {
    EdgeBitset term(num_edges);
    const uint32_t size = 1 + rng->Uniform(max_term);
    for (uint32_t i = 0; i < size; ++i) {
      term.Set(rng->Uniform(num_edges));
    }
    terms.push_back(term);
  }
  return terms;
}

TEST(AbsorbTest, RemovesSupersetsAndDuplicates) {
  std::vector<EdgeBitset> terms{
      EdgeBitset::FromIndices(8, {0, 1, 2}),
      EdgeBitset::FromIndices(8, {0, 1}),
      EdgeBitset::FromIndices(8, {0, 1}),      // duplicate
      EdgeBitset::FromIndices(8, {3}),
      EdgeBitset::FromIndices(8, {3, 4, 5})};  // superset of {3}
  const auto reduced = AbsorbDnfTerms(terms);
  EXPECT_EQ(reduced.size(), 2u);
}

TEST(DnfExactTest, EmptyTermListIsZero) {
  Rng rng(211);
  const Graph g = RandomGraph(&rng, 4, 1, 1);
  const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
  auto p = ExactDnfProbability(pg, {});
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 0.0);
}

TEST(DnfExactTest, EmptyTermIsOne) {
  Rng rng(213);
  const Graph g = RandomGraph(&rng, 4, 1, 1);
  const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
  auto p = ExactDnfProbability(pg, {EdgeBitset(pg.NumEdges())});
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 1.0);
}

TEST(DnfExactTest, SingleTermEqualsMarginal) {
  Rng rng(217);
  const Graph g = RandomGraph(&rng, 6, 3, 1);
  const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
  EdgeBitset term = EdgeBitset::FromIndices(pg.NumEdges(), {0, 2});
  auto p = ExactDnfProbability(pg, {term});
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, pg.MarginalAllPresent(term), 1e-10);
}

TEST(DnfExactTest, TooManyTermsRejected) {
  Rng rng(219);
  const Graph g = RandomGraph(&rng, 6, 3, 1);
  const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
  std::vector<EdgeBitset> terms;
  for (uint32_t i = 0; i < 70; ++i) {
    EdgeBitset t(pg.NumEdges());
    t.Set(i % pg.NumEdges());
    // Give each term a distinct second element so absorption keeps them.
    terms.push_back(t);
  }
  DnfExactOptions options;
  options.max_terms = 4;
  auto p = ExactDnfProbability(pg, terms, options);
  // Either absorbed below the cap (duplicates collapse) or rejected; with
  // single-element terms absorption dedups to <= num_edges, so force tiny cap.
  if (!p.ok()) {
    EXPECT_EQ(p.status().code(), StatusCode::kResourceExhausted);
  }
}

class DnfRandomTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int, int>> {};

TEST_P(DnfRandomTest, PartitionEngineMatchesBruteForce) {
  const auto [seed, num_terms, max_term_size] = GetParam();
  Rng rng(seed);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = RandomGraph(&rng, 6, 3, 1);
    const ProbabilisticGraph pg = RandomProbGraph(g, &rng);
    const auto terms =
        RandomTerms(&rng, pg.NumEdges(), num_terms, max_term_size);
    auto p = ExactDnfProbability(pg, terms);
    ASSERT_TRUE(p.ok());
    EXPECT_NEAR(*p, BruteDnf(pg, terms), 1e-9)
        << "seed=" << seed << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DnfRandomTest,
    ::testing::Values(std::make_tuple(301ULL, 1, 3),
                      std::make_tuple(302ULL, 3, 3),
                      std::make_tuple(303ULL, 5, 2),
                      std::make_tuple(304ULL, 8, 4),
                      std::make_tuple(305ULL, 12, 3)));

TEST(DnfExactTest, TreeModelShannonMatchesBruteForce) {
  // Overlapping ne sets: {e0,e1,e2} and {e2,e3} sharing e2 on a star.
  const Graph g = MakeGraph({0, 0, 0, 0, 0},
                            {{0, 1, 0}, {0, 2, 0}, {0, 3, 0}, {3, 4, 0}});
  Rng rng(307);
  std::vector<double> w1(8), w2(4);
  for (auto& w : w1) w = 0.05 + rng.UniformDouble();
  for (auto& w : w2) w = 0.05 + rng.UniformDouble();
  NeighborEdgeSet ne1, ne2;
  ne1.edges = {0, 1, 2};
  ne1.table = JointProbTable::FromWeights(w1).value();
  ne2.edges = {2, 3};
  ne2.table = JointProbTable::FromWeights(w2).value();
  auto pg = ProbabilisticGraph::Create(g, {ne1, ne2});
  ASSERT_TRUE(pg.ok());
  ASSERT_EQ(pg->kind(), JointModelKind::kTree);

  for (int trial = 0; trial < 10; ++trial) {
    const auto terms = RandomTerms(&rng, pg->NumEdges(), 4, 3);
    auto p = ExactDnfProbability(*pg, terms);
    ASSERT_TRUE(p.ok());
    EXPECT_NEAR(*p, BruteDnf(*pg, terms), 1e-9) << "trial=" << trial;
  }
}

TEST(DnfExactTest, ShannonNodeBudgetErrors) {
  // Tree-model instance with a tiny node budget must fail cleanly.
  const Graph g = MakeGraph({0, 0, 0}, {{0, 1, 0}, {0, 2, 0}});
  Rng rng(311);
  NeighborEdgeSet ne1, ne2;
  ne1.edges = {0, 1};
  ne1.table = JointProbTable::FromWeights({1, 1, 1, 1}).value();
  ne2.edges = {1};
  ne2.table = JointProbTable::FromWeights({1, 1}).value();
  auto pg = ProbabilisticGraph::Create(g, {ne1, ne2});
  ASSERT_TRUE(pg.ok());
  ASSERT_EQ(pg->kind(), JointModelKind::kTree);
  DnfExactOptions options;
  options.max_shannon_nodes = 1;
  const auto terms = RandomTerms(&rng, pg->NumEdges(), 3, 2);
  auto p = ExactDnfProbability(*pg, terms, options);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace pgsim
