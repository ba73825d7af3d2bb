// Tests for the Probabilistic Matrix Index: build invariants, the <0>
// convention for absent features, bound sandwiching against exact SIP, and
// save/load round-tripping.

#include <cstdio>

#include <gtest/gtest.h>

#include "oracles/exact_probability.h"
#include "pgsim/bounds/sip_bounds.h"
#include "pgsim/datasets/synthetic.h"
#include "pgsim/graph/vf2.h"
#include "pgsim/index/pmi.h"

namespace pgsim {
namespace {

std::vector<ProbabilisticGraph> SmallDatabase(uint64_t seed,
                                              size_t num_graphs = 10) {
  SyntheticOptions options;
  options.num_graphs = num_graphs;
  options.avg_vertices = 9;
  options.edge_factor = 1.3;
  options.num_vertex_labels = 4;
  options.seed = seed;
  return GenerateDatabase(options).value();
}

PmiBuildOptions FastBuild() {
  PmiBuildOptions options;
  options.miner.alpha = 0.0;
  options.miner.beta = 0.2;
  options.miner.gamma = -1.0;
  options.miner.max_vertices = 3;
  options.sip.mc.max_samples = 3000;
  options.sip.mc.min_samples = 1500;
  return options;
}

TEST(PmiTest, BuildPopulatesEntriesExactlyForSupport) {
  const auto db = SmallDatabase(1201);
  auto pmi = ProbabilisticMatrixIndex::Build(db, FastBuild());
  ASSERT_TRUE(pmi.ok());
  ASSERT_GT(pmi->features().size(), 0u);
  EXPECT_EQ(pmi->num_graphs(), db.size());
  // Entry exists iff the feature is subgraph isomorphic to gc (<0> rule).
  for (uint32_t fi = 0; fi < pmi->features().size(); ++fi) {
    const Feature& f = pmi->features()[fi];
    for (uint32_t gi = 0; gi < db.size(); ++gi) {
      const bool present =
          IsSubgraphIsomorphic(f.graph, db[gi].certain());
      EXPECT_EQ(pmi->Contains(gi, fi), present)
          << "feature " << fi << " graph " << gi;
    }
  }
}

TEST(PmiTest, EntriesAreOrderedBounds) {
  const auto db = SmallDatabase(1203);
  auto pmi = ProbabilisticMatrixIndex::Build(db, FastBuild());
  ASSERT_TRUE(pmi.ok());
  for (uint32_t gi = 0; gi < db.size(); ++gi) {
    uint32_t prev_feature = 0;
    bool first = true;
    for (const PmiEntry& e : pmi->EntriesFor(gi)) {
      if (!first) EXPECT_GT(e.feature_id, prev_feature);
      prev_feature = e.feature_id;
      first = false;
      EXPECT_GE(e.lower_opt, 0.0f);
      EXPECT_LE(e.lower_opt, e.upper_opt + 1e-6f);
      EXPECT_LE(e.lower_simple, e.upper_simple + 1e-6f);
      EXPECT_LE(e.upper_opt, 1.0f);
    }
  }
}

TEST(PmiTest, BoundsSandwichExactSipWithinMcTolerance) {
  const auto db = SmallDatabase(1207, 6);
  PmiBuildOptions options = FastBuild();
  options.sip.mc.max_samples = 20000;
  options.sip.mc.min_samples = 20000;
  auto pmi = ProbabilisticMatrixIndex::Build(db, options);
  ASSERT_TRUE(pmi.ok());
  const double slack = 0.08;
  size_t checked = 0;
  for (uint32_t gi = 0; gi < db.size() && checked < 40; ++gi) {
    for (const PmiEntry& e : pmi->EntriesFor(gi)) {
      auto exact = ExactSubgraphIsomorphismProbability(
          db[gi], pmi->features()[e.feature_id].graph, 512);
      if (!exact.ok()) continue;  // embedding cap: skip
      EXPECT_LE(e.lower_opt, *exact + slack)
          << "graph " << gi << " feature " << e.feature_id;
      EXPECT_GE(e.upper_opt, *exact - slack)
          << "graph " << gi << " feature " << e.feature_id;
      ++checked;
    }
  }
  EXPECT_GT(checked, 10u);
}

TEST(PmiTest, StatsAreFilled) {
  const auto db = SmallDatabase(1213);
  auto pmi = ProbabilisticMatrixIndex::Build(db, FastBuild());
  ASSERT_TRUE(pmi.ok());
  const PmiStats& stats = pmi->stats();
  EXPECT_EQ(stats.num_features, pmi->features().size());
  EXPECT_GT(stats.num_entries, 0u);
  EXPECT_GT(stats.size_bytes, 0u);
  EXPECT_GE(stats.total_seconds, stats.bounds_seconds);
}

TEST(PmiTest, SaveLoadRoundTrip) {
  const auto db = SmallDatabase(1217, 6);
  auto pmi = ProbabilisticMatrixIndex::Build(db, FastBuild());
  ASSERT_TRUE(pmi.ok());
  const std::string path = ::testing::TempDir() + "/pgsim_pmi_test.bin";
  ASSERT_TRUE(pmi->Save(path).ok());
  auto loaded = ProbabilisticMatrixIndex::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->features().size(), pmi->features().size());
  EXPECT_EQ(loaded->num_graphs(), pmi->num_graphs());
  for (uint32_t gi = 0; gi < pmi->num_graphs(); ++gi) {
    const auto& a = pmi->EntriesFor(gi);
    const auto& b = loaded->EntriesFor(gi);
    ASSERT_EQ(a.size(), b.size());
    for (size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].feature_id, b[k].feature_id);
      EXPECT_FLOAT_EQ(a[k].lower_opt, b[k].lower_opt);
      EXPECT_FLOAT_EQ(a[k].upper_opt, b[k].upper_opt);
      EXPECT_FLOAT_EQ(a[k].lower_simple, b[k].lower_simple);
      EXPECT_FLOAT_EQ(a[k].upper_simple, b[k].upper_simple);
    }
  }
  for (uint32_t fi = 0; fi < pmi->features().size(); ++fi) {
    EXPECT_TRUE(AreIsomorphic(pmi->features()[fi].graph,
                              loaded->features()[fi].graph));
    EXPECT_EQ(pmi->features()[fi].support, loaded->features()[fi].support);
  }
  std::remove(path.c_str());
}

TEST(PmiTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/pgsim_pmi_garbage.bin";
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fputs("not a pmi file", f);
  fclose(f);
  auto loaded = ProbabilisticMatrixIndex::Load(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(PmiTest, LoadMissingFileFails) {
  auto loaded = ProbabilisticMatrixIndex::Load("/nonexistent/pmi.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace pgsim
