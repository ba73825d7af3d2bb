// Tests for live-database maintenance: incremental PMI AddGraph/RemoveGraph
// with stable ids + tombstones, frequency recomputation, compaction,
// persistence round-trips after mutation, the QueryProcessor mutation API
// (add→remove answer bit-identity, mutated-vs-fresh-rebuild equivalence,
// mutation under concurrent query load), plus database statistics and the
// Theorem 5 randomized-rounding coverage guarantee.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "oracles/pruner_reference.h"
#include "pgsim/datasets/stats.h"
#include "pgsim/datasets/synthetic.h"
#include "pgsim/graph/vf2.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/processor.h"
#include "pgsim/query/quadratic_program.h"
#include "pgsim/query/structural_filter.h"

namespace pgsim {
namespace {

std::vector<ProbabilisticGraph> SmallDatabase(uint64_t seed, size_t n) {
  SyntheticOptions options;
  options.num_graphs = n;
  options.avg_vertices = 9;
  options.num_vertex_labels = 4;
  options.seed = seed;
  return GenerateDatabase(options).value();
}

PmiBuildOptions FastBuild() {
  PmiBuildOptions build;
  build.miner.beta = 0.2;
  build.miner.gamma = -1.0;
  build.miner.max_vertices = 3;
  build.sip.mc.min_samples = 2000;
  build.sip.mc.max_samples = 2000;
  return build;
}

std::string Slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(PmiMaintenanceTest, AddGraphCreatesConsistentColumn) {
  auto db = SmallDatabase(6001, 8);
  auto extra = SmallDatabase(6007, 2);
  const PmiBuildOptions build = FastBuild();
  auto pmi = ProbabilisticMatrixIndex::Build(db, build).value();
  const uint32_t before = pmi.num_graphs();
  const uint64_t epoch_before = pmi.epoch();

  auto id = pmi.AddGraph(extra[0], build.sip, 77);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, before);
  EXPECT_EQ(pmi.num_graphs(), before + 1);
  EXPECT_EQ(pmi.num_alive(), before + 1);
  EXPECT_GT(pmi.epoch(), epoch_before);
  EXPECT_TRUE(pmi.IsAlive(*id));

  // Entries exist exactly for features contained in the new graph.
  for (uint32_t fi = 0; fi < pmi.features().size(); ++fi) {
    const bool present = IsSubgraphIsomorphic(pmi.features()[fi].graph,
                                              extra[0].certain());
    EXPECT_EQ(pmi.Contains(*id, fi), present) << "feature " << fi;
    // Support lists were extended.
    const auto& support = pmi.features()[fi].support;
    const bool in_support =
        std::find(support.begin(), support.end(), *id) != support.end();
    EXPECT_EQ(in_support, present);
  }
  // Bounds are ordered.
  for (const PmiEntry& e : pmi.EntriesFor(*id)) {
    EXPECT_LE(e.lower_opt, e.upper_opt + 1e-6f);
  }
}

TEST(PmiMaintenanceTest, AddedColumnMatchesFreshBuildStructure) {
  auto db = SmallDatabase(6011, 8);
  const PmiBuildOptions build = FastBuild();
  // Build on the first 7 graphs, add the 8th incrementally.
  std::vector<ProbabilisticGraph> prefix(db.begin(), db.end() - 1);
  auto incremental = ProbabilisticMatrixIndex::Build(prefix, build).value();
  ASSERT_TRUE(incremental.AddGraph(db.back(), build.sip, 5).ok());
  // Fresh build on all 8 (same miner inputs up to the extra graph changing
  // support counts; compare the presence pattern of the last column against
  // feature containment, which must hold in both).
  for (uint32_t fi = 0; fi < incremental.features().size(); ++fi) {
    const bool present = IsSubgraphIsomorphic(
        incremental.features()[fi].graph, db.back().certain());
    EXPECT_EQ(incremental.Contains(7, fi), present);
  }
}

TEST(PmiMaintenanceTest, RemoveGraphTombstonesWithStableIds) {
  auto db = SmallDatabase(6013, 6);
  const PmiBuildOptions build = FastBuild();
  auto pmi = ProbabilisticMatrixIndex::Build(db, build).value();
  // Snapshot columns 4 and 5: removing 2 must NOT shift them.
  const std::vector<PmiEntry> col4 = pmi.EntriesFor(4);
  const std::vector<PmiEntry> col5 = pmi.EntriesFor(5);
  const uint64_t epoch_before = pmi.epoch();

  ASSERT_TRUE(pmi.RemoveGraph(2).ok());
  EXPECT_EQ(pmi.num_graphs(), 6u);  // columns persist as tombstones
  EXPECT_EQ(pmi.num_alive(), 5u);
  EXPECT_FALSE(pmi.IsAlive(2));
  EXPECT_GT(pmi.epoch(), epoch_before);

  // Ids are stable: surviving columns read back unchanged.
  const std::vector<PmiEntry> after4 = pmi.EntriesFor(4);
  const std::vector<PmiEntry> after5 = pmi.EntriesFor(5);
  ASSERT_EQ(after4.size(), col4.size());
  ASSERT_EQ(after5.size(), col5.size());
  for (size_t k = 0; k < col4.size(); ++k) {
    EXPECT_EQ(after4[k].feature_id, col4[k].feature_id);
    EXPECT_FLOAT_EQ(after4[k].lower_opt, col4[k].lower_opt);
    EXPECT_FLOAT_EQ(after4[k].upper_opt, col4[k].upper_opt);
  }
  // The tombstoned column serves nothing.
  EXPECT_TRUE(pmi.EntriesFor(2).empty());
  // Support lists dropped exactly id 2.
  for (const Feature& f : pmi.features()) {
    for (uint32_t gi : f.support) {
      EXPECT_NE(gi, 2u);
      EXPECT_LT(gi, 6u);
    }
  }
  // Double-remove and out-of-range are rejected.
  EXPECT_FALSE(pmi.RemoveGraph(2).ok());
  EXPECT_FALSE(pmi.RemoveGraph(99).ok());
}

TEST(PmiMaintenanceTest, FrequencyRecomputedOnEveryMutation) {
  auto db = SmallDatabase(6019, 8);
  auto extra = SmallDatabase(6023, 1);
  const PmiBuildOptions build = FastBuild();
  auto pmi = ProbabilisticMatrixIndex::Build(db, build).value();

  // Maintained contract: frequency == |support| / num_alive after every
  // mutation (mining's alpha-disjoint numerator is build-time only).
  ASSERT_TRUE(pmi.AddGraph(extra[0], build.sip, 3).ok());
  for (const Feature& f : pmi.features()) {
    EXPECT_NEAR(f.frequency,
                static_cast<double>(f.support.size()) / pmi.num_alive(), 1e-12);
  }
  ASSERT_TRUE(pmi.RemoveGraph(0).ok());
  for (const Feature& f : pmi.features()) {
    EXPECT_NEAR(f.frequency,
                static_cast<double>(f.support.size()) / pmi.num_alive(), 1e-12);
  }
  // The maintenance report reflects the mutations.
  const PmiMaintenance m = pmi.maintenance();
  EXPECT_EQ(m.adds_since_build, 1u);
  EXPECT_EQ(m.removes_since_build, 1u);
  EXPECT_EQ(m.num_alive, pmi.num_alive());
  EXPECT_EQ(m.num_tombstones, 1u);
}

TEST(PmiMaintenanceTest, CompactReclaimsTombstones) {
  auto db = SmallDatabase(6029, 6);
  const PmiBuildOptions build = FastBuild();
  auto pmi = ProbabilisticMatrixIndex::Build(db, build).value();
  const std::vector<PmiEntry> col3 = pmi.EntriesFor(3);
  const std::vector<PmiEntry> col5 = pmi.EntriesFor(5);

  ASSERT_TRUE(pmi.RemoveGraph(1).ok());
  ASSERT_TRUE(pmi.RemoveGraph(4).ok());
  pmi.Compact();
  EXPECT_EQ(pmi.num_graphs(), 4u);
  EXPECT_EQ(pmi.num_alive(), 4u);
  // Renumbering: old 3 -> 2, old 5 -> 3 (alive ids shift down in order).
  const std::vector<PmiEntry> new2 = pmi.EntriesFor(2);
  const std::vector<PmiEntry> new3 = pmi.EntriesFor(3);
  ASSERT_EQ(new2.size(), col3.size());
  ASSERT_EQ(new3.size(), col5.size());
  for (size_t k = 0; k < col3.size(); ++k) {
    EXPECT_EQ(new2[k].feature_id, col3[k].feature_id);
    EXPECT_FLOAT_EQ(new2[k].upper_opt, col3[k].upper_opt);
  }
  for (size_t k = 0; k < col5.size(); ++k) {
    EXPECT_EQ(new3[k].feature_id, col5[k].feature_id);
    EXPECT_FLOAT_EQ(new3[k].upper_opt, col5[k].upper_opt);
  }
}

TEST(PmiMaintenanceTest, SaveLoadRoundTripAfterMutation) {
  auto db = SmallDatabase(6031, 7);
  auto extra = SmallDatabase(6037, 1);
  const PmiBuildOptions build = FastBuild();
  auto pmi = ProbabilisticMatrixIndex::Build(db, build).value();
  ASSERT_TRUE(pmi.AddGraph(extra[0], build.sip, 11).ok());
  ASSERT_TRUE(pmi.RemoveGraph(3).ok());

  const std::string path1 = testing::TempDir() + "/pgsim_maint_1.pmi";
  const std::string path2 = testing::TempDir() + "/pgsim_maint_2.pmi";
  ASSERT_TRUE(pmi.Save(path1).ok());
  auto loaded = ProbabilisticMatrixIndex::Load(path1);
  ASSERT_TRUE(loaded.ok());

  // The loaded index preserves the mutated state exactly...
  EXPECT_EQ(loaded->num_graphs(), pmi.num_graphs());
  EXPECT_EQ(loaded->num_alive(), pmi.num_alive());
  EXPECT_EQ(loaded->epoch(), pmi.epoch());
  EXPECT_FALSE(loaded->IsAlive(3));
  for (uint32_t gi = 0; gi < pmi.num_graphs(); ++gi) {
    const auto a = pmi.EntriesFor(gi);
    const auto b = loaded->EntriesFor(gi);
    ASSERT_EQ(a.size(), b.size()) << "column " << gi;
    for (size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].feature_id, b[k].feature_id);
      EXPECT_FLOAT_EQ(a[k].lower_opt, b[k].lower_opt);
      EXPECT_FLOAT_EQ(a[k].upper_opt, b[k].upper_opt);
      EXPECT_FLOAT_EQ(a[k].lower_simple, b[k].lower_simple);
      EXPECT_FLOAT_EQ(a[k].upper_simple, b[k].upper_simple);
    }
  }
  // ...and re-saving reproduces the file byte for byte.
  ASSERT_TRUE(loaded->Save(path2).ok());
  EXPECT_EQ(Slurp(path1), Slurp(path2));
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

// ---------------------------------------------------------------------------
// QueryProcessor live-mutation pins.
// ---------------------------------------------------------------------------

struct LiveSetup {
  std::vector<ProbabilisticGraph> db;
  ProbabilisticMatrixIndex pmi;
  std::vector<Graph> certain;
  StructuralFilter filter;
};

LiveSetup BuildLive(uint64_t seed, size_t n) {
  LiveSetup s;
  s.db = SmallDatabase(seed, n);
  s.pmi = ProbabilisticMatrixIndex::Build(s.db, FastBuild()).value();
  for (const auto& g : s.db) s.certain.push_back(g.certain());
  StructuralFilterOptions fo;
  fo.exact_check = true;
  s.filter = StructuralFilter::Build(s.certain, s.pmi.features(), fo);
  return s;
}

QueryOptions LiveQueryOptions() {
  QueryOptions options;
  options.delta = 1;
  options.epsilon = 0.3;
  options.seed = 17;
  return options;
}

TEST(ProcessorMaintenanceTest, AddRemoveRoundTripIsAnswerIdentical) {
  LiveSetup s = BuildLive(6043, 8);
  auto extra = SmallDatabase(6047, 1);
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);
  const QueryOptions options = LiveQueryOptions();
  const std::vector<Graph> queries = {s.db[1].certain(), s.db[5].certain()};

  std::vector<std::vector<uint32_t>> before;
  for (const Graph& q : queries) {
    before.push_back(processor.Query(q, options).value());
  }
  const uint64_t epoch0 = processor.epoch();

  // Add a graph, then remove it again: ids are stable, so every serving
  // structure returns to an answer-equivalent state — the golden answers
  // must come back bit-identical.
  auto id = processor.AddGraph(extra[0], /*seed=*/23);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 8u);
  EXPECT_EQ(processor.num_alive(), 9u);
  ASSERT_TRUE(processor.RemoveGraph(*id).ok());
  EXPECT_EQ(processor.num_alive(), 8u);
  EXPECT_GT(processor.epoch(), epoch0);

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    EXPECT_EQ(processor.Query(queries[qi], options).value(), before[qi])
        << "query " << qi;
  }
}

TEST(ProcessorMaintenanceTest, MutatedIndexMatchesFreshRebuild) {
  // Exact verification: the answer set depends only on which graphs are
  // alive, not on the (seed-dependent) incremental bound values — so a
  // mutated index must agree with an index rebuilt from scratch over the
  // same final database.
  auto base = SmallDatabase(6053, 7);
  auto extra = SmallDatabase(6059, 2);

  LiveSetup mutated = BuildLive(6053, 7);
  QueryProcessor live(&mutated.db, &mutated.pmi, &mutated.filter);
  ASSERT_TRUE(live.AddGraph(extra[0], 31).ok());
  ASSERT_TRUE(live.AddGraph(extra[1], 37).ok());
  ASSERT_TRUE(live.RemoveGraph(2).ok());

  // Fresh rebuild over the same final membership (ids shift: the fresh
  // database drops graph 2, so compact the live one to align numbering).
  live.Compact();
  std::vector<ProbabilisticGraph> fresh_db;
  for (size_t gi = 0; gi < base.size(); ++gi) {
    if (gi != 2) fresh_db.push_back(base[gi]);
  }
  fresh_db.push_back(extra[0]);
  fresh_db.push_back(extra[1]);
  auto fresh_pmi = ProbabilisticMatrixIndex::Build(fresh_db, FastBuild()).value();
  std::vector<Graph> fresh_certain;
  for (const auto& g : fresh_db) fresh_certain.push_back(g.certain());
  StructuralFilterOptions fo;
  fo.exact_check = true;
  StructuralFilter fresh_filter =
      StructuralFilter::Build(fresh_certain, fresh_pmi.features(), fo);
  const QueryProcessor fresh(&fresh_db, &fresh_pmi, &fresh_filter);

  QueryOptions options = LiveQueryOptions();
  options.verify_mode = QueryOptions::VerifyMode::kExact;
  const std::vector<Graph> queries = {base[0].certain(), base[4].certain(),
                                      extra[0].certain()};
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    EXPECT_EQ(live.Query(queries[qi], options).value(),
              fresh.Query(queries[qi], options).value())
        << "query " << qi;
  }
}

TEST(ProcessorMaintenanceTest, AutoCompactionAfterManyRemovals) {
  LiveSetup s = BuildLive(6067, 40);
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);
  // Remove 20 of 40: the threshold (>= 16 tombstones and >= half) triggers
  // auto-compaction, shrinking every structure in lockstep.
  for (uint32_t gi = 0; gi < 20; ++gi) {
    ASSERT_TRUE(processor.RemoveGraph(gi).ok());
  }
  EXPECT_EQ(processor.num_alive(), 20u);
  EXPECT_EQ(s.db.size(), 20u);
  EXPECT_EQ(s.pmi.num_graphs(), 20u);
  EXPECT_EQ(s.filter.num_graphs(), 20u);
  // Queries still serve consistently after compaction.
  const QueryOptions options = LiveQueryOptions();
  auto answers = processor.Query(s.db[0].certain(), options);
  ASSERT_TRUE(answers.ok());
  for (uint32_t gi : answers.value()) EXPECT_LT(gi, 20u);
}

TEST(ProcessorMaintenanceTest, CompactWithoutTombstonesIsNoOp) {
  LiveSetup s = BuildLive(6083, 4);
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);
  const uint64_t epoch = processor.epoch();
  processor.Compact();
  // Nothing to reclaim: no renumbering, no epoch bump (callers' cached ids
  // and answer-cache entries stay valid).
  EXPECT_EQ(processor.epoch(), epoch);
  EXPECT_EQ(processor.num_alive(), 4u);
  EXPECT_EQ(s.db.size(), 4u);
}

TEST(ProcessorMaintenanceTest, RemoveAllThenCompactServesEmptyDatabase) {
  LiveSetup s = BuildLive(6089, 4);
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);
  const Graph q = s.db[0].certain();
  for (uint32_t gi = 0; gi < 4; ++gi) {
    ASSERT_TRUE(processor.RemoveGraph(gi).ok());
  }
  EXPECT_EQ(processor.num_alive(), 0u);
  processor.Compact();
  EXPECT_EQ(processor.num_alive(), 0u);
  EXPECT_EQ(s.db.size(), 0u);
  EXPECT_EQ(s.pmi.num_graphs(), 0u);
  // Queries against the emptied database answer cleanly (and emptily).
  auto answers = processor.Query(q, LiveQueryOptions());
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(answers->empty());
  // Compacting the already-empty database is a clean no-op.
  const uint64_t epoch = processor.epoch();
  processor.Compact();
  EXPECT_EQ(processor.epoch(), epoch);
  // Every remove on the empty database is a clean validation error.
  EXPECT_FALSE(processor.RemoveGraph(0).ok());
  EXPECT_EQ(processor.epoch(), epoch);
}

TEST(ProcessorMaintenanceTest, ReadOnlyProcessorRejectsMutation) {
  LiveSetup s = BuildLive(6071, 4);
  const std::vector<ProbabilisticGraph>* const_db = &s.db;
  QueryProcessor processor(const_db, &s.pmi, &s.filter);
  EXPECT_FALSE(processor.AddGraph(s.db[0], 1).ok());
  EXPECT_FALSE(processor.RemoveGraph(0).ok());
}

TEST(ProcessorMaintenanceTest, MutateUnderConcurrentQueryLoad) {
  // Races between QueryBatch (shared lock) and AddGraph/RemoveGraph
  // (exclusive lock) — the TSan CI job runs this to prove the serving lock
  // covers every structure the mutation touches.
  LiveSetup s = BuildLive(6073, 10);
  auto extra = SmallDatabase(6079, 1);
  QueryProcessor processor(&s.db, &s.pmi, &s.filter);
  const QueryOptions options = LiveQueryOptions();
  const std::vector<Graph> queries = {s.db[0].certain(), s.db[3].certain(),
                                      s.db[7].certain()};

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    for (int round = 0; round < 8; ++round) {
      auto id = processor.AddGraph(extra[0], 100 + round);
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(processor.RemoveGraph(*id).ok());
    }
    stop.store(true);
  });
  BatchOptions batch;
  batch.num_threads = 2;
  size_t batches = 0;
  while (!stop.load() || batches < 2) {
    const auto results = processor.QueryBatch(queries, options, batch);
    for (const BatchQueryResult& r : results) {
      ASSERT_TRUE(r.status.ok());
      // Each batch sees a consistent membership: answer ids in range.
      for (uint32_t gi : r.answers) EXPECT_LE(gi, 10u);
    }
    ++batches;
  }
  mutator.join();
  EXPECT_EQ(processor.num_alive(), 10u);
}

TEST(DatabaseStatsTest, MatchesHandComputedValues) {
  auto db = SmallDatabase(6017, 10);
  const DatabaseStats stats = ComputeDatabaseStats(db);
  EXPECT_EQ(stats.num_graphs, 10u);
  double expect_vertices = 0;
  for (const auto& g : db) expect_vertices += g.certain().NumVertices();
  EXPECT_NEAR(stats.avg_vertices, expect_vertices / 10.0, 1e-9);
  EXPECT_GE(stats.max_vertices, stats.avg_vertices);
  EXPECT_EQ(stats.connected_graphs, 10u);  // generator makes connected graphs
  EXPECT_EQ(stats.tree_model_graphs, 0u);  // default partition model
  EXPECT_GT(stats.mean_edge_probability, 0.2);
  EXPECT_LT(stats.mean_edge_probability, 0.8);
  size_t total_labels = 0;
  for (size_t c : stats.vertex_label_counts) total_labels += c;
  EXPECT_EQ(static_cast<double>(total_labels), expect_vertices);
  // Degree histogram covers every vertex too.
  size_t total_degrees = 0;
  for (size_t c : stats.degree_histogram) total_degrees += c;
  EXPECT_EQ(static_cast<double>(total_degrees), expect_vertices);
  // Formatting contains the headline numbers.
  const std::string text = FormatDatabaseStats(stats);
  EXPECT_NE(text.find("graphs"), std::string::npos);
  EXPECT_NE(text.find("mean edge probability"), std::string::npos);
}

TEST(DatabaseStatsTest, EmptyDatabase) {
  const DatabaseStats stats = ComputeDatabaseStats({});
  EXPECT_EQ(stats.num_graphs, 0u);
  EXPECT_EQ(stats.avg_vertices, 0.0);
}

TEST(RoundingCoverageTest, Theorem5CoverageHoldsEmpirically) {
  // Theorem 5: after 2 ln|U| rounds of rounding with the relaxed optimum,
  // all elements are covered with probability >= 1 - 1/|U|. Our solver also
  // takes deterministic fallbacks, so coverage can only improve; check the
  // empirical coverage rate across seeds on instances where full coverage
  // is achievable and beneficial (wl >> wu so the objective rewards picks).
  const size_t universe = 8;
  std::vector<QpWeightedSet> sets;
  Rng gen(6043);
  for (uint32_t i = 0; i < 16; ++i) {
    QpWeightedSet s;
    s.id = i;
    s.wl = 0.2 + 0.1 * gen.UniformDouble();
    s.wu = 0.05 * gen.UniformDouble();
    for (uint32_t e = 0; e < universe; ++e) {
      if (gen.Bernoulli(0.4)) s.elements.push_back(e);
    }
    sets.push_back(std::move(s));
  }
  // Ensure every element is coverable.
  for (uint32_t e = 0; e < universe; ++e) {
    sets[e % sets.size()].elements.push_back(e);
  }
  size_t covered_runs = 0;
  const int runs = 40;
  for (int r = 0; r < runs; ++r) {
    Rng rng(7000 + r);
    const LsimResult result =
        SolveTightestLsim(universe, sets, LsimOptions(), &rng);
    covered_runs += result.covered;
  }
  // Theorem 5 bound: >= 1 - 1/8 = 87.5% of runs.
  EXPECT_GE(covered_runs, static_cast<size_t>(runs * 0.875));
}

}  // namespace
}  // namespace pgsim
