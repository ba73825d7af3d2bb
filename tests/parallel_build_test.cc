// Determinism of the parallel offline pipeline: feature mining, PMI
// construction, and StructuralFilter construction must be byte-identical at
// every thread count (the parallel phases fan per-item work out and merge
// slots in input order), and queries against a parallel-built index must
// answer exactly like queries against a sequential-built one.

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>

#include "pgsim/common/thread_pool.h"
#include "pgsim/datasets/synthetic.h"
#include "pgsim/index/pmi.h"
#include "pgsim/mining/feature_miner.h"
#include "pgsim/query/processor.h"
#include "pgsim/query/structural_filter.h"

namespace pgsim {
namespace {

std::vector<ProbabilisticGraph> MakeDatabase(uint64_t seed) {
  SyntheticOptions options;
  options.num_graphs = 18;
  options.avg_vertices = 9;
  options.edge_factor = 1.4;
  options.num_vertex_labels = 3;
  options.seed = seed;
  return GenerateDatabase(options).value();
}

PmiBuildOptions FastBuild(uint32_t num_threads) {
  PmiBuildOptions build;
  build.miner.alpha = 0.0;
  build.miner.beta = 0.2;
  build.miner.gamma = -1.0;
  build.miner.max_vertices = 4;
  build.sip.mc.min_samples = 300;
  build.sip.mc.max_samples = 300;
  build.num_threads = num_threads;
  return build;
}

std::string SaveToBytes(const ProbabilisticMatrixIndex& pmi,
                        const std::string& tag) {
  const std::string path = ::testing::TempDir() + "pgsim_pmi_" + tag + ".bin";
  EXPECT_TRUE(pmi.Save(path).ok());
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

TEST(ParallelBuildTest, MinedFeaturesAreIdenticalAtAnyThreadCount) {
  const auto db = MakeDatabase(9001);
  std::vector<Graph> certain;
  for (const auto& g : db) certain.push_back(g.certain());

  FeatureMinerOptions options;
  options.alpha = 0.0;
  options.beta = 0.2;
  options.gamma = -1.0;
  options.max_vertices = 4;

  options.num_threads = 1;
  const FeatureSet sequential = MineFeatures(certain, options).value();
  for (uint32_t threads : {2u, 4u, ThreadPool::DefaultThreads()}) {
    options.num_threads = threads;
    const FeatureSet parallel = MineFeatures(certain, options).value();
    ASSERT_EQ(parallel.features.size(), sequential.features.size())
        << "threads=" << threads;
    for (size_t fi = 0; fi < sequential.features.size(); ++fi) {
      const Feature& a = sequential.features[fi];
      const Feature& b = parallel.features[fi];
      EXPECT_EQ(a.graph.VertexLabels(), b.graph.VertexLabels()) << fi;
      ASSERT_EQ(a.graph.NumEdges(), b.graph.NumEdges()) << fi;
      for (EdgeId e = 0; e < a.graph.NumEdges(); ++e) {
        EXPECT_EQ(a.graph.GetEdge(e).u, b.graph.GetEdge(e).u);
        EXPECT_EQ(a.graph.GetEdge(e).v, b.graph.GetEdge(e).v);
        EXPECT_EQ(a.graph.GetEdge(e).label, b.graph.GetEdge(e).label);
      }
      EXPECT_EQ(a.support, b.support) << fi;
      EXPECT_EQ(a.frequency, b.frequency) << fi;
      EXPECT_EQ(a.discriminative, b.discriminative) << fi;
    }
    // Work counters are deterministic too (all slots always evaluated).
    EXPECT_EQ(parallel.candidates_examined, sequential.candidates_examined);
    EXPECT_EQ(parallel.isomorphism_tests, sequential.isomorphism_tests);
  }
}

TEST(ParallelBuildTest, PmiSerializationIsByteIdenticalAtAnyThreadCount) {
  const auto db = MakeDatabase(9002);
  const auto sequential =
      ProbabilisticMatrixIndex::Build(db, FastBuild(1)).value();
  EXPECT_EQ(sequential.stats().build_threads, 1u);
  const std::string sequential_bytes = SaveToBytes(sequential, "seq");
  ASSERT_FALSE(sequential_bytes.empty());

  for (uint32_t threads : {2u, 3u, 4u, ThreadPool::DefaultThreads()}) {
    const auto parallel =
        ProbabilisticMatrixIndex::Build(db, FastBuild(threads)).value();
    EXPECT_EQ(parallel.stats().build_threads, threads);
    EXPECT_EQ(SaveToBytes(parallel, "par" + std::to_string(threads)),
              sequential_bytes)
        << "threads=" << threads;
  }
}

TEST(ParallelBuildTest, StructuralFilterTableIsIdenticalAtAnyThreadCount) {
  const auto db = MakeDatabase(9003);
  std::vector<Graph> certain;
  for (const auto& g : db) certain.push_back(g.certain());
  const auto pmi = ProbabilisticMatrixIndex::Build(db, FastBuild(1)).value();

  StructuralFilterOptions options;
  options.num_threads = 1;
  const StructuralFilter sequential =
      StructuralFilter::Build(certain, pmi.features(), options);
  EXPECT_EQ(sequential.build_stats().build_threads, 1u);
  EXPECT_GT(sequential.build_stats().counted_pairs, 0u);

  for (uint32_t threads : {2u, 4u, ThreadPool::DefaultThreads()}) {
    options.num_threads = threads;
    const StructuralFilter parallel =
        StructuralFilter::Build(certain, pmi.features(), options);
    EXPECT_EQ(parallel.build_stats().build_threads, threads);
    EXPECT_EQ(parallel.counts(), sequential.counts())
        << "threads=" << threads;
  }
}

TEST(ParallelBuildTest, QueriesAgainstParallelBuiltIndexMatchSequential) {
  const auto db = MakeDatabase(9004);
  std::vector<Graph> certain;
  for (const auto& g : db) certain.push_back(g.certain());

  const auto seq_pmi = ProbabilisticMatrixIndex::Build(db, FastBuild(1)).value();
  const auto par_pmi = ProbabilisticMatrixIndex::Build(db, FastBuild(4)).value();
  StructuralFilterOptions fopt;
  fopt.num_threads = 1;
  const StructuralFilter seq_filter =
      StructuralFilter::Build(certain, seq_pmi.features(), fopt);
  fopt.num_threads = 4;
  const StructuralFilter par_filter =
      StructuralFilter::Build(certain, par_pmi.features(), fopt);

  Rng qrng(9005);
  std::vector<Graph> queries;
  while (queries.size() < 6) {
    auto q = ExtractQuery(certain[qrng.Uniform(certain.size())], 4, &qrng);
    if (q.ok()) queries.push_back(std::move(q).value());
  }
  QueryOptions options;
  options.delta = 1;
  options.epsilon = 0.4;
  options.verifier.mc.min_samples = 300;
  options.verifier.mc.max_samples = 300;

  const QueryProcessor seq_proc(&db, &seq_pmi, &seq_filter);
  const QueryProcessor par_proc(&db, &par_pmi, &par_filter);
  const auto seq_results = seq_proc.QueryBatch(queries, options);
  const auto par_results = par_proc.QueryBatch(queries, options);
  ASSERT_EQ(seq_results.size(), par_results.size());
  for (size_t i = 0; i < seq_results.size(); ++i) {
    ASSERT_TRUE(seq_results[i].status.ok());
    ASSERT_TRUE(par_results[i].status.ok());
    EXPECT_EQ(par_results[i].answers, seq_results[i].answers) << "query " << i;
  }
}

}  // namespace
}  // namespace pgsim
