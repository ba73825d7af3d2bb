// Tests for the neighborhood signature index and the candidate-domain gate:
// cover-test soundness against the brute-force oracle on multi-label /
// degree-skew sweeps, domain-seeded enumeration equivalence (identical
// embedding sets AND order), live maintenance vs a fresh rebuild, the lazy
// rq-plan compile audit, steady-state no-scratch-growth, the PGSG snapshot
// round trip with truncation/bit-flip sweeps, the durable-database
// sig-snapshot paths, and the end-to-end pin that the fig09-style pipeline
// avoids VF2 calls while answering identically at every batch width.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "pgsim/datasets/synthetic.h"
#include "pgsim/graph/signature.h"
#include "pgsim/graph/vf2.h"
#include "pgsim/index/domain_index.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/processor.h"
#include "pgsim/query/structural_filter.h"
#include "pgsim/query/verifier.h"
#include "pgsim/storage/durable_db.h"
#include "test_util.h"

namespace pgsim {
namespace {

using ::pgsim::testing::BruteForceEmbeddings;
using ::pgsim::testing::MakeGraph;
using ::pgsim::testing::RandomGraph;
using ::pgsim::testing::RandomProbGraph;

std::string Slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A degree-skewed labeled graph: one hub of label `hub_label` plus a ring
/// of leaves with round-robin labels — stresses the degree and per-label
/// count components of the signature.
Graph StarGraph(uint32_t leaves, LabelId hub_label, uint32_t num_labels) {
  GraphBuilder b;
  b.AddVertex(hub_label);
  for (uint32_t i = 0; i < leaves; ++i) {
    b.AddVertex(static_cast<LabelId>(i % num_labels));
    auto r = b.AddEdge(0, i + 1, static_cast<LabelId>(i % 2));
    (void)r;
  }
  return b.Build();
}

// ---------------------------------------------------------------------------
// Cover-test soundness: a rejection must imply zero embeddings.
// ---------------------------------------------------------------------------

TEST(SignatureCoverTest, SoundAgainstBruteForceSweep) {
  size_t rejected = 0, pairs = 0;
  for (uint32_t num_labels : {1u, 2u, 4u}) {
    Rng rng(1000 + num_labels);
    for (int trial = 0; trial < 60; ++trial) {
      const Graph pattern = RandomGraph(&rng, 3 + rng.Uniform(3), 2, num_labels);
      const Graph target = RandomGraph(&rng, 6 + rng.Uniform(4), 4, num_labels);
      const QuerySignature psig = BuildQuerySignature(pattern);
      const QuerySignature tsig = BuildQuerySignature(target);
      ++pairs;
      if (!SignatureCoverTest(pattern, psig.view(), target, tsig.view())) {
        ++rejected;
        EXPECT_TRUE(BruteForceEmbeddings(pattern, target).empty())
            << "cover test rejected an embeddable pair (labels=" << num_labels
            << ", trial=" << trial << ")";
      }
    }
  }
  // The sweep must actually exercise the reject branch.
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, pairs);
}

TEST(SignatureCoverTest, SoundOnDegreeSkew) {
  size_t rejected = 0;
  for (int trial = 0; trial < 30; ++trial) {
    Rng rng(4200 + trial);
    const Graph pattern = StarGraph(2 + rng.Uniform(4), 0, 3);
    const Graph target =
        trial % 2 == 0 ? StarGraph(3 + rng.Uniform(6), 0, 3)
                       : RandomGraph(&rng, 8, 5, 3);
    const QuerySignature psig = BuildQuerySignature(pattern);
    const QuerySignature tsig = BuildQuerySignature(target);
    const bool covered =
        SignatureCoverTest(pattern, psig.view(), target, tsig.view());
    const bool embeds = !BruteForceEmbeddings(pattern, target).empty();
    if (!covered) {
      ++rejected;
      EXPECT_FALSE(embeds) << "trial " << trial;
    }
    if (embeds) EXPECT_TRUE(covered) << "trial " << trial;
  }
  EXPECT_GT(rejected, 0u);
}

// ---------------------------------------------------------------------------
// Candidate domains: sound, and enumeration-order preserving.
// ---------------------------------------------------------------------------

TEST(CandidateDomainsTest, RejectionImpliesNoEmbeddings) {
  Rng rng(77);
  Vf2Scratch scratch;
  size_t rejected = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const Graph pattern = RandomGraph(&rng, 3 + rng.Uniform(3), 2, 3);
    const Graph target = RandomGraph(&rng, 7 + rng.Uniform(4), 4, 3);
    const QuerySignature psig = BuildQuerySignature(pattern);
    const QuerySignature tsig = BuildQuerySignature(target);
    uint64_t pruned = 0;
    if (!BuildCandidateDomains(pattern, psig.view(), target, tsig.view(),
                               &scratch.domains, &pruned)) {
      ++rejected;
      EXPECT_TRUE(BruteForceEmbeddings(pattern, target).empty());
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(CandidateDomainsTest, DomainSeededEnumerationIsIdenticalInSetAndOrder) {
  Rng rng(91);
  Vf2Scratch plain_scratch, dom_scratch;
  size_t surviving = 0, pruned_total = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const Graph pattern = RandomGraph(&rng, 3 + rng.Uniform(3), 2, 3);
    const Graph target = RandomGraph(&rng, 7 + rng.Uniform(5), 5, 3);
    const QuerySignature psig = BuildQuerySignature(pattern);
    const QuerySignature tsig = BuildQuerySignature(target);
    uint64_t pruned = 0;
    if (!BuildCandidateDomains(pattern, psig.view(), target, tsig.view(),
                               &dom_scratch.domains, &pruned)) {
      continue;
    }
    ++surviving;
    pruned_total += pruned;
    const MatchPlan plan = CompileMatchPlan(pattern);
    // The sequences — not just the sets — must match: downstream offline
    // consumers depend on enumeration order.
    std::vector<std::vector<VertexId>> plain_seq, dom_seq;
    Vf2Options options;
    EnumerateEmbeddings(plan, target, options, &plain_scratch,
                        [&](const Embedding& e) {
                          plain_seq.push_back(e.vertex_map);
                          return true;
                        });
    Vf2Options dom_options;
    dom_options.domains = &dom_scratch.domains;
    EnumerateEmbeddings(plan, target, dom_options, &dom_scratch,
                        [&](const Embedding& e) {
                          dom_seq.push_back(e.vertex_map);
                          return true;
                        });
    ASSERT_EQ(plain_seq, dom_seq) << "trial " << trial;
    // Existence check agrees too (separate code path).
    EXPECT_EQ(IsSubgraphIsomorphic(plan, target, &dom_scratch,
                                   &dom_scratch.domains),
              !plain_seq.empty());
  }
  EXPECT_GT(surviving, 0u);
  EXPECT_GT(pruned_total, 0u);  // the sweep must actually narrow domains
}

// ---------------------------------------------------------------------------
// SignatureIndex: maintenance equals a fresh rebuild.
// ---------------------------------------------------------------------------

std::vector<ProbabilisticGraph> SmallDatabase(uint64_t seed, size_t n) {
  SyntheticOptions options;
  options.num_graphs = n;
  options.avg_vertices = 8;
  options.num_vertex_labels = 4;
  options.seed = seed;
  return GenerateDatabase(options).value();
}

void ExpectSameSignatures(const SignatureIndex& a, const SignatureIndex& b) {
  ASSERT_EQ(a.num_graphs(), b.num_graphs());
  ASSERT_EQ(a.num_alive(), b.num_alive());
  for (uint32_t gi = 0; gi < a.num_graphs(); ++gi) {
    ASSERT_EQ(a.IsAlive(gi), b.IsAlive(gi)) << "graph " << gi;
    const SignatureView va = a.ForGraph(gi);
    const SignatureView vb = b.ForGraph(gi);
    ASSERT_EQ(va.num_vertices, vb.num_vertices) << "graph " << gi;
    for (uint32_t v = 0; v < va.num_vertices; ++v) {
      ASSERT_EQ(va.nbr_bits[v], vb.nbr_bits[v]) << gi << ":" << v;
      ASSERT_EQ(va.hop2_bits[v], vb.hop2_bits[v]) << gi << ":" << v;
      ASSERT_EQ(va.degree[v], vb.degree[v]) << gi << ":" << v;
      for (uint32_t s = 0; s < kSignatureLabelSlots; ++s) {
        ASSERT_EQ(va.label_counts[v * kSignatureLabelSlots + s],
                  vb.label_counts[v * kSignatureLabelSlots + s])
            << gi << ":" << v << ":" << s;
      }
    }
  }
}

TEST(SignatureIndexTest, ParallelBuildIsByteIdentical) {
  const auto db = SmallDatabase(31, 9);
  SignatureIndex::BuildOptions seq;
  seq.num_threads = 1;
  SignatureIndex::BuildOptions par;
  par.num_threads = 4;
  ExpectSameSignatures(SignatureIndex::Build(db, seq),
                       SignatureIndex::Build(db, par));
}

TEST(SignatureIndexTest, MaintenanceMatchesFreshRebuild) {
  auto db = SmallDatabase(47, 6);
  const auto extra = SmallDatabase(48, 3);
  SignatureIndex idx = SignatureIndex::Build(db);

  // Grow, then tombstone two graphs.
  for (const auto& g : extra) {
    const uint32_t id = idx.AddGraph(g.certain());
    EXPECT_EQ(id, static_cast<uint32_t>(db.size()));
    db.push_back(g);
  }
  ASSERT_TRUE(idx.RemoveGraph(1).ok());
  ASSERT_TRUE(idx.RemoveGraph(7).ok());
  EXPECT_FALSE(idx.RemoveGraph(7).ok());  // double remove
  EXPECT_FALSE(idx.RemoveGraph(999).ok());

  // Tombstoned state: fresh build over the same graphs + same removals.
  {
    SignatureIndex fresh = SignatureIndex::Build(db);
    ASSERT_TRUE(fresh.RemoveGraph(1).ok());
    ASSERT_TRUE(fresh.RemoveGraph(7).ok());
    ExpectSameSignatures(idx, fresh);
  }

  // Compacted state: fresh build over the packed survivor list.
  idx.Compact();
  std::vector<ProbabilisticGraph> packed;
  for (size_t gi = 0; gi < db.size(); ++gi) {
    if (gi != 1 && gi != 7) packed.push_back(db[gi]);
  }
  ExpectSameSignatures(idx, SignatureIndex::Build(packed));
}

// ---------------------------------------------------------------------------
// PGSG snapshot: round trip + corruption sweeps.
// ---------------------------------------------------------------------------

TEST(SignatureSnapshotTest, RoundTripsWithTombstones) {
  const auto db = SmallDatabase(61, 5);
  SignatureIndex idx = SignatureIndex::Build(db);
  ASSERT_TRUE(idx.RemoveGraph(2).ok());
  const std::string path = ::testing::TempDir() + "/pgsim_sig_roundtrip.bin";
  ASSERT_TRUE(idx.Save(path, /*epoch=*/17).ok());
  auto loaded = SignatureIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->saved_epoch(), 17u);
  ExpectSameSignatures(idx, *loaded);
  std::remove(path.c_str());
}

TEST(SignatureSnapshotTest, TruncationSweepNeverLoads) {
  const auto db = SmallDatabase(62, 4);
  const SignatureIndex idx = SignatureIndex::Build(db);
  const std::string path = ::testing::TempDir() + "/pgsim_sig_trunc.bin";
  ASSERT_TRUE(idx.Save(path, 3).ok());
  const std::string full = Slurp(path);
  ASSERT_TRUE(SignatureIndex::Load(path).ok());
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Spit(path, full.substr(0, cut));
    auto loaded = SignatureIndex::Load(path);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes loaded";
  }
  std::remove(path.c_str());
}

TEST(SignatureSnapshotTest, BitFlipSweepIsAlwaysAnError) {
  const auto db = SmallDatabase(63, 3);
  const SignatureIndex idx = SignatureIndex::Build(db);
  const std::string path = ::testing::TempDir() + "/pgsim_sig_flip.bin";
  ASSERT_TRUE(idx.Save(path, 3).ok());
  const std::string full = Slurp(path);
  for (size_t i = 0; i < full.size(); ++i) {
    std::string bad = full;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    Spit(path, bad);
    auto loaded = SignatureIndex::Load(path);
    EXPECT_FALSE(loaded.ok()) << "flip at byte " << i << " loaded";
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Verifier gate: bit-identical probabilities, lazy plan audit, no growth.
// ---------------------------------------------------------------------------

struct GateFixture {
  std::vector<ProbabilisticGraph> db;
  SignatureIndex sigs;
  std::vector<Graph> relaxed;
  std::vector<QuerySignature> rq_sigs;

  explicit GateFixture(uint64_t seed, size_t n = 8) {
    db = SmallDatabase(seed, n);
    sigs = SignatureIndex::Build(db);
    Rng rng(seed + 1);
    auto q = ExtractQuery(db[0].certain(), 4, &rng);
    auto u = GenerateRelaxedQueries(q.value(), /*delta=*/1);
    relaxed = u.value();
    for (const Graph& rq : relaxed) {
      rq_sigs.push_back(BuildQuerySignature(rq));
    }
  }

  SignatureGate GateFor(uint32_t gi) const {
    SignatureGate gate;
    gate.target = sigs.ForGraph(gi);
    gate.rq = &rq_sigs;
    return gate;
  }
};

TEST(VerifierGateTest, ExactAndSampledProbabilitiesBitIdentical) {
  const GateFixture fx(301);
  VerifierOptions options;
  VerifierScratch gated, plain;
  uint64_t avoided = 0;
  for (uint32_t gi = 0; gi < fx.db.size(); ++gi) {
    const SignatureGate gate = fx.GateFor(gi);
    const auto with_gate = ExactSubgraphSimilarityProbability(
        fx.db[gi], fx.relaxed, options, &gated, nullptr, &gate);
    const auto without = ExactSubgraphSimilarityProbability(
        fx.db[gi], fx.relaxed, options, &plain, nullptr, nullptr);
    ASSERT_EQ(with_gate.ok(), without.ok()) << "graph " << gi;
    if (with_gate.ok()) {
      EXPECT_EQ(with_gate.value(), without.value()) << "graph " << gi;
    }
    avoided += gated.vf2_calls_avoided;

    Rng rng_a(900 + gi), rng_b(900 + gi);
    const auto sample_gate = SampleSubgraphSimilarityProbability(
        fx.db[gi], fx.relaxed, options, &rng_a, &gated, nullptr, &gate);
    const auto sample_plain = SampleSubgraphSimilarityProbability(
        fx.db[gi], fx.relaxed, options, &rng_b, &plain, nullptr, nullptr);
    ASSERT_EQ(sample_gate.ok(), sample_plain.ok()) << "graph " << gi;
    if (sample_gate.ok()) {
      EXPECT_EQ(sample_gate.value(), sample_plain.value()) << "graph " << gi;
    }
  }
  EXPECT_GT(avoided, 0u);  // the fixture must exercise the reject branch
}

TEST(VerifierGateTest, LazyPlanCompileAudit) {
  const GateFixture fx(311);
  VerifierOptions options;
  VerifierScratch scratch;
  for (uint32_t gi = 0; gi < fx.db.size(); ++gi) {
    const SignatureGate gate = fx.GateFor(gi);
    ASSERT_TRUE(CollectSimilarityEvents(fx.db[gi], fx.relaxed, options,
                                        &scratch, nullptr, &gate)
                    .ok());
    // Exactly the surviving pairs compile a plan; rejected ones never do.
    EXPECT_EQ(scratch.rq_plans_compiled + scratch.sig_pairs_rejected,
              fx.relaxed.size())
        << "graph " << gi;
    EXPECT_EQ(scratch.vf2_calls_avoided, scratch.sig_pairs_rejected);
  }
}

TEST(VerifierGateTest, SecondPassPerformsNoScratchGrowth) {
  const GateFixture fx(321);
  VerifierOptions options;
  VerifierScratch scratch;
  auto run_all = [&] {
    for (uint32_t gi = 0; gi < fx.db.size(); ++gi) {
      const SignatureGate gate = fx.GateFor(gi);
      ASSERT_TRUE(CollectSimilarityEvents(fx.db[gi], fx.relaxed, options,
                                          &scratch, nullptr, &gate)
                      .ok());
    }
  };
  run_all();
  const size_t pool_words = scratch.PoolCapacityWords();
  const size_t vf2_bytes = scratch.vf2.CapacityBytes();
  run_all();
  EXPECT_EQ(scratch.PoolCapacityWords(), pool_words);
  EXPECT_EQ(scratch.vf2.CapacityBytes(), vf2_bytes);
}

// ---------------------------------------------------------------------------
// Structural filter gate: identical survivors, fewer VF2 calls.
// ---------------------------------------------------------------------------

TEST(FilterGateTest, SurvivorsIdenticalAndVf2CallsDrop) {
  const auto db = SmallDatabase(401, 14);
  std::vector<Graph> certain;
  for (const auto& g : db) certain.push_back(g.certain());
  PmiBuildOptions build;
  build.miner.beta = 0.2;
  build.miner.gamma = -1.0;
  build.miner.max_vertices = 3;
  build.sip.mc.min_samples = 500;
  build.sip.mc.max_samples = 500;
  const auto pmi = ProbabilisticMatrixIndex::Build(db, build).value();
  const StructuralFilter filter =
      StructuralFilter::Build(certain, pmi.features());
  const SignatureIndex sigs = SignatureIndex::Build(db);

  Rng rng(402);
  size_t rejected_total = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const auto q = ExtractQuery(certain[rng.Uniform(certain.size())], 5, &rng);
    ASSERT_TRUE(q.ok());
    const auto relaxed = GenerateRelaxedQueries(*q, 1).value();
    std::vector<QuerySignature> rq_sigs;
    for (const Graph& rq : relaxed) rq_sigs.push_back(BuildQuerySignature(rq));

    StructuralFilterScratch scratch;
    std::vector<uint32_t> plain, gated;
    StructuralFilterStats plain_stats, gated_stats;
    filter.Filter(*q, relaxed, 1, &plain, &scratch, &plain_stats);
    filter.Filter(*q, relaxed, 1, &gated, &scratch, &gated_stats, nullptr,
                  nullptr, nullptr, &sigs, &rq_sigs);
    EXPECT_EQ(plain, gated) << "trial " << trial;
    EXPECT_EQ(gated_stats.isomorphism_tests + gated_stats.sig_pairs_rejected,
              plain_stats.isomorphism_tests)
        << "trial " << trial;
    rejected_total += gated_stats.sig_pairs_rejected;
  }
  EXPECT_GT(rejected_total, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end pipeline: VF2 calls avoided (the fig09-workload counter pin),
// counters surfaced through QueryStats/BatchStats, answers identical across
// entry points and widths. Gated-vs-ungated identity is pinned above at the
// component level (filter survivors, Exact/Sample probabilities).
// ---------------------------------------------------------------------------

TEST(ProcessorSignatureTest, GateAvoidsVf2Calls) {
  const auto db = SmallDatabase(501, 16);
  std::vector<Graph> certain;
  for (const auto& g : db) certain.push_back(g.certain());
  PmiBuildOptions build;
  build.miner.beta = 0.2;
  build.miner.gamma = -1.0;
  build.miner.max_vertices = 3;
  build.sip.mc.min_samples = 500;
  build.sip.mc.max_samples = 500;
  auto pmi = ProbabilisticMatrixIndex::Build(db, build).value();
  auto filter = StructuralFilter::Build(certain, pmi.features());
  const QueryProcessor processor(&db, &pmi, &filter);

  Rng rng(502);
  QueryOptions options;
  options.delta = 1;
  options.epsilon = 0.2;

  uint64_t avoided_total = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const auto q = ExtractQuery(certain[rng.Uniform(certain.size())], 4, &rng);
    ASSERT_TRUE(q.ok());
    QueryStats stats;
    ASSERT_TRUE(processor.Query(*q, options, &stats).ok());
    // The filter's exact-check rejections are part of the query's total.
    EXPECT_GE(stats.vf2_calls_avoided,
              stats.structural_detail.sig_pairs_rejected)
        << "trial " << trial;
    avoided_total += stats.vf2_calls_avoided;
  }
  // The counter pin: the workload must demonstrably skip matcher calls.
  EXPECT_GT(avoided_total, 0u);
}

TEST(ProcessorSignatureTest, BatchAnswersIdenticalAcrossWidths) {
  const auto db = SmallDatabase(511, 12);
  std::vector<Graph> certain;
  for (const auto& g : db) certain.push_back(g.certain());
  PmiBuildOptions build;
  build.miner.beta = 0.2;
  build.miner.gamma = -1.0;
  build.miner.max_vertices = 3;
  build.sip.mc.min_samples = 500;
  build.sip.mc.max_samples = 500;
  auto pmi = ProbabilisticMatrixIndex::Build(db, build).value();
  auto filter = StructuralFilter::Build(certain, pmi.features());
  const QueryProcessor processor(&db, &pmi, &filter);

  Rng rng(512);
  std::vector<Graph> queries;
  for (int i = 0; i < 6; ++i) {
    queries.push_back(
        ExtractQuery(certain[rng.Uniform(certain.size())], 4, &rng).value());
  }
  QueryOptions options;
  options.delta = 1;
  options.epsilon = 0.2;

  std::vector<std::vector<uint32_t>> inline_answers;
  for (const Graph& q : queries) {
    inline_answers.push_back(processor.Query(q, options).value());
  }
  std::vector<size_t> avoided;
  for (const uint32_t width : {1u, 4u}) {
    BatchOptions batch;
    batch.num_threads = width;
    BatchStats stats;
    const auto results = processor.QueryBatch(queries, options, batch, &stats);
    ASSERT_EQ(results.size(), queries.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok());
      EXPECT_EQ(results[i].answers, inline_answers[i])
          << "width " << width << " query " << i;
    }
    avoided.push_back(stats.totals.vf2_calls_avoided);
  }
  // The gate counters are deterministic: equal at every width.
  EXPECT_EQ(avoided[0], avoided[1]);
  EXPECT_GT(avoided[0], 0u);
}

// ---------------------------------------------------------------------------
// Durable database: sig snapshot loads, rebuilds when missing, and refuses
// corruption.
// ---------------------------------------------------------------------------

TEST(DurableSignatureTest, MissingSigSnapshotRebuildsCorruptOneRefuses) {
  const std::string dir = ::testing::TempDir() + "/pgsim_sig_durable";
  std::filesystem::remove_all(dir);

  PmiBuildOptions build;
  build.miner.beta = 0.2;
  build.miner.gamma = -1.0;
  build.miner.max_vertices = 3;
  build.sip.mc.min_samples = 500;
  build.sip.mc.max_samples = 500;
  {
    auto created =
        DurableDatabase::Create(dir, SmallDatabase(601, 5), build);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
  }
  const std::string sig_path = dir + "/snap-0.sig";
  const std::string sig_bytes = Slurp(sig_path);
  ASSERT_FALSE(sig_bytes.empty());

  // Clean reopen loads the sig snapshot.
  { ASSERT_TRUE(DurableDatabase::Open(dir).ok()); }

  // A pre-signature directory (no .sig file) rebuilds and still opens.
  std::remove(sig_path.c_str());
  {
    auto opened = DurableDatabase::Open(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    // A checkpoint from the rebuilt state writes the file back.
    ASSERT_TRUE((*opened)->Checkpoint().ok());
    EXPECT_FALSE(Slurp(dir + "/snap-1.sig").empty());
  }

  // A corrupt sig snapshot must refuse the open, not silently rebuild.
  const std::string sig1 = dir + "/snap-1.sig";
  std::string bad = Slurp(sig1);
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x01);
  Spit(sig1, bad);
  {
    auto opened = DurableDatabase::Open(dir);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
  }
}

}  // namespace
}  // namespace pgsim
