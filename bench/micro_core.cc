// Micro-benchmarks of pgsim's core operations (google-benchmark), including
// the partition vs clique-tree world-sampling ablation. Only library code is
// measured; the test oracles are not linked here.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

#include "pgsim/bounds/embedding_cuts.h"
#include "pgsim/bounds/max_clique.h"
#include "pgsim/bounds/sip_bounds.h"
#include "pgsim/common/thread_pool.h"
#include "pgsim/datasets/synthetic.h"
#include "pgsim/graph/relaxation.h"
#include "pgsim/graph/signature.h"
#include "pgsim/graph/vf2.h"
#include "pgsim/index/domain_index.h"
#include "pgsim/prob/dnf_exact.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/processor.h"
#include "pgsim/query/quadratic_program.h"
#include "pgsim/query/set_cover.h"
#include "pgsim/query/top_k.h"
#include "pgsim/query/verifier.h"
#include "pgsim/storage/wal.h"

namespace {

using namespace pgsim;

ProbabilisticGraph MakeBenchGraph(uint64_t seed, uint32_t vertices,
                                  double overlap = 0.0) {
  SyntheticOptions options;
  options.num_graphs = 1;
  options.avg_vertices = vertices;
  options.edge_factor = 1.5;
  options.num_vertex_labels = 5;
  options.overlap_fraction = overlap;
  options.seed = seed;
  Rng rng(seed);
  return GenerateGraph(options, &rng).value();
}

Graph MakeQuery(const Graph& source, uint32_t edges, uint64_t seed) {
  Rng rng(seed);
  return ExtractQuery(source, edges, &rng).value();
}

void BM_Vf2_FirstEmbedding(benchmark::State& state) {
  const ProbabilisticGraph g = MakeBenchGraph(1, 24);
  const Graph q =
      MakeQuery(g.certain(), static_cast<uint32_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsSubgraphIsomorphic(q, g.certain()));
  }
}
BENCHMARK(BM_Vf2_FirstEmbedding)->Arg(4)->Arg(8)->Arg(12);

void BM_Vf2_AllEmbeddings(benchmark::State& state) {
  const ProbabilisticGraph g = MakeBenchGraph(3, 24);
  const Graph q = MakeQuery(g.certain(), 3, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EmbeddingEdgeSets(q, g.certain(), 0));
  }
}
BENCHMARK(BM_Vf2_AllEmbeddings);

// ---- Compiled matching engine: one pattern against many targets, the
// verifier/filter access shape. BM_Vf2_Enumerate runs the plan+scratch hot
// path (plan compiled once, zero steady-state allocation).
struct Vf2Fixture {
  std::vector<Graph> targets;
  Graph pattern;
};

const Vf2Fixture& GetVf2Fixture() {
  static const Vf2Fixture* fixture = [] {
    auto* f = new Vf2Fixture();
    SyntheticOptions options;
    options.num_graphs = 64;
    options.avg_vertices = 22;
    options.edge_factor = 1.5;
    options.num_vertex_labels = 4;
    options.seed = 60;
    auto db = GenerateDatabase(options).value();
    for (const auto& g : db) f->targets.push_back(g.certain());
    Rng rng(61);
    f->pattern = ExtractQuery(f->targets[0], 4, &rng).value();
    return f;
  }();
  return *fixture;
}

void BM_Vf2_Enumerate(benchmark::State& state) {
  const Vf2Fixture& f = GetVf2Fixture();
  const MatchPlan plan = CompileMatchPlan(f.pattern);
  Vf2Scratch scratch;
  Vf2Options options;
  size_t total = 0;
  for (auto _ : state) {
    for (const Graph& t : f.targets) {
      total += EnumerateEmbeddings(plan, t, options, &scratch,
                                   [](const Embedding&) { return true; });
    }
  }
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(int64_t(state.iterations()) * f.targets.size());
  state.counters["embeddings"] =
      static_cast<double>(total) / std::max<int64_t>(1, state.iterations());
}
BENCHMARK(BM_Vf2_Enumerate);

void BM_Vf2_PlanCompile(benchmark::State& state) {
  const Vf2Fixture& f = GetVf2Fixture();
  const Graph q =
      MakeQuery(f.targets[0], static_cast<uint32_t>(state.range(0)), 62);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompileMatchPlan(q));
  }
}
BENCHMARK(BM_Vf2_PlanCompile)->Arg(4)->Arg(8)->Arg(12);

// ---- Signature gate (PR 10): the cover test that rejects barren
// (pattern, target) pairs before VF2, and the matched before/after pair for
// domain-seeded matching — BM_Vf2_DomainSeeded/0 runs the plain compiled
// matcher over a label-diverse database, /1 runs the identical workload
// through BuildCandidateDomains + domain-restricted matching (the stage-3
// shape of every query). Recorded in BENCH_10.json.
struct SignatureFixture {
  std::vector<ProbabilisticGraph> db;
  std::vector<Graph> targets;
  Graph pattern;
  MatchPlan plan;
  SignatureIndex sigs;
  QuerySignature pattern_sig;
};

const SignatureFixture& GetSignatureFixture() {
  static const SignatureFixture* fixture = [] {
    auto* f = new SignatureFixture();
    SyntheticOptions options;
    options.num_graphs = 64;
    options.avg_vertices = 22;
    options.edge_factor = 1.5;
    options.num_vertex_labels = 10;  // label-diverse: the gate's home turf
    options.seed = 70;
    f->db = GenerateDatabase(options).value();
    for (const auto& g : f->db) f->targets.push_back(g.certain());
    Rng rng(71);
    f->pattern = ExtractQuery(f->targets[0], 5, &rng).value();
    f->plan = CompileMatchPlan(f->pattern);
    f->sigs = SignatureIndex::Build(f->db);
    f->pattern_sig = BuildQuerySignature(f->pattern);
    return f;
  }();
  return *fixture;
}

void BM_Signature_CoverTest(benchmark::State& state) {
  const SignatureFixture& f = GetSignatureFixture();
  size_t covered = 0, pairs = 0;
  for (auto _ : state) {
    for (uint32_t gi = 0; gi < f.targets.size(); ++gi) {
      covered += SignatureCoverTest(f.pattern, f.pattern_sig.view(),
                                    f.targets[gi], f.sigs.ForGraph(gi));
      ++pairs;
    }
  }
  benchmark::DoNotOptimize(covered);
  state.SetItemsProcessed(int64_t(state.iterations()) * f.targets.size());
  state.counters["cover_rate"] =
      pairs == 0 ? 0.0 : static_cast<double>(covered) / pairs;
}
BENCHMARK(BM_Signature_CoverTest);

void BM_Vf2_DomainSeeded(benchmark::State& state) {
  const SignatureFixture& f = GetSignatureFixture();
  const bool use_domains = state.range(0) != 0;
  Vf2Scratch scratch;
  size_t matched = 0, vf2_calls = 0;
  for (auto _ : state) {
    for (uint32_t gi = 0; gi < f.targets.size(); ++gi) {
      if (use_domains) {
        uint64_t pruned = 0;
        if (!BuildCandidateDomains(f.pattern, f.pattern_sig.view(),
                                   f.targets[gi], f.sigs.ForGraph(gi),
                                   &scratch.domains, &pruned)) {
          continue;  // barren pair: the matcher never runs
        }
        ++vf2_calls;
        matched += IsSubgraphIsomorphic(f.plan, f.targets[gi], &scratch,
                                        &scratch.domains);
      } else {
        ++vf2_calls;
        matched += IsSubgraphIsomorphic(f.plan, f.targets[gi], &scratch);
      }
    }
  }
  benchmark::DoNotOptimize(matched);
  state.SetItemsProcessed(int64_t(state.iterations()) * f.targets.size());
  state.counters["vf2_calls_per_iter"] =
      static_cast<double>(vf2_calls) /
      std::max<int64_t>(1, state.iterations());
}
BENCHMARK(BM_Vf2_DomainSeeded)->Arg(0)->Arg(1);

void BM_Relaxation_GenerateU(benchmark::State& state) {
  const ProbabilisticGraph g = MakeBenchGraph(7, 20);
  const Graph q =
      MakeQuery(g.certain(), static_cast<uint32_t>(state.range(0)), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateRelaxedQueries(q, 2));
  }
}
BENCHMARK(BM_Relaxation_GenerateU)->Arg(6)->Arg(10);

void BM_WorldSample_Partition(benchmark::State& state) {
  const ProbabilisticGraph g = MakeBenchGraph(9, 30);
  Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.SampleWorld(&rng));
  }
}
BENCHMARK(BM_WorldSample_Partition);

void BM_WorldSample_CliqueTree(benchmark::State& state) {
  // Ablation partner of BM_WorldSample_Partition: overlapping ne sets force
  // the clique-tree sampler.
  const ProbabilisticGraph g = MakeBenchGraph(9, 30, /*overlap=*/0.5);
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.SampleWorld(&rng));
  }
}
BENCHMARK(BM_WorldSample_CliqueTree);

void BM_DnfExact_Partition(benchmark::State& state) {
  const ProbabilisticGraph g = MakeBenchGraph(13, 16);
  const Graph q = MakeQuery(g.certain(), 4, 14);
  const auto relaxed = GenerateRelaxedQueries(q, 1).value();
  VerifierOptions options;
  VerifierScratch scratch;
  if (!CollectSimilarityEvents(g, relaxed, options, &scratch).ok()) {
    state.SkipWithError("event collection failed");
    return;
  }
  std::vector<EdgeBitset> events(scratch.events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    events[i].AssignWords(scratch.events.Row(i), g.NumEdges());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactDnfProbability(g, events));
  }
}
BENCHMARK(BM_DnfExact_Partition);

void BM_Cuts_HittingSet(benchmark::State& state) {
  const ProbabilisticGraph g = MakeBenchGraph(19, 22);
  const Graph f = MakeQuery(g.certain(), 2, 20);
  const auto embeddings = EmbeddingEdgeSets(f, g.certain(), 512);
  CutEnumOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EnumerateMinimalEmbeddingCuts(embeddings, g.NumEdges(), options));
  }
}
BENCHMARK(BM_Cuts_HittingSet);

void BM_MaxWeightClique(benchmark::State& state) {
  Rng rng(23);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::vector<char>> adj(n, std::vector<char>(n, 0));
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) {
    weights[i] = rng.UniformDouble();
    for (size_t j = i + 1; j < n; ++j) {
      adj[i][j] = adj[j][i] = rng.Bernoulli(0.4);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxWeightClique(adj, weights));
  }
}
BENCHMARK(BM_MaxWeightClique)->Arg(16)->Arg(32);

void BM_SipBounds_Full(benchmark::State& state) {
  const ProbabilisticGraph g = MakeBenchGraph(29, 18);
  const Graph f = MakeQuery(g.certain(), 3, 30);
  SipBoundOptions options;
  options.mc.min_samples = 300;
  options.mc.max_samples = 300;
  Rng rng(31);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSipBounds(g, f, options, &rng));
  }
}
BENCHMARK(BM_SipBounds_Full);

// The set-cover and Lsim benches build the columnar views the pruner hands
// those solvers: set i spans elements[offsets[i] .. offsets[i + 1]).
void BM_SetCover_Greedy(benchmark::State& state) {
  Rng rng(37);
  const size_t universe = 40;
  std::vector<uint32_t> ids, elements, offsets{0};
  std::vector<double> weights;
  for (uint32_t i = 0; i < 120; ++i) {
    ids.push_back(i);
    weights.push_back(rng.UniformDouble());
    for (uint32_t e = 0; e < universe; ++e) {
      if (rng.Bernoulli(0.15)) elements.push_back(e);
    }
    offsets.push_back(static_cast<uint32_t>(elements.size()));
  }
  WeightedSetsView view;
  view.num_sets = ids.size();
  view.ids = ids.data();
  view.weights = weights.data();
  view.elements = elements.data();
  view.span_begin = offsets.data();
  view.span_end = offsets.data() + 1;
  SetCoverScratch scratch;
  SetCoverResult result;
  for (auto _ : state) {
    GreedyWeightedSetCover(universe, view, &scratch, &result);
    benchmark::DoNotOptimize(result.total_weight);
  }
}
BENCHMARK(BM_SetCover_Greedy);

void BM_Lsim_QpSolve(benchmark::State& state) {
  Rng seed_rng(41);
  const size_t universe = 20;
  std::vector<uint32_t> ids, elements, offsets{0};
  std::vector<double> wl, wu;
  for (uint32_t i = 0; i < 40; ++i) {
    ids.push_back(i);
    wl.push_back(seed_rng.UniformDouble() * 0.4);
    wu.push_back(wl.back() + seed_rng.UniformDouble() * 0.2);
    for (uint32_t e = 0; e < universe; ++e) {
      if (seed_rng.Bernoulli(0.2)) elements.push_back(e);
    }
    offsets.push_back(static_cast<uint32_t>(elements.size()));
  }
  QpWeightedSetsView view;
  view.num_sets = ids.size();
  view.ids = ids.data();
  view.wl = wl.data();
  view.wu = wu.data();
  view.elements = elements.data();
  view.span_begin = offsets.data();
  view.span_end = offsets.data() + 1;
  LsimScratch scratch;
  LsimResult result;
  Rng rng(43);
  for (auto _ : state) {
    SolveTightestLsim(universe, view, LsimOptions(), &rng, &scratch, &result);
    benchmark::DoNotOptimize(result.lsim);
  }
}
BENCHMARK(BM_Lsim_QpSolve);

void BM_Verify_Smp(benchmark::State& state) {
  const ProbabilisticGraph g = MakeBenchGraph(47, 18);
  const Graph q = MakeQuery(g.certain(), 5, 48);
  const auto relaxed = GenerateRelaxedQueries(q, 1).value();
  VerifierOptions options;
  options.mc.min_samples = 2000;
  options.mc.max_samples = 2000;
  Rng rng(49);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SampleSubgraphSimilarityProbability(g, relaxed, options, &rng));
  }
}
BENCHMARK(BM_Verify_Smp);

// ---- Verification engine (PR 3): the fig09 verification workload ----
// ---- (Section-6 generator defaults, one qsize-8 query at delta=2,   ----
// ---- candidates from the full filter chain) driven through the      ----
// ---- scratch-threaded collector and the support-restricted          ----
// ---- Karp-Luby sampler at 1, 4, and all hardware threads.           ----

struct VerifierFixture {
  std::vector<ProbabilisticGraph> db;
  ProbabilisticMatrixIndex pmi;
  std::vector<Graph> certain;
  StructuralFilter filter;
  std::vector<Graph> relaxed;
  std::vector<uint32_t> to_verify;
  VerifierOptions verifier;
};

const VerifierFixture& GetVerifierFixture() {
  static const VerifierFixture* fixture = [] {
    auto* f = new VerifierFixture();
    SyntheticOptions dataset;
    dataset.num_graphs = 60;
    dataset.avg_vertices = 14;
    dataset.edge_factor = 1.5;
    dataset.num_vertex_labels = 6;
    dataset.mean_edge_prob = 0.383;
    dataset.seed = 42;
    f->db = GenerateDatabase(dataset).value();
    PmiBuildOptions build;
    build.miner.alpha = 0.15;
    build.miner.beta = 0.15;
    build.miner.gamma = -1.0;
    build.miner.max_vertices = 4;
    build.sip.mc.min_samples = 600;
    build.sip.mc.max_samples = 600;
    f->pmi = ProbabilisticMatrixIndex::Build(f->db, build).value();
    for (const auto& g : f->db) f->certain.push_back(g.certain());
    f->filter = StructuralFilter::Build(f->certain, f->pmi.features());
    Rng rng(43);
    Graph q;
    for (;;) {
      auto candidate =
          ExtractQuery(f->certain[rng.Uniform(f->certain.size())], 8, &rng);
      if (candidate.ok()) {
        q = std::move(candidate).value();
        break;
      }
    }
    f->relaxed = GenerateRelaxedQueries(q, 2).value();
    const auto sc_q = f->filter.Filter(q, f->relaxed, 2, nullptr);
    ProbabilisticPruner pruner(&f->pmi, ProbPrunerOptions());
    PrunerScratch prune_scratch;
    pruner.PrepareQuery(f->relaxed);
    f->verifier.mc.min_samples = 3000;
    f->verifier.mc.max_samples = 3000;
    for (uint32_t gi : sc_q) {
      if (pruner.Evaluate(gi, 0.15, &rng, &prune_scratch).outcome !=
          PruneOutcome::kCandidate) {
        continue;
      }
      // Keep only candidates the sampler can actually verify.
      VerifierScratch scratch;
      if (CollectSimilarityEvents(f->db[gi], f->relaxed, f->verifier, &scratch)
              .ok()) {
        f->to_verify.push_back(gi);
      }
    }
    return f;
  }();
  return *fixture;
}

void BM_Verifier_CollectEvents(benchmark::State& state) {
  // Mirrors stage 3's production shape: the processor compiles one plan per
  // relaxed query up front (held in its CompiledQuery) and every
  // candidate's collection reuses them.
  const VerifierFixture& f = GetVerifierFixture();
  std::vector<MatchPlan> plans;
  plans.reserve(f.relaxed.size());
  for (const Graph& rq : f.relaxed) plans.push_back(CompileMatchPlan(rq));
  VerifierScratch scratch;
  for (auto _ : state) {
    for (uint32_t gi : f.to_verify) {
      benchmark::DoNotOptimize(CollectSimilarityEvents(
          f.db[gi], f.relaxed, f.verifier, &scratch, &plans));
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * f.to_verify.size());
  state.counters["candidates"] = static_cast<double>(f.to_verify.size());
}
BENCHMARK(BM_Verifier_CollectEvents);

void BM_Verifier_SampleSsp(benchmark::State& state) {
  // One iteration = stage 3 of one query: per-candidate RNGs pre-forked
  // sequentially, candidates fanned across the pool with one scratch per
  // rank. Identical SSP estimates at every thread count (ssp_sum pins it).
  const VerifierFixture& f = GetVerifierFixture();
  const uint32_t threads = state.range(0) == 0
                               ? ThreadPool::DefaultThreads()
                               : static_cast<uint32_t>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  std::vector<VerifierScratch> scratches(threads);
  std::vector<Rng> rngs;
  std::vector<double> ssp(f.to_verify.size());
  double checksum = 0.0;
  for (auto _ : state) {
    Rng base(49);
    rngs.clear();
    for (size_t k = 0; k < f.to_verify.size(); ++k) rngs.push_back(base.Fork());
    auto verify_one = [&](size_t k, VerifierScratch* scratch) {
      auto r = SampleSubgraphSimilarityProbability(
          f.db[f.to_verify[k]], f.relaxed, f.verifier, &rngs[k], scratch);
      ssp[k] = r.ok() ? *r : 0.0;
    };
    if (pool == nullptr) {
      for (size_t k = 0; k < f.to_verify.size(); ++k) {
        verify_one(k, &scratches[0]);
      }
    } else {
      pool->ParallelFor(f.to_verify.size(), 1,
                        [&](uint32_t rank, size_t begin, size_t end) {
                          for (size_t k = begin; k < end; ++k) {
                            verify_one(k, &scratches[rank]);
                          }
                        });
    }
    for (double s : ssp) checksum += s;
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * f.to_verify.size());
  state.counters["candidates"] = static_cast<double>(f.to_verify.size());
  state.counters["ssp_sum"] =
      checksum / std::max<int64_t>(1, state.iterations());
}
BENCHMARK(BM_Verifier_SampleSsp)
    ->Arg(1)
    ->Arg(4)
    ->Arg(0)  // 0 = all hardware threads
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_TopK_Query(benchmark::State& state) {
  SyntheticOptions dataset;
  dataset.num_graphs = 30;
  dataset.avg_vertices = 12;
  dataset.num_vertex_labels = 5;
  dataset.seed = 53;
  const auto db = GenerateDatabase(dataset).value();
  PmiBuildOptions build;
  build.miner.beta = 0.2;
  build.miner.gamma = -1.0;
  build.miner.max_vertices = 3;
  build.sip.mc.min_samples = 500;
  build.sip.mc.max_samples = 500;
  const auto pmi = ProbabilisticMatrixIndex::Build(db, build).value();
  Rng qrng(54);
  const Graph q = ExtractQuery(db[0].certain(), 5, &qrng).value();
  TopKOptions options;
  options.k = 5;
  options.delta = 1;
  options.verifier.mc.min_samples = 1000;
  options.verifier.mc.max_samples = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopKQuery(db, pmi, nullptr, q, options));
  }
}
BENCHMARK(BM_TopK_Query);

// ---- Adjacency scan over the flat CSR layout. ----

Graph MakeScanGraph() {
  SyntheticOptions options;
  options.num_graphs = 1;
  options.avg_vertices = 2000;
  options.edge_factor = 4.0;
  options.num_vertex_labels = 8;
  options.seed = 61;
  Rng rng(61);
  return GenerateGraph(options, &rng).value().certain();
}

void BM_Adjacency_ScanCsr(benchmark::State& state) {
  const Graph g = MakeScanGraph();
  for (auto _ : state) {
    uint64_t acc = 0;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      for (const AdjEntry& a : g.Neighbors(v)) {
        acc += a.neighbor + g.EdgeLabel(a.edge);
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 2 * g.NumEdges());
}
BENCHMARK(BM_Adjacency_ScanCsr);

// ---- Batch throughput: QueryBatch at 1, 4, and hardware threads. ----

struct BatchFixture {
  std::vector<ProbabilisticGraph> db;
  ProbabilisticMatrixIndex pmi;
  std::vector<Graph> certain;
  StructuralFilter filter;
  std::vector<Graph> queries;
};

const BatchFixture& GetBatchFixture() {
  static const BatchFixture* fixture = [] {
    auto* f = new BatchFixture();
    SyntheticOptions dataset;
    dataset.num_graphs = 60;
    dataset.avg_vertices = 12;
    dataset.num_vertex_labels = 5;
    dataset.seed = 67;
    f->db = GenerateDatabase(dataset).value();
    PmiBuildOptions build;
    build.miner.beta = 0.2;
    build.miner.gamma = -1.0;
    build.miner.max_vertices = 3;
    build.sip.mc.min_samples = 300;
    build.sip.mc.max_samples = 300;
    f->pmi = ProbabilisticMatrixIndex::Build(f->db, build).value();
    for (const auto& g : f->db) f->certain.push_back(g.certain());
    f->filter = StructuralFilter::Build(f->certain, f->pmi.features());
    Rng qrng(68);
    for (int i = 0; i < 24; ++i) {
      const auto& source = f->db[qrng.Uniform(f->db.size())].certain();
      f->queries.push_back(ExtractQuery(source, 5, &qrng).value());
    }
    return f;
  }();
  return *fixture;
}

void BM_QueryBatch_Throughput(benchmark::State& state) {
  const BatchFixture& f = GetBatchFixture();
  const QueryProcessor processor(&f.db, &f.pmi, &f.filter);
  QueryOptions options;
  options.delta = 1;
  options.verifier.mc.min_samples = 500;
  options.verifier.mc.max_samples = 500;
  BatchOptions batch;
  batch.num_threads = static_cast<uint32_t>(state.range(0));
  size_t answers = 0;
  for (auto _ : state) {
    BatchStats stats;
    const auto results =
        processor.QueryBatch(f.queries, options, batch, &stats);
    answers += stats.totals.answers;
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * f.queries.size());
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_QueryBatch_Throughput)
    ->Arg(1)
    ->Arg(4)
    ->Arg(0)  // 0 = all hardware threads
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- Cold start: the full offline pipeline (mine -> PMI -> filter) at ----
// ---- 1, 4, and hardware threads. The built index is bit-identical at  ----
// ---- every thread count (parallel_build_test), so this isolates pure  ----
// ---- build speedup.                                                   ----

const std::vector<ProbabilisticGraph>& GetColdStartDatabase() {
  static const std::vector<ProbabilisticGraph>* db = [] {
    SyntheticOptions dataset;
    dataset.num_graphs = 40;
    dataset.avg_vertices = 14;
    dataset.num_vertex_labels = 5;
    dataset.seed = 71;
    return new std::vector<ProbabilisticGraph>(
        GenerateDatabase(dataset).value());
  }();
  return *db;
}

void BM_ColdStart_IndexBuild(benchmark::State& state) {
  const auto& db = GetColdStartDatabase();
  std::vector<Graph> certain;
  for (const auto& g : db) certain.push_back(g.certain());
  PmiBuildOptions build;
  build.miner.beta = 0.2;
  build.miner.gamma = -1.0;
  build.miner.max_vertices = 4;
  build.sip.mc.min_samples = 300;
  build.sip.mc.max_samples = 300;
  build.num_threads = static_cast<uint32_t>(state.range(0));
  StructuralFilterOptions filter_options;
  filter_options.num_threads = build.num_threads;
  double mining_seconds = 0.0, bounds_seconds = 0.0;
  for (auto _ : state) {
    const auto pmi = ProbabilisticMatrixIndex::Build(db, build).value();
    const auto filter =
        StructuralFilter::Build(certain, pmi.features(), filter_options);
    mining_seconds += pmi.stats().mining_seconds;
    bounds_seconds += pmi.stats().bounds_seconds;
    benchmark::DoNotOptimize(filter.num_graphs());
  }
  state.counters["mining_s"] = mining_seconds / state.iterations();
  state.counters["bounds_s"] = bounds_seconds / state.iterations();
}
BENCHMARK(BM_ColdStart_IndexBuild)
    ->Arg(1)
    ->Arg(4)
    ->Arg(0)  // 0 = all hardware threads
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- Compiled-query cache: a workload-shaped batch (each query      ----
// ---- duplicated 4x, as repeated user queries are) vs a batch of as  ----
// ---- many distinct queries. Duplicates share one CompiledQuery.     ----

void BM_QueryBatch_RelaxationCache(benchmark::State& state) {
  const BatchFixture& f = GetBatchFixture();
  const QueryProcessor processor(&f.db, &f.pmi, &f.filter);
  // 8-edge queries at delta=2 make the compiled stages (C(8,2) deletion
  // sets with VF2 dedup + per-feature embedding counting) the dominant
  // per-query cost; light verification sampling keeps the per-candidate
  // tail small so the measurement isolates what sharing can save.
  const int copies = state.range(0) != 0 ? 4 : 1;
  Rng qrng(69);
  std::vector<Graph> batch_queries;
  while (batch_queries.size() < 96) {
    const auto& source = f.db[qrng.Uniform(f.db.size())].certain();
    auto q = ExtractQuery(source, 8, &qrng);
    if (!q.ok()) continue;
    for (int copy = 0; copy < copies; ++copy) batch_queries.push_back(*q);
  }
  QueryOptions options;
  options.delta = 2;
  options.verifier.mc.min_samples = 50;
  options.verifier.mc.max_samples = 50;
  BatchOptions batch;
  batch.num_threads = 1;
  size_t hits = 0;
  for (auto _ : state) {
    BatchStats stats;
    const auto results =
        processor.QueryBatch(batch_queries, options, batch, &stats);
    hits += stats.compiled_cache_hits;
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * batch_queries.size());
  state.counters["compiled_hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_QueryBatch_RelaxationCache)
    ->Arg(0)  // 96 distinct queries
    ->Arg(1)  // 24 distinct queries, each 4x
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- Skewed batch (PR 6): mostly-cheap queries plus a few pathological  ----
// ---- ones on the work-stealing task graph. Small queries are the        ----
// ---- expensive ones here — nearly every database graph survives the     ----
// ---- structural filter, so each drags dozens of Karp-Luby              ----
// ---- verifications behind it — and they sit adjacent at the front of    ----
// ---- the batch, where a whole-query chunk claim would leave one worker   ----
// ---- holding all of them. The task graph splits the hot queries'        ----
// ---- candidates across idle workers. Answers are bit-identical at every ----
// ---- width.                                                              ----

const std::vector<Graph>& GetSkewedQueries() {
  static const std::vector<Graph>* queries = [] {
    const BatchFixture& f = GetBatchFixture();
    auto* qs = new std::vector<Graph>();
    Rng qrng(70);
    // 3 pathological queries: 3-edge extracts match most of the database.
    while (qs->size() < 3) {
      const auto& source = f.db[qrng.Uniform(f.db.size())].certain();
      auto q = ExtractQuery(source, 3, &qrng);
      if (q.ok()) qs->push_back(std::move(q).value());
    }
    // 21 cheap queries: 7-edge extracts keep few verification candidates.
    while (qs->size() < 24) {
      const auto& source = f.db[qrng.Uniform(f.db.size())].certain();
      auto q = ExtractQuery(source, 7, &qrng);
      if (q.ok()) qs->push_back(std::move(q).value());
    }
    return qs;
  }();
  return *queries;
}

void BM_QueryBatch_Skew(benchmark::State& state) {
  const BatchFixture& f = GetBatchFixture();
  const std::vector<Graph>& queries = GetSkewedQueries();
  const QueryProcessor processor(&f.db, &f.pmi, &f.filter);
  QueryOptions options;
  options.delta = 1;
  options.verifier.mc.min_samples = 1000;
  options.verifier.mc.max_samples = 1000;
  BatchOptions batch;
  batch.num_threads = static_cast<uint32_t>(state.range(0));
  size_t answers = 0;
  size_t stolen = 0;
  for (auto _ : state) {
    BatchStats stats;
    const auto results =
        processor.QueryBatch(queries, options, batch, &stats);
    answers += stats.totals.answers;
    stolen += stats.tasks_stolen;
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * queries.size());
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["stolen"] = static_cast<double>(stolen);
}
BENCHMARK(BM_QueryBatch_Skew)
    ->Arg(1)  // 1 thread (inline)
    ->Arg(4)  // 4 threads
    ->Arg(0)  // all hardware threads
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- ThreadPool submission wake-up cost (PR 6 satellite): a burst of   ----
// ---- trivial tasks via one Submit per task (a futex notify each) vs a  ----
// ---- single SubmitMany (one lock, one notify_all).                     ----

void BM_ThreadPool_SubmitBurst(benchmark::State& state) {
  ThreadPool pool(4);
  constexpr int kBurst = 64;
  std::atomic<int> sink{0};
  for (auto _ : state) {
    if (state.range(0) == 0) {
      for (int i = 0; i < kBurst; ++i) {
        pool.Submit([&sink] { sink.fetch_add(1, std::memory_order_relaxed); });
      }
    } else {
      std::vector<std::function<void()>> tasks;
      tasks.reserve(kBurst);
      for (int i = 0; i < kBurst; ++i) {
        tasks.push_back(
            [&sink] { sink.fetch_add(1, std::memory_order_relaxed); });
      }
      pool.SubmitMany(std::move(tasks));
    }
    pool.Wait();
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * kBurst);
  state.counters["ran"] = static_cast<double>(sink.load());
}
BENCHMARK(BM_ThreadPool_SubmitBurst)
    ->Arg(0)  // per-task Submit + notify_one
    ->Arg(1)  // bulk SubmitMany + one notify_all
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// ---- Live-database maintenance (PR 7): one AddGraph/RemoveGraph round   ----
// ---- trip on indexes of different sizes. AddGraph appends a column in   ----
// ---- place (feature containment + SIP bounds for the new graph only),   ----
// ---- so per-add cost must be independent of the database size — the     ----
// ---- regression this bench pins is the old rematerialize-all-columns    ----
// ---- path, whose cost scaled O(num_graphs x features). Compaction of    ----
// ---- the accumulated tombstones runs outside the timed region.          ----

ProbabilisticMatrixIndex& GetMaintenancePmi(size_t num_graphs) {
  static auto* cache = new std::map<size_t, ProbabilisticMatrixIndex*>();
  auto it = cache->find(num_graphs);
  if (it == cache->end()) {
    SyntheticOptions dataset;
    dataset.num_graphs = num_graphs;
    dataset.avg_vertices = 12;
    dataset.num_vertex_labels = 5;
    dataset.seed = 90;
    auto db = GenerateDatabase(dataset).value();
    PmiBuildOptions build;
    build.miner.beta = 0.2;
    build.miner.gamma = -1.0;
    build.miner.max_vertices = 3;
    build.sip.mc.min_samples = 300;
    build.sip.mc.max_samples = 300;
    auto* pmi = new ProbabilisticMatrixIndex(
        ProbabilisticMatrixIndex::Build(db, build).value());
    it = cache->emplace(num_graphs, pmi).first;
  }
  return *it->second;
}

void BM_Pmi_AddGraph(benchmark::State& state) {
  ProbabilisticMatrixIndex& pmi =
      GetMaintenancePmi(static_cast<size_t>(state.range(0)));
  const ProbabilisticGraph extra = MakeBenchGraph(91, 12);
  const SipBoundOptions sip = pmi.sip_options();
  int since_compact = 0;
  for (auto _ : state) {
    auto id = pmi.AddGraph(extra, sip, 7);
    benchmark::DoNotOptimize(id);
    if (id.ok()) {
      const Status removed = pmi.RemoveGraph(*id);
      benchmark::DoNotOptimize(removed.ok());
    }
    if (++since_compact == 64) {
      state.PauseTiming();
      pmi.Compact();
      since_compact = 0;
      state.ResumeTiming();
    }
  }
  pmi.Compact();
  state.SetItemsProcessed(state.iterations());
  state.counters["features"] = static_cast<double>(pmi.num_features());
  state.counters["graphs"] = static_cast<double>(pmi.num_graphs());
}
BENCHMARK(BM_Pmi_AddGraph)
    ->Arg(64)   // small index
    ->Arg(512)  // 8x the graphs: per-add time must stay flat
    ->Unit(benchmark::kMicrosecond);

// ---- Cross-batch answer cache (PR 7): the same 24-query batch served    ----
// ---- cold (full pipeline every pass) vs warm (every answer from the     ----
// ---- AnswerCache after the first pass) — the serving-loop speedup the   ----
// ---- cache exists for. Answers are bit-identical in both modes.         ----

void BM_AnswerCache_HitRate(benchmark::State& state) {
  const BatchFixture& f = GetBatchFixture();
  const QueryProcessor processor(&f.db, &f.pmi, &f.filter);
  QueryOptions options;
  options.delta = 1;
  options.verifier.mc.min_samples = 300;
  options.verifier.mc.max_samples = 300;
  BatchOptions batch;
  batch.num_threads = 1;
  AnswerCache cache;
  if (state.range(0) != 0) {
    batch.answer_cache = &cache;
    // Warm pass outside the timed region: fills every slot.
    processor.QueryBatch(f.queries, options, batch);
  }
  size_t hits = 0;
  for (auto _ : state) {
    BatchStats stats;
    const auto results = processor.QueryBatch(f.queries, options, batch, &stats);
    hits += stats.answer_cache.hits;
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * f.queries.size());
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_AnswerCache_HitRate)
    ->Arg(0)  // cold: no answer cache
    ->Arg(1)  // warm: every query served from the cache
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- Columnar filter/prune engine (PR 4): a fig10-style workload       ----
// ---- (Section-6 generator defaults, qsize-6 queries at delta=1) driven ----
// ---- through stage 1's count scan and stage 2's per-candidate bound    ----
// ---- evaluation — the two loops the feature-major layouts accelerate.  ----

struct FilterPrunerFixture {
  std::vector<ProbabilisticGraph> db;
  ProbabilisticMatrixIndex pmi;
  std::vector<Graph> certain;
  StructuralFilter count_filter;  // exact_check off
  std::vector<Graph> queries;
  std::vector<std::vector<Graph>> relaxed;  // per query
  std::vector<std::vector<uint32_t>> sc_q;  // per query survivors
};

const FilterPrunerFixture& GetFilterPrunerFixture() {
  static const FilterPrunerFixture* fixture = [] {
    auto* f = new FilterPrunerFixture();
    SyntheticOptions dataset;
    dataset.num_graphs = 150;
    dataset.avg_vertices = 12;
    dataset.edge_factor = 1.4;
    dataset.num_vertex_labels = 5;
    dataset.seed = 81;
    f->db = GenerateDatabase(dataset).value();
    PmiBuildOptions build;
    build.miner.beta = 0.15;
    build.miner.gamma = -1.0;
    build.miner.max_vertices = 4;
    build.sip.mc.min_samples = 200;
    build.sip.mc.max_samples = 200;
    f->pmi = ProbabilisticMatrixIndex::Build(f->db, build).value();
    for (const auto& g : f->db) f->certain.push_back(g.certain());
    StructuralFilterOptions filter_options;
    filter_options.exact_check = false;
    f->count_filter =
        StructuralFilter::Build(f->certain, f->pmi.features(), filter_options);
    Rng qrng(82);
    while (f->queries.size() < 8) {
      auto q = ExtractQuery(f->certain[qrng.Uniform(f->certain.size())], 6,
                            &qrng);
      if (!q.ok()) continue;
      auto relaxed = GenerateRelaxedQueries(*q, 1);
      if (!relaxed.ok()) continue;
      f->queries.push_back(std::move(q).value());
      f->relaxed.push_back(std::move(relaxed).value());
      f->sc_q.push_back(f->count_filter.Filter(f->queries.back(),
                                               f->relaxed.back(), 1));
    }
    return f;
  }();
  return *fixture;
}

// The count scan's own fixture scales the database to the regime the
// columnar layout targets (the filter sweeps the whole database per
// query). Features are hand-built single-edge / 2-path label patterns with
// VF2-computed support — the same structures the miner emits, minus the
// mining cost, so the 4000-graph fixture builds in seconds.
struct FilterScanFixture {
  std::vector<Graph> certain;
  std::vector<Feature> features;
  StructuralFilter filter;  // exact_check off: isolates the scan
  std::vector<Graph> queries;
  std::vector<QueryFeatureCounts> query_counts;
  std::vector<Graph> empty_relaxed;  // unused when exact_check is off
};

const FilterScanFixture& GetFilterScanFixture() {
  static const FilterScanFixture* fixture = [] {
    auto* f = new FilterScanFixture();
    SyntheticOptions dataset;
    dataset.num_graphs = 4000;
    dataset.avg_vertices = 12;
    dataset.edge_factor = 1.4;
    dataset.num_vertex_labels = 5;
    dataset.seed = 91;
    const auto db = GenerateDatabase(dataset).value();
    for (const auto& g : db) f->certain.push_back(g.certain());
    const uint32_t labels = dataset.num_vertex_labels;
    std::vector<Graph> patterns;
    for (uint32_t a = 0; a < labels; ++a) {
      for (uint32_t b = a; b < labels; ++b) {
        GraphBuilder builder;
        const VertexId u = builder.AddVertex(a);
        const VertexId v = builder.AddVertex(b);
        (void)builder.AddEdge(u, v, 0);
        patterns.push_back(builder.Build());
      }
    }
    for (uint32_t a = 0; a < labels; ++a) {
      for (uint32_t b = 0; b < labels; ++b) {
        for (uint32_t c = a; c < labels; ++c) {
          GraphBuilder builder;
          const VertexId u = builder.AddVertex(a);
          const VertexId m = builder.AddVertex(b);
          const VertexId v = builder.AddVertex(c);
          (void)builder.AddEdge(u, m, 0);
          (void)builder.AddEdge(m, v, 0);
          patterns.push_back(builder.Build());
        }
      }
    }
    for (Graph& pattern : patterns) {
      Feature feature;
      feature.graph = std::move(pattern);
      for (uint32_t gi = 0; gi < f->certain.size(); ++gi) {
        if (IsSubgraphIsomorphic(feature.graph, f->certain[gi])) {
          feature.support.push_back(gi);
        }
      }
      if (!feature.support.empty()) f->features.push_back(std::move(feature));
    }
    StructuralFilterOptions filter_options;
    filter_options.exact_check = false;
    f->filter =
        StructuralFilter::Build(f->certain, f->features, filter_options);
    Rng qrng(92);
    while (f->queries.size() < 8) {
      auto q = ExtractQuery(f->certain[qrng.Uniform(f->certain.size())], 6,
                            &qrng);
      if (!q.ok()) continue;
      f->queries.push_back(std::move(q).value());
      f->query_counts.push_back(
          f->filter.ComputeQueryCounts(f->queries.back()));
    }
    return f;
  }();
  return *fixture;
}

void BM_Filter_CountScan(benchmark::State& state) {
  // One iteration = stage 1's count filter for every fixture query, with
  // the per-query feature counts precomputed (as a CompiledQuery holds
  // them), so the measurement isolates the database-wide threshold sweep.
  const FilterScanFixture& f = GetFilterScanFixture();
  StructuralFilterScratch scratch;
  std::vector<uint32_t> survivors;
  size_t total = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < f.queries.size(); ++i) {
      f.filter.Filter(f.queries[i], f.empty_relaxed, 1, &survivors, &scratch,
                      nullptr, &f.query_counts[i], nullptr);
      total += survivors.size();
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * f.queries.size() *
                          f.certain.size());
  state.counters["survivors"] =
      static_cast<double>(total) / std::max<int64_t>(1, state.iterations());
}
BENCHMARK(BM_Filter_CountScan);

void BM_Pruner_Evaluate(benchmark::State& state) {
  // One iteration = stage 2 for every fixture query: prepared relations,
  // then one bound evaluation per structural candidate. The scratch keeps
  // the per-candidate path allocation-free.
  const FilterPrunerFixture& f = GetFilterPrunerFixture();
  std::vector<ProbabilisticPruner> pruners;
  for (size_t i = 0; i < f.queries.size(); ++i) {
    pruners.emplace_back(&f.pmi, ProbPrunerOptions());
    pruners.back().PrepareQuery(f.relaxed[i]);
  }
  PrunerScratch scratch;
  size_t candidates = 0, pruned = 0;
  for (auto _ : state) {
    Rng rng(83);
    for (size_t i = 0; i < f.queries.size(); ++i) {
      for (uint32_t gi : f.sc_q[i]) {
        ++candidates;
        const PruneDecision d = pruners[i].Evaluate(gi, 0.4, &rng, &scratch);
        pruned += d.outcome == PruneOutcome::kPruned;
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(candidates));
  state.counters["pruned_frac"] =
      candidates == 0 ? 0.0
                      : static_cast<double>(pruned) /
                            static_cast<double>(candidates);
}
BENCHMARK(BM_Pruner_Evaluate);

void BM_Wal_Append(benchmark::State& state) {
  // One iteration = one durable mutation record: encode, single write(),
  // fsync. Arg is the payload kind: 0 = RemoveGraph (12-byte payload, the
  // fsync floor), 1 = AddGraph of a ~12-vertex probabilistic graph (the
  // realistic live-insert record).
  const std::string path = "/tmp/pgsim_bench_wal.log";
  std::remove(path.c_str());
  std::vector<WalRecord> records;
  auto wal = WriteAheadLog::Open(path, &records).value();
  const ProbabilisticGraph graph = MakeBenchGraph(901, 12);
  uint64_t epoch = 0;
  for (auto _ : state) {
    if (state.range(0) == 0) {
      benchmark::DoNotOptimize(wal->AppendRemoveGraph(epoch++, 3));
    } else {
      benchmark::DoNotOptimize(wal->AppendAddGraph(epoch++, 7, graph));
    }
    // Keep the log from growing unboundedly across iterations.
    if (wal->SizeBytes() > (64u << 20)) {
      if (!wal->Reset().ok()) state.SkipWithError("wal reset failed");
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["log_bytes"] = static_cast<double>(wal->SizeBytes());
  wal.reset();
  std::remove(path.c_str());
}
BENCHMARK(BM_Wal_Append)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_Wal_RecoverReplay(benchmark::State& state) {
  // One iteration = Open() over a log of `Arg` intact records: scan, CRC
  // verification, decode. The cost bound on crash-recovery startup per
  // record.
  const std::string path = "/tmp/pgsim_bench_wal_recover.log";
  std::remove(path.c_str());
  {
    std::vector<WalRecord> records;
    auto wal = WriteAheadLog::Open(path, &records).value();
    const ProbabilisticGraph graph = MakeBenchGraph(907, 10);
    for (int64_t i = 0; i < state.range(0); ++i) {
      if (!wal->AppendAddGraph(static_cast<uint64_t>(i), 7, graph).ok()) {
        state.SkipWithError("append failed");
        return;
      }
    }
  }
  size_t replayed = 0;
  for (auto _ : state) {
    std::vector<WalRecord> records;
    auto wal = WriteAheadLog::Open(path, &records);
    if (!wal.ok()) {
      state.SkipWithError("open failed");
      return;
    }
    replayed += records.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(replayed));
  std::remove(path.c_str());
}
BENCHMARK(BM_Wal_RecoverReplay)->Arg(64)->Arg(512);

}  // namespace

// Expanded BENCHMARK_MAIN with one extra context key: the JSON's standard
// "library_build_type" describes the *benchmark library* (Debian ships
// libbenchmark without NDEBUG, so it always reads "debug" there);
// "pgsim_build_type" records how this binary and libpgsim were compiled —
// the value that matters when reading BENCH_*.json timings.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("pgsim_build_type", "release");
#else
  benchmark::AddCustomContext("pgsim_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
