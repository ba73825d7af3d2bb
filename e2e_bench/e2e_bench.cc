// Seeded end-to-end benchmark of the pgsim engine: the T-PS query pipeline
// (relax -> structural filter -> probabilistic pruning -> sampled
// verification), its batch scheduler, and the durable serving stack.
//
//   e2e_bench --workload=<sample-bound|front-bound|serve-mix> --seed=N
//             --seconds=S --trace=<0|1> [--work-dir=DIR] [--commit=ID]
//             [--tiny] [--inject-mismatch]
//
// Every input (database, queries, mutation graphs, arrival schedule) is
// generated here from --seed; the library receives only those inputs and is
// driven through its public API (QueryProcessor, ServingCore,
// DurableDatabase). The run prints a run record, one line per metric
// ("e2e <name> <value> <unit>" or "layer <name> <value> <unit>") and, last,
// one JSON object {correct, attempted, failed, metrics}: the end-to-end
// metrics with --trace=0, the per-layer metrics with --trace=1. End-to-end
// numbers always come from the untraced run; --trace=1 then rebuilds the
// query pipeline from the library's public stage functions with a span
// around each call and attributes time to layers from outside the library.
// The exit code is non-zero iff a correctness gate failed.
//
// --tiny shrinks every workload for the self-test; --inject-mismatch
// corrupts one batch answer so the self-test can see the gate trip.

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pgsim/common/random.h"
#include "pgsim/common/task_scheduler.h"
#include "pgsim/common/timer.h"
#include "pgsim/datasets/synthetic.h"
#include "pgsim/graph/relaxation.h"
#include "pgsim/graph/signature.h"
#include "pgsim/graph/vf2.h"
#include "pgsim/index/domain_index.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/answer_cache.h"
#include "pgsim/query/prob_pruner.h"
#include "pgsim/query/processor.h"
#include "pgsim/query/structural_filter.h"
#include "pgsim/query/verifier.h"
#include "pgsim/serving/serving_core.h"
#include "pgsim/storage/durable_db.h"

namespace {

using namespace pgsim;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool inject_mismatch = false;
  std::string work_dir = ".bench_build/e2e_work";
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "1" : arg.substr(eq + 1);
    if (key == "--workload") {
      out->workload = value;
    } else if (key == "--seed") {
      out->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      out->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      out->trace = value != "0";
    } else if (key == "--tiny") {
      out->tiny = value != "0";
    } else if (key == "--inject-mismatch") {
      out->inject_mismatch = value != "0";
    } else if (key == "--work-dir") {
      out->work_dir = value;
    } else if (key == "--commit") {
      out->commit = value;
    } else {
      std::fprintf(stderr, "e2e_bench: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  return out->seconds > 0.0;
}

// ------------------------------------------------------------------ helpers

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// The highest percentile (0.1 steps, capped at 99.9) that leaves at least
/// ten samples beyond it. It moves smoothly with the sample count, so runs
/// whose counts differ slightly report nearly the same percentile.
double TailPercentile(size_t n) {
  if (n < 20) return 50.0;
  const double beyond = 10.0 / static_cast<double>(n);
  const double p = std::floor(1000.0 * (1.0 - beyond)) / 10.0;
  return std::clamp(p, 50.0, 99.9);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::atomic<uint64_t> g_calibration_sink{0};

/// Fixed integer kernel timed before and after each workload. It identifies
/// a run taken while the host was slowed; it never scales a metric.
double CalibrationMs() {
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    WallTimer timer;
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (uint32_t i = 0; i < (1U << 23); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      x *= 0x2545F4914F6CDD1DULL;
    }
    g_calibration_sink.fetch_add(x, std::memory_order_relaxed);
    ms.push_back(timer.Millis());
  }
  return Median(ms);
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {0};
  if (__get_cpuid(0x80000000U, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004U) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002U + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model = model.c_str();  // drop trailing NULs
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

// ------------------------------------------------------------------ report

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every workload reports every metric below (BENCHMARK.json lists the same
// names and units). End-to-end metrics are never 0. A per-layer metric of a
// layer the workload does not exercise (serving, storage and the answer
// cache on the closed-loop workloads) reads 0.
constexpr MetricDef kE2eMetrics[] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MiB"}, {"qps", "1/s"},
    {"lat_p50_ms", "ms"},     {"lat_tail_ms", "ms"},  {"batch_qps", "1/s"},
    {"precision", "ratio"},   {"recall", "ratio"},    {"ok_frac", "ratio"},
    {"exact_frac", "ratio"},
};

constexpr MetricDef kLayerMetrics[] = {
    {"build.mine_s", "s"},
    {"build.bounds_s", "s"},
    {"build.filter_s", "s"},
    {"build.sig_s", "s"},
    {"build.features", "count"},
    {"build.pmi_bytes", "bytes"},
    {"relax.s", "s"},
    {"relax.rq_per_query", "count"},
    {"compile.s", "s"},
    {"filter.s", "s"},
    {"filter.scq_ratio", "ratio"},
    {"filter.iso_tests", "count"},
    {"sig.reject_ratio", "ratio"},
    {"sig.vf2_avoided", "count"},
    {"prune.prepare_s", "s"},
    {"prune.eval_s", "s"},
    {"prune.decided_ratio", "ratio"},
    {"prune.lower_accepts", "count"},
    {"collect.s", "s"},
    {"collect.events_per_cand", "count"},
    {"collect.cap_fail_frac", "ratio"},
    {"sample.s", "s"},
    {"sample.draws", "count"},
    {"sample.accept_ratio", "ratio"},
    {"batch.steal_frac", "ratio"},
    {"batch.queue_wait_s", "s"},
    {"batch.threads_used", "count"},
    {"answer_cache.hit_rate", "ratio"},
    {"answer_cache.stale", "count"},
    {"admission.wait_ms", "ms"},
    {"admission.max_depth", "count"},
    {"serving.waves", "count"},
    {"serving.shed_frac", "ratio"},
    {"serving.max_rate_qps", "1/s"},
    {"serving.lat_p50_ms", "ms"},
    {"serving.lat_tail_ms", "ms"},
    {"gen.lag_ms", "ms"},
    {"wal.bytes_per_mutation", "bytes"},
    {"storage.checkpoint_s", "s"},
    {"storage.open_s", "s"},
    {"storage.snapshot_bytes", "bytes"},
    {"mut_p50_ms", "ms"},
    {"mut.remove_p50_ms", "ms"},
    {"fail_frac", "ratio"},
    {"degraded_frac", "ratio"},
    {"lat.tail_pct", "%"},
    {"lat.samples", "count"},
    {"oracle.unknown", "count"},
    {"trace.queries", "count"},
    {"trace.untraced_s", "s"},
    {"trace.glue_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.answers_agree", "count"},
    {"host.calib_pre_ms", "ms"},
    {"host.calib_post_ms", "ms"},
};

class Report {
 public:
  void E2e(const std::string& name, double value) { e2e_[name] = value; }
  void Layer(const std::string& name, double value) { layer_[name] = value; }

  /// Prints every metric line, then the JSON result as the last line. An
  /// end-to-end metric that was never set, or a name outside the tables,
  /// is a bug in this file and fails the gate.
  bool Print(bool trace, bool correct, uint64_t attempted,
             uint64_t failed) const {
    bool complete = true;
    std::map<std::string, double> e2e = e2e_;
    std::map<std::string, double> layer = layer_;
    std::string json;
    const auto emit = [&](const char* kind, const MetricDef& m,
                          std::map<std::string, double>* values, bool out) {
      const auto it = values->find(m.name);
      const bool found = it != values->end();
      const double v = found ? it->second : 0.0;
      if (found) values->erase(it);
      if (!found && std::strcmp(kind, "e2e") == 0) complete = false;
      std::printf("%s %s %.6g %s\n", kind, m.name, v, m.unit);
      if (!out) return;
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", std::isfinite(v) ? v : 0.0);
      if (!json.empty()) json += ", ";
      json += "\"" + std::string(m.name) + "\": {\"value\": " + value +
              ", \"unit\": \"" + m.unit + "\"}";
    };
    for (const MetricDef& m : kE2eMetrics) emit("e2e", m, &e2e, !trace);
    for (const MetricDef& m : kLayerMetrics) emit("layer", m, &layer, trace);
    for (const auto& [name, v] : e2e) {
      std::printf("gate FAILED: unlisted metric %s\n", name.c_str());
      complete = false;
    }
    for (const auto& [name, v] : layer) {
      std::printf("gate FAILED: unlisted metric %s\n", name.c_str());
      complete = false;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct && complete ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), json.c_str());
    std::fflush(stdout);
    return complete;
  }

 private:
  std::map<std::string, double> e2e_;
  std::map<std::string, double> layer_;
};

/// Correctness gate: collects every failed check with its reason.
class Gate {
 public:
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    ++failures_;
    std::printf("gate FAILED: %s\n", what.c_str());
  }
  bool ok() const { return failures_ == 0; }

 private:
  size_t failures_ = 0;
};

// ---------------------------------------------------------------- workloads

struct Spec {
  std::string name;
  uint64_t tag = 0;  ///< separates the seed streams of the workloads
  size_t graphs = 200;
  uint32_t labels = 6;
  uint32_t qsize_min = 6;
  uint32_t qsize_max = 8;
  uint32_t delta_min = 2;
  uint32_t delta_max = 2;
  std::vector<double> epsilons;
  size_t queries = 64;        ///< query list length (serve-mix: hot set)
  size_t oracle_queries = 4;  ///< prefix of the queries checked exactly
  size_t trace_queries = 64;  ///< prefix of the queries traced
  size_t batch_queries = 512; ///< prefix of the queries the batch repeats
  size_t mutation_pairs = 48;  ///< AddGraph+RemoveGraph pairs (closed-loop)
  bool serve = false;
};

bool MakeSpec(const std::string& name, bool tiny, Spec* spec) {
  const std::vector<double> eps_mix = {0.05, 0.1, 0.2, 0.3};
  if (name == "sample-bound") {
    // Karp-Luby sampling dominates: scarce labels make embeddings (and so
    // events and surviving candidates) plentiful.
    spec->tag = 1;
    spec->labels = 3;
    spec->qsize_min = 6;
    spec->qsize_max = 8;
    spec->delta_min = 2;
    spec->delta_max = 3;
    spec->epsilons = eps_mix;
    spec->queries = 480;
    spec->oracle_queries = 4;
    spec->trace_queries = 48;
  } else if (name == "front-bound") {
    // Work spread over the front stages: 10 labels, C(10, 3) = 120
    // deletion sets per query, few candidates reach the sampler.
    spec->tag = 2;
    spec->labels = 10;
    spec->qsize_min = 10;
    spec->qsize_max = 10;
    spec->delta_min = 3;
    spec->delta_max = 3;
    spec->epsilons = eps_mix;
    spec->queries = 8192;
    spec->oracle_queries = 96;
    spec->trace_queries = 1024;
  } else if (name == "serve-mix") {
    // The default 6-label database served through ServingCore over a
    // DurableDatabase; one fixed option set per core.
    spec->tag = 3;
    spec->labels = 6;
    spec->qsize_min = 6;
    spec->qsize_max = 8;
    spec->delta_min = 2;
    spec->delta_max = 2;
    spec->epsilons = {0.2};
    spec->queries = 256;
    spec->oracle_queries = 16;
    spec->trace_queries = 128;
    spec->serve = true;
  } else {
    return false;
  }
  spec->name = name;
  if (tiny) {
    spec->graphs = 30;
    spec->queries = 6;
    spec->oracle_queries = 2;
    spec->trace_queries = 6;
    spec->mutation_pairs = 2;
  }
  return true;
}

// The database of each workload, and the graphs its mutations add, are
// generated from this fixed seed, the same in every run; --seed draws the
// queries and the arrival schedule. Database-level properties (mined
// features, label skew) move the cost of every query together: with a
// seeded database the front-bound qps of five seeds spread over 206-290/s,
// beyond any bound.
constexpr uint64_t kDatabaseSeed = 20120827;

SyntheticOptions Dataset(const Spec& spec) {
  const uint64_t seed = Mix(kDatabaseSeed, spec.tag);
  SyntheticOptions options;
  options.num_graphs = spec.graphs;
  options.avg_vertices = 14;
  options.edge_factor = 1.5;
  options.num_vertex_labels = spec.labels;
  options.mean_edge_prob = 0.383;
  options.seed = seed;
  return options;
}

/// `count` graphs for AddGraph mutations, drawn like the database's own.
Result<std::vector<ProbabilisticGraph>> MutationGraphs(
    const SyntheticOptions& data, size_t count) {
  Rng rng(Mix(data.seed, 1));
  std::vector<ProbabilisticGraph> graphs;
  for (size_t i = 0; i < count; ++i) {
    PGSIM_ASSIGN_OR_RETURN(ProbabilisticGraph g, GenerateGraph(data, &rng));
    graphs.push_back(std::move(g));
  }
  return graphs;
}

/// The paper's Section 6 PMI defaults at laptop scale.
PmiBuildOptions PmiBuild() {
  PmiBuildOptions build;
  build.miner.alpha = 0.15;
  build.miner.beta = 0.15;
  build.miner.gamma = -1.0;  // keep all frequent features
  build.miner.max_vertices = 4;
  build.sip.mc.xi = 0.1;
  build.sip.mc.tau = 0.1;
  build.sip.mc.min_samples = 600;
  build.sip.mc.max_samples = 1500;
  return build;
}

struct QueryItem {
  Graph q;
  QueryOptions options;
};

/// Query i takes parameter combination i mod C of the (qsize, delta,
/// epsilon) grid, so every prefix of the list mixes the grid evenly: a run
/// that executes more or fewer queries still measures the same mix, and
/// seeds differ only in the sampled graphs and query shapes.
Result<std::vector<QueryItem>> MakeQueries(const Spec& spec,
                                           const std::vector<Graph>& certain,
                                           uint64_t seed) {
  struct Combo {
    uint32_t qsize;
    uint32_t delta;
    double epsilon;
  };
  std::vector<Combo> grid;
  for (uint32_t qsize = spec.qsize_min; qsize <= spec.qsize_max; ++qsize) {
    for (uint32_t delta = spec.delta_min; delta <= spec.delta_max; ++delta) {
      for (double epsilon : spec.epsilons) {
        grid.push_back({qsize, delta, epsilon});
      }
    }
  }
  Rng rng(seed);
  std::vector<QueryItem> items;
  size_t attempts = 0;
  while (items.size() < spec.queries) {
    if (++attempts > 100 * spec.queries + 100) {
      return Status::Internal("could not extract enough queries");
    }
    const Combo& c = grid[items.size() % grid.size()];
    Result<Graph> q =
        ExtractQuery(certain[rng.Uniform(certain.size())], c.qsize, &rng);
    if (!q.ok()) continue;
    QueryItem item;
    item.q = std::move(q).value();
    item.options.delta = c.delta;
    item.options.epsilon = c.epsilon;
    items.push_back(std::move(item));
  }
  return items;
}

// -------------------------------------------------------------------- setup

/// The in-memory engine: database, PMI (mining + SIP bounds), structural
/// filter and signature index — everything a QueryProcessor serves.
struct Engine {
  std::vector<ProbabilisticGraph> db;
  std::vector<Graph> certain;
  ProbabilisticMatrixIndex pmi;
  StructuralFilter filter;
  SignatureIndex sigs;
  std::vector<uint32_t> label_freq;  ///< plan seed order, as the processor
  double seconds = 0.0;
  double filter_seconds = 0.0;
  double sig_seconds = 0.0;
};

Result<std::unique_ptr<Engine>> BuildEngine(const SyntheticOptions& data) {
  auto e = std::make_unique<Engine>();
  WallTimer total;
  PGSIM_ASSIGN_OR_RETURN(e->db, GenerateDatabase(data));
  for (const ProbabilisticGraph& g : e->db) e->certain.push_back(g.certain());
  PGSIM_ASSIGN_OR_RETURN(e->pmi,
                         ProbabilisticMatrixIndex::Build(e->db, PmiBuild()));
  WallTimer filter_timer;
  e->filter = StructuralFilter::Build(e->certain, e->pmi.features());
  e->filter_seconds = filter_timer.Seconds();
  WallTimer sig_timer;
  e->sigs = SignatureIndex::Build(e->db);
  e->sig_seconds = sig_timer.Seconds();
  e->seconds = total.Seconds();
  for (const ProbabilisticGraph& g : e->db) {
    AccumulateVertexLabelFrequencies(g.certain(), &e->label_freq);
  }
  return e;
}

// Number of measured cold builds behind setup_s. One extra build runs first
// and is discarded: the first heavy build a process runs after the host
// idled is up to twice as slow as the ones after it, and setup_s must not
// depend on how long the host idled before the run.
constexpr int kSetupReps = 3;

struct BuildMetrics {
  double setup_s = 0.0;
  double mine_s = 0.0;
  double bounds_s = 0.0;
  double filter_s = 0.0;
  double sig_s = 0.0;
  double features = 0.0;
  double pmi_bytes = 0.0;
};

/// Builds the engine 1 + kSetupReps times; returns the last one.
Result<std::unique_ptr<Engine>> SetupEngine(const SyntheticOptions& data,
                                            BuildMetrics* m) {
  std::vector<double> total, mine, bounds, filter, sig;
  std::unique_ptr<Engine> engine;
  for (int rep = 0; rep <= kSetupReps; ++rep) {
    engine.reset();
    PGSIM_ASSIGN_OR_RETURN(engine, BuildEngine(data));
    if (rep == 0) continue;
    total.push_back(engine->seconds);
    mine.push_back(engine->pmi.stats().mining_seconds);
    bounds.push_back(engine->pmi.stats().bounds_seconds);
    filter.push_back(engine->filter_seconds);
    sig.push_back(engine->sig_seconds);
  }
  m->setup_s = Median(total);
  m->mine_s = Median(mine);
  m->bounds_s = Median(bounds);
  m->filter_s = Median(filter);
  m->sig_s = Median(sig);
  m->features = static_cast<double>(engine->pmi.features().size());
  m->pmi_bytes = static_cast<double>(engine->pmi.stats().size_bytes);
  return engine;
}

// ------------------------------------------------------ sequential queries

/// One client, closed loop: the next query is sent when the previous one
/// returned. The loop walks the query list in order until the budget is
/// spent and at least `min_queries` ran. The lists are long enough that a
/// run seldom wraps around, so almost every latency sample is a distinct
/// query; a query that does repeat must answer as it did the first time.
struct SeqRun {
  std::vector<std::vector<uint32_t>> answers;  ///< per query, first run
  std::vector<QueryStats> stats;               ///< per query, first run
  std::vector<double> sum_s;                   ///< per query, summed latency
  std::vector<uint32_t> runs;                  ///< per query, executions
  std::vector<double> latencies_s;             ///< every execution
  size_t distinct = 0;                         ///< list prefix that ran
  double wall_s = 0.0;
  uint64_t executed = 0;
  uint64_t failed = 0;
  bool repeat_mismatch = false;  ///< a repeat answered differently
};

SeqRun RunClosedLoop(const QueryProcessor& proc,
                     const std::vector<QueryItem>& items, double budget_s,
                     size_t min_queries) {
  const size_t n = items.size();
  SeqRun run;
  run.answers.resize(n);
  run.stats.resize(n);
  run.sum_s.assign(n, 0.0);
  run.runs.assign(n, 0);
  QueryContext ctx;
  WallTimer wall;
  for (size_t k = 0;; ++k) {
    if (k >= min_queries && wall.Seconds() >= budget_s) break;
    const size_t i = k % n;
    QueryStats stats;
    WallTimer timer;
    Result<std::vector<uint32_t>> r =
        proc.Query(items[i].q, items[i].options, &ctx, &stats);
    const double s = timer.Seconds();
    run.latencies_s.push_back(s);
    run.sum_s[i] += s;
    ++run.runs[i];
    ++run.executed;
    if (!r.ok()) {
      ++run.failed;
      continue;
    }
    if (k < n) {
      run.answers[i] = std::move(r).value();
      run.stats[i] = stats;
    } else if (*r != run.answers[i]) {
      run.repeat_mismatch = true;
    }
  }
  run.distinct = std::min<size_t>(run.executed, n);
  run.wall_s = wall.Seconds();
  return run;
}

// -------------------------------------------------------------- batch pass

/// Width-4 QueryBatch passes over the first `count` queries (those the
/// closed loop ran), one batch per distinct (delta, epsilon) option set.
/// The first pass always runs; another runs while it is expected to end
/// within the budget.
struct BatchRun {
  std::vector<std::vector<uint32_t>> answers;  ///< per query, first pass
  double wall_s = 0.0;
  uint64_t queries = 0;
  uint64_t failed = 0;
  uint64_t tasks_executed = 0;
  uint64_t tasks_stolen = 0;
  double queue_wait_s = 0.0;
  uint32_t threads_used = 0;
  bool repeat_mismatch = false;
};

constexpr uint32_t kBatchWidth = 4;

BatchRun RunBatchPasses(const QueryProcessor& proc,
                        const std::vector<QueryItem>& items, size_t count,
                        double budget_s) {
  std::map<std::pair<uint32_t, double>, std::vector<size_t>> groups;
  for (size_t i = 0; i < count; ++i) {
    groups[{items[i].options.delta, items[i].options.epsilon}].push_back(i);
  }
  std::vector<std::vector<Graph>> group_queries;
  for (const auto& [key, members] : groups) {
    std::vector<Graph> qs;
    for (size_t i : members) qs.push_back(items[i].q);
    group_queries.push_back(std::move(qs));
  }
  BatchRun run;
  run.answers.resize(count);
  // One scheduler for every pass, as a serving loop keeps one: its workers
  // and their per-worker scratch persist, so repeated passes neither spawn
  // threads nor grow memory.
  TaskScheduler scheduler(kBatchWidth);
  BatchOptions batch;
  batch.stealer = &scheduler;
  WallTimer wall;
  for (int pass = 0;; ++pass) {
    const double pass_start = wall.Seconds();
    size_t g = 0;
    for (const auto& [key, members] : groups) {
      BatchStats bs;
      std::vector<BatchQueryResult> results = proc.QueryBatch(
          group_queries[g], items[members[0]].options, batch, &bs);
      ++g;
      run.queries += results.size();
      run.tasks_executed += bs.tasks_executed;
      run.tasks_stolen += bs.tasks_stolen;
      run.queue_wait_s += bs.sum_queue_wait_seconds;
      run.threads_used = std::max(run.threads_used, bs.threads_used);
      for (size_t j = 0; j < results.size(); ++j) {
        if (!results[j].status.ok()) {
          ++run.failed;
          continue;
        }
        if (pass == 0) {
          run.answers[members[j]] = std::move(results[j].answers);
        } else if (results[j].answers != run.answers[members[j]]) {
          run.repeat_mismatch = true;
        }
      }
    }
    const double now = wall.Seconds();
    if (now + (now - pass_start) > budget_s) break;
  }
  run.wall_s = wall.Seconds();
  return run;
}

// ------------------------------------------------------------------- oracle

/// Answers checked against the exact SSP of every graph, on a fixed prefix
/// of the queries, outside any timed window. Candidates the system dropped
/// at an embedding cap are ordinary misses here. The oracle runs with caps
/// 8x the system's; a graph it still cannot decide is counted as unknown
/// and left out of both ratios.
struct Quality {
  uint64_t tp = 0;
  uint64_t fp = 0;
  uint64_t fn = 0;
  uint64_t unknown = 0;
  double precision() const {
    return tp + fp == 0 ? 1.0 : static_cast<double>(tp) / (tp + fp);
  }
  double recall() const {
    return tp + fn == 0 ? 1.0 : static_cast<double>(tp) / (tp + fn);
  }
};

Status AddOracle(const std::vector<ProbabilisticGraph>& db,
                 const QueryItem& item, const std::vector<uint32_t>& answers,
                 Quality* quality) {
  PGSIM_ASSIGN_OR_RETURN(
      const std::vector<Graph> relaxed,
      GenerateRelaxedQueries(item.q, item.options.delta, item.options.relax));
  VerifierOptions exact = item.options.verifier;
  exact.max_embeddings_per_rq *= 8;
  exact.max_total_embeddings *= 8;
  VerifierScratch scratch;
  for (uint32_t gi = 0; gi < db.size(); ++gi) {
    const Result<double> ssp =
        ExactSubgraphSimilarityProbability(db[gi], relaxed, exact, &scratch);
    if (!ssp.ok()) {
      ++quality->unknown;
      continue;
    }
    const bool truth = *ssp >= item.options.epsilon;
    const bool answered =
        std::binary_search(answers.begin(), answers.end(), gi);
    if (truth && answered) ++quality->tp;
    if (!truth && answered) ++quality->fp;
    if (truth && !answered) ++quality->fn;
  }
  return Status::OK();
}

// ----------------------------------------------------------- traced pipeline

enum Layer : uint8_t {
  kQuery,     // one whole query (root span)
  kRelax,     // GenerateRelaxedQueriesInto
  kCompile,   // CompileMatchPlan + BuildQuerySignature per relaxed query
  kFilter,    // StructuralFilter::Filter (count sweep + signature-gated check)
  kPrepare,   // ProbabilisticPruner::PrepareQuery
  kEvaluate,  // ProbabilisticPruner::Evaluate over SCq
  kVerify,    // one candidate (parent of collect + sample)
  kCollect,   // CollectSimilarityEvents
  kSample,    // SampleSubgraphSimilarityProbabilityAnytime
  kNumLayers
};

constexpr const char* kLayerNames[kNumLayers] = {
    "query",      "relax",  "compile", "filter", "prune.prepare",
    "prune.eval", "verify", "collect", "sample"};

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t query = 0;
  Layer layer = kQuery;
};

/// In-memory span log, written out after the run.
class Tracer {
 public:
  int32_t Begin(Layer layer, int32_t parent, uint32_t query) {
    Span span;
    span.parent = parent;
    span.query = query;
    span.layer = layer;
    spans_.push_back(span);
    spans_.back().start_ns = NowNs();
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) { spans_[id].end_ns = NowNs(); }
  double Seconds(int32_t id) const {
    return 1e-9 * static_cast<double>(spans_[id].end_ns - spans_[id].start_ns);
  }

  /// Per-layer self time: each span's duration minus its children's.
  std::vector<double> SelfSeconds() const {
    std::vector<double> self(kNumLayers, 0.0);
    for (const Span& s : spans_) {
      const double d = 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
      self[s.layer] += d;
      if (s.parent >= 0) self[spans_[s.parent].layer] -= d;
    }
    return self;
  }

  /// Summed span durations per layer (children included).
  std::vector<double> TotalSeconds() const {
    std::vector<double> total(kNumLayers, 0.0);
    for (const Span& s : spans_) {
      total[s.layer] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    }
    return total;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << kLayerNames[s.layer]
          << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"parent\": " << s.parent << ", \"query\": " << s.query
          << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

/// Deterministic per-query stage counts, comparable to QueryStats.
struct StageCounts {
  size_t relaxed = 0;
  size_t structural = 0;
  size_t pruned_upper = 0;
  size_t accepted_lower = 0;
  size_t candidates = 0;
  size_t failures = 0;
  uint64_t sig_rejected = 0;
  uint64_t vf2_avoided = 0;
  uint64_t iso_tests = 0;
  std::vector<uint32_t> answers;
};

bool SameCounts(const StageCounts& t, const QueryStats& s) {
  return t.relaxed == s.num_relaxed_queries &&
         t.structural == s.structural_candidates &&
         t.pruned_upper == s.pruned_by_upper &&
         t.accepted_lower == s.accepted_by_lower &&
         t.candidates == s.verification_candidates &&
         t.failures == s.verification_failures &&
         t.sig_rejected == s.sig_pairs_rejected &&
         t.vf2_avoided == s.vf2_calls_avoided &&
         t.iso_tests == s.structural_detail.isomorphism_tests;
}

/// Layer counters summed over the traced queries.
struct LayerTotals {
  uint64_t queries = 0;
  uint64_t relaxed = 0;
  uint64_t structural = 0;
  uint64_t alive = 0;
  uint64_t iso_tests = 0;
  uint64_t sig_rejected = 0;
  uint64_t vf2_avoided = 0;
  uint64_t stage3_pairs = 0;
  uint64_t stage3_rejected = 0;
  uint64_t pruned_upper = 0;
  uint64_t accepted_lower = 0;
  uint64_t candidates = 0;
  uint64_t cap_failures = 0;
  uint64_t events = 0;
  uint64_t sampled = 0;
  uint64_t sample_accepts = 0;
  uint64_t draws = 0;
  double duplicate_collect_s = 0.0;  ///< collect spans of sampled candidates
};

struct TraceScratch {
  std::vector<Graph> relaxed;
  std::vector<MatchPlan> plans;
  std::vector<QuerySignature> sigs;
  std::vector<uint32_t> structural;
  std::vector<uint32_t> to_verify;
  std::vector<Rng> rngs;
  StructuralFilterScratch filter;
  PrunerScratch pruner;
  VerifierScratch verifier;
};

/// One query through the public stage functions, in the order and with the
/// RNG discipline of QueryProcessor::Query: the pruner draws from
/// Rng(options.seed), then one Fork() per surviving candidate in candidate
/// order. Collection runs once on its own (the collect span) and once more
/// inside the sampler, which always collects; sample.s subtracts it.
Status TracedQuery(const Engine& e, const QueryItem& item, uint32_t qid,
                   Tracer* tr, TraceScratch* s, StageCounts* c,
                   LayerTotals* tot) {
  const QueryOptions& o = item.options;
  *c = StageCounts();
  const int32_t root = tr->Begin(kQuery, -1, qid);
  int32_t span = tr->Begin(kRelax, root, qid);
  const Status relaxed_ok =
      GenerateRelaxedQueriesInto(item.q, o.delta, o.relax, &s->relaxed);
  tr->End(span);
  if (!relaxed_ok.ok()) {
    tr->End(root);
    return relaxed_ok;
  }

  span = tr->Begin(kCompile, root, qid);
  MatchPlanOptions plan_options;
  plan_options.label_freq = &e.label_freq;
  s->plans.clear();
  s->sigs.clear();
  for (const Graph& rq : s->relaxed) {
    s->plans.push_back(CompileMatchPlan(rq, plan_options));
    s->sigs.push_back(BuildQuerySignature(rq));
  }
  tr->End(span);

  span = tr->Begin(kFilter, root, qid);
  StructuralFilterStats fstats;
  e.filter.Filter(item.q, s->relaxed, o.delta, &s->structural, &s->filter,
                  &fstats, nullptr, nullptr, &s->plans, &e.sigs, &s->sigs);
  tr->End(span);

  span = tr->Begin(kPrepare, root, qid);
  ProbabilisticPruner pruner(&e.pmi, o.pruner);
  pruner.PrepareQuery(s->relaxed, &s->plans);
  tr->End(span);

  span = tr->Begin(kEvaluate, root, qid);
  Rng rng(o.seed);
  s->to_verify.clear();
  for (uint32_t gi : s->structural) {
    const PruneDecision d = pruner.Evaluate(gi, o.epsilon, &rng, &s->pruner);
    if (d.outcome == PruneOutcome::kPruned) {
      ++c->pruned_upper;
    } else if (d.outcome == PruneOutcome::kAccepted) {
      ++c->accepted_lower;
      c->answers.push_back(gi);
    } else {
      s->to_verify.push_back(gi);
    }
  }
  tr->End(span);

  s->rngs.clear();
  for (size_t k = 0; k < s->to_verify.size(); ++k) {
    s->rngs.push_back(rng.Fork());
  }
  uint64_t stage3_rejected = 0;
  uint64_t stage3_avoided = 0;
  for (size_t k = 0; k < s->to_verify.size(); ++k) {
    const uint32_t gi = s->to_verify[k];
    const int32_t verify = tr->Begin(kVerify, root, qid);
    SignatureGate gate;
    gate.target = e.sigs.ForGraph(gi);
    gate.rq = &s->sigs;
    const int32_t collect = tr->Begin(kCollect, verify, qid);
    const Status collected = CollectSimilarityEvents(
        e.db[gi], s->relaxed, o.verifier, &s->verifier, &s->plans, &gate);
    tr->End(collect);
    stage3_rejected += s->verifier.sig_pairs_rejected;
    stage3_avoided += s->verifier.vf2_calls_avoided;
    tot->stage3_pairs += s->relaxed.size();
    if (!collected.ok()) {
      ++c->failures;
      tr->End(verify);
      continue;
    }
    tot->events += s->verifier.events.size();
    const int32_t sample = tr->Begin(kSample, verify, qid);
    const Result<SampleOutcome> out =
        SampleSubgraphSimilarityProbabilityAnytime(
            e.db[gi], s->relaxed, o.verifier, &s->rngs[k], &s->verifier,
            &s->plans, SampleControl{}, &gate);
    tr->End(sample);
    tr->End(verify);
    tot->duplicate_collect_s += tr->Seconds(collect);
    if (!out.ok()) {
      ++c->failures;
      continue;
    }
    ++tot->sampled;
    tot->draws += out->drawn;
    if (out->estimate >= o.epsilon) {
      ++tot->sample_accepts;
      c->answers.push_back(gi);
    }
  }
  tr->End(root);
  std::sort(c->answers.begin(), c->answers.end());

  c->relaxed = s->relaxed.size();
  c->structural = s->structural.size();
  c->candidates = s->to_verify.size();
  c->sig_rejected = fstats.sig_pairs_rejected + stage3_rejected;
  c->vf2_avoided = fstats.sig_pairs_rejected + stage3_avoided;
  c->iso_tests = fstats.isomorphism_tests;

  ++tot->queries;
  tot->relaxed += c->relaxed;
  tot->structural += c->structural;
  tot->alive += e.db.size();
  tot->iso_tests += c->iso_tests;
  tot->sig_rejected += c->sig_rejected;
  tot->vf2_avoided += c->vf2_avoided;
  tot->stage3_rejected += stage3_rejected;
  tot->pruned_upper += c->pruned_upper;
  tot->accepted_lower += c->accepted_lower;
  tot->candidates += c->candidates;
  tot->cap_failures += c->failures;
  return Status::OK();
}

/// Traces the first `count` queries once each and reports the per-layer
/// metrics. `untraced` holds the same queries' untraced sequential
/// QueryStats, answers and latencies.
void RunTraced(const Engine& e, const std::vector<QueryItem>& items,
               size_t count, const SeqRun& untraced,
               const std::string& trace_path, Gate* gate, Report* report) {
  Tracer tracer;
  TraceScratch scratch;
  LayerTotals tot;
  uint64_t count_mismatches = 0;
  uint64_t answers_agree = 0;
  double untraced_s = 0.0;
  for (size_t i = 0; i < count; ++i) {
    StageCounts counts;
    const Status st = TracedQuery(e, items[i], static_cast<uint32_t>(i),
                                  &tracer, &scratch, &counts, &tot);
    gate->Check(st.ok(), "traced query " + std::to_string(i) +
                             " failed: " + st.ToString());
    if (!st.ok()) continue;
    if (!SameCounts(counts, untraced.stats[i])) ++count_mismatches;
    if (counts.answers == untraced.answers[i]) ++answers_agree;
    untraced_s += untraced.sum_s[i] / std::max<uint32_t>(1, untraced.runs[i]);
  }
  gate->Check(count_mismatches == 0,
              std::to_string(count_mismatches) +
                  " traced queries' stage counts differ from QueryStats");

  const std::vector<double> self = tracer.SelfSeconds();
  const std::vector<double> total = tracer.TotalSeconds();
  // The sampler re-collects the events its candidate's collect span already
  // gathered; that second collection is tracing cost, not engine work, and
  // is estimated by the candidate's own collect span.
  const double duplicate = tot.duplicate_collect_s;
  const double traced_s = total[kQuery] - duplicate;
  const double sample_self = self[kSample] - duplicate;
  const double glue = self[kQuery] + self[kVerify];

  report->Layer("relax.s", self[kRelax]);
  report->Layer("relax.rq_per_query", Ratio(tot.relaxed, tot.queries));
  report->Layer("compile.s", self[kCompile]);
  report->Layer("filter.s", self[kFilter]);
  report->Layer("filter.scq_ratio", Ratio(tot.structural, tot.alive));
  report->Layer("filter.iso_tests", static_cast<double>(tot.iso_tests));
  report->Layer("sig.reject_ratio",
                Ratio(tot.stage3_rejected, tot.stage3_pairs));
  report->Layer("sig.vf2_avoided", static_cast<double>(tot.vf2_avoided));
  report->Layer("prune.prepare_s", self[kPrepare]);
  report->Layer("prune.eval_s", self[kEvaluate]);
  report->Layer("prune.decided_ratio",
                Ratio(tot.pruned_upper + tot.accepted_lower, tot.structural));
  report->Layer("prune.lower_accepts", static_cast<double>(tot.accepted_lower));
  report->Layer("collect.s", self[kCollect]);
  report->Layer("collect.events_per_cand",
                Ratio(tot.events, tot.candidates - tot.cap_failures));
  report->Layer("collect.cap_fail_frac",
                Ratio(tot.cap_failures, tot.candidates));
  report->Layer("sample.s", sample_self);
  report->Layer("sample.draws", static_cast<double>(tot.draws));
  report->Layer("sample.accept_ratio", Ratio(tot.sample_accepts, tot.sampled));
  report->Layer("trace.queries", static_cast<double>(tot.queries));
  report->Layer("trace.untraced_s", untraced_s);
  report->Layer("trace.glue_s", glue);
  report->Layer("trace.overhead_frac", Ratio(traced_s, untraced_s) - 1.0);
  report->Layer("trace.answers_agree", static_cast<double>(answers_agree));
  std::printf("trace: %llu queries; layer self times sum to %.4f s (glue "
              "%.4f s) against %.4f s untraced; overhead_frac %.4f\n",
              static_cast<unsigned long long>(tot.queries), traced_s, glue,
              untraced_s, Ratio(traced_s, untraced_s) - 1.0);
  if (!tracer.Write(trace_path)) {
    std::printf("warning: could not write %s\n", trace_path.c_str());
  } else {
    std::printf("trace spans written to %s\n", trace_path.c_str());
  }
}

// ------------------------------------------------------ closed-loop workloads

struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

void ReportBatch(const BatchRun& batch, Report* report) {
  report->E2e("batch_qps", Ratio(batch.queries, batch.wall_s));
  report->Layer("batch.steal_frac",
                Ratio(batch.tasks_stolen, batch.tasks_executed));
  report->Layer("batch.queue_wait_s", Ratio(batch.queue_wait_s, batch.queries));
  report->Layer("batch.threads_used", batch.threads_used);
}

/// The batch pass must answer exactly as the sequential run: answers are
/// bit-identical across widths and schedulers by construction.
void CheckBatchAnswers(const SeqRun& seq, BatchRun* batch, bool inject,
                       Gate* gate) {
  if (inject && !batch->answers.empty()) {
    batch->answers[0].push_back(UINT32_MAX);
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < batch->answers.size(); ++i) {
    if (batch->answers[i] != seq.answers[i]) ++mismatches;
  }
  gate->Check(mismatches == 0, std::to_string(mismatches) +
                                   " queries answered differently by the "
                                   "width-4 batch and the sequential run");
  gate->Check(!seq.repeat_mismatch,
              "a repeated sequential query changed its answer");
  gate->Check(!batch->repeat_mismatch,
              "a repeated batch pass changed its answers");
}

void ReportQuality(const std::vector<ProbabilisticGraph>& db,
                   const std::vector<QueryItem>& items, const SeqRun& seq,
                   size_t oracle_queries, Gate* gate, Report* report) {
  Quality quality;
  WallTimer timer;
  oracle_queries = std::min(oracle_queries, seq.distinct);
  for (size_t i = 0; i < oracle_queries; ++i) {
    const Status st = AddOracle(db, items[i], seq.answers[i], &quality);
    gate->Check(st.ok(), "oracle failed: " + st.ToString());
  }
  report->E2e("precision", quality.precision());
  report->E2e("recall", quality.recall());
  report->Layer("oracle.unknown", static_cast<double>(quality.unknown));
  std::printf("oracle: %zu queries in %.3f s, tp=%llu fp=%llu fn=%llu "
              "unknown=%llu\n",
              oracle_queries, timer.Seconds(),
              static_cast<unsigned long long>(quality.tp),
              static_cast<unsigned long long>(quality.fp),
              static_cast<unsigned long long>(quality.fn),
              static_cast<unsigned long long>(quality.unknown));
}

void ReportLatency(const std::vector<double>& latencies_ms, Report* report) {
  const double pct = TailPercentile(latencies_ms.size());
  report->E2e("lat_p50_ms", Median(latencies_ms));
  report->E2e("lat_tail_ms", Quantile(latencies_ms, pct / 100.0));
  report->Layer("lat.tail_pct", pct);
  report->Layer("lat.samples", static_cast<double>(latencies_ms.size()));
  std::printf("latency: lat_tail_ms is p%.1f of %zu samples\n", pct,
              latencies_ms.size());
}

void ReportBuild(const BuildMetrics& b, Report* report) {
  report->Layer("build.mine_s", b.mine_s);
  report->Layer("build.bounds_s", b.bounds_s);
  report->Layer("build.filter_s", b.filter_s);
  report->Layer("build.sig_s", b.sig_s);
  report->Layer("build.features", b.features);
  report->Layer("build.pmi_bytes", b.pmi_bytes);
}

// Closed-loop workloads: 75% of --seconds runs the one-client loop, 25% the
// width-4 batch passes. Set-up, the oracle, the traced pass and the live
// mutations sit outside both windows.
void RunClosedLoopWorkload(const Args& args, const Spec& spec, Gate* gate,
                           Report* report, Totals* totals) {
  const SyntheticOptions data = Dataset(spec);
  BuildMetrics build;
  Result<std::unique_ptr<Engine>> built = SetupEngine(data, &build);
  gate->Check(built.ok(), "set-up failed: " + built.status().ToString());
  if (!built.ok()) return;
  Engine& e = **built;
  report->E2e("setup_s", build.setup_s);
  ReportBuild(build, report);

  Result<std::vector<QueryItem>> queries =
      MakeQueries(spec, e.certain, Mix(args.seed, spec.tag * 16 + 2));
  gate->Check(queries.ok(), "query generation failed");
  if (!queries.ok()) return;
  const std::vector<QueryItem>& items = *queries;

  QueryProcessor proc(&e.db, &e.pmi, &e.filter, &e.sigs);
  const SeqRun loop = RunClosedLoop(proc, items, 0.75 * args.seconds,
                                    spec.oracle_queries);
  BatchRun batch = RunBatchPasses(
      proc, items, std::min(loop.distinct, spec.batch_queries),
      0.25 * args.seconds);
  report->E2e("peak_rss_mb", PeakRssMb());
  report->E2e("qps", Ratio(loop.executed, loop.wall_s));
  std::vector<double> latencies_ms;
  for (double s : loop.latencies_s) latencies_ms.push_back(1e3 * s);
  ReportLatency(latencies_ms, report);
  ReportBatch(batch, report);
  CheckBatchAnswers(loop, &batch, args.inject_mismatch, gate);
  ReportQuality(e.db, items, loop, spec.oracle_queries, gate, report);
  std::printf("closed loop: %llu executions of %zu queries in %.3f s; batch: "
              "%llu queries in %.3f s\n",
              static_cast<unsigned long long>(loop.executed), loop.distinct,
              loop.wall_s, static_cast<unsigned long long>(batch.queries),
              batch.wall_s);

  if (args.trace) {
    RunTraced(e, items, std::min(loop.distinct, spec.trace_queries), loop,
              args.work_dir + "/trace-" + spec.name + "-" +
                  std::to_string(args.seed) + ".jsonl",
              gate, report);
  }

  // Live in-memory mutations: AddGraph then RemoveGraph of a fresh graph,
  // so the database ends where it started. Last, because they bump the
  // epoch and grow the id space the phases above ran against.
  Result<std::vector<ProbabilisticGraph>> graphs =
      MutationGraphs(data, spec.mutation_pairs);
  gate->Check(graphs.ok(), "mutation graph generation failed");
  if (!graphs.ok()) return;
  std::vector<double> add_ms;
  std::vector<double> remove_ms;
  uint64_t mutation_failures = 0;
  const uint32_t alive_before = proc.num_alive();
  for (size_t p = 0; p < graphs->size(); ++p) {
    WallTimer add_timer;
    const Result<uint32_t> id = proc.AddGraph((*graphs)[p], p);
    add_ms.push_back(add_timer.Millis());
    if (!id.ok()) {
      ++mutation_failures;
      continue;
    }
    WallTimer remove_timer;
    const Status removed = proc.RemoveGraph(*id);
    remove_ms.push_back(remove_timer.Millis());
    if (!removed.ok()) ++mutation_failures;
  }
  gate->Check(mutation_failures == 0, "a live mutation failed");
  gate->Check(proc.num_alive() == alive_before,
              "add/remove pairs changed the number of live graphs");
  report->Layer("mut_p50_ms", Median(add_ms));
  report->Layer("mut.remove_p50_ms", Median(remove_ms));

  const uint64_t batch_failed = batch.failed;
  report->E2e("ok_frac",
              1.0 - Ratio(loop.failed + batch_failed,
                          loop.executed + batch.queries));
  report->E2e("exact_frac", 1.0);  // no deadlines: every answer is exact
  report->Layer("fail_frac", Ratio(loop.failed + batch_failed,
                                   loop.executed + batch.queries));
  report->Layer("degraded_frac", 0.0);
  totals->attempted +=
      loop.executed + batch.queries + add_ms.size() + remove_ms.size();
  totals->failed += loop.failed + batch_failed + mutation_failures;
}

// ------------------------------------------------------------ serve-mix

// Serving shape. Width 3 leaves one of the host's 4 cores to the generator,
// dispatcher and deadline threads.
constexpr uint32_t kServeWidth = 3;
constexpr size_t kServeQueue = 256;
constexpr uint32_t kMutateEvery = 25;     // queries between mutation tickets
constexpr uint32_t kCheckpointEvery = 8;  // mutations between checkpoints
constexpr double kDeadlineShare = 0.25;   // tickets with a degradable deadline
constexpr int64_t kDeadlineMs = 100;
constexpr double kZipfExponent = 0.9;     // hot-set skew
constexpr double kLatencyLimitMs = 100.0; // tail limit for max_rate_qps
constexpr double kReferenceRate = 100.0;  // offered rate at the reference step
// Offered-rate ladder (multiples of kReferenceRate) and each step's share of
// the serving window; step 1 is the reference step.
constexpr double kLadder[] = {0.5, 1.0, 1.5, 2.0};
constexpr double kLadderShare[] = {0.15, 0.4, 0.2, 0.25};
constexpr size_t kReferenceStep = 1;
constexpr size_t kProbeQueries = 8;  // answers compared after reopen

struct Request {
  double offset_s = 0.0;  ///< due time from the start of its step
  uint8_t kind = 0;       ///< 0 query, 1 add, 2 remove
  uint8_t step = 0;
  uint32_t hot = 0;       ///< hot-set query index (queries)
  bool deadline = false;
};

struct Slot {
  int64_t due_ns = 0;
  int64_t submit_ns = 0;
  std::atomic<int64_t> resolve_ns{0};
  bool ok = false;
  bool degraded = false;
  bool cache_hit = false;
  double total_s = 0.0;
  QueryTicket ticket;
};

std::vector<Request> MakeSchedule(const Spec& spec, double serve_s,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<double> weights;
  for (size_t i = 0; i < spec.queries; ++i) {
    weights.push_back(1.0 /
                      std::pow(static_cast<double>(i + 1), kZipfExponent));
  }
  std::vector<Request> schedule;
  uint64_t count = 0;
  bool next_is_add = true;
  for (size_t step = 0; step < std::size(kLadder); ++step) {
    const double rate = kLadder[step] * kReferenceRate;
    const size_t n = std::max<size_t>(
        1, static_cast<size_t>(
               std::llround(rate * kLadderShare[step] * serve_s)));
    for (size_t j = 0; j < n; ++j) {
      Request r;
      r.offset_s = static_cast<double>(j) / rate;
      r.step = static_cast<uint8_t>(step);
      if (++count % (kMutateEvery + 1) == 0) {
        r.kind = next_is_add ? 1 : 2;
        next_is_add = !next_is_add;
      } else {
        r.hot = static_cast<uint32_t>(rng.Discrete(weights));
        r.deadline = rng.Bernoulli(kDeadlineShare);
      }
      schedule.push_back(r);
    }
  }
  return schedule;
}

uint64_t SnapshotBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().rfind("snap-", 0) == 0) {
      bytes += entry.file_size(ec);
    }
  }
  return bytes;
}

/// Durability gate: every acknowledged write is readable after a reopen.
/// Opens `dir` and compares num_alive and the probe queries' answers with
/// those the live database gave at shutdown.
void CheckReopen(const std::string& dir, uint32_t live_alive,
                 const std::vector<QueryItem>& items,
                 const QueryOptions& options,
                 const std::vector<std::vector<uint32_t>>& live_answers,
                 Gate* gate, Report* report) {
  WallTimer open_timer;
  Result<std::unique_ptr<DurableDatabase>> reopened =
      DurableDatabase::Open(dir);
  report->Layer("storage.open_s", open_timer.Seconds());
  gate->Check(reopened.ok(), "reopen failed: " + reopened.status().ToString());
  if (!reopened.ok()) return;
  const QueryProcessor& proc = (*reopened)->processor();
  gate->Check(proc.num_alive() == live_alive,
              "reopened database has a different number of live graphs");
  size_t differ = 0;
  for (size_t i = 0; i < live_answers.size(); ++i) {
    Result<std::vector<uint32_t>> r = proc.Query(items[i].q, options);
    if (!r.ok() || *r != live_answers[i]) ++differ;
  }
  gate->Check(differ == 0, std::to_string(differ) +
                               " probe queries answer differently after "
                               "reopen");
}

// serve-mix: 15% of --seconds runs one client's closed loop over the hot
// set on the durable database, 15% width-4 batch passes over it, 70% the
// open-loop rate ladder through ServingCore. Set-up, the oracle, the reopen
// and the traced pass are untimed.
//
// lat_p50_ms / lat_tail_ms come from the closed loop. The due-time
// latencies of the reference step are serving.lat_p50_ms / _tail_ms: at
// width 3 they depend on three workers getting a core at once, and ten
// seeds spread them by 25% (p50) and 55% (tail), beyond any bound.
void RunServeMix(const Args& args, const Spec& spec, Gate* gate,
                 Report* report, Totals* totals) {
  const SyntheticOptions data = Dataset(spec);
  Result<std::vector<ProbabilisticGraph>> initial = GenerateDatabase(data);
  gate->Check(initial.ok(), "database generation failed");
  if (!initial.ok()) return;
  const std::string base =
      args.work_dir + "/serve-" + std::to_string(args.seed);
  std::error_code ec;
  fs::remove_all(base, ec);
  fs::create_directories(base, ec);

  // Set-up: generate + DurableDatabase::Create (mine, SIP bounds, filter,
  // signatures, snapshot 0), one discarded warm-up and kSetupReps measured.
  std::unique_ptr<DurableDatabase> ddb;
  std::string dir;
  std::vector<double> setup_s;
  for (int rep = 0; rep <= kSetupReps; ++rep) {
    if (ddb != nullptr) {
      ddb.reset();
      fs::remove_all(dir, ec);
    }
    dir = base + "/db" + std::to_string(rep);
    WallTimer timer;
    Result<std::vector<ProbabilisticGraph>> db = GenerateDatabase(data);
    if (!db.ok()) break;
    Result<std::unique_ptr<DurableDatabase>> created =
        DurableDatabase::Create(dir, std::move(db).value(), PmiBuild());
    gate->Check(created.ok(), "Create failed: " + created.status().ToString());
    if (!created.ok()) return;
    ddb = std::move(created).value();
    if (rep > 0) setup_s.push_back(timer.Seconds());
  }
  if (ddb == nullptr) return;
  report->E2e("setup_s", Median(setup_s));

  std::vector<Graph> certain;
  for (const ProbabilisticGraph& g : *initial) certain.push_back(g.certain());
  // The hot set is part of the served data, like the database: fixed per
  // workload. --seed draws the request stream over it (which hot query each
  // request asks, which requests carry deadlines). With a seeded hot set the
  // Zipf head made a handful of queries set the reference step's p50, and
  // ten seeds spread it by 27%.
  Result<std::vector<QueryItem>> queries =
      MakeQueries(spec, certain, Mix(data.seed, 2));
  gate->Check(queries.ok(), "query generation failed");
  if (!queries.ok()) return;
  const std::vector<QueryItem>& items = *queries;
  const QueryOptions& options = items[0].options;

  // The closed loop: end-to-end latencies, plus the reference answers and
  // stage counts of the initial state for the batch, oracle and trace.
  const SeqRun seq = RunClosedLoop(ddb->processor(), items,
                                   0.15 * args.seconds, items.size());
  std::vector<double> seq_ms;
  for (double s : seq.latencies_s) seq_ms.push_back(1e3 * s);
  ReportLatency(seq_ms, report);
  BatchRun batch = RunBatchPasses(ddb->processor(), items, items.size(),
                                  0.15 * args.seconds);
  ReportBatch(batch, report);
  CheckBatchAnswers(seq, &batch, args.inject_mismatch, gate);
  ReportQuality(*initial, items, seq, spec.oracle_queries, gate, report);

  // The schedule and the graphs to add, generated ahead of the timed window.
  const double serve_s = 0.7 * args.seconds;
  const std::vector<Request> schedule =
      MakeSchedule(spec, serve_s, Mix(args.seed, spec.tag * 16 + 4));
  size_t adds = 0;
  for (const Request& r : schedule) adds += r.kind == 1;
  Result<std::vector<ProbabilisticGraph>> add_graphs =
      MutationGraphs(data, adds);
  gate->Check(add_graphs.ok(), "mutation graph generation failed");
  if (!add_graphs.ok()) return;

  // Durable mutation hooks: WAL append + fsync + apply; every
  // kCheckpointEvery-th mutation also checkpoints, inside the same ticket,
  // so its stall shows in the serving latencies. Mutation tickets run
  // exclusively, and the counters are read after Shutdown joined the
  // serving threads.
  uint64_t mutations = 0;
  uint64_t wal_bytes = 0;
  uint64_t checkpoint_failures = 0;
  std::vector<double> checkpoint_s;
  const auto after_mutation = [&](uint64_t wal_before) {
    wal_bytes += ddb->wal_size_bytes() - wal_before;
    if (++mutations % kCheckpointEvery != 0) return;
    WallTimer timer;
    if (!ddb->Checkpoint().ok()) ++checkpoint_failures;
    checkpoint_s.push_back(timer.Seconds());
  };
  AnswerCache cache;
  ServingOptions so;
  so.num_threads = kServeWidth;
  so.max_queue = kServeQueue;
  so.query = options;
  so.answer_cache = &cache;
  so.add = [&](const ProbabilisticGraph& g, uint64_t seed) -> Result<uint32_t> {
    const uint64_t before = ddb->wal_size_bytes();
    Result<uint32_t> id = ddb->AddGraph(g, seed);
    if (id.ok()) after_mutation(before);
    return id;
  };
  so.remove = [&](uint32_t id) -> Status {
    const uint64_t before = ddb->wal_size_bytes();
    Status st = ddb->RemoveGraph(id);
    if (st.ok()) after_mutation(before);
    return st;
  };

  std::vector<Slot> slots(schedule.size());
  std::atomic<uint64_t> resolved{0};
  std::vector<uint64_t> backlog(std::size(kLadder), 0);
  std::vector<double> lag_ms;
  size_t max_depth = 0;
  {
    ServingCore core(&ddb->processor(), so);
    size_t next_add = 0;
    size_t last_add = SIZE_MAX;
    size_t j = 0;
    for (size_t step = 0; step < std::size(kLadder); ++step) {
      const size_t first = j;
      const Clock::time_point start = Clock::now();
      for (; j < schedule.size() && schedule[j].step == step; ++j) {
        const Request& r = schedule[j];
        Slot* slot = &slots[j];
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(r.offset_s));
        std::this_thread::sleep_until(due);
        SubmitOptions opts;
        opts.callback = [slot, &resolved](const ServeResult& result) {
          slot->ok = result.status.ok();
          slot->degraded = result.degraded;
          slot->cache_hit = result.stats.answer_cache_hit;
          slot->total_s = result.stats.total_seconds;
          slot->resolve_ns.store(NowNs(), std::memory_order_release);
          resolved.fetch_add(1, std::memory_order_release);
        };
        slot->due_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           due.time_since_epoch())
                           .count();
        slot->submit_ns = NowNs();
        lag_ms.push_back(
            1e-6 * static_cast<double>(slot->submit_ns - slot->due_ns));
        if (r.kind == 0) {
          if (r.deadline) {
            opts.deadline_ms = kDeadlineMs;
            opts.allow_degraded = true;
          }
          slot->ticket = core.Submit(items[r.hot].q, opts);
        } else if (r.kind == 1) {
          slot->ticket =
              core.SubmitAddGraph((*add_graphs)[next_add], j, opts);
          ++next_add;
          last_add = j;
        } else {
          // Remove the graph the previous add created; that add was
          // submitted kMutateEvery queries ago and has normally resolved.
          uint32_t id = UINT32_MAX;
          if (last_add != SIZE_MAX) {
            const ServeResult& added = slots[last_add].ticket.Wait();
            if (added.status.ok()) id = added.graph_id;
          }
          slot->ticket = core.SubmitRemoveGraph(id, opts);
        }
        max_depth = std::max(max_depth, core.queue_depth());
      }
      backlog[step] = j - resolved.load(std::memory_order_acquire);
      for (size_t k = first; k < j; ++k) slots[k].ticket.Wait();
    }
    core.Shutdown();
    const ServingStats st = core.stats();

    // Ticket gate: exactly-once resolution and balanced outcome counters.
    size_t bad_resolves = 0;
    for (const Slot& s : slots) {
      if (s.ticket.state()->resolve_count.load() != 1) ++bad_resolves;
    }
    gate->Check(bad_resolves == 0, std::to_string(bad_resolves) +
                                       " tickets not resolved exactly once");
    gate->Check(st.double_resolves == 0, "double_resolves > 0");
    gate->Check(st.submitted == schedule.size(),
                "submitted differs from the tickets sent");
    gate->Check(st.shed + st.completed + st.degraded + st.deadline_exceeded +
                        st.failed ==
                    st.submitted,
                "outcome counters do not sum to submitted");
    gate->Check(checkpoint_failures == 0, "a checkpoint failed");

    uint64_t query_tickets = 0;
    for (const Request& r : schedule) query_tickets += r.kind == 0;
    report->Layer("serving.waves", static_cast<double>(st.waves));
    report->Layer("serving.shed_frac", Ratio(st.shed, st.submitted));
    report->Layer("answer_cache.hit_rate",
                  Ratio(st.answer_cache_hits, query_tickets));
    report->Layer("answer_cache.stale",
                  static_cast<double>(cache.stats().stale));
    const uint64_t ok = st.completed + st.degraded;
    report->Layer("fail_frac", 1.0 - Ratio(ok, st.submitted));
    report->Layer("degraded_frac", Ratio(st.degraded, query_tickets));
    totals->attempted += st.submitted;
    totals->failed += st.submitted - ok;
  }

  // Per-step outcomes and latencies, timed from each request's due time.
  // The end-to-end metrics are the reference step's; the steps above it
  // exist to find serving.max_rate_qps.
  double max_rate = 0.0;
  std::vector<double> add_ms;
  std::vector<double> remove_ms;
  std::vector<double> admission_ms;
  for (size_t step = 0; step < std::size(kLadder); ++step) {
    std::vector<double> ok_ms;
    std::vector<double> all_ms;  // failures count as missing the limit
    uint64_t tickets = 0;
    uint64_t ok = 0;
    uint64_t degraded = 0;
    int64_t first_due = INT64_MAX;
    int64_t last_resolve = 0;
    for (size_t j = 0; j < schedule.size(); ++j) {
      if (schedule[j].step != step) continue;
      const Slot& s = slots[j];
      const int64_t resolve_ns = s.resolve_ns.load(std::memory_order_acquire);
      const double ms = 1e-6 * static_cast<double>(resolve_ns - s.due_ns);
      first_due = std::min(first_due, s.due_ns);
      last_resolve = std::max(last_resolve, resolve_ns);
      ++tickets;
      ok += s.ok;
      if (schedule[j].kind != 0) {
        if (s.ok) (schedule[j].kind == 1 ? add_ms : remove_ms).push_back(ms);
        continue;
      }
      all_ms.push_back(s.ok ? ms : INFINITY);
      if (!s.ok) continue;
      degraded += s.degraded;
      ok_ms.push_back(ms);
      if (!s.cache_hit) {
        admission_ms.push_back(
            1e-6 * static_cast<double>(resolve_ns - s.submit_ns) -
            1e3 * s.total_s);
      }
    }
    const double rate = kLadder[step] * kReferenceRate;
    const double tail =
        Quantile(all_ms, TailPercentile(all_ms.size()) / 100.0);
    const bool sustained =
        tail <= kLatencyLimitMs && backlog[step] <= 2 * kServeWidth;
    if (sustained) max_rate = std::max(max_rate, rate);
    std::printf("serve step %zu: offered %.1f/s, %zu queries, p50 %.3f ms, "
                "tail %.3f ms, backlog %llu%s\n",
                step, rate, all_ms.size(), Median(ok_ms), tail,
                static_cast<unsigned long long>(backlog[step]),
                sustained ? "" : " (over the limit)");
    if (step == kReferenceStep) {
      // Goodput: successful queries over the time from the step's first
      // due time to its last resolution.
      report->E2e("qps", Ratio(ok_ms.size(),
                               1e-9 * static_cast<double>(last_resolve -
                                                          first_due)));
      report->E2e("ok_frac", Ratio(ok, tickets));
      report->E2e("exact_frac", 1.0 - Ratio(degraded, ok_ms.size()));
      report->Layer("serving.lat_p50_ms", Median(ok_ms));
      report->Layer("serving.lat_tail_ms",
                    Quantile(ok_ms, TailPercentile(ok_ms.size()) / 100.0));
    }
  }
  report->Layer("serving.max_rate_qps", max_rate);
  report->Layer("mut_p50_ms", Median(add_ms));
  report->Layer("mut.remove_p50_ms", Median(remove_ms));
  report->Layer("admission.wait_ms", Median(admission_ms));
  report->Layer("admission.max_depth", static_cast<double>(max_depth));
  double lag_sum = 0.0;
  for (double l : lag_ms) lag_sum += l;
  report->Layer("gen.lag_ms", Ratio(lag_sum, lag_ms.size()));
  report->Layer("wal.bytes_per_mutation", Ratio(wal_bytes, mutations));
  report->Layer("storage.checkpoint_s", Median(checkpoint_s));
  report->E2e("peak_rss_mb", PeakRssMb());

  std::vector<std::vector<uint32_t>> live_answers;
  const uint32_t live_alive = ddb->processor().num_alive();
  const size_t probes = std::min(kProbeQueries, items.size());
  for (size_t i = 0; i < probes; ++i) {
    Result<std::vector<uint32_t>> r =
        ddb->processor().Query(items[i].q, options);
    gate->Check(r.ok(), "probe query failed before reopen");
    live_answers.push_back(r.ok() ? *r : std::vector<uint32_t>());
  }
  ddb.reset();
  CheckReopen(dir, live_alive, items, options, live_answers, gate, report);
  report->Layer("storage.snapshot_bytes",
                static_cast<double>(SnapshotBytes(dir)));
  totals->attempted += seq.executed + batch.queries;
  totals->failed += seq.failed + batch.failed;

  if (args.trace) {
    // The traced pipeline needs the stage structures, which DurableDatabase
    // keeps private: rebuild them in memory from the same inputs (the build
    // is deterministic) and trace against the initial-state reference.
    Result<std::unique_ptr<Engine>> engine = BuildEngine(data);
    gate->Check(engine.ok(), "engine build failed");
    if (engine.ok()) {
      BuildMetrics build;
      build.mine_s = (*engine)->pmi.stats().mining_seconds;
      build.bounds_s = (*engine)->pmi.stats().bounds_seconds;
      build.filter_s = (*engine)->filter_seconds;
      build.sig_s = (*engine)->sig_seconds;
      build.features = static_cast<double>((*engine)->pmi.features().size());
      build.pmi_bytes = static_cast<double>((*engine)->pmi.stats().size_bytes);
      ReportBuild(build, report);
      RunTraced(**engine, items, std::min(items.size(), spec.trace_queries),
                seq,
                args.work_dir + "/trace-" + spec.name + "-" +
                    std::to_string(args.seed) + ".jsonl",
                gate, report);
    }
  }
  fs::remove_all(base, ec);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Spec spec;
  if (!ParseArgs(argc, argv, &args) ||
      !MakeSpec(args.workload, args.tiny, &spec)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload=<sample-bound|front-bound|"
                 "serve-mix> --seed=N --seconds=S --trace=<0|1>\n");
    return 2;
  }
  std::error_code ec;
  fs::create_directories(args.work_dir, ec);
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d tiny=%d "
              "commit=%s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.tiny ? 1 : 0,
              args.commit.c_str());
  std::printf("host: cpu=\"%s\" nproc=%u compiler=\"%s\" build=%s\n",
              CpuModel().c_str(), std::thread::hardware_concurrency(),
#if defined(__clang__)
              "clang " __VERSION__,
#else
              "gcc " __VERSION__,
#endif
              E2E_BUILD_TYPE);
  Report report;
  Gate gate;
  Totals totals;
  const double calib_pre = CalibrationMs();
  if (spec.serve) {
    RunServeMix(args, spec, &gate, &report, &totals);
  } else {
    RunClosedLoopWorkload(args, spec, &gate, &report, &totals);
  }
  const double calib_post = CalibrationMs();
  report.Layer("host.calib_pre_ms", calib_pre);
  report.Layer("host.calib_post_ms", calib_post);
  std::printf("host.calib_ms: %.3f before, %.3f after\n", calib_pre,
              calib_post);
  const bool complete = report.Print(args.trace, gate.ok(),
                                     std::max<uint64_t>(1, totals.attempted),
                                     totals.failed);
  return gate.ok() && complete ? 0 : 1;
}
