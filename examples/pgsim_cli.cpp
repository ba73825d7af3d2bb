// pgsim command-line tool: generate datasets, build/persist indexes, and run
// T-PS / top-k queries against text-format databases without writing C++.
//
//   pgsim_cli generate --out=db.txt [--graphs=N] [--vertices=N] [--seed=N]
//   pgsim_cli index    --db=db.txt --out=index.pmi [--build-threads=N]
//   pgsim_cli query    --db=db.txt --queries=q.txt [--index=index.pmi]
//                      [--delta=N] [--epsilon=F] [--threads=N]
//                      [--build-threads=N]
//                      [--answer-cache[=CAP]] [--repeat=N] [--mutate-every=N]
//                      [--wal-dir=DIR] [--snapshot-every=N]
//
// Every query runs behind the neighborhood-signature gate: barren
// (rq, candidate) pairs are rejected before VF2 and survivors run over
// signature-built candidate domains. The per-pass "signatures:" line
// reports the work avoided.
//
// --wal-dir serves from a crash-consistent durable database in DIR: the
// first run initializes it from --db (snapshot generation 0 + empty WAL);
// later runs recover from the checksummed snapshot + WAL tail and ignore
// --db's graphs (--db is still read for its label table, so query label
// names resolve). Mutations (--mutate-every) are WAL-logged and survive a
// kill -9. --snapshot-every=N checkpoints automatically after N mutations,
// truncating the WAL; 0 (default) never checkpoints automatically.
//
// --answer-cache keeps one cross-batch AnswerCache (capacity CAP entries,
// default 1024) across --repeat passes over the query file: repeated passes
// hit it, and any mutation invalidates by epoch. --repeat defaults to 2 when
// the answer cache is on (so the second pass demonstrates hits), else 1.
// --mutate-every=N churns the live database before every Nth pass (adds a
// copy of graph 0, then removes it): epochs bump, cached answers go stale,
// and the reported answer counts stay identical — the live-maintenance
// round-trip guarantee.
//
// --threads sets the width of the work-stealing scheduler the batch runs on
// (1 = inline on the calling thread, 0 = all hardware threads): each query
// is a front-stages task plus one verification task per candidate, so a
// skewed batch keeps every worker busy. Answers are bit-identical at any
// width. Byte-identical queries in one batch share one compiled query; the
// per-pass "compiled cache" line reports how many did.
//
// --build-threads parallelizes the offline phase (feature mining, PMI bound
// columns, structural-filter counts) on a thread pool; 0 (default) uses all
// hardware threads and the built index is bit-identical at any setting.
//   pgsim_cli serve    --db=db.txt --queries=q.txt [--index=index.pmi]
//                      [--delta=N] [--epsilon=F] [--threads=N]
//                      [--deadline-ms=N] [--priority=N] [--allow-degraded]
//                      [--cancel-after-draws=N] [--max-queue=N]
//                      [--answer-cache[=CAP]] [--repeat=N] [--mutate-every=N]
//
// serve drives the always-on ServingCore instead of a closed batch: every
// query is Submit()ed through the bounded priority admission queue
// (--max-queue slots; overflow sheds kUnavailable with a retry-after hint)
// and resolves to a ticket. --deadline-ms arms a per-query deadline —
// without --allow-degraded a late query resolves DeadlineExceeded; with it,
// the anytime answer (graphs verified so far + per-candidate [lo,hi]
// intervals). --cancel-after-draws=N cuts every candidate's sampling loop
// after N draws (deterministic degradation, byte-identical across runs).
// --mutate-every=N interleaves an add+remove mutation pair through the SAME
// admission queue before every Nth pass. (query also accepts --serve as an
// alias for this mode.)
//
//   pgsim_cli topk     --db=db.txt --queries=q.txt [--index=index.pmi]
//                      [--delta=N] [--k=N]
//   pgsim_cli sample-queries --db=db.txt --out=q.txt [--count=N] [--size=N]
//   pgsim_cli stats    --db=db.txt
//
// Every subcommand rejects an argument that is not one of its own --flags
// (exit code 2, naming the argument), so a misspelled or retired flag never
// silently runs a different configuration.

#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>

#include "pgsim/datasets/stats.h"
#include "pgsim/datasets/synthetic.h"
#include "pgsim/datasets/text_io.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/processor.h"
#include "pgsim/query/structural_filter.h"
#include "pgsim/query/top_k.h"
#include "pgsim/serving/serving_core.h"
#include "pgsim/storage/durable_db.h"

using namespace pgsim;

namespace {

std::string FlagStr(int argc, char** argv, const char* key,
                    const std::string& fallback) {
  const std::string prefix = std::string("--") + key + "=";
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

int64_t FlagInt(int argc, char** argv, const char* key, int64_t fallback) {
  const std::string v = FlagStr(argc, argv, key, "");
  return v.empty() ? fallback : std::atoll(v.c_str());
}

double FlagDouble(int argc, char** argv, const char* key, double fallback) {
  const std::string v = FlagStr(argc, argv, key, "");
  return v.empty() ? fallback : std::atof(v.c_str());
}

// True when --KEY appears, bare or as --KEY=VALUE.
bool FlagPresent(int argc, char** argv, const char* key) {
  const std::string bare = std::string("--") + key;
  const std::string prefix = bare + "=";
  for (int i = 2; i < argc; ++i) {
    if (bare == argv[i] ||
        std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return true;
    }
  }
  return false;
}

// True (after printing the offender) when argv holds anything but a --flag
// named in `known`; the caller exits with code 2.
bool RejectUnknownFlags(int argc, char** argv,
                        std::initializer_list<const char*> known) {
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n", argv[1], arg);
      return true;
    }
    const char* name = arg + 2;
    const size_t len = std::strcspn(name, "=");
    bool found = false;
    for (const char* key : known) {
      found = found || (std::strlen(key) == len &&
                        std::strncmp(key, name, len) == 0);
    }
    if (!found) {
      std::fprintf(stderr, "%s: unknown flag --%.*s\n", argv[1],
                   static_cast<int>(len), name);
      return true;
    }
  }
  return false;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: pgsim_cli <generate|index|query|serve|topk|sample-queries> "
      "[--flags]\n  see the header comment of examples/pgsim_cli.cpp\n");
  return 2;
}

// Synthetic label table matching the generator's integer labels.
LabelTable GeneratorLabels(uint32_t num_labels) {
  LabelTable labels;
  for (uint32_t i = 0; i < num_labels; ++i) {
    labels.Intern("L" + std::to_string(i));
  }
  return labels;
}

int CmdGenerate(int argc, char** argv) {
  if (RejectUnknownFlags(argc, argv,
                         {"out", "graphs", "vertices", "labels", "seed"})) {
    return 2;
  }
  const std::string out = FlagStr(argc, argv, "out", "pgsim_db.txt");
  SyntheticOptions options;
  options.num_graphs = FlagInt(argc, argv, "graphs", 100);
  options.avg_vertices = FlagInt(argc, argv, "vertices", 14);
  options.num_vertex_labels = FlagInt(argc, argv, "labels", 6);
  options.seed = FlagInt(argc, argv, "seed", 42);
  auto db = GenerateDatabase(options);
  if (!db.ok()) return Fail(db.status());
  const LabelTable labels = GeneratorLabels(options.num_vertex_labels);
  Status s = SaveDatabaseText(out, *db, labels);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %zu probabilistic graphs to %s\n", db->size(),
              out.c_str());
  return 0;
}

int CmdSampleQueries(int argc, char** argv) {
  if (RejectUnknownFlags(argc, argv, {"db", "out", "size", "count", "seed"})) {
    return 2;
  }
  const std::string db_path = FlagStr(argc, argv, "db", "pgsim_db.txt");
  const std::string out = FlagStr(argc, argv, "out", "pgsim_queries.txt");
  auto db = LoadDatabaseText(db_path);
  if (!db.ok()) return Fail(db.status());
  auto queries = GenerateQueries(db->graphs, FlagInt(argc, argv, "size", 6),
                                 FlagInt(argc, argv, "count", 10),
                                 FlagInt(argc, argv, "seed", 7));
  if (!queries.ok()) return Fail(queries.status());
  Status s = SaveQueriesText(out, *queries, db->labels);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %zu queries to %s\n", queries->size(), out.c_str());
  return 0;
}

// Shared --build-threads handling: 0 = all hardware threads (the
// PmiBuildOptions default); negative values are clamped to 1.
uint32_t BuildThreadsFlag(int argc, char** argv) {
  const int64_t threads = FlagInt(argc, argv, "build-threads", 0);
  return threads < 0 ? 1u : static_cast<uint32_t>(threads);
}

int CmdIndex(int argc, char** argv) {
  if (RejectUnknownFlags(argc, argv, {"db", "out", "beta", "gamma", "maxL",
                                      "build-threads"})) {
    return 2;
  }
  const std::string db_path = FlagStr(argc, argv, "db", "pgsim_db.txt");
  const std::string out = FlagStr(argc, argv, "out", "pgsim_index.pmi");
  auto db = LoadDatabaseText(db_path);
  if (!db.ok()) return Fail(db.status());
  PmiBuildOptions build;
  build.miner.beta = FlagDouble(argc, argv, "beta", 0.15);
  build.miner.gamma = FlagDouble(argc, argv, "gamma", -1.0);
  build.miner.max_vertices = FlagInt(argc, argv, "maxL", 4);
  build.num_threads = BuildThreadsFlag(argc, argv);
  auto pmi = ProbabilisticMatrixIndex::Build(db->graphs, build);
  if (!pmi.ok()) return Fail(pmi.status());
  Status s = pmi->Save(out);
  if (!s.ok()) return Fail(s);
  std::printf(
      "indexed %u graphs: %zu features, %zu entries, %.1f KB -> %s "
      "(%.2f s = %.2f mining + %.2f bounds, %u thread(s))\n",
      pmi->num_graphs(), pmi->stats().num_features, pmi->stats().num_entries,
      pmi->stats().size_bytes / 1024.0, out.c_str(),
      pmi->stats().total_seconds, pmi->stats().mining_seconds,
      pmi->stats().bounds_seconds, pmi->stats().build_threads);
  return 0;
}

struct LoadedSetup {
  TextDatabase db;
  ProbabilisticMatrixIndex pmi;
  std::vector<Graph> certain;
  StructuralFilter filter;
  std::vector<Graph> queries;
};

// Loads --db and --queries; builds (or loads) the PMI + structural filter
// unless `need_index` is false (the durable --wal-dir path owns its own
// index inside the snapshot and only needs the label table + queries here).
Result<LoadedSetup> LoadSetup(int argc, char** argv, bool need_index = true) {
  LoadedSetup s;
  PGSIM_ASSIGN_OR_RETURN(
      s.db, LoadDatabaseText(FlagStr(argc, argv, "db", "pgsim_db.txt")));
  const uint32_t build_threads = BuildThreadsFlag(argc, argv);
  if (need_index) {
    const std::string index_path = FlagStr(argc, argv, "index", "");
    if (index_path.empty()) {
      PmiBuildOptions build;
      build.miner.gamma = -1.0;
      build.num_threads = build_threads;
      PGSIM_ASSIGN_OR_RETURN(
          s.pmi, ProbabilisticMatrixIndex::Build(s.db.graphs, build));
    } else {
      PGSIM_ASSIGN_OR_RETURN(s.pmi, ProbabilisticMatrixIndex::Load(index_path));
      if (s.pmi.num_graphs() != s.db.graphs.size()) {
        return Status::InvalidArgument(
            "index was built for a different database size");
      }
    }
    for (const auto& g : s.db.graphs) s.certain.push_back(g.certain());
    StructuralFilterOptions filter_options;
    filter_options.num_threads = build_threads;
    s.filter = StructuralFilter::Build(s.certain, s.pmi.features(),
                                       filter_options);
  }
  PGSIM_ASSIGN_OR_RETURN(
      s.queries,
      LoadQueriesText(FlagStr(argc, argv, "queries", "pgsim_queries.txt"),
                      &s.db.labels));
  return s;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

// The signature-gate and dropped-candidate lines `query` and `serve` share.
void PrintQueryCounters(const QueryCounters& c) {
  std::printf(
      "signatures: %zu pairs rejected, %zu domain candidates pruned, "
      "%zu VF2 calls avoided\n",
      c.sig_pairs_rejected, c.domain_candidates_pruned, c.vf2_calls_avoided);
  std::printf(
      "dropped candidates: %zu verification failures, %zu cancelled\n",
      c.verification_failures, c.cancelled_candidates);
}

int CmdQuery(int argc, char** argv) {
  if (RejectUnknownFlags(
          argc, argv,
          {"db", "index", "queries", "build-threads", "delta", "epsilon",
           "threads", "answer-cache", "repeat", "mutate-every", "wal-dir",
           "snapshot-every"})) {
    return 2;
  }
  const std::string wal_dir = FlagStr(argc, argv, "wal-dir", "");
  auto setup = LoadSetup(argc, argv, /*need_index=*/wal_dir.empty());
  if (!setup.ok()) return Fail(setup.status());
  QueryOptions options;
  options.delta = FlagInt(argc, argv, "delta", 1);
  options.epsilon = FlagDouble(argc, argv, "epsilon", 0.5);
  BatchOptions batch;
  // Clamp: negative flag values would wrap through the uint32 fields.
  const int64_t threads = FlagInt(argc, argv, "threads", 1);
  batch.num_threads = threads < 0 ? 1 : static_cast<uint32_t>(threads);

  // Cross-batch answer cache + live-mutation churn knobs.
  const bool answer_cache_on = FlagPresent(argc, argv, "answer-cache");
  AnswerCacheOptions cache_options;
  const int64_t cap = FlagInt(argc, argv, "answer-cache", 0);
  if (cap > 0) cache_options.max_entries = static_cast<size_t>(cap);
  AnswerCache answer_cache(cache_options);
  if (answer_cache_on) batch.answer_cache = &answer_cache;
  const int64_t repeat_flag =
      FlagInt(argc, argv, "repeat", answer_cache_on ? 2 : 1);
  const size_t repeat = repeat_flag < 1 ? 1 : static_cast<size_t>(repeat_flag);
  const int64_t mutate_every = FlagInt(argc, argv, "mutate-every", 0);

  // --wal-dir: serve from a crash-consistent durable database instead of
  // the in-memory setup. First run seeds it from --db; later runs recover
  // snapshot + WAL and --db contributes only its label table.
  std::unique_ptr<DurableDatabase> durable;
  std::unique_ptr<QueryProcessor> local;
  QueryProcessor* processor = nullptr;
  if (!wal_dir.empty()) {
    DurableDbOptions durable_options;
    const int64_t every = FlagInt(argc, argv, "snapshot-every", 0);
    durable_options.snapshot_every =
        every < 0 ? 0 : static_cast<uint32_t>(every);
    if (FileExists(wal_dir + "/MANIFEST")) {
      auto opened = DurableDatabase::Open(wal_dir, durable_options);
      if (!opened.ok()) return Fail(opened.status());
      durable = std::move(*opened);
      const RecoveryStats& rec = durable->recovery();
      std::printf(
          "wal-dir %s: recovered generation %llu (epoch %llu), replayed "
          "%zu of %zu WAL records (%zu already in snapshot)%s\n",
          wal_dir.c_str(), static_cast<unsigned long long>(rec.snapshot_gen),
          static_cast<unsigned long long>(rec.snapshot_epoch),
          rec.wal_records_replayed, rec.wal_records_seen,
          rec.wal_records_skipped,
          rec.wal_tail_truncated ? ", torn tail truncated" : "");
    } else {
      PmiBuildOptions build;
      build.miner.gamma = -1.0;
      build.num_threads = BuildThreadsFlag(argc, argv);
      StructuralFilterOptions filter_options;
      filter_options.num_threads = build.num_threads;
      auto created = DurableDatabase::Create(wal_dir, setup->db.graphs, build,
                                             filter_options, durable_options);
      if (!created.ok()) return Fail(created.status());
      durable = std::move(*created);
      std::printf("wal-dir %s: initialized with %zu graphs (generation 0)\n",
                  wal_dir.c_str(), setup->db.graphs.size());
    }
    processor = &durable->processor();
  } else {
    local = std::make_unique<QueryProcessor>(&setup->db.graphs, &setup->pmi,
                                             &setup->filter);
    processor = local.get();
  }
  for (size_t pass = 0; pass < repeat; ++pass) {
    if (mutate_every > 0 && pass > 0 &&
        pass % static_cast<size_t>(mutate_every) == 0) {
      // Churn the live database: add a copy of graph 0, then remove it.
      // Ids are stable and the round trip leaves every structure serving
      // the same answers — only the epoch moves (staling cached answers).
      // With --wal-dir the pair is logged and fsync'd, so it survives a
      // crash at any point between the two.
      const ProbabilisticGraph copy = setup->db.graphs[0];
      auto added = durable ? durable->AddGraph(copy, /*seed=*/1000 + pass)
                           : processor->AddGraph(copy, /*seed=*/1000 + pass);
      if (!added.ok()) return Fail(added.status());
      Status removed = durable ? durable->RemoveGraph(added.value())
                               : processor->RemoveGraph(added.value());
      if (!removed.ok()) return Fail(removed);
      std::printf("pass %zu: mutated (add+remove graph copy), epoch now %llu\n",
                  pass, static_cast<unsigned long long>(processor->epoch()));
    }
    BatchStats batch_stats;
    const auto results =
        processor->QueryBatch(setup->queries, options, batch, &batch_stats);
    if (pass == 0) {
      std::printf("%-7s %-8s %-10s %-9s %-9s %-8s\n", "query", "|SCq|",
                  "verified", "answers", "ids", "time_ms");
      for (size_t qi = 0; qi < results.size(); ++qi) {
        const BatchQueryResult& r = results[qi];
        if (!r.status.ok()) {
          std::printf("q%-6zu %s\n", qi, r.status.ToString().c_str());
          continue;
        }
        std::string ids;
        for (uint32_t gi : r.answers) ids += std::to_string(gi) + " ";
        std::printf("q%-6zu %-8zu %-10zu %-9zu %-9s %-8.1f\n", qi,
                    r.stats.structural_candidates,
                    r.stats.verification_candidates, r.answers.size(),
                    ids.empty() ? "-" : ids.c_str(),
                    r.stats.total_seconds * 1e3);
      }
    }
    std::printf(
        "pass %zu: %zu queries, %zu answers, %zu failed | %u thread(s) | "
        "wall %.1f ms, cpu %.1f ms, %.1f queries/s\n",
        pass, batch_stats.num_queries, batch_stats.totals.answers,
        batch_stats.failed_queries, batch_stats.threads_used,
        batch_stats.wall_seconds * 1e3, batch_stats.sum_query_seconds * 1e3,
        batch_stats.wall_seconds > 0.0
            ? batch_stats.num_queries / batch_stats.wall_seconds
            : 0.0);
    if (batch_stats.tasks_executed > 0) {
      std::printf(
          "scheduler: %zu tasks (%zu stolen, %zu steal probes), queue depth "
          "%zu, %zu overlapped verify tasks, %.1f ms summed queue wait\n",
          batch_stats.tasks_executed, batch_stats.tasks_stolen,
          batch_stats.steal_attempts, batch_stats.max_queue_depth,
          batch_stats.overlapped_verify_tasks,
          batch_stats.sum_queue_wait_seconds * 1e3);
    }
    std::printf("compiled cache: %zu/%zu hits (%.1f ms probing)\n",
                batch_stats.compiled_cache_hits,
                batch_stats.compiled_cache_hits +
                    batch_stats.compiled_cache_misses,
                batch_stats.cache_seconds * 1e3);
    PrintQueryCounters(batch_stats.totals);
    if (answer_cache_on) {
      std::printf(
          "answer-cache: %zu hits, %zu misses (%zu stale), %zu evictions | "
          "%zu entries, epoch %llu\n",
          static_cast<size_t>(batch_stats.answer_cache.hits),
          static_cast<size_t>(batch_stats.answer_cache.misses),
          static_cast<size_t>(batch_stats.answer_cache.stale),
          static_cast<size_t>(batch_stats.answer_cache.evictions),
          answer_cache.size(),
          static_cast<unsigned long long>(processor->epoch()));
    }
  }
  if (durable) {
    std::printf(
        "wal-dir %s: generation %llu, epoch %llu, %llu mutations since "
        "checkpoint, wal %llu bytes\n",
        wal_dir.c_str(),
        static_cast<unsigned long long>(durable->snapshot_generation()),
        static_cast<unsigned long long>(durable->epoch()),
        static_cast<unsigned long long>(durable->mutations_since_checkpoint()),
        static_cast<unsigned long long>(durable->wal_size_bytes()));
  }
  return 0;
}

// The always-on serving mode: every query goes through the ServingCore's
// bounded priority admission queue and resolves to a ticket, with optional
// deadlines, anytime degradation, and mutation interleaving.
int CmdServe(int argc, char** argv) {
  if (RejectUnknownFlags(
          argc, argv,
          {"db", "index", "queries", "build-threads", "delta", "epsilon",
           "threads", "max-queue", "answer-cache", "deadline-ms", "priority",
           "allow-degraded", "cancel-after-draws", "repeat", "mutate-every",
           "serve"})) {
    return 2;
  }
  auto setup = LoadSetup(argc, argv);
  if (!setup.ok()) return Fail(setup.status());

  ServingOptions so;
  const int64_t threads = FlagInt(argc, argv, "threads", 0);
  so.num_threads = threads < 0 ? 0 : static_cast<uint32_t>(threads);
  const int64_t max_queue = FlagInt(argc, argv, "max-queue", 256);
  so.max_queue = max_queue < 0 ? 0 : static_cast<size_t>(max_queue);
  so.query.delta = FlagInt(argc, argv, "delta", 1);
  so.query.epsilon = FlagDouble(argc, argv, "epsilon", 0.5);

  const bool answer_cache_on = FlagPresent(argc, argv, "answer-cache");
  AnswerCacheOptions cache_options;
  const int64_t cap = FlagInt(argc, argv, "answer-cache", 0);
  if (cap > 0) cache_options.max_entries = static_cast<size_t>(cap);
  AnswerCache answer_cache(cache_options);
  if (answer_cache_on) so.answer_cache = &answer_cache;

  SubmitOptions submit;
  submit.deadline_ms = FlagInt(argc, argv, "deadline-ms", -1);
  submit.priority = static_cast<int>(FlagInt(argc, argv, "priority", 0));
  submit.allow_degraded = FlagPresent(argc, argv, "allow-degraded");
  const int64_t draws = FlagInt(argc, argv, "cancel-after-draws", 0);
  submit.cancel_after_draws = draws < 0 ? 0 : static_cast<uint64_t>(draws);

  const int64_t repeat_flag =
      FlagInt(argc, argv, "repeat", answer_cache_on ? 2 : 1);
  const size_t repeat = repeat_flag < 1 ? 1 : static_cast<size_t>(repeat_flag);
  const int64_t mutate_every = FlagInt(argc, argv, "mutate-every", 0);

  QueryProcessor processor(&setup->db.graphs, &setup->pmi, &setup->filter);
  ServingCore core(&processor, so);

  for (size_t pass = 0; pass < repeat; ++pass) {
    if (mutate_every > 0 && pass > 0 &&
        pass % static_cast<size_t>(mutate_every) == 0) {
      // Same add+remove churn as `query`, but interleaved through the
      // admission queue: the pair waits for in-flight queries, never for
      // whole batches.
      QueryTicket add =
          core.SubmitAddGraph(setup->db.graphs[0], /*seed=*/1000 + pass);
      const ServeResult& added = add.Wait();
      if (!added.status.ok()) return Fail(added.status);
      QueryTicket remove = core.SubmitRemoveGraph(added.graph_id);
      const ServeResult& removed = remove.Wait();
      if (!removed.status.ok()) return Fail(removed.status);
      std::printf("pass %zu: mutated via queue, epoch now %llu\n", pass,
                  static_cast<unsigned long long>(removed.epoch));
    }

    std::vector<QueryTicket> tickets;
    tickets.reserve(setup->queries.size());
    WallTimer pass_timer;
    for (const Graph& q : setup->queries) {
      tickets.push_back(core.Submit(q, submit));
    }
    size_t answers = 0, shed = 0, deadline = 0, degraded = 0, failed = 0;
    for (size_t qi = 0; qi < tickets.size(); ++qi) {
      const ServeResult& r = tickets[qi].Wait();
      if (r.status.ok()) {
        answers += r.answers.size();
        degraded += r.degraded;
      } else if (r.status.code() == StatusCode::kUnavailable) {
        ++shed;
      } else if (r.status.code() == StatusCode::kDeadlineExceeded) {
        ++deadline;
      } else {
        ++failed;
      }
      if (pass == 0) {
        std::string ids;
        for (uint32_t gi : r.answers) ids += std::to_string(gi) + " ";
        if (r.status.ok()) {
          std::printf("q%-6zu %-9zu %-9s %s%s\n", qi, r.answers.size(),
                      ids.empty() ? "-" : ids.c_str(),
                      r.degraded ? "degraded " : "exact",
                      r.degraded
                          ? ("(" + std::to_string(r.intervals.size()) +
                             " open intervals)")
                                .c_str()
                          : "");
          for (const IntervalAnswer& ia : r.intervals) {
            std::printf("   graph %-4u est=%.3f [%.3f, %.3f] after %llu "
                        "draws\n",
                        ia.graph_id, ia.estimate, ia.lo, ia.hi,
                        static_cast<unsigned long long>(ia.samples));
          }
        } else {
          std::printf("q%-6zu %s%s\n", qi, r.status.ToString().c_str(),
                      r.status.code() == StatusCode::kUnavailable
                          ? (" (retry after " +
                             std::to_string(r.retry_after_seconds) + "s)")
                                .c_str()
                          : "");
        }
      }
    }
    const double wall = pass_timer.Seconds();
    std::printf(
        "pass %zu: %zu queries | %zu answers, %zu degraded, %zu deadline, "
        "%zu shed, %zu failed | wall %.1f ms, %.1f queries/s\n",
        pass, tickets.size(), answers, degraded, deadline, shed, failed,
        wall * 1e3, wall > 0.0 ? tickets.size() / wall : 0.0);
  }
  core.Shutdown();
  const ServingStats st = core.stats();
  std::printf(
      "serving: %llu submitted, %llu admitted, %llu cache hits, %llu waves, "
      "%llu mutations, %llu double-resolves\n",
      static_cast<unsigned long long>(st.submitted),
      static_cast<unsigned long long>(st.admitted),
      static_cast<unsigned long long>(st.answer_cache_hits),
      static_cast<unsigned long long>(st.waves),
      static_cast<unsigned long long>(st.mutations_applied),
      static_cast<unsigned long long>(st.double_resolves));
  PrintQueryCounters(st.totals);
  return 0;
}

int CmdTopK(int argc, char** argv) {
  if (RejectUnknownFlags(argc, argv, {"db", "index", "queries",
                                      "build-threads", "delta", "k"})) {
    return 2;
  }
  auto setup = LoadSetup(argc, argv);
  if (!setup.ok()) return Fail(setup.status());
  TopKOptions options;
  options.delta = FlagInt(argc, argv, "delta", 1);
  options.k = FlagInt(argc, argv, "k", 5);
  for (size_t qi = 0; qi < setup->queries.size(); ++qi) {
    auto result = TopKQuery(setup->db.graphs, setup->pmi, &setup->filter,
                            setup->queries[qi], options);
    if (!result.ok()) {
      std::printf("q%zu: %s\n", qi, result.status().ToString().c_str());
      continue;
    }
    std::printf("q%zu: verified %zu of %zu candidates (%zu cut by bound)\n",
                qi, result->verified, result->structural_candidates,
                result->skipped_by_bound);
    for (const TopKEntry& e : result->entries) {
      std::printf("   graph %-4u ssp=%.3f (usim=%.3f)\n", e.graph_id, e.ssp,
                  e.usim);
    }
  }
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (RejectUnknownFlags(argc, argv, {"db"})) return 2;
  auto db = LoadDatabaseText(FlagStr(argc, argv, "db", "pgsim_db.txt"));
  if (!db.ok()) return Fail(db.status());
  const DatabaseStats stats = ComputeDatabaseStats(db->graphs);
  std::fputs(FormatDatabaseStats(stats).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "generate") return CmdGenerate(argc, argv);
  if (command == "index") return CmdIndex(argc, argv);
  if (command == "query") {
    // --serve is an alias: route to the always-on serving mode.
    return FlagPresent(argc, argv, "serve") ? CmdServe(argc, argv)
                                            : CmdQuery(argc, argv);
  }
  if (command == "serve") return CmdServe(argc, argv);
  if (command == "topk") return CmdTopK(argc, argv);
  if (command == "sample-queries") return CmdSampleQueries(argc, argv);
  if (command == "stats") return CmdStats(argc, argv);
  return Usage();
}
