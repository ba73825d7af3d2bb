// Cross-batch answer cache, invalidated by index epoch.
//
// QueryBatch shares each query's CompiledQuery (processor.h) within one
// call; this cache remembers *final answer sets* across calls — the hot
// case being a serving loop that sees the same queries again and again
// between database mutations.
//
// A hit must return byte-identical answers to a fresh pipeline run. The
// relaxation set's order, and through it every sampled verdict, depends on
// the query's exact vertex and edge order, so two isomorphic-but-relabeled
// queries may legitimately answer differently near the epsilon boundary.
// Entries are therefore keyed by GraphExactKey(q) plus the options
// fingerprint (which covers every answer-affecting knob): a relabeling
// keeps its own entry. The key is linear in the query's size, so every
// query is cacheable.
//
// Invalidation is exact, not heuristic: every entry records the index epoch
// it was computed under (see ProbabilisticMatrixIndex::epoch and
// QueryProcessor::epoch — every AddGraph/RemoveGraph/Compact bumps it). A
// probe under a different epoch drops the entry and counts `stale`; the
// cache can therefore never serve answers that predate a mutation, which
// answer_cache_test pins.
//
// Thread safety: all methods are safe for concurrent callers (one mutex; the
// critical sections are map/list pointer shuffles — key construction
// happens outside the lock). Answer vectors are handed out as
// shared_ptr-to-const, so an eviction never invalidates a reader.

#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "pgsim/graph/graph.h"

namespace pgsim {

struct AnswerCacheOptions {
  /// Entry capacity; least-recently-probed entries evict beyond it.
  size_t max_entries = 1024;
};

/// Monotonic counters (never reset by eviction).
struct AnswerCacheStats {
  uint64_t hits = 0;       ///< served from cache (exact key + epoch match)
  uint64_t misses = 0;     ///< no servable entry
  uint64_t stale = 0;      ///< entry dropped: epoch mismatch (⊆ misses)
  uint64_t evictions = 0;  ///< entries dropped by LRU capacity
};

/// Epoch-versioned LRU map: (exact query, options fingerprint) → answers.
class AnswerCache {
 public:
  explicit AnswerCache(const AnswerCacheOptions& options = AnswerCacheOptions())
      : options_(options) {}

  /// One probe's outcome; also the handle Store() needs to fill the slot
  /// after a miss (so the key is built once per query).
  struct Probe {
    bool hit = false;
    std::shared_ptr<const std::vector<uint32_t>> answers;  ///< set iff hit
    std::string key;  ///< GraphExactKey(q) + options fingerprint
  };

  /// Probes for `q` under `options_fingerprint` at index epoch `epoch`.
  Probe Find(const Graph& q, const std::string& options_fingerprint,
             uint64_t epoch);

  /// Fills the slot a missed Probe addressed (no-op for hits). `epoch` must
  /// be the epoch the answers were computed under — i.e. captured while
  /// holding the processor's serving lock.
  void Store(const Probe& probe, uint64_t epoch,
             std::vector<uint32_t> answers);

  AnswerCacheStats stats() const;

  size_t size() const;

  /// Drops every entry (counters keep accumulating).
  void Clear();

 private:
  struct Entry {
    uint64_t epoch = 0;
    std::shared_ptr<const std::vector<uint32_t>> answers;
    std::list<std::string>::iterator lru_it;  ///< position in lru_
  };

  AnswerCacheOptions options_;
  mutable std::mutex mu_;
  // Most-recently-probed at the front; values are keys into entries_.
  std::list<std::string> lru_;
  std::unordered_map<std::string, Entry> entries_;
  AnswerCacheStats stats_;
};

}  // namespace pgsim
