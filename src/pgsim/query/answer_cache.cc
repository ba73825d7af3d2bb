#include "pgsim/query/answer_cache.h"

#include <utility>

#include "pgsim/common/fingerprint.h"

namespace pgsim {

AnswerCache::Probe AnswerCache::Find(const Graph& q,
                                     const std::string& options_fingerprint,
                                     uint64_t epoch) {
  Probe probe;
  Fingerprint key;
  key.AddBytes(GraphExactKey(q));
  key.AddBytes(options_fingerprint);
  probe.key = key.bytes();

  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(probe.key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return probe;
  }
  Entry& entry = it->second;
  if (entry.epoch != epoch) {
    // The index mutated since this answer was computed; the entry can never
    // become valid again (epochs are monotone), so drop it now.
    ++stats_.stale;
    ++stats_.misses;
    lru_.erase(entry.lru_it);
    entries_.erase(it);
    return probe;
  }
  ++stats_.hits;
  probe.hit = true;
  probe.answers = entry.answers;
  lru_.splice(lru_.begin(), lru_, entry.lru_it);  // touch
  return probe;
}

void AnswerCache::Store(const Probe& probe, uint64_t epoch,
                        std::vector<uint32_t> answers) {
  if (probe.hit) return;
  auto shared = std::make_shared<const std::vector<uint32_t>>(
      std::move(answers));
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(probe.key);
  if (it != entries_.end()) {
    // Another worker already filled the slot; refresh it — last writer
    // wins, and both writers computed under the same epoch or the stale
    // check will catch the difference on probe.
    it->second.epoch = epoch;
    it->second.answers = std::move(shared);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  lru_.push_front(probe.key);
  Entry entry;
  entry.epoch = epoch;
  entry.answers = std::move(shared);
  entry.lru_it = lru_.begin();
  entries_.emplace(probe.key, std::move(entry));
  while (entries_.size() > options_.max_entries && !lru_.empty()) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }
}

AnswerCacheStats AnswerCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t AnswerCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void AnswerCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
}

}  // namespace pgsim
