#include "pgsim/bounds/embedding_cuts.h"

#include <algorithm>

namespace pgsim {

namespace {

// Recursive minimal-hitting-set enumeration. At each node: pick an un-hit
// embedding, branch on each of its edges; edges tried earlier at the same
// node are excluded from later branches (classic duplicate-avoidance).
// Minimality is guaranteed by requiring every chosen edge to keep a
// "private" embedding that no other chosen edge hits.
class HittingSetEnumerator {
 public:
  HittingSetEnumerator(const std::vector<EdgeBitset>& embeddings,
                       size_t num_edges, const CutEnumOptions& options)
      : embeddings_(embeddings), num_edges_(num_edges), options_(options) {}

  std::vector<EdgeBitset> Run(bool* truncated) {
    chosen_.clear();
    EdgeBitset excluded(num_edges_);
    Recurse(excluded);
    if (truncated != nullptr) *truncated = truncated_;
    return results_;
  }

 private:
  // True iff every chosen edge hits at least one embedding that no other
  // chosen edge hits (i.e., the current partial set is irredundant).
  bool Irredundant() const {
    for (size_t i = 0; i < chosen_.size(); ++i) {
      bool has_private = false;
      for (const EdgeBitset& emb : embeddings_) {
        if (!emb.Test(chosen_[i])) continue;
        bool hit_by_other = false;
        for (size_t j = 0; j < chosen_.size() && !hit_by_other; ++j) {
          if (j != i && emb.Test(chosen_[j])) hit_by_other = true;
        }
        if (!hit_by_other) {
          has_private = true;
          break;
        }
      }
      if (!has_private) return false;
    }
    return true;
  }

  void Recurse(const EdgeBitset& excluded) {
    if (truncated_) return;
    if (++nodes_ > options_.max_nodes) {
      truncated_ = true;
      return;
    }
    // Find an embedding not hit by the current choice, preferring the one
    // with the fewest branchable edges.
    const EdgeBitset* pick = nullptr;
    size_t pick_branches = SIZE_MAX;
    for (const EdgeBitset& emb : embeddings_) {
      bool hit = false;
      for (uint32_t e : chosen_) {
        if (emb.Test(e)) {
          hit = true;
          break;
        }
      }
      if (hit) continue;
      EdgeBitset branchable = emb;
      branchable.Subtract(excluded);
      const size_t count = branchable.Count();
      if (count == 0) return;  // dead branch: cannot hit this embedding
      if (count < pick_branches) {
        pick_branches = count;
        pick = &emb;
      }
    }
    if (pick == nullptr) {
      // Everything hit: chosen_ is a hitting set; emit if irredundant.
      if (Irredundant()) {
        results_.push_back(
            EdgeBitset::FromIndices(num_edges_, chosen_));
        if (results_.size() >= options_.max_cuts) truncated_ = true;
      }
      return;
    }
    if (chosen_.size() >= options_.max_cut_size) return;  // too large

    EdgeBitset branchable = *pick;
    branchable.Subtract(excluded);
    EdgeBitset local_excluded = excluded;
    for (uint32_t e : branchable.ToVector()) {
      chosen_.push_back(e);
      // Quick irredundancy precheck keeps the tree small.
      if (Irredundant()) Recurse(local_excluded);
      chosen_.pop_back();
      if (truncated_) return;
      local_excluded.Set(e);
    }
  }

  const std::vector<EdgeBitset>& embeddings_;
  const size_t num_edges_;
  const CutEnumOptions& options_;
  std::vector<uint32_t> chosen_;
  std::vector<EdgeBitset> results_;
  uint64_t nodes_ = 0;
  bool truncated_ = false;
};

}  // namespace

std::vector<EdgeBitset> EnumerateMinimalEmbeddingCuts(
    const std::vector<EdgeBitset>& embeddings, size_t num_edges,
    const CutEnumOptions& options, bool* truncated) {
  if (truncated != nullptr) *truncated = false;
  if (embeddings.empty()) return {};  // nothing to cut
  for (const EdgeBitset& emb : embeddings) {
    if (emb.Empty()) return {};  // an empty embedding can never be destroyed
  }
  HittingSetEnumerator enumerator(embeddings, num_edges, options);
  return enumerator.Run(truncated);
}

}  // namespace pgsim
