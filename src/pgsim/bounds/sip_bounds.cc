#include "pgsim/bounds/sip_bounds.h"

#include <algorithm>
#include <cmath>

#include "pgsim/graph/vf2.h"

namespace pgsim {

namespace {

constexpr double kMaxEventProb = 1.0 - 1e-12;

// Disjointness graph fG: link i-j iff the edge sets are disjoint.
std::vector<std::vector<char>> DisjointnessAdjacency(
    const std::vector<EdgeBitset>& sets) {
  const size_t n = sets.size();
  std::vector<std::vector<char>> adj(n, std::vector<char>(n, 0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (sets[i].DisjointWith(sets[j])) adj[i][j] = adj[j][i] = 1;
    }
  }
  return adj;
}

std::vector<double> CliqueWeights(const std::vector<double>& probs) {
  std::vector<double> weights(probs.size());
  for (size_t i = 0; i < probs.size(); ++i) {
    const double p = std::clamp(probs[i], 0.0, kMaxEventProb);
    weights[i] = -std::log1p(-p);  // -ln(1 - p) >= 0
  }
  return weights;
}

// One group of Algorithm 3 estimates sharing a world pool: each item i is
// conditioned on all items of the same group that *overlap* it (non-disjoint
// edge sets) being false.
struct EstimateGroup {
  std::vector<EdgeEvent> events;
  std::vector<std::vector<char>> adjacent;       // disjointness graph fG
  std::vector<std::vector<uint32_t>> overlaps;   // conditioning lists
  std::vector<uint64_t> n1, n2;

  void Init(const std::vector<EdgeBitset>& sets, bool all_present) {
    events.clear();
    events.reserve(sets.size());
    for (const EdgeBitset& s : sets) events.push_back(EdgeEvent{s, all_present});
    adjacent = DisjointnessAdjacency(sets);
    overlaps.assign(sets.size(), {});
    for (size_t i = 0; i < sets.size(); ++i) {
      for (size_t j = 0; j < sets.size(); ++j) {
        if (i != j && !adjacent[i][j]) overlaps[i].push_back(j);
      }
    }
    n1.assign(sets.size(), 0);
    n2.assign(sets.size(), 0);
  }

  void Observe(const EdgeBitset& world, std::vector<char>* scratch) {
    scratch->resize(events.size());
    for (size_t i = 0; i < events.size(); ++i) {
      (*scratch)[i] = events[i].Holds(world) ? 1 : 0;
    }
    for (size_t i = 0; i < events.size(); ++i) {
      bool clear = true;
      for (uint32_t j : overlaps[i]) {
        if ((*scratch)[j]) {
          clear = false;
          break;
        }
      }
      if (!clear) continue;
      ++n2[i];
      if ((*scratch)[i]) ++n1[i];
    }
  }

  std::vector<double> Estimates() const {
    std::vector<double> out(events.size(), 0.0);
    for (size_t i = 0; i < events.size(); ++i) {
      if (n2[i] > 0) {
        out[i] = static_cast<double>(n1[i]) / static_cast<double>(n2[i]);
      }
    }
    return out;
  }
};

// Per-feature working state within a batch.
struct FeatureWork {
  bool present = false;            // f ⊆iso gc
  EstimateGroup embeddings;        // lower-bound items
  EstimateGroup cuts;              // upper-bound items
  SipBounds bounds;
};

}  // namespace

std::vector<SipBounds> ComputeSipBoundsBatch(
    const ProbabilisticGraph& g, const std::vector<const Graph*>& features,
    const SipBoundOptions& options, Rng* rng,
    const std::vector<const MatchPlan*>* feature_plans) {
  std::vector<FeatureWork> work(features.size());

  // Phase 1: embeddings + cuts per feature (pure graph work, no sampling).
  Vf2Scratch vf2;
  for (size_t fi = 0; fi < features.size(); ++fi) {
    FeatureWork& w = work[fi];
    bool emb_truncated = false;
    const MatchPlan* plan =
        feature_plans != nullptr ? (*feature_plans)[fi] : nullptr;
    MatchPlan local_plan;
    if (plan == nullptr) {
      local_plan = CompileMatchPlan(*features[fi]);
      plan = &local_plan;
    }
    std::vector<EdgeBitset> embeddings =
        EmbeddingEdgeSets(*plan, g.certain(), options.max_cut_embeddings,
                          &emb_truncated, &vf2);
    w.bounds.num_embeddings = static_cast<uint32_t>(embeddings.size());
    w.bounds.embeddings_truncated = emb_truncated;
    if (embeddings.empty()) {
      w.present = false;
      w.bounds.lower_opt = w.bounds.lower_simple = 0.0;
      w.bounds.upper_opt = w.bounds.upper_simple = 0.0;
      continue;
    }
    w.present = true;

    if (emb_truncated) {
      // Cuts from a partial embedding set would be unsound: UpperB stays 1.
      w.bounds.cuts_truncated = true;
    } else {
      bool cuts_truncated = false;
      std::vector<EdgeBitset> cuts = EnumerateMinimalEmbeddingCuts(
          embeddings, g.NumEdges(), options.cuts, &cuts_truncated);
      w.bounds.num_cuts = static_cast<uint32_t>(cuts.size());
      w.bounds.cuts_truncated = cuts_truncated;
      w.cuts.Init(cuts, /*all_present=*/false);
    }

    if (embeddings.size() > options.max_embeddings) {
      embeddings.resize(options.max_embeddings);
    }
    w.embeddings.Init(embeddings, /*all_present=*/true);
  }

  // Phase 2: one shared world pool feeds every Algorithm 3 estimate.
  const uint64_t m = options.mc.NumSamples();
  std::vector<char> scratch;
  bool any_present = false;
  for (const FeatureWork& w : work) any_present |= w.present;
  if (any_present) {
    EdgeBitset world;
    WorldSampleScratch sample_scratch;
    for (uint64_t s = 0; s < m; ++s) {
      g.SampleWorldInto(rng, &sample_scratch, &world);
      for (FeatureWork& w : work) {
        if (!w.present) continue;
        w.embeddings.Observe(world, &scratch);
        if (!w.cuts.events.empty()) w.cuts.Observe(world, &scratch);
      }
    }
  }

  // Phase 3: clique selection per feature.
  std::vector<SipBounds> results;
  results.reserve(work.size());
  for (FeatureWork& w : work) {
    if (!w.present) {
      results.push_back(w.bounds);
      continue;
    }
    {
      const std::vector<double> weights =
          CliqueWeights(w.embeddings.Estimates());
      const MaxCliqueResult opt =
          MaxWeightClique(w.embeddings.adjacent, weights, options.clique);
      const MaxCliqueResult greedy =
          FirstFitClique(w.embeddings.adjacent, weights);
      w.bounds.lower_opt = 1.0 - std::exp(-opt.weight);
      w.bounds.lower_simple = 1.0 - std::exp(-greedy.weight);
    }
    if (!w.cuts.events.empty()) {
      const std::vector<double> weights = CliqueWeights(w.cuts.Estimates());
      const MaxCliqueResult opt =
          MaxWeightClique(w.cuts.adjacent, weights, options.clique);
      const MaxCliqueResult greedy =
          FirstFitClique(w.cuts.adjacent, weights);
      w.bounds.upper_opt = std::exp(-opt.weight);
      w.bounds.upper_simple = std::exp(-greedy.weight);
    }
    // Monte-Carlo noise can invert the estimated bounds; keep them ordered
    // so downstream pruning stays consistent.
    w.bounds.lower_opt = std::min(w.bounds.lower_opt, w.bounds.upper_opt);
    w.bounds.lower_simple =
        std::min(w.bounds.lower_simple, w.bounds.upper_simple);
    results.push_back(w.bounds);
  }
  return results;
}

SipBounds ComputeSipBounds(const ProbabilisticGraph& g, const Graph& feature,
                           const SipBoundOptions& options, Rng* rng) {
  return ComputeSipBoundsBatch(g, {&feature}, options, rng)[0];
}

}  // namespace pgsim
