#include "oracles/pruner_reference.h"

#include <algorithm>

namespace pgsim {

namespace {

// Ids and element spans of a vector of sets, laid out as a view expects.
struct FlatSets {
  std::vector<uint32_t> ids;
  std::vector<uint32_t> elements;
  std::vector<uint32_t> offsets{0};
};

template <typename Set>
FlatSets Flatten(const std::vector<Set>& sets) {
  FlatSets flat;
  for (const Set& s : sets) {
    flat.ids.push_back(s.id);
    flat.elements.insert(flat.elements.end(), s.elements.begin(),
                         s.elements.end());
    flat.offsets.push_back(static_cast<uint32_t>(flat.elements.size()));
  }
  return flat;
}

}  // namespace

SetCoverResult GreedyWeightedSetCover(size_t universe_size,
                                      const std::vector<WeightedSet>& sets) {
  const FlatSets flat = Flatten(sets);
  std::vector<double> weights;
  for (const WeightedSet& s : sets) weights.push_back(s.weight);
  WeightedSetsView view;
  view.num_sets = sets.size();
  view.ids = flat.ids.data();
  view.weights = weights.data();
  view.elements = flat.elements.data();
  view.span_begin = flat.offsets.data();
  view.span_end = flat.offsets.data() + 1;
  SetCoverScratch scratch;
  SetCoverResult result;
  GreedyWeightedSetCover(universe_size, view, &scratch, &result);
  return result;
}

LsimResult SolveTightestLsim(size_t universe_size,
                             const std::vector<QpWeightedSet>& sets,
                             const LsimOptions& options, Rng* rng) {
  const FlatSets flat = Flatten(sets);
  std::vector<double> wl, wu;
  for (const QpWeightedSet& s : sets) {
    wl.push_back(s.wl);
    wu.push_back(s.wu);
  }
  QpWeightedSetsView view;
  view.num_sets = sets.size();
  view.ids = flat.ids.data();
  view.wl = wl.data();
  view.wu = wu.data();
  view.elements = flat.elements.data();
  view.span_begin = flat.offsets.data();
  view.span_end = flat.offsets.data() + 1;
  LsimScratch scratch;
  LsimResult result;
  SolveTightestLsim(universe_size, view, options, rng, &scratch, &result);
  return result;
}

double LsimObjective(const std::vector<QpWeightedSet>& sets,
                     const std::vector<size_t>& selection) {
  double sum_l = 0.0, sum_u = 0.0;
  for (size_t i : selection) {
    sum_l += sets[i].wl;
    sum_u += sets[i].wu;
  }
  return std::max(0.0, sum_l - sum_u * sum_u);
}

PruneDecision EvaluatePrunerReference(const ProbabilisticMatrixIndex& pmi,
                                      const ProbPrunerOptions& options,
                                      const PreparedQueryRelations& prepared,
                                      uint32_t graph_id, double epsilon,
                                      Rng* rng) {
  PruneDecision decision;
  // One Lookup per feature: the fetched entry carries both bound flavors.
  const auto upper_of = [&](uint32_t feature_id) -> double {
    PmiEntry e;
    if (!pmi.Lookup(graph_id, feature_id, &e)) {
      return 0.0;  // f not ⊆iso gc: SIP = 0 (paper's <0>)
    }
    return options.sip_variant == SipVariant::kOpt ? e.upper_opt
                                                    : e.upper_simple;
  };

  // ---- Pruning 1: Usim(q). ----
  double usim = 0.0;
  if (options.selection == BoundSelection::kOptimized) {
    std::vector<WeightedSet> sets;
    sets.reserve(prepared.feature_sub_rqs.size());
    for (uint32_t fi = 0; fi < prepared.feature_sub_rqs.size(); ++fi) {
      if (prepared.feature_sub_rqs[fi].empty()) continue;
      WeightedSet s;
      s.id = fi;
      s.elements = prepared.feature_sub_rqs[fi];
      s.weight = upper_of(fi);
      sets.push_back(std::move(s));
    }
    const SetCoverResult cover =
        GreedyWeightedSetCover(prepared.universe_size, sets);
    // Uncovered relaxed queries contribute the trivial bound Pr(Brq) <= 1.
    usim = cover.total_weight + static_cast<double>(cover.num_uncovered);
  } else {
    // SSPBound: "for each rqi, we randomly find two features satisfying
    // conditions in PMI" (Section 6) — take the better of the two picks;
    // any single qualifying feature gives a valid per-rq bound.
    for (uint32_t ri = 0; ri < prepared.universe_size; ++ri) {
      const auto& candidates = prepared.rq_sub_features[ri];
      if (candidates.empty()) {
        usim += 1.0;
        continue;
      }
      const uint32_t first = candidates[rng->Uniform(candidates.size())];
      const uint32_t second = candidates[rng->Uniform(candidates.size())];
      usim += std::min(upper_of(first), upper_of(second));
    }
  }
  decision.usim = std::min(usim, 1.0);
  if (decision.usim < epsilon) {
    decision.outcome = PruneOutcome::kPruned;
    return decision;
  }

  // ---- Pruning 2: Lsim(q). ----
  double lsim = 0.0;
  if (options.selection == BoundSelection::kOptimized) {
    std::vector<QpWeightedSet> sets;
    for (uint32_t fi = 0; fi < prepared.feature_super_rqs.size(); ++fi) {
      if (prepared.feature_super_rqs[fi].empty()) continue;
      PmiEntry e;
      if (!pmi.Lookup(graph_id, fi, &e)) continue;  // SIP = 0: no weight
      QpWeightedSet s;
      s.id = fi;
      s.elements = prepared.feature_super_rqs[fi];
      if (options.sip_variant == SipVariant::kOpt) {
        s.wl = e.lower_opt;
        s.wu = e.upper_opt;
      } else {
        s.wl = e.lower_simple;
        s.wu = e.upper_simple;
      }
      sets.push_back(std::move(s));
    }
    if (!sets.empty()) {
      const LsimResult r = SolveTightestLsim(prepared.universe_size, sets,
                                             options.lsim, rng);
      lsim = r.lsim;
    }
  } else {
    // Random f² per rq (SSPBound flavor); duplicates collapse.
    std::vector<uint32_t> chosen;
    for (uint32_t ri = 0; ri < prepared.universe_size; ++ri) {
      const auto& candidates = prepared.rq_super_features[ri];
      if (candidates.empty()) continue;
      chosen.push_back(candidates[rng->Uniform(candidates.size())]);
    }
    std::sort(chosen.begin(), chosen.end());
    chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
    double sum_l = 0.0, sum_u = 0.0;
    for (uint32_t fi : chosen) {
      PmiEntry e;
      if (!pmi.Lookup(graph_id, fi, &e)) continue;
      if (options.sip_variant == SipVariant::kOpt) {
        sum_l += e.lower_opt;
        sum_u += e.upper_opt;
      } else {
        sum_l += e.lower_simple;
        sum_u += e.upper_simple;
      }
    }
    lsim = std::max(0.0, sum_l - sum_u * sum_u);
  }
  decision.lsim = std::max(0.0, std::min(lsim, 1.0));
  if (epsilon >= 0.0 && decision.lsim >= epsilon) {
    decision.outcome = PruneOutcome::kAccepted;
    return decision;
  }
  decision.outcome = PruneOutcome::kCandidate;
  return decision;
}

}  // namespace pgsim
