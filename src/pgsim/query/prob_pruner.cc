#include "pgsim/query/prob_pruner.h"

#include <algorithm>

#include "pgsim/graph/vf2.h"

namespace pgsim {

namespace {

// Flattens per-feature (or per-rq) element lists into ids + CSR pools.
void FlattenNonEmpty(const std::vector<std::vector<uint32_t>>& lists,
                     std::vector<uint32_t>* ids,
                     std::vector<uint32_t>* offsets,
                     std::vector<uint32_t>* elems) {
  ids->clear();
  offsets->assign(1, 0);
  elems->clear();
  for (uint32_t i = 0; i < lists.size(); ++i) {
    if (lists[i].empty()) continue;
    ids->push_back(i);
    elems->insert(elems->end(), lists[i].begin(), lists[i].end());
    offsets->push_back(static_cast<uint32_t>(elems->size()));
  }
}

// Flattens all lists (including empty ones) into a dense CSR.
void FlattenDense(const std::vector<std::vector<uint32_t>>& lists,
                  std::vector<uint32_t>* offsets,
                  std::vector<uint32_t>* elems) {
  offsets->assign(1, 0);
  elems->clear();
  for (const auto& list : lists) {
    elems->insert(elems->end(), list.begin(), list.end());
    offsets->push_back(static_cast<uint32_t>(elems->size()));
  }
}

template <typename T>
size_t VecCapBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

size_t PrunerScratch::CapacityBytes() const {
  size_t bytes = VecCapBytes(usim_weights) + VecCapBytes(lsim_sel_ids) +
                 VecCapBytes(lsim_sel_wl) + VecCapBytes(lsim_sel_wu) +
                 VecCapBytes(lsim_sel_begin) + VecCapBytes(lsim_sel_end) +
                 VecCapBytes(chosen);
  bytes += VecCapBytes(cover.covered) + VecCapBytes(cover.used) +
           VecCapBytes(cover_result.chosen_ids);
  bytes += VecCapBytes(lsim.elem_offsets) + VecCapBytes(lsim.elem_cursor) +
           VecCapBytes(lsim.elem_sets) + VecCapBytes(lsim.x) +
           VecCapBytes(lsim.best_x) + VecCapBytes(lsim.picked) +
           VecCapBytes(lsim.chosen_mask) + VecCapBytes(lsim.covered) +
           VecCapBytes(lsim.order) + VecCapBytes(lsim.rounded) +
           VecCapBytes(lsim.greedy) + VecCapBytes(lsim.single);
  bytes += VecCapBytes(lsim_result.chosen_ids);
  return bytes;
}

void ProbabilisticPruner::PrepareQuery(const std::vector<Graph>& relaxed,
                                       const std::vector<MatchPlan>* rq_plans) {
  const auto& features = pmi_->features();
  const auto& feature_plans = pmi_->feature_plans();
  auto prepared = std::make_shared<PreparedQueryRelations>();
  prepared->universe_size = relaxed.size();
  prepared->feature_sub_rqs.assign(features.size(), {});
  prepared->feature_super_rqs.assign(features.size(), {});
  prepared->rq_sub_features.assign(relaxed.size(), {});
  prepared->rq_super_features.assign(relaxed.size(), {});
  prepare_iso_tests_ = 0;

  // Relaxed-query plans: the processor's shared per-query set when given,
  // else compiled here — either way one plan per rq for the whole |F| x |U|
  // sweep (the pre-plan engine recompiled per executed test).
  std::vector<MatchPlan> local_plans;
  if (rq_plans == nullptr) {
    local_plans.reserve(relaxed.size());
    for (const Graph& rq : relaxed) {
      local_plans.push_back(CompileMatchPlan(rq));
    }
    rq_plans = &local_plans;
  }
  Vf2Scratch vf2;

  // Label-multiset guard inputs: a VF2 monomorphism needs the pattern's
  // vertex/edge label multiset covered by the target's, so pairs failing
  // the histogram check are skipped without a (counted) VF2 test.
  std::vector<LabelHistogram> feature_hist(features.size());
  for (uint32_t fi = 0; fi < features.size(); ++fi) {
    BuildLabelHistogram(features[fi].graph, &feature_hist[fi]);
  }
  std::vector<LabelHistogram> rq_hist(relaxed.size());
  for (uint32_t ri = 0; ri < relaxed.size(); ++ri) {
    BuildLabelHistogram(relaxed[ri], &rq_hist[ri]);
  }

  for (uint32_t fi = 0; fi < features.size(); ++fi) {
    const Graph& f = features[fi].graph;
    for (uint32_t ri = 0; ri < relaxed.size(); ++ri) {
      const Graph& rq = relaxed[ri];
      if (f.NumEdges() <= rq.NumEdges() &&
          f.NumVertices() <= rq.NumVertices() &&
          HistogramCoversPattern(rq_hist[ri], feature_hist[fi])) {
        ++prepare_iso_tests_;
        if (IsSubgraphIsomorphic(feature_plans[fi], rq, &vf2)) {
          prepared->feature_sub_rqs[fi].push_back(ri);
          prepared->rq_sub_features[ri].push_back(fi);
        }
      }
      if (rq.NumEdges() <= f.NumEdges() &&
          rq.NumVertices() <= f.NumVertices() &&
          HistogramCoversPattern(feature_hist[fi], rq_hist[ri])) {
        ++prepare_iso_tests_;
        if (IsSubgraphIsomorphic((*rq_plans)[ri], f, &vf2)) {
          prepared->feature_super_rqs[fi].push_back(ri);
          prepared->rq_super_features[ri].push_back(fi);
        }
      }
    }
  }

  // Compile the bound program: the candidate-invariant flattened views
  // Evaluate executes.
  BoundProgram& bp = prepared->program;
  FlattenNonEmpty(prepared->feature_sub_rqs, &bp.usim_ids, &bp.usim_offsets,
                  &bp.usim_elems);
  FlattenNonEmpty(prepared->feature_super_rqs, &bp.lsim_ids, &bp.lsim_offsets,
                  &bp.lsim_elems);
  FlattenDense(prepared->rq_sub_features, &bp.rq_sub_offsets,
               &bp.rq_sub_elems);
  FlattenDense(prepared->rq_super_features, &bp.rq_super_offsets,
               &bp.rq_super_elems);
  prepared_ = std::move(prepared);
}

void ProbabilisticPruner::PrepareFromCache(
    std::shared_ptr<const PreparedQueryRelations> prepared) {
  prepared_ = std::move(prepared);
  prepare_iso_tests_ = 0;
}

PruneDecision ProbabilisticPruner::Bounds(uint32_t graph_id, Rng* rng,
                                          PrunerScratch* scratch) const {
  // Historical contract: prune epsilon 2.0 makes the Pruning-1 branch fire
  // unconditionally (usim <= 1 < 2), so lsim reports 0 and only usim is
  // meaningful — which is all the top-k scheduler consumes. Kept as-is
  // because computing Lsim here would consume extra RNG draws and shift
  // every downstream draw sequence (top-k verification sampling).
  PruneDecision decision = Evaluate(graph_id, 2.0, rng, scratch);
  decision.outcome = PruneOutcome::kCandidate;
  return decision;
}

PruneDecision ProbabilisticPruner::Evaluate(uint32_t graph_id, double epsilon,
                                            Rng* rng,
                                            PrunerScratch* scratch) const {
  PruneDecision decision;
  const BoundProgram& bp = prepared_->program;
  // Graph-major matrices: this candidate's cells are the contiguous block
  // [base, base + num_features), so the per-feature gathers below stay in
  // one cache-resident stripe.
  const size_t base =
      static_cast<size_t>(graph_id) * pmi_->num_features();
  const bool opt = options_.sip_variant == SipVariant::kOpt;
  const float* lower =
      (opt ? pmi_->flat_lower_opt() : pmi_->flat_lower_simple()).data() + base;
  const float* upper =
      (opt ? pmi_->flat_upper_opt() : pmi_->flat_upper_simple()).data() + base;
  const uint8_t* present = pmi_->flat_present().data() + base;
  // Absent cells hold 0.0f — the paper's "SIP = 0" for f not ⊆iso gc — so
  // Usim weights gather without a presence branch.
  const auto upper_of = [&](uint32_t feature_id) -> double {
    return upper[feature_id];
  };

  // ---- Pruning 1: Usim(q). ----
  double usim = 0.0;
  if (options_.selection == BoundSelection::kOptimized) {
    scratch->usim_weights.clear();
    for (uint32_t fi : bp.usim_ids) {
      scratch->usim_weights.push_back(upper_of(fi));
    }
    WeightedSetsView view;
    view.num_sets = bp.usim_ids.size();
    view.ids = bp.usim_ids.data();
    view.weights = scratch->usim_weights.data();
    view.elements = bp.usim_elems.data();
    view.span_begin = bp.usim_offsets.data();
    view.span_end = bp.usim_offsets.data() + 1;
    GreedyWeightedSetCover(prepared_->universe_size, view, &scratch->cover,
                           &scratch->cover_result);
    usim = scratch->cover_result.total_weight +
           static_cast<double>(scratch->cover_result.num_uncovered);
  } else {
    for (uint32_t ri = 0; ri < prepared_->universe_size; ++ri) {
      const uint32_t begin = bp.rq_sub_offsets[ri];
      const uint32_t end = bp.rq_sub_offsets[ri + 1];
      if (begin == end) {
        usim += 1.0;
        continue;
      }
      const uint32_t first =
          bp.rq_sub_elems[begin + rng->Uniform(end - begin)];
      const uint32_t second =
          bp.rq_sub_elems[begin + rng->Uniform(end - begin)];
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
  if (options_.selection == BoundSelection::kOptimized) {
    scratch->lsim_sel_ids.clear();
    scratch->lsim_sel_wl.clear();
    scratch->lsim_sel_wu.clear();
    scratch->lsim_sel_begin.clear();
    scratch->lsim_sel_end.clear();
    for (size_t k = 0; k < bp.lsim_ids.size(); ++k) {
      const uint32_t fi = bp.lsim_ids[k];
      const size_t idx = fi;
      if (present[idx] == 0) continue;  // SIP = 0: contributes nothing
      scratch->lsim_sel_ids.push_back(fi);
      scratch->lsim_sel_wl.push_back(lower[idx]);
      scratch->lsim_sel_wu.push_back(upper[idx]);
      scratch->lsim_sel_begin.push_back(bp.lsim_offsets[k]);
      scratch->lsim_sel_end.push_back(bp.lsim_offsets[k + 1]);
    }
    if (!scratch->lsim_sel_ids.empty()) {
      QpWeightedSetsView view;
      view.num_sets = scratch->lsim_sel_ids.size();
      view.ids = scratch->lsim_sel_ids.data();
      view.wl = scratch->lsim_sel_wl.data();
      view.wu = scratch->lsim_sel_wu.data();
      view.elements = bp.lsim_elems.data();
      view.span_begin = scratch->lsim_sel_begin.data();
      view.span_end = scratch->lsim_sel_end.data();
      SolveTightestLsim(prepared_->universe_size, view, options_.lsim, rng,
                        &scratch->lsim, &scratch->lsim_result);
      lsim = scratch->lsim_result.lsim;
    }
  } else {
    auto& chosen = scratch->chosen;
    chosen.clear();
    for (uint32_t ri = 0; ri < prepared_->universe_size; ++ri) {
      const uint32_t begin = bp.rq_super_offsets[ri];
      const uint32_t end = bp.rq_super_offsets[ri + 1];
      if (begin == end) continue;
      chosen.push_back(bp.rq_super_elems[begin + rng->Uniform(end - begin)]);
    }
    std::sort(chosen.begin(), chosen.end());
    chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
    double sum_l = 0.0, sum_u = 0.0;
    for (uint32_t fi : chosen) {
      // Absent cells are (0, 0): adding them equals skipping them.
      sum_l += lower[fi];
      sum_u += upper[fi];
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
