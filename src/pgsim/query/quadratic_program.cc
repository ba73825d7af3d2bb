#include "pgsim/query/quadratic_program.h"

#include <algorithm>
#include <cmath>

namespace pgsim {

void SolveTightestLsim(size_t universe_size, const QpWeightedSetsView& sets,
                       const LsimOptions& options, Rng* rng, LsimScratch* s,
                       LsimResult* result) {
  // Every accumulation visits sets in index order and elements in span
  // order, so equal inputs produce bit-identical results and identical RNG
  // draw sequences.
  const size_t n = sets.num_sets;
  const double* wl = sets.wl;
  const double* wu = sets.wu;
  result->lsim = 0.0;
  result->chosen_ids.clear();
  result->covered = false;
  result->relaxed_objective = 0.0;
  if (n == 0) return;

  // element -> sets containing it, as a CSR (stable: set indices ascend
  // within each element's segment, matching push_back insertion order).
  s->elem_offsets.assign(universe_size + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t* end = sets.elements + sets.span_end[i];
    for (const uint32_t* e = sets.elements + sets.span_begin[i]; e != end;
         ++e) {
      if (*e < universe_size) ++s->elem_offsets[*e + 1];
    }
  }
  for (size_t e = 0; e < universe_size; ++e) {
    s->elem_offsets[e + 1] += s->elem_offsets[e];
  }
  s->elem_cursor.assign(s->elem_offsets.begin(), s->elem_offsets.end() - 1);
  s->elem_sets.resize(s->elem_offsets[universe_size]);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t* end = sets.elements + sets.span_end[i];
    for (const uint32_t* e = sets.elements + sets.span_begin[i]; e != end;
         ++e) {
      if (*e < universe_size) {
        s->elem_sets[s->elem_cursor[*e]++] = static_cast<uint32_t>(i);
      }
    }
  }

  const auto relaxed_objective = [&](const std::vector<double>& x) {
    double sum_l = 0.0, sum_u = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum_l += x[i] * wl[i];
      sum_u += x[i] * wu[i];
    }
    return sum_l - sum_u * sum_u;
  };

  // Cyclic projection sweeps onto the box [0,1]^n intersected with the cover
  // half-spaces sum_{s ∋ e} x_s >= 1 (for coverable elements only).
  const auto project_feasible = [&](std::vector<double>* x) {
    for (int sweep = 0; sweep < options.projection_sweeps; ++sweep) {
      for (double& v : *x) v = std::clamp(v, 0.0, 1.0);
      bool violated = false;
      for (size_t e = 0; e < universe_size; ++e) {
        const uint32_t begin = s->elem_offsets[e];
        const uint32_t end = s->elem_offsets[e + 1];
        if (begin == end) continue;
        double total = 0.0;
        for (uint32_t k = begin; k < end; ++k) total += (*x)[s->elem_sets[k]];
        if (total < 1.0) {
          violated = true;
          const double correction =
              (1.0 - total) / static_cast<double>(end - begin);
          for (uint32_t k = begin; k < end; ++k) {
            (*x)[s->elem_sets[k]] += correction;
          }
        }
      }
      if (!violated) {
        for (double& v : *x) v = std::clamp(v, 0.0, 1.0);
        break;
      }
    }
  };

  // ---- Relaxed QP: projected gradient ascent from the feasible point 1. ----
  s->x.assign(n, 1.0);
  s->best_x.assign(n, 1.0);
  double best_relaxed = relaxed_objective(s->x);
  double sum_wu_sq = 0.0;
  for (size_t i = 0; i < n; ++i) sum_wu_sq += wu[i] * wu[i];
  const double lipschitz = std::max(1e-9, 2.0 * sum_wu_sq);
  const double step = 1.0 / lipschitz;

  for (int it = 0; it < options.gradient_iterations; ++it) {
    double sum_u = 0.0;
    for (size_t i = 0; i < n; ++i) sum_u += s->x[i] * wu[i];
    for (size_t i = 0; i < n; ++i) {
      const double grad = wl[i] - 2.0 * sum_u * wu[i];
      s->x[i] += step * grad;
    }
    project_feasible(&s->x);
    const double obj = relaxed_objective(s->x);
    if (obj > best_relaxed) {
      best_relaxed = obj;
      s->best_x = s->x;
    }
  }
  result->relaxed_objective = best_relaxed;

  // ---- Algorithm 2: randomized rounding, 2 ln|U| rounds. ----
  const int rounds = static_cast<int>(std::ceil(
      options.rounding_factor *
      std::log(static_cast<double>(std::max<size_t>(2, universe_size)))));
  s->picked.assign(n, 0);
  for (int k = 0; k < rounds; ++k) {
    for (size_t i = 0; i < n; ++i) {
      if (!s->picked[i] && rng->Bernoulli(s->best_x[i])) s->picked[i] = 1;
    }
  }
  s->rounded.clear();
  for (size_t i = 0; i < n; ++i) {
    if (s->picked[i]) s->rounded.push_back(static_cast<uint32_t>(i));
  }

  // ---- Deterministic fallbacks (any selection is a valid lower bound). ----
  // Greedy: add sets in decreasing wl while the objective improves.
  s->order.resize(n);
  for (size_t i = 0; i < n; ++i) s->order[i] = static_cast<uint32_t>(i);
  std::sort(s->order.begin(), s->order.end(), [&](uint32_t a, uint32_t b) {
    return wl[a] - wu[a] * wu[a] > wl[b] - wu[b] * wu[b];
  });
  s->greedy.clear();
  double greedy_l = 0.0, greedy_u = 0.0;
  for (uint32_t i : s->order) {
    const double new_l = greedy_l + wl[i];
    const double new_u = greedy_u + wu[i];
    if (new_l - new_u * new_u > greedy_l - greedy_u * greedy_u) {
      s->greedy.push_back(i);
      greedy_l = new_l;
      greedy_u = new_u;
    }
  }
  // Best single set.
  s->single.clear();
  if (!s->order.empty()) s->single.push_back(s->order.front());

  const auto selection_value = [&](const std::vector<uint32_t>& sel) {
    double sum_l = 0.0, sum_u = 0.0;
    for (uint32_t i : sel) {
      sum_l += wl[i];
      sum_u += wu[i];
    }
    return std::max(0.0, sum_l - sum_u * sum_u);
  };

  const std::vector<uint32_t>* best_sel = &s->rounded;
  double best_value = selection_value(s->rounded);
  for (const auto* sel : {&s->greedy, &s->single}) {
    const double value = selection_value(*sel);
    if (value > best_value) {
      best_value = value;
      best_sel = sel;
    }
  }
  result->lsim = best_value;
  for (uint32_t i : *best_sel) {
    result->chosen_ids.push_back(sets.ids[i]);
  }

  // Coverage of the winning selection: an element is coverable iff some set
  // contains it (empty CSR segment <=> not coverable).
  s->chosen_mask.assign(n, 0);
  for (uint32_t i : *best_sel) s->chosen_mask[i] = 1;
  s->covered.assign(universe_size, 0);
  for (size_t i = 0; i < n; ++i) {
    if (!s->chosen_mask[i]) continue;
    const uint32_t* end = sets.elements + sets.span_end[i];
    for (const uint32_t* e = sets.elements + sets.span_begin[i]; e != end;
         ++e) {
      if (*e < universe_size) s->covered[*e] = 1;
    }
  }
  bool covers = true;
  for (size_t e = 0; e < universe_size; ++e) {
    const bool coverable = s->elem_offsets[e + 1] > s->elem_offsets[e];
    if (coverable && !s->covered[e]) {
      covers = false;
      break;
    }
  }
  result->covered = covers;
}

}  // namespace pgsim
