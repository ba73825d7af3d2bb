#include "pgsim/query/set_cover.h"

#include <limits>

namespace pgsim {

void GreedyWeightedSetCover(size_t universe_size, const WeightedSetsView& sets,
                            SetCoverScratch* scratch, SetCoverResult* result) {
  const size_t num_sets = sets.num_sets;
  result->chosen_ids.clear();
  result->total_weight = 0.0;
  scratch->covered.assign(universe_size, 0);
  scratch->used.assign(num_sets, 0);
  std::vector<char>& covered = scratch->covered;
  std::vector<char>& used = scratch->used;
  size_t num_covered = 0;

  while (num_covered < universe_size) {
    // gamma(s) = w(s) / |s - A|; pick the minimizer (Algorithm 1 line 3-4).
    double best_gamma = std::numeric_limits<double>::infinity();
    size_t best_index = num_sets;
    size_t best_new = 0;
    for (size_t i = 0; i < num_sets; ++i) {
      if (used[i]) continue;
      size_t fresh = 0;
      const uint32_t* end = sets.elements + sets.span_end[i];
      for (const uint32_t* e = sets.elements + sets.span_begin[i]; e != end;
           ++e) {
        if (*e < universe_size && !covered[*e]) ++fresh;
      }
      if (fresh == 0) continue;
      const double gamma = sets.weights[i] / static_cast<double>(fresh);
      if (gamma < best_gamma) {
        best_gamma = gamma;
        best_index = i;
        best_new = fresh;
      }
    }
    if (best_index == num_sets) break;  // nothing adds coverage
    used[best_index] = 1;
    result->chosen_ids.push_back(sets.ids[best_index]);
    result->total_weight += sets.weights[best_index];
    num_covered += best_new;
    const uint32_t* end = sets.elements + sets.span_end[best_index];
    for (const uint32_t* e = sets.elements + sets.span_begin[best_index];
         e != end; ++e) {
      if (*e < universe_size) covered[*e] = 1;
    }
  }
  result->covered = (num_covered == universe_size);
  result->num_uncovered = static_cast<uint32_t>(universe_size - num_covered);
}

}  // namespace pgsim
