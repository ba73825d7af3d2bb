#include "oracles/possible_world.h"

#include <string>

namespace pgsim {

Status EnumerateWorlds(
    const ProbabilisticGraph& g,
    const std::function<bool(const EdgeBitset&, double)>& callback,
    const WorldEnumOptions& options) {
  const uint32_t m = g.NumEdges();
  if (m > options.max_edges) {
    return Status::OutOfRange(
        "EnumerateWorlds: graph has " + std::to_string(m) +
        " edges, above the 2^" + std::to_string(options.max_edges) +
        " world enumeration guard");
  }
  const uint64_t num_worlds = 1ULL << m;
  for (uint64_t mask = 0; mask < num_worlds; ++mask) {
    EdgeBitset world(m);
    for (uint32_t e = 0; e < m; ++e) {
      if ((mask >> e) & 1ULL) world.Set(e);
    }
    const double p = g.WorldProbability(world);
    if (options.skip_zero_probability && p == 0.0) continue;
    if (!callback(world, p)) break;
  }
  return Status::OK();
}

Result<double> TotalWorldProbability(const ProbabilisticGraph& g,
                                     const WorldEnumOptions& options) {
  double total = 0.0;
  WorldEnumOptions opts = options;
  opts.skip_zero_probability = false;
  PGSIM_RETURN_NOT_OK(EnumerateWorlds(
      g,
      [&](const EdgeBitset&, double p) {
        total += p;
        return true;
      },
      opts));
  return total;
}

}  // namespace pgsim
