// Test-only oracle: possible-world enumeration (paper Definition 3,
// Figure 2). Exponential in |E|; ground truth for tiny graphs.

#pragma once

#include <cstdint>
#include <functional>

#include "pgsim/common/bitset.h"
#include "pgsim/common/status.h"
#include "pgsim/prob/probabilistic_graph.h"

namespace pgsim {

/// Enumeration guard rails.
struct WorldEnumOptions {
  /// Refuse graphs with more edges than this (2^max_edges worlds).
  uint32_t max_edges = 24;
  /// Skip worlds of probability exactly zero.
  bool skip_zero_probability = true;
};

/// Invokes `callback(world, Pr(g => world))` for every possible world of `g`.
/// The callback returns false to stop early.
Status EnumerateWorlds(
    const ProbabilisticGraph& g,
    const std::function<bool(const EdgeBitset&, double)>& callback,
    const WorldEnumOptions& options = WorldEnumOptions());

/// Sum of Pr(g => g') over all worlds (should be 1; exposed for tests).
Result<double> TotalWorldProbability(
    const ProbabilisticGraph& g,
    const WorldEnumOptions& options = WorldEnumOptions());

}  // namespace pgsim
