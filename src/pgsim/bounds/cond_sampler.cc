#include "pgsim/bounds/cond_sampler.h"

#include <algorithm>
#include <cmath>

namespace pgsim {

uint64_t MonteCarloParams::NumSamples() const {
  const double xi_safe = std::clamp(xi, 1e-9, 0.999999);
  const double tau_safe = std::max(tau, 1e-6);
  const double m = 4.0 * std::log(2.0 / xi_safe) / (tau_safe * tau_safe);
  const uint64_t rounded =
      m >= static_cast<double>(max_samples)
          ? max_samples
          : static_cast<uint64_t>(std::llround(std::ceil(m)));
  return std::clamp(rounded, min_samples, max_samples);
}

}  // namespace pgsim
