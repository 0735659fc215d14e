#include "core/budget.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace logcc::core {

namespace {
// b^e with overflow clamping at `cap`.
std::uint64_t pow_clamped(double base, double exponent, std::uint64_t cap) {
  double v = std::pow(base, exponent);
  if (!(v < static_cast<double>(cap))) return cap;
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(v));
}
}  // namespace

ParamPolicy ParamPolicy::practical(std::uint64_t n, std::uint64_t m) {
  ParamPolicy p;
  p.budget_cap = std::max<std::uint64_t>(16, util::next_pow2(2 * std::max(n, std::uint64_t{4})));
  p.b1 = std::clamp<std::uint64_t>(m / std::max<std::uint64_t>(n, 1), 4,
                                   p.budget_cap);
  p.growth = 1.5;
  // Calibrated on the F1/A1 workloads: low enough that low-level vertices
  // do not "race" a forced-raising hub, high enough that dense equal-level
  // clusters desynchronise within a few rounds.
  p.raise_coeff = 0.3;
  p.raise_exponent = 0.45;
  p.table_is_sqrt = false;
  return p;
}

std::uint64_t ParamPolicy::budget_for_level(std::uint32_t level) const {
  if (level == 0) return 0;
  // b_ℓ = b1^{growth^{ℓ-1}}, evaluated in log space to avoid overflow.
  double exp_factor = std::pow(growth, static_cast<double>(level - 1));
  double log_b = std::log2(static_cast<double>(std::max<std::uint64_t>(b1, 2))) *
                 exp_factor;
  if (log_b >= 62.0) return budget_cap;
  return std::min<std::uint64_t>(budget_cap,
                                 pow_clamped(2.0, log_b, budget_cap));
}

std::uint32_t ParamPolicy::table_capacity(std::uint64_t budget) const {
  if (budget == 0) return 0;
  std::uint64_t cap = table_is_sqrt
                          ? static_cast<std::uint64_t>(
                                std::sqrt(static_cast<double>(budget)))
                          : budget;
  return static_cast<std::uint32_t>(std::clamp<std::uint64_t>(cap, 2, 1u << 30));
}

double ParamPolicy::raise_probability(std::uint64_t budget) const {
  // Nonzero even at the budget cap: the random raise is what desynchronises
  // equal-level clusters (Lemma 3.8/D.11 — one raised root absorbs its
  // neighbours through the same round's MAXLINK). The Theorem-3 driver keeps
  // its break condition reachable by applying Step (2) only to roots that
  // still have a non-loop edge.
  if (budget <= 1) return 1.0;
  double p = raise_coeff /
             std::pow(static_cast<double>(budget), raise_exponent);
  return std::clamp(p, 0.0, 1.0);
}

std::uint32_t ParamPolicy::saturation_level() const {
  for (std::uint32_t level = 1; level < 256; ++level) {
    if (budget_for_level(level) >= budget_cap) return level;
  }
  return 256;
}

}  // namespace logcc::core
