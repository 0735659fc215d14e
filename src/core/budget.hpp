// Levels and budgets (§3.1/§D.1): the parameter policy of EXPAND-MAXLINK.
//
// The paper's constants: a level-ℓ root owns a block of size
// b_ℓ = b_1^{1.01^{ℓ-1}} with b_1 = max{m/n, log^c n}/log² n, c = 200,
// raise probability 10·log n / b^{0.1}, and a table of √b entries. They only
// separate for astronomically large n: log^200 n overflows every feasible
// m/n, so b_1 would sit at the cap from the start and no level could grow.
// ParamPolicy::practical keeps the *structure* — double-exponential budget
// growth (1.5 standing in for 1.01), a polynomially small raise probability
// (0.3 / b^{0.45} standing in for 10·log n / b^{0.1}), b_1 = m/n without the
// log^c n floor, and a table of b entries instead of √b — with exponents
// calibrated so the behaviour is observable at laptop scale. Every field
// stays settable, so an ablation can put any of the paper's shapes back one
// at a time. The substitution cannot change an answer: levels and budgets
// only steer how fast roots merge, and every Theorem-3 run ends in
// Theorem 1's phase loop, whose deterministic finisher takes over if its
// budget runs out. So the policy moves round counts and space, never the
// partition the labels describe.
#pragma once

#include <cstdint>

#include "util/bitutil.hpp"

namespace logcc::core {

struct ParamPolicy {
  std::uint64_t b1 = 4;          // level-1 budget
  double growth = 1.5;           // b_{ℓ+1} = b_ℓ^growth
  double raise_coeff = 1.0;      // raise prob = raise_coeff / b^raise_exp
  double raise_exponent = 0.3;
  std::uint64_t budget_cap = 1ULL << 20;  // blocks never exceed this
  bool table_is_sqrt = false;    // |H(v)| = sqrt(b) (paper) or b
  /// MAXLINK iterations per invocation. The paper uses exactly 2 (one is
  /// not enough for Lemma 3.21's two-hop argument); ablation A1 measures
  /// what 1 or 3 do.
  std::uint32_t maxlink_iterations = 2;

  /// Calibrated for observable behaviour at n up to ~1e7.
  static ParamPolicy practical(std::uint64_t n, std::uint64_t m);

  /// b_ℓ for ℓ >= 1, capped. Level 0 (non-root bookkeeping) returns 0.
  std::uint64_t budget_for_level(std::uint32_t level) const;

  /// Capacity of the table H(v) carved out of a block of size `budget`.
  std::uint32_t table_capacity(std::uint64_t budget) const;

  /// Step (2) probability for a root with budget b.
  double raise_probability(std::uint64_t budget) const;

  /// Smallest level whose budget reaches the cap — the practical analogue of
  /// the paper's maximal level L (Lemma 3.19/D.23).
  std::uint32_t saturation_level() const;
};

}  // namespace logcc::core
