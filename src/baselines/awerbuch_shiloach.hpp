// Awerbuch–Shiloach (1987): the star-based simplification of
// Shiloach–Vishkin; deterministic, O(log n) rounds, ARBITRARY CRCW.
#pragma once

#include "baselines/shiloach_vishkin.hpp"

namespace logcc::baselines {

// Zero-copy for CSR-backed datasets; an EdgeList converts implicitly.
BaselineResult awerbuch_shiloach(const graph::ArcsInput& in);

}  // namespace logcc::baselines
