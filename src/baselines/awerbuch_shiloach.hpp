// Awerbuch–Shiloach (1987): the star-based simplification of
// Shiloach–Vishkin; deterministic, O(log n) rounds, ARBITRARY CRCW.
#pragma once

#include "core/metrics.hpp"
#include "graph/arcs_input.hpp"

namespace logcc::baselines {

// Zero-copy for CSR-backed datasets; an EdgeList converts implicitly.
core::CcResult awerbuch_shiloach(const graph::ArcsInput& in);

}  // namespace logcc::baselines
