// Simple concurrent labeling baselines:
//
//  * label_propagation — each round every vertex takes the minimum label in
//    its closed neighbourhood; converges in Theta(d) rounds. The
//    "practitioners implement much simpler algorithms" family from the
//    paper's introduction.
//  * liu_tarjan — Liu–Tarjan (SOSA'19) style {parent-link; shortcut; alter}
//    rounds over a shrinking edge list; O(log n) rounds, and the scheme
//    logcc reuses as its guaranteed-convergent finisher.
#pragma once

#include "baselines/shiloach_vishkin.hpp"

namespace logcc::baselines {

// Zero-copy for CSR-backed datasets; an EdgeList converts implicitly.
BaselineResult label_propagation(const graph::ArcsInput& in);

BaselineResult liu_tarjan(const graph::ArcsInput& in);

}  // namespace logcc::baselines
