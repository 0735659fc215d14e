// Simple concurrent labeling baselines:
//
//  * label_propagation — each round every vertex takes the minimum label in
//    its closed neighbourhood; converges in Theta(d) rounds. The
//    "practitioners implement much simpler algorithms" family from the
//    paper's introduction.
//  * liu_tarjan — Liu–Tarjan (SOSA'19) style {parent-link; shortcut; alter}
//    rounds over a shrinking edge list, and the scheme logcc reuses as its
//    guaranteed-convergent finisher. Unlike the other round-loop baselines
//    it is not synchronous: its hooks and its shortcut update the parent
//    array in place, one vertex after another, so work cascades along
//    chains within a round (the path compression shiloach_vishkin.cpp
//    rules out). On grid:1M it takes 2 rounds where the synchronous P-S-A
//    variant of the Liu–Tarjan lab (baselines/lt_family.hpp) takes 12, with
//    identical labels. Its `rounds` are therefore sequential sweeps, not
//    PRAM rounds; the lab variants are the PRAM-faithful renderings.
#pragma once

#include "core/metrics.hpp"
#include "graph/arcs_input.hpp"

namespace logcc::baselines {

// Zero-copy for CSR-backed datasets; an EdgeList converts implicitly.
core::CcResult label_propagation(const graph::ArcsInput& in);

core::CcResult liu_tarjan(const graph::ArcsInput& in);

}  // namespace logcc::baselines
