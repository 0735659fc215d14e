// The Liu–Tarjan (SOSA'19) family of simple concurrent labeling algorithms —
// the framework §2.2 of the paper builds on. An algorithm is a per-round
// composition of:
//
//   connect ∈ { D  direct-connect:   root v adopts the smallest neighbour,
//               P  parent-connect:   v's *parent* adopts the smallest
//                                    neighbour parent,
//               E  extended-connect: like P but also offers the neighbour's
//                                    grandparent }
//   shortcut ∈ { S single SHORTCUT step, F flatten (repeat to fixpoint) }
//   optional A: ALTER the edge list to parents afterwards.
//
// All connects resolve concurrent writes by minimum (COMBINING-min CRCW —
// also a correct ARBITRARY-model outcome since min is one of the written
// values); labels only decrease, so every variant is monotone and
// terminates. Round counts vary: E+F converges fastest, D+S slowest — the
// lt-family bench quantifies this.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "graph/arcs_input.hpp"

namespace logcc::baselines {

enum class LtConnect { kDirect, kParent, kExtended };
enum class LtShortcut { kSingle, kFull };

struct LtVariant {
  LtConnect connect = LtConnect::kParent;
  LtShortcut shortcut = LtShortcut::kSingle;
  bool alter = true;

  std::string name() const;
};

/// The 10 *correct* variants, for sweeps. Direct-connect without ALTER is
/// excluded: a cross edge between two non-roots never triggers a connect, so
/// D-S / D-F can reach a flat fixpoint with unmerged components — one of
/// LT'19's negative results, demonstrated by
/// LtFamily.DirectWithoutAlterCanStall.
std::vector<LtVariant> lt_all_variants();

/// The two known-incomplete combinations (D without A), kept constructible
/// so the negative result stays testable.
std::vector<LtVariant> lt_incorrect_variants();

/// Runs one LT variant. The ArcsInput overload is the real entry point:
/// every connect/alter round sweeps the edges with a blocked parallel pass
/// (min-combining offers through atomic_min — order-independent, so labels,
/// per-round change flags, and hence round counts are bit-identical to the
/// historical serial sweep for every thread count). Variants without ALTER
/// sweep the input's own storage every round — zero-copy for CSR-backed
/// (mmap) datasets; variants with ALTER materialize their shrinking
/// working list on the first round.
core::CcResult liu_tarjan_variant(const graph::ArcsInput& in,
                                  const LtVariant& variant);

}  // namespace logcc::baselines
