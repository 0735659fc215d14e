// Seeded cross-algorithm differential harness.
//
// Over a corpus of a few hundred graphs (every generator family x several
// sizes x seeds, the structural zoo, and a seeded random-G(n,m) sweep),
// every connected-components algorithm in the library must induce exactly
// the partition of the union-find oracle — through BOTH input paths:
//
//   * the EdgeList path (what the library always had), and
//   * the ArcsInput CSR path (PR 4's zero-copy ingestion: the same graph
//     re-expressed as sorted CSR adjacency, consumed without any
//     intermediate EdgeList).
//
// On top of partition equality, the harness pins the stronger bit-identity
// contract the CSR path is designed around: running any algorithm on a
// CSR-backed ArcsInput produces *bit-identical labels* to running the
// EdgeList path on that CSR's canonical edge order (edge_list_from_csr) —
// i.e. arcs_from_input(csr) is exactly arcs_from_input(edge_list_from_csr),
// so zero-copy is a pure I/O optimization, never a semantic fork. A final
// case drives the real mmap loader (write_binary_csr -> load_dataset_zero_
// copy) to show file-backed views behave like in-memory ones.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/union_find.hpp"
#include "core/connectivity.hpp"
#include "core/faster_cc.hpp"
#include "core/vanilla.hpp"
#include "graph/arcs_input.hpp"
#include "graph/binary_io.hpp"
#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "test_support.hpp"
#include "util/random.hpp"

namespace logcc {
namespace {

// FNV-1a, the same fingerprint cc_bench uses for its determinism verdict.
std::uint64_t fingerprint(const std::vector<graph::VertexId>& labels) {
  std::uint64_t h = 1469598103934665603ULL;
  for (graph::VertexId v : labels) {
    h ^= v;
    h *= 1099511628211ULL;
  }
  return h;
}

struct Case {
  std::string name;
  graph::EdgeList el;
};

// ~230 graphs: 12 families x 3 sizes x 3 seeds (108) + 16 zoo graphs +
// 108 seeded random G(n, m) draws.
std::vector<Case> corpus() {
  std::vector<Case> out;
  for (const std::string& family : graph::family_names()) {
    for (std::uint64_t n : {33ULL, 80ULL, 193ULL}) {
      for (std::uint64_t seed : {1ULL, 5ULL, 11ULL}) {
        Case c;
        c.name = family + ":" + std::to_string(n) + ":" + std::to_string(seed);
        c.el = graph::make_family(family, n, seed);
        out.push_back(std::move(c));
      }
    }
  }
  for (auto& [name, el] : logcc::testing::small_zoo())
    out.push_back({"zoo/" + name, el});
  for (std::uint64_t i = 0; i < 108; ++i) {
    const std::uint64_t n = 2 + util::mix64(0xD1FF, i, 0) % 180;
    const std::uint64_t m = util::mix64(0xD1FF, i, 1) % (3 * n);
    Case c;
    c.name = "gnm/" + std::to_string(n) + "x" + std::to_string(m) + "#" +
             std::to_string(i);
    c.el = graph::make_gnm(n, m, 977 + i);
    out.push_back(std::move(c));
  }
  return out;
}

const std::vector<Algorithm>& cc_algorithms() { return all_algorithms(); }

class DifferentialCc : public ::testing::Test {};

TEST_F(DifferentialCc, EveryAlgorithmMatchesUnionFindOracleOnBothPaths) {
  const auto cases = corpus();
  ASSERT_GE(cases.size(), 200u);
  for (const Case& c : cases) {
    // Oracle: union-find, no code shared with the PRAM algorithms.
    const auto oracle = baselines::union_find_cc(c.el).labels;
    // CSR re-expression of the same graph (parallel edges / self-loops
    // preserved, exactly the on-disk conventions).
    const graph::Graph g = graph::Graph::from_edges(c.el, /*dedup=*/false);
    const graph::ArcsInput csr_in = graph::ArcsInput::from_csr(csr_view(g));
    ASSERT_EQ(csr_in.num_edges(), c.el.edges.size()) << c.name;

    for (Algorithm alg : cc_algorithms()) {
      Options opt;
      opt.seed = 1 + fingerprint(oracle) % 97;
      const auto via_el = connected_components(c.el, alg, opt);
      ASSERT_TRUE(graph::same_partition(oracle, via_el.labels()))
          << c.name << " alg=" << to_string(alg) << " (EdgeList path)";
      const auto via_csr = connected_components(csr_in, alg, opt);
      ASSERT_TRUE(graph::same_partition(oracle, via_csr.labels()))
          << c.name << " alg=" << to_string(alg) << " (ArcsInput CSR path)";
    }
  }
}

TEST_F(DifferentialCc, CsrPathIsBitIdenticalToCanonicalEdgeListPath) {
  // The CSR path must not merely agree up to partition: it must produce the
  // same bytes as materialize-then-run. A thinned corpus keeps this under a
  // second while still covering every family and the random sweep's tail.
  const auto cases = corpus();
  std::size_t covered = 0;
  for (std::size_t i = 0; i < cases.size(); i += 3) {
    const Case& c = cases[i];
    const graph::Graph g = graph::Graph::from_edges(c.el, /*dedup=*/false);
    const graph::CsrView view = csr_view(g);
    const graph::ArcsInput csr_in = graph::ArcsInput::from_csr(view);
    const graph::EdgeList canon = graph::edge_list_from_csr(view);
    for (Algorithm alg : cc_algorithms()) {
      Options opt;
      opt.seed = 42 + i;
      const auto a = connected_components(csr_in, alg, opt);
      const auto b = connected_components(canon, alg, opt);
      ASSERT_EQ(a.labels(), b.labels())
          << c.name << " alg=" << to_string(alg)
          << ": CSR-native labels diverge from the canonical EdgeList run";
      // ComponentIndex equality covers labels, sizes, and count at once.
      ASSERT_TRUE(a.index == b.index) << c.name << " alg=" << to_string(alg);
      ASSERT_EQ(fingerprint(a.labels()), fingerprint(b.labels()));
    }
    ++covered;
  }
  EXPECT_GE(covered, 60u);
}

TEST_F(DifferentialCc, SpanningForestAgreesAcrossPathsOnCanonicalOrder) {
  const auto cases = corpus();
  for (std::size_t i = 0; i < cases.size(); i += 7) {
    const Case& c = cases[i];
    const graph::Graph g = graph::Graph::from_edges(c.el, /*dedup=*/false);
    const graph::CsrView view = csr_view(g);
    const graph::ArcsInput csr_in = graph::ArcsInput::from_csr(view);
    const graph::EdgeList canon = graph::edge_list_from_csr(view);
    Options opt;
    opt.seed = 7 + i;
    for (SfAlgorithm alg : {SfAlgorithm::kTheorem2, SfAlgorithm::kVanillaSF}) {
      const auto a = spanning_forest(csr_in, alg, opt);
      const auto b = spanning_forest(canon, alg, opt);
      ASSERT_EQ(a.forest_edges, b.forest_edges)
          << c.name << ": forest edge indices diverge across input paths";
      const auto check = graph::validate_spanning_forest(canon, a.forest_edges);
      ASSERT_TRUE(check.ok) << c.name << ": " << check.error;
    }
  }
}

TEST_F(DifferentialCc, MmapLoadedFileMatchesInMemoryCsrBitForBit) {
  // End-to-end through the real loader: write a binary CSR file, mmap it
  // back zero-copy, and require the file-backed ArcsInput to reproduce the
  // in-memory CSR run exactly (which the previous test tied to the
  // EdgeList path).
  const std::string path =
      ::testing::TempDir() + "/differential_roundtrip.logccsr";
  for (std::uint64_t seed : {3ULL, 8ULL}) {
    graph::EdgeList el = graph::make_family("rmat", 150, seed);
    std::string error;
    ASSERT_TRUE(graph::write_binary_csr(path, el, &error)) << error;
    graph::DatasetHandle handle;
    ASSERT_TRUE(graph::load_dataset_zero_copy(path, handle, &error)) << error;
    ASSERT_TRUE(handle.input().csr_backed());
    EXPECT_EQ(handle.info().materialize_seconds, 0.0)
        << "zero-copy load must not materialize an EdgeList";

    const graph::Graph g = graph::Graph::from_edges(el, /*dedup=*/false);
    const graph::ArcsInput mem_in = graph::ArcsInput::from_csr(csr_view(g));
    for (Algorithm alg : cc_algorithms()) {
      Options opt;
      opt.seed = seed;
      const auto from_file = connected_components(handle.input(), alg, opt);
      const auto from_mem = connected_components(mem_in, alg, opt);
      ASSERT_EQ(from_file.labels(), from_mem.labels()) << to_string(alg);
      ASSERT_TRUE(verify_components(handle.input(), from_file.index));
    }
  }
  std::remove(path.c_str());
}

TEST_F(DifferentialCc, WidePathIsBitIdenticalToNarrowPathAcrossCorpus) {
  // The 64-bit instantiation of the core promises more than partition
  // agreement: on every graph that fits both widths, wide labels equal the
  // narrow labels VALUE FOR VALUE — same coins, same tie-breaks, same dedup
  // survivor order. A thinned corpus keeps every family and the random
  // sweep's tail covered.
  const auto cases = corpus();
  std::size_t covered = 0;
  for (std::size_t i = 0; i < cases.size(); i += 3) {
    const Case& c = cases[i];
    graph::EdgeList64 wide_el;
    wide_el.n = c.el.n;
    for (const graph::Edge& e : c.el.edges) wide_el.add(e.u, e.v);
    const graph::ArcsInput64 wide_in =
        graph::ArcsInput64::from_edges(wide_el);
    const graph::ArcsInput narrow_in = graph::ArcsInput::from_edges(c.el);
    const std::uint64_t seed = 1 + util::mix64(0x51DE, i, 0) % 97;

    // Vanilla: one phase loop at both widths — identical coins and
    // MARK-EDGE tie-breaks.
    const auto wv = core::vanilla_cc(wide_in, seed);
    const auto nv = core::vanilla_cc(narrow_in, seed);
    ASSERT_EQ(wv.labels.size(), nv.labels.size()) << c.name;
    for (std::size_t v = 0; v < nv.labels.size(); ++v)
      ASSERT_EQ(wv.labels[v], static_cast<graph::VertexId64>(nv.labels[v]))
          << c.name << " vanilla label diverges at v=" << v;
    ASSERT_EQ(wv.stats.phases, nv.stats.phases) << c.name;

    // Union-find: canonical min-id labels on both widths.
    const auto wu = baselines::union_find_cc(wide_in);
    const auto nu = baselines::union_find_cc(c.el);
    for (std::size_t v = 0; v < nu.labels.size(); ++v)
      ASSERT_EQ(wu.labels[v], static_cast<graph::VertexId64>(nu.labels[v]))
          << c.name << " union-find label diverges at v=" << v;

    // faster-cc: the bridge's delegate branch runs the narrow core, so
    // labels are bit-identical by construction — pin it anyway.
    core::FasterCcParams params;
    params.seed = seed;
    const auto wf = core::faster_cc(wide_in, params);
    const auto nf = core::faster_cc(narrow_in, params);
    for (std::size_t v = 0; v < nf.labels.size(); ++v)
      ASSERT_EQ(wf.labels[v], static_cast<graph::VertexId64>(nf.labels[v]))
          << c.name << " faster-cc label diverges at v=" << v;

    // Forced contract-then-delegate branch (narrow_threshold below the
    // input size): exact labels are allowed to differ, the partition and
    // canonical form are not.
    const auto wb = core::faster_cc(wide_in, params, /*narrow_threshold=*/4);
    const auto& canon_oracle = wu.labels;  // already canonical min-id
    ASSERT_EQ(graph::canonical_labels(wb.labels), canon_oracle)
        << c.name << " bridge path broke the partition";
    ++covered;
  }
  EXPECT_GE(covered, 60u);
}

TEST_F(DifferentialCc, WideCsrPathMatchesWideEdgePathBitForBit) {
  // Wide CSR ingestion (what LOGCCSR2 mmap loads feed) against the wide
  // edge path — the same arcs_from_input identity the narrow harness pins.
  const auto cases = corpus();
  for (std::size_t i = 0; i < cases.size(); i += 7) {
    const Case& c = cases[i];
    graph::EdgeList64 wide_el;
    wide_el.n = c.el.n;
    for (const graph::Edge& e : c.el.edges) wide_el.add(e.u, e.v);
    const graph::Graph64 g =
        graph::Graph64::from_edges(wide_el, /*dedup=*/false);
    const graph::CsrView64 view = csr_view(g);
    const graph::ArcsInput64 csr_in = graph::ArcsInput64::from_csr(view);
    const graph::EdgeList64 canon = graph::edge_list_from_csr(view);
    const graph::ArcsInput64 canon_in =
        graph::ArcsInput64::from_edges(canon);
    const std::uint64_t seed = 42 + i;
    const auto a = core::vanilla_cc(csr_in, seed);
    const auto b = core::vanilla_cc(canon_in, seed);
    ASSERT_EQ(a.labels, b.labels)
        << c.name << ": wide CSR labels diverge from the canonical run";
  }
}

}  // namespace
}  // namespace logcc
