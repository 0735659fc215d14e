// cc_tool: command-line connected components over graph files — the
// "downstream user" face of the library.
//
//   $ ./examples/cc_tool --input=graph.txt [--algorithm=faster-cc]
//                        [--output=labels.txt] [--forest=forest.txt]
//                        [--seed=1] [--stats]
//   $ ./examples/cc_tool --input=graph.txt --convert=graph.bin
//   $ ./examples/cc_tool --generate=grid:1000000 --convert=grid.bin
//   $ ./examples/cc_tool --generate=rmat:4000000 --sketch
//
// --input accepts a text edge list (optional "n m" header, one "u v" pair
// per line, '#'/'%' comments) or a LOGCCSR1/LOGCCSR2 binary CSR file — the
// format is sniffed from the magic bytes, and binary files are mmap-loaded
// (see docs/FILE_FORMATS.md). With --generate=family:n[:seed] a built-in
// workload is used instead of a file. LOGCCSR2 datasets run on the wide
// (64-bit) execution path: faster-cc, vanilla, and union-find.
//
// --convert writes the input graph as a binary CSR file and exits; generator
// families stream to disk without materializing the edge list, so this is
// the way to build paper-scale (10^7+ edge) datasets for cc_bench. Add
// --wide to emit LOGCCSR2 (required once n or the edge count exceeds
// uint32 — the LOGCCSR1 writer refuses such streams with a pointer here).
//
// --sketch switches to the one-pass approximate tier (src/sketch/): the
// generator edge stream is consumed by sketch::StreamStats — O(n) label
// state plus a few KB of fixed-seed sketches, never the O(m) edge list —
// and the report gives estimated distinct edges, touched vertices,
// component count, and heavy-hitter components, each with its a-priori
// error bar, next to the exact values the label array still provides.
// Generator streams only (a file input would already be materialized).
//
// Output: one label per vertex (min vertex id of its component). With
// --forest, also writes the spanning-forest edges.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <unordered_set>

#include "baselines/union_find.hpp"
#include "core/connectivity.hpp"
#include "core/vanilla.hpp"
#include "graph/binary_io.hpp"
#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "graph/io.hpp"
#include "sketch/stream_stats.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace {

/// Peak resident set in bytes (VmHWM), 0 where /proc is unavailable — the
/// measured side of the sketch tier's memory claim.
std::uint64_t peak_rss_bytes() {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
  }
#endif
  return 0;
}

int run_sketch_mode(const std::string& generate, std::uint64_t seed,
                    int precision, int depth, int width, int heavy) {
  using namespace logcc;

  std::string family;
  std::uint64_t n = 0;
  std::uint64_t gseed = 1;
  if (!graph::parse_generator_spec(generate, family, n, gseed)) {
    std::fprintf(stderr, "cc_tool: bad --generate spec '%s'\n",
                 generate.c_str());
    return 2;
  }
  const graph::FamilyStream fs = graph::make_family_stream(family, n, gseed);
  if (!fs.streams)
    std::fprintf(stderr,
                 "cc_tool: note: family '%s' cannot stream in O(1) state; "
                 "it materializes internally (memory savings void)\n",
                 family.c_str());

  sketch::StreamStatsOptions opt;
  opt.hll_precision = precision;
  opt.cms_depth = static_cast<std::uint32_t>(depth);
  opt.cms_width = static_cast<std::uint32_t>(width);
  opt.heavy_hitters = static_cast<std::uint32_t>(heavy);
  opt.seed = seed;

  util::Timer timer;
  sketch::StreamStats stats(fs.num_vertices, opt);
  // The stream sink is uint64 end-to-end; the sketch tier is 32-bit, and
  // every sketchable family fits (make_family_stream caps enforce it).
  fs.enumerate([&](std::uint64_t u, std::uint64_t v) {
    stats.add_edge(static_cast<graph::VertexId>(u),
                   static_cast<graph::VertexId>(v));
  });
  const sketch::StreamSummary s = stats.finish();
  const double seconds = timer.seconds();

  const double sigma = s.hll_standard_error;
  const double count_err =
      s.exact_components > 0
          ? (s.approx_components - static_cast<double>(s.exact_components)) /
                static_cast<double>(s.exact_components)
          : 0.0;
  std::printf("sketch mode: %s  n=%llu edges=%llu (loops %llu) in %.2fs\n",
              generate.c_str(),
              static_cast<unsigned long long>(s.num_vertices),
              static_cast<unsigned long long>(s.edges),
              static_cast<unsigned long long>(s.self_loops), seconds);
  std::printf("distinct edges   ~ %.0f  (±%.1f%% expected)\n",
              s.distinct_edges, 100.0 * sigma);
  std::printf("touched vertices ~ %.0f  (±%.1f%% expected)\n",
              s.touched_vertices, 100.0 * sigma);
  std::printf("components: exact=%llu  estimate=%.0f  "
              "(observed %+.2f%%, ±%.1f%% expected)\n",
              static_cast<unsigned long long>(s.exact_components),
              s.approx_components, 100.0 * count_err, 100.0 * sigma);
  std::printf("heavy components (top %zu by endpoint mass):\n",
              s.heavy.size());
  for (const auto& h : s.heavy)
    std::printf("  root=%u hot-vertex=%u mass~%llu size=%llu size~%llu\n",
                h.root, h.hot_vertex,
                static_cast<unsigned long long>(h.endpoint_mass),
                static_cast<unsigned long long>(h.exact_size),
                static_cast<unsigned long long>(h.approx_size));

  // The memory story, measured: what this process actually touched vs the
  // edge storage the exact path would have to materialize for this stream.
  const std::uint64_t exact_bytes = s.edges * sizeof(graph::Edge);
  const std::uint64_t rss = peak_rss_bytes();
  std::printf("memory: sketches %llu B + labels %llu B",
              static_cast<unsigned long long>(s.sketch_bytes),
              static_cast<unsigned long long>(s.state_bytes));
  if (rss > 0)
    std::printf(" (peak RSS %.1f MiB)",
                static_cast<double>(rss) / (1024.0 * 1024.0));
  std::printf("; exact edge storage would be %llu B (%.1fx the label "
              "array)\n",
              static_cast<unsigned long long>(exact_bytes),
              s.state_bytes > 0 ? static_cast<double>(exact_bytes) /
                                      static_cast<double>(s.state_bytes)
                                : 0.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace logcc;

  util::Cli cli(argc, argv);
  std::string input = cli.get_string(
      "input", "", "graph file to read (text edge list or LOGCCSR1 binary)");
  std::string generate = cli.get_string(
      "generate", "", "family:n[:seed] built-in workload instead of a file");
  std::string convert = cli.get_string(
      "convert", "",
      "write the input as a binary CSR file here and exit (generator "
      "families stream to disk in O(n) memory)");
  std::string algorithm_name = cli.get_string(
      "algorithm", "faster-cc",
      "faster-cc|theorem1|vanilla|sv|as|label-prop|liu-tarjan|union-find|bfs");
  std::string output = cli.get_string("output", "", "write labels here");
  std::string forest_path =
      cli.get_string("forest", "", "also write spanning-forest edges here");
  std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1, "random seed"));
  bool show_stats = cli.get_flag("stats", "print RunStats metrics");
  bool wide = cli.get_flag(
      "wide",
      "--convert writes LOGCCSR2 (64-bit ids/offsets) instead of LOGCCSR1");
  bool sketch_mode = cli.get_flag(
      "sketch",
      "one-pass approximate tier over a generator stream (needs --generate)");
  int sketch_precision = static_cast<int>(cli.get_int(
      "sketch-precision", 12, "HyperLogLog precision p (m=2^p registers)"));
  int sketch_depth = static_cast<int>(
      cli.get_int("sketch-depth", 4, "count-min rows (delta = e^-depth)"));
  int sketch_width = static_cast<int>(cli.get_int(
      "sketch-width", 1 << 14, "count-min columns (epsilon = e/width)"));
  int sketch_heavy = static_cast<int>(
      cli.get_int("sketch-heavy", 8, "heavy components to report"));
  cli.finish();

  const std::optional<Algorithm> alg = algorithm_from_string(algorithm_name);
  if (!alg) {
    std::fprintf(stderr, "cc_tool: unknown --algorithm '%s'; valid:",
                 algorithm_name.c_str());
    for (Algorithm a : all_algorithms())
      std::fprintf(stderr, " %s", to_string(a));
    std::fprintf(stderr, "\n");
    return 2;
  }

  if (input.empty() && generate.empty()) {
    std::fprintf(stderr, "cc_tool: need --input or --generate (see --help)\n");
    return 2;
  }

  if (sketch_mode) {
    if (generate.empty()) {
      std::fprintf(stderr,
                   "cc_tool: --sketch consumes a generator stream; give "
                   "--generate=family:n[:seed]\n");
      return 2;
    }
    return run_sketch_mode(generate, seed, sketch_precision, sketch_depth,
                           sketch_width, sketch_heavy);
  }

  if (!convert.empty()) {
    std::string error;
    util::Timer timer;
    bool ok;
    if (!generate.empty()) {
      // Parse family:n[:seed] and stream straight to disk. The generator
      // seed defaults to 1 when the spec omits it — the same rule as the
      // run path and cc_bench, so convert-then-run and run-directly always
      // see the same graph (--seed only seeds the algorithm).
      std::string family;
      std::uint64_t n = 0;
      std::uint64_t gseed = 1;
      if (!graph::parse_generator_spec(generate, family, n, gseed)) {
        std::fprintf(stderr, "cc_tool: bad --generate spec '%s'\n",
                     generate.c_str());
        return 2;
      }
      ok = graph::stream_family_to_binary(
          family, n, gseed, convert, &error,
          wide ? graph::BinaryCsrFormat::kWide
               : graph::BinaryCsrFormat::kNarrow);
    } else if (graph::sniff_binary_csr(input)) {
      std::fprintf(stderr, "cc_tool: '%s' is already binary\n", input.c_str());
      return 2;
    } else if (wide) {
      // Text ids always fit LOGCCSR1, but the wide container is still a
      // valid target (e.g. to exercise downstream LOGCCSR2 consumers).
      graph::EdgeList el;
      if (!graph::read_edge_list_file(input, el)) {
        std::fprintf(stderr, "cc_tool: cannot parse '%s'\n", input.c_str());
        return 2;
      }
      ok = graph::write_binary_csr_streaming(
          convert, el.n,
          [&](const graph::EdgeSink& sink) {
            for (const graph::Edge& e : el.edges) sink(e.u, e.v);
          },
          &error, graph::BinaryCsrFormat::kWide);
    } else {
      ok = graph::convert_text_to_binary(input, convert, &error);
    }
    if (!ok) {
      std::fprintf(stderr, "cc_tool: convert failed: %s\n", error.c_str());
      return 2;
    }
    // Re-open and deep-validate what was written before reporting success.
    graph::BinaryGraph bg;
    if (!bg.open(convert, &error) ||
        !(bg.wide() ? graph::validate_csr(bg.view64(), &error)
                    : graph::validate_csr(bg.view(), &error))) {
      std::fprintf(stderr, "cc_tool: converted file fails validation: %s\n",
                   error.c_str());
      return 1;
    }
    const std::uint64_t out_n =
        bg.wide() ? bg.view64().num_vertices() : bg.view().num_vertices();
    const std::uint64_t out_edges =
        bg.wide() ? bg.view64().num_edges() : bg.view().num_edges();
    const std::uint64_t out_arcs =
        bg.wide() ? bg.view64().num_arcs() : bg.view().num_arcs();
    std::printf("wrote %s: %s n=%llu edges=%llu arcs=%llu (%zu bytes, %s) "
                "in %.2fs\n",
                convert.c_str(), bg.wide() ? "LOGCCSR2" : "LOGCCSR1",
                static_cast<unsigned long long>(out_n),
                static_cast<unsigned long long>(out_edges),
                static_cast<unsigned long long>(out_arcs),
                bg.file_bytes(),
                bg.zero_copy() ? "validated via mmap" : "validated via copy",
                timer.seconds());
    return 0;
  }

  // Zero-copy load: binary inputs stay in their mmap'd CSR form and the
  // algorithms ingest them directly (no EdgeList materialization). The
  // handle owns the mmap and must outlive every use of `arcs`.
  graph::DatasetHandle handle;
  std::string error;
  const std::string spec = !generate.empty() ? "gen:" + generate : input;
  if (!graph::load_dataset_zero_copy(spec, handle, &error)) {
    std::fprintf(stderr, "cc_tool: %s\n", error.c_str());
    return 2;
  }
  const graph::DatasetInfo& info = handle.info();

  if (handle.wide()) {
    // LOGCCSR2 datasets run on the 64-bit execution path. The wide entry
    // points cover the three retargeted algorithms; everything else needs
    // the narrow path (and a narrow dataset).
    const graph::ArcsInput64& warcs = handle.input64();
    if (!forest_path.empty()) {
      std::fprintf(stderr,
                   "cc_tool: --forest is not available on the wide path\n");
      return 2;
    }
    util::Timer timer;
    core::CcResult64 wr;
    if (algorithm_name == "faster-cc") {
      core::FasterCcParams params;
      params.seed = seed;
      wr = core::faster_cc(warcs, params);
    } else if (algorithm_name == "vanilla") {
      wr = core::vanilla_cc(warcs, seed);
    } else if (algorithm_name == "union-find") {
      wr = baselines::union_find_cc(warcs);
    } else {
      std::fprintf(stderr,
                   "cc_tool: algorithm '%s' is not available on the wide "
                   "(LOGCCSR2) path; use faster-cc, vanilla, or union-find\n",
                   algorithm_name.c_str());
      return 2;
    }
    const double seconds = timer.seconds();
    // Same published form as the narrow path's ComponentIndex.
    wr.labels = graph::canonical_labels(wr.labels);
    std::unordered_set<graph::VertexId64> roots(wr.labels.begin(),
                                                wr.labels.end());
    const std::uint64_t components = roots.size();
    std::printf("n=%llu m=%llu components=%llu algorithm=%s time=%.1fms "
                "(loaded via %s in %.1fms, csr-native, wide)\n",
                static_cast<unsigned long long>(warcs.num_vertices()),
                static_cast<unsigned long long>(warcs.num_edges()),
                static_cast<unsigned long long>(components),
                algorithm_name.c_str(), seconds * 1e3, info.source.c_str(),
                info.load_seconds * 1e3);
    if (show_stats) {
      std::printf("rounds=%llu phases=%llu pram-steps=%llu\n",
                  static_cast<unsigned long long>(wr.stats.rounds),
                  static_cast<unsigned long long>(wr.stats.phases),
                  static_cast<unsigned long long>(wr.stats.pram_steps));
    }
    if (!output.empty()) {
      std::ofstream os(output);
      if (!os) {
        std::fprintf(stderr, "cc_tool: cannot write '%s'\n", output.c_str());
        return 2;
      }
      for (graph::VertexId64 label : wr.labels) os << label << '\n';
    }
    return 0;
  }

  const graph::ArcsInput& arcs = handle.input();

  Options opt;
  opt.seed = seed;
  auto r = connected_components(arcs, *alg, opt);

  std::printf("n=%llu m=%llu components=%llu algorithm=%s time=%.1fms "
              "(loaded via %s in %.1fms%s)\n",
              static_cast<unsigned long long>(arcs.num_vertices()),
              static_cast<unsigned long long>(arcs.num_edges()),
              static_cast<unsigned long long>(r.num_components()),
              to_string(*alg), r.seconds * 1e3, info.source.c_str(),
              info.load_seconds * 1e3,
              arcs.csr_backed() ? ", csr-native" : "");
  if (show_stats) {
    std::printf("rounds=%llu phases=%llu prepare=%llu expand-rounds=%llu "
                "max-level=%u peak-space=%llu finisher=%s\n",
                static_cast<unsigned long long>(r.stats.rounds),
                static_cast<unsigned long long>(r.stats.phases),
                static_cast<unsigned long long>(r.stats.prepare_phases),
                static_cast<unsigned long long>(r.stats.expand_rounds),
                r.stats.max_level,
                static_cast<unsigned long long>(r.stats.peak_space_words),
                r.stats.finisher_used ? "yes" : "no");
  }

  if (!output.empty()) {
    std::ofstream os(output);
    if (!os) {
      std::fprintf(stderr, "cc_tool: cannot write '%s'\n", output.c_str());
      return 2;
    }
    for (graph::VertexId label : r.labels()) os << label << '\n';
  }

  if (!forest_path.empty()) {
    auto f = spanning_forest(arcs, SfAlgorithm::kTheorem2, opt);
    // Forest output needs indexed edge endpoints; materialize the canonical
    // edge list just for this step (the CC run above stayed zero-copy).
    const graph::EdgeList& el = handle.edges();
    auto check = graph::validate_spanning_forest(el, f.forest_edges);
    if (!check.ok) {
      std::fprintf(stderr, "cc_tool: forest validation failed: %s\n",
                   check.error.c_str());
      return 1;
    }
    std::ofstream os(forest_path);
    if (!os) {
      std::fprintf(stderr, "cc_tool: cannot write '%s'\n",
                   forest_path.c_str());
      return 2;
    }
    for (std::uint64_t idx : f.forest_edges)
      os << el.edges[idx].u << ' ' << el.edges[idx].v << '\n';
    std::printf("forest: %llu edges -> %s\n",
                static_cast<unsigned long long>(f.forest_edges.size()),
                forest_path.c_str());
  }
  return 0;
}
