#include "graph/binary_io.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/parallel.hpp"
#include "util/scan.hpp"
#include "util/timer.hpp"

namespace logcc::graph {

namespace {

void set_error(std::string* error, const std::string& msg) {
  if (error) *error = msg;
}

std::uint32_t byteswap32(std::uint32_t x) {
  return ((x & 0xFFu) << 24) | ((x & 0xFF00u) << 8) | ((x >> 8) & 0xFF00u) |
         (x >> 24);
}

// A header's offsets array starts right after the fixed header; the arc
// array right after the offsets. Both are naturally aligned: the mapping is
// page-aligned, the header is 64 bytes, and (n+1)*8 keeps 4-byte (v1) /
// 8-byte (v2) alignment.
constexpr std::size_t kHeaderBytes = sizeof(BinaryCsrHeader);

std::string basename_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

constexpr std::uint64_t kNarrowCap = std::numeric_limits<std::uint32_t>::max();

// Shared two-pass writer core: A is the on-disk arc width (uint32 for
// LOGCCSR1, uint64 for LOGCCSR2). The count caps for the chosen format have
// already been checked by the entry point.
template <typename A>
bool write_csr_streaming_impl(const std::string& path, std::uint64_t n,
                              std::uint64_t edges, std::uint64_t arcs,
                              std::vector<std::uint64_t>& cursor,
                              const EdgeEnumerator& enumerate,
                              std::string* error) {
  const std::uint64_t file_size =
      kHeaderBytes + (n + 1) * 8 + arcs * sizeof(A);
  util::MmapFile map = util::MmapFile::create_rw(
      path, static_cast<std::size_t>(file_size), error);
  if (!map.valid()) return false;

  std::uint8_t* base = map.mutable_data();
  BinaryCsrHeader h{};
  if constexpr (sizeof(A) == 4) {
    std::memcpy(h.magic, kBinaryCsrMagic, sizeof(h.magic));
    h.version = kBinaryCsrVersion;
  } else {
    std::memcpy(h.magic, kBinaryCsrMagicV2, sizeof(h.magic));
    h.version = kBinaryCsrVersionV2;
  }
  h.endian = kEndianTag;
  h.n = n;
  h.num_arcs = arcs;
  h.num_edges = edges;
  std::memcpy(base, &h, kHeaderBytes);

  auto* offsets = reinterpret_cast<std::uint64_t*>(base + kHeaderBytes);
  auto* adj = reinterpret_cast<A*>(base + kHeaderBytes + (n + 1) * 8);
  std::uint64_t run = 0;
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::uint64_t deg = cursor[v];
    offsets[v] = run;
    cursor[v] = run;  // becomes the scatter cursor for pass 2
    run += deg;
  }
  offsets[n] = run;

  // Pass 2: scatter arcs straight into the mapping. A cursor passing its
  // vertex's segment end means the enumerator did not replay the same
  // sequence — fail instead of corrupting the file.
  bool replay_mismatch = false;
  std::uint64_t edges2 = 0;
  enumerate([&](std::uint64_t u, std::uint64_t v) {
    if (u >= n || v >= n) {
      replay_mismatch = true;
      return;
    }
    ++edges2;
    if (cursor[u] >= offsets[u + 1] ||
        (u != v && cursor[v] >= offsets[v + 1])) {
      replay_mismatch = true;
      return;
    }
    adj[cursor[u]++] = static_cast<A>(v);
    if (u != v) adj[cursor[v]++] = static_cast<A>(u);
  });
  // On any failure past create_rw, remove the half-written file: it already
  // carries a valid magic + header, so leaving it behind would let a later
  // sniff/open accept garbage adjacency as a real dataset.
  auto discard = [&map, &path] {
    map.reset();
    std::remove(path.c_str());
  };
  if (replay_mismatch || edges2 != edges) {
    discard();
    set_error(error, "edge enumerator did not replay the same sequence");
    return false;
  }

  // Canonical form: each neighbor list sorted ascending, independent of
  // enumeration order (and of thread count — the segments are disjoint).
  util::parallel_for(0, n, [&](std::size_t v) {
    std::sort(adj + offsets[v], adj + offsets[v + 1]);
  });
  if (!map.sync()) {
    discard();
    set_error(error, "msync failed for '" + path + "'");
    return false;
  }
  return true;
}

}  // namespace

bool write_binary_csr_streaming(const std::string& path, std::uint64_t n,
                                const EdgeEnumerator& enumerate,
                                std::string* error, BinaryCsrFormat format) {
  // Strict bounds, checked on the full 64-bit values before any output file
  // exists. Narrow: ids are < n, and id 0xFFFFFFFF is kInvalidVertex — a
  // sentinel the algorithms compare against — so it must never be a real
  // vertex. Wide: same rule one width up.
  if (format == BinaryCsrFormat::kNarrow && n > kNarrowCap) {
    set_error(error,
              "vertex count " + std::to_string(n) +
                  " exceeds the 32-bit id space of LOGCCSR1; use the "
                  "LOGCCSR2 (wide) format");
    return false;
  }
  if (n == std::numeric_limits<std::uint64_t>::max()) {
    set_error(error, "vertex count exceeds the 64-bit id space");
    return false;
  }
  // Pass 1: degree count. O(n) memory — this is the whole point of the
  // streaming writer; the edge list itself never exists in memory. Degrees
  // and the arc total stay uint64 throughout: one vertex's degree (and
  // certainly the 2*edges arc total) can exceed uint32 even for files that
  // satisfy the v1 edge cap.
  std::vector<std::uint64_t> cursor(n, 0);
  std::uint64_t edges = 0;
  bool out_of_range = false;
  enumerate([&](std::uint64_t u, std::uint64_t v) {
    if (u >= n || v >= n) {
      out_of_range = true;
      return;
    }
    ++edges;
    ++cursor[u];
    if (u != v) ++cursor[v];
  });
  if (out_of_range) {
    set_error(error, "edge endpoint out of range for n");
    return false;
  }
  // The narrow format's other 64-bit cap: `orig` edge indices are dense
  // uint32 on the 32-bit execution path. Rejecting here (before the file is
  // created) is what makes the failure actionable — the old behavior wrote
  // a well-formed v1 file that every later load refused.
  if (format == BinaryCsrFormat::kNarrow && edges > kNarrowCap) {
    set_error(error,
              "edge count " + std::to_string(edges) +
                  " exceeds the 32-bit edge-index space of LOGCCSR1; use "
                  "the LOGCCSR2 (wide) format");
    return false;
  }
  std::uint64_t arcs = 0;
  for (std::uint64_t v = 0; v < n; ++v) arcs += cursor[v];

  if (format == BinaryCsrFormat::kNarrow)
    return write_csr_streaming_impl<std::uint32_t>(path, n, edges, arcs,
                                                   cursor, enumerate, error);
  return write_csr_streaming_impl<std::uint64_t>(path, n, edges, arcs,
                                                 cursor, enumerate, error);
}

bool write_binary_csr(const std::string& path, const EdgeList& el,
                      std::string* error) {
  return write_binary_csr_streaming(
      path, el.n,
      [&el](const EdgeSink& sink) {
        for (const Edge& e : el.edges) sink(e.u, e.v);
      },
      error, BinaryCsrFormat::kNarrow);
}

bool write_binary_csr(const std::string& path, const EdgeList64& el,
                      std::string* error) {
  return write_binary_csr_streaming(
      path, el.n,
      [&el](const EdgeSink& sink) {
        for (const Edge64& e : el.edges) sink(e.u, e.v);
      },
      error, BinaryCsrFormat::kWide);
}

bool stream_family_to_binary(const std::string& family, std::uint64_t n,
                             std::uint64_t seed, const std::string& path,
                             std::string* error, BinaryCsrFormat format) {
  FamilyStream fs = make_family_stream(family, n, seed);
  return write_binary_csr_streaming(path, fs.num_vertices, fs.enumerate,
                                    error, format);
}

bool convert_text_to_binary(const std::string& text_path,
                            const std::string& bin_path, std::string* error) {
  EdgeList el;
  if (!read_edge_list_file(text_path, el)) {
    set_error(error, "cannot parse text edge list '" + text_path + "'");
    return false;
  }
  return write_binary_csr(bin_path, el, error);
}

bool sniff_binary_csr(const std::string& path) {
  std::FILE* fp = std::fopen(path.c_str(), "rb");
  if (!fp) return false;
  char magic[8];
  const bool got = std::fread(magic, 1, sizeof(magic), fp) == sizeof(magic);
  std::fclose(fp);
  return got &&
         (std::memcmp(magic, kBinaryCsrMagic, sizeof(magic)) == 0 ||
          std::memcmp(magic, kBinaryCsrMagicV2, sizeof(magic)) == 0);
}

bool BinaryGraph::open(const std::string& path, std::string* error,
                       util::MmapPopulate populate) {
  // min_size: reject header-truncated files before mapping them at all.
  map_ = util::MmapFile::open_read(path, error, populate, kHeaderBytes);
  view_ = CsrView{};
  view64_ = CsrView64{};
  wide_ = false;
  if (!map_.valid()) return false;
  if (map_.size() < kHeaderBytes) {
    set_error(error, "truncated file: smaller than the 64-byte header");
    return false;
  }
  BinaryCsrHeader h;
  std::memcpy(&h, map_.data(), kHeaderBytes);
  const bool v1 = std::memcmp(h.magic, kBinaryCsrMagic, sizeof(h.magic)) == 0;
  const bool v2 =
      std::memcmp(h.magic, kBinaryCsrMagicV2, sizeof(h.magic)) == 0;
  if (!v1 && !v2) {
    set_error(error, "bad magic: not a LOGCCSR1/LOGCCSR2 file");
    return false;
  }
  if (h.endian == byteswap32(kEndianTag)) {
    set_error(error, "foreign-endian file (written on an incompatible host)");
    return false;
  }
  if (h.endian != kEndianTag) {
    set_error(error, "corrupt endianness tag");
    return false;
  }
  // The magic IS the format: a v2-magic file whose version field says 1 (or
  // anything else) is a chimera, not a v1 file that happens to start with
  // the wrong string.
  const std::uint32_t want_version = v1 ? kBinaryCsrVersion : kBinaryCsrVersionV2;
  if (h.version != want_version) {
    set_error(error, "unsupported format version " + std::to_string(h.version) +
                         (v1 ? " for LOGCCSR1" : " for LOGCCSR2"));
    return false;
  }
  // Count caps, straight off the 64-bit header fields — before the size
  // arithmetic and long before anything narrows. For v1 both n and the
  // edge count must fit uint32 (id 0xFFFFFFFF is the kInvalidVertex
  // sentinel and `orig` edge indices are dense uint32); a violating file
  // gets an error that names the fix. For v2 only the one-below-sentinel
  // rule applies.
  if (v1) {
    if (h.n > kNarrowCap) {
      set_error(error,
                "vertex count " + std::to_string(h.n) +
                    " exceeds the 32-bit id space of LOGCCSR1 (convert to "
                    "LOGCCSR2 for wide graphs)");
      return false;
    }
    if (h.num_edges > kNarrowCap) {
      set_error(error,
                "edge count " + std::to_string(h.num_edges) +
                    " exceeds the 32-bit edge-index space of LOGCCSR1 "
                    "(convert to LOGCCSR2 for wide graphs)");
      return false;
    }
  } else if (h.n == std::numeric_limits<std::uint64_t>::max()) {
    set_error(error, "vertex count exceeds the 64-bit id space");
    return false;
  }
  // 128-bit arithmetic: a corrupt num_arcs must not wrap the expected size
  // back onto the real file size and sneak past this check.
  const std::size_t arc_width = v1 ? sizeof(std::uint32_t) : sizeof(std::uint64_t);
  const unsigned __int128 expected =
      static_cast<unsigned __int128>(kHeaderBytes) +
      static_cast<unsigned __int128>(h.n + 1) * 8 +
      static_cast<unsigned __int128>(h.num_arcs) * arc_width;
  if (expected != static_cast<unsigned __int128>(map_.size())) {
    set_error(error, "file size mismatch: header (n=" + std::to_string(h.n) +
                         ", arcs=" + std::to_string(h.num_arcs) +
                         ") does not fit the " + std::to_string(map_.size()) +
                         "-byte file");
    return false;
  }
  const auto* offsets =
      reinterpret_cast<const std::uint64_t*>(map_.data() + kHeaderBytes);
  if (offsets[0] != 0 || offsets[h.n] != h.num_arcs) {
    set_error(error, "corrupt offsets envelope");
    return false;
  }
  const std::uint8_t* adj_base = map_.data() + kHeaderBytes + (h.n + 1) * 8;
  if (v1) {
    view_.n = h.n;
    view_.edges = h.num_edges;
    view_.offsets = offsets;
    view_.adj = reinterpret_cast<const VertexId*>(adj_base);
  } else {
    wide_ = true;
    view64_.n = h.n;
    view64_.edges = h.num_edges;
    view64_.offsets = offsets;
    view64_.adj = reinterpret_cast<const VertexId64*>(adj_base);
  }
  return true;
}

namespace {

template <typename V>
bool validate_csr_structure_impl(const BasicCsrView<V>& v,
                                 std::string* error) {
  const std::uint64_t n = v.n;
  // Monotonicity first, alone: neighbors(u) computes a span from
  // offsets[u]..offsets[u+1], so the other checks may only run once every
  // segment is known to be well-formed and within the arc array.
  const bool monotone = util::parallel_reduce(
      std::size_t{0}, static_cast<std::size_t>(n), true,
      [&](std::size_t u) {
        return v.offsets[u] <= v.offsets[u + 1] &&
               v.offsets[u + 1] <= v.offsets[n];
      },
      [](bool a, bool b) { return a && b; });
  if (!monotone) {
    set_error(error, "offsets not monotone");
    return false;
  }
  const bool shape_ok = util::parallel_reduce(
      std::size_t{0}, static_cast<std::size_t>(n), true,
      [&](std::size_t u) {
        auto nb = v.neighbors(static_cast<V>(u));
        if (!std::is_sorted(nb.begin(), nb.end())) return false;
        for (V w : nb)
          if (w >= n) return false;
        return true;
      },
      [](bool a, bool b) { return a && b; });
  if (!shape_ok) {
    set_error(error, "adjacency list unsorted or id out of range");
    return false;
  }
  return true;
}

template <typename V>
bool validate_csr_impl(const BasicCsrView<V>& v, std::string* error) {
  if (!validate_csr_structure_impl(v, error)) return false;
  const std::uint64_t n = v.n;
  // Arc symmetry with *multiplicity*: for every distinct neighbor w of u,
  // the number of (u, w) arcs must equal the number of (w, u) arcs — a
  // membership-only check would accept e.g. adj(0)=[1,1,1], adj(1)=[0],
  // whose canonical edge enumeration then disagrees with the header count
  // (and with everything sized from it). Lists are sorted, so runs and
  // equal_range do it in O(m log deg). Self-loops are their own reverse.
  const bool symmetric = util::parallel_reduce(
      std::size_t{0}, static_cast<std::size_t>(n), true,
      [&](std::size_t u) {
        auto nb = v.neighbors(static_cast<V>(u));
        for (std::size_t i = 0; i < nb.size();) {
          const V w = nb[i];
          std::size_t j = i;
          while (j < nb.size() && nb[j] == w) ++j;  // multiplicity at u
          if (w != static_cast<V>(u)) {
            auto back = v.neighbors(w);
            auto range =
                std::equal_range(back.begin(), back.end(), static_cast<V>(u));
            if (static_cast<std::size_t>(range.second - range.first) != j - i)
              return false;
          }
          i = j;
        }
        return true;
      },
      [](bool a, bool b) { return a && b; });
  if (!symmetric) {
    set_error(error,
              "asymmetric adjacency: arc multiplicities disagree between "
              "endpoint lists");
    return false;
  }
  // Self-loop count (sums commute: thread-count-invariant reduction).
  const std::uint64_t self_loops = util::parallel_reduce(
      std::size_t{0}, static_cast<std::size_t>(n), std::uint64_t{0},
      [&](std::size_t u) {
        auto nb = v.neighbors(static_cast<V>(u));
        auto range =
            std::equal_range(nb.begin(), nb.end(), static_cast<V>(u));
        return static_cast<std::uint64_t>(range.second - range.first);
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  // Together with multiplicity symmetry above, this pins the header edge
  // count to the canonical smaller-endpoint enumeration: every non-loop
  // pair {u, w} of multiplicity k contributes k arcs at each endpoint and
  // is counted once from the smaller, so the canonical count is exactly
  // (num_arcs + self_loops) / 2. Buffers sized from num_edges (e.g. the
  // spanning-forest in_forest marks, indexed by `orig`) can therefore
  // never be overrun by the enumerators.
  if ((v.num_arcs() + self_loops) / 2 != v.edges ||
      (v.num_arcs() + self_loops) % 2 != 0) {
    set_error(error, "edge count in header disagrees with arc count");
    return false;
  }
  // The narrow algorithms index edges with dense uint32 `orig` ids; reject
  // the ceiling here so an oversized (but well-formed) view is a clean
  // validation error instead of a LOGCC_CHECK abort at first use. Wide
  // views carry uint64 orig ids — no cap.
  if constexpr (sizeof(V) == 4) {
    if (v.edges > kNarrowCap) {
      set_error(error, "edge count exceeds the 32-bit edge-index space");
      return false;
    }
  }
  return true;
}

}  // namespace

bool validate_csr_structure(const CsrView& v, std::string* error) {
  return validate_csr_structure_impl(v, error);
}
bool validate_csr_structure(const CsrView64& v, std::string* error) {
  return validate_csr_structure_impl(v, error);
}

bool validate_csr(const CsrView& v, std::string* error) {
  return validate_csr_impl(v, error);
}
bool validate_csr(const CsrView64& v, std::string* error) {
  return validate_csr_impl(v, error);
}

namespace {

template <typename V>
BasicEdgeList<V> edge_list_from_csr_impl(const BasicCsrView<V>& v) {
  BasicEdgeList<V> out;
  out.n = v.n;
  // Canonical smaller-endpoint order via the shared csr_suffix_begin
  // (arcs_input.hpp) — the same sequence the CSR-native ingestion
  // (core::arcs_from_input) and ArcsInput::for_each_edge emit, which is
  // what makes the materializing and zero-copy paths bit-identical.
  util::parallel_emit<BasicEdge<V>>(
      static_cast<std::size_t>(v.n), out.edges,
      [&](std::size_t u) { return csr_suffix(v, static_cast<V>(u)).size(); },
      [&](std::size_t u, BasicEdge<V>* dst) {
        for (V w : csr_suffix(v, static_cast<V>(u)))
          *dst++ = BasicEdge<V>{static_cast<V>(u), w};
      });
  return out;
}

}  // namespace

EdgeList edge_list_from_csr(const CsrView& v) {
  return edge_list_from_csr_impl(v);
}
EdgeList64 edge_list_from_csr(const CsrView64& v) {
  return edge_list_from_csr_impl(v);
}

namespace {

// Strict decimal parse: the whole token must be digits ("1e6", "5,300,000",
// "0x7" all fail rather than silently truncating at the first non-digit).
bool parse_u64_strict(const std::string& token, std::uint64_t& out) {
  if (token.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
  if (errno != 0 || end != token.c_str() + token.size()) return false;
  if (token[0] == '-' || token[0] == '+') return false;
  out = v;
  return true;
}

}  // namespace

bool parse_generator_spec(const std::string& spec, std::string& family,
                          std::uint64_t& n, std::uint64_t& seed) {
  const auto c1 = spec.find(':');
  if (c1 == std::string::npos) return false;
  family = spec.substr(0, c1);
  std::string rest = spec.substr(c1 + 1);
  const auto c2 = rest.find(':');
  if (c2 != std::string::npos) {
    if (!parse_u64_strict(rest.substr(c2 + 1), seed)) return false;
    rest = rest.substr(0, c2);
  }
  return parse_u64_strict(rest, n) && n > 0;
}

const EdgeList& DatasetHandle::edges() {
  LOGCC_CHECK_MSG(!wide_, "edges(): wide datasets have no narrow EdgeList");
  if (input_.csr_backed() && !materialized_) {
    util::Timer timer;
    el_ = edge_list_from_csr(bg_.view());
    info_.materialize_seconds += timer.seconds();
    materialized_ = true;
  }
  return el_;
}

bool load_dataset_zero_copy(const std::string& spec, DatasetHandle& out,
                            std::string* error, util::MmapPopulate populate) {
  util::Timer timer;
  out = DatasetHandle{};
  DatasetInfo& info = out.info_;
  info.name = spec;
  if (spec.rfind("gen:", 0) == 0) {
    std::string family;
    std::uint64_t n = 0;
    std::uint64_t seed = 1;
    if (!parse_generator_spec(spec.substr(4), family, n, seed)) {
      set_error(error, "bad generator spec '" + spec +
                           "' (want gen:family:n[:seed])");
      return false;
    }
    out.el_ = make_family(family, n, seed);
    out.input_ = ArcsInput::from_edges(out.el_);
    info.source = "generator";
  } else if (sniff_binary_csr(spec)) {
    if (!out.bg_.open(spec, error, populate)) return false;
    info.populate = populate;
    // Deep validation before any accessor dereferences interior offsets: a
    // corrupt (but envelope-consistent) file must be a clean error, not an
    // out-of-bounds read — and the symmetry check matters doubly here,
    // because the CSR-native ingestion (core::arcs_from_input) and
    // edge_list_from_csr both emit from smaller-endpoint arc suffixes, so
    // an asymmetric file would silently drop edges rather than crash.
    const bool valid = out.bg_.wide() ? validate_csr(out.bg_.view64(), error)
                                      : validate_csr(out.bg_.view(), error);
    if (!valid) {
      if (error) *error = "corrupt binary CSR '" + spec + "': " + *error;
      return false;
    }
    if (out.bg_.wide()) {
      out.wide_ = true;
      out.input64_ = ArcsInput64::from_csr(out.bg_.view64());
    } else {
      out.input_ = ArcsInput::from_csr(out.bg_.view());
    }
    info.name = basename_of(spec);
    info.source = out.bg_.zero_copy() ? "binary-mmap" : "binary-copy";
    info.file_bytes = out.bg_.file_bytes();
  } else {
    if (!read_edge_list_file(spec, out.el_)) {
      set_error(error,
                "cannot read '" + spec +
                    "' as a text edge list (and it is not LOGCCSR1/LOGCCSR2)");
      return false;
    }
    out.input_ = ArcsInput::from_edges(out.el_);
    info.name = basename_of(spec);
    info.source = "text";
  }
  info.load_seconds = timer.seconds();
  return true;
}

}  // namespace logcc::graph
