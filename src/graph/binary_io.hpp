// Binary CSR graph formats ("LOGCCSR1"/"LOGCCSR2") + mmap-backed zero-copy
// loading.
//
// This is the large-graph workload layer: text edge lists and generator
// output are converted once into a compact binary CSR file, and every later
// run maps it read-only in O(1) — no parsing, no CSR rebuild, no copy. The
// formats are documented in docs/FILE_FORMATS.md; the layout is
//
//   [ 64-byte BinaryCsrHeader ][ offsets: (n+1) x u64 ][ adj: num_arcs x uW ]
//
// where the arc width W is 32 bits for LOGCCSR1 and 64 bits for LOGCCSR2 —
// the two formats share the header struct byte-for-byte (only the magic and
// version differ), so one sniff reads either. Files are written in the
// *native* byte order with an endianness tag in the header so a
// foreign-endian file is rejected instead of misread. Neighbor lists are
// sorted ascending; parallel edges are preserved (each undirected copy
// contributes an arc in both endpoint lists) and a self-loop contributes a
// single arc — the same conventions as `Graph::from_edges(el, /*dedup=*/false)`.
//
// Version rule: LOGCCSR1 iff n and num_edges both fit uint32 (dense 32-bit
// ids and `orig` indices); anything larger must be LOGCCSR2. The writers
// enforce it with an actionable error, the loaders re-check it from the
// 64-bit header fields *before* any narrowing arithmetic.
//
// Writers come in two shapes:
//   - write_binary_csr_streaming: two-pass, O(n)-memory. The caller provides
//     a *re-runnable* edge enumerator; pass 1 counts degrees, pass 2
//     scatters arcs directly into the writeable mapping. This is how the
//     generator families scale to 10^7–10^8 edges without ever holding an
//     edge list in memory.
//   - convert_text_to_binary / write_binary_csr: materialized convenience
//     wrappers for files and in-memory graphs.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "graph/arcs_input.hpp"
#include "graph/graph.hpp"
#include "util/mmap_file.hpp"

namespace logcc::graph {

inline constexpr char kBinaryCsrMagic[8] = {'L', 'O', 'G', 'C',
                                            'C', 'S', 'R', '1'};
inline constexpr char kBinaryCsrMagicV2[8] = {'L', 'O', 'G', 'C',
                                              'C', 'S', 'R', '2'};
inline constexpr std::uint32_t kBinaryCsrVersion = 1;
inline constexpr std::uint32_t kBinaryCsrVersionV2 = 2;
/// Written natively; reads back as 0x04030201 on a foreign-endian host.
inline constexpr std::uint32_t kEndianTag = 0x01020304;

/// On-disk format selector for the writers. kNarrow is LOGCCSR1 (uint32
/// arcs); kWide is LOGCCSR2 (uint64 arcs). The loaders sniff the magic, so
/// readers never pass this.
enum class BinaryCsrFormat { kNarrow, kWide };

/// Fixed 64-byte file header, shared by both format versions. All
/// multi-byte fields are native-endian; the `endian` tag proves it on load.
struct BinaryCsrHeader {
  char magic[8];            // kBinaryCsrMagic / kBinaryCsrMagicV2
  std::uint32_t version;    // kBinaryCsrVersion / kBinaryCsrVersionV2
  std::uint32_t endian;     // kEndianTag
  std::uint64_t n;          // vertices; offsets array has n+1 entries
  std::uint64_t num_arcs;   // length of adj (2*edges - self_loops)
  std::uint64_t num_edges;  // undirected edges incl. parallel copies
  std::uint64_t reserved[3];
};
static_assert(sizeof(BinaryCsrHeader) == 64, "header must stay 64 bytes");

// CsrView itself lives in graph/arcs_input.hpp (it is a graph type, not an
// I/O type); this header provides its on-disk incarnation.

/// A binary CSR file opened for reading — either format. On POSIX the view
/// aliases the mmap pages (zero-copy); elsewhere a heap fallback buffer
/// backs it. Exactly one of view()/view64() is populated, per wide().
class BinaryGraph {
 public:
  /// Validates the header (magic, version, endianness, the 64-bit count
  /// caps for the format version, exact file size) and the offsets envelope
  /// (offsets[0] == 0, offsets[n] == num_arcs). Count caps are checked on
  /// the raw uint64 header fields before any size arithmetic or narrowing,
  /// so an oversized v1 file is a clean "use LOGCCSR2" error — never a
  /// wrapped computation. Returns false with a reason in `error` on any
  /// mismatch — truncated or foreign files never yield a view. `populate`
  /// selects eager page population of the mapping (util/mmap_file.hpp).
  bool open(const std::string& path, std::string* error = nullptr,
            util::MmapPopulate populate = util::MmapPopulate::kNone);

  /// True when the file was LOGCCSR2 (64-bit arcs -> use view64()).
  bool wide() const { return wide_; }
  const CsrView& view() const { return view_; }
  const CsrView64& view64() const { return view64_; }
  bool zero_copy() const { return map_.is_mapped(); }
  std::size_t file_bytes() const { return map_.size(); }

 private:
  util::MmapFile map_;
  CsrView view_;
  CsrView64 view64_;
  bool wide_ = false;
};

/// Structural O(n + m) validation (parallel): monotone offsets, in-range
/// neighbor ids, sorted adjacency lists. This is exactly what makes every
/// CsrView accessor and edge_list_from_csr memory-safe and well-defined on
/// the view. BinaryGraph::open intentionally checks only the O(1) envelope
/// — callers consuming untrusted files through the raw view must validate
/// themselves.
bool validate_csr_structure(const CsrView& v, std::string* error = nullptr);
bool validate_csr_structure(const CsrView64& v, std::string* error = nullptr);

/// Deep validation: validate_csr_structure plus arc symmetry (every arc has
/// its reverse) and header edge-count consistency. O(n + m log deg).
/// load_dataset_zero_copy runs this on every binary file before handing the
/// graph to an algorithm (structure alone would let an asymmetric file
/// silently drop edges); tests and `cc_tool --convert` run it after
/// writing. The narrow overload additionally enforces the 32-bit
/// orig-index cap.
bool validate_csr(const CsrView& v, std::string* error = nullptr);
bool validate_csr(const CsrView64& v, std::string* error = nullptr);

/// Edge callback: receives each undirected edge once. Endpoints are uint64
/// at the interface regardless of output format — the narrow writer range-
/// checks against its n (< 2^32) before narrowing to the on-disk width, so
/// generator streams can enumerate wide ids through one sink type.
using EdgeSink = std::function<void(std::uint64_t, std::uint64_t)>;
/// Re-runnable edge enumeration. MUST emit the identical (u, v) sequence on
/// every invocation (it is run twice: degree count, then scatter) and only
/// endpoints < n. Enumeration order does not affect the output file —
/// neighbor lists are sorted after the scatter — so any deterministic order
/// works.
using EdgeEnumerator = std::function<void(const EdgeSink&)>;

/// Two-pass streaming writer: O(n) memory regardless of edge count. Arcs are
/// scattered straight into the writeable mapping of the destination file.
/// With kNarrow, n and the enumerated edge count must both fit uint32 (the
/// LOGCCSR1 caps) — violations fail with an actionable "use LOGCCSR2"
/// error before the output file is created.
bool write_binary_csr_streaming(const std::string& path, std::uint64_t n,
                                const EdgeEnumerator& enumerate,
                                std::string* error = nullptr,
                                BinaryCsrFormat format =
                                    BinaryCsrFormat::kNarrow);

/// Writes an in-memory edge list (parallel edges and self-loops preserved).
/// The narrow overload emits LOGCCSR1; the wide overload emits LOGCCSR2.
bool write_binary_csr(const std::string& path, const EdgeList& el,
                      std::string* error = nullptr);
bool write_binary_csr(const std::string& path, const EdgeList64& el,
                      std::string* error = nullptr);

/// Streams a named generator family (see make_family_stream) to disk.
bool stream_family_to_binary(const std::string& family, std::uint64_t n,
                             std::uint64_t seed, const std::string& path,
                             std::string* error = nullptr,
                             BinaryCsrFormat format =
                                 BinaryCsrFormat::kNarrow);

/// Text edge list file -> binary CSR file (LOGCCSR1).
bool convert_text_to_binary(const std::string& text_path,
                            const std::string& bin_path,
                            std::string* error = nullptr);

/// True iff the file starts with either binary CSR magic (cheap sniff used
/// to auto-detect binary vs text inputs).
bool sniff_binary_csr(const std::string& path);

/// Re-materializes the undirected edge list of a CSR view, in (u, v)-sorted
/// order with u <= v, one entry per undirected edge (parallel copies kept,
/// self-loops once). Parallel over vertices; deterministic for every thread
/// count. This is what hands an mmap-loaded dataset to the PRAM algorithms,
/// which need a mutable arc array of their own anyway.
EdgeList edge_list_from_csr(const CsrView& v);
EdgeList64 edge_list_from_csr(const CsrView64& v);

/// How load_dataset_zero_copy obtained the graph, for bench provenance
/// records.
struct DatasetInfo {
  std::string name;       // basename or generator spec
  std::string source;     // "binary-mmap" | "binary-copy" | "text" | "generator"
  /// Open + validate (and, for text/generator sources, parse/build) time.
  double load_seconds = 0.0;
  /// CSR -> EdgeList re-materialization time (edge_list_from_csr), reported
  /// separately from load so bench.json never folds a format conversion
  /// into either the load or the algorithm column. Exactly 0 on the
  /// zero-copy path — the CI bench smoke asserts this for binary inputs.
  double materialize_seconds = 0.0;
  std::uint64_t file_bytes = 0;  // 0 for generators
  /// Page-population mode the mapping was opened with (binary sources).
  util::MmapPopulate populate = util::MmapPopulate::kNone;
};

/// Parses a "family:n[:seed]" generator spec (what load_dataset_zero_copy
/// accepts after "gen:" and what cc_tool/cc_bench take via --generate).
/// Returns false on a missing ':', a family not in family_names(), or when
/// n parses to 0, so a typo'd name is a usage error rather than an abort
/// and a typo'd number can never silently become a tiny dataset. `seed`
/// keeps its incoming value (the caller's default) when the spec has no
/// seed field.
bool parse_generator_spec(const std::string& spec, std::string& family,
                          std::uint64_t& n, std::uint64_t& seed);

/// A resolved dataset that OWNS its backing storage and hands out a
/// non-owning ArcsInput over it: for binary files the input aliases the
/// mmap pages and no EdgeList is materialized unless edges() asks for one;
/// for text/generator sources the handle owns the edge vector the input
/// views. Move-only (it may hold an mmap).
/// LOGCCSR2 files resolve to the wide input (wide() == true, use
/// input64()); every other source resolves narrow.
///
/// Ownership rule (docs/ARCHITECTURE.md): the handle must outlive every
/// use of input()/input64() — the ArcsInput dangles the moment the handle
/// dies.
class DatasetHandle {
 public:
  DatasetHandle() = default;
  DatasetHandle(DatasetHandle&&) = default;
  DatasetHandle& operator=(DatasetHandle&&) = default;

  /// True when the dataset resolved onto the wide (64-bit) path.
  bool wide() const { return wide_; }
  const ArcsInput& input() const { return input_; }
  const ArcsInput64& input64() const { return input64_; }
  const DatasetInfo& info() const { return info_; }

  /// Materializes (and caches) the canonical EdgeList — only for consumers
  /// that genuinely need indexed edge storage (e.g. spanning-forest edge
  /// output). Records the conversion cost in info().materialize_seconds.
  /// The returned reference lives as long as the handle. For edge-backed
  /// sources this is the already-owned list (no cost recorded). Narrow
  /// path only (LOGCC_CHECK).
  const EdgeList& edges();

 private:
  friend bool load_dataset_zero_copy(const std::string&, DatasetHandle&,
                                     std::string*, util::MmapPopulate);
  BinaryGraph bg_;   // keeps the mmap alive for CSR-backed inputs
  EdgeList el_;      // backing for text/generator (or materialized) edges
  bool materialized_ = false;
  bool wide_ = false;
  ArcsInput input_;
  ArcsInput64 input64_;
  DatasetInfo info_;
};

/// Unified dataset resolution shared by cc_tool and cc_bench:
///   "gen:family:n[:seed]"   -> in-memory generator output
///   path to LOGCCSR1/2 file -> mmap load + deep validation (validate_csr)
///   any other path          -> text edge-list parse
/// Returns false with a reason on unreadable/invalid input. Binary files
/// stay in their mmap'd CSR form: info().load_seconds covers open + deep
/// validate only and materialize_seconds stays 0 unless the caller asks
/// for edges(). cc_bench/cc_tool run algorithms straight off
/// handle.input(). `populate` selects eager page population for binary
/// (mmap) sources and is recorded in info().populate (cc_bench
/// --populate).
bool load_dataset_zero_copy(const std::string& spec, DatasetHandle& out,
                            std::string* error = nullptr,
                            util::MmapPopulate populate =
                                util::MmapPopulate::kNone);

}  // namespace logcc::graph
