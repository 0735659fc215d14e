#include "graph/binary_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "graph/io.hpp"
#include "util/mmap_file.hpp"
#include "util/parallel.hpp"

namespace logcc::graph {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/logcc_binio_" + name;
}

std::vector<Edge> canonical_edges(EdgeList el) {
  for (auto& e : el.edges)
    if (e.u > e.v) std::swap(e.u, e.v);
  std::sort(el.edges.begin(), el.edges.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  return el.edges;
}

std::vector<char> read_all(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_all(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ------------------------------------------------------------- round trip ---

TEST(BinaryIo, TextToBinaryRoundTripEqualsDirectLoad) {
  EdgeList el = make_gnm(500, 1500, 7);
  const std::string text = tmp_path("rt.txt");
  const std::string bin = tmp_path("rt.bin");
  ASSERT_TRUE(write_edge_list_file(text, el));
  std::string error;
  ASSERT_TRUE(convert_text_to_binary(text, bin, &error)) << error;

  EdgeList direct;
  ASSERT_TRUE(read_edge_list_file(text, direct));
  BinaryGraph bg;
  ASSERT_TRUE(bg.open(bin, &error)) << error;
  EXPECT_TRUE(validate_csr(bg.view(), &error)) << error;
  EdgeList loaded = edge_list_from_csr(bg.view());

  EXPECT_EQ(loaded.n, direct.n);
  EXPECT_EQ(canonical_edges(loaded), canonical_edges(direct));
  EXPECT_TRUE(same_partition(bfs_components(Graph::from_edges(direct)),
                             bfs_components(Graph::from_edges(loaded))));
}

TEST(BinaryIo, PreservesParallelEdgesAndSelfLoops) {
  EdgeList el;
  el.n = 5;
  el.add(0, 1);
  el.add(1, 0);  // parallel copy, reversed orientation
  el.add(2, 2);  // self-loop
  el.add(1, 3);
  const std::string bin = tmp_path("multi.bin");
  std::string error;
  ASSERT_TRUE(write_binary_csr(bin, el, &error)) << error;
  BinaryGraph bg;
  ASSERT_TRUE(bg.open(bin, &error)) << error;
  EXPECT_TRUE(validate_csr(bg.view(), &error)) << error;
  EXPECT_EQ(bg.view().num_edges(), 4u);
  EXPECT_EQ(bg.view().num_arcs(), 7u);  // 2*3 proper edges + 1 self-loop arc
  EdgeList loaded = edge_list_from_csr(bg.view());
  EXPECT_EQ(canonical_edges(loaded), canonical_edges(el));
}

TEST(BinaryIo, IsolatedVerticesSurvive) {
  EdgeList el;
  el.n = 10;  // vertices 3..9 isolated
  el.add(0, 1);
  el.add(1, 2);
  const std::string bin = tmp_path("iso.bin");
  std::string error;
  ASSERT_TRUE(write_binary_csr(bin, el, &error)) << error;
  BinaryGraph bg;
  ASSERT_TRUE(bg.open(bin, &error)) << error;
  EXPECT_EQ(bg.view().num_vertices(), 10u);
  EXPECT_EQ(bg.view().degree(7), 0u);
  EXPECT_EQ(edge_list_from_csr(bg.view()).n, 10u);
}

// ------------------------------------------------- streaming == in-memory ---

TEST(BinaryIo, StreamingWriterMatchesMaterializedWriter) {
  // Streaming families byte-match the materialized write (same canonical
  // CSR); fallback families (gnm2) go through the replay path and must
  // byte-match too.
  for (const std::string family :
       {"path", "star", "grid", "rmat", "lollipop", "gnm2"}) {
    SCOPED_TRACE(family);
    const std::uint64_t n = 300, seed = 11;
    FamilyStream fs = make_family_stream(family, n, seed);
    EdgeList el = make_family(family, n, seed);
    EXPECT_EQ(fs.num_vertices, el.n);

    const std::string a = tmp_path(family + "_stream.bin");
    const std::string b = tmp_path(family + "_mat.bin");
    std::string error;
    ASSERT_TRUE(stream_family_to_binary(family, n, seed, a, &error)) << error;
    ASSERT_TRUE(write_binary_csr(b, el, &error)) << error;
    EXPECT_EQ(read_all(a), read_all(b));
  }
}

TEST(BinaryIo, StreamingFamiliesReportStreams) {
  EXPECT_TRUE(make_family_stream("grid", 100, 1).streams);
  EXPECT_TRUE(make_family_stream("rmat", 100, 1).streams);
  EXPECT_TRUE(make_family_stream("path", 100, 1).streams);
  EXPECT_TRUE(make_family_stream("star", 100, 1).streams);
  EXPECT_FALSE(make_family_stream("gnm2", 100, 1).streams);
  EXPECT_FALSE(make_family_stream("pref", 100, 1).streams);
}

TEST(BinaryIo, StreamingWriterRemovesFileOnReplayMismatch) {
  const std::string bin = tmp_path("mismatch.bin");
  std::string error;
  int call = 0;
  EXPECT_FALSE(write_binary_csr_streaming(
      bin, 4,
      [&call](const EdgeSink& sink) {
        // Different sequence on the second pass: the writer must fail and
        // must not leave a half-written (but validly-headed) file behind.
        sink(0, 1);
        if (call++ > 0) sink(2, 3);
      },
      &error));
  EXPECT_NE(error.find("replay"), std::string::npos);
  EXPECT_FALSE(sniff_binary_csr(bin));
  BinaryGraph bg;
  EXPECT_FALSE(bg.open(bin));
}

TEST(BinaryIo, StreamingWriterRejectsOutOfRangeEndpoint) {
  const std::string bin = tmp_path("oob.bin");
  std::string error;
  EXPECT_FALSE(write_binary_csr_streaming(
      bin, 3,
      [](const EdgeSink& sink) {
        sink(0, 1);
        sink(1, 7);  // >= n
      },
      &error));
  EXPECT_NE(error.find("out of range"), std::string::npos);
}

// -------------------------------------------------------- header hardening ---

class BinaryIoHeader : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = tmp_path("hdr.bin");
    std::string error;
    ASSERT_TRUE(write_binary_csr(path_, make_grid(8, 8), &error)) << error;
    bytes_ = read_all(path_);
    ASSERT_GE(bytes_.size(), 64u);
  }
  // Rewrites the file with `bytes_` and expects open() to fail with `needle`
  // in the error message.
  void expect_rejected(const std::string& needle) {
    write_all(path_, bytes_);
    BinaryGraph bg;
    std::string error;
    EXPECT_FALSE(bg.open(path_, &error));
    EXPECT_NE(error.find(needle), std::string::npos) << "error was: " << error;
  }
  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(BinaryIoHeader, AcceptsPristineFile) {
  BinaryGraph bg;
  std::string error;
  EXPECT_TRUE(bg.open(path_, &error)) << error;
  EXPECT_EQ(bg.view().num_vertices(), 64u);
  EXPECT_TRUE(validate_csr(bg.view(), &error)) << error;
}

TEST_F(BinaryIoHeader, RejectsBadMagic) {
  bytes_[0] = 'X';
  expect_rejected("magic");
}

TEST_F(BinaryIoHeader, RejectsForeignEndianness) {
  // A foreign-endian writer stores the same tag value with its bytes in the
  // opposite order, so this reader decodes the byteswapped tag. Simulate by
  // reversing the tag's on-disk bytes (offset 12: magic[8] + version u32).
  std::reverse(bytes_.begin() + 12, bytes_.begin() + 16);
  expect_rejected("endian");
}

TEST_F(BinaryIoHeader, RejectsCorruptEndianTag) {
  bytes_[12] = 0x42;
  expect_rejected("endian");
}

TEST_F(BinaryIoHeader, RejectsUnsupportedVersion) {
  bytes_[8] = 99;  // version u32 at offset 8 (little-endian low byte)
  expect_rejected("version");
}

TEST_F(BinaryIoHeader, RejectsTruncatedBody) {
  bytes_.resize(bytes_.size() - 10);
  expect_rejected("size mismatch");
}

TEST_F(BinaryIoHeader, RejectsTruncatedHeader) {
  bytes_.resize(32);
  expect_rejected("truncated");
}

TEST_F(BinaryIoHeader, RejectsTrailingGarbage) {
  bytes_.push_back(0);
  expect_rejected("size mismatch");
}

TEST_F(BinaryIoHeader, RejectsOverflowingSizeFields) {
  // n = 2^32 - 1 (the largest the loader tolerates) with num_arcs chosen so
  // the 64-bit expected-size computation would wrap to exactly this file's
  // 72 bytes. The 128-bit check must reject instead of reading out of
  // bounds.
  BinaryCsrHeader h{};
  std::memcpy(h.magic, kBinaryCsrMagic, sizeof(h.magic));
  h.version = kBinaryCsrVersion;
  h.endian = kEndianTag;
  h.n = 0xFFFFFFFFull;
  const std::uint64_t offsets_bytes = (h.n + 1) * 8;
  h.num_arcs = (0 - (64 + offsets_bytes + 8 - 72)) / 4;  // mod-2^64 wrap
  h.num_edges = 0;
  bytes_.assign(sizeof(h) + 8, 0);  // header + a single zero offsets entry
  std::memcpy(bytes_.data(), &h, sizeof(h));
  expect_rejected("size mismatch");
}

TEST_F(BinaryIoHeader, RejectsSentinelVertexCount) {
  // n = 2^32 would make id 0xFFFFFFFF (= kInvalidVertex) addressable; both
  // the loader and the writer must refuse.
  BinaryCsrHeader h{};
  std::memcpy(h.magic, kBinaryCsrMagic, sizeof(h.magic));
  h.version = kBinaryCsrVersion;
  h.endian = kEndianTag;
  h.n = std::uint64_t{1} << 32;
  bytes_.assign(sizeof(h), 0);
  std::memcpy(bytes_.data(), &h, sizeof(h));
  expect_rejected("32-bit id space");

  std::string error;
  EXPECT_FALSE(write_binary_csr_streaming(
      tmp_path("sentinel.bin"), std::uint64_t{1} << 32,
      [](const EdgeSink&) {}, &error));
  EXPECT_NE(error.find("32-bit id space"), std::string::npos);
}

TEST_F(BinaryIoHeader, LoadDatasetRejectsCorruptInteriorOffsets) {
  // Envelope stays intact (offsets[0] == 0, offsets[n] == num_arcs) but an
  // interior offset points far outside the arc array; the loader must fail
  // cleanly instead of reading out of bounds. Offset entry u=1 lives at
  // byte 64 + 8.
  std::uint64_t huge = std::uint64_t{1} << 60;
  std::memcpy(bytes_.data() + 64 + 8, &huge, sizeof(huge));
  write_all(path_, bytes_);
  BinaryGraph bg;
  std::string error;
  ASSERT_TRUE(bg.open(path_, &error)) << error;  // envelope-only check passes
  EXPECT_FALSE(validate_csr_structure(bg.view(), &error));
  DatasetHandle h;
  error.clear();
  EXPECT_FALSE(load_dataset_zero_copy(path_, h, &error));
  EXPECT_NE(error.find("corrupt"), std::string::npos);
}

TEST_F(BinaryIoHeader, ValidateCatchesCorruptAdjacency) {
  // Clobber one adjacency entry past the offsets array: symmetry breaks.
  const std::size_t adj_start = 64 + (64 + 1) * 8;
  ASSERT_LT(adj_start + 4, bytes_.size());
  bytes_[adj_start] = 63;
  bytes_[adj_start + 1] = 0;
  write_all(path_, bytes_);
  BinaryGraph bg;
  std::string error;
  ASSERT_TRUE(bg.open(path_, &error)) << error;  // envelope still fine
  EXPECT_FALSE(validate_csr(bg.view(), &error));
}

// ----------------------------------------------------------- view + loader ---

TEST(BinaryIo, CsrViewAccessors) {
  const std::string bin = tmp_path("view.bin");
  std::string error;
  ASSERT_TRUE(write_binary_csr(bin, make_grid(3, 3), &error)) << error;
  BinaryGraph bg;
  ASSERT_TRUE(bg.open(bin, &error)) << error;
  const CsrView& v = bg.view();
  EXPECT_EQ(v.num_vertices(), 9u);
  EXPECT_EQ(v.num_edges(), 12u);
  EXPECT_EQ(v.num_arcs(), 24u);
  EXPECT_EQ(v.degree(4), 4u);  // center of the 3x3 grid
  auto nb = v.neighbors(4);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  EXPECT_EQ(std::vector<VertexId>(nb.begin(), nb.end()),
            (std::vector<VertexId>{1, 3, 5, 7}));
}

TEST(BinaryIo, SniffDistinguishesBinaryFromText) {
  const std::string bin = tmp_path("sniff.bin");
  const std::string text = tmp_path("sniff.txt");
  std::string error;
  ASSERT_TRUE(write_binary_csr(bin, make_path(4), &error)) << error;
  ASSERT_TRUE(write_edge_list_file(text, make_path(4)));
  EXPECT_TRUE(sniff_binary_csr(bin));
  EXPECT_FALSE(sniff_binary_csr(text));
  EXPECT_FALSE(sniff_binary_csr(tmp_path("missing")));
}

TEST(BinaryIo, EdgeListFromCsrIsThreadCountInvariant) {
  const std::string bin = tmp_path("inv.bin");
  std::string error;
  ASSERT_TRUE(stream_family_to_binary("rmat", 2000, 3, bin, &error)) << error;
  BinaryGraph bg;
  ASSERT_TRUE(bg.open(bin, &error)) << error;
  const int before = util::hardware_parallelism();
  util::set_parallelism(1);
  EdgeList serial = edge_list_from_csr(bg.view());
  util::set_parallelism(8);
  EdgeList parallel = edge_list_from_csr(bg.view());
  util::set_parallelism(before);
  EXPECT_EQ(serial.n, parallel.n);
  EXPECT_EQ(serial.edges, parallel.edges);  // exact order, not just multiset
}

// ------------------------------------------------------------ load_dataset ---

TEST(LoadDataset, GeneratorSpec) {
  DatasetHandle h;
  std::string error;
  ASSERT_TRUE(load_dataset_zero_copy("gen:path:50", h, &error)) << error;
  EXPECT_EQ(h.input().num_vertices(), 50u);
  EXPECT_EQ(h.input().num_edges(), 49u);
  EXPECT_EQ(h.info().source, "generator");
}

TEST(LoadDataset, ParseGeneratorSpec) {
  std::string family;
  std::uint64_t n = 0;
  std::uint64_t seed = 7;  // caller default, kept when spec omits the field
  ASSERT_TRUE(parse_generator_spec("grid:100", family, n, seed));
  EXPECT_EQ(family, "grid");
  EXPECT_EQ(n, 100u);
  EXPECT_EQ(seed, 7u);
  ASSERT_TRUE(parse_generator_spec("rmat:50:42", family, n, seed));
  EXPECT_EQ(seed, 42u);
  EXPECT_FALSE(parse_generator_spec("path", family, n, seed));  // no ':'
  EXPECT_FALSE(parse_generator_spec("grid:bogus", family, n, seed));
  EXPECT_FALSE(parse_generator_spec("grid:0", family, n, seed));
  // Strict parse: trailing garbage must not silently truncate the number.
  EXPECT_FALSE(parse_generator_spec("grid:1e6", family, n, seed));
  EXPECT_FALSE(parse_generator_spec("grid:5,300,000", family, n, seed));
  EXPECT_FALSE(parse_generator_spec("grid:100:0x7", family, n, seed));
  EXPECT_FALSE(parse_generator_spec("grid:-5", family, n, seed));
  // A family outside family_names() is a parse error, not make_family's
  // abort; every listed family parses.
  EXPECT_FALSE(parse_generator_spec("bogus:10", family, n, seed));
  EXPECT_FALSE(parse_generator_spec("gnm:10", family, n, seed));
  for (const std::string& name : family_names())
    EXPECT_TRUE(parse_generator_spec(name + ":10", family, n, seed)) << name;
}

TEST(LoadDataset, BadGeneratorSpecFails) {
  DatasetHandle h;
  std::string error;
  EXPECT_FALSE(load_dataset_zero_copy("gen:path", h, &error));
  EXPECT_FALSE(load_dataset_zero_copy("gen:path:0", h, &error));
  // An unknown family is a usage error whose message names the families.
  EXPECT_FALSE(load_dataset_zero_copy("gen:bogus:10", h, &error));
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;
  for (const std::string& name : family_names())
    EXPECT_NE(error.find(name), std::string::npos) << name << ": " << error;
}

TEST(LoadDataset, DispatchesOnMagic) {
  const std::string bin = tmp_path("ds.bin");
  const std::string text = tmp_path("ds.txt");
  std::string error;
  ASSERT_TRUE(write_binary_csr(bin, make_cycle(30), &error)) << error;
  ASSERT_TRUE(write_edge_list_file(text, make_cycle(30)));

  DatasetHandle from_bin, from_text;
  ASSERT_TRUE(load_dataset_zero_copy(bin, from_bin, &error)) << error;
  ASSERT_TRUE(load_dataset_zero_copy(text, from_text, &error)) << error;
  const DatasetInfo& bi = from_bin.info();
  EXPECT_TRUE(bi.source == "binary-mmap" || bi.source == "binary-copy");
  EXPECT_GT(bi.file_bytes, 0u);
  EXPECT_EQ(from_text.info().source, "text");
  EXPECT_EQ(canonical_edges(from_bin.edges()),
            canonical_edges(from_text.edges()));
}

TEST(LoadDataset, MissingFileFails) {
  DatasetHandle h;
  std::string error;
  EXPECT_FALSE(
      load_dataset_zero_copy("/nonexistent/definitely/missing", h, &error));
}

// --------------------------------------------------------------- MmapFile ---

TEST(MmapFileTest, CreateWriteReadBack) {
  const std::string path = tmp_path("mmap.raw");
  std::string error;
  {
    auto f = util::MmapFile::create_rw(path, 128, &error);
    ASSERT_TRUE(f.valid()) << error;
    ASSERT_TRUE(f.writable());
    for (int i = 0; i < 128; ++i) f.mutable_data()[i] = static_cast<std::uint8_t>(i);
    EXPECT_TRUE(f.sync());
  }
  auto r = util::MmapFile::open_read(path, &error);
  ASSERT_TRUE(r.valid()) << error;
  EXPECT_EQ(r.size(), 128u);
  EXPECT_FALSE(r.writable());
  for (int i = 0; i < 128; ++i) EXPECT_EQ(r.data()[i], i);
}

TEST(MmapFileTest, MissingFileInvalid) {
  std::string error;
  auto f = util::MmapFile::open_read(tmp_path("nope"), &error);
  EXPECT_FALSE(f.valid());
  EXPECT_FALSE(error.empty());
}

TEST(MmapFileTest, MoveTransfersOwnership) {
  const std::string path = tmp_path("mv.raw");
  std::string error;
  auto f = util::MmapFile::create_rw(path, 16, &error);
  ASSERT_TRUE(f.valid()) << error;
  util::MmapFile g = std::move(f);
  EXPECT_TRUE(g.valid());
  EXPECT_FALSE(f.valid());  // NOLINT(bugprone-use-after-move): post-move state is specified
}

}  // namespace
}  // namespace logcc::graph
