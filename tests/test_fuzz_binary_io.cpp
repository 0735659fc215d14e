// Fuzz-style corpus for the LOGCCSR1/LOGCCSR2 binary loaders.
//
// A valid file is generated once, then a deterministic corpus of ~70
// mutants is derived from it: bit flips in the magic, version, endianness
// tag and count fields, bit flips across the offsets and adjacency arrays,
// truncations at every structural boundary, trailing garbage, and a few
// degenerate files. Every mutant must be *cleanly rejected* — by
// BinaryGraph::open + validate_csr and by load_dataset_zero_copy — never
// crash, never hand back a graph, always say why. (Under
// ASan/UBSan in CI this doubles as a memory-safety harness for the
// header/envelope/structure validators.)
//
// The corpus is seeded (util::mix64), so a failure names a reproducible
// entry. The base graph is simple (canonicalized), which makes every
// single-bit adjacency/offset mutation detectably inconsistent: a moved or
// rewritten arc always breaks sortedness, symmetry, or the header edge
// count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "graph/binary_io.hpp"
#include "graph/generators.hpp"
#include "util/random.hpp"

namespace logcc {
namespace {

using graph::BinaryCsrHeader;

constexpr std::size_t kHeaderBytes = sizeof(BinaryCsrHeader);

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good());
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(os.good());
  os.write(reinterpret_cast<const char*>(b.data()),
           static_cast<std::streamsize>(b.size()));
  ASSERT_TRUE(os.good());
}

struct Mutant {
  std::string name;
  std::vector<std::uint8_t> bytes;
};

class FuzzBinaryLoader : public ::testing::Test {
 protected:
  void SetUp() override {
    base_path_ = ::testing::TempDir() + "/fuzz_base.logccsr";
    mutant_path_ = ::testing::TempDir() + "/fuzz_mutant.logccsr";
    graph::EdgeList el = graph::make_gnm(97, 300, 0xF00D);
    el.canonicalize();  // simple graph: every 1-bit payload mutation detects
    std::string error;
    ASSERT_TRUE(graph::write_binary_csr(base_path_, el, &error)) << error;
    base_ = read_file(base_path_);
    ASSERT_GT(base_.size(), kHeaderBytes);
    std::memcpy(&header_, base_.data(), kHeaderBytes);
  }

  void TearDown() override {
    std::remove(base_path_.c_str());
    std::remove(mutant_path_.c_str());
  }

  Mutant flip(const std::string& name, std::size_t byte, unsigned bit) const {
    Mutant m{name + "@" + std::to_string(byte) + "." + std::to_string(bit),
             base_};
    m.bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
    return m;
  }

  // One seeded bit flip inside [lo, hi).
  Mutant flip_in(const std::string& name, std::size_t lo, std::size_t hi,
                 std::uint64_t seed) const {
    const std::size_t byte = lo + util::mix64(0xBADF, seed, lo) % (hi - lo);
    const unsigned bit =
        static_cast<unsigned>(util::mix64(0xBADF, seed, hi) % 8);
    return flip(name, byte, bit);
  }

  std::vector<Mutant> corpus() const {
    std::vector<Mutant> out;
    const std::size_t offsets_lo = kHeaderBytes;
    const std::size_t offsets_hi =
        kHeaderBytes + (static_cast<std::size_t>(header_.n) + 1) * 8;
    const std::size_t adj_hi = base_.size();

    // Header fields. Every byte of the magic; seeded flips in version,
    // endian tag, n, num_arcs, num_edges (reserved bytes are skipped — the
    // loader ignores them by design).
    for (std::size_t b = 0; b < 8; ++b)
      out.push_back(flip("magic", b, static_cast<unsigned>(
                                         util::mix64(1, b, 0) % 8)));
    for (std::uint64_t s = 0; s < 3; ++s)
      out.push_back(flip_in("version", 8, 12, s));
    for (std::uint64_t s = 0; s < 3; ++s)
      out.push_back(flip_in("endian", 12, 16, s));
    for (std::uint64_t s = 0; s < 4; ++s)
      out.push_back(flip_in("field-n", 16, 24, s));
    for (std::uint64_t s = 0; s < 4; ++s)
      out.push_back(flip_in("field-arcs", 24, 32, s));
    for (std::uint64_t s = 0; s < 4; ++s)
      out.push_back(flip_in("field-edges", 32, 40, s));

    // Payload: offsets array and adjacency array, seeded positions.
    for (std::uint64_t s = 0; s < 12; ++s)
      out.push_back(flip_in("offsets", offsets_lo, offsets_hi, s));
    for (std::uint64_t s = 0; s < 12; ++s)
      out.push_back(flip_in("adjacency", offsets_hi, adj_hi, s));

    // Truncations at structural boundaries (and just off them).
    for (std::size_t cut : {std::size_t{0}, std::size_t{7}, kHeaderBytes / 2,
                            kHeaderBytes, offsets_hi - 3, offsets_hi,
                            adj_hi - 4, adj_hi - 1}) {
      Mutant m{"truncate@" + std::to_string(cut), base_};
      m.bytes.resize(cut);
      out.push_back(std::move(m));
    }
    // Trailing garbage (the size check is exact).
    for (std::size_t extra : {std::size_t{1}, std::size_t{8}}) {
      Mutant m{"append@" + std::to_string(extra), base_};
      m.bytes.insert(m.bytes.end(), extra, 0xAB);
      out.push_back(std::move(m));
    }
    return out;
  }

  std::string base_path_;
  std::string mutant_path_;
  std::vector<std::uint8_t> base_;
  BinaryCsrHeader header_{};
};

TEST_F(FuzzBinaryLoader, BaselineIsAcceptedAndCorpusIsLargeEnough) {
  graph::DatasetHandle handle;
  std::string error;
  ASSERT_TRUE(graph::load_dataset_zero_copy(base_path_, handle, &error))
      << error;
  EXPECT_TRUE(handle.input().csr_backed());
  EXPECT_GE(corpus().size(), 50u);
}

TEST_F(FuzzBinaryLoader, MultiplicityAsymmetricFileIsRejected) {
  // Crafted (not bit-flipped) attack on the validator: adj(0) = [1, 1, 1],
  // adj(1) = [0]. Sorted, in-range, membership-symmetric, and
  // (arcs 4 + loops 0) / 2 == 2 matches a header edge count of 2 — but the
  // canonical smaller-endpoint enumeration yields 3 edges, so anything
  // sized from the header (spanning-forest `in_forest[orig]` marks) would
  // be overrun. validate_csr must reject on multiplicity symmetry / the
  // canonical count, never hand the view out.
  std::vector<std::uint8_t> bytes;
  BinaryCsrHeader h{};
  std::memcpy(h.magic, graph::kBinaryCsrMagic, sizeof(h.magic));
  h.version = graph::kBinaryCsrVersion;
  h.endian = graph::kEndianTag;
  h.n = 2;
  h.num_arcs = 4;
  h.num_edges = 2;
  bytes.resize(kHeaderBytes);
  std::memcpy(bytes.data(), &h, kHeaderBytes);
  auto push_u64 = [&](std::uint64_t x) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&x);
    bytes.insert(bytes.end(), p, p + 8);
  };
  auto push_u32 = [&](std::uint32_t x) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&x);
    bytes.insert(bytes.end(), p, p + 4);
  };
  push_u64(0);  // offsets[0]
  push_u64(3);  // offsets[1]
  push_u64(4);  // offsets[2] == num_arcs
  for (std::uint32_t w : {1u, 1u, 1u, 0u}) push_u32(w);
  write_file(mutant_path_, bytes);

  graph::BinaryGraph bg;
  std::string error;
  ASSERT_TRUE(bg.open(mutant_path_, &error)) << error;  // envelope is fine
  EXPECT_FALSE(graph::validate_csr(bg.view(), &error));
  graph::DatasetHandle handle;
  error.clear();
  EXPECT_FALSE(graph::load_dataset_zero_copy(mutant_path_, handle, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(FuzzBinaryLoader, EveryMutantIsCleanlyRejectedByEveryLoadPath) {
  for (const Mutant& m : corpus()) {
    write_file(mutant_path_, m.bytes);

    // Raw open path: either the O(1) envelope rejects it, or the deep
    // validator must. A mutant passing both would mean corrupt bytes can
    // reach the algorithms.
    graph::BinaryGraph bg;
    std::string error;
    if (bg.open(mutant_path_, &error)) {
      EXPECT_FALSE(graph::validate_csr(bg.view(), &error))
          << m.name << ": corrupt file passed open + deep validation";
    } else {
      EXPECT_FALSE(error.empty()) << m.name;
    }

    // The dataset loader — a mutated magic demotes the file to the text
    // parser, which must also reject the binary junk.
    graph::DatasetHandle handle;
    error.clear();
    EXPECT_FALSE(graph::load_dataset_zero_copy(mutant_path_, handle, &error))
        << m.name
        << ": load_dataset_zero_copy returned a graph from a corrupt file";
    EXPECT_FALSE(error.empty()) << m.name;
  }
}

// ------------------------------------------------------- LOGCCSR2 corpus ---

/// Same harness over a LOGCCSR2 base file: the v2 loader must reject the
/// identical mutation classes (8-byte adjacency entries shift the payload
/// boundaries, and the magic/version coupling adds the chimera class).
class FuzzBinaryLoaderV2 : public ::testing::Test {
 protected:
  void SetUp() override {
    base_path_ = ::testing::TempDir() + "/fuzz_base_v2.logccsr";
    mutant_path_ = ::testing::TempDir() + "/fuzz_mutant_v2.logccsr";
    graph::EdgeList el = graph::make_gnm(97, 300, 0xF00D);
    el.canonicalize();
    graph::EdgeList64 wide;
    wide.n = el.n;
    for (const graph::Edge& e : el.edges) wide.add(e.u, e.v);
    std::string error;
    ASSERT_TRUE(graph::write_binary_csr(base_path_, wide, &error)) << error;
    base_ = read_file(base_path_);
    ASSERT_GT(base_.size(), kHeaderBytes);
    std::memcpy(&header_, base_.data(), kHeaderBytes);
    ASSERT_EQ(header_.version, graph::kBinaryCsrVersionV2);
  }

  void TearDown() override {
    std::remove(base_path_.c_str());
    std::remove(mutant_path_.c_str());
  }

  Mutant flip(const std::string& name, std::size_t byte, unsigned bit) const {
    Mutant m{name + "@" + std::to_string(byte) + "." + std::to_string(bit),
             base_};
    m.bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
    return m;
  }

  Mutant flip_in(const std::string& name, std::size_t lo, std::size_t hi,
                 std::uint64_t seed) const {
    const std::size_t byte = lo + util::mix64(0xBEEF, seed, lo) % (hi - lo);
    const unsigned bit =
        static_cast<unsigned>(util::mix64(0xBEEF, seed, hi) % 8);
    return flip(name, byte, bit);
  }

  std::vector<Mutant> corpus() const {
    std::vector<Mutant> out;
    const std::size_t offsets_lo = kHeaderBytes;
    const std::size_t offsets_hi =
        kHeaderBytes + (static_cast<std::size_t>(header_.n) + 1) * 8;
    const std::size_t adj_hi = base_.size();  // 8-byte entries in v2

    // Every magic byte — byte 7 with bit 0 forced in, because that flip is
    // exactly the "LOGCCSR1 magic, version 2" chimera.
    for (std::size_t b = 0; b < 8; ++b)
      out.push_back(flip("magic", b, static_cast<unsigned>(
                                         util::mix64(2, b, 0) % 8)));
    out.push_back(flip("magic-v1-chimera", 7, 0));
    for (std::uint64_t s = 0; s < 3; ++s)
      out.push_back(flip_in("version", 8, 12, s));
    for (std::uint64_t s = 0; s < 3; ++s)
      out.push_back(flip_in("endian", 12, 16, s));
    for (std::uint64_t s = 0; s < 4; ++s)
      out.push_back(flip_in("field-n", 16, 24, s));
    for (std::uint64_t s = 0; s < 4; ++s)
      out.push_back(flip_in("field-arcs", 24, 32, s));
    for (std::uint64_t s = 0; s < 4; ++s)
      out.push_back(flip_in("field-edges", 32, 40, s));

    for (std::uint64_t s = 0; s < 12; ++s)
      out.push_back(flip_in("offsets", offsets_lo, offsets_hi, s));
    for (std::uint64_t s = 0; s < 12; ++s)
      out.push_back(flip_in("adjacency", offsets_hi, adj_hi, s));

    for (std::size_t cut : {std::size_t{0}, std::size_t{7}, kHeaderBytes / 2,
                            kHeaderBytes, offsets_hi - 3, offsets_hi,
                            adj_hi - 8, adj_hi - 1}) {
      Mutant m{"truncate@" + std::to_string(cut), base_};
      m.bytes.resize(cut);
      out.push_back(std::move(m));
    }
    for (std::size_t extra : {std::size_t{1}, std::size_t{8}}) {
      Mutant m{"append@" + std::to_string(extra), base_};
      m.bytes.insert(m.bytes.end(), extra, 0xAB);
      out.push_back(std::move(m));
    }
    return out;
  }

  std::string base_path_;
  std::string mutant_path_;
  std::vector<std::uint8_t> base_;
  BinaryCsrHeader header_{};
};

TEST_F(FuzzBinaryLoaderV2, BaselineIsAcceptedOnTheWidePath) {
  graph::DatasetHandle handle;
  std::string error;
  ASSERT_TRUE(graph::load_dataset_zero_copy(base_path_, handle, &error))
      << error;
  EXPECT_TRUE(handle.wide());
  EXPECT_TRUE(handle.input64().csr_backed());
  EXPECT_GE(corpus().size(), 50u);
}

TEST_F(FuzzBinaryLoaderV2, EveryMutantIsCleanlyRejectedByEveryLoadPath) {
  for (const Mutant& m : corpus()) {
    write_file(mutant_path_, m.bytes);

    graph::BinaryGraph bg;
    std::string error;
    if (bg.open(mutant_path_, &error)) {
      const bool deep_ok = bg.wide()
                               ? graph::validate_csr(bg.view64(), &error)
                               : graph::validate_csr(bg.view(), &error);
      EXPECT_FALSE(deep_ok)
          << m.name << ": corrupt file passed open + deep validation";
    } else {
      EXPECT_FALSE(error.empty()) << m.name;
    }

    graph::DatasetHandle handle;
    error.clear();
    EXPECT_FALSE(graph::load_dataset_zero_copy(mutant_path_, handle, &error))
        << m.name
        << ": load_dataset_zero_copy returned a graph from a corrupt file";
    EXPECT_FALSE(error.empty()) << m.name;
  }
}

TEST_F(FuzzBinaryLoaderV2, ChimeraHeadersAreRejectedBeforeAnyPayloadRead) {
  // Crafted (not bit-flipped) chimeras: each magic paired with the other
  // format's version number. The magic IS the format — a mismatched
  // version field must fail the envelope check, whatever the payload.
  struct Chimera {
    const char* name;
    const char* magic;
    std::uint32_t version;
  };
  const Chimera cases[] = {
      {"v2-magic-v1-version", graph::kBinaryCsrMagicV2,
       graph::kBinaryCsrVersion},
      {"v1-magic-v2-version", graph::kBinaryCsrMagic,
       graph::kBinaryCsrVersionV2},
      {"v2-magic-version-0", graph::kBinaryCsrMagicV2, 0},
      {"v2-magic-version-3", graph::kBinaryCsrMagicV2, 3},
  };
  for (const Chimera& c : cases) {
    std::vector<std::uint8_t> bytes = base_;
    BinaryCsrHeader h = header_;
    std::memcpy(h.magic, c.magic, sizeof(h.magic));
    h.version = c.version;
    std::memcpy(bytes.data(), &h, kHeaderBytes);
    write_file(mutant_path_, bytes);

    graph::BinaryGraph bg;
    std::string error;
    EXPECT_FALSE(bg.open(mutant_path_, &error)) << c.name;
    EXPECT_FALSE(error.empty()) << c.name;
    graph::DatasetHandle handle;
    error.clear();
    EXPECT_FALSE(graph::load_dataset_zero_copy(mutant_path_, handle, &error))
        << c.name;
  }
}

TEST_F(FuzzBinaryLoaderV2, WideSentinelIdsAreRejected) {
  // kInvalidVertex64 may not appear as an id: patch the first adjacency
  // entry to the sentinel. (Structure stays sorted-compatible only by
  // luck; the point is the loader rejects on the sentinel, crash-free.)
  const std::size_t offsets_hi =
      kHeaderBytes + (static_cast<std::size_t>(header_.n) + 1) * 8;
  std::vector<std::uint8_t> bytes = base_;
  const std::uint64_t sentinel = graph::kInvalidVertex64;
  std::memcpy(bytes.data() + offsets_hi, &sentinel, 8);
  write_file(mutant_path_, bytes);

  graph::BinaryGraph bg;
  std::string error;
  if (bg.open(mutant_path_, &error)) {
    EXPECT_FALSE(graph::validate_csr(bg.view64(), &error));
  }
  graph::DatasetHandle handle;
  error.clear();
  EXPECT_FALSE(graph::load_dataset_zero_copy(mutant_path_, handle, &error));
}

}  // namespace
}  // namespace logcc
