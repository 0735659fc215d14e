// Span log queries, provenance probes, input generation and the
// JSON result line.
#include <sys/statfs.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common.hpp"
#include "graph/binary_io.hpp"
#include "graph/generators.hpp"

namespace perfbench {

double SpanLog::duration(int id) const {
  return spans_[id].end.cpu - spans_[id].start.cpu;
}

double SpanLog::self_time(int id) const {
  double children = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent == id) children += duration(static_cast<int>(i));
  return duration(id) - children;
}

std::vector<double> SpanLog::durations(const char* name) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (std::strcmp(spans_[i].name, name) == 0)
      out.push_back(duration(static_cast<int>(i)));
  return out;
}

std::vector<double> SpanLog::wall_durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (std::strcmp(s.name, name) == 0)
      out.push_back(s.end.wall - s.start.wall);
  return out;
}

std::vector<double> SpanLog::values(const char* name) const {
  std::vector<double> out;
  for (const Count& c : counts_)
    if (std::strcmp(c.name, name) == 0) out.push_back(c.value);
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::FILE* fp = std::fopen(path.c_str(), "w");
  if (!fp) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start.wall;
  std::fprintf(fp, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(fp,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"cpu_us\":%.3f",
                 i == 0 ? "" : ",\n", s.name, (s.start.wall - t0) * 1e6,
                 (s.end.wall - s.start.wall) * 1e6, i, s.parent,
                 duration(static_cast<int>(i)) * 1e6);
    for (const Count& c : counts_)
      if (c.span == static_cast<int>(i))
        std::fprintf(fp, ",\"%s\":%.17g", c.name, c.value);
    std::fprintf(fp, "}}");
  }
  std::fprintf(fp, "\n]}\n");
  return std::fclose(fp) == 0;
}

std::uint64_t steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t field[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0;
  for (std::uint64_t& f : field)
    if (!(in >> f)) return 0;
  return field[7];
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string filesystem_of(const std::string& path) {
  struct statfs st;
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5" << std::flush;
  return static_cast<bool>(out);
}

bool remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  return !ec;
}

bool make_dirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

std::uint64_t generate(const std::string& family, std::uint64_t n,
                       std::uint64_t seed, const std::string& csr_path,
                       std::uint64_t keep_edges,
                       std::vector<logcc::graph::Edge>* kept) {
  using namespace logcc;
  const graph::FamilyStream fs = graph::make_family_stream(family, n, seed);
  kept->clear();
  kept->reserve(keep_edges);
  // The writer enumerates twice; the first pass also keeps the stream.
  const graph::EdgeEnumerator keep_first = [&](const graph::EdgeSink& sink) {
    const bool keep = kept->empty();
    fs.enumerate([&](std::uint64_t u, std::uint64_t v) {
      if (keep && kept->size() < keep_edges)
        kept->push_back({static_cast<graph::VertexId>(u),
                         static_cast<graph::VertexId>(v)});
      sink(u, v);
    });
  };
  std::string error;
  if (!graph::write_binary_csr_streaming(csr_path, fs.num_vertices, keep_first,
                                         &error)) {
    std::fprintf(stderr, "perfbench: cannot write %s: %s\n", csr_path.c_str(),
                 error.c_str());
    return 0;
  }
  return fs.num_vertices;
}

void print_json(bool correct, const Tally& tally, const Metrics& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.items()) {
    os << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
       << (std::isfinite(m.value) ? m.value : -1.0) << ", \"unit\": \""
       << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
