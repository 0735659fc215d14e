// bench_mpc — sharded MPC executor: shard-count sweep.
//
//   $ ./bench/bench_mpc [--n=16384] [--shards=1,2,4,8] [--json=bench_mpc.json]
//
// The claim under test: the sharded executor's semantics are a property of
// the graph, not the partitioning. For every workload the sweep checks that
// labels are identical across shard counts (and match the union-find
// canonical min-id labels), and that the charged round count — supersteps
// and the engine ledger — is invariant too. What DOES scale with shards is
// the cross-shard message volume, which the table and JSON report.
//
// Exit status is nonzero on any label or round-count mismatch, so CI can
// run this as a smoke gate and archive the JSON artifact.
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/union_find.hpp"
#include "bench_support.hpp"
#include "mpc/sharded.hpp"
#include "util/cli.hpp"

namespace {

std::vector<std::uint32_t> parse_shards(const std::string& spec) {
  std::vector<std::uint32_t> out;
  std::uint32_t cur = 0;
  bool have = false;
  for (char c : spec) {
    if (c >= '0' && c <= '9') {
      cur = cur * 10 + static_cast<std::uint32_t>(c - '0');
      have = true;
    } else if (have) {
      out.push_back(cur);
      cur = 0;
      have = false;
    }
  }
  if (have) out.push_back(cur);
  if (out.empty()) out = {1, 2, 4, 8};
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace logcc;
  using namespace logcc::bench;

  util::Cli cli(argc, argv);
  const std::uint64_t n =
      static_cast<std::uint64_t>(cli.get_int("n", 16384, "vertex count"));
  const std::string shard_spec = cli.get_string(
      "shards", "1,2,4,8", "comma-separated shard counts to sweep");
  const std::string json_path = cli.get_string(
      "json", "", "write the sweep document here ('-' = stdout)");
  cli.finish();
  const std::vector<std::uint32_t> shard_counts = parse_shards(shard_spec);

  header("MPC sharded executor: shard-count sweep",
         "claim: labels and charged rounds are shard-count invariant; only "
         "cross-shard message volume scales");

  struct W {
    std::string name;
    graph::EdgeList el;
  };
  std::vector<W> ws;
  ws.push_back({"path", graph::make_path(n)});
  ws.push_back({"gnm m=4n", graph::make_gnm(n, 4 * n, 5)});
  ws.push_back({"rmat", graph::make_rmat(13, 8 * n, 6)});
  ws.push_back({"grid", graph::make_grid(64, n / 64)});
  ws.push_back({"star", graph::make_star(n)});

  struct Row {
    std::string workload;
    std::uint32_t shards;
    std::uint64_t rounds;
    std::uint64_t ledger_rounds;
    std::uint64_t messages;
    double seconds;
    bool ok;
  };
  std::vector<Row> rows;
  bool all_ok = true;

  util::TextTable table({"workload", "shards", "supersteps", "ledger rounds",
                         "cross-shard msgs", "time ms", "labels"});
  for (const W& w : ws) {
    // Canonical min-id oracle via the wide union-find.
    std::vector<graph::Edge64> wide(w.el.edges.size());
    for (std::size_t i = 0; i < wide.size(); ++i)
      wide[i] = {w.el.edges[i].u, w.el.edges[i].v};
    const auto oracle = baselines::union_find_cc(
        graph::ArcsInput64::from_edges(w.el.n, wide));

    std::uint64_t base_rounds = 0, base_ledger = 0;
    for (std::size_t si = 0; si < shard_counts.size(); ++si) {
      mpc::ShardedMpcOptions opt;
      opt.shards = shard_counts[si];
      util::Timer timer;
      const auto r = mpc::sharded_mpc_cc(w.el, opt);
      const double seconds = timer.seconds();

      if (si == 0) {
        base_rounds = r.rounds;
        base_ledger = r.ledger.rounds;
      }
      const bool ok = r.labels == oracle.labels && r.rounds == base_rounds &&
                      r.ledger.rounds == base_ledger;
      all_ok = all_ok && ok;
      rows.push_back({w.name, r.shards_used, r.rounds, r.ledger.rounds,
                      r.cross_shard_messages, seconds, ok});
      table.row()
          .add(w.name)
          .add_int(static_cast<long long>(r.shards_used))
          .add_int(static_cast<long long>(r.rounds))
          .add_int(static_cast<long long>(r.ledger.rounds))
          .add_int(static_cast<long long>(r.cross_shard_messages))
          .add_double(seconds * 1e3, 1)
          .add(ok ? "match" : "MISMATCH");
    }
  }
  table.print();
  std::printf("\nlabels + charged rounds invariant across shard counts: %s\n",
              all_ok ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    std::FILE* f =
        json_path == "-" ? stdout : std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench_mpc: cannot write '%s'\n",
                   json_path.c_str());
      return 2;
    }
    std::fprintf(f, "{\n  \"schema\": \"logcc-bench-mpc-v1\",\n");
    std::fprintf(f, "  \"n\": %llu,\n  \"pass\": %s,\n  \"sweep\": [\n",
                 static_cast<unsigned long long>(n), all_ok ? "true" : "false");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"workload\": \"%s\", \"shards\": %u, "
                   "\"supersteps\": %llu, \"ledger_rounds\": %llu, "
                   "\"cross_shard_messages\": %llu, \"seconds\": %.6f, "
                   "\"labels_match\": %s}%s\n",
                   json_escape(r.workload).c_str(), r.shards,
                   static_cast<unsigned long long>(r.rounds),
                   static_cast<unsigned long long>(r.ledger_rounds),
                   static_cast<unsigned long long>(r.messages), r.seconds,
                   r.ok ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    if (f != stdout) std::fclose(f);
  }
  return all_ok ? 0 : 1;
}
