#include "core/vote.hpp"

#include "util/parallel.hpp"
#include "util/random.hpp"

namespace logcc::core {

void vote(const ExpandEngine& expand, const VoteParams& params,
          RunStats& stats, std::vector<std::uint8_t>& leader) {
  const std::uint32_t num = expand.num_slots();
  leader.resize(num);
  // Fused map + min pass sharing Vanilla's kernel style: every slot scans
  // its own table (live: the deterministic min-id rule) or draws a
  // counter-based coin keyed on its vertex id (dormant) — no shared RNG
  // stream and no cross-slot writes, so one parallel map realises the whole
  // step with thread-count-invariant output.
  util::parallel_for(0, num, [&](std::size_t s) {
    const VertexId u = expand.vertex_of(static_cast<std::uint32_t>(s));
    std::uint8_t lead = 1;
    if (expand.live_after(static_cast<std::uint32_t>(s))) {
      // Deterministic: the minimum id in the (complete) table wins.
      expand.table(static_cast<std::uint32_t>(s)).for_each([&](VertexId v) {
        if (v < u) lead = 0;
      });
    } else {
      const double coin =
          util::counter_uniform(util::mix64(params.seed, 0xD07E, u));
      if (!(coin < params.dormant_leader_prob)) lead = 0;
    }
    leader[s] = lead;
  });
  stats.pram_steps += 1;
}

}  // namespace logcc::core
