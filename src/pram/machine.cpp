#include "pram/machine.hpp"

#include <algorithm>
#include <span>

namespace logcc::pram {

const char* to_string(WritePolicy p) {
  switch (p) {
    case WritePolicy::kArbitrary: return "arbitrary";
    case WritePolicy::kPriority: return "priority";
    case WritePolicy::kCombineMin: return "combine-min";
    case WritePolicy::kCombineSum: return "combine-sum";
  }
  return "?";
}

Machine::Machine(std::size_t memory_words, WritePolicy policy,
                 std::uint64_t seed)
    : memory_(memory_words, 0), policy_(policy), seed_(seed) {}

void Machine::begin_step(std::size_t n_procs) {
  pending_.clear();
  ledger_.steps += 1;
  ledger_.work += n_procs;
}

void Machine::end_step() {
  if (pending_.empty()) return;
  ledger_.writes += pending_.size();
  // Group concurrent writes per cell; the sort key mirrors the resolution
  // policy so the winner (or combination) is found in one pass.
  std::stable_sort(pending_.begin(), pending_.end(),
                   [](const PendingWrite& a, const PendingWrite& b) {
                     return a.addr < b.addr;
                   });
  const std::uint64_t step_salt =
      util::mix64(seed_, ledger_.steps);
  std::size_t i = 0;
  while (i < pending_.size()) {
    std::size_t j = i;
    while (j < pending_.size() && pending_[j].addr == pending_[i].addr) ++j;
    const std::size_t addr = pending_[i].addr;
    const std::span<const PendingWrite> group(pending_.data() + i, j - i);
    if (j - i > 1) ledger_.conflicts += 1;
    switch (policy_) {
      case WritePolicy::kArbitrary: {
        // Seeded random winner: every (seed, step, cell) picks an
        // order-independent champion among the contending processors.
        std::size_t win = i;
        std::uint64_t best = 0;
        for (std::size_t k = i; k < j; ++k) {
          std::uint64_t ticket =
              util::mix64(step_salt ^ addr, pending_[k].proc);
          if (k == i || ticket > best) {
            best = ticket;
            win = k;
          }
        }
        memory_[addr] = pending_[win].value;
        break;
      }
      case WritePolicy::kPriority: {
        memory_[addr] = std::min_element(group.begin(), group.end(),
                                         [](const PendingWrite& a,
                                            const PendingWrite& b) {
                                           return a.proc < b.proc;
                                         })
                            ->value;
        break;
      }
      case WritePolicy::kCombineMin: {
        memory_[addr] = std::min_element(group.begin(), group.end(),
                                         [](const PendingWrite& a,
                                            const PendingWrite& b) {
                                           return a.value < b.value;
                                         })
                            ->value;
        break;
      }
      case WritePolicy::kCombineSum: {
        Word s = 0;
        for (std::size_t k = i; k < j; ++k) s += pending_[k].value;
        memory_[addr] = s;
        break;
      }
    }
    i = j;
  }
  pending_.clear();
}

}  // namespace logcc::pram
