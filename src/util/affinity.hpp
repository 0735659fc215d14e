// Optional worker-lane CPU pinning (LOGCC_PIN) — a scheduling knob for the
// memory hierarchy, never a correctness knob.
//
// The runtime's determinism contract means pinning can only change *where*
// a lane runs, never what it computes: lane k's contiguous chunk segment is
// a pure function of (n, grain, lanes), and the per-lane arenas
// (util/arena.hpp) make lane k's scratch memory lane-local. Pinning closes
// the loop: with stable lane→CPU placement, the pages a lane first-touched
// stay on the NUMA node (and in the L2) of the CPU that keeps touching
// them. Modes, parsed once from LOGCC_PIN:
//
//   none     (default) leave placement to the OS scheduler;
//   compact  lane k → CPU (k mod ncpus): fills cores in order, packing
//            lanes onto the first socket before spilling to the next —
//            best when lanes share data (small working sets);
//   spread   lane k → node (k mod nodes), round-robin: interleaves lanes
//            across NUMA nodes for maximum aggregate memory bandwidth —
//            best for streaming kernels. Degenerates to compact on
//            single-node machines.
//
// Pinning applies to pool worker threads (at spawn); the caller's thread —
// lane 0 — is never pinned: the calling program may have its own placement
// policy, and stealing its affinity would outlive the dispatch. Non-Linux
// builds and unknown LOGCC_PIN values are a diagnosed no-op.
#pragma once

#include <cstddef>

namespace logcc::util {

enum class PinMode { kNone, kCompact, kSpread };

/// The process-wide pin mode, parsed from LOGCC_PIN on first use.
PinMode pin_mode();
const char* pin_mode_name();

/// Pins the calling thread to the CPU chosen for `lane` under the active
/// mode. Idempotent per thread (repeat calls with the same lane are cheap
/// no-ops) and a no-op for kNone, lane 0, or non-Linux builds.
void pin_current_thread(std::size_t lane);

/// NUMA node count detected from /sys (1 when undetectable). Exposed for
/// the runtime banner and tests.
int numa_node_count();

}  // namespace logcc::util
