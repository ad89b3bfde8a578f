#pragma once

#include <cstddef>

namespace exasim::util {

// ---------------------------------------------------------------------------
// Hot-path allocation pool (DESIGN.md §9)
//
// The simulator's per-event constant factor is the product: xSim's whole
// point is oversubscription, so a run delivers millions of events, each of
// which used to pay one general-purpose heap allocation for its payload.
// pool_alloc/pool_free replace that with per-thread size-class free lists
// carved from process-lifetime slabs: the steady-state cost is a pointer
// pop/push, with zero locks and zero heap traffic.
//
// Thread model. Free lists are thread-local, which for the sharded PDES
// engine means pool-local to the owning LP group (each group runs on exactly
// one worker thread). A payload scheduled cross-group is allocated on the
// producer's thread and freed on the consumer's; the block then simply joins
// the consumer's free list and re-enters circulation there. Window-barrier
// mailbox traffic is symmetric across groups, so the lists stay balanced
// without a central return path — and every hand-off is already separated by
// the window barriers, so no synchronization is needed at all.
//
// Provenance. Every block carries a 16-byte header recording whether it came
// from a slab or the plain heap, so the runtime toggle (EXASIM_NO_POOL /
// set_pool_enabled) can flip at any time: a block is always
// returned the way it was obtained. Slabs live for the whole process (they
// are anchored in a global registry, so leak checkers see them as reachable
// and cross-thread block migration can never dangle).
//
// Determinism. Pooling affects only *where* bytes live, never the engine's
// (time, priority, source, seq) event order — the simulated schedule is
// bit-identical with pools on or off, which tests/test_machine verifies.
// ---------------------------------------------------------------------------

/// Whether pool_alloc serves from the slab pool (true) or falls through to
/// the plain heap (false). Initialized from EXASIM_NO_POOL (set and nonzero
/// disables pooling); flip at runtime via set_pool_enabled (tests, benches).
bool pool_enabled();
void set_pool_enabled(bool enabled);

/// Largest request served from a slab; bigger blocks come from the heap.
inline constexpr std::size_t kPoolMaxBytes = 65536;

/// Bytes every block carries in front of its user region (see Provenance).
inline constexpr std::size_t kPoolHeaderBytes = 16;

/// Allocates `bytes` (16-byte aligned). Never fails softly: throws
/// std::bad_alloc like operator new.
void* pool_alloc(std::size_t bytes);

/// Returns a pool_alloc block. Safe from any thread and under any toggle
/// state (provenance header). nullptr is ignored.
void pool_free(void* p);

}  // namespace exasim::util
