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
// from a slab or the plain heap (oversize requests), so pool_free returns a
// block the way it was obtained. Slabs live for the whole process (they are
// anchored in a global registry, so leak checkers see them as reachable and
// cross-thread block migration can never dangle).
//
// AddressSanitizer builds take every block from the heap (kPoolSlabs is
// false), so ASan sees redzones, quarantine and leaks for each one.
//
// Determinism. Pooling affects only *where* bytes live, never the engine's
// (time, priority, source, seq) event order — the simulated schedule is
// bit-identical on either route, which the ASan leg of scripts/tier1.sh
// checks against the pinned results of tests/test_machine and test_exp.
// ---------------------------------------------------------------------------

/// Whether pool_alloc serves requests up to kPoolMaxBytes from slabs (true)
/// or every request from the heap (false: AddressSanitizer builds).
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kPoolSlabs = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
inline constexpr bool kPoolSlabs = false;
#else
inline constexpr bool kPoolSlabs = true;
#endif
#else
inline constexpr bool kPoolSlabs = true;
#endif

/// Largest request served from a slab; bigger blocks come from the heap.
inline constexpr std::size_t kPoolMaxBytes = 65536;

/// Bytes every block carries in front of its user region (see Provenance).
inline constexpr std::size_t kPoolHeaderBytes = 16;

/// Allocates `bytes` (16-byte aligned). Never fails softly: throws
/// std::bad_alloc like operator new.
void* pool_alloc(std::size_t bytes);

/// Returns a pool_alloc block. Safe from any thread (provenance header).
/// nullptr is ignored.
void pool_free(void* p);

}  // namespace exasim::util
