#include "util/pool.hpp"

#include <array>
#include <mutex>
#include <vector>

#include "util/counters.hpp"

namespace exasim::util {

namespace {

// Block layout: [BlockHeader (16 B)][user bytes]. The header keeps the user
// region 16-byte aligned, records provenance for pool_free, and doubles as
// the free-list link while the block is parked.
struct BlockHeader {
  std::uint32_t magic;       ///< kPoolMagic or kHeapMagic.
  std::uint32_t size_class;  ///< Index into the class table (pool blocks).
  union {
    std::uint64_t user_bytes;  ///< Heap blocks: original allocation size.
    BlockHeader* next;         ///< Pool blocks: free-list link while parked.
  };
};
static_assert(sizeof(BlockHeader) == kPoolHeaderBytes,
              "header must preserve 16-byte alignment");

constexpr std::uint32_t kPoolMagic = 0x50534158u;  // "XASP"
constexpr std::uint32_t kHeapMagic = 0x48534158u;  // "XASH"

// Size classes for the pooled fast path. Header-only payloads are 16–64
// bytes; a message carrying real bytes is one block sized to them and rides
// the larger classes. From 64 B to 2 KiB the classes are 64 B apart, so a
// saved fiber-stack image, a whole number of 64-byte grains (640 B per
// suspended modeled heat3d rank under exasim_run; fiber.hpp), fills its
// block exactly however shallow the application's frames are. Anything
// above the last class goes straight to the heap (bulk checkpoint payloads
// — rare and already dominated by the memcpy).
constexpr auto kClassSizes = [] {
  std::array<std::size_t, 38> sizes{};
  std::size_t i = 0;
  sizes[i++] = 32;
  for (std::size_t b = 64; b <= 2048; b += 64) sizes[i++] = b;
  for (std::size_t b = 4096; b <= 65536; b *= 2) sizes[i++] = b;
  return sizes;
}();
constexpr std::size_t kClassCount = kClassSizes.size();
static_assert(kClassSizes[kClassCount - 1] == kPoolMaxBytes, "largest class is kPoolMaxBytes");
constexpr std::size_t kSlabBytes = 256 * 1024;

std::size_t class_for(std::size_t bytes) {
  for (std::size_t c = 0; c < kClassCount; ++c) {
    if (bytes <= kClassSizes[c]) return c;
  }
  return kClassCount;  // Oversize: heap.
}

/// Per-thread pool state. Free-listed blocks live in slabs, which are
/// process-lifetime (anchored in the registry), so a block freed by a
/// short-lived worker thread stays valid wherever it migrated from. Its
/// traffic is counted in the thread's block (util/counters.hpp).
struct ThreadPool {
  BlockHeader* free_list[kClassCount] = {nullptr};
  /// Bump region of the current slab per class carve source.
  std::byte* slab_cursor = nullptr;
  std::size_t slab_remaining = 0;
};

thread_local constinit ThreadPool t_pool;

struct Registry {
  std::mutex mu;
  std::vector<void*> slabs;  ///< Anchor: slabs are reachable until exit.
};

Registry& registry() {
  static Registry* r = new Registry;  // Immortal: outlives thread_local dtors.
  return *r;
}

void* heap_block(std::size_t bytes) {
  count(Counter::kPoolHeapAllocs);
  auto* h = static_cast<BlockHeader*>(::operator new(sizeof(BlockHeader) + bytes));
  h->magic = kHeapMagic;
  h->size_class = 0;
  h->user_bytes = bytes;
  return h + 1;
}

}  // namespace

void* pool_alloc(std::size_t bytes) {
  count(Counter::kPoolAllocs);
  const std::size_t c = class_for(bytes);
  if (!kPoolSlabs || c >= kClassCount) return heap_block(bytes);

  ThreadPool& tp = t_pool;

  if (BlockHeader* h = tp.free_list[c]; h != nullptr) {
    tp.free_list[c] = h->next;
    count(Counter::kPoolRecycled);
    return h + 1;
  }

  const std::size_t block = sizeof(BlockHeader) + kClassSizes[c];
  if (tp.slab_remaining < block) {
    // Carve a fresh slab. Slabs are process-lifetime by design (see header);
    // anchoring them in the registry keeps cross-thread migration safe and
    // leak checkers quiet. The tail of the previous slab is abandoned —
    // bounded waste (< one max-class block per slab turnover).
    auto* slab = ::operator new(kSlabBytes);
    {
      Registry& r = registry();
      std::lock_guard<std::mutex> lock(r.mu);
      r.slabs.push_back(slab);
    }
    tp.slab_cursor = static_cast<std::byte*>(slab);
    tp.slab_remaining = kSlabBytes;
    count(Counter::kPoolSlabAllocs);
    count(Counter::kPoolSlabBytes, kSlabBytes);
  }
  auto* h = reinterpret_cast<BlockHeader*>(tp.slab_cursor);
  tp.slab_cursor += block;
  tp.slab_remaining -= block;
  count(Counter::kPoolCarvedBytes, block);
  h->magic = kPoolMagic;
  h->size_class = static_cast<std::uint32_t>(c);
  return h + 1;
}

void pool_free(void* p) {
  if (p == nullptr) return;
  count(Counter::kPoolFrees);
  auto* h = static_cast<BlockHeader*>(p) - 1;
  if (h->magic == kHeapMagic) {
    ::operator delete(h);
    return;
  }
  ThreadPool& tp = t_pool;
  // Pool block: park it on *this* thread's free list (migration — see
  // header).
  const std::size_t c = h->size_class;
  h->next = tp.free_list[c];
  tp.free_list[c] = h;
}

}  // namespace exasim::util
