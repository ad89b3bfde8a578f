#include "fiber/stack_pool.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdio>
#include <new>

#include "util/counters.hpp"
#include "util/pool.hpp"

// Recycled stacks under AddressSanitizer: frames abandoned on a parked stack
// (a fiber destroyed while suspended) leave stale redzone poison in ASan's
// shadow; a later fiber reusing the stack would trip false positives. Clear
// the shadow on release.
#if defined(__SANITIZE_ADDRESS__)
#define EXASIM_ASAN_STACKS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define EXASIM_ASAN_STACKS 1
#endif
#endif
#if defined(EXASIM_ASAN_STACKS)
extern "C" void __asan_unpoison_memory_region(void const volatile* addr, std::size_t size);
#define EXASIM_UNPOISON_STACK(p, n) __asan_unpoison_memory_region((p), (n))
#else
#define EXASIM_UNPOISON_STACK(p, n) ((void)0)
#endif

namespace exasim {

namespace {

std::size_t page_bytes() {
  static const std::size_t ps = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return ps;
}

/// Reads the kernel's VMA limit; falls back to the Linux default when the
/// proc file is unavailable (containers, non-Linux).
std::uint64_t read_max_map_count() {
  std::uint64_t count = 65530;
  if (std::FILE* f = std::fopen("/proc/sys/vm/max_map_count", "re")) {
    unsigned long long v = 0;
    if (std::fscanf(f, "%llu", &v) == 1 && v > 0) count = v;
    std::fclose(f);
  }
  return count;
}

}  // namespace

FiberStackPool::FiberStackPool() {
  // Each guarded stack holds two VMAs (guard + writable); everything else in
  // the process — code, heap, libraries, slabs, unguarded stacks — shares
  // the rest. Reserve a generous margin so a 32,768-rank machine (the
  // paper's Table II scale) fits under the default 65,530 with every rank
  // that can be guarded guarded.
  const std::uint64_t max_maps = read_max_map_count();
  const std::uint64_t margin = 8192;
  guard_budget_ = max_maps > 2 * margin ? (max_maps - margin) / 2 : 0;
}

FiberStackPool& FiberStackPool::instance() {
  static FiberStackPool* pool = new FiberStackPool;  // Immortal (see slabs).
  return *pool;
}

FiberStackPool::Stack FiberStackPool::map_locked(std::size_t bytes) {
  const std::size_t ps = page_bytes();
  const bool guarded = stats_.guarded < guard_budget_;
  const std::size_t total = guarded ? bytes + ps : bytes;
  void* raw = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  if (!guarded) {
    ++stats_.unguarded;
    return Stack{raw, bytes, false};
  }
  // Low page becomes the guard: stacks grow down, so an overflow walks off
  // the low end and hits PROT_NONE (SIGSEGV) instead of a neighboring
  // mapping.
  if (::mprotect(raw, ps, PROT_NONE) != 0) {
    ::munmap(raw, total);
    throw std::bad_alloc();
  }
  ++stats_.guarded;
  return Stack{static_cast<std::byte*>(raw) + ps, bytes, true};
}

void FiberStackPool::unmap_locked(const Stack& stack) {
  if (stack.guarded) {
    const std::size_t ps = page_bytes();
    ::munmap(static_cast<std::byte*>(stack.base) - ps, stack.bytes + ps);
    --stats_.guarded;
  } else {
    ::munmap(stack.base, stack.bytes);
    --stats_.unguarded;
  }
  ++stats_.unmapped;
}

FiberStackPool::Stack FiberStackPool::acquire(std::size_t bytes) {
  const std::size_t ps = page_bytes();
  bytes = (bytes + ps - 1) / ps * ps;

  std::lock_guard<std::mutex> lock(mu_);
  Stack out;
  if (util::pool_enabled()) {
    auto it = free_.find(bytes);
    if (it != free_.end() && !it->second.empty()) {
      out = it->second.back();
      it->second.pop_back();
      util::count(util::Counter::kStacksReused);
      --stats_.pooled;
    }
  }
  if (out.base == nullptr) {
    out = map_locked(bytes);
    util::count(util::Counter::kStacksMapped);
  }
  ++stats_.outstanding;
  if (stats_.outstanding > stats_.high_water) stats_.high_water = stats_.outstanding;
  return out;
}

void FiberStackPool::release(Stack stack) {
  if (stack.base == nullptr) return;
  EXASIM_UNPOISON_STACK(stack.base, stack.bytes);
  std::lock_guard<std::mutex> lock(mu_);
  --stats_.outstanding;
  if (!util::pool_enabled()) {
    unmap_locked(stack);
    return;
  }
  // Park it warm: mapping, guard page and touched pages stay, so the next
  // acquire of this size costs no system call and no page fault. Parked
  // stacks per size never exceed that size's outstanding high-water count.
  free_[stack.bytes].push_back(stack);
  ++stats_.pooled;
}

FiberStackPool::Stats FiberStackPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void FiberStackPool::trim() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [bytes, stacks] : free_) {
    for (const Stack& s : stacks) unmap_locked(s);
  }
  free_.clear();
  stats_.pooled = 0;
}

}  // namespace exasim
