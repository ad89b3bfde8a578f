#include "util/counters.hpp"

#include <algorithm>
#include <mutex>
#include <vector>

namespace exasim::util {

using detail::CounterBlock;

thread_local constinit CounterBlock* detail::t_block = nullptr;

namespace {

struct Registry {
  std::mutex mu;
  std::vector<const CounterBlock*> live;
  Counters retired;  ///< Sum of the blocks of exited threads.
};

Registry& registry() {
  static Registry* r = new Registry;  // Immortal: outlives thread_local dtors.
  return *r;
}

Counters values(const CounterBlock& b) {
  Counters c;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    c.v[i] = b.slots[i].load(std::memory_order_relaxed);
  }
  return c;
}

thread_local constinit bool t_retired = false;

/// Registers this thread's block on its first count; retires it at exit.
struct BlockOwner {
  CounterBlock block;
  BlockOwner() {
    std::lock_guard<std::mutex> lock(registry().mu);
    registry().live.push_back(&block);
  }
  ~BlockOwner() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.retired += values(block);
    r.live.erase(std::find(r.live.begin(), r.live.end(), &block));
    detail::t_block = nullptr;
    t_retired = true;
  }
};

}  // namespace

CounterBlock* detail::attach_block() {
  static CounterBlock discard;  // Counts made in thread teardown, after retiring.
  if (t_retired) return &discard;
  thread_local BlockOwner owner;
  return t_block = &owner.block;
}

Counters thread_counters() {
  return detail::t_block != nullptr ? values(*detail::t_block) : Counters{};
}

Counters process_counters() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  Counters total = r.retired;
  for (const CounterBlock* b : r.live) total += values(*b);
  return total;
}

}  // namespace exasim::util
