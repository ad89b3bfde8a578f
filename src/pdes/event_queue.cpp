#include "pdes/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace exasim {

namespace {

/// Smallest ring a new run starts with.
constexpr std::size_t kMinRing = 16;

}  // namespace

EventQueue::EventQueue() {
  // Idle slots as a stack with slot 0 on top, so runs fill low slots first.
  for (int i = 0; i < kMaxRuns; ++i) idle_[i] = static_cast<std::uint8_t>(kMaxRuns - 1 - i);
  idle_count_ = kMaxRuns;
}

void EventQueue::reserve(std::size_t n) {
  const std::size_t fallback = std::min(n, kRunFloor);
  slab_.reserve(fallback);
  free_.reserve(fallback);
  heap_.reserve(fallback);
  if (n > kRunFloor && idle_count_ > 0) {
    std::vector<Event>& ring = runs_[idle_[idle_count_ - 1]].ring;
    const std::size_t want = std::bit_ceil(n - kRunFloor);
    if (ring.size() < want) ring = std::vector<Event>(want);
  }
}

// ---------------------------------------------------------------------------
// Fallback heap: slot-stable slab + 24-byte entry heap
// ---------------------------------------------------------------------------

std::uint32_t EventQueue::slab_put(Event&& ev) {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    slab_[slot] = std::move(ev);
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(slab_.size());
  slab_.push_back(std::move(ev));
  return slot;
}

void EventQueue::heap_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!entry_less(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::heap_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && entry_less(heap_[child + 1], heap_[child])) ++child;
    if (!entry_less(heap_[child], e)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = e;
}

void EventQueue::fallback_push(Event&& ev) {
  Entry e;
  e.time = ev.time;
  e.ps = pack_ps(ev.priority, ev.source);
  e.slot = slab_put(std::move(ev));
  heap_.push_back(e);
  heap_up(heap_.size() - 1);
}

Event EventQueue::fallback_pop() {
  const std::uint32_t slot = heap_.front().slot;
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) heap_down(0);
  Event ev = std::move(slab_[slot]);
  free_.push_back(slot);
  return ev;
}

// ---------------------------------------------------------------------------
// Sorted runs
// ---------------------------------------------------------------------------

void EventQueue::heads_down(std::size_t i) {
  const std::size_t n = static_cast<std::size_t>(live_);
  const Head h = heads_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && key_less(heads_[child + 1].key, heads_[child].key)) ++child;
    if (!key_less(heads_[child].key, h.key)) break;
    heads_[i] = heads_[child];
    i = child;
  }
  heads_[i] = h;
}

void EventQueue::start_run(Event&& ev, const Key& k) {
  const std::uint8_t r = idle_[--idle_count_];
  Run& run = runs_[r];
  if (run.ring.empty()) run.ring.resize(kMinRing);
  run.ring[0] = std::move(ev);
  run.head = 0;
  run.count = 1;
  // No live tail is <= k, so the new run's tail is the smallest.
  std::copy_backward(tails_.begin(), tails_.begin() + live_, tails_.begin() + live_ + 1);
  std::copy_backward(tail_run_.begin(), tail_run_.begin() + live_,
                     tail_run_.begin() + live_ + 1);
  tails_[0] = k;
  tail_run_[0] = r;
  // Sift the new head up.
  std::size_t i = static_cast<std::size_t>(live_++);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!key_less(k, heads_[parent].key)) break;
    heads_[i] = heads_[parent];
    i = parent;
  }
  heads_[i] = Head{k, r};
  ++stats_.runs_created;
}

void EventQueue::retire_front_run() {
  const std::uint8_t r = heads_[0].run;
  const int at = static_cast<int>(
      std::find(tail_run_.begin(), tail_run_.begin() + live_, r) - tail_run_.begin());
  std::copy(tails_.begin() + at + 1, tails_.begin() + live_, tails_.begin() + at);
  std::copy(tail_run_.begin() + at + 1, tail_run_.begin() + live_, tail_run_.begin() + at);
  heads_[0] = heads_[--live_];
  if (live_ > 0) heads_down(0);
  idle_[idle_count_++] = r;
}

// ---------------------------------------------------------------------------
// Queue operations
// ---------------------------------------------------------------------------

void EventQueue::push(Event&& ev) {
  ++size_;
  if (live_ == 0 && size_ <= kRunFloor) {
    fallback_push(std::move(ev));  // A small queue is the fallback heap alone.
    return;
  }
  const Key k = key_of_event(ev);
  // Best fit: the live run with the greatest tail <= k.
  const auto fit = std::upper_bound(tails_.begin(), tails_.begin() + live_, k,
                                    [](const Key& a, const Key& b) { return key_less(a, b); });
  if (fit != tails_.begin()) {
    const auto at = static_cast<std::size_t>(fit - tails_.begin()) - 1;
    Run& run = runs_[tail_run_[at]];
    std::size_t cap = run.ring.size();
    if (run.count == cap) {
      // Full: unroll into a ring twice the size.
      std::vector<Event> grown(cap * 2);
      for (std::size_t i = 0; i < cap; ++i) {
        grown[i] = std::move(run.ring[(run.head + i) & (cap - 1)]);
      }
      run.ring.swap(grown);
      run.head = 0;
      cap *= 2;
    }
    run.ring[(run.head + run.count) & (cap - 1)] = std::move(ev);
    ++run.count;
    tails_[at] = k;  // Still below the next tail, which was > k.
    return;
  }
  if (live_ < kMaxRuns && size_ > kRunFloor) {
    start_run(std::move(ev), k);
    return;
  }
  fallback_push(std::move(ev));
}

void EventQueue::push_bulk(std::vector<Event>& evs) {
  if (evs.empty()) return;
  ++stats_.bulk_merges;
  if (evs.size() * 8 >= heap_.size()) {
    // Batch large relative to the heap: append, then one Floyd rebuild.
    for (Event& ev : evs) {
      Entry e;
      e.time = ev.time;
      e.ps = pack_ps(ev.priority, ev.source);
      e.slot = slab_put(std::move(ev));
      heap_.push_back(e);
    }
    size_ += evs.size();
    for (std::size_t i = heap_.size() / 2; i-- > 0;) heap_down(i);
  } else {
    for (Event& ev : evs) push(std::move(ev));
  }
  evs.clear();
}

Event EventQueue::pop() {
  --size_;
  ++stats_.pops;
  // Keys are unique, so a run head not below the fallback root is above it.
  if (live_ == 0 || (!heap_.empty() && !key_less_entry(heads_[0].key, heap_.front()))) {
    return fallback_pop();
  }
  ++stats_.run_pops;
  Run& run = runs_[heads_[0].run];
  const std::size_t mask = run.ring.size() - 1;
  Event ev = std::move(run.ring[run.head]);
  run.head = static_cast<std::uint32_t>((run.head + 1) & mask);
  if (--run.count == 0) {
    retire_front_run();
  } else {
    heads_[0].key = key_of_event(run.ring[run.head]);
    heads_down(0);
  }
  return ev;
}

SimTime EventQueue::min_time() const {
  SimTime t = heap_.empty() ? kSimTimeNever : heap_.front().time;
  if (live_ > 0 && heads_[0].key.time < t) t = heads_[0].key.time;
  return t;
}

}  // namespace exasim
