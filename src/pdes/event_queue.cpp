#include "pdes/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace exasim {

EventQueue::EventQueue() {
  // Idle slots as a stack with slot 0 on top, so runs fill low slots first.
  for (int i = 0; i < kMaxRuns; ++i) idle_[i] = static_cast<std::uint8_t>(kMaxRuns - 1 - i);
  idle_count_ = kMaxRuns;
}

EventQueue::~EventQueue() {
  for (int i = 0; i < live_; ++i) {
    const Run& run = runs_[heads_[i].run];
    Chunk* c = run.first;
    for (std::uint32_t k = 0, at = run.head; k < run.count; ++k, ++at) {
      if (at == kChunkEvents) {
        c = c->next;
        at = 0;
      }
      c->at(at)->~Event();
    }
  }
}

void EventQueue::reserve(std::size_t n) {
  const std::size_t fallback = std::min(n, kRunFloor);
  slab_.reserve(fallback);
  free_.reserve(fallback);
  heap_.reserve(fallback);
  const std::size_t run_events = n > kRunFloor ? n - kRunFloor : 0;
  if (run_events > run_capacity()) {
    add_chunks((run_events - run_capacity() + kChunkEvents - 1) / kChunkEvents);
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

EventQueue::Chunk* EventQueue::take_chunk() {
  Chunk* c = free_chunks_;
  if (c != nullptr) {
    free_chunks_ = c->next;
  } else {
    if (untouched_left_ == 0) add_chunks(kGrowChunks);
    c = untouched_++;
    --untouched_left_;
  }
  c->next = nullptr;
  return c;
}

void EventQueue::add_chunks(std::size_t n) {
  while (untouched_left_ > 0) {
    give_chunk(untouched_++);
    --untouched_left_;
  }
  // Default-initialized: no byte of the block is written here.
  untouched_ = chunk_blocks_.emplace_back(new Chunk[n]).get();
  untouched_left_ = n;
  chunk_count_ += n;
}

void EventQueue::start_run(Event&& ev, const Key& k) {
  const std::uint8_t r = idle_[--idle_count_];
  Run& run = runs_[r];
  run.first = run.last = take_chunk();
  ::new (run.first->at(0)) Event(std::move(ev));
  run.head = 0;
  run.tail = 1;
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
  Run& run = runs_[r];
  if (run.first != nullptr) give_chunk(run.first);  // Null if it ended a chunk.
  run.first = run.last = nullptr;
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
    if (run.tail == kChunkEvents) {
      run.last = run.last->next = take_chunk();
      run.tail = 0;
    }
    ::new (run.last->at(run.tail++)) Event(std::move(ev));
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

Event EventQueue::pop() {
  --size_;
  ++stats_.pops;
  // Keys are unique, so a run head not below the fallback root is above it.
  if (live_ == 0 || (!heap_.empty() && !key_less_entry(heads_[0].key, heap_.front()))) {
    return fallback_pop();
  }
  ++stats_.run_pops;
  Run& run = runs_[heads_[0].run];
  Event* slot = run.first->at(run.head);
  Event ev = std::move(*slot);
  slot->~Event();
  if (++run.head == kChunkEvents) {
    Chunk* done = run.first;
    run.first = done->next;
    run.head = 0;
    give_chunk(done);
  }
  if (--run.count == 0) {
    retire_front_run();
  } else {
    heads_[0].key = key_of_event(*run.first->at(run.head));
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
