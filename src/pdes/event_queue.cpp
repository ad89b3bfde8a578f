#include "pdes/event_queue.hpp"

#include <atomic>
#include <bit>
#include <utility>

namespace exasim {

namespace {

// Process-wide queue traffic counters (relaxed: statistics, not
// synchronization). Folded in per run, not per operation, so the hot path
// never touches an atomic.
std::atomic<std::uint64_t> g_queue_near_hits{0};
std::atomic<std::uint64_t> g_queue_bulk_merges{0};

}  // namespace

QueueStats queue_stats() {
  QueueStats s;
  s.near_hits = g_queue_near_hits.load(std::memory_order_relaxed);
  s.bulk_merges = g_queue_bulk_merges.load(std::memory_order_relaxed);
  return s;
}

void queue_note(const EventQueue::LocalStats& s) {
  if (s.near_hits != 0) g_queue_near_hits.fetch_add(s.near_hits, std::memory_order_relaxed);
  if (s.bulk_merges != 0) {
    g_queue_bulk_merges.fetch_add(s.bulk_merges, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Slab
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

Event EventQueue::slab_take(std::uint32_t slot) {
  Event ev = std::move(slab_[slot]);
  free_.push_back(slot);
  return ev;
}

// ---------------------------------------------------------------------------
// Entry heaps (shared by the far heap and every near bucket)
// ---------------------------------------------------------------------------

void EventQueue::heap_up(std::vector<Entry>& h, std::size_t i) {
  const Entry e = h[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!entry_less(e, h[parent])) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = e;
}

void EventQueue::heap_down(std::vector<Entry>& h, std::size_t i) {
  const std::size_t n = h.size();
  const Entry e = h[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && entry_less(h[child + 1], h[child])) ++child;
    if (!entry_less(h[child], e)) break;
    h[i] = h[child];
    i = child;
  }
  h[i] = e;
}

EventQueue::Entry EventQueue::heap_pop_root(std::vector<Entry>& h) {
  const Entry top = h.front();
  h.front() = h.back();
  h.pop_back();
  if (!h.empty()) heap_down(h, 0);
  return top;
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

int EventQueue::bucket_of(SimTime t) const {
  if (t >= near_end_) return -1;  // Also the near_end_ == 0 disabled state.
  const SimTime rel = t > near_base_ ? t - near_base_ : 0;
  const SimTime b = rel >> width_shift_;
  // The overflow-clamped horizon (near_end_ == kSimTimeNever) admits times
  // past the last bucket slice; they belong to the far heap.
  return b < kBuckets ? static_cast<int>(b) : -1;
}

void EventQueue::route(Entry e) {
  const int b = bucket_of(e.time);
  if (b < 0) {
    far_.push_back(e);
    heap_up(far_, far_.size() - 1);
    return;
  }
  std::vector<Entry>& bucket = near_[static_cast<std::size_t>(b)];
  bucket.push_back(e);
  heap_up(bucket, bucket.size() - 1);
  occupied_ |= std::uint64_t{1} << b;
}

void EventQueue::set_horizon(SimTime base, SimTime span) {
  if (span < 1) span = 1;
  int shift = 0;
  while ((static_cast<SimTime>(kBuckets) << shift) < span && shift < 48) ++shift;
  near_base_ = base;
  width_shift_ = shift;
  near_end_ = base + (static_cast<SimTime>(kBuckets) << shift);
  if (near_end_ < base) near_end_ = kSimTimeNever;  // Overflow clamp.
  if (occupied_ == 0) return;
  // Re-route leftover near entries under the new slicing (usually none: a
  // window drains everything below its bound before the horizon moves).
  scratch_.clear();
  std::uint64_t occ = occupied_;
  occupied_ = 0;
  while (occ != 0) {
    const int b = std::countr_zero(occ);
    occ &= occ - 1;
    std::vector<Entry>& bucket = near_[static_cast<std::size_t>(b)];
    scratch_.insert(scratch_.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  for (const Entry& e : scratch_) route(e);
  scratch_.clear();
}

// ---------------------------------------------------------------------------
// Queue operations
// ---------------------------------------------------------------------------

void EventQueue::push(Event&& ev) {
  Entry e;
  e.time = ev.time;
  e.ps = pack_ps(ev.priority, ev.source);
  e.slot = slab_put(std::move(ev));
  route(e);
  ++size_;
}

void EventQueue::push_bulk(std::vector<Event>& evs) {
  if (evs.empty()) return;
  ++stats_.bulk_merges;
  scratch_.clear();
  for (Event& ev : evs) {
    Entry e;
    e.time = ev.time;
    e.ps = pack_ps(ev.priority, ev.source);
    e.slot = slab_put(std::move(ev));
    ++size_;
    if (bucket_of(e.time) >= 0) {
      route(e);  // Near buckets are small; per-entry sifts stay cheap.
    } else {
      scratch_.push_back(e);
    }
  }
  evs.clear();
  if (scratch_.empty()) return;
  if (scratch_.size() * 8 >= far_.size()) {
    // Batch large relative to the heap: append, then one Floyd rebuild.
    far_.insert(far_.end(), scratch_.begin(), scratch_.end());
    for (std::size_t i = far_.size() / 2; i-- > 0;) heap_down(far_, i);
  } else {
    for (const Entry& e : scratch_) {
      far_.push_back(e);
      heap_up(far_, far_.size() - 1);
    }
  }
  scratch_.clear();
}

const std::vector<EventQueue::Entry>* EventQueue::min_heap(int* bucket) const {
  const std::vector<Entry>* best = nullptr;
  *bucket = -1;
  if (occupied_ != 0) {
    const int b = std::countr_zero(occupied_);
    best = &near_[static_cast<std::size_t>(b)];
    *bucket = b;
  }
  if (!far_.empty() && (best == nullptr || entry_less(far_.front(), best->front()))) {
    best = &far_;
    *bucket = -1;
  }
  return best;
}

Event EventQueue::pop() {
  int bucket = -1;
  min_heap(&bucket);
  Entry top;
  if (bucket >= 0) {
    std::vector<Entry>& h = near_[static_cast<std::size_t>(bucket)];
    top = heap_pop_root(h);
    if (h.empty()) occupied_ &= ~(std::uint64_t{1} << bucket);
    ++stats_.near_hits;
  } else {
    top = heap_pop_root(far_);
  }
  --size_;
  return slab_take(top.slot);
}

SimTime EventQueue::min_time() const {
  int bucket = -1;
  const std::vector<Entry>* h = min_heap(&bucket);
  return h == nullptr ? kSimTimeNever : h->front().time;
}

}  // namespace exasim
