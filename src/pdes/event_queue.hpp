#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "pdes/event.hpp"
#include "util/time.hpp"

namespace exasim {

/// Min-priority queue of events under EventOrder — the per-LP-group event
/// queue of the sharded engine (one per group; the sequential engine is the
/// one-group degenerate case). Not thread-safe: each queue is owned by
/// exactly one worker thread.
///
/// Sorted runs plus a fallback heap (DESIGN.md §13). A simulation pushes a
/// few dozen key-ordered streams at once — every message class is scheduled
/// at "now + a fixed delay", and now only grows — so the pending set is the
/// union of a few sorted runs. Each run is a FIFO of whole Events in key
/// order, held in fixed-size chunks that every run takes from, and returns
/// to, one queue-wide free list, so the run level holds about the events
/// pending in runs, not each run's own high water. A push appends to the
/// run with the greatest tail at or below the event's key (best fit, a
/// binary search over at most kMaxRuns tails); appending keeps the tails
/// sorted. An event no run takes starts a new run
/// when there is room, or goes to the fallback: a binary heap of 24-byte
/// keys over a slot-stable slab of events. A pop takes the smaller of the
/// run-head heap's minimum and the fallback's root under the full
/// (time, priority, source, seq) key, so the pop order is exactly EventOrder
/// whichever structure holds an event.
class EventQueue {
 public:
  EventQueue();
  ~EventQueue();  ///< Destroys the events still in runs.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  void push(Event&& ev);

  /// Sizes the storage for `n` pending events pushed in key order (a
  /// machine's start events), so pushing and popping them grows nothing: the
  /// fallback holds the first kRunFloor and one run the rest.
  void reserve(std::size_t n);

  /// Drains `evs` into the queue — the bulk half of a mailbox merge. A
  /// batch that is large relative to the fallback heap (>= 1/8 of it) is
  /// appended to the heap and re-heapified in one Floyd pass, which beats
  /// per-event pushes for inbox-sized batches; a small one is pushed event
  /// by event.
  void push_bulk(std::vector<Event>& evs);

  /// Pops the earliest event; undefined on an empty queue.
  Event pop();

  /// Timestamp of the earliest event, kSimTimeNever when empty — the value a
  /// group publishes for the conservative window-bound computation.
  SimTime min_time() const;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Events the run chunks (in runs and free) have room for: the memory the
  /// run level holds.
  std::size_t run_capacity() const { return chunk_count_ * kChunkEvents; }

  /// Queue-local traffic counters, folded into the running thread's
  /// counter block (util/counters.hpp) by the engine at the end of a run.
  struct LocalStats {
    std::uint64_t pops = 0;          ///< Every pop.
    std::uint64_t run_pops = 0;      ///< Pops served from a sorted run.
    std::uint64_t runs_created = 0;  ///< Runs started (including reuses).
    std::uint64_t bulk_merges = 0;   ///< push_bulk calls.
  };
  LocalStats take_stats() {
    LocalStats s = stats_;
    stats_ = LocalStats{};
    return s;
  }

  /// At most this many runs are live at once, which bounds the tails'
  /// binary search and the run-head heap at six levels. Table II at 32,768
  /// ranks never has more than 46 live runs; random keys fill all 64 and
  /// spill the rest to the fallback.
  static constexpr int kMaxRuns = 64;
  /// A new run starts only once the queue holds more than this many events;
  /// smaller queues live in the fallback heap alone. Without the floor,
  /// random keys split a small queue into dozens of short runs:
  /// BM_EventQueueThroughput/1024 fell from 9.5 to 7.6 M events/s.
  static constexpr std::size_t kRunFloor = 256;
  /// Events per run chunk: 1 KiB of them.
  static constexpr std::uint32_t kChunkEvents = 16;
  /// Chunks allocated at once when the free list runs dry: 64 KiB.
  static constexpr std::size_t kGrowChunks = 64;

 private:
  /// Full ordering key. `ps` packs (priority << 32) | sign-biased source so
  /// one unsigned compare orders both fields.
  struct Key {
    SimTime time = 0;
    std::uint64_t ps = 0;
    std::uint64_t seq = 0;
  };

  /// Fallback heap entry: the key without seq, plus the slab slot. The seq
  /// tie-break is read from the slab only when (time, priority, source) tie,
  /// which keeps the common compare at two word compares.
  struct Entry {
    SimTime time = 0;
    std::uint64_t ps = 0;
    std::uint32_t slot = 0;
  };

  /// A block of run storage, left uninitialized until a run takes it: an
  /// event is constructed in its slot by the push that appends it and
  /// destroyed by the pop that takes it. `next` links the run's next chunk,
  /// or the next free one.
  struct Chunk {
    alignas(Event) std::byte bytes[kChunkEvents * sizeof(Event)];
    Chunk* next;
    Event* at(std::uint32_t i) { return std::launder(reinterpret_cast<Event*>(bytes)) + i; }
  };

  /// One sorted run: its events in key order, from events[head] of the
  /// first chunk to events[tail - 1] of the last. A retired run holds no
  /// chunk.
  struct Run {
    Chunk* first = nullptr;
    Chunk* last = nullptr;
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
    std::uint32_t count = 0;
  };

  /// Run-head heap entry: the key of a live run's first event.
  struct Head {
    Key key;
    std::uint8_t run = 0;
  };

  static std::uint64_t pack_ps(EventPriority priority, LpId source) {
    return (static_cast<std::uint64_t>(priority) << 32) |
           (static_cast<std::uint32_t>(source) ^ 0x80000000u);
  }
  static Key key_of_event(const Event& ev) {
    return Key{ev.time, pack_ps(ev.priority, ev.source), ev.seq};
  }
  static bool key_less(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.ps != b.ps) return a.ps < b.ps;
    return a.seq < b.seq;
  }

  bool entry_less(const Entry& a, const Entry& b) const {
    if (a.time != b.time) return a.time < b.time;
    if (a.ps != b.ps) return a.ps < b.ps;
    return slab_[a.slot].seq < slab_[b.slot].seq;
  }
  bool key_less_entry(const Key& k, const Entry& e) const {
    if (k.time != e.time) return k.time < e.time;
    if (k.ps != e.ps) return k.ps < e.ps;
    return k.seq < slab_[e.slot].seq;
  }

  // Fallback heap.
  void fallback_push(Event&& ev);
  Event fallback_pop();
  std::uint32_t slab_put(Event&& ev);
  void heap_up(std::size_t i);
  void heap_down(std::size_t i);

  // Runs.
  /// From the free list, else the newest block's untouched chunks, else a
  /// new block of kGrowChunks.
  Chunk* take_chunk();
  /// Allocates a block of `n` untouched chunks; the last block's leftovers
  /// go to the free list.
  void add_chunks(std::size_t n);
  void give_chunk(Chunk* c) {
    c->next = free_chunks_;
    free_chunks_ = c;
  }
  void start_run(Event&& ev, const Key& k);
  void retire_front_run();
  void heads_down(std::size_t i);

  std::size_t size_ = 0;

  std::vector<Event> slab_;          ///< Slot-stable fallback event storage.
  std::vector<std::uint32_t> free_;  ///< Recyclable slab slots.
  std::vector<Entry> heap_;          ///< Fallback binary heap.

  std::vector<std::unique_ptr<Chunk[]>> chunk_blocks_;  ///< Every chunk, owned.
  std::size_t chunk_count_ = 0;
  Chunk* free_chunks_ = nullptr;
  Chunk* untouched_ = nullptr;  ///< The newest block's chunks never taken,
  std::size_t untouched_left_ = 0;  ///< from untouched_ on.

  std::array<Run, kMaxRuns> runs_;
  /// Live runs' tail keys in ascending order, and the run owning each.
  std::array<Key, kMaxRuns> tails_;
  std::array<std::uint8_t, kMaxRuns> tail_run_{};
  /// Binary min-heap of live runs' head keys (live_ entries).
  std::array<Head, kMaxRuns> heads_;
  int live_ = 0;
  /// Idle run slots as a stack, the most recently retired on top.
  std::array<std::uint8_t, kMaxRuns> idle_{};
  int idle_count_ = 0;

  LocalStats stats_;
};

}  // namespace exasim
