#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>

#include "util/pool.hpp"
#include "util/time.hpp"

namespace exasim {

/// Identifies a logical process (LP). For the simulated MPI layer, LP id ==
/// simulated MPI rank. Negative ids are reserved for engine-internal LPs.
using LpId = std::int32_t;

/// Event source for schedules made from outside any LP's event handler
/// (machine setup, tests). Sorts before every real LP at equal
/// (time, priority), so pre-run setup events keep their schedule order.
inline constexpr LpId kExternalSource = -1;

/// Event delivery class at equal timestamps. Control events (simulator-
/// internal failure/abort notifications) sort before regular messages so a
/// process learns of a peer's death before it would match a message that was
/// in flight at the same instant.
enum class EventPriority : std::uint8_t {
  kControl = 0,
  kMessage = 1,
  kTimer = 2,
};

/// Base class for event payloads: what an event carries beyond its inline
/// area (EventInline below). Layers above the engine (the simulated MPI
/// layer, timers) derive their own payload types and dispatch on Event::kind.
///
/// A payload is a block per event, so allocation is routed through the
/// thread-local slab pool (util::pool_alloc — thread-local means
/// LP-group-local under the sharded engine; DESIGN.md §9). Derived classes
/// inherit the class-level operator new/delete; deletion through the base
/// pointer resolves to them via the virtual destructor.
struct EventPayload {
  virtual ~EventPayload() = default;

  static void* operator new(std::size_t bytes) { return util::pool_alloc(bytes); }
  static void operator delete(void* p) { util::pool_free(p); }
};

/// A fixed inline area every event carries for the layer that scheduled it
/// (DESIGN.md §9). The engine copies it with the event and never reads it;
/// the layer above stores one trivially copyable value of at most kBytes
/// and reads it back as the same type. A message's match envelope rides
/// here, so a modeled message needs no payload block at all.
class EventInline {
 public:
  static constexpr std::size_t kBytes = 24;

  template <class T>
  static EventInline of(const T& value) {
    EventInline area;
    area.put(value);
    return area;
  }

  template <class T>
  void put(const T& value) {
    check<T>();
    std::memcpy(bytes_, &value, sizeof(T));
  }

  template <class T>
  T get() const {
    check<T>();
    T value;
    std::memcpy(&value, bytes_, sizeof(T));
    return value;
  }

 private:
  template <class T>
  static constexpr void check() {
    static_assert(std::is_trivially_copyable_v<T>, "inline event data is copied as bytes");
    static_assert(sizeof(T) <= kBytes, "inline event data must fit EventInline::kBytes");
    static_assert(alignof(T) <= 8, "inline event data is 8-byte aligned");
  }

  alignas(8) std::byte bytes_[kBytes] = {};
};

/// A scheduled simulation event. Ordering is (time, priority, source, seq):
/// `source` is the LP whose handler scheduled the event (kExternalSource for
/// setup events) and `seq` is a per-source sequence number. The key is a pure
/// function of the simulation plan — independent of how LP groups interleave
/// on native threads — which is what makes the sharded engine's schedule
/// bit-reproducible for any worker count (paper §V-E requires repeatable
/// experiments).
///
/// An event is one cache line: the key, the target and kind, the optional
/// payload block and the inline area. The queue moves events by value, so
/// what rides inline costs no allocation and no pointer chase at delivery.
struct Event {
  SimTime time = 0;
  EventPriority priority = EventPriority::kMessage;
  LpId source = kExternalSource;
  std::uint64_t seq = 0;
  LpId target = 0;
  int kind = 0;
  std::unique_ptr<EventPayload> payload;
  EventInline inline_data;
};
static_assert(sizeof(Event) == 64, "an event is one 64-byte cache line");

/// The ordering key of an Event, detached from its payload — copyable, so
/// a key can be kept and compared without copying the event.
struct EventKey {
  SimTime time = 0;
  EventPriority priority = EventPriority::kMessage;
  LpId source = kExternalSource;
  std::uint64_t seq = 0;
};

inline EventKey key_of(const Event& e) { return EventKey{e.time, e.priority, e.source, e.seq}; }

inline bool key_less(const EventKey& a, const EventKey& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.priority != b.priority) return a.priority < b.priority;
  if (a.source != b.source) return a.source < b.source;
  return a.seq < b.seq;
}

struct EventOrder {
  bool operator()(const Event& a, const Event& b) const { return key_less(key_of(a), key_of(b)); }
};

}  // namespace exasim
