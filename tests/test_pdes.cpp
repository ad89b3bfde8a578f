// pdes: deterministic event ordering, dead-LP dropping, stall hooks, engine
// bookkeeping, the causality guard, and a pinned event-storm schedule.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pdes/engine.hpp"
#include "pdes/event_queue.hpp"
#include "util/rng.hpp"

namespace exasim {
namespace {

struct IntPayload final : EventPayload {
  explicit IntPayload(int v) : value(v) {}
  int value;
};

/// Records delivered events; optional per-event callback.
class RecorderLp : public LogicalProcess {
 public:
  void on_event(Engine& engine, Event&& ev) override {
    delivered.push_back(std::move(ev));
    if (callback) callback(engine, delivered.back());
  }
  bool on_stall(Engine& engine) override {
    ++stall_calls;
    if (stall_action) return stall_action(engine);
    return false;
  }
  bool terminated() const override { return done; }

  std::vector<Event> delivered;
  std::function<void(Engine&, const Event&)> callback;
  std::function<bool(Engine&)> stall_action;
  int stall_calls = 0;
  bool done = false;
};

TEST(Engine, DeliversInTimeOrder) {
  Engine e;
  RecorderLp lp;
  lp.done = true;  // No stall involvement.
  e.add_process(0, &lp);
  e.schedule(30, 0, 1, nullptr);
  e.schedule(10, 0, 2, nullptr);
  e.schedule(20, 0, 3, nullptr);
  e.run();
  ASSERT_EQ(lp.delivered.size(), 3u);
  EXPECT_EQ(lp.delivered[0].kind, 2);
  EXPECT_EQ(lp.delivered[1].kind, 3);
  EXPECT_EQ(lp.delivered[2].kind, 1);
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(Engine, ControlPriorityBeatsMessageAtSameTime) {
  Engine e;
  RecorderLp lp;
  lp.done = true;
  e.add_process(0, &lp);
  e.schedule(5, 0, 1, nullptr, EventPriority::kMessage);
  e.schedule(5, 0, 2, nullptr, EventPriority::kControl);
  e.run();
  ASSERT_EQ(lp.delivered.size(), 2u);
  EXPECT_EQ(lp.delivered[0].kind, 2);
  EXPECT_EQ(lp.delivered[1].kind, 1);
}

TEST(Engine, SequenceBreaksTiesDeterministically) {
  Engine e;
  RecorderLp lp;
  lp.done = true;
  e.add_process(0, &lp);
  for (int i = 0; i < 10; ++i) e.schedule(7, 0, i, nullptr);
  e.run();
  ASSERT_EQ(lp.delivered.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(lp.delivered[static_cast<std::size_t>(i)].kind, i);
}

TEST(Engine, PayloadRoundTrips) {
  Engine e;
  RecorderLp lp;
  lp.done = true;
  e.add_process(0, &lp);
  e.schedule(1, 0, 9, std::make_unique<IntPayload>(123));
  e.run();
  ASSERT_EQ(lp.delivered.size(), 1u);
  auto* p = dynamic_cast<IntPayload*>(lp.delivered[0].payload.get());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->value, 123);
}

TEST(Engine, DeadLpEventsAreDropped) {
  Engine e;
  RecorderLp a, b;
  a.done = b.done = true;
  e.add_process(0, &a);
  e.add_process(1, &b);
  e.schedule(1, 0, 1, nullptr);
  e.schedule(2, 1, 2, nullptr);
  e.schedule(3, 1, 3, nullptr);
  e.mark_dead(1);
  e.run();
  EXPECT_EQ(a.delivered.size(), 1u);
  EXPECT_TRUE(b.delivered.empty());
  EXPECT_EQ(e.events_dropped_dead(), 2u);
  EXPECT_TRUE(e.is_dead(1));
}

TEST(Engine, EventsScheduledDuringDeliveryAreProcessed) {
  Engine e;
  RecorderLp lp;
  lp.done = true;
  lp.callback = [&](Engine& eng, const Event& ev) {
    if (ev.kind == 1) eng.schedule(ev.time + 5, 0, 2, nullptr);
  };
  e.add_process(0, &lp);
  e.schedule(1, 0, 1, nullptr);
  e.run();
  ASSERT_EQ(lp.delivered.size(), 2u);
  EXPECT_EQ(lp.delivered[1].kind, 2);
  EXPECT_EQ(lp.delivered[1].time, 6u);
}

TEST(Engine, StallHookRunsForUnterminatedLps) {
  Engine e;
  RecorderLp lp;  // Not terminated, no events.
  e.add_process(0, &lp);
  e.run();
  EXPECT_EQ(lp.stall_calls, 1);
  EXPECT_EQ(e.unterminated(), std::vector<LpId>{0});
}

TEST(Engine, StallProgressContinuesTheRun) {
  Engine e;
  RecorderLp lp;
  lp.stall_action = [&](Engine& eng) {
    // First stall: schedule a final event and terminate.
    eng.schedule(100, 0, 7, nullptr);
    lp.done = true;
    return true;
  };
  e.add_process(0, &lp);
  e.run();
  // The event scheduled from the stall hook was delivered.
  ASSERT_EQ(lp.delivered.size(), 1u);
  EXPECT_EQ(lp.delivered[0].kind, 7);
  EXPECT_TRUE(e.unterminated().empty());
}

TEST(Engine, RequestStopHaltsEarly) {
  Engine e;
  RecorderLp lp;
  lp.done = true;
  lp.callback = [](Engine& eng, const Event&) { eng.request_stop(); };
  e.add_process(0, &lp);
  e.schedule(1, 0, 1, nullptr);
  e.schedule(2, 0, 2, nullptr);
  e.run();
  EXPECT_EQ(lp.delivered.size(), 1u);
  EXPECT_EQ(e.events_pending(), 1u);
}

TEST(Engine, RejectsBadLpRegistration) {
  Engine e;
  RecorderLp lp;
  EXPECT_THROW(e.add_process(-1, &lp), std::invalid_argument);
  e.add_process(0, &lp);
  EXPECT_THROW(e.add_process(0, &lp), std::invalid_argument);
}

TEST(Engine, UnknownTargetIsLogicError) {
  Engine e;
  RecorderLp lp;
  lp.done = true;
  e.add_process(0, &lp);
  e.schedule(1, 5, 1, nullptr);
  EXPECT_THROW(e.run(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Event storm: a pinned schedule, the deadlock and stall rounds, and the
// causality guard.

struct StormPayload final : EventPayload {
  explicit StormPayload(int h) : hops(h) {}
  int hops;
};

/// Interleaving-independent pseudo-random stream: depends only on the
/// delivered event's identity (splitmix64 finalizer).
std::uint64_t storm_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Records its delivery order and fans out pseudo-random child events: one
/// self event 0-2 ns ahead and one event 10-16 ns ahead to a pseudo-random LP.
class StormLp : public LogicalProcess {
 public:
  StormLp(LpId id, int lp_count) : id_(id), lp_count_(lp_count) {}

  void on_event(Engine& engine, Event&& ev) override {
    trace += std::to_string(ev.time) + "/" + std::to_string(ev.kind) + "/" +
             std::to_string(ev.source) + ";";
    auto* p = dynamic_cast<StormPayload*>(ev.payload.get());
    if (p == nullptr || p->hops <= 0) return;
    std::uint64_t r = storm_mix((ev.time << 20) ^
                                (static_cast<std::uint64_t>(ev.kind) << 8) ^
                                static_cast<std::uint64_t>(id_));
    engine.schedule(ev.time + r % 3, id_, static_cast<int>(r % 100),
                    std::make_unique<StormPayload>(p->hops - 1));
    r = storm_mix(r);
    engine.schedule(ev.time + 10 + r % 7, static_cast<LpId>(r % lp_count_),
                    static_cast<int>(r % 100), std::make_unique<StormPayload>(p->hops - 1));
  }
  bool terminated() const override { return true; }

  std::string trace;

 private:
  LpId id_;
  int lp_count_;
};

/// FNV-1a over every LP's delivery trace, in LP order.
std::uint64_t run_storm(std::uint64_t* processed) {
  constexpr int kLps = 8;
  Engine e;
  std::vector<std::unique_ptr<StormLp>> lps;
  for (LpId i = 0; i < kLps; ++i) {
    lps.push_back(std::make_unique<StormLp>(i, kLps));
    e.add_process(i, lps.back().get());
  }
  for (LpId i = 0; i < kLps; ++i) {
    e.schedule(static_cast<SimTime>(i % 3), i, static_cast<int>(i),
               std::make_unique<StormPayload>(5));
  }
  e.run();
  *processed = e.events_processed();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (auto& lp : lps) {
    for (const char c : lp->trace + "\n") {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
  }
  return h;
}

TEST(Engine, EventStormSchedulePinned) {
  // 8 seed events, 5 hops, 2 children each: the digest pins the delivery
  // order of every event, and the count the whole schedule.
  std::uint64_t count = 0;
  const std::uint64_t digest = run_storm(&count);
  EXPECT_EQ(count, 504u);
  EXPECT_EQ(digest, 9305233903494301632ull);
}

TEST(Engine, SameInstantExternalEventOrdersFirst) {
  // LP 0 schedules an event for LP 1 at t = 10, the instant an external
  // event for LP 1 already holds: neither is lost, and the external source
  // (-1) orders before LP 0.
  Engine e;
  RecorderLp a, b;
  a.done = b.done = true;
  e.add_process(0, &a);
  e.add_process(1, &b);
  a.callback = [](Engine& eng, const Event& ev) {
    if (ev.kind == 1) eng.schedule(ev.time + 10, 1, 42, nullptr);
  };
  e.schedule(10, 1, 99, nullptr);  // External, same instant.
  e.schedule(0, 0, 1, nullptr);
  e.run();
  ASSERT_EQ(b.delivered.size(), 2u);
  EXPECT_EQ(b.delivered[0].kind, 99);
  EXPECT_EQ(b.delivered[1].kind, 42);
}

TEST(Engine, DeadlockEndsTheRun) {
  // No events, nothing terminated: every LP's stall hook runs exactly once,
  // then the run ends as deadlocked.
  Engine e;
  RecorderLp lps[4];
  for (LpId i = 0; i < 4; ++i) e.add_process(i, &lps[i]);
  e.run();
  for (auto& lp : lps) EXPECT_EQ(lp.stall_calls, 1);
  EXPECT_EQ(e.unterminated(), (std::vector<LpId>{0, 1, 2, 3}));
}

TEST(Engine, StallProgressWakesAnotherLp) {
  // Progress made by one LP's stall hook (a wakeup for another LP) keeps the
  // run alive until the woken LP finishes.
  Engine e;
  RecorderLp a, b;
  a.stall_action = [&](Engine& eng) {
    eng.schedule(eng.now() + 10, 1, 7, nullptr);
    a.done = true;
    return true;
  };
  b.callback = [&](Engine&, const Event&) { b.done = true; };
  e.add_process(0, &a);
  e.add_process(1, &b);
  e.run();
  ASSERT_EQ(b.delivered.size(), 1u);
  EXPECT_EQ(b.delivered[0].kind, 7);
  EXPECT_TRUE(e.unterminated().empty());
}

TEST(Engine, CausalityViolationThrows) {
  Engine e;
  RecorderLp lp;
  lp.done = true;
  lp.callback = [](Engine& eng, const Event& ev) {
    if (ev.kind == 1) eng.schedule(ev.time - 5, 0, 2, nullptr);  // Into the past.
  };
  e.add_process(0, &lp);
  e.schedule(10, 0, 1, nullptr);
  EXPECT_THROW(e.run(), std::logic_error);
}

TEST(EventOrder, OrdersByTimePriositySeq) {
  Event a, b;
  a.time = 1;
  b.time = 2;
  EXPECT_TRUE(EventOrder{}(a, b));
  b.time = 1;
  a.priority = EventPriority::kControl;
  b.priority = EventPriority::kMessage;
  EXPECT_TRUE(EventOrder{}(a, b));
  b.priority = EventPriority::kControl;
  a.source = kExternalSource;  // External schedules order before any LP's.
  b.source = 0;
  EXPECT_TRUE(EventOrder{}(a, b));
  b.source = kExternalSource;
  a.seq = 1;
  b.seq = 2;
  EXPECT_TRUE(EventOrder{}(a, b));
}

// ---- EventQueue (sorted runs + fallback heap) ------------------------------

Event make_event(SimTime time, EventPriority prio, LpId source, std::uint64_t seq) {
  Event ev;
  ev.time = time;
  ev.priority = prio;
  ev.source = source;
  ev.seq = seq;
  ev.kind = static_cast<int>(seq);
  return ev;
}

/// Drains the queue and checks the pop sequence is exactly `expect` (by key).
void expect_pop_order(EventQueue& q, std::vector<Event>& expect) {
  std::sort(expect.begin(), expect.end(), [](const Event& a, const Event& b) {
    return key_less(key_of(a), key_of(b));
  });
  for (const Event& want : expect) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.min_time(), want.time);
    const Event got = q.pop();
    EXPECT_EQ(got.time, want.time);
    EXPECT_EQ(got.priority, want.priority);
    EXPECT_EQ(got.source, want.source);
    EXPECT_EQ(got.seq, want.seq);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, KeyTiesPopInPriositySourceSeqOrder) {
  EventQueue q;
  std::vector<Event> expect;
  // All at the same timestamp: priority, then source (kExternalSource first),
  // then per-source seq must decide.
  const std::uint64_t seqs[] = {5, 1, 3, 2, 4};
  for (std::uint64_t s : seqs) {
    expect.push_back(make_event(7, EventPriority::kMessage, 2, s));
    q.push(make_event(7, EventPriority::kMessage, 2, s));
  }
  expect.push_back(make_event(7, EventPriority::kControl, 9, 1));
  q.push(make_event(7, EventPriority::kControl, 9, 1));
  expect.push_back(make_event(7, EventPriority::kMessage, kExternalSource, 8));
  q.push(make_event(7, EventPriority::kMessage, kExternalSource, 8));
  expect.push_back(make_event(7, EventPriority::kTimer, 0, 0));
  q.push(make_event(7, EventPriority::kTimer, 0, 0));
  expect_pop_order(q, expect);
}

TEST(EventQueue, InterleavedSortedStreamsPopInOrderFromFewRuns) {
  // k streams, each ascending in key, pushed interleaved well past the run
  // floor: best fit needs at most one run per stream.
  constexpr int kStreams = 8;
  constexpr int kPerStream = 300;
  Rng rng(41);
  std::vector<int> next(kStreams, 0);
  std::vector<Event> expect;
  EventQueue q;
  std::uint64_t seq = 0;
  for (int pushed = 0; pushed < kStreams * kPerStream;) {
    const int s = static_cast<int>(rng.next_below(kStreams));
    if (next[static_cast<std::size_t>(s)] == kPerStream) continue;
    const int j = next[static_cast<std::size_t>(s)]++;
    // Streams overlap in time and collide on timestamps.
    const SimTime t = static_cast<SimTime>(j) * (3 + static_cast<SimTime>(s)) + 17 * s;
    expect.push_back(make_event(t, EventPriority::kMessage, s, seq));
    q.push(make_event(t, EventPriority::kMessage, s, seq));
    ++seq;
    ++pushed;
  }
  expect_pop_order(q, expect);
  const EventQueue::LocalStats stats = q.take_stats();
  EXPECT_GE(stats.runs_created, 1u);
  EXPECT_LE(stats.runs_created, static_cast<std::uint64_t>(kStreams));
  EXPECT_GE(stats.run_pops, static_cast<std::uint64_t>(kStreams * kPerStream) -
                                EventQueue::kRunFloor);
}

TEST(EventQueue, DescendingPushesSpillToTheFallbackHeap) {
  // Every push is below every run tail: each starts a run until kMaxRuns are
  // live, then the rest spill to the fallback heap.
  constexpr int kEvents = 1000;
  std::vector<Event> expect;
  EventQueue q;
  for (int i = 0; i < kEvents; ++i) {
    const SimTime t = static_cast<SimTime>(kEvents - i);
    expect.push_back(make_event(t, EventPriority::kMessage, 0, static_cast<std::uint64_t>(i)));
    q.push(make_event(t, EventPriority::kMessage, 0, static_cast<std::uint64_t>(i)));
  }
  expect_pop_order(q, expect);
  const EventQueue::LocalStats stats = q.take_stats();
  EXPECT_EQ(stats.runs_created, static_cast<std::uint64_t>(EventQueue::kMaxRuns));
  EXPECT_EQ(stats.run_pops, static_cast<std::uint64_t>(EventQueue::kMaxRuns));
}

TEST(EventQueue, EqualKeysInDifferentRunsPopBySeq) {
  EventQueue q;
  std::vector<Event> expect;
  // Fill the fallback up to the run floor with later events.
  for (std::size_t i = 0; i < EventQueue::kRunFloor; ++i) {
    expect.push_back(make_event(5000, EventPriority::kMessage, 0, i));
    q.push(make_event(5000, EventPriority::kMessage, 0, i));
  }
  // Same (time, priority, source), different seq: 7 starts a run, 3 is below
  // it and starts a second, 5 and 9 append to the best-fitting one of them.
  for (std::uint64_t seq : {7, 3, 5, 9}) {
    expect.push_back(make_event(100, EventPriority::kMessage, 1, seq));
    q.push(make_event(100, EventPriority::kMessage, 1, seq));
  }
  expect_pop_order(q, expect);
  const EventQueue::LocalStats stats = q.take_stats();
  EXPECT_EQ(stats.runs_created, 2u);
  EXPECT_EQ(stats.run_pops, 4u);
}

TEST(EventQueue, RunThatNeverDrainsHoldsMemoryForItsLiveEvents) {
  // One run carries a steady stream for 10^6 push/pop pairs without ever
  // emptying; its ring must stay within twice the peak live count.
  EventQueue q;
  constexpr std::uint64_t kLive = 1000;
  std::uint64_t seq = 0;
  for (; seq < kLive; ++seq) q.push(make_event(seq, EventPriority::kMessage, 0, seq));
  std::size_t peak = q.size();
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t oldest = seq - kLive;
    q.push(make_event(seq, EventPriority::kMessage, 0, seq));
    ++seq;
    peak = std::max(peak, q.size());
    ASSERT_EQ(q.pop().seq, oldest);
  }
  EXPECT_EQ(q.take_stats().runs_created, 1u);
  EXPECT_GT(q.run_capacity(), 0u);
  EXPECT_LE(q.run_capacity(), 2 * peak);
}

TEST(EventQueue, RandomizedInterleavedOpsMatchReferenceOrder) {
  // Random pushes, sorted-stream pushes, control bursts and pops, cross-checked
  // against a reference of whatever should still be queued. The standing
  // population swings between below and well above the run floor, so runs
  // start, drain and retire while the fallback heap holds the rest.
  Rng rng(31);
  EventQueue q;
  std::vector<Event> reference;  // Unordered mirror of the queue contents.
  std::uint64_t seq = 0;
  SimTime now = 0;
  auto ref_min = [&reference]() {
    std::size_t best = 0;
    for (std::size_t i = 1; i < reference.size(); ++i) {
      if (key_less(key_of(reference[i]), key_of(reference[best]))) best = i;
    }
    return best;
  };
  for (int step = 0; step < 20000; ++step) {
    const std::size_t target = (step / 2000) % 2 == 0 ? 1500 : 100;
    const std::uint64_t pop_pct = reference.size() > target ? 70 : 30;
    const std::uint64_t dice = rng.next_below(100);
    if (dice < pop_pct) {
      if (reference.empty()) continue;
      ASSERT_FALSE(q.empty());
      const std::size_t want = ref_min();
      EXPECT_EQ(q.min_time(), reference[want].time);
      const Event got = q.pop();
      EXPECT_EQ(got.time, reference[want].time);
      EXPECT_EQ(got.source, reference[want].source);
      EXPECT_EQ(got.seq, reference[want].seq);
      now = got.time;
      reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(want));
    } else if (dice < pop_pct + 12) {
      const SimTime t = now + rng.next_below(512);
      const auto src = static_cast<LpId>(rng.next_below(8));
      q.push(make_event(t, EventPriority::kMessage, src, seq));
      reference.push_back(make_event(t, EventPriority::kMessage, src, seq));
      ++seq;
    } else if (dice < 98) {
      // One of 8 fixed-delay streams: ascending in key because now only grows.
      const auto src = static_cast<LpId>(rng.next_below(8));
      const SimTime t = now + 64 * static_cast<SimTime>(src + 1);
      q.push(make_event(t, EventPriority::kMessage, src, seq));
      reference.push_back(make_event(t, EventPriority::kMessage, src, seq));
      ++seq;
    } else {
      // A burst of up to 63 control events from one source.
      const std::uint64_t n = rng.next_below(64);
      for (std::uint64_t i = 0; i < n; ++i) {
        const SimTime t = now + rng.next_below(2048);
        q.push(make_event(t, EventPriority::kControl, 3, seq));
        reference.push_back(make_event(t, EventPriority::kControl, 3, seq));
        ++seq;
      }
    }
    ASSERT_EQ(q.size(), reference.size());
  }
  const EventQueue::LocalStats stats = q.take_stats();
  EXPECT_GT(stats.runs_created, 1u);
  EXPECT_GT(stats.run_pops, 0u);
  std::vector<Event> rest = std::move(reference);
  expect_pop_order(q, rest);
}

}  // namespace
}  // namespace exasim
