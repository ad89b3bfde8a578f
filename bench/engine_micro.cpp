// Microbenchmarks (google-benchmark) for the simulator substrate itself:
// event-queue throughput, fiber context switches, message matching, p2p
// round trips, whole-machine construction, and the checkpoint store's
// per-rank write cycle and restore planning — the costs that bound how
// many simulated MPI processes one native core can carry (xSim's
// scalability/accuracy trade-off, paper §II-A).
//
// Deliberately NOT on exp::ParallelExecutor: google-benchmark owns the
// repetition loop and measures wall-clock per iteration — running these
// concurrently would just make them measure scheduler contention.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/tiered.hpp"
#include "core/machine.hpp"
#include "fiber/fiber.hpp"
#include "pdes/engine.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "vmpi/context.hpp"
#include "vmpi/process.hpp"

using namespace exasim;

namespace {

struct Quiet {
  Quiet() { Log::set_level(LogLevel::kOff); }
} quiet;

// ---- Event queue -----------------------------------------------------------

class CountingLp final : public LogicalProcess {
 public:
  void on_event(Engine&, Event&&) override { ++count; }
  bool terminated() const override { return true; }
  std::uint64_t count = 0;
};

void BM_EventQueueThroughput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    CountingLp lp;
    engine.add_process(0, &lp);
    Rng rng(7);
    state.ResumeTiming();
    for (int i = 0; i < n; ++i) {
      engine.schedule(rng.next_below(1'000'000), 0, 1, nullptr);
    }
    engine.run();
    benchmark::DoNotOptimize(lp.count);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1024)->Arg(65536);

/// Raw queue ops against a standing population: each iteration pushes one
/// event ahead of the current minimum and pops the minimum — the sequential
/// engine's inner loop. range(0) = 0 pushes at random offsets, which no run
/// takes for long, so most ops go through the fallback heap; 1 pushes from
/// 16 interleaved fixed-delay streams, each ascending in key as a
/// simulation's message classes are, so the sorted runs carry them.
void BM_QueuePushPop(benchmark::State& state) {
  const bool streams = state.range(0) != 0;
  constexpr int kStanding = 8192;
  constexpr int kStreams = 16;
  constexpr SimTime kDense = 4096;        ///< Most traffic lands here (messages).
  constexpr SimTime kSpan = 1024 * 1024;  ///< Occasional timers/checkpoints.
  EventQueue q;
  Rng rng(11);
  SimTime now = 0;
  std::uint64_t seq = 0;
  auto make = [&](int i) {
    Event ev;
    if (streams) {
      const int s = static_cast<int>(rng.next_below(kStreams));
      ev.time = now + 1 + static_cast<SimTime>(s + 1) * (kDense / kStreams);
      ev.source = static_cast<LpId>(s);
      ev.seq = seq++;
    } else {
      ev.time = now + 1 + ((i % 8 != 0) ? rng.next_below(kDense) : rng.next_below(kSpan));
      ev.source = static_cast<LpId>(i % 64);
      ev.seq = rng.next_below(1u << 30);
    }
    return ev;
  };
  for (int i = 0; i < kStanding; ++i) {
    q.push(make(i));
    if (streams && i % 4 == 3) now += 1;  // Streams advance with time.
  }
  int i = 0;
  for (auto _ : state) {
    q.push(make(++i));
    Event out = q.pop();
    now = out.time;
    benchmark::DoNotOptimize(out.seq);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueuePushPop)->Arg(0)->Arg(1)->ArgNames({"streams"});

/// Inbox merge: drain a batch into a loaded queue. range(0) = 0 pushes the
/// batch one event at a time; 1 uses push_bulk (one Floyd rebuild of the
/// fallback heap when the batch is large relative to it) — the
/// LpGroup::merge_inbox path of the sharded engine.
void BM_QueueBulkMerge(benchmark::State& state) {
  const bool bulk = state.range(0) != 0;
  constexpr int kHeap = 1024;   ///< Group heap near a window barrier (drained).
  constexpr int kBatch = 8192;  ///< The window's inbound mailbox traffic.
  constexpr SimTime kSpan = 64 * 1024;
  Rng rng(13);
  for (auto _ : state) {
    state.PauseTiming();
    EventQueue q;
    for (int i = 0; i < kHeap; ++i) {
      Event ev;
      ev.time = rng.next_below(kSpan);
      ev.seq = static_cast<std::uint64_t>(i);
      q.push(std::move(ev));
    }
    std::vector<Event> inbox(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      inbox[i].time = rng.next_below(kSpan);
      inbox[i].seq = static_cast<std::uint64_t>(kHeap + i);
    }
    state.ResumeTiming();
    if (bulk) {
      q.push_bulk(inbox);
    } else {
      for (Event& ev : inbox) q.push(std::move(ev));
      inbox.clear();
    }
    benchmark::DoNotOptimize(q.min_time());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_QueueBulkMerge)->Arg(0)->Arg(1)->ArgNames({"bulk"});

// ---- Hot-path memory (DESIGN.md §9) ---------------------------------------

struct ChurnPayload final : EventPayload {
  std::uint64_t vals[4] = {0, 0, 0, 0};
};

/// What a delivered eager message with real bytes carries: a
/// vmpi::MsgPayload attachment, one block holding its header and a copy of
/// the 256 data bytes (a modeled message has no block at all).
constexpr std::size_t kChurnMsgBytes = 256;

/// Raw payload allocate/free cycle — the per-event allocator cost in
/// isolation (steady-state free-list hits).
void BM_PayloadAllocFree(benchmark::State& state) {
  for (auto _ : state) {
    auto* p = new ChurnPayload;
    benchmark::DoNotOptimize(p);
    delete p;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PayloadAllocFree);

/// Attachment build-and-free cost: header only (a rendezvous RTS) and with
/// real bytes copied into the same block. range(0) = bytes.
void BM_MsgPayloadMake(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> src(bytes, std::byte{0x5a});
  for (auto _ : state) {
    auto msg = vmpi::MsgPayload::make(vmpi::RequestHandle{}, src.data(), bytes);
    benchmark::DoNotOptimize(msg->data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_MsgPayloadMake)->Arg(0)->Arg(32)->Arg(256)->Arg(4096)->ArgNames({"bytes"});

/// Steady-state event churn: every delivered event frees its payload and
/// schedules a successor with a fresh one — the allocation pattern of a
/// long-running simulation (message payloads birth and die once per event).
class ChurnLp final : public LogicalProcess {
 public:
  explicit ChurnLp(std::uint64_t budget) : remaining_(budget) {
    scratch_.resize(kChurnMsgBytes, std::byte{0x37});
  }
  void on_event(Engine& engine, Event&& ev) override {
    if (remaining_ == 0) return;
    --remaining_;
    engine.schedule(ev.time + 1, ev.target, 1,
                    vmpi::MsgPayload::make(vmpi::RequestHandle{}, scratch_.data(),
                                           scratch_.size()));
    // The incoming ev.payload dies when ev goes out of scope — one birth and
    // one death per event, the steady state of a long simulation.
  }
  bool terminated() const override { return remaining_ == 0; }

 private:
  std::uint64_t remaining_;
  std::vector<std::byte> scratch_;
};

void BM_EventChurn(benchmark::State& state) {
  const std::uint64_t events = 100'000;
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    ChurnLp lp(events);
    engine.add_process(0, &lp);
    // Seed four in-flight chains so the queue is never trivially empty.
    for (int i = 0; i < 4; ++i) {
      engine.schedule(static_cast<SimTime>(i), 0, 1,
                      vmpi::MsgPayload::make(vmpi::RequestHandle{}, nullptr, 0));
    }
    state.ResumeTiming();
    engine.run();
    benchmark::DoNotOptimize(engine.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventChurn);

// ---- Sharded engine: multi-core window throughput -------------------------

constexpr SimTime kSpinLookahead = 8;

struct SpinPayload final : EventPayload {
  explicit SpinPayload(int h) : hops(h) {}
  int hops;
};

/// Event-dense macro workload: every delivered event burns a fixed slab of
/// compute (an LCG spin), self-schedules within the window, and occasionally
/// fans out across LPs at >= lookahead. Execution-bound by construction —
/// the regime where window parallelism pays. The spin seed depends only on
/// the event's identity, so the schedule (and total event count) is
/// byte-identical for every worker count and scheduling policy.
class SpinLp final : public LogicalProcess {
 public:
  SpinLp(LpId id, int lp_count) : id_(id), lp_count_(lp_count) {}

  void on_event(Engine& engine, Event&& ev) override {
    std::uint64_t acc = 0x9e3779b97f4a7c15ull ^ (static_cast<std::uint64_t>(ev.time) << 8) ^
                        static_cast<std::uint64_t>(id_);
    for (int i = 0; i < 2000; ++i) {
      acc = acc * 6364136223846793005ull + 1442695040888963407ull;
    }
    benchmark::DoNotOptimize(acc);
    auto* p = static_cast<SpinPayload*>(ev.payload.get());
    if (p == nullptr || p->hops <= 0) return;
    engine.schedule(ev.time + 1 + acc % 4, id_, 0, std::make_unique<SpinPayload>(p->hops - 1));
    if (acc % 8 == 0) {
      engine.schedule(ev.time + kSpinLookahead + acc % 16, static_cast<LpId>(acc % lp_count_),
                      1, std::make_unique<SpinPayload>(p->hops - 1));
    }
  }
  bool terminated() const override { return true; }

 private:
  LpId id_;
  int lp_count_;
};

/// range(0) = workers, one LP group each. Real time, not CPU time: the
/// whole point is wall-clock speedup.
void BM_ShardedWindowThroughput(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  constexpr int kLps = 64;
  constexpr int kHops = 40;
  std::uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    std::vector<std::unique_ptr<SpinLp>> lps;
    for (LpId i = 0; i < kLps; ++i) {
      lps.push_back(std::make_unique<SpinLp>(i, kLps));
      engine.add_process(i, lps.back().get());
      engine.schedule(static_cast<SimTime>(i % 3), i, 0, std::make_unique<SpinPayload>(kHops));
    }
    engine.set_sharding(Engine::ShardingOptions{workers, kSpinLookahead, 1});
    state.ResumeTiming();
    engine.run();
    events = engine.events_processed();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ShardedWindowThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgName("workers")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- Fibers ---------------------------------------------------------------

void BM_FiberSwitch(benchmark::State& state) {
  auto body = [] {
    for (;;) Fiber::yield();
  };
  Fiber fiber(body);
  for (auto _ : state) fiber.resume();
  state.SetItemsProcessed(state.iterations() * 2);  // In + out.
}
BENCHMARK(BM_FiberSwitch);

/// Yields from under a frame of about 1.25 KiB, a simulated rank's live
/// stack depth at its yields (modeled heat3d, EXPERIMENTS.md).
void yield_under_deep_frame(void*) {
  volatile char frame[1216];
  frame[0] = 0;
  for (;;) {
    Fiber::yield();
    frame[0] = static_cast<char>(frame[0] + 1);
  }
}

void BM_FiberSwitchDeepFrame(benchmark::State& state) {
  // Two fibers take turns, so with copying stacks every resume saves the
  // other's live frames and restores this one's. Items = switches.
  Fiber a(&yield_under_deep_frame, nullptr);
  Fiber b(&yield_under_deep_frame, nullptr);
  for (auto _ : state) {
    a.resume();
    b.resume();
  }
  state.SetItemsProcessed(state.iterations() * 4);  // Two resumes, in + out.
}
BENCHMARK(BM_FiberSwitchDeepFrame);

void BM_FiberCreateDestroy(benchmark::State& state) {
  // A fiber has no stack of its own: it binds to this thread's default
  // stack, so creating, running and destroying one makes no system call.
  auto body = [] {};
  for (auto _ : state) {
    Fiber fiber(body);
    fiber.resume();
    benchmark::DoNotOptimize(fiber.finished());
  }
}
BENCHMARK(BM_FiberCreateDestroy);

// ---- Simulated MPI ---------------------------------------------------------

core::SimConfig micro_config(int ranks) {
  core::SimConfig cfg;
  cfg.ranks = ranks;
  cfg.topology = "star:" + std::to_string(ranks);
  cfg.proc.slowdown = 1.0;
  cfg.process.fiber_stack_bytes = 64 * 1024;
  return cfg;
}

void BM_PingPong(benchmark::State& state) {
  const int rounds = 1000;
  for (auto _ : state) {
    core::Machine machine(micro_config(2), [&](vmpi::Context& ctx) {
      std::uint64_t v = 0;
      for (int i = 0; i < rounds; ++i) {
        if (ctx.rank() == 0) {
          ctx.send(1, 0, &v, sizeof v);
          ctx.recv(1, 1, &v, sizeof v);
        } else {
          ctx.recv(0, 0, &v, sizeof v);
          ctx.send(0, 1, &v, sizeof v);
        }
      }
      ctx.finalize();
    });
    machine.run();
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2);
}
BENCHMARK(BM_PingPong);

/// The small-scale shape of the table2_e1_32k benchmark: 64 ranks on a
/// 4x4x4 torus, each exchanging modeled faces with its 6 neighbours every
/// iteration (irecv/isend/waitall with a reused handle vector). Dominated by
/// vmpi matching and waiting, so a matching regression shows here without a
/// 32k-rank run. Items = messages.
void BM_HaloExchange(benchmark::State& state) {
  constexpr int kDim = 4;
  constexpr int kRanks = kDim * kDim * kDim;
  constexpr int kIters = 50;
  core::SimConfig cfg = micro_config(kRanks);
  cfg.topology = "torus:4x4x4";
  for (auto _ : state) {
    core::Machine machine(cfg, [](vmpi::Context& ctx) {
      const int r = ctx.rank();
      const int x = r % kDim, y = (r / kDim) % kDim, z = r / (kDim * kDim);
      auto at = [](int xx, int yy, int zz) {
        auto wrap = [](int v) { return (v + kDim) % kDim; };
        return wrap(xx) + kDim * (wrap(yy) + kDim * wrap(zz));
      };
      const int nbr[6] = {at(x - 1, y, z), at(x + 1, y, z), at(x, y - 1, z),
                          at(x, y + 1, z), at(x, y, z - 1), at(x, y, z + 1)};
      auto& w = ctx.world();
      std::vector<vmpi::RequestHandle> hs;
      hs.reserve(12);
      for (int it = 0; it < kIters; ++it) {
        ctx.compute(1e4);
        hs.clear();
        // Tag by direction so each face pairs with its opposite.
        for (int d = 0; d < 6; ++d) hs.push_back(ctx.irecv_modeled(w, nbr[d], d ^ 1, 4096));
        for (int d = 0; d < 6; ++d) hs.push_back(ctx.isend_modeled(w, nbr[d], d, 4096));
        ctx.waitall(w, hs);
      }
      ctx.finalize();
    });
    machine.run();
  }
  state.SetItemsProcessed(state.iterations() * kRanks * 6 * kIters);
}
BENCHMARK(BM_HaloExchange);

/// Fiber-dispatch cost under fan-in traffic: every rank sends to rank 0,
/// which receives in rank order — so most arrivals at rank 0 cannot complete
/// the receive it is currently blocked on. range(0) = 1 resumes rank 0's
/// fiber on every arrival anyway (eager); 0 filters spurious resumes against
/// the recorded wait-set (the default). Identical simulated results either
/// way; only the host cost differs.
void BM_WakeupFanIn(benchmark::State& state) {
  const int ranks = 64;
  const int rounds = 20;
  core::SimConfig cfg = micro_config(ranks);
  cfg.process.eager_wakeup = state.range(0) != 0;
  for (auto _ : state) {
    core::Machine machine(cfg, [&](vmpi::Context& ctx) {
      std::uint64_t v = 0;
      for (int r = 0; r < rounds; ++r) {
        if (ctx.rank() == 0) {
          for (int src = 1; src < ranks; ++src) ctx.recv(src, r, &v, sizeof v);
        } else {
          ctx.send(0, r, &v, sizeof v);
        }
      }
      ctx.finalize();
    });
    machine.run();
  }
  state.SetItemsProcessed(state.iterations() * (ranks - 1) * rounds);
}
BENCHMARK(BM_WakeupFanIn)->Arg(0)->Arg(1)->ArgNames({"eager"});

void BM_UnexpectedQueueMatch(benchmark::State& state) {
  // Many tagged messages arrive before the receives are posted; matching
  // then scans the unexpected queue.
  const int msgs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::Machine machine(micro_config(2), [&](vmpi::Context& ctx) {
      std::uint64_t v = 0;
      if (ctx.rank() == 0) {
        for (int i = 0; i < msgs; ++i) ctx.send(1, i, &v, sizeof v);
      } else {
        ctx.elapse(sim_ms(10));  // Let everything arrive first.
        for (int i = msgs - 1; i >= 0; --i) ctx.recv(0, i, &v, sizeof v);
      }
      ctx.finalize();
    });
    machine.run();
  }
  state.SetItemsProcessed(state.iterations() * msgs);
}
BENCHMARK(BM_UnexpectedQueueMatch)->Arg(64)->Arg(512);

void BM_LinearBarrier(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::Machine machine(micro_config(ranks), [](vmpi::Context& ctx) {
      ctx.barrier(ctx.world());
      ctx.finalize();
    });
    machine.run();
  }
  state.SetItemsProcessed(state.iterations() * ranks);
}
BENCHMARK(BM_LinearBarrier)->Arg(64)->Arg(1024);

void BM_MachineConstruction(benchmark::State& state) {
  // Cost of standing up (and tearing down) n simulated processes.
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::Machine machine(micro_config(ranks), [](vmpi::Context& ctx) { ctx.finalize(); });
    machine.run();
  }
  state.SetItemsProcessed(state.iterations() * ranks);
}
BENCHMARK(BM_MachineConstruction)->Arg(1024)->Arg(16384);

// ---- Checkpoint store ------------------------------------------------------

// Seconds per simulated rank, printed with an SI suffix (12.3n = 12.3 ns).
benchmark::Counter per_rank(int ranks) {
  using C = benchmark::Counter;
  return C(ranks, C::kIsIterationInvariantRate | C::kInvert);
}

/// One partner-mode checkpoint of `rank`: own and partner memory copies.
void write_partner_file(ckpt::CheckpointStore& store, std::uint64_t version, int rank,
                        std::span<const std::byte> payload) {
  store.begin(version, rank);
  store.append(version, rank, payload);
  store.finalize(version, rank, ckpt::CopyRecord{.level = 0, .holder = rank});
  const int partner = ckpt::partner_of(rank, store.expected_ranks());
  store.record_copy(version, rank, ckpt::CopyRecord{.level = 0, .holder = partner});
}

void BM_RestorePlan(benchmark::State& state) {
  // A relaunch after one rank in eight died: those ranks fetch their
  // image from the partner's memory. Rewriting rank 0's file invalidates
  // the plan, so every iteration pays one full build.
  const int ranks = static_cast<int>(state.range(0));
  const std::vector<std::byte> payload(40);
  ckpt::CheckpointStore store(ranks);
  for (int r = 0; r < ranks; ++r) write_partner_file(store, 1, r, payload);
  std::vector<FailureSpec> failures;
  for (int r = 1; r < ranks; r += 8) failures.push_back(FailureSpec{r, 0});
  store.apply_failures(failures, 1);
  for (auto _ : state) {
    write_partner_file(store, 1, 0, payload);
    benchmark::DoNotOptimize(store.restore_plan());
  }
  state.counters["per_rank"] = per_rank(ranks);
}
BENCHMARK(BM_RestorePlan)->Arg(4096)->Arg(32768)->Unit(benchmark::kMicrosecond);

void BM_CheckpointCycle(benchmark::State& state) {
  // heat3d's steady state: every rank writes the next version, then drops
  // its file of the previous one after the barrier.
  const int ranks = static_cast<int>(state.range(0));
  const std::vector<std::byte> payload(40);
  ckpt::CheckpointStore store(ranks);
  std::uint64_t version = 1;
  for (int r = 0; r < ranks; ++r) write_partner_file(store, version, r, payload);
  for (auto _ : state) {
    ++version;
    for (int r = 0; r < ranks; ++r) write_partner_file(store, version, r, payload);
    for (int r = 0; r < ranks; ++r) store.remove_file(version - 1, r);
  }
  state.counters["per_rank"] = per_rank(ranks);
}
BENCHMARK(BM_CheckpointCycle)->Arg(4096)->Arg(32768)->Unit(benchmark::kMicrosecond);

}  // namespace
