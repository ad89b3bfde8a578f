// Point-to-point semantics of the simulated MPI layer: blocking and
// nonblocking transfers, matching (wildcards, tags, ordering), eager vs
// rendezvous protocols, virtual-clock behavior, probes, and truncation.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "metrics/perf.hpp"
#include "sim_test_util.hpp"
#include "vmpi/context.hpp"
#include "vmpi/process.hpp"

namespace exasim {
namespace {

using core::SimResult;
using test::run_app;
using test::tiny_config;
using vmpi::Context;
using vmpi::Err;
using vmpi::MsgStatus;

test::QuietLogs quiet;

TEST(P2P, BlockingSendRecvDeliversPayload) {
  double received = 0;
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      const double v = 42.5;
      EXPECT_EQ(ctx.send(1, 3, &v, sizeof v), Err::kSuccess);
    } else {
      double v = 0;
      MsgStatus st;
      EXPECT_EQ(ctx.recv(0, 3, &v, sizeof v, &st), Err::kSuccess);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 3);
      EXPECT_EQ(st.bytes, sizeof v);
      received = v;
    }
    ctx.finalize();
  };
  SimResult r = run_app(tiny_config(2), app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  EXPECT_DOUBLE_EQ(received, 42.5);
}

TEST(P2P, ReceiveCompletionAdvancesVirtualClock) {
  SimTime recv_end = 0;
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      std::uint64_t v = 7;
      ctx.send(1, 0, &v, sizeof v);
    } else {
      std::uint64_t v = 0;
      ctx.recv(0, 0, &v, sizeof v);
      recv_end = ctx.now();
    }
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  // One-way: overhead (500ns) + 2 hops (star) * 1us + 8B/1GBps (8ns), plus
  // receiver overhead 500ns.
  const SimTime expected = sim_ns(500) + 2 * sim_us(1) + sim_ns(8) + sim_ns(500);
  EXPECT_EQ(recv_end, expected);
}

TEST(P2P, SenderRacesAheadReceiverMatchesLateMessage) {
  // Receiver computes for 1 virtual second before posting the receive; the
  // message waits in the unexpected queue and matches at max(post, arrival).
  SimTime recv_end = 0;
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      std::uint64_t v = 1;
      ctx.send(1, 0, &v, sizeof v);
    } else {
      ctx.compute(1e9);  // 1e9 units * 1 ns = 1 s.
      std::uint64_t v = 0;
      ctx.recv(0, 0, &v, sizeof v);
      recv_end = ctx.now();
    }
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  EXPECT_EQ(recv_end, sim_sec(1) + sim_ns(500));  // post time + recv overhead
}

TEST(P2P, AnySourceAndAnyTagMatch) {
  // A modeled message carries no bytes and no payload block: its envelope
  // alone must match the wildcards.
  for (const bool modeled : {false, true}) {
    SCOPED_TRACE(modeled ? "modeled" : "real bytes");
    int got_source = -1, got_tag = -1;
    std::size_t got_bytes = 0;
    auto app = [&](Context& ctx) {
      if (ctx.rank() == 2) {
        std::uint32_t v = 0;
        MsgStatus st;
        EXPECT_EQ(modeled ? ctx.recv_modeled(ctx.world(), vmpi::kAnySource, vmpi::kAnyTag,
                                             sizeof v, &st)
                          : ctx.recv(vmpi::kAnySource, vmpi::kAnyTag, &v, sizeof v, &st),
                  Err::kSuccess);
        got_source = st.source;
        got_tag = st.tag;
        got_bytes = st.bytes;
      } else if (ctx.rank() == 1) {
        std::uint32_t v = 9;
        if (modeled) {
          ctx.send_modeled(ctx.world(), 2, 5, sizeof v);
        } else {
          ctx.send(2, 5, &v, sizeof v);
        }
      }
      ctx.finalize();
    };
    SimResult r = run_app(tiny_config(3), app);
    EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
    EXPECT_EQ(got_source, 1);
    EXPECT_EQ(got_tag, 5);
    EXPECT_EQ(got_bytes, sizeof(std::uint32_t));
  }
}

TEST(P2P, AnySourceTakesTheEarliestOfThreeModeledUnexpectedArrivals) {
  // Rank 3's first receive creates source 1's match bucket, so the buckets
  // come in the order 1, 2, 0 while the unexpected arrivals come 2, 0, 1:
  // ANY_SOURCE + ANY_TAG must follow the arrivals, not the buckets.
  std::vector<std::pair<int, int>> got;  // (source, tag) per receive.
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    const int r = ctx.rank();
    if (r == 3) {
      EXPECT_EQ(ctx.recv_modeled(w, 1, 99, 8), Err::kSuccess);
      ctx.elapse(sim_us(100));  // All three below have arrived by now.
      for (int i = 0; i < 3; ++i) {
        MsgStatus st;
        EXPECT_EQ(ctx.recv_modeled(w, vmpi::kAnySource, vmpi::kAnyTag, 8, &st), Err::kSuccess);
        EXPECT_EQ(st.bytes, 8u);
        got.emplace_back(st.source, st.tag);
      }
    } else {
      if (r == 1) ctx.send_modeled(w, 3, 99, 8);
      ctx.elapse(sim_us(r == 2 ? 10 : r == 0 ? 20 : 30));
      ctx.send_modeled(w, 3, 10 + r, 8);
    }
    ctx.finalize();
  };
  SimResult res = run_app(tiny_config(4), app);
  EXPECT_EQ(res.outcome, SimResult::Outcome::kCompleted);
  const std::vector<std::pair<int, int>> want = {{2, 12}, {0, 10}, {1, 11}};
  EXPECT_EQ(got, want);
}

TEST(P2P, TagSelectivityHoldsMessagesApart) {
  std::vector<int> order;
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      int a = 1, b = 2;
      ctx.send(1, 10, &a, sizeof a);
      ctx.send(1, 20, &b, sizeof b);
    } else {
      int v = 0;
      // Receive tag 20 first even though tag 10 arrived first.
      ctx.recv(0, 20, &v, sizeof v);
      order.push_back(v);
      ctx.recv(0, 10, &v, sizeof v);
      order.push_back(v);
    }
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 1);
}

TEST(P2P, FifoOrderPerSenderAndTag) {
  std::vector<int> got;
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 8; ++i) ctx.send(1, 0, &i, sizeof i);
    } else {
      for (int i = 0; i < 8; ++i) {
        int v = -1;
        ctx.recv(0, 0, &v, sizeof v);
        got.push_back(v);
      }
    }
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  std::vector<int> expected(8);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(got, expected);
}

TEST(P2P, RendezvousTransfersLargePayloadIntact) {
  // 512 KiB > 256 KiB eager threshold -> rendezvous protocol.
  const std::size_t n = 512 * 1024 / sizeof(std::uint32_t);
  bool ok = false;
  auto app = [&](Context& ctx) {
    std::vector<std::uint32_t> buf(n);
    if (ctx.rank() == 0) {
      for (std::size_t i = 0; i < n; ++i) buf[i] = static_cast<std::uint32_t>(i * 2654435761u);
      EXPECT_EQ(ctx.send(1, 1, buf.data(), buf.size() * 4), Err::kSuccess);
    } else {
      EXPECT_EQ(ctx.recv(0, 1, buf.data(), buf.size() * 4), Err::kSuccess);
      ok = true;
      for (std::size_t i = 0; i < n; i += 1001) {
        if (buf[i] != static_cast<std::uint32_t>(i * 2654435761u)) ok = false;
      }
    }
    ctx.finalize();
  };
  SimResult r = run_app(tiny_config(2), app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  EXPECT_TRUE(ok);
}

TEST(P2P, RendezvousIsSlowerThanEagerForSamePayload) {
  // Time a 100 KiB transfer under a 64 KiB threshold (rendezvous) vs a
  // 256 KiB threshold (eager): the RTS/CTS round trip must show up.
  auto timed = [&](std::size_t threshold) {
    SimTime end = 0;
    auto cfg = tiny_config(2);
    cfg.net.eager_threshold = threshold;
    auto app = [&](Context& ctx) {
      std::vector<std::byte> buf(100 * 1024);
      if (ctx.rank() == 0) {
        ctx.send(1, 0, buf.data(), buf.size());
      } else {
        ctx.recv(0, 0, buf.data(), buf.size());
        end = ctx.now();
      }
      ctx.finalize();
    };
    run_app(cfg, app);
    return end;
  };
  const SimTime rendezvous = timed(64 * 1024);
  const SimTime eager = timed(256 * 1024);
  EXPECT_GT(rendezvous, eager);
  // The gap is at least one control-message round trip (2 x 2 hops x 1 us).
  EXPECT_GE(rendezvous - eager, 2 * 2 * sim_us(1));
}

TEST(P2P, IsendIrecvWaitall) {
  std::vector<int> got(4, -1);
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    if (ctx.rank() == 0) {
      int vals[4] = {10, 11, 12, 13};
      std::vector<vmpi::RequestHandle> hs;
      for (int i = 0; i < 4; ++i) hs.push_back(ctx.isend(w, 1, i, &vals[i], sizeof(int)));
      EXPECT_EQ(ctx.waitall(w, hs, nullptr), Err::kSuccess);
    } else {
      std::vector<vmpi::RequestHandle> hs;
      for (int i = 0; i < 4; ++i) hs.push_back(ctx.irecv(w, 0, i, &got[i], sizeof(int)));
      std::vector<MsgStatus> sts;
      EXPECT_EQ(ctx.waitall(w, hs, &sts), Err::kSuccess);
      ASSERT_EQ(sts.size(), 4u);
      EXPECT_EQ(sts[2].tag, 2);
    }
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  EXPECT_EQ(got, (std::vector<int>{10, 11, 12, 13}));
}

TEST(P2P, TestPollsCompletion) {
  bool completed_eventually = false;
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    if (ctx.rank() == 0) {
      // Delay the send by a virtual millisecond.
      ctx.elapse(sim_ms(1));
      int v = 5;
      ctx.send(1, 0, &v, sizeof v);
    } else {
      int v = 0;
      auto h = ctx.irecv(w, 0, 0, &v, sizeof v);
      MsgStatus st;
      Err e = Err::kSuccess;
      // Not yet complete: the sender has not even sent.
      EXPECT_FALSE(ctx.test(h, &st, &e));
      // Blocking wait finishes it.
      EXPECT_EQ(ctx.wait(w, h), Err::kSuccess);
      completed_eventually = (v == 5);
    }
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  EXPECT_TRUE(completed_eventually);
}

TEST(P2P, SendrecvExchangesWithoutDeadlock) {
  // Classic head-to-head exchange with large (rendezvous) payloads: naive
  // blocking send/recv would deadlock; sendrecv must not.
  bool ok0 = false, ok1 = false;
  const std::size_t bytes = 512 * 1024;
  auto app = [&](Context& ctx) {
    std::vector<std::byte> out(bytes, std::byte{static_cast<unsigned char>(ctx.rank() + 1)});
    std::vector<std::byte> in(bytes);
    const int peer = 1 - ctx.rank();
    EXPECT_EQ(ctx.sendrecv(ctx.world(), peer, 0, out.data(), bytes, peer, 0, in.data(), bytes),
              Err::kSuccess);
    const bool ok = in[0] == std::byte{static_cast<unsigned char>(peer + 1)} &&
                    in[bytes - 1] == std::byte{static_cast<unsigned char>(peer + 1)};
    (ctx.rank() == 0 ? ok0 : ok1) = ok;
    ctx.finalize();
  };
  SimResult r = run_app(tiny_config(2), app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  EXPECT_TRUE(ok0);
  EXPECT_TRUE(ok1);
}

TEST(P2P, TruncationReportsError) {
  Err got = Err::kSuccess;
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    ctx.set_error_handler(w, vmpi::ErrorHandlerKind::kReturn);
    if (ctx.rank() == 0) {
      std::uint64_t big[4] = {1, 2, 3, 4};
      ctx.send(1, 0, big, sizeof big);
    } else {
      std::uint64_t small = 0;
      got = ctx.recv(0, 0, &small, sizeof small);
    }
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  EXPECT_EQ(got, Err::kTruncate);
}

TEST(P2P, ProbeSeesMessageWithoutConsuming) {
  for (const bool modeled : {false, true}) {
    SCOPED_TRACE(modeled ? "modeled" : "real bytes");
    bool probe_ok = false, recv_ok = false;
    auto app = [&](Context& ctx) {
      if (ctx.rank() == 0) {
        int v = 77;
        if (modeled) {
          ctx.send_modeled(ctx.world(), 1, 4, sizeof v);
        } else {
          ctx.send(1, 4, &v, sizeof v);
        }
      } else {
        MsgStatus st;
        EXPECT_EQ(ctx.probe(ctx.world(), 0, 4, &st), Err::kSuccess);
        probe_ok = st.bytes == sizeof(int) && st.source == 0 && st.tag == 4;
        int v = 0;
        if (modeled) {
          EXPECT_EQ(ctx.recv_modeled(ctx.world(), 0, 4, sizeof v, &st), Err::kSuccess);
          recv_ok = st.bytes == sizeof(int) && st.source == 0 && st.tag == 4;
        } else {
          EXPECT_EQ(ctx.recv(0, 4, &v, sizeof v), Err::kSuccess);
          recv_ok = v == 77;
        }
      }
      ctx.finalize();
    };
    run_app(tiny_config(2), app);
    EXPECT_TRUE(probe_ok);
    EXPECT_TRUE(recv_ok);
  }
}

TEST(P2P, ModeledRendezvousCompletesWithItsStatus) {
  // 512 KiB > the 256 KiB eager threshold: an RTS, a CTS and bulk data, none
  // carrying bytes. The receive is posted first, then arrives late.
  constexpr std::size_t kBytes = 512 * 1024;
  for (const bool receiver_late : {false, true}) {
    SCOPED_TRACE(receiver_late ? "unexpected RTS" : "posted receive");
    auto run = [&](std::size_t eager_threshold, MsgStatus* st) {
      Err send_err = Err::kInvalidArg, recv_err = Err::kInvalidArg;
      SimTime recv_end = 0;
      auto app = [&](Context& ctx) {
        if (ctx.rank() == 0) {
          send_err = ctx.send_modeled(ctx.world(), 1, 7, kBytes);
        } else {
          if (receiver_late) ctx.elapse(sim_us(100));
          recv_err = ctx.recv_modeled(ctx.world(), vmpi::kAnySource, vmpi::kAnyTag, kBytes, st);
          recv_end = ctx.now();
        }
        ctx.finalize();
      };
      auto cfg = tiny_config(2);
      cfg.net.eager_threshold = eager_threshold;
      EXPECT_EQ(run_app(cfg, app).outcome, SimResult::Outcome::kCompleted);
      EXPECT_EQ(send_err, Err::kSuccess);
      EXPECT_EQ(recv_err, Err::kSuccess);
      return recv_end;
    };
    MsgStatus st, eager_st;
    const SimTime rendezvous_end = run(256 * 1024, &st);
    EXPECT_EQ(st.source, 0);
    EXPECT_EQ(st.tag, 7);
    EXPECT_EQ(st.bytes, kBytes);
    EXPECT_EQ(st.error, Err::kSuccess);
    // The same message sent eagerly completes earlier: the handshake ran.
    EXPECT_GT(rendezvous_end, run(1024 * 1024, &eager_st));
  }
}

TEST(P2P, ModeledTransfersCarryTimingWithoutPayload) {
  SimTime modeled_end = 0, real_end = 0;
  const std::size_t bytes = 4096;
  auto run_variant = [&](bool modeled) {
    SimTime end = 0;
    auto app = [&](Context& ctx) {
      if (ctx.rank() == 0) {
        std::vector<std::byte> buf(bytes);
        if (modeled) {
          ctx.send_modeled(ctx.world(), 1, 0, bytes);
        } else {
          ctx.send(1, 0, buf.data(), bytes);
        }
      } else {
        std::vector<std::byte> buf(bytes);
        if (modeled) {
          ctx.recv_modeled(ctx.world(), 0, 0, bytes);
        } else {
          ctx.recv(0, 0, buf.data(), bytes);
        }
        end = ctx.now();
      }
      ctx.finalize();
    };
    run_app(tiny_config(2), app);
    return end;
  };
  modeled_end = run_variant(true);
  real_end = run_variant(false);
  EXPECT_EQ(modeled_end, real_end) << "modeled transfers must cost exactly like real ones";
}

TEST(P2P, SelfMessagingWorks) {
  int v_out = 123, v_in = 0;
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    auto r = ctx.irecv(w, 0, 9, &v_in, sizeof v_in);
    auto s = ctx.isend(w, 0, 9, &v_out, sizeof v_out);
    EXPECT_EQ(ctx.waitall(w, {r, s}, nullptr), Err::kSuccess);
    ctx.finalize();
  };
  SimResult res = run_app(tiny_config(1), app);
  EXPECT_EQ(res.outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(v_in, 123);
}

TEST(P2P, DeterministicAcrossRuns) {
  auto run_once = [&] {
    auto cfg = tiny_config(8);
    auto app = [](Context& ctx) {
      // All-to-one with staggered compute: exercises matching order.
      ctx.compute(static_cast<double>(ctx.rank()) * 100.0);
      if (ctx.rank() == 0) {
        for (int i = 1; i < ctx.size(); ++i) {
          std::uint64_t v = 0;
          ctx.recv(vmpi::kAnySource, 0, &v, sizeof v);
        }
      } else {
        std::uint64_t v = ctx.rank();
        ctx.send(0, 0, &v, sizeof v);
      }
      ctx.finalize();
    };
    return run_app(cfg, app).max_end_time;
  };
  const SimTime a = run_once();
  const SimTime b = run_once();
  EXPECT_EQ(a, b);
}

// ---- Wakeup filter (DESIGN.md §13) ----------------------------------------

TEST(P2P, WakeupFilterMatchesEagerFieldForField) {
  // Fan-in: rank 0 receives from every peer in rank order, so most arrivals
  // reach it while it is blocked on a receive they cannot complete. The
  // filtered dispatcher must suppress those resumes (counted) without
  // changing any simulated quantity vs eager dispatch.
  auto run_mode = [&](bool eager) {
    auto app = [](Context& ctx) {
      std::uint64_t v = static_cast<std::uint64_t>(ctx.rank());
      if (ctx.rank() == 0) {
        // Reverse source order: arrivals process in ascending source key
        // order, so while blocked on the highest source every lower-source
        // arrival is unexpected — suppressible under filtered dispatch.
        for (int src = ctx.size() - 1; src >= 1; --src) {
          std::uint64_t got = 0;
          EXPECT_EQ(ctx.recv(src, 0, &got, sizeof got), Err::kSuccess);
          EXPECT_EQ(got, static_cast<std::uint64_t>(src));
        }
      } else {
        ctx.send(0, 0, &v, sizeof v);
      }
      ctx.finalize();
    };
    core::SimConfig cfg = tiny_config(8);
    cfg.process.eager_wakeup = eager;
    return run_app(cfg, app);
  };
  const SimResult filtered = run_mode(false);
  const SimResult eager = run_mode(true);
  const PerfSnapshot& df = filtered.perf;
  const PerfSnapshot& de = eager.perf;
  EXPECT_GT(df.wakeups_suppressed, 0u);
  EXPECT_EQ(de.wakeups_suppressed, 0u);
  EXPECT_LT(df.fiber_resumes, de.fiber_resumes);  // Fewer switches, same sim.
  EXPECT_EQ(filtered.outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(filtered.outcome, eager.outcome);
  EXPECT_EQ(filtered.events_processed, eager.events_processed);
  EXPECT_EQ(filtered.max_end_time, eager.max_end_time);
  EXPECT_EQ(filtered.min_end_time, eager.min_end_time);
  EXPECT_EQ(filtered.total_busy_time, eager.total_busy_time);
  EXPECT_EQ(filtered.total_comm_time, eager.total_comm_time);
  EXPECT_EQ(filtered.finished_count, eager.finished_count);
}

/// A dim^3-rank 6-neighbour modeled halo loop on a periodic
/// dim x dim x dim rank grid, run on `cfg`.
SimResult halo_loop(core::SimConfig cfg, int dim, int iters) {
  auto app = [dim, iters](Context& ctx) {
    const int r = ctx.rank();
    const int x = r % dim, y = (r / dim) % dim, z = r / (dim * dim);
    auto at = [dim](int xx, int yy, int zz) {
      auto wrap = [dim](int v) { return (v + dim) % dim; };
      return wrap(xx) + dim * (wrap(yy) + dim * wrap(zz));
    };
    const int nbr[6] = {at(x - 1, y, z), at(x + 1, y, z), at(x, y - 1, z),
                        at(x, y + 1, z), at(x, y, z - 1), at(x, y, z + 1)};
    auto& w = ctx.world();
    vmpi::RequestHandle hs[12];
    for (int it = 0; it < iters; ++it) {
      ctx.compute(1e4);
      for (int d = 0; d < 6; ++d) hs[d] = ctx.irecv_modeled(w, nbr[d], d ^ 1, 4096);
      for (int d = 0; d < 6; ++d) hs[6 + d] = ctx.isend_modeled(w, nbr[d], d, 4096);
      EXPECT_EQ(ctx.waitall(w, hs), Err::kSuccess);
    }
    ctx.finalize();
  };
  return run_app(std::move(cfg), app);
}

/// The 64-rank 4x4x4 halo loop; returns the result and the fiber resumes.
SimResult halo_loop(int iters, std::uint64_t* resumes, bool eager = false) {
  core::SimConfig cfg = tiny_config(64);
  cfg.process.eager_wakeup = eager;
  SimResult res = halo_loop(std::move(cfg), 4, iters);
  *resumes = res.perf.fiber_resumes;
  return res;
}

/// sim_result_json without the host-dependent fields.
std::string simulated_json(SimResult r) {
  r.wall_seconds = r.events_per_sec = r.ns_per_event = r.heap_allocs_per_event = 0;
  r.perf = PerfSnapshot{};
  return core::sim_result_json(r);
}

TEST(P2P, HaloWaitallResumesOncePerWait) {
  // Every rank posts its six receives before any neighbour's message can
  // arrive, so each waitall blocks; the six arrivals complete its requests
  // one by one and only the last may resume the fiber. Two loop lengths
  // cancel the start-up and finalize resumes.
  std::uint64_t r20 = 0, r40 = 0, eager20 = 0;
  const SimResult filtered = halo_loop(20, &r20);
  halo_loop(40, &r40);
  const SimResult eager = halo_loop(20, &eager20, /*eager=*/true);
  EXPECT_EQ(filtered.outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(r40 - r20, 20u * 64u);  // One resume per rank per waitall.
  EXPECT_GT(eager20, r20);
  EXPECT_EQ(simulated_json(filtered), simulated_json(eager));
}

TEST(P2P, RunQueueHaloMatchesOnFourWorkers) {
  // 512 ranks keep thousands of events pending, past the event queue's run
  // floor, so sorted runs serve the pops (the 64-rank goldens never get
  // there). Sequential and 4-worker runs must agree exactly.
  constexpr int kDim = 8;
  core::SimConfig sequential = tiny_config(kDim * kDim * kDim);
  sequential.sim_workers = 1;
  core::SimConfig sharded = sequential;
  sharded.sim_workers = 4;
  const SimResult seq = halo_loop(sequential, kDim, 10);
  const SimResult par = halo_loop(sharded, kDim, 10);
  const PerfSnapshot& seq_perf = seq.perf;
  const PerfSnapshot& par_perf = par.perf;
  EXPECT_EQ(seq.outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(simulated_json(seq), simulated_json(par));
  EXPECT_EQ(seq.events_processed, par.events_processed);
  EXPECT_EQ(seq.rank_end_times, par.rank_end_times);
  EXPECT_EQ(seq.rank_outcomes, par.rank_outcomes);
  std::printf("run pops: sequential %llu of %llu events, 4 workers %llu\n",
              static_cast<unsigned long long>(seq_perf.queue_near_hits),
              static_cast<unsigned long long>(seq.events_processed),
              static_cast<unsigned long long>(par_perf.queue_near_hits));
  EXPECT_GT(seq_perf.queue_near_hits, seq.events_processed / 2);
  EXPECT_GT(par_perf.queue_near_hits, 0u);
}

TEST(P2P, AnySourceMatchForcesWakeupUnderFiltering) {
  // Rank 0 blocks on an ANY_SOURCE receive while an unrelated arrival
  // completes a request it is NOT waiting on (suppressible), then the real
  // sender's message matches the wildcard — which must force the wakeup, or
  // the run deadlocks.
  std::uint64_t side = 0, wanted = 0;
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      auto h = ctx.irecv(ctx.world(), 2, 9, &side, sizeof side);
      EXPECT_EQ(ctx.recv(vmpi::kAnySource, 0, &wanted, sizeof wanted), Err::kSuccess);
      EXPECT_EQ(ctx.wait(ctx.world(), h), Err::kSuccess);
    } else if (ctx.rank() == 1) {
      ctx.compute(1e6);  // Send after rank 2's side traffic arrived.
      std::uint64_t v = 41;
      ctx.send(0, 0, &v, sizeof v);
    } else {
      std::uint64_t v = 17;
      ctx.send(0, 9, &v, sizeof v);
    }
    ctx.finalize();
  };
  SimResult r = run_app(tiny_config(3), app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(wanted, 41u);
  EXPECT_EQ(side, 17u);
}

// ---------------------------------------------------------------------------
// Matching engine: request slots, match buckets and the counted wait.
// ---------------------------------------------------------------------------

TEST(P2P, StaleHandleAfterSlotReuseIsInvalid) {
  // Releasing a request frees its slot; the next post reuses it. The old
  // handle must resolve to nothing and leave the new request untouched.
  // The freed slot is a receive's: an eager send holds none.
  std::uint64_t got = 0;
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    if (ctx.rank() == 0) {
      std::uint64_t v = 0;
      const auto old = ctx.irecv(w, 1, 0, &v, sizeof v);
      EXPECT_EQ(ctx.wait(w, old), Err::kSuccess);
      const auto fresh = ctx.irecv(w, 1, 1, &got, sizeof got);
      EXPECT_EQ(fresh.slot, old.slot);
      EXPECT_NE(fresh.serial, old.serial);
      Err e = Err::kSuccess;
      MsgStatus st;
      EXPECT_TRUE(ctx.test(old, &st, &e));
      EXPECT_EQ(e, Err::kInvalidArg);
      MsgStatus fresh_st;
      EXPECT_EQ(ctx.wait(w, fresh, &fresh_st), Err::kSuccess);
      EXPECT_EQ(fresh_st.source, 1);
      EXPECT_EQ(fresh_st.tag, 1);
    } else {
      std::uint64_t v = 5;
      ctx.send(0, 0, &v, sizeof v);
      ctx.compute(1e6);  // The reply arrives long after the stale test().
      v = 77;
      ctx.send(0, 1, &v, sizeof v);
    }
    ctx.finalize();
  };
  EXPECT_EQ(run_app(tiny_config(2), app).outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(got, 77u);
}

TEST(P2P, EarliestPostedReceiveWinsAfterSlotReuse) {
  // Free slots are reused last-released-first, so a later post can take a
  // lower slot than an earlier one. Matching must still follow post order,
  // whether the earlier receive is the ANY_SOURCE or the explicit one. The
  // slots are freed by receives from rank 2 on a tag the ANY_SOURCE
  // receives do not match.
  constexpr int kFreeTag = 5;
  std::uint64_t any_first[2] = {0, 0};       // {ANY_SOURCE, explicit}
  std::uint64_t explicit_first[2] = {0, 0};  // {explicit, ANY_SOURCE}
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    if (ctx.rank() == 0) {
      auto free_two_slots = [&] {
        std::uint64_t v[2] = {0, 0};
        const auto a = ctx.irecv(w, 2, kFreeTag, &v[0], sizeof v[0]);
        const auto b = ctx.irecv(w, 2, kFreeTag, &v[1], sizeof v[1]);
        EXPECT_EQ(ctx.wait(w, a), Err::kSuccess);
        EXPECT_EQ(ctx.wait(w, b), Err::kSuccess);
      };
      free_two_slots();
      const auto any = ctx.irecv(w, vmpi::kAnySource, 0, &any_first[0], sizeof(std::uint64_t));
      const auto exp = ctx.irecv(w, 1, 0, &any_first[1], sizeof(std::uint64_t));
      EXPECT_GT(any.slot, exp.slot);
      EXPECT_EQ(ctx.waitall(w, {any, exp}), Err::kSuccess);

      free_two_slots();
      const auto exp2 = ctx.irecv(w, 1, 0, &explicit_first[0], sizeof(std::uint64_t));
      const auto any2 =
          ctx.irecv(w, vmpi::kAnySource, 0, &explicit_first[1], sizeof(std::uint64_t));
      EXPECT_GT(exp2.slot, any2.slot);
      EXPECT_EQ(ctx.waitall(w, {exp2, any2}), Err::kSuccess);
    } else if (ctx.rank() == 1) {
      for (std::uint64_t v = 1; v <= 4; ++v) {
        ctx.compute(1e6);  // Every receive is posted before its message lands.
        ctx.send(0, 0, &v, sizeof v);
      }
    } else {
      for (std::uint64_t v = 0; v < 4; ++v) ctx.send(0, kFreeTag, &v, sizeof v);
    }
    ctx.finalize();
  };
  EXPECT_EQ(run_app(tiny_config(3), app).outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(any_first[0], 1u);
  EXPECT_EQ(any_first[1], 2u);
  EXPECT_EQ(explicit_first[0], 3u);
  EXPECT_EQ(explicit_first[1], 4u);
}

/// 1,000 senders each send their rank to rank 0, which receives them in
/// reverse source order — growing the match-bucket table several times —
/// either after every message is already unexpected or from receives
/// posted before any message arrives.
void fan_in_reverse(bool posted_first) {
  constexpr int kSenders = 1000;
  std::vector<std::uint64_t> got(kSenders + 1, 0);
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    if (ctx.rank() == 0) {
      if (posted_first) {
        std::vector<vmpi::RequestHandle> hs;
        for (int src = kSenders; src >= 1; --src) {
          hs.push_back(ctx.irecv(w, src, 0, &got[static_cast<std::size_t>(src)],
                                 sizeof(std::uint64_t)));
        }
        EXPECT_EQ(ctx.waitall(w, hs), Err::kSuccess);
      } else {
        ctx.compute(1e9);  // Every message arrives unexpected.
        for (int src = kSenders; src >= 1; --src) {
          EXPECT_EQ(ctx.recv(src, 0, &got[static_cast<std::size_t>(src)],
                             sizeof(std::uint64_t)),
                    Err::kSuccess);
        }
      }
    } else {
      if (posted_first) ctx.compute(1e6);
      const auto v = static_cast<std::uint64_t>(ctx.rank());
      ctx.send(0, 0, &v, sizeof v);
    }
    ctx.finalize();
  };
  EXPECT_EQ(run_app(tiny_config(kSenders + 1), app).outcome, SimResult::Outcome::kCompleted);
  for (int src = 1; src <= kSenders; ++src) {
    ASSERT_EQ(got[static_cast<std::size_t>(src)], static_cast<std::uint64_t>(src));
  }
}

TEST(P2P, ThousandSourceFanInAllUnexpected) { fan_in_reverse(/*posted_first=*/false); }

TEST(P2P, ThousandSourceFanInPostedFirst) { fan_in_reverse(/*posted_first=*/true); }

/// Rank 0 receives from `senders` ranks through receives posted before and
/// after the messages land: explicit-source, ANY_SOURCE and ANY_TAG ones.
/// A rank with up to eight (comm, source) buckets finds one by scanning
/// them; the ninth builds the hash table. With 8 senders the receiver ends
/// with eight buckets, with 9 the table is built between two unexpected
/// arrivals of the second burst, and with 16 during the first burst. Each sender s sends three modeled
/// messages: tag 7 (s even) or 3 (s odd) at s us, tag 5 at 500 + s us and
/// tag 9 at 2,000 + (senders + 1 - s) us; sender `senders` also sends the
/// tag-99 message that lets rank 0 go on once the first two bursts are in.
/// Returns the (source, tag) of every receive in post order.
std::vector<std::pair<int, int>> matching_across_bucket_switch(int senders) {
  const int n = senders;
  std::vector<std::pair<int, int>> got;
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    auto wait_until_us = [&ctx](std::int64_t us) { ctx.elapse(sim_us(us) - ctx.now()); };
    auto recv = [&](int src, int tag) { return ctx.irecv_modeled(w, src, tag, 8); };
    auto wait = [&](std::vector<vmpi::RequestHandle> hs) {
      std::vector<MsgStatus> st;
      EXPECT_EQ(ctx.waitall(w, hs, &st), Err::kSuccess);
      for (const MsgStatus& s : st) {
        EXPECT_EQ(s.bytes, 8u);
        got.emplace_back(s.source, s.tag);
      }
    };
    const int s = ctx.rank();
    if (s != 0) {
      wait_until_us(s);
      ctx.send_modeled(w, 0, s % 2 == 0 ? 7 : 3, 8);
      wait_until_us(500 + s);
      ctx.send_modeled(w, 0, 5, 8);
      if (s == n) {
        wait_until_us(900);
        ctx.send_modeled(w, 0, 99, 8);
      }
      wait_until_us(2000 + n + 1 - s);
      ctx.send_modeled(w, 0, 9, 8);
      ctx.finalize();
      return;
    }
    // Posted before any arrival; the tag-99 receive blocks until the first
    // two bursts have landed, all but three of them unexpected.
    const auto early = {recv(vmpi::kAnySource, 7), recv(1, vmpi::kAnyTag),
                        recv(vmpi::kAnySource, vmpi::kAnyTag)};
    wait({recv(n, 99)});
    wait(early);
    // Posted after: each matches an unexpected message at once.
    std::vector<vmpi::RequestHandle> late = {recv(n, vmpi::kAnyTag), recv(vmpi::kAnySource, 7),
                                             recv(vmpi::kAnySource, 5), recv(2, 5)};
    for (int src = n; src >= 3; --src) late.push_back(recv(src, 5));
    for (int i = 0; i < n - 5; ++i) late.push_back(recv(vmpi::kAnySource, vmpi::kAnyTag));
    wait(late);
    // Posted before the third burst, which lands in reverse source order.
    std::vector<vmpi::RequestHandle> third = {recv(vmpi::kAnySource, 9), recv(n - 1, 9),
                                              recv(vmpi::kAnySource, vmpi::kAnyTag)};
    for (int src = 1; src <= n - 3; ++src) third.push_back(recv(src, 9));
    wait(third);
    ctx.finalize();
  };
  EXPECT_EQ(run_app(tiny_config(n + 1), app).outcome, SimResult::Outcome::kCompleted);
  return got;
}

TEST(P2P, MatchingOrderHoldsAcrossTheBucketScanTableSwitch) {
  for (const int n : {8, 9, 16}) {
    SCOPED_TRACE(std::to_string(n) + " senders");
    auto first_tag = [](int s) { return s % 2 == 0 ? 7 : 3; };
    std::vector<std::pair<int, int>> want;
    // Rank n's tag-99 message, then the three early receives in post
    // order: the earliest-posted matching receive takes each arrival, so
    // (1, 3) goes to the explicit receive ahead of the ANY/ANY one.
    for (const auto& [src, tag] : {std::pair{n, 99}, {2, 7}, {1, 3}, {3, 3}}) {
      want.emplace_back(src, tag);
    }
    // The late receives: source n's earliest message, the earliest tag 7
    // and tag 5 arrivals, source 2's tag 5, every other tag 5 by source,
    // then what is left of the first burst in arrival order.
    for (const auto& [src, tag] : {std::pair{n, first_tag(n)}, {4, 7}, {1, 5}, {2, 5}}) {
      want.emplace_back(src, tag);
    }
    for (int s = n; s >= 3; --s) want.emplace_back(s, 5);
    for (int s = 5; s < n; ++s) want.emplace_back(s, first_tag(s));
    // The third burst against receives posted before it: rank n lands
    // first and takes the earliest-posted ANY_SOURCE receive, n - 1 its
    // explicit receive ahead of the ANY/ANY one, which n - 2 then takes;
    // the rest each have their explicit receive.
    for (int s = n; s >= n - 2; --s) want.emplace_back(s, 9);
    for (int s = 1; s <= n - 3; ++s) want.emplace_back(s, 9);
    EXPECT_EQ(matching_across_bucket_switch(n), want);
  }
}

TEST(P2P, DuplicatedHandleInWaitallCompletes) {
  // The counted wait counts a duplicated handle once; both entries report.
  std::uint64_t got = 0;
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    if (ctx.rank() == 0) {
      const auto h = ctx.irecv(w, 1, 0, &got, sizeof got);
      std::vector<MsgStatus> sts;
      EXPECT_EQ(ctx.waitall(w, {h, h}, &sts), Err::kSuccess);
      ASSERT_EQ(sts.size(), 2u);
      EXPECT_EQ(sts[0].source, 1);
      EXPECT_EQ(sts[1].source, 1);
    } else {
      ctx.compute(1e6);
      std::uint64_t v = 33;
      ctx.send(0, 0, &v, sizeof v);
    }
    ctx.finalize();
  };
  EXPECT_EQ(run_app(tiny_config(2), app).outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(got, 33u);
}

TEST(P2P, StaleErrorWakeupOnReusedSlotIsIgnored) {
  // Rank 0 sends to rank 1 and fails at once. The failure notice reaches
  // rank 1 while its receive from rank 0 is still posted, scheduling a
  // timeout release (1 ms); the in-flight message then completes the
  // receive. Its slot is reused by a receive from rank 2 that lands after
  // the stale release fires — which must not fail the new request.
  std::uint64_t first = 0, second = 0;
  Err second_err = Err::kPending;
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    if (ctx.rank() == 0) {
      std::uint64_t v = 11;
      ctx.isend(w, 1, 0, &v, sizeof v);
      ctx.fail_now();
    } else if (ctx.rank() == 1) {
      const auto h = ctx.irecv(w, 0, 0, &first, sizeof first);
      EXPECT_EQ(ctx.wait(w, h), Err::kSuccess);
      EXPECT_NE(resilience::find_notice(ctx.failed_peers(), 0), nullptr);
      const auto h2 = ctx.irecv(w, 2, 0, &second, sizeof second);
      EXPECT_EQ(h2.slot, h.slot);
      second_err = ctx.wait(w, h2);
      EXPECT_GT(ctx.now(), sim_ms(2));
    } else {
      ctx.compute(2e6);  // 2 ms: after the stale release at ~1 ms.
      std::uint64_t v = 22;
      ctx.send(1, 0, &v, sizeof v);
    }
    ctx.finalize();
  };
  run_app(tiny_config(3), app);
  EXPECT_EQ(first, 11u);
  EXPECT_EQ(second_err, Err::kSuccess);
  EXPECT_EQ(second, 22u);
}

TEST(P2P, FailureReleasesFollowPostOrderAfterSlotReuse) {
  // Rank 1 posts receives A then B from rank 0, with slot reuse giving B
  // the lower slot (two receives from rank 2 free the slots). Rank 0 fails;
  // both releases fall due at the same instant and are scheduled in post
  // order, so A's release resumes the fiber while B's is still pending.
  bool b_done_at_a_release = true;
  Err b_err = Err::kSuccess;
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    if (ctx.rank() == 0) {
      ctx.compute(1e5);  // Fails after rank 1 has posted A and B.
      ctx.fail_now();
    } else if (ctx.rank() == 1) {
      ctx.set_error_handler(w, vmpi::ErrorHandlerKind::kReturn);
      std::uint64_t v[2] = {0, 0};
      const auto r1 = ctx.irecv(w, 2, 0, &v[0], sizeof v[0]);
      const auto r2 = ctx.irecv(w, 2, 0, &v[1], sizeof v[1]);
      EXPECT_EQ(ctx.wait(w, r1), Err::kSuccess);
      EXPECT_EQ(ctx.wait(w, r2), Err::kSuccess);
      std::uint64_t a_buf = 0, b_buf = 0;
      const auto a = ctx.irecv(w, 0, 1, &a_buf, sizeof a_buf);
      const auto b = ctx.irecv(w, 0, 2, &b_buf, sizeof b_buf);
      EXPECT_GT(a.slot, b.slot);
      EXPECT_EQ(ctx.wait(w, a), Err::kProcFailed);
      Err e = Err::kSuccess;
      b_done_at_a_release = ctx.test(b, nullptr, &e);
      b_err = ctx.wait(w, b);
    } else {
      for (std::uint64_t v = 0; v < 2; ++v) ctx.send(1, 0, &v, sizeof v);
    }
    ctx.finalize();
  };
  run_app(tiny_config(3), app);
  EXPECT_FALSE(b_done_at_a_release);
  EXPECT_EQ(b_err, Err::kProcFailed);
}

// ---------------------------------------------------------------------------
// Completed-send handles: an eager isend is done when posted and holds no
// request slot; every completion call reports it as a success with an empty
// status, which is what a send's status always was.
// ---------------------------------------------------------------------------

void expect_empty_status(const MsgStatus& st) {
  const MsgStatus none{};
  EXPECT_EQ(st.source, none.source);
  EXPECT_EQ(st.tag, none.tag);
  EXPECT_EQ(st.bytes, none.bytes);
  EXPECT_EQ(st.error, none.error);
}

TEST(P2P, EagerIsendHandlesCompleteInEveryCompletionCall) {
  std::uint64_t got[2] = {0, 0};
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    if (ctx.rank() == 0) {
      std::uint64_t v = 7;
      const auto waited = ctx.isend(w, 1, 0, &v, sizeof v);
      EXPECT_EQ(waited.slot, vmpi::kNoSlot);
      MsgStatus st{1, 2, 3, Err::kPending};
      EXPECT_EQ(ctx.wait(w, waited, &st), Err::kSuccess);
      expect_empty_status(st);

      // test() before and after a wait: complete, like MPI_Test on a null
      // request.
      const auto tested = ctx.isend(w, 1, 1, &v, sizeof v);
      Err e = Err::kPending;
      st = MsgStatus{1, 2, 3, Err::kPending};
      EXPECT_TRUE(ctx.test(tested, &st, &e));
      EXPECT_EQ(e, Err::kSuccess);
      expect_empty_status(st);
      e = Err::kPending;
      EXPECT_TRUE(ctx.test(waited, &st, &e));
      EXPECT_EQ(e, Err::kSuccess);
      expect_empty_status(st);

      // waitall over sends only, then mixed with receives and duplicates.
      const auto s1 = ctx.isend(w, 1, 2, &v, sizeof v);
      const auto s2 = ctx.isend(w, 1, 2, &v, sizeof v);
      std::vector<MsgStatus> sts;
      EXPECT_EQ(ctx.waitall(w, {s1, s2}, &sts), Err::kSuccess);
      ASSERT_EQ(sts.size(), 2u);
      for (const MsgStatus& s : sts) expect_empty_status(s);

      const auto r1 = ctx.irecv(w, 1, 3, &got[0], sizeof got[0]);
      const auto s3 = ctx.isend(w, 1, 4, &v, sizeof v);
      const auto r2 = ctx.irecv(w, 1, 5, &got[1], sizeof got[1]);
      EXPECT_EQ(ctx.waitall(w, {s3, r1, s3, r2, r1, s3}, &sts), Err::kSuccess);
      ASSERT_EQ(sts.size(), 6u);
      expect_empty_status(sts[0]);
      EXPECT_EQ(sts[1].source, 1);
      EXPECT_EQ(sts[1].tag, 3);
      expect_empty_status(sts[2]);
      EXPECT_EQ(sts[3].source, 1);
      EXPECT_EQ(sts[3].tag, 5);
      EXPECT_EQ(sts[4].source, 1);  // A duplicate reports the same status.
      EXPECT_EQ(sts[4].tag, 3);
      expect_empty_status(sts[5]);
    } else {
      for (int tag : {0, 1, 2, 2, 4}) {
        std::uint64_t v = 0;
        EXPECT_EQ(ctx.recv(0, tag, &v, sizeof v), Err::kSuccess);
        EXPECT_EQ(v, 7u);
      }
      ctx.compute(1e6);  // The replies land after rank 0 is blocked.
      std::uint64_t v = 31;
      ctx.send(0, 3, &v, sizeof v);
      v = 35;
      ctx.send(0, 5, &v, sizeof v);
    }
    ctx.finalize();
  };
  EXPECT_EQ(run_app(tiny_config(2), app).outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(got[0], 31u);
  EXPECT_EQ(got[1], 35u);
}

/// Slot of the first irecv rank 0 posts after 1,000 eager isends it has not
/// waited on.
std::uint32_t first_recv_slot_after_eager_isends(bool traced) {
  constexpr int kSends = 1000;
  std::uint32_t slot = 0;
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    std::uint64_t v = 1;
    if (ctx.rank() == 0) {
      std::vector<vmpi::RequestHandle> sends;
      for (int i = 0; i < kSends; ++i) sends.push_back(ctx.isend(w, 1, 0, &v, sizeof v));
      const auto h = ctx.irecv(w, 1, 1, &v, sizeof v);
      slot = h.slot;
      EXPECT_EQ(ctx.wait(w, h), Err::kSuccess);
      EXPECT_EQ(ctx.waitall(w, sends), Err::kSuccess);
    } else {
      for (int i = 0; i < kSends; ++i) ctx.recv(0, 0, &v, sizeof v);
      ctx.send(0, 1, &v, sizeof v);
    }
    ctx.finalize();
  };
  core::SimConfig cfg = tiny_config(2);
  cfg.trace = traced;
  EXPECT_EQ(run_app(std::move(cfg), app).outcome, SimResult::Outcome::kCompleted);
  return slot;
}

TEST(P2P, EagerIsendsHoldNoSlotUnlessTraced) {
  EXPECT_EQ(first_recv_slot_after_eager_isends(/*traced=*/false), 0u);
  // The trace records a request at wait time, so a traced send keeps its
  // slot until then.
  EXPECT_GT(first_recv_slot_after_eager_isends(/*traced=*/true), 0u);
}

TEST(P2P, EagerIsendToKnownFailedPeerCompletesAtPost) {
  // The NIC injects the message whether or not the peer is alive; the send
  // completes at post and the wait does not move the clock.
  bool knew = false;
  Err err = Err::kPending;
  Err test_err = Err::kPending;
  SimTime after_post = 0, after_wait = 0;
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    if (ctx.rank() == 0) {
      ctx.fail_now();
    } else {
      // A receive from the failed peer fails only once its notice is in.
      ctx.set_error_handler(w, vmpi::ErrorHandlerKind::kReturn);
      std::uint64_t none = 0;
      EXPECT_EQ(ctx.recv(w, 0, 0, &none, sizeof none), Err::kProcFailed);
      knew = resilience::find_notice(ctx.failed_peers(), 0) != nullptr;
      std::uint64_t v = 9;
      const auto h = ctx.isend(w, 0, 0, &v, sizeof v);
      after_post = ctx.now();
      MsgStatus st{1, 2, 3, Err::kPending};
      err = ctx.wait(w, h, &st);
      after_wait = ctx.now();
      expect_empty_status(st);
      EXPECT_TRUE(ctx.test(h, nullptr, &test_err));
      ctx.finalize();
    }
  };
  run_app(tiny_config(2), app);
  EXPECT_TRUE(knew);
  EXPECT_EQ(err, Err::kSuccess);
  EXPECT_EQ(test_err, Err::kSuccess);
  EXPECT_EQ(after_wait, after_post);
}

TEST(P2P, TwoThousandConcurrentRendezvousIsendsComplete) {
  // Each CTS and each bulk-data arrival names its request by handle, so
  // thousands of outstanding rendezvous transfers resolve in O(1) apiece.
  constexpr int kMsgs = 2000;
  std::vector<std::uint64_t> got(kMsgs, 0);
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    std::vector<vmpi::RequestHandle> hs;
    if (ctx.rank() == 0) {
      std::vector<std::uint64_t> out(kMsgs);
      std::iota(out.begin(), out.end(), std::uint64_t{1});
      for (int i = 0; i < kMsgs; ++i) {
        hs.push_back(ctx.isend(w, 1, i, &out[static_cast<std::size_t>(i)], sizeof(std::uint64_t)));
      }
      EXPECT_EQ(ctx.waitall(w, hs), Err::kSuccess);
    } else {
      ctx.compute(1e5);  // Every RTS is unexpected by the time it is matched.
      for (int i = kMsgs - 1; i >= 0; --i) {
        hs.push_back(ctx.irecv(w, 0, i, &got[static_cast<std::size_t>(i)], sizeof(std::uint64_t)));
      }
      EXPECT_EQ(ctx.waitall(w, hs), Err::kSuccess);
    }
    ctx.finalize();
  };
  core::SimConfig cfg = tiny_config(2);
  cfg.net.eager_threshold = 4;  // Force rendezvous for 8-byte payloads.
  EXPECT_EQ(run_app(cfg, app).outcome, SimResult::Outcome::kCompleted);
  for (int i = 0; i < kMsgs; ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)], static_cast<std::uint64_t>(i + 1));
  }
}

TEST(P2P, StaleCtsAfterTimeoutReleaseIsDropped) {
  // 10 ms links, two hops each way, 1 ms failure timeout. Rank 1 matches
  // rank 0's RTS at ~20 ms, so its CTS reaches rank 0 at ~40 ms; rank 1
  // fails at 30 ms and rank 0's send is released by the timeout at 31 ms.
  // Rank 0's next rendezvous send, to rank 2, reuses the slot. The stale
  // CTS must not complete it: rank 2 posts its receive only at 60 ms.
  std::uint64_t got = 0;
  Err first_err = Err::kSuccess;
  Err second_err = Err::kPending;
  SimTime first_done = 0, second_done = 0;
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    ctx.set_error_handler(w, vmpi::ErrorHandlerKind::kReturn);
    if (ctx.rank() == 0) {
      std::uint64_t v = 7, u = 8;
      const auto h = ctx.isend(w, 1, 0, &v, sizeof v);
      first_err = ctx.wait(w, h);
      first_done = ctx.now();
      const auto h2 = ctx.isend(w, 2, 0, &u, sizeof u);
      EXPECT_EQ(h2.slot, h.slot);
      second_err = ctx.wait(w, h2);
      second_done = ctx.now();
    } else if (ctx.rank() == 1) {
      std::uint64_t sink = 0;
      ctx.recv(0, 0, &sink, sizeof sink);  // Fails while awaiting the data.
    } else {
      ctx.elapse(sim_ms(60));
      EXPECT_EQ(ctx.recv(0, 0, &got, sizeof got), Err::kSuccess);
    }
    ctx.finalize();
  };
  core::SimConfig cfg = tiny_config(3);
  cfg.net.link_latency = sim_ms(10);
  cfg.net.eager_threshold = 4;
  cfg.failures = {FailureSpec{1, sim_ms(30)}};
  run_app(cfg, app);
  EXPECT_EQ(first_err, Err::kProcFailed);
  EXPECT_GT(first_done, sim_ms(30));
  EXPECT_LT(first_done, sim_ms(40));  // Released before the CTS arrives.
  EXPECT_EQ(second_err, Err::kSuccess);
  EXPECT_GT(second_done, sim_ms(60));
  EXPECT_EQ(got, 8u);
}

// Deadlock: both ranks recv from each other with nothing sent.
TEST(P2P, GenuineDeadlockIsReported) {
  auto app = [](Context& ctx) {
    int v = 0;
    ctx.recv(1 - ctx.rank(), 0, &v, sizeof v);
    ctx.finalize();
  };
  SimResult r = run_app(tiny_config(2), app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kDeadlock);
  EXPECT_EQ(r.deadlocked_ranks.size(), 2u);
}

// Parameterized sweep: payload sizes across the eager/rendezvous boundary
// all deliver intact.
class PayloadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PayloadSweep, DeliversIntact) {
  const std::size_t bytes = GetParam();
  bool ok = false;
  auto app = [&](Context& ctx) {
    std::vector<std::uint8_t> buf(bytes);
    if (ctx.rank() == 0) {
      for (std::size_t i = 0; i < bytes; ++i) buf[i] = static_cast<std::uint8_t>(i * 7 + 3);
      ctx.send(1, 0, buf.data(), bytes);
    } else {
      ctx.recv(0, 0, buf.data(), bytes);
      ok = true;
      for (std::size_t i = 0; i < bytes; i += 97) {
        if (buf[i] != static_cast<std::uint8_t>(i * 7 + 3)) ok = false;
      }
    }
    ctx.finalize();
  };
  SimResult r = run_app(tiny_config(2), app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PayloadSweep,
                         ::testing::Values(std::size_t{1}, std::size_t{8}, std::size_t{1024},
                                           std::size_t{256 * 1024},       // boundary (eager)
                                           std::size_t{256 * 1024 + 1},   // boundary+1 (rdv)
                                           std::size_t{1024 * 1024}));

// Receive buffers on the receiving rank's own stack. The engine delivers
// outside the fiber, and while other ranks of the LP group take their turns
// on the group's shared stack the receiver's frames sit in its saved image,
// so the bytes must land there (Fiber::locate): an eager double and a
// rendezvous array above the eager threshold, at 1 and 4 engine workers.
class StackReceive : public ::testing::TestWithParam<int> {};

TEST_P(StackReceive, DeliversExactBytesIntoASuspendedRanksStack) {
  constexpr int kRanks = 16;
  constexpr std::size_t kEagerThreshold = 1024;
  constexpr std::size_t kRendezvousBytes = 3000;
  constexpr double kValue = 2.718281828459045;
  core::SimConfig cfg = tiny_config(kRanks);
  cfg.ranks_per_node = 4;  // At 4 workers: four LP groups of four ranks.
  cfg.sim_workers = GetParam();
  cfg.net.eager_threshold = kEagerThreshold;
  auto pattern = [](std::size_t i) { return static_cast<std::uint8_t>(i * 7 + 3); };
  double got = 0;
  std::size_t wrong_bytes = kRendezvousBytes;
  auto app = [&](Context& ctx) {
    const int r = ctx.rank();
    if (r == 0) {
      double v = 0;
      EXPECT_EQ(ctx.recv(1, 1, &v, sizeof v), Err::kSuccess);  // Eager, same group.
      std::uint8_t big[kRendezvousBytes] = {};
      EXPECT_EQ(ctx.recv(8, 2, big, sizeof big), Err::kSuccess);  // Rendezvous.
      got = v;
      wrong_bytes = 0;
      for (std::size_t i = 0; i < sizeof big; ++i) wrong_bytes += big[i] != pattern(i);
    } else if (r == 1) {
      ctx.compute(2e6);  // 2 ms: rank 0 posts long before the message comes.
      EXPECT_EQ(ctx.send(0, 1, &kValue, sizeof kValue), Err::kSuccess);
    } else if (r == 8) {
      ctx.compute(4e6);
      std::vector<std::uint8_t> data(kRendezvousBytes);
      for (std::size_t i = 0; i < data.size(); ++i) data[i] = pattern(i);
      EXPECT_EQ(ctx.send(0, 2, data.data(), data.size()), Err::kSuccess);
    } else if (r != 9) {
      // Ping-pong with a partner in the same node until after both
      // deliveries, taking turns on the group's stack with rank 0.
      const int partner = r ^ 1;
      std::uint64_t token = 0;
      for (int round = 0; round < 60; ++round) {
        ctx.compute(1e5);
        if (r < partner) {
          ctx.send(partner, 0, &token, sizeof token);
          ctx.recv(partner, 0, &token, sizeof token);
        } else {
          ctx.recv(partner, 0, &token, sizeof token);
          ++token;
          ctx.send(partner, 0, &token, sizeof token);
        }
      }
    }
    ctx.finalize();
  };
  const SimResult res = run_app(std::move(cfg), app);
  EXPECT_EQ(res.outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(std::memcmp(&got, &kValue, sizeof got), 0);
  EXPECT_EQ(wrong_bytes, 0u);
  EXPECT_GT(res.perf.stack_bytes_copied, 0u);
}

INSTANTIATE_TEST_SUITE_P(Workers, StackReceive, ::testing::Values(1, 4));

}  // namespace
}  // namespace exasim
