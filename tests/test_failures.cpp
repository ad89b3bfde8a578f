// Paper-semantics tests: MPI process failure injection (§IV-B), timeout-based
// detection and notification (§IV-C), MPI abort propagation (§IV-D), and
// error handlers.

#include <gtest/gtest.h>

#include <vector>

#include "sim_test_util.hpp"
#include "util/parse.hpp"
#include "vmpi/context.hpp"

namespace exasim {
namespace {

using core::SimResult;
using test::run_app;
using test::tiny_config;
using vmpi::Context;
using vmpi::Err;

test::QuietLogs quiet;

TEST(FailureInjection, ScheduledFailureActivatesAtClockUpdate) {
  // Rank 1 computes in 10 x 100ms chunks; failure scheduled at 250ms must
  // activate at the *first clock update at/after* 250ms -> 300ms (§IV-B:
  // scheduled time is the earliest time of failure).
  auto cfg = tiny_config(2);
  cfg.failures = {FailureSpec{1, sim_ms(250)}};
  auto app = [](Context& ctx) {
    if (ctx.rank() == 1) {
      for (int i = 0; i < 10; ++i) ctx.compute(100e6);  // 100 ms each
    }
    ctx.finalize();
  };
  SimResult r = run_app(cfg, app);
  ASSERT_EQ(r.activated_failures.size(), 1u);
  EXPECT_EQ(r.activated_failures[0].rank, 1);
  EXPECT_EQ(r.activated_failures[0].time, sim_ms(300));
  EXPECT_EQ(r.failed_count, 1);
}

TEST(FailureInjection, ActualTimeEqualsScheduledWhenBlocked) {
  // Rank 1 blocks immediately in a receive that never completes; the
  // activation event fails it exactly at the scheduled time.
  auto cfg = tiny_config(2);
  cfg.failures = {FailureSpec{1, sim_ms(50)}};
  auto app = [](Context& ctx) {
    if (ctx.rank() == 1) {
      int v = 0;
      ctx.recv(0, 0, &v, sizeof v);  // Never sent.
    } else {
      ctx.compute(1e9);
    }
    ctx.finalize();
  };
  SimResult r = run_app(cfg, app);
  ASSERT_EQ(r.activated_failures.size(), 1u);
  EXPECT_EQ(r.activated_failures[0].time, sim_ms(50));
}

TEST(FailureInjection, FailNowFromApplication) {
  // The simulator-internal function is callable by the application (§IV-B).
  auto app = [](Context& ctx) {
    if (ctx.rank() == 1) {
      ctx.compute(5e6);
      ctx.fail_now();
    }
    ctx.finalize();
  };
  SimResult r = run_app(tiny_config(2), app);
  ASSERT_EQ(r.activated_failures.size(), 1u);
  EXPECT_EQ(r.activated_failures[0].rank, 1);
  EXPECT_EQ(r.activated_failures[0].time, sim_ms(5));
}

TEST(FailureInjection, ReturnFromMainWithoutFinalizeIsFailure) {
  // "...or returning from main() or calling exit() without having called
  // MPI_Finalize()" (§IV-B).
  auto app = [](Context& ctx) {
    if (ctx.rank() == 0) ctx.finalize();
    // Rank 1 returns without finalize.
  };
  SimResult r = run_app(tiny_config(2), app);
  EXPECT_EQ(r.failed_count, 1);
  ASSERT_EQ(r.activated_failures.size(), 1u);
  EXPECT_EQ(r.activated_failures[0].rank, 1);
}

TEST(FailureInjection, ScheduleStringParsesAndInjects) {
  auto specs = parse_failure_schedule("1@30ms,0@2s");
  ASSERT_TRUE(specs.has_value());
  ASSERT_EQ(specs->size(), 2u);
  EXPECT_EQ((*specs)[0].rank, 1);
  EXPECT_EQ((*specs)[0].time, sim_ms(30));

  auto cfg = tiny_config(2);
  cfg.failures = *specs;
  auto app = [](Context& ctx) {
    ctx.compute(10e9);  // 10 s: both failures activate.
    ctx.finalize();
  };
  SimResult r = run_app(cfg, app);
  EXPECT_EQ(r.failed_count, 2);
}

TEST(Detection, BlockedRecvOnFailedRankTimesOut) {
  // Rank 0 blocks receiving from rank 1; rank 1 fails at 10ms. Detection =
  // max(post, t_fail) + timeout (1ms in tiny_config) (§IV-C).
  Err got = Err::kSuccess;
  SimTime detect_time = 0;
  auto cfg = tiny_config(2);
  cfg.failures = {FailureSpec{1, sim_ms(10)}};
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
      int v = 0;
      got = ctx.recv(1, 0, &v, sizeof v);
      detect_time = ctx.now();
    } else {
      int v = 0;
      ctx.recv(0, 0, &v, sizeof v);  // Blocks forever -> dies at 10ms.
    }
    ctx.finalize();
  };
  SimResult r = run_app(cfg, app);
  EXPECT_EQ(got, Err::kProcFailed);
  EXPECT_EQ(detect_time, sim_ms(10) + sim_ms(1));
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);  // Handler = return.
}

TEST(Detection, RecvPostedAfterNoticeAlsoFails) {
  // "Any similar receive requests waited on after receiving the ...
  // notification fail based on the per-process list" (§IV-C).
  Err got = Err::kSuccess;
  auto cfg = tiny_config(2);
  cfg.failures = {FailureSpec{1, sim_ms(1)}};
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
      ctx.compute(100e6);  // 100 ms: failure long past, notice received.
      int v = 0;
      got = ctx.recv(1, 0, &v, sizeof v);
      EXPECT_FALSE(ctx.failed_peers().empty());
    }
    // Rank 1 idles into its failure.
    if (ctx.rank() == 1) ctx.compute(1e9);
    ctx.finalize();
  };
  run_app(cfg, app);
  EXPECT_EQ(got, Err::kProcFailed);
}

TEST(Detection, AnySourceReleasedViaSynchronizationMechanism) {
  // ANY_SOURCE receives cannot fail eagerly; they are released through the
  // conservative-sync deadlock detection once nothing can match (§IV-C).
  Err got = Err::kSuccess;
  auto cfg = tiny_config(3);
  cfg.failures = {FailureSpec{2, sim_ms(5)}};
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
      int v = 0;
      // First receive matches rank 1's message; second can only be satisfied
      // by rank 2, which dies.
      EXPECT_EQ(ctx.recv(vmpi::kAnySource, 0, &v, sizeof v), Err::kSuccess);
      got = ctx.recv(vmpi::kAnySource, 0, &v, sizeof v);
    } else if (ctx.rank() == 1) {
      int v = 1;
      ctx.send(0, 0, &v, sizeof v);
    } else {
      ctx.compute(1e9);  // Dies at 5ms mid-compute... activation at 1e9 ns.
    }
    ctx.finalize();
  };
  SimResult r = run_app(cfg, app);
  EXPECT_EQ(got, Err::kProcFailed);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
}

TEST(Detection, BlockedRendezvousSendToFailedRankTimesOut) {
  Err got = Err::kSuccess;
  auto cfg = tiny_config(2);
  cfg.failures = {FailureSpec{1, sim_us(1)}};
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
      std::vector<std::byte> big(512 * 1024);  // Rendezvous: blocks on CTS.
      ctx.compute(1e6);                        // Let the failure happen first.
      got = ctx.send(1, 0, big.data(), big.size());
    } else {
      ctx.compute(1e9);
    }
    ctx.finalize();
  };
  run_app(cfg, app);
  EXPECT_EQ(got, Err::kProcFailed);
}

TEST(Detection, MessagesToFailedProcessAreDeleted) {
  // Eager sends to a dead process are dropped by the engine (§IV-B: "all
  // messages directed to this simulated MPI process are deleted").
  auto cfg = tiny_config(2);
  cfg.failures = {FailureSpec{1, sim_ns(1)}};
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.compute(1e6);
      int v = 3;
      // Eager send: completes locally (fire and forget).
      EXPECT_EQ(ctx.send(1, 0, &v, sizeof v), Err::kSuccess);
    } else {
      ctx.compute(1e9);
    }
    ctx.finalize();
  };
  SimResult r = run_app(cfg, app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(r.failed_count, 1);
  EXPECT_EQ(r.finished_count, 1);
}

TEST(Detection, InFlightMessageFromFailedProcessStillArrives) {
  // A message sent *before* the failure is already in the network and must
  // be delivered (only messages TO the dead process are deleted).
  int got = 0;
  auto cfg = tiny_config(2);
  cfg.failures = {FailureSpec{1, sim_us(10)}};
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 1) {
      int v = 55;
      ctx.send(0, 0, &v, sizeof v);  // At t~0, well before 10us.
      ctx.compute(1e9);              // Dies mid-compute.
      ctx.finalize();
    } else {
      ctx.compute(50e3);  // 50 us: arrival (~2.5us) is in the unexpected queue.
      ctx.recv(1, 0, &got, sizeof got);
      ctx.finalize();
    }
  };
  SimResult r = run_app(cfg, app);
  EXPECT_EQ(got, 55);
  EXPECT_EQ(r.finished_count, 1);
}

TEST(Abort, FatalHandlerAbortsWholeApplication) {
  // Default MPI_ERRORS_ARE_FATAL: a detected failure triggers MPI_Abort and
  // every process terminates (§IV-D).
  auto cfg = tiny_config(4);
  cfg.failures = {FailureSpec{3, sim_ms(1)}};
  auto app = [](Context& ctx) {
    int v = 0;
    if (ctx.rank() == 0) {
      ctx.recv(3, 0, &v, sizeof v);  // Detects the failure -> abort.
    } else if (ctx.rank() != 3) {
      ctx.recv(0, 1, &v, sizeof v);  // Blocked forever -> released by abort.
    } else {
      ctx.recv(0, 2, &v, sizeof v);  // Blocked -> fails exactly at 1ms.
    }
    ctx.finalize();
  };
  SimResult r = run_app(cfg, app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kAborted);
  EXPECT_EQ(r.abort_origin, 0);
  ASSERT_TRUE(r.abort_time.has_value());
  // Abort time = detection time = t_fail + timeout.
  EXPECT_EQ(*r.abort_time, sim_ms(1) + sim_ms(1));
  EXPECT_EQ(r.aborted_count, 3);
  EXPECT_EQ(r.failed_count, 1);
}

TEST(Abort, ProcessesAbortAtOrAfterAbortTime) {
  // A process whose clock is already past the abort time aborts at its own
  // clock; one blocked earlier aborts at the abort time (§IV-D).
  auto cfg = tiny_config(3);
  cfg.failures = {FailureSpec{2, sim_ms(1)}};
  auto app = [](Context& ctx) {
    int v = 0;
    if (ctx.rank() == 0) {
      ctx.recv(2, 0, &v, sizeof v);  // Detect at ~2ms -> abort.
    } else if (ctx.rank() == 1) {
      ctx.compute(100e6);  // Runs to 100 ms, well past the abort.
      ctx.recv(0, 1, &v, sizeof v);
    } else {
      ctx.recv(0, 2, &v, sizeof v);  // Blocked -> fails exactly at 1ms.
    }
    ctx.finalize();
  };
  SimResult r = run_app(cfg, app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kAborted);
  // Max end time is rank 1's clock (100 ms), not the abort time.
  EXPECT_EQ(r.max_end_time, sim_ms(100));
}

TEST(Abort, ExplicitAbortFromApplication) {
  auto app = [](Context& ctx) {
    if (ctx.rank() == 1) {
      ctx.compute(2e6);
      ctx.abort();
    }
    int v = 0;
    ctx.recv(1, 0, &v, sizeof v);  // Blocked; released by the abort.
    ctx.finalize();
  };
  SimResult r = run_app(tiny_config(2), app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kAborted);
  EXPECT_EQ(r.abort_origin, 1);
  EXPECT_EQ(*r.abort_time, sim_ms(2));
  EXPECT_EQ(r.failed_count, 0);
}

TEST(Abort, UserErrorHandlerRunsBeforeReturn) {
  int handler_calls = 0;
  Err seen = Err::kSuccess;
  auto cfg = tiny_config(2);
  cfg.failures = {FailureSpec{1, sim_us(1)}};
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kUser,
                            [&](Context&, vmpi::Comm&, Err e) {
                              ++handler_calls;
                              seen = e;
                            });
      ctx.compute(1e6);
      int v = 0;
      Err e = ctx.recv(1, 0, &v, sizeof v);
      EXPECT_EQ(e, Err::kProcFailed);
    } else {
      ctx.compute(1e9);
    }
    ctx.finalize();
  };
  SimResult r = run_app(cfg, app);
  EXPECT_EQ(handler_calls, 1);
  EXPECT_EQ(seen, Err::kProcFailed);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
}

TEST(Abort, UserPolicyWithoutHandlerReturnsTheError) {
  // kUser with no handler installed falls back to returning the error, as
  // MPI's errhandler-free fallback does: no abort, and the survivor
  // finishes.
  auto cfg = tiny_config(2);
  cfg.failures = {FailureSpec{1, sim_us(1)}};
  auto app = [](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kUser);
      ctx.compute(1e6);
      int v = 0;
      EXPECT_EQ(ctx.recv(1, 0, &v, sizeof v), Err::kProcFailed);
    } else {
      ctx.compute(1e9);
    }
    ctx.finalize();
  };
  SimResult r = run_app(cfg, app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  EXPECT_FALSE(r.abort_time.has_value());
  EXPECT_EQ(r.finished_count, 1);
  EXPECT_EQ(r.failed_count, 1);
}

TEST(Abort, TimingStatisticsCoverAllProcesses) {
  auto cfg = tiny_config(4);
  cfg.failures = {FailureSpec{0, sim_ms(1)}};
  auto app = [](Context& ctx) {
    ctx.compute(static_cast<double>(ctx.rank() + 1) * 1e6);
    if (ctx.rank() != 0) {
      int v = 0;
      ctx.recv(0, 0, &v, sizeof v);
    } else {
      ctx.compute(1e9);
    }
    ctx.finalize();
  };
  SimResult r = run_app(cfg, app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kAborted);
  EXPECT_GT(r.max_end_time, 0u);
  EXPECT_LE(r.min_end_time, r.max_end_time);
  EXPECT_GT(r.avg_end_time_sec, 0.0);
}

TEST(FailureInjection, FailureBeforeStartTerminatesImmediately) {
  auto cfg = tiny_config(2);
  cfg.failures = {FailureSpec{1, 0}};
  auto app = [](Context& ctx) {
    if (ctx.rank() == 1) {
      ADD_FAILURE() << "rank 1 must never run";
    }
    ctx.finalize();
  };
  SimResult r = run_app(cfg, app);
  EXPECT_EQ(r.failed_count, 1);
}

TEST(Detection, PerProcessFailedListsAreMaintained) {
  // Every surviving process learns rank+time of each failure (§IV-B).
  std::vector<std::size_t> list_sizes(3, 0);
  std::vector<SimTime> recorded_times(3, 0);
  auto cfg = tiny_config(3);
  cfg.failures = {FailureSpec{2, sim_ms(7)}};
  auto app = [&](Context& ctx) {
    int v = 0;
    if (ctx.rank() == 2) {
      ctx.recv(0, 99, &v, sizeof v);  // Blocked -> fails exactly at 7ms.
    } else if (ctx.rank() == 0) {
      // Block until rank 1's 50ms message: the 7ms notice arrives first.
      ctx.recv(1, 0, &v, sizeof v);
      list_sizes[0] = ctx.failed_peers().size();
      if (!ctx.failed_peers().empty()) {
        recorded_times[0] = ctx.failed_peers().front().t_fail;
      }
      ctx.send(1, 1, &v, sizeof v);
    } else {
      ctx.compute(50e6);
      ctx.send(0, 0, &v, sizeof v);
      ctx.recv(0, 1, &v, sizeof v);  // Blocks past the notice.
      list_sizes[1] = ctx.failed_peers().size();
      if (!ctx.failed_peers().empty()) {
        recorded_times[1] = ctx.failed_peers().front().t_fail;
      }
    }
    ctx.finalize();
  };
  run_app(cfg, app);
  EXPECT_EQ(list_sizes[0], 1u);
  EXPECT_EQ(list_sizes[1], 1u);
  EXPECT_EQ(recorded_times[0], sim_ms(7));
  EXPECT_EQ(recorded_times[1], sim_ms(7));
}

}  // namespace
}  // namespace exasim
