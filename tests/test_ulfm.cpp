// ULFM extension tests (paper §VI, future-work item 3): MPI_ERR_PROC_FAILED
// surfacing, failure_ack/get_acked, Comm_revoke, Comm_shrink, Comm_agree.

#include <gtest/gtest.h>

#include <vector>

#include "sim_test_util.hpp"
#include "vmpi/context.hpp"

namespace exasim {
namespace {

using core::SimResult;
using test::run_app;
using test::tiny_config;
using vmpi::Context;
using vmpi::Err;

test::QuietLogs quiet;

TEST(Ulfm, ProcFailedErrorCodeSurfacesUnderReturnHandler) {
  Err got = Err::kSuccess;
  auto cfg = tiny_config(2);
  cfg.failures = {FailureSpec{1, sim_us(1)}};
  auto app = [&](Context& ctx) {
    ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
    if (ctx.rank() == 0) {
      int v = 0;
      got = ctx.recv(1, 0, &v, sizeof v);
    } else {
      int v = 0;
      ctx.recv(0, 0, &v, sizeof v);  // Dies blocked.
    }
    ctx.finalize();
  };
  run_app(cfg, app);
  EXPECT_EQ(got, Err::kProcFailed);
}

TEST(Ulfm, FailureAckAndGetAcked) {
  std::vector<vmpi::Rank> acked;
  auto cfg = tiny_config(3);
  cfg.failures = {FailureSpec{2, sim_ms(1)}};
  auto app = [&](Context& ctx) {
    ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
    if (ctx.rank() == 2) {
      int v = 0;
      ctx.recv(0, 9, &v, sizeof v);
      ctx.finalize();
      return;
    }
    if (ctx.rank() == 0) {
      int v = 0;
      EXPECT_EQ(ctx.recv(2, 0, &v, sizeof v), Err::kProcFailed);  // Detect.
      EXPECT_TRUE(ctx.failure_get_acked(ctx.world()).empty());    // Before ack.
      ctx.failure_ack(ctx.world());
      acked = ctx.failure_get_acked(ctx.world());
    }
    ctx.finalize();
  };
  run_app(cfg, app);
  ASSERT_EQ(acked.size(), 1u);
  EXPECT_EQ(acked[0], 2);
}

TEST(Ulfm, AckSnapshotsArePerCommunicator) {
  // Rank 2 fails at 1 ms and rank 3 at 5 ms. Rank 0 acknowledges on the
  // world after the first failure and on a dup and an even-rank split after
  // the second: each communicator keeps its own snapshot, a snapshot holds
  // only the communicator's members, and a failure noticed after an ack
  // stays out of that ack's snapshot.
  std::vector<vmpi::Rank> world_first, dup_first, world_last, dup_last, even_last;
  auto cfg = tiny_config(4);
  cfg.failures = {FailureSpec{2, sim_ms(1)}, FailureSpec{3, sim_ms(5)}};
  auto app = [&](Context& ctx) {
    ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
    vmpi::Comm* dup = ctx.comm_dup(ctx.world());
    vmpi::Comm* even = ctx.comm_split(ctx.world(), ctx.rank() % 2, ctx.rank());
    ASSERT_NE(dup, nullptr);
    ASSERT_NE(even, nullptr);
    int v = 0;
    if (ctx.rank() >= 2) {
      ctx.recv(0, 9, &v, sizeof v);  // Dies blocked.
    } else if (ctx.rank() == 0) {
      EXPECT_EQ(ctx.recv(2, 0, &v, sizeof v), Err::kProcFailed);
      ctx.failure_ack(ctx.world());
      world_first = ctx.failure_get_acked(ctx.world());
      dup_first = ctx.failure_get_acked(*dup);
      EXPECT_EQ(ctx.recv(3, 0, &v, sizeof v), Err::kProcFailed);
      EXPECT_EQ(ctx.failed_peers().size(), 2u);
      ctx.failure_ack(*dup);
      ctx.failure_ack(*even);
      world_last = ctx.failure_get_acked(ctx.world());
      dup_last = ctx.failure_get_acked(*dup);
      even_last = ctx.failure_get_acked(*even);
    }
    ctx.finalize();
  };
  run_app(cfg, app);
  EXPECT_EQ(world_first, std::vector<vmpi::Rank>{2});
  EXPECT_TRUE(dup_first.empty());
  EXPECT_EQ(world_last, std::vector<vmpi::Rank>{2});
  EXPECT_EQ(dup_last, (std::vector<vmpi::Rank>{2, 3}));
  EXPECT_EQ(even_last, std::vector<vmpi::Rank>{2});
}

TEST(Ulfm, RevokePoisonsPendingAndFutureOperations) {
  Err pending_err = Err::kSuccess, future_err = Err::kSuccess;
  auto app = [&](Context& ctx) {
    ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
    if (ctx.rank() == 0) {
      int v = 0;
      // Pending recv (from rank 2, which never sends) released by revoke.
      pending_err = ctx.recv(2, 0, &v, sizeof v);
      // Post-revoke operation fails immediately.
      future_err = ctx.recv(2, 1, &v, sizeof v);
    } else if (ctx.rank() == 1) {
      ctx.compute(1e6);  // 1 ms, then revoke.
      ctx.comm_revoke(ctx.world());
    } else {
      ctx.compute(5e6);
    }
    ctx.finalize();
  };
  SimResult r = run_app(tiny_config(3), app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(pending_err, Err::kRevoked);
  EXPECT_EQ(future_err, Err::kRevoked);
}

TEST(Ulfm, RevokeReleasesManyPendingRequests) {
  // More pending requests than the revoke path keeps in place: every one
  // of them completes with kRevoked.
  constexpr int kPending = 20;
  std::vector<Err> errs;
  auto app = [&](Context& ctx) {
    ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
    if (ctx.rank() == 0) {
      std::vector<vmpi::RequestHandle> reqs;
      for (int tag = 0; tag < kPending; ++tag) {
        reqs.push_back(ctx.irecv_modeled(ctx.world(), 2, tag, 8));  // Never sent.
      }
      for (const vmpi::RequestHandle h : reqs) errs.push_back(ctx.wait(ctx.world(), h));
    } else if (ctx.rank() == 1) {
      ctx.compute(1e6);  // 1 ms, then revoke.
      ctx.comm_revoke(ctx.world());
    } else {
      ctx.compute(5e6);
    }
    ctx.finalize();
  };
  SimResult r = run_app(tiny_config(3), app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(errs, std::vector<Err>(kPending, Err::kRevoked));
}

TEST(Ulfm, ShrinkExcludesFailedRanksAndWorks) {
  std::vector<int> shrunk_size(4, -1), shrunk_rank(4, -1);
  long long sum_after = -1;
  auto cfg = tiny_config(4);
  cfg.failures = {FailureSpec{1, sim_ms(1)}};
  auto app = [&](Context& ctx) {
    ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
    if (ctx.rank() == 1) {
      int v = 0;
      ctx.recv(0, 9, &v, sizeof v);  // Dies blocked at 1ms.
      ctx.finalize();
      return;
    }
    // Detect the failure (timeout on a receive from the dead rank).
    int v = 0;
    EXPECT_EQ(ctx.recv(1, 0, &v, sizeof v), Err::kProcFailed);
    // Recover: shrink the world and keep computing on the survivors.
    vmpi::Comm* shrunk = ctx.comm_shrink(ctx.world());
    ASSERT_NE(shrunk, nullptr);
    shrunk_size[ctx.rank()] = shrunk->size();
    shrunk_rank[ctx.rank()] = shrunk->my_rank;
    std::int64_t mine = ctx.rank(), out = 0;
    EXPECT_EQ(ctx.allreduce(*shrunk, vmpi::ReduceOp::kSum, vmpi::Dtype::kI64, &mine, &out, 1),
              Err::kSuccess);
    if (ctx.rank() == 0) sum_after = out;
    ctx.finalize();
  };
  SimResult r = run_app(cfg, app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(shrunk_size[0], 3);
  EXPECT_EQ(shrunk_size[2], 3);
  EXPECT_EQ(shrunk_size[3], 3);
  EXPECT_EQ(shrunk_rank[0], 0);
  EXPECT_EQ(shrunk_rank[2], 1);  // World rank 2 -> shrunk rank 1.
  EXPECT_EQ(shrunk_rank[3], 2);
  EXPECT_EQ(sum_after, 0 + 2 + 3);
}

TEST(Ulfm, ShrinkOnRevokedCommunicatorStillWorks) {
  std::vector<int> sizes(3, -1);
  auto cfg = tiny_config(3);
  cfg.failures = {FailureSpec{2, sim_ms(1)}};
  auto app = [&](Context& ctx) {
    ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
    if (ctx.rank() == 2) {
      int v = 0;
      ctx.recv(0, 9, &v, sizeof v);
      ctx.finalize();
      return;
    }
    if (ctx.rank() == 0) {
      int v = 0;
      EXPECT_EQ(ctx.recv(2, 0, &v, sizeof v), Err::kProcFailed);
      ctx.comm_revoke(ctx.world());  // Tell everyone recovery is needed.
    } else {
      // Rank 1 learns via the revoke poisoning its pending operation.
      int v = 0;
      EXPECT_EQ(ctx.recv(0, 5, &v, sizeof v), Err::kRevoked);
    }
    vmpi::Comm* shrunk = ctx.comm_shrink(ctx.world());
    ASSERT_NE(shrunk, nullptr);
    sizes[ctx.rank()] = shrunk->size();
    ctx.finalize();
  };
  SimResult r = run_app(cfg, app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(sizes[0], 2);
  EXPECT_EQ(sizes[1], 2);
}

TEST(Ulfm, AgreeComputesAndAcrossSurvivors) {
  std::vector<int> agreed(3, -1);
  auto cfg = tiny_config(3);
  cfg.failures = {FailureSpec{2, sim_ms(1)}};
  auto app = [&](Context& ctx) {
    ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
    if (ctx.rank() == 2) {
      int v = 0;
      ctx.recv(0, 9, &v, sizeof v);
      ctx.finalize();
      return;
    }
    // Wait until the failure is known so the survivor set is stable.
    int v = 0;
    EXPECT_EQ(ctx.recv(2, 0, &v, sizeof v), Err::kProcFailed);
    bool flag = ctx.rank() == 0;  // Rank 0: true, rank 1: false -> AND false.
    EXPECT_EQ(ctx.comm_agree(ctx.world(), &flag), Err::kSuccess);
    agreed[ctx.rank()] = flag ? 1 : 0;
    ctx.finalize();
  };
  run_app(cfg, app);
  EXPECT_EQ(agreed[0], 0);
  EXPECT_EQ(agreed[1], 0);
}

TEST(Ulfm, AgreeTrueWhenAllTrue) {
  std::vector<int> agreed(2, -1);
  auto app = [&](Context& ctx) {
    bool flag = true;
    EXPECT_EQ(ctx.comm_agree(ctx.world(), &flag), Err::kSuccess);
    agreed[ctx.rank()] = flag ? 1 : 0;
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  EXPECT_EQ(agreed[0], 1);
  EXPECT_EQ(agreed[1], 1);
}

}  // namespace
}  // namespace exasim
