#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "pdes/event.hpp"
#include "util/time.hpp"

namespace exasim::resilience {

/// Typed payloads for the simulator-internal resilience notices carried by
/// the NotificationBus (paper §IV-B: "each simulated MPI process is notified
/// using a simulator-internal broadcast mechanism"; §IV-D for aborts; §VI for
/// ULFM revocation). The simulated MPI layer aliases these into its own
/// namespace and dispatches on its event kinds; the bus itself only needs the
/// engine, which is why these live below vmpi in the layering.
///
/// A failure notice is delivered at the virtual time the observer's detector
/// declared the failure (equal to the failure time for the paper's instant
/// detector, later for timeout, heartbeat or gossip detection), so the
/// notice event's time is the detection time.
struct FailureNoticePayload final : EventPayload {
  int failed_rank = -1;
  /// Actual virtual time the process failed (>= its scheduled time, §IV-B).
  SimTime time_of_failure = 0;
};

struct AbortNoticePayload final : EventPayload {
  int origin_rank = -1;
  SimTime time_of_abort = 0;
};

struct RevokeNoticePayload final : EventPayload {
  int comm_id = 0;
  SimTime time = 0;
};

/// One delivered failure notice: `observer` learned at `arrival` (its
/// detector's detection time) that `failed_rank` died at `t_fail`.
///
/// Each simulated process keeps the notices it was delivered as its
/// failed-process list (paper §IV-B: "each simulated MPI process maintains
/// its own list of failed simulated MPI processes and their corresponding
/// time of failure"), sorted by failed rank. A notice to a process that had
/// already terminated is dropped, so an observer that was dead or finished
/// when its notice would have arrived has no record: the gap the model
/// checker's missed-notification analysis looks for (DESIGN.md §15).
struct NoticeArrival {
  std::int32_t observer = -1;
  std::int32_t failed_rank = -1;
  SimTime t_fail = 0;
  SimTime arrival = 0;

  friend bool operator==(const NoticeArrival&, const NoticeArrival&) = default;
};

/// Adds `notice` to a failed-process list in failed-rank order. A process
/// fails once per launch, so an observer hears of each failed rank once.
inline void insert_notice(std::vector<NoticeArrival>& list, const NoticeArrival& notice) {
  const auto at = std::lower_bound(
      list.begin(), list.end(), notice.failed_rank,
      [](const NoticeArrival& n, std::int32_t rank) { return n.failed_rank < rank; });
  list.insert(at, notice);
}

/// The list's notice of `failed_rank`'s failure; nullptr if none arrived.
inline const NoticeArrival* find_notice(std::span<const NoticeArrival> list, int failed_rank) {
  const auto at = std::lower_bound(
      list.begin(), list.end(), failed_rank,
      [](const NoticeArrival& n, int rank) { return n.failed_rank < rank; });
  return at != list.end() && at->failed_rank == failed_rank ? &*at : nullptr;
}

}  // namespace exasim::resilience
