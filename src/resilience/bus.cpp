#include "resilience/bus.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "util/counters.hpp"

namespace exasim::resilience {

NotificationBus::NotificationBus(Wiring wiring) : wiring_(wiring) {
  if (wiring_.engine == nullptr) throw std::invalid_argument("null engine");
  if (wiring_.ranks <= 0) throw std::invalid_argument("ranks <= 0");
}

void NotificationBus::notify(SimTime time, int rank, int kind,
                             std::unique_ptr<EventPayload> payload) {
  wiring_.engine->schedule(time, rank, kind, std::move(payload), EventPriority::kControl);
  util::count(util::Counter::kFanoutNotices);
}

void NotificationBus::broadcast_failure(int failed_rank, SimTime t_fail) {
  for (int rank = 0; rank < wiring_.ranks; ++rank) {
    if (rank == failed_rank) continue;
    const SimTime detect = wiring_.detector != nullptr
                               ? wiring_.detector->detection_time(rank, failed_rank, t_fail)
                               : t_fail;
    auto payload = std::make_unique<FailureNoticePayload>();
    payload->failed_rank = failed_rank;
    payload->time_of_failure = t_fail;
    notify(detect, rank, wiring_.failure_kind, std::move(payload));
  }
}

void NotificationBus::broadcast_abort(int origin_rank, SimTime t_abort) {
  for (int rank = 0; rank < wiring_.ranks; ++rank) {
    if (rank == origin_rank) continue;
    auto payload = std::make_unique<AbortNoticePayload>();
    payload->origin_rank = origin_rank;
    payload->time_of_abort = t_abort;
    notify(t_abort, rank, wiring_.abort_kind, std::move(payload));
  }
}

void NotificationBus::broadcast_revoke(int origin_rank, int comm_id, SimTime when) {
  for (int rank = 0; rank < wiring_.ranks; ++rank) {
    if (rank == origin_rank) continue;
    auto payload = std::make_unique<RevokeNoticePayload>();
    payload->comm_id = comm_id;
    payload->time = when;
    notify(when, rank, wiring_.revoke_kind, std::move(payload));
  }
}

NotificationBus::DetectionStats NotificationBus::detection_stats(
    std::span<const FailureSpec> failures) const {
  DetectionStats stats;
  for (const FailureSpec& f : failures) {
    for (int rank = 0; rank < wiring_.ranks; ++rank) {
      if (rank == f.rank) continue;
      const SimTime detect = wiring_.detector != nullptr
                                 ? wiring_.detector->detection_time(rank, f.rank, f.time)
                                 : f.time;
      // An observer that itself failed at or before its would-be detection
      // time never sees the notice (the engine drops events to dead LPs), so
      // it must not count: otherwise a second failure re-counts every rank
      // that is already down and inflates the mean.
      bool observer_dead = false;
      for (const FailureSpec& other : failures) {
        if (other.rank == rank && other.time <= detect) {
          observer_dead = true;
          break;
        }
      }
      if (observer_dead) continue;
      const SimTime latency = detect - f.time;
      stats.max_latency = std::max(stats.max_latency, latency);
      stats.total_latency_sec += to_seconds(latency);
      ++stats.notices;
    }
  }
  return stats;
}

}  // namespace exasim::resilience
