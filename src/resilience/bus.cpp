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
  {
    std::lock_guard<std::mutex> lock(log_mutex_);
    failures_.push_back({failed_rank, t_fail});
  }
  for (int rank = 0; rank < wiring_.ranks; ++rank) {
    if (rank == failed_rank) continue;
    const SimTime detect = wiring_.detector != nullptr
                               ? wiring_.detector->detection_time(rank, failed_rank, t_fail)
                               : t_fail;
    auto payload = std::make_unique<FailureNoticePayload>();
    payload->failed_rank = failed_rank;
    payload->time_of_failure = t_fail;
    payload->detect_time = detect;
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

NotificationBus::DetectionStats NotificationBus::detection_stats() const {
  std::vector<FailureRecord> log;
  {
    std::lock_guard<std::mutex> lock(log_mutex_);
    log = failures_;
  }
  // Broadcast order depends on which worker's mutex acquisition won, so sort
  // by (t_fail, rank) before accumulating: the floating-point summation order
  // — and therefore the mean — is then identical for every worker count.
  std::sort(log.begin(), log.end(), [](const FailureRecord& a, const FailureRecord& b) {
    if (a.t_fail != b.t_fail) return a.t_fail < b.t_fail;
    return a.rank < b.rank;
  });
  DetectionStats stats;
  for (const FailureRecord& f : log) {
    for (int rank = 0; rank < wiring_.ranks; ++rank) {
      if (rank == f.rank) continue;
      const SimTime detect = wiring_.detector != nullptr
                                 ? wiring_.detector->detection_time(rank, f.rank, f.t_fail)
                                 : f.t_fail;
      // An observer that itself failed at or before its would-be detection
      // time never sees the notice (the engine drops events to dead LPs), so
      // it must not count: otherwise a second failure re-counts every rank
      // that is already down and inflates the mean.
      bool observer_dead = false;
      for (const FailureRecord& other : log) {
        if (other.rank == rank && other.t_fail <= detect) {
          observer_dead = true;
          break;
        }
      }
      if (observer_dead) continue;
      const SimTime latency = detect - f.t_fail;
      stats.max_latency = std::max(stats.max_latency, latency);
      stats.total_latency_sec += to_seconds(latency);
      ++stats.notices;
    }
  }
  return stats;
}

}  // namespace exasim::resilience
