#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "pdes/engine.hpp"
#include "resilience/detector.hpp"
#include "resilience/notice.hpp"
#include "util/parse.hpp"
#include "util/time.hpp"

namespace exasim::resilience {

/// Carries the simulator-internal failure/abort/revoke notices to every
/// simulated process (paper §IV-B/§IV-D/§VI), replacing the ad-hoc payload
/// broadcasts that used to live in core::Machine.
///
/// Ordering contract: one broadcast creates its notices in ascending rank
/// order from the LP whose handler is running, at EventPriority::kControl, so
/// the engine's (time, priority, source LP, per-source seq) key delivers
/// same-time notices in rank order. Each notice is one Engine::schedule()
/// event, counted in PerfSnapshot::fanout_notices; a notice to a rank that is already dead is
/// scheduled like any other and dropped at delivery.
/// Failure notices are delivered at the Detector's per-observer
/// detection time (>= the failure time); abort and revoke notices at the
/// event time itself, as in the paper.
class NotificationBus {
 public:
  struct Wiring {
    Engine* engine = nullptr;
    int ranks = 0;
    /// Event kinds the MPI layer dispatches on (vmpi::kEvFailureNotice etc.
    /// — passed as ints so this library stays below vmpi in the link order).
    int failure_kind = 0;
    int abort_kind = 0;
    int revoke_kind = 0;
  };

  /// The bus builds its failure detector from `detector` over `network`,
  /// which must outlive the bus.
  NotificationBus(Wiring wiring, const DetectorSpec& detector, const NetworkModel& network);

  /// Broadcasts a failure notice to every rank except the failed one; each
  /// observer's notice is delivered at the detector's detection_time(...).
  void broadcast_failure(int failed_rank, SimTime t_fail);
  /// Broadcasts an abort notice to every rank except the origin.
  void broadcast_abort(int origin_rank, SimTime t_abort);
  /// Broadcasts a ULFM revoke notice to every rank except the origin.
  void broadcast_revoke(int origin_rank, int comm_id, SimTime when);

  /// Detection-latency accounting (latency = detection time - time of
  /// failure per observer) for `failures`, the failures this bus broadcast,
  /// sorted by (time, rank) as core::Machine reports them. An observer
  /// counts for a failure unless it had itself failed at or before its
  /// would-be detection time, since the engine drops notices to dead LPs; an
  /// observer that had finished or aborted still counts. The double
  /// summation runs in the list's order, so the mean is the same for every
  /// worker count.
  struct DetectionStats {
    std::uint64_t notices = 0;
    SimTime max_latency = 0;
    double total_latency_sec = 0;
    double mean_latency_sec() const {
      return notices == 0 ? 0.0 : total_latency_sec / static_cast<double>(notices);
    }
  };
  DetectionStats detection_stats(std::span<const FailureSpec> failures) const;

 private:
  /// Schedules one notice to `rank` at `time`.
  void notify(SimTime time, int rank, int kind, std::unique_ptr<EventPayload> payload);

  Wiring wiring_;
  Detector detector_;
};

}  // namespace exasim::resilience
