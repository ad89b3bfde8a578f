#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/tiered.hpp"
#include "iomodel/storage.hpp"
#include "metrics/perf.hpp"
#include "metrics/stats.hpp"
#include "netmodel/network.hpp"
#include "pdes/engine.hpp"
#include "powermodel/power.hpp"
#include "procmodel/processor.hpp"
#include "resilience/bus.hpp"
#include "resilience/detector.hpp"
#include "resilience/notice.hpp"
#include "util/parse.hpp"
#include "util/time.hpp"
#include "vmpi/process.hpp"

namespace exasim::core {

/// One scheduled soft error: a memory bit flip in a simulated process.
struct SoftErrorSpec {
  int rank = -1;
  SimTime time = 0;
  std::uint64_t bit_index = 0;
};

/// Full configuration of one simulated machine + one application execution.
struct SimConfig {
  int ranks = 1;

  /// Topology spec ("torus:32x32x32", "mesh:4x4x4", "fattree:16x8",
  /// "dragonfly:8x8x8", "star:64"), or leave empty and set `network`
  /// directly.
  std::string topology = "star:1";
  NetworkParams net;
  int ranks_per_node = 1;
  /// Prebuilt network model (e.g. a hierarchical one); overrides
  /// topology/net *and* `routing` when set. It brings its own rank-to-node
  /// mapping: its ranks_per_node() must equal `ranks_per_node`, and its
  /// topology must hold the ranks (the Machine throws otherwise).
  std::shared_ptr<const NetworkModel> network;

  /// Routing policy spec ("deterministic", "adaptive", "adaptive:spread=K").
  /// Route choice is keyed by (src, dst, seq), so every setting is
  /// reproducible across worker counts (DESIGN.md §12).
  std::string routing = "deterministic";

  ProcessorParams proc;
  /// Storage-hierarchy spec ("pfs", "hpc", "mem:...;bb:...;pfs:..."); "pfs"
  /// is the paper-default single free PFS tier.
  std::string storage = "pfs";
  /// Checkpoint placement policy ("pfs", "partner", "staged").
  std::string ckpt_mode = "pfs";
  std::optional<PowerParams> power;
  vmpi::ProcessConfig process;

  /// Injected MPI process failure schedule (rank/time pairs, absolute
  /// virtual time; paper §IV-B). Owned/derived by resilience::FailureSchedule
  /// (--failures / EXASIM_FAILURES, or reliability-model draws).
  std::vector<FailureSpec> failures;
  std::vector<SoftErrorSpec> soft_errors;

  /// Failure-detector model governing when survivors learn about a failure
  /// (--failure-detector). The default paper-instant detector reproduces the
  /// paper's simulator-internal broadcast exactly.
  resilience::DetectorSpec detector;

  /// Initial virtual clock for every process — the restart-continuity value
  /// read back from a SimTimeFile (paper §IV-E).
  SimTime initial_time = 0;

  /// Record every MPI-level operation into an in-memory trace (expensive at
  /// scale; for performance investigation on small/medium machines).
  bool trace = false;

  /// Engine worker threads (LP groups): 1 = sequential engine, N > 1 =
  /// conservative-window parallel engine with N groups; below 1 is rejected
  /// (exasim::resolve_sim_workers). Every setting delivers the identical
  /// simulated schedule.
  int sim_workers = 1;
};

/// Result of one simulated application execution.
struct SimResult {
  enum class Outcome : std::uint8_t { kCompleted, kAborted, kDeadlock };

  Outcome outcome = Outcome::kCompleted;

  /// Simulated time of application exit = max simulated MPI process time —
  /// exactly what xSim persists for restart continuity (§IV-E).
  SimTime max_end_time = 0;
  SimTime min_end_time = 0;
  double avg_end_time_sec = 0;

  /// Failures that actually activated (rank + *actual* failure time, which
  /// is >= the scheduled time; §IV-B).
  std::vector<FailureSpec> activated_failures;

  /// "fixed", the engine's one window rule (DESIGN.md §11), on every run.
  /// Kept because the bench_smoke golden and the simbench digests pin it.
  std::string scheduler;

  /// Resolved routing policy and link-timeout configuration (canonical spec
  /// strings; DESIGN.md §12). Config echo only — not part of
  /// sim_result_json(), whose field set is pinned by the bench_smoke golden.
  std::string routing;
  std::string link_timeouts;

  /// Resolved storage hierarchy and checkpoint mode (canonical spec
  /// strings). In sim_result_json() only when either differs from the
  /// default "pfs"/"pfs" — the default field set stays pinned by the
  /// bench_smoke golden.
  std::string storage;
  std::string ckpt_mode;

  /// Resolved resilience configuration (canonical spec strings) and the
  /// detection-latency accounting from the notification bus: latency =
  /// detection time - time of failure. `failure_notices` counts one notice
  /// per (observer, failure) pair for every observer not failed by its
  /// detection time, including observers that had already finished or
  /// aborted; `notice_arrivals` below holds only the notices delivered.
  std::string detector;
  std::string error_policy;
  std::uint64_t failure_notices = 0;
  SimTime max_detection_latency = 0;
  double mean_detection_latency_sec = 0;

  /// First MPI_Abort, if any.
  std::optional<SimTime> abort_time;
  int abort_origin = -1;

  int finished_count = 0;
  int failed_count = 0;
  int aborted_count = 0;

  std::vector<LpId> deadlocked_ranks;  ///< Non-empty only for kDeadlock.

  /// Every rank's failed-process list (DESIGN.md §15): one record per
  /// failure notice the engine actually delivered, sorted by (t_fail,
  /// failed_rank, observer) so the records are byte-identical across
  /// `--sim-workers` settings. Not part of sim_result_json() — the model
  /// checker consumes it directly for missed-notification detection.
  std::vector<resilience::NoticeArrival> notice_arrivals;
  /// Final virtual time of every rank (index = world rank; 0 for a rank that
  /// never terminated — cross-check against deadlocked_ranks). Gives the
  /// model checker the "was this rank still alive when the failure happened"
  /// predicate. Not part of sim_result_json().
  std::vector<SimTime> rank_end_times;
  /// Final per-rank outcome (index = world rank). Together with
  /// `notice_arrivals` this is the model checker's missed-notification
  /// predicate: an *aborted* survivor with no arrival record was cut off
  /// before detection reached it. Not part of sim_result_json().
  std::vector<vmpi::ProcOutcome> rank_outcomes;

  std::uint64_t events_processed = 0;
  /// Always 0 on a run that returns: the engine throws on a causality
  /// violation (DESIGN.md §11). Kept because simbench reports it.
  std::uint64_t causality_violations = 0;
  double total_energy_joules = 0;  ///< 0 unless power modeling enabled.

  /// Aggregate performance breakdown: virtual time spent computing vs in
  /// communication, summed over all processes (always collected).
  SimTime total_busy_time = 0;
  SimTime total_comm_time = 0;
  /// Fraction of total accounted time spent computing (1.0 if no comm).
  double compute_fraction = 1.0;

  /// Hot-path memory counters, metered over this run() only (DESIGN.md §9).
  /// Simulated behavior is identical with pooling on or off; these exist so
  /// perf regressions in allocator traffic are visible without a profiler.
  PerfSnapshot perf;
  /// Host wall-clock seconds spent inside run() — real time, not SimTime.
  /// Host-dependent: excluded from any determinism comparison.
  double wall_seconds = 0;
  double events_per_sec = 0;   ///< events_processed / wall_seconds.
  double ns_per_event = 0;     ///< Inverse, in nanoseconds.
  /// Heap allocations (pool misses routed to ::operator new) per processed event.
  double heap_allocs_per_event = 0;
};

/// Serializes a SimResult as a single JSON object (machine-readable run
/// summary for tooling; exasim_run --result-json).
std::string sim_result_json(const SimResult& r);

/// Services exposed to simulated applications through Context::services.
struct Services {
  ckpt::CheckpointStore* checkpoints = nullptr;
  /// The machine's storage stack (always set; single free PFS by default).
  StorageHierarchy* storage = nullptr;
  /// Resolved checkpoint placement policy for TieredWriter construction.
  ckpt::CkptMode ckpt_mode = ckpt::CkptMode::kPfs;
  EnergyLedger* energy = nullptr;
  int run_index = 0;          ///< 0 for the first launch, +1 per restart.
  SimTime run_start_time = 0; ///< Virtual time this launch started at.
};

inline Services& services_of(vmpi::Context& ctx) {
  return *static_cast<Services*>(ctx.services());
}

/// A simulated machine executing one application launch: builds the engine,
/// models, and one SimProcess per simulated MPI rank; injects the failure
/// schedule; runs to completion/abort/deadlock; reports timing statistics.
class Machine final : public vmpi::SystemHooks {
 public:
  Machine(SimConfig config, vmpi::AppMain app);
  ~Machine() override;

  /// Optional external services (persistent checkpoint store etc.).
  void set_checkpoint_store(ckpt::CheckpointStore* store) { services_.checkpoints = store; }
  void set_run_index(int idx) { services_.run_index = idx; }

  /// Runs the launch to completion, abort or deadlock. A std::exception
  /// that escaped a rank's application code stops the run and is rethrown
  /// here (the first one, if several ranks threw).
  SimResult run();

  /// Valid after run() when power modeling is enabled.
  const EnergyLedger* energy() const { return energy_.get(); }

  /// Valid after run() when SimConfig::trace is set.
  const vmpi::MemoryTraceSink* trace() const { return trace_.get(); }

  /// Per-rank compute/communication breakdown (valid after run()).
  SimTime rank_busy_time(int rank) const { return processes_.at(rank)->busy_time(); }
  SimTime rank_comm_time(int rank) const { return processes_.at(rank)->comm_time(); }

  // -- SystemHooks -------------------------------------------------------
  void process_failed(vmpi::SimProcess& proc, SimTime when) override;
  void abort_called(vmpi::SimProcess& proc, SimTime when) override;
  void comm_revoked(vmpi::SimProcess& proc, int comm_id, SimTime when) override;
  void process_terminated(vmpi::SimProcess& proc) override;
  void fiber_exception(std::exception_ptr error) override;
  std::vector<vmpi::Rank> alive_world_ranks() const override;

 private:
  SimConfig config_;
  Services services_;
  /// Wiring every rank points to; its app is the one AppMain of the machine.
  vmpi::ProcessShared shared_;

  Engine engine_;
  vmpi::CommRegistry registry_;
  std::shared_ptr<const NetworkModel> network_;
  std::unique_ptr<resilience::DetectorModel> detector_model_;
  std::unique_ptr<resilience::NotificationBus> bus_;
  std::unique_ptr<ProcessorModel> proc_model_;
  std::unique_ptr<StorageHierarchy> storage_;
  std::unique_ptr<EnergyLedger> energy_;
  std::unique_ptr<vmpi::MemoryTraceSink> trace_;
  std::vector<std::unique_ptr<vmpi::SimProcess>> processes_;

  /// Guards activated_/abort_time_/abort_origin_/fiber_error_: SystemHooks
  /// fire from whichever engine worker owns the reporting rank's LP group.
  mutable std::mutex hooks_mutex_;
  std::exception_ptr fiber_error_;  ///< First exception out of a rank's fiber.
  std::vector<FailureSpec> activated_;
  std::optional<SimTime> abort_time_;
  int abort_origin_ = -1;
  std::atomic<int> terminated_count_{0};
};

}  // namespace exasim::core
