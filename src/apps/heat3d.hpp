#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "vmpi/context.hpp"
#include "vmpi/process.hpp"

namespace exasim::apps {

/// Execution phases of the heat application — the failure-mode census of the
/// paper's §V-D ("the observed application failure modes were quite
/// interesting") classifies detections by these phases.
enum class HeatPhase : std::uint8_t {
  kStartup = 0,
  kCompute,
  kHalo,
  kCheckpoint,
  kBarrier,
  kCleanup,
  kDone,
};

const char* to_string(HeatPhase p);

/// Optional per-rank phase telemetry. Each slot is written only by its own
/// rank's fiber, so plain per-slot writes are safe; read after the run.
/// `last_phase[rank]` tracks the phase a rank was last executing (the phase
/// an abort/failure interrupted).
struct HeatTelemetry {
  std::vector<HeatPhase> last_phase;
  explicit HeatTelemetry(int ranks)
      : last_phase(static_cast<std::size_t>(ranks), HeatPhase::kStartup) {}
};

/// Parameters of the iterative 3-D heat equation application (paper §V-B):
/// cube decomposition across ranks, halo exchange every `halo_interval`
/// iterations, checkpoint + global barrier + old-checkpoint deletion every
/// `checkpoint_interval` iterations, auto-restart from the last complete
/// checkpoint.
///
/// Restart is bit-transparent to the physics (checkpointed interiors +
/// halo rebuild reproduce the uninterrupted run exactly) when
/// `halo_interval == checkpoint_interval` — the paper's configuration
/// ("the halo exchange interval is set to the checkpoint interval"). With
/// unequal intervals the restart's rebuilt halos are fresher than the
/// stale ones the uninterrupted run would have used, so real-compute
/// results may differ in low-order bits across a restart.
struct HeatParams {
  // Global grid and process grid (px*py*pz must equal world size; dimensions
  // must divide evenly).
  int nx = 64, ny = 64, nz = 64;
  int px = 2, py = 2, pz = 2;

  int total_iterations = 100;
  int halo_interval = 25;
  int checkpoint_interval = 25;

  /// Reference-core work units charged per point update per iteration. The
  /// Table II calibration (DESIGN.md §6) uses work-unit cost 1 with
  /// ProcessorParams::reference_ns_per_unit = 1281.
  double work_units_per_point = 1.0;

  /// Real mode allocates the local grid and executes the 7-point stencil
  /// natively (verifiable physics); modeled mode charges the same virtual
  /// compute and sends size-only messages — used for 32,768-rank benches.
  bool real_compute = true;

  /// Register grid memory for soft-error injection (real mode only).
  bool register_memory = false;

  HeatTelemetry* telemetry = nullptr;  ///< Optional phase tracking.
};

/// Result summary published by rank 0 on completion (for tests/examples).
struct HeatReport {
  int completed_iterations = 0;
  int restarts_used = 0;       ///< Times this rank restored from a checkpoint.
  double checksum = 0;         ///< Real mode: grid sum for verification.
};

/// Returns the application entry point for the given parameters. The report,
/// if non-null, is filled per rank index (size must be world size).
vmpi::AppMain make_heat3d(HeatParams params, std::vector<HeatReport>* reports = nullptr);

/// Checkpoint payload header (also the full payload in modeled mode).
struct HeatCkptHeader {
  std::uint32_t magic = 0x48453344;  // "HE3D"
  std::int32_t rank = -1;
  std::int32_t iteration = -1;       ///< Last completed iteration.
  std::int32_t nx = 0, ny = 0, nz = 0;
};

}  // namespace exasim::apps
