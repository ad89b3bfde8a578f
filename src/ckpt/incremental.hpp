#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "iomodel/storage.hpp"
#include "vmpi/context.hpp"

namespace exasim::ckpt {

/// Incremental/differential checkpointing — one of the advanced resilience
/// technologies the paper's introduction lists ("incremental/differential
/// checkpointing", cf. hybrid checkpointing [18]) and exactly the kind of
/// technique the co-design toolkit exists to price against plain
/// checkpoint/restart.
///
/// The application state is treated as fixed-size blocks; a delta checkpoint
/// stores only blocks whose content hash changed since the previous
/// checkpoint, paying proportionally less file-system time. Every
/// `full_every`-th checkpoint is a full one, bounding the reconstruction
/// chain that a restart has to replay.
struct IncrementalPolicy {
  std::size_t block_bytes = 4096;
  int full_every = 8;  ///< 1 = always full (degenerates to ckpt::write_pfs).
};

/// Per-rank incremental writer. Lives for one application launch; after a
/// restart the hash state is gone, so the first post-restart checkpoint is
/// automatically full (exactly what a real incremental library must do).
class IncrementalCheckpointer {
 public:
  explicit IncrementalCheckpointer(IncrementalPolicy policy);

  /// Writes `payload` for this rank as version `version` (full or delta as
  /// the policy dictates) through ckpt::write_pfs, charging the machine's
  /// PFS tier for the bytes actually written; every rank still alive writes
  /// concurrently (checkpoint_clients). Versions must strictly increase per
  /// rank.
  void write(vmpi::Context& ctx, CheckpointStore& store, const StorageHierarchy& storage,
             std::uint64_t version, std::span<const std::byte> payload);

  /// Oldest version still needed to reconstruct the latest checkpoint; the
  /// application may delete anything older.
  std::uint64_t retention_floor() const { return base_full_version_; }

  std::uint64_t bytes_written_full() const { return bytes_full_; }
  std::uint64_t bytes_written_delta() const { return bytes_delta_; }
  int checkpoints_written() const { return checkpoints_; }

  /// Reconstructs this rank's latest restorable state: finds the newest
  /// complete version whose delta chain (down to its base full checkpoint)
  /// is fully present, reads the chain (charging the PFS tier's read time),
  /// and replays it. Returns nullopt on cold start or if every chain is
  /// broken. Throws std::logic_error if the store was sized for a different
  /// world.
  static std::optional<std::vector<std::byte>> read_latest(
      vmpi::Context& ctx, CheckpointStore& store, const StorageHierarchy& storage,
      std::uint64_t* version_out = nullptr);

 private:
  IncrementalPolicy policy_;
  std::vector<std::uint64_t> block_hashes_;  ///< Of the last written payload.
  std::size_t last_payload_bytes_ = 0;       ///< Size change forces a full.
  int since_full_ = -1;                      ///< -1: nothing written yet.
  std::uint64_t last_version_ = 0;
  std::uint64_t base_full_version_ = 0;
  std::uint64_t bytes_full_ = 0;
  std::uint64_t bytes_delta_ = 0;
  int checkpoints_ = 0;
};

}  // namespace exasim::ckpt
