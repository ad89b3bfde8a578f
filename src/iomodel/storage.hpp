#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "iomodel/pfs.hpp"
#include "util/time.hpp"

namespace exasim {

/// Storage tier kinds, ordered fast-and-volatile to slow-and-durable — the
/// SCR-style multilevel stack (Kohl et al., PAPERS.md): node memory holds
/// diskless/partner checkpoint copies and dies with its node; the burst
/// buffer is shared flash that absorbs staged writes; the PFS is the durable
/// backing store the paper's (free) file-system placeholder modeled.
enum class StorageTierKind : std::uint8_t { kMemory = 0, kBurstBuffer = 1, kPfs = 2 };

inline constexpr int kStorageTierKinds = 3;

const char* to_string(StorageTierKind kind);

/// One tier of the hierarchy. The cost math is the flat PfsModel's
/// (metadata latency + min(per-client, aggregate/clients) bandwidth); a tier
/// with all-zero parameters charges nothing — the paper's configuration.
struct TierParams {
  StorageTierKind kind = StorageTierKind::kPfs;
  PfsParams io;
  /// Capacity in bytes; 0 = unlimited. Node memory is a per-node staging
  /// budget (a rank's own copy plus the partner replica it hosts must fit);
  /// shared tiers divide capacity evenly over the world size.
  double capacity_bytes = 0;
  /// Fold occupancy-window waits into transfer times (the same queueing
  /// shape as per-link network contention, DESIGN.md §12): exact at
  /// --sim-workers=1, approximate otherwise (core::Machine warns).
  bool contended = false;

  friend bool operator==(const TierParams&, const TierParams&) = default;
};

/// Parsed `--storage` configuration: tiers ordered mem < bb < pfs, each at
/// most once, the PFS tier always present. The default is a single free PFS
/// tier — byte-identical to the pre-hierarchy flat model.
///
/// Grammar (canonical spec strings round-trip through parse):
///   "pfs" | "hpc" | ...                     registered preset names
///   TIER[;TIER...]  with TIER = (mem|bb|pfs)[:k=v[,k=v...]]
/// keys: bw (aggregate bytes/s), cbw (per-client bytes/s), lat (duration,
/// util/parse.hpp suffixes), cap (bytes), contend (0|1). '+' is accepted in
/// place of ';' so specs survive shells unquoted.
struct StorageSpec {
  std::vector<TierParams> tiers = {TierParams{}};
  /// Set when the spec came from a registered preset name (display only).
  std::string preset = "pfs";

  /// True for the paper-default single free PFS tier.
  bool is_default() const {
    return tiers.size() == 1 && tiers.front() == TierParams{};
  }

  friend bool operator==(const StorageSpec& a, const StorageSpec& b) {
    return a.tiers == b.tiers;  // The preset name is presentation, not config.
  }
};

/// Parses a storage spec string (preset name or tier list); nullopt on
/// malformed input — unknown tier/key, duplicate or misordered tiers, a
/// missing pfs tier, negative/overflowing/trailing-garbage numbers.
std::optional<StorageSpec> parse_storage_spec(const std::string& text);

/// Canonical spec string (round-trips through parse; preset names are
/// preserved).
std::string to_string(const StorageSpec& spec);

/// Registered storage presets, registry order — the rows of
/// `exasim_run --list-storage`.
struct StoragePresetInfo {
  std::string name;
  std::string spec;
  std::string summary;
};
const std::vector<StoragePresetInfo>& list_storage();

/// Parses a configured spec string (core::SimConfig::storage); throws
/// std::invalid_argument on malformed text.
StorageSpec resolve_storage_spec(const std::string& configured);

/// The machine's storage stack: per-tier PfsModel cost math plus optional
/// occupancy-window contention. Tiers absent from the spec behave as free,
/// uncontended, unlimited — node memory and a burst buffer always exist
/// physically; the spec only prices them.
class StorageHierarchy {
 public:
  explicit StorageHierarchy(StorageSpec spec);

  const StorageSpec& spec() const { return spec_; }

  /// True when the spec prices the tier (present in the tier list).
  bool has(StorageTierKind kind) const;

  /// Cost model for a tier kind (a shared free model when unpriced).
  const PfsModel& model(StorageTierKind kind) const;

  /// True when no tier charges time and none is contended (the paper's
  /// configuration).
  bool is_free() const;

  bool any_contended() const;

  /// Whether `bytes` fit the tier's capacity budget: node memory must hold
  /// `replicas` copies per rank (own + hosted partner images); shared tiers
  /// divide capacity over `world_ranks`. Unlimited (cap 0) always fits.
  bool fits(StorageTierKind kind, std::size_t bytes, int world_ranks,
            int replicas = 1) const;

  /// Occupancy-window wait for a transfer of `duration` starting at `start`
  /// on a contended tier (0 when uncontended): the tier serves overlapping
  /// transfers back to back, exactly the per-link busy-until queueing of
  /// NetworkModel::contention_delay.
  SimTime occupy(StorageTierKind kind, SimTime start, SimTime duration) const;

 private:
  StorageSpec spec_;
  /// Index into spec_.tiers per kind; -1 = unpriced.
  int index_[kStorageTierKinds];
  std::vector<PfsModel> models_;
  /// Occupancy windows are queueing state of the model, not configuration —
  /// mutable so cost queries stay const for callers holding const refs.
  mutable std::mutex mu_;
  mutable SimTime busy_until_[kStorageTierKinds];
};

}  // namespace exasim
