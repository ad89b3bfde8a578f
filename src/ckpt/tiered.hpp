#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "iomodel/storage.hpp"
#include "vmpi/context.hpp"

namespace exasim::ckpt {

/// Checkpoint placement policy (SCR levels, Kohl et al.):
///  - kPfs:     every rank writes straight to the PFS — the paper's scheme
///              and the byte-identical default.
///  - kPartner: diskless — each rank keeps its image in node memory and
///              replicates it to a partner's node memory over the real
///              network route (src/redundancy's cost math as a recovery
///              path). Survives single-node loss; lost iff victim AND
///              partner die.
///  - kStaged:  partner copy for speed, then an asynchronous background
///              drain mem → burst buffer → PFS in sim-time; the next
///              checkpoint blocks only if the mem→bb drain is still in
///              flight.
enum class CkptMode : std::uint8_t { kPfs = 0, kPartner = 1, kStaged = 2 };

const char* to_string(CkptMode mode);
std::optional<CkptMode> parse_ckpt_mode(const std::string& text);
const std::vector<std::string>& list_ckpt_modes();

/// Parses a configured mode (core::SimConfig::ckpt_mode); throws
/// std::invalid_argument on malformed text.
CkptMode resolve_ckpt_mode(const std::string& configured);

/// Reserved application-range tags for checkpoint traffic (apps use small
/// tags; collectives use the negative range).
inline constexpr int kCkptSizeTag = 29002;
inline constexpr int kCkptCopyTag = 29001;
inline constexpr int kCkptRestoreTag = 29003;

/// Partner-replication buddy: the next rank around the ring. With
/// ranks-per-node > 1 a buddy can share the victim's node; real SCR picks
/// buddy *nodes* — a refinement the failure model here does not need, since
/// failures are per-rank.
inline int partner_of(int rank, int world) { return (rank + 1) % world; }

/// Ranks concurrently checkpointing at this sim-time from this rank's view:
/// everyone still alive. Deterministic (fiber event order), worker-invariant
/// up to the same one-window notice tolerance every failure notice has.
int checkpoint_clients(const vmpi::Context& ctx);

/// The one PFS commit, shared by every writer that puts a file straight on
/// the PFS: begins rank's file in `version`, charges the PFS tier's write
/// time (occupancy window included) for `logical_bytes`, then appends
/// `payload` and finalizes the file with its PFS copy. The time elapses
/// before finalize, so a failure activating mid-write leaves the file
/// corrupted (§V-D). `logical_bytes` is the size charged: pass the real
/// application state size when the stored payload is a small modeled header
/// (skeleton apps); 0 means payload.size().
void write_pfs(vmpi::Context& ctx, CheckpointStore& store, const StorageHierarchy& storage,
               std::uint64_t version, std::span<const std::byte> payload,
               std::size_t logical_bytes = 0);

/// Per-rank tiered checkpoint writer. Owns the drain horizon: a staged
/// write returns once the fast-tier copy is safe, and only a *subsequent*
/// write blocks on the still-draining previous one.
class TieredWriter {
 public:
  TieredWriter(const StorageHierarchy& storage, CkptMode mode)
      : storage_(storage), mode_(mode) {}

  CkptMode mode() const { return mode_; }

  /// Writes one rank's checkpoint under the configured mode: kPfs is
  /// write_pfs; partner/staged modes add the replica exchange and record
  /// tier copies for apply_failures. A communication error (dead partner
  /// under a kReturn handler) comes back with the file left unfinalized —
  /// the §V-D corrupted-checkpoint failure mode.
  vmpi::Err write(vmpi::Context& ctx, CheckpointStore& store, std::uint64_t version,
                  std::span<const std::byte> payload, std::size_t logical_bytes = 0);

 private:
  const StorageHierarchy& storage_;
  CkptMode mode_;
  /// Sim-time when this rank's previous staged drain frees the memory
  /// staging buffer (mem -> next tier leg done).
  SimTime drain_ready_ = 0;
};

/// Tier-aware restart read of this rank's file in the latest complete set.
/// The source comes from the store's shared RestorePlan
/// (CheckpointStore::restore_plan): the nearest surviving copy, where node
/// memory beats burst buffer beats PFS, and a copy held in a *remote* rank's
/// memory is fetched over the modeled network. The rank also sends the
/// files it holds for the peers the plan lists under it, in ascending rank
/// order; since all ranks read the same plan, sends and receives pair up
/// without negotiation. Returns nullopt on cold start (before any
/// messaging) or when a fetch fails. `tier_out` gets the StorageTierKind
/// ordinal served from. Throws std::logic_error if the store was sized for
/// a different world.
std::optional<Payload> read_latest_checkpoint_tiered(
    vmpi::Context& ctx, CheckpointStore& store, const StorageHierarchy& storage,
    std::uint64_t* version_out = nullptr, int* tier_out = nullptr);

}  // namespace exasim::ckpt
