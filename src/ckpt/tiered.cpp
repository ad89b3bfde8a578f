#include "ckpt/tiered.hpp"

#include <stdexcept>

#include "util/counters.hpp"

namespace exasim::ckpt {

const char* to_string(CkptMode mode) {
  switch (mode) {
    case CkptMode::kPfs: return "pfs";
    case CkptMode::kPartner: return "partner";
    case CkptMode::kStaged: return "staged";
  }
  return "?";
}

std::optional<CkptMode> parse_ckpt_mode(const std::string& text) {
  if (text == "pfs") return CkptMode::kPfs;
  if (text == "partner") return CkptMode::kPartner;
  if (text == "staged") return CkptMode::kStaged;
  return std::nullopt;
}

const std::vector<std::string>& list_ckpt_modes() {
  static const std::vector<std::string> kNames = {"pfs", "partner", "staged"};
  return kNames;
}

CkptMode resolve_ckpt_mode(const std::string& configured) {
  auto mode = parse_ckpt_mode(configured);
  if (!mode) throw std::invalid_argument("unknown ckpt mode: " + configured);
  return *mode;
}

int checkpoint_clients(const vmpi::Context& ctx) {
  const int alive = ctx.size() - static_cast<int>(ctx.failed_peers().size());
  return alive < 1 ? 1 : alive;
}

void write_pfs(vmpi::Context& ctx, CheckpointStore& store, const StorageHierarchy& storage,
               std::uint64_t version, std::span<const std::byte> payload,
               std::size_t logical_bytes) {
  if (logical_bytes == 0) logical_bytes = payload.size();
  const int rank = ctx.rank();
  const int clients = checkpoint_clients(ctx);
  store.begin(version, rank);
  const SimTime t =
      storage.write_time(StorageTierKind::kPfs, ctx.now(), logical_bytes, clients);
  // Elapse before finalize: a failure activating mid-write unwinds this
  // fiber and leaves the file corrupted (§V-D).
  ctx.elapse(t);
  store.append(version, rank, payload);
  store.finalize(version, rank, CopyRecord{.level = 2, .holder = -1, .ready_time = ctx.now()});
}

vmpi::Err TieredWriter::write(vmpi::Context& ctx, CheckpointStore& store,
                              std::uint64_t version, std::span<const std::byte> payload,
                              std::size_t logical_bytes) {
  if (logical_bytes == 0) logical_bytes = payload.size();
  const int rank = ctx.rank();
  const int world = ctx.size();
  const auto mem = StorageTierKind::kMemory;
  const auto bb = StorageTierKind::kBurstBuffer;
  const auto pfs = StorageTierKind::kPfs;
  // Diskless modes need a partner and room for two images (own + hosted) in
  // the node-memory staging budget; otherwise degrade to the flat PFS path.
  if (mode_ == CkptMode::kPfs || world < 2 ||
      !storage_.fits(mem, logical_bytes, world, /*replicas=*/2)) {
    write_pfs(ctx, store, storage_, version, payload, logical_bytes);
    return vmpi::Err::kSuccess;
  }

  // A still-draining previous checkpoint owns the memory staging buffer:
  // block until the mem -> next-tier leg lands (Kohl et al.'s back-pressure).
  if (mode_ == CkptMode::kStaged && drain_ready_ > ctx.now()) {
    ctx.elapse(drain_ready_ - ctx.now());
  }

  store.begin(version, rank);
  const int clients = checkpoint_clients(ctx);
  // Local node-memory write: one writer into its own memory.
  ctx.elapse(storage_.write_time(mem, ctx.now(), logical_bytes, /*clients=*/1));

  // Partner replica over the real network route. Payload sizes can differ
  // across ranks (uneven decompositions) and modeled recv treats a short
  // posting as truncation, so exchange exact sizes first.
  const int partner = partner_of(rank, world);
  const int prev = (rank - 1 + world) % world;
  std::uint64_t my_bytes = logical_bytes;
  std::uint64_t prev_bytes = 0;
  vmpi::Err err = ctx.sendrecv(ctx.world(), partner, kCkptSizeTag, &my_bytes,
                               sizeof(my_bytes), prev, kCkptSizeTag, &prev_bytes,
                               sizeof(prev_bytes));
  if (err != vmpi::Err::kSuccess) return err;
  auto send_req = ctx.isend_modeled(ctx.world(), partner, kCkptCopyTag, my_bytes);
  auto recv_req = ctx.irecv_modeled(ctx.world(), prev, kCkptCopyTag,
                                    static_cast<std::size_t>(prev_bytes));
  err = ctx.waitall(ctx.world(), {send_req, recv_req});
  if (err != vmpi::Err::kSuccess) return err;  // Partner died: file stays corrupted.

  // Two memory-tier copies: the local image, which finalizes the file, and
  // the replica in the partner's memory. The replica's ready time is this
  // rank's clock when the exchange completed — the partner's receive
  // completes at the same modeled event, so the skew is at most the
  // partner's own clock drift.
  store.append(version, rank, payload);
  store.finalize(version, rank, CopyRecord{.level = 0, .holder = rank, .ready_time = ctx.now()});
  store.record_copy(version, rank,
                    CopyRecord{.level = 0, .holder = partner, .ready_time = ctx.now()});
  util::count(util::Counter::kCkptPartnerCopies);
  util::count(util::Counter::kCkptStages);
  if (mode_ == CkptMode::kPartner) return vmpi::Err::kSuccess;

  // Staged mode: background drain in sim-time. The drain sources from this
  // rank's memory image until it lands on the next tier, so the copies it
  // produces die with this rank if it fails before that hand-off.
  const SimTime t0 = ctx.now();
  if (storage_.has(bb) && storage_.fits(bb, logical_bytes, world)) {
    const SimTime t_bb = t0 + storage_.write_time(bb, t0, logical_bytes, clients);
    store.record_copy(version, rank,
                      CopyRecord{.level = 1, .holder = -1, .ready_time = t_bb,
                                 .depends_on = rank, .depends_until = t_bb});
    const SimTime pfs_w = storage_.write_time(pfs, t_bb, logical_bytes, clients);
    // The PFS leg reads from the burst-buffer copy, so it only needs this
    // rank alive until the bb copy landed.
    store.record_copy(version, rank,
                      CopyRecord{.level = 2, .holder = -1, .ready_time = t_bb + pfs_w,
                                 .depends_on = rank, .depends_until = t_bb});
    drain_ready_ = t_bb;
    util::count(util::Counter::kCkptDrains, 2);
  } else {
    // No burst buffer: drain straight to the PFS, holding the memory
    // staging buffer (and the dependency on this rank) the whole way.
    const SimTime pfs_w = storage_.write_time(pfs, t0, logical_bytes, clients);
    store.record_copy(version, rank,
                      CopyRecord{.level = 2, .holder = -1, .ready_time = t0 + pfs_w,
                                 .depends_on = rank, .depends_until = t0 + pfs_w});
    drain_ready_ = t0 + pfs_w;
    util::count(util::Counter::kCkptDrains);
  }
  return vmpi::Err::kSuccess;
}

std::optional<Payload> read_latest_checkpoint_tiered(
    vmpi::Context& ctx, CheckpointStore& store, const StorageHierarchy& storage,
    std::uint64_t* version_out, int* tier_out) {
  if (ctx.size() != store.expected_ranks()) {
    throw std::logic_error("checkpoint store sized for a different world");
  }
  // One plan per checkpoint version, shared by every rank: each rank reads
  // its own source and the ranks it serves, so memory-tier fetches pair up
  // without negotiation and a relaunch costs O(world) in total.
  const auto plan = store.restore_plan();
  if (plan == nullptr) return std::nullopt;  // Cold start: decided before any messaging.
  const int rank = ctx.rank();
  const RestorePlan::Source& mine = plan->sources[static_cast<std::size_t>(rank)];

  // Receive first, then send in ascending served-rank order: the request
  // post order every digest was pinned with.
  std::vector<vmpi::RequestHandle> reqs;
  if (mine.holder >= 0 && mine.holder != rank) {
    reqs.push_back(ctx.irecv_modeled(ctx.world(), mine.holder, kCkptRestoreTag, mine.bytes));
  }
  for (int q : plan->served_by(rank)) {
    reqs.push_back(ctx.isend_modeled(ctx.world(), q, kCkptRestoreTag,
                                     plan->sources[static_cast<std::size_t>(q)].bytes));
  }
  if (!reqs.empty()) {
    const vmpi::Err err = ctx.waitall(ctx.world(), reqs);
    if (err != vmpi::Err::kSuccess) return std::nullopt;
  }

  auto data = store.read(plan->version, rank);
  const auto kind = static_cast<StorageTierKind>(mine.level);
  ctx.elapse(storage.read_time(kind, data.size(), checkpoint_clients(ctx)));
  static constexpr util::Counter kRestoredFrom[kStorageTierKinds] = {
      util::Counter::kCkptRestoresMem, util::Counter::kCkptRestoresBb,
      util::Counter::kCkptRestoresPfs};
  util::count(kRestoredFrom[mine.level]);
  if (version_out != nullptr) *version_out = plan->version;
  if (tier_out != nullptr) *tier_out = mine.level;
  return data;
}

}  // namespace exasim::ckpt
