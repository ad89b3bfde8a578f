#include "ckpt/incremental.hpp"

#include <cstring>
#include <stdexcept>

#include "ckpt/tiered.hpp"

namespace exasim::ckpt {
namespace {

/// On-store layout of an incremental checkpoint file.
struct IncHeader {
  std::uint32_t magic = 0x494E4331;  // "INC1"
  std::uint8_t is_full = 1;
  std::uint64_t base_version = 0;    ///< Previous checkpoint (deltas only).
  std::uint64_t payload_bytes = 0;   ///< Full application state size.
  std::uint64_t block_bytes = 0;
  std::uint64_t changed_blocks = 0;  ///< Delta record count.
};

struct BlockRecord {
  std::uint64_t index = 0;
  // Followed by min(block_bytes, payload - index*block_bytes) data bytes.
};

std::uint64_t block_hash(std::span<const std::byte> block) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::byte b : block) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ull;
  }
  return h;
}

void append_pod(std::vector<std::byte>& out, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::byte*>(p);
  out.insert(out.end(), b, b + n);
}

}  // namespace

IncrementalCheckpointer::IncrementalCheckpointer(IncrementalPolicy policy) : policy_(policy) {
  if (policy_.block_bytes == 0) throw std::invalid_argument("block_bytes == 0");
  if (policy_.full_every < 1) throw std::invalid_argument("full_every < 1");
}

void IncrementalCheckpointer::write(vmpi::Context& ctx, CheckpointStore& store,
                                    const StorageHierarchy& storage, std::uint64_t version,
                                    std::span<const std::byte> payload) {
  if (checkpoints_ > 0 && version <= last_version_) {
    throw std::invalid_argument("checkpoint versions must increase");
  }
  const std::size_t nblocks = (payload.size() + policy_.block_bytes - 1) / policy_.block_bytes;

  // Hash current blocks; decide full vs delta.
  std::vector<std::uint64_t> hashes(nblocks);
  for (std::size_t i = 0; i < nblocks; ++i) {
    const std::size_t off = i * policy_.block_bytes;
    hashes[i] = block_hash(payload.subspan(off, std::min(policy_.block_bytes,
                                                         payload.size() - off)));
  }
  const bool full = since_full_ < 0 || since_full_ + 1 >= policy_.full_every ||
                    payload.size() != last_payload_bytes_;

  IncHeader header;
  header.is_full = full ? 1 : 0;
  header.base_version = last_version_;
  header.payload_bytes = payload.size();
  header.block_bytes = policy_.block_bytes;

  std::vector<std::byte> file;
  if (full) {
    file.reserve(sizeof header + payload.size());
    append_pod(file, &header, sizeof header);
    file.insert(file.end(), payload.begin(), payload.end());
  } else {
    std::vector<std::size_t> changed;
    for (std::size_t i = 0; i < nblocks; ++i) {
      if (hashes[i] != block_hashes_[i]) changed.push_back(i);
    }
    header.changed_blocks = changed.size();
    append_pod(file, &header, sizeof header);
    for (std::size_t i : changed) {
      BlockRecord rec{i};
      append_pod(file, &rec, sizeof rec);
      const std::size_t off = i * policy_.block_bytes;
      const std::size_t n = std::min(policy_.block_bytes, payload.size() - off);
      append_pod(file, payload.data() + off, n);
    }
  }

  // The PFS is charged for the bytes actually written; a failure mid-write
  // leaves a corrupted file.
  write_pfs(ctx, store, storage, version, file);

  if (full) {
    bytes_full_ += file.size();
    since_full_ = 0;
    base_full_version_ = version;
  } else {
    bytes_delta_ += file.size();
    ++since_full_;
  }
  block_hashes_ = std::move(hashes);
  last_payload_bytes_ = payload.size();
  last_version_ = version;
  ++checkpoints_;
}

std::optional<std::vector<std::byte>> IncrementalCheckpointer::read_latest(
    vmpi::Context& ctx, CheckpointStore& store, const StorageHierarchy& storage,
    std::uint64_t* version_out) {
  if (ctx.size() != store.expected_ranks()) {
    throw std::logic_error("checkpoint store sized for a different world");
  }
  const int rank = ctx.rank();
  // Candidate = newest complete version; walk its delta chain backwards. If
  // the chain is broken (a base was deleted or never completed), fall back
  // to the next-older complete version.
  auto versions = store.versions();
  for (auto vit = versions.rbegin(); vit != versions.rend(); ++vit) {
    if (!store.set_complete(*vit)) continue;

    // Collect the chain newest -> base full.
    std::vector<std::pair<std::uint64_t, Payload>> chain;
    std::uint64_t cursor = *vit;
    bool ok = true;
    for (;;) {
      if (!store.set_complete(cursor)) {
        ok = false;
        break;
      }
      Payload data = store.read(cursor, rank);
      if (data.size() < sizeof(IncHeader)) {
        ok = false;
        break;
      }
      IncHeader header;
      std::memcpy(&header, data.data(), sizeof header);
      if (header.magic != IncHeader{}.magic) {
        ok = false;
        break;
      }
      const bool is_full = header.is_full != 0;
      const std::uint64_t base = header.base_version;
      chain.emplace_back(cursor, std::move(data));
      if (is_full) break;
      cursor = base;
    }
    if (!ok) continue;

    // Replay: full payload first, then deltas oldest -> newest.
    std::vector<std::byte> state;
    std::size_t read_bytes = 0;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const Payload& data = it->second;
      read_bytes += data.size();
      IncHeader header;
      std::memcpy(&header, data.data(), sizeof header);
      if (header.is_full != 0) {
        state.assign(data.begin() + sizeof header, data.end());
        continue;
      }
      if (state.size() != header.payload_bytes) return std::nullopt;  // Corrupt chain.
      std::size_t off = sizeof header;
      for (std::uint64_t r = 0; r < header.changed_blocks; ++r) {
        BlockRecord rec;
        if (off + sizeof rec > data.size()) return std::nullopt;
        std::memcpy(&rec, data.data() + off, sizeof rec);
        off += sizeof rec;
        const std::size_t block_off = rec.index * header.block_bytes;
        const std::size_t n =
            std::min<std::size_t>(header.block_bytes, header.payload_bytes - block_off);
        if (off + n > data.size() || block_off + n > state.size()) return std::nullopt;
        std::memcpy(state.data() + block_off, data.data() + off, n);
        off += n;
      }
    }
    ctx.elapse(storage.model(StorageTierKind::kPfs).read_time(read_bytes,
                                                              checkpoint_clients(ctx)));
    if (version_out != nullptr) *version_out = *vit;
    return state;
  }
  return std::nullopt;
}

}  // namespace exasim::ckpt
