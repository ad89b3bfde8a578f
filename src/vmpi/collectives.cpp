// Collective operations over the simulated point-to-point layer.
//
// All collectives use linear algorithms, matching the paper's simulated
// system configuration ("MPI collectives utilize linear algorithms", §V-C):
// rank 0 of the communicator (or the designated root) exchanges one message
// with every other member sequentially. The root's NIC occupancy serializes
// these messages, so linear collective cost grows linearly in communicator
// size — which is why the post-checkpoint barrier becomes a visible cost at
// 32,768 ranks (§V-E).

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "vmpi/context.hpp"
#include "vmpi/process.hpp"

namespace exasim::vmpi {
namespace {

/// Per-collective internal tag. Application tags are >= 0; collective tags
/// are negative, derived from the communicator's collective sequence number
/// so that back-to-back collectives on one communicator never cross-match.
int internal_tag(std::uint64_t seq, int phase) {
  return -static_cast<int>(2 + ((seq * 16 + static_cast<std::uint64_t>(phase)) & 0x0fffffffull));
}

/// Tag space for ULFM recovery traffic (shrink/agree), disjoint from the
/// regular collective tags and sequenced by Comm::recovery_seq.
int recovery_tag(std::uint64_t seq, int phase) {
  return -static_cast<int>((1 << 30) +
                           ((seq * 16 + static_cast<std::uint64_t>(phase)) & 0x0fffffffull));
}

}  // namespace

int Context::coll_tag(Comm& comm, int phase) const { return internal_tag(comm.coll_seq, phase); }

// Raw helpers used only inside this file: post + wait without applying the
// communicator's error handler (the collective applies it once at the end).
namespace {

Err coll_send(SimProcess& p, Comm& comm, Rank dest, int tag, const void* data,
              std::size_t bytes, bool allow_revoked = false) {
  const RequestHandle h = p.post_send(comm, dest, tag, data, bytes, allow_revoked);
  return p.wait_all({&h, 1}, nullptr);
}

Err coll_recv(SimProcess& p, Comm& comm, Rank src, int tag, void* buffer, std::size_t capacity,
              bool allow_revoked = false) {
  const RequestHandle h = p.post_recv(comm, src, tag, buffer, capacity, allow_revoked);
  return p.wait_all({&h, 1}, nullptr);
}

}  // namespace

// ---------------------------------------------------------------------------
// Binomial-tree algorithms (co-design alternative to the paper's linear
// algorithms; selected via ProcessConfig::collective_algo).
// ---------------------------------------------------------------------------

namespace {

/// Binomial broadcast over comm from `root`; data/bytes as in bcast.
Err tree_bcast(SimProcess& p, Context& ctx, Comm& comm, Rank root, void* data,
               std::size_t bytes, int tag) {
  (void)ctx;
  const int n = comm.size();
  const int vrank = (comm.my_rank - root + n) % n;
  auto real = [&](int vr) { return static_cast<Rank>((vr + root) % n); };

  int mask = 1;
  Err e = Err::kSuccess;
  while (mask < n) {
    if ((vrank & mask) != 0) {
      e = coll_recv(p, comm, real(vrank - mask), tag, data, bytes);
      if (e != Err::kSuccess) return e;
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < n && (vrank & (mask - 1)) == 0) {
      e = coll_send(p, comm, real(vrank + mask), tag, data, bytes);
      if (e != Err::kSuccess) return e;
    }
    mask >>= 1;
  }
  return Err::kSuccess;
}

/// Binomial reduce to `root`. Combines contributions in mask order, so it is
/// only valid for commutative ops — callers must check is_commutative(op)
/// and fall back to the linear algorithm otherwise. `out` holds the local
/// contribution on entry at every rank; on exit the root holds the result.
Err tree_reduce(SimProcess& p, Comm& comm, Rank root, ReduceOp op, Dtype dtype, void* out,
                std::size_t count, int tag) {
  const int n = comm.size();
  const int vrank = (comm.my_rank - root + n) % n;
  auto real = [&](int vr) { return static_cast<Rank>((vr + root) % n); };
  const std::size_t bytes = count * dtype_size(dtype);
  std::vector<std::byte> tmp(bytes);

  int mask = 1;
  Err e = Err::kSuccess;
  while (mask < n) {
    if ((vrank & mask) != 0) {
      e = coll_send(p, comm, real(vrank - mask), tag, out, bytes);
      return e;  // Leaf/internal node done after sending up.
    }
    if (vrank + mask < n) {
      e = coll_recv(p, comm, real(vrank + mask), tag, tmp.data(), bytes);
      if (e != Err::kSuccess) return e;
      if (out != nullptr && bytes > 0) reduce_combine(op, dtype, out, tmp.data(), count);
    }
    mask <<= 1;
  }
  return Err::kSuccess;
}

}  // namespace

Err Context::barrier(Comm& comm) {
  proc_->fold_native_time();
  comm.coll_seq++;
  if (comm.size() <= 1) return Err::kSuccess;
  const int gather_tag = coll_tag(comm, 0);
  const int release_tag = coll_tag(comm, 1);

  Err e = Err::kSuccess;
  if (proc_->config().collective_algo == CollectiveAlgo::kBinomialTree) {
    // Tree barrier: zero-byte binomial reduce up, binomial broadcast down.
    e = tree_reduce(*proc_, comm, 0, ReduceOp::kSum, Dtype::kByte, nullptr, 0, gather_tag);
    if (e == Err::kSuccess) {
      e = tree_bcast(*proc_, *this, comm, 0, nullptr, 0, release_tag);
    }
    return proc_->apply_error_handler(comm, e);
  }
  if (comm.my_rank == 0) {
    for (Rank r = 1; r < comm.size() && e == Err::kSuccess; ++r) {
      e = coll_recv(*proc_, comm, r, gather_tag, nullptr, 0);
    }
    for (Rank r = 1; r < comm.size() && e == Err::kSuccess; ++r) {
      e = coll_send(*proc_, comm, r, release_tag, nullptr, 0);
    }
  } else {
    e = coll_send(*proc_, comm, 0, gather_tag, nullptr, 0);
    if (e == Err::kSuccess) e = coll_recv(*proc_, comm, 0, release_tag, nullptr, 0);
  }
  return proc_->apply_error_handler(comm, e);
}

Err Context::bcast(Comm& comm, Rank root, void* data, std::size_t bytes) {
  proc_->fold_native_time();
  if (root < 0 || root >= comm.size()) throw std::invalid_argument("bad root");
  comm.coll_seq++;
  if (comm.size() <= 1) return Err::kSuccess;
  const int tag = coll_tag(comm, 0);

  Err e = Err::kSuccess;
  if (proc_->config().collective_algo == CollectiveAlgo::kBinomialTree) {
    e = tree_bcast(*proc_, *this, comm, root, data, bytes, tag);
    return proc_->apply_error_handler(comm, e);
  }
  if (comm.my_rank == root) {
    for (Rank r = 0; r < comm.size() && e == Err::kSuccess; ++r) {
      if (r == root) continue;
      e = coll_send(*proc_, comm, r, tag, data, bytes);
    }
  } else {
    e = coll_recv(*proc_, comm, root, tag, data, bytes);
  }
  return proc_->apply_error_handler(comm, e);
}

Err Context::reduce(Comm& comm, Rank root, ReduceOp op, Dtype dtype, const void* in, void* out,
                    std::size_t count) {
  proc_->fold_native_time();
  if (root < 0 || root >= comm.size()) throw std::invalid_argument("bad root");
  comm.coll_seq++;
  const std::size_t bytes = count * dtype_size(dtype);
  const int tag = coll_tag(comm, 0);

  Err e = Err::kSuccess;
  // Non-commutative ops (kReplace) combine in rank order, which the binomial
  // tree does not preserve — they always take the linear algorithm.
  if (proc_->config().collective_algo == CollectiveAlgo::kBinomialTree &&
      is_commutative(op)) {
    // Every rank seeds `out` with its contribution; the tree folds upward.
    if (out != nullptr && in != nullptr) std::memcpy(out, in, bytes);
    std::vector<std::byte> scratch;
    void* acc = out;
    if (acc == nullptr && bytes > 0) {
      scratch.assign(bytes, std::byte{0});
      std::memcpy(scratch.data(), in, bytes);
      acc = scratch.data();
    }
    e = tree_reduce(*proc_, comm, root, op, dtype, acc, count, tag);
    return proc_->apply_error_handler(comm, e);
  }
  if (comm.my_rank == root) {
    if (out != nullptr && in != nullptr) std::memcpy(out, in, bytes);
    std::vector<std::byte> tmp(bytes);
    for (Rank r = 0; r < comm.size() && e == Err::kSuccess; ++r) {
      if (r == root) continue;
      e = coll_recv(*proc_, comm, r, tag, tmp.data(), bytes);
      if (e == Err::kSuccess && out != nullptr && bytes > 0) {
        reduce_combine(op, dtype, out, tmp.data(), count);
      }
    }
  } else {
    e = coll_send(*proc_, comm, root, tag, in, bytes);
  }
  return proc_->apply_error_handler(comm, e);
}

Err Context::allreduce(Comm& comm, ReduceOp op, Dtype dtype, const void* in, void* out,
                       std::size_t count) {
  // Linear allreduce = reduce to rank 0, then broadcast (two linear phases).
  Err e = reduce(comm, 0, op, dtype, in, out, count);
  if (e != Err::kSuccess) return e;  // Handler already applied by reduce.
  return bcast(comm, 0, out, count * dtype_size(dtype));
}

Err Context::gather(Comm& comm, Rank root, const void* in, std::size_t bytes_each, void* out) {
  proc_->fold_native_time();
  if (root < 0 || root >= comm.size()) throw std::invalid_argument("bad root");
  comm.coll_seq++;
  const int tag = coll_tag(comm, 0);

  Err e = Err::kSuccess;
  if (comm.my_rank == root) {
    auto* base = static_cast<std::byte*>(out);
    if (in != nullptr && out != nullptr) {
      std::memcpy(base + static_cast<std::size_t>(root) * bytes_each, in, bytes_each);
    }
    for (Rank r = 0; r < comm.size() && e == Err::kSuccess; ++r) {
      if (r == root) continue;
      void* slot = out == nullptr ? nullptr : base + static_cast<std::size_t>(r) * bytes_each;
      e = coll_recv(*proc_, comm, r, tag, slot, bytes_each);
    }
  } else {
    e = coll_send(*proc_, comm, root, tag, in, bytes_each);
  }
  return proc_->apply_error_handler(comm, e);
}

Err Context::allgather(Comm& comm, const void* in, std::size_t bytes_each, void* out) {
  Err e = gather(comm, 0, in, bytes_each, out);
  if (e != Err::kSuccess) return e;
  return bcast(comm, 0, out, bytes_each * static_cast<std::size_t>(comm.size()));
}

Err Context::scatter(Comm& comm, Rank root, const void* in, std::size_t bytes_each, void* out) {
  proc_->fold_native_time();
  if (root < 0 || root >= comm.size()) throw std::invalid_argument("bad root");
  comm.coll_seq++;
  const int tag = coll_tag(comm, 0);

  Err e = Err::kSuccess;
  if (comm.my_rank == root) {
    const auto* base = static_cast<const std::byte*>(in);
    if (in != nullptr && out != nullptr) {
      std::memcpy(out, base + static_cast<std::size_t>(root) * bytes_each, bytes_each);
    }
    for (Rank r = 0; r < comm.size() && e == Err::kSuccess; ++r) {
      if (r == root) continue;
      const void* slot =
          in == nullptr ? nullptr : base + static_cast<std::size_t>(r) * bytes_each;
      e = coll_send(*proc_, comm, r, tag, slot, bytes_each);
    }
  } else {
    e = coll_recv(*proc_, comm, root, tag, out, bytes_each);
  }
  return proc_->apply_error_handler(comm, e);
}

Err Context::alltoall(Comm& comm, const void* in, std::size_t bytes_each, void* out) {
  proc_->fold_native_time();
  comm.coll_seq++;
  const int tag = coll_tag(comm, 0);
  const auto* in_base = static_cast<const std::byte*>(in);
  auto* out_base = static_cast<std::byte*>(out);

  if (in != nullptr && out != nullptr) {
    std::memcpy(out_base + static_cast<std::size_t>(comm.my_rank) * bytes_each,
                in_base + static_cast<std::size_t>(comm.my_rank) * bytes_each, bytes_each);
  }
  // Post every receive first, then every send, then wait — deadlock-free for
  // both eager and rendezvous transfers.
  std::vector<RequestHandle> handles;
  handles.reserve(2 * static_cast<std::size_t>(comm.size()));
  for (Rank r = 0; r < comm.size(); ++r) {
    if (r == comm.my_rank) continue;
    void* slot =
        out == nullptr ? nullptr : out_base + static_cast<std::size_t>(r) * bytes_each;
    handles.push_back(proc_->post_recv(comm, r, tag, slot, bytes_each));
  }
  for (Rank r = 0; r < comm.size(); ++r) {
    if (r == comm.my_rank) continue;
    const void* slot =
        in == nullptr ? nullptr : in_base + static_cast<std::size_t>(r) * bytes_each;
    handles.push_back(proc_->post_send(comm, r, tag, slot, bytes_each));
  }
  return proc_->wait_all(handles, nullptr, &comm);
}

// ---------------------------------------------------------------------------
// Communicator split (collective membership agreement via allgather)
// ---------------------------------------------------------------------------

Comm* Context::comm_split(Comm& comm, int color, int key) {
  struct ColorKey {
    int color;
    int key;
  };
  const ColorKey mine{color, key};
  std::vector<ColorKey> all(static_cast<std::size_t>(comm.size()));
  if (allgather(comm, &mine, sizeof(ColorKey), all.data()) != Err::kSuccess) return nullptr;

  const int id = proc_->registry().id_for(comm.id, comm.split_seq++, color);
  if (color < 0) return nullptr;  // MPI_UNDEFINED: participate, get no comm.

  // Deterministic membership: members of my color ordered by (key, rank).
  std::vector<std::pair<std::pair<int, Rank>, Rank>> group;  // ((key, comm rank), world)
  for (Rank r = 0; r < comm.size(); ++r) {
    if (all[static_cast<std::size_t>(r)].color == color) {
      group.push_back({{all[static_cast<std::size_t>(r)].key, r}, comm.world_of(r)});
    }
  }
  std::sort(group.begin(), group.end());
  std::vector<Rank> members;
  members.reserve(group.size());
  for (const auto& g : group) members.push_back(g.second);
  return proc_->new_comm(id, std::move(members), comm);
}

// ---------------------------------------------------------------------------
// ULFM shrink & agree (communicate even on revoked communicators)
// ---------------------------------------------------------------------------

namespace {

/// Surviving members of `comm` in communicator order, from the process's
/// (globally consistent) view; `alive_world` is ascending. Root of recovery =
/// first survivor.
std::vector<Rank> surviving_comm_ranks(SimProcess& p, const Comm& comm,
                                       const std::vector<Rank>& alive_world) {
  std::vector<Rank> out;
  for (Rank r = 0; r < comm.size(); ++r) {
    if (std::binary_search(alive_world.begin(), alive_world.end(), comm.world_of(r))) {
      out.push_back(r);
    }
  }
  (void)p;
  return out;
}

}  // namespace

Comm* Context::comm_shrink(Comm& comm) {
  proc_->fold_native_time();
  const std::uint64_t epoch = comm.recovery_seq++;
  const int join_tag = recovery_tag(epoch, 0);
  const int release_tag = recovery_tag(epoch, 1);

  // Barrier among survivors so that everyone has entered the shrink before
  // membership is fixed. Uses revoke-immune traffic.
  const auto alive = proc_->alive_world_ranks_for_shrink();
  const auto survivors = surviving_comm_ranks(*proc_, comm, alive);
  if (!survivors.empty()) {
    const Rank recovery_root = survivors.front();
    if (comm.my_rank == recovery_root) {
      for (Rank r : survivors) {
        if (r == recovery_root) continue;
        // A survivor that fails mid-shrink times out; skip it.
        (void)coll_recv(*proc_, comm, r, join_tag, nullptr, 0, /*allow_revoked=*/true);
      }
      for (Rank r : survivors) {
        if (r == recovery_root) continue;
        (void)coll_send(*proc_, comm, r, release_tag, nullptr, 0, /*allow_revoked=*/true);
      }
    } else {
      (void)coll_send(*proc_, comm, recovery_root, join_tag, nullptr, 0, /*allow_revoked=*/true);
      (void)coll_recv(*proc_, comm, recovery_root, release_tag, nullptr, 0,
                      /*allow_revoked=*/true);
    }
  }
  return proc_->comm_shrink(comm);
}

Err Context::comm_agree(Comm& comm, bool* flag) {
  proc_->fold_native_time();
  const std::uint64_t epoch = comm.recovery_seq++;
  const int up_tag = recovery_tag(epoch, 2);
  const int down_tag = recovery_tag(epoch, 3);

  const auto alive = proc_->alive_world_ranks_for_shrink();
  const auto survivors = surviving_comm_ranks(*proc_, comm, alive);
  if (survivors.empty()) return Err::kProcFailed;
  const Rank root = survivors.front();

  std::uint8_t mine = (flag != nullptr && *flag) ? 1 : 0;
  if (comm.my_rank == root) {
    std::uint8_t acc = mine;
    for (Rank r : survivors) {
      if (r == root) continue;
      std::uint8_t v = 1;
      if (coll_recv(*proc_, comm, r, up_tag, &v, 1, /*allow_revoked=*/true) == Err::kSuccess) {
        acc = static_cast<std::uint8_t>(acc & v);
      }
    }
    for (Rank r : survivors) {
      if (r == root) continue;
      (void)coll_send(*proc_, comm, r, down_tag, &acc, 1, /*allow_revoked=*/true);
    }
    if (flag != nullptr) *flag = acc != 0;
  } else {
    Err e = coll_send(*proc_, comm, root, up_tag, &mine, 1, /*allow_revoked=*/true);
    std::uint8_t acc = 0;
    if (e == Err::kSuccess) {
      e = coll_recv(*proc_, comm, root, down_tag, &acc, 1, /*allow_revoked=*/true);
    }
    if (e != Err::kSuccess) return e;
    if (flag != nullptr) *flag = acc != 0;
  }
  return Err::kSuccess;
}

}  // namespace exasim::vmpi
