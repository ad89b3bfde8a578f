#include "apps/heat3d.hpp"

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>

#include "core/machine.hpp"

namespace exasim::apps {
namespace {

using vmpi::Context;
using vmpi::Err;
using vmpi::RequestHandle;

/// Face directions in deterministic order: -x, +x, -y, +y, -z, +z.
constexpr int kDirs = 6;
constexpr int opposite(int dir) { return dir ^ 1; }
constexpr int kHaloTagBase = 100;

/// What a rank keeps of the decomposition: a modeled rank holds it in
/// heat3d_main's frame, which every suspension saves (see below).
struct Decomposition {
  int lx, ly, lz;       // local interior dims
  int ix, iy, iz;       // my process coordinates
  int neighbor[kDirs];  // world rank per direction, -1 at physical boundary

  std::size_t points() const {
    return static_cast<std::size_t>(lx) * static_cast<std::size_t>(ly) *
           static_cast<std::size_t>(lz);
  }
  std::size_t face_bytes(int dir) const {
    const std::size_t d = dir / 2 == 0   ? static_cast<std::size_t>(ly) * lz
                          : dir / 2 == 1 ? static_cast<std::size_t>(lx) * lz
                                         : static_cast<std::size_t>(lx) * ly;
    return d * sizeof(double);
  }
};

Decomposition decompose(const HeatParams& p, int rank, int size) {
  if (p.px * p.py * p.pz != size) {
    throw std::invalid_argument("heat3d: process grid does not match world size");
  }
  if (p.nx % p.px != 0 || p.ny % p.py != 0 || p.nz % p.pz != 0) {
    throw std::invalid_argument("heat3d: grid does not divide evenly");
  }
  Decomposition d{};
  d.lx = p.nx / p.px;
  d.ly = p.ny / p.py;
  d.lz = p.nz / p.pz;
  d.ix = rank % p.px;
  d.iy = (rank / p.px) % p.py;
  d.iz = rank / (p.px * p.py);
  auto rank_of = [&](int x, int y, int z) -> int {
    if (x < 0 || x >= p.px || y < 0 || y >= p.py || z < 0 || z >= p.pz) return -1;
    return x + y * p.px + z * p.px * p.py;
  };
  d.neighbor[0] = rank_of(d.ix - 1, d.iy, d.iz);
  d.neighbor[1] = rank_of(d.ix + 1, d.iy, d.iz);
  d.neighbor[2] = rank_of(d.ix, d.iy - 1, d.iz);
  d.neighbor[3] = rank_of(d.ix, d.iy + 1, d.iz);
  d.neighbor[4] = rank_of(d.ix, d.iy, d.iz - 1);
  d.neighbor[5] = rank_of(d.ix, d.iy, d.iz + 1);
  return d;
}

/// Real-mode grid with one halo layer. Index (x,y,z) in [-1, l?] maps into a
/// dense (l+2)^3 block.
class Grid {
 public:
  Grid(const Decomposition& d) : d_(d) {
    const std::size_t n = static_cast<std::size_t>(d.lx + 2) * (d.ly + 2) * (d.lz + 2);
    cur_.assign(n, 0.0);
    next_.assign(n, 0.0);
  }

  double& at(std::vector<double>& a, int x, int y, int z) {
    const std::size_t sx = static_cast<std::size_t>(d_.lx) + 2;
    const std::size_t sy = static_cast<std::size_t>(d_.ly) + 2;
    return a[(static_cast<std::size_t>(z + 1) * sy + (y + 1)) * sx + (x + 1)];
  }
  const double& at(const std::vector<double>& a, int x, int y, int z) const {
    return const_cast<Grid*>(this)->at(const_cast<std::vector<double>&>(a), x, y, z);
  }

  void init(const HeatParams& p) {
    // Deterministic initial condition from global coordinates.
    for (int z = 0; z < d_.lz; ++z) {
      for (int y = 0; y < d_.ly; ++y) {
        for (int x = 0; x < d_.lx; ++x) {
          const int gx = d_.ix * d_.lx + x;
          const int gy = d_.iy * d_.ly + y;
          const int gz = d_.iz * d_.lz + z;
          at(cur_, x, y, z) =
              std::sin(0.1 * gx) + std::cos(0.13 * gy) + std::sin(0.07 * gz + 1.0);
        }
      }
    }
    (void)p;
  }

  [[gnu::noinline]] void step() {
    constexpr double kAlpha = 0.1;
    for (int z = 0; z < d_.lz; ++z) {
      for (int y = 0; y < d_.ly; ++y) {
        for (int x = 0; x < d_.lx; ++x) {
          const double c = at(cur_, x, y, z);
          const double sum = at(cur_, x - 1, y, z) + at(cur_, x + 1, y, z) +
                             at(cur_, x, y - 1, z) + at(cur_, x, y + 1, z) +
                             at(cur_, x, y, z - 1) + at(cur_, x, y, z + 1);
          at(next_, x, y, z) = c + kAlpha * (sum - 6.0 * c);
        }
      }
    }
    // Carry the face-halo planes into the buffer about to become current:
    // halo state must be single-sourced (not alternate between the two
    // buffers) or a restart from a checkpointed interior could never
    // reproduce it.
    for (int dir = 0; dir < 6; ++dir) {
      iterate_face(dir, /*halo=*/true,
                   [&](int x, int y, int z) { at(next_, x, y, z) = at(cur_, x, y, z); });
    }
    cur_.swap(next_);
  }

  /// Halo buffers, one per face direction: what pack_face fills and
  /// unpack_face reads. They live with the grid, so a modeled rank, which
  /// has no grid, keeps none in its frame.
  std::vector<double>& send_buf(int dir) { return send_bufs_[static_cast<std::size_t>(dir)]; }
  std::vector<double>& recv_buf(int dir) { return recv_bufs_[static_cast<std::size_t>(dir)]; }

  void pack_face(int dir) {
    std::vector<double>& buf = send_buf(dir);
    buf.clear();
    iterate_face(dir, /*halo=*/false,
                 [&](int x, int y, int z) { buf.push_back(at(cur_, x, y, z)); });
  }

  void unpack_face(int dir) {
    const std::vector<double>& buf = recv_buf(dir);
    std::size_t i = 0;
    iterate_face(dir, /*halo=*/true, [&](int x, int y, int z) { at(cur_, x, y, z) = buf[i++]; });
  }

  [[gnu::noinline]] double checksum() const {
    double s = 0;
    for (int z = 0; z < d_.lz; ++z) {
      for (int y = 0; y < d_.ly; ++y) {
        for (int x = 0; x < d_.lx; ++x) s += at(cur_, x, y, z);
      }
    }
    return s;
  }

  /// A checkpoint payload: `header`, then the interior values, packed,
  /// in the grid's one checkpoint buffer, sized by the first checkpoint and
  /// refilled by every later one.
  std::span<const std::byte> checkpoint_payload(const HeatCkptHeader& header) {
    ckpt_buf_.resize(sizeof header + d_.points() * sizeof(double));
    std::memcpy(ckpt_buf_.data(), &header, sizeof header);
    std::size_t at_byte = sizeof header;
    for (int z = 0; z < d_.lz; ++z) {
      for (int y = 0; y < d_.ly; ++y) {
        for (int x = 0; x < d_.lx; ++x) {
          std::memcpy(ckpt_buf_.data() + at_byte, &at(cur_, x, y, z), sizeof(double));
          at_byte += sizeof(double);
        }
      }
    }
    return ckpt_buf_;
  }

  void restore_interior(const double* data) {
    std::size_t i = 0;
    for (int z = 0; z < d_.lz; ++z) {
      for (int y = 0; y < d_.ly; ++y) {
        for (int x = 0; x < d_.lx; ++x) at(cur_, x, y, z) = data[i++];
      }
    }
  }

  double* raw() { return cur_.data(); }
  std::size_t raw_bytes() const { return cur_.size() * sizeof(double); }

 private:
  template <typename F>
  void iterate_face(int dir, bool halo, F&& f) const {
    // Interior face (halo=false) is the boundary plane we send; halo plane
    // (halo=true) is where the neighbor's data lands.
    const int axis = dir / 2;
    const bool low = (dir % 2) == 0;
    int fx = low ? 0 : d_.lx - 1;
    int fy = low ? 0 : d_.ly - 1;
    int fz = low ? 0 : d_.lz - 1;
    if (halo) {
      fx = low ? -1 : d_.lx;
      fy = low ? -1 : d_.ly;
      fz = low ? -1 : d_.lz;
    }
    if (axis == 0) {
      for (int z = 0; z < d_.lz; ++z)
        for (int y = 0; y < d_.ly; ++y) f(fx, y, z);
    } else if (axis == 1) {
      for (int z = 0; z < d_.lz; ++z)
        for (int x = 0; x < d_.lx; ++x) f(x, fy, z);
    } else {
      for (int y = 0; y < d_.ly; ++y)
        for (int x = 0; x < d_.lx; ++x) f(x, y, fz);
    }
  }

  const Decomposition& d_;
  std::vector<double> cur_, next_;
  std::array<std::vector<double>, kDirs> send_bufs_, recv_bufs_;
  std::vector<std::byte> ckpt_buf_;  ///< See checkpoint_payload.
};

void set_phase(const HeatParams& p, int rank, HeatPhase phase) {
  if (p.telemetry != nullptr) {
    p.telemetry->last_phase[static_cast<std::size_t>(rank)] = phase;
  }
}

// A suspended rank's saved image is its live frames, and the image only
// grows (fiber.hpp), so every byte of a frame that can be on the stack at a
// suspension point is paid by every modeled rank. The blocks a modeled rank
// never runs, or runs outside every suspension (the grid's set-up, step and
// checksum, the restart path, the checkpoint write, the real-grid halo),
// are kept out of line, so their locals stay out of heat3d_main's frame
// (DESIGN.md §9).

/// The real-mode grid, initialized, and registered for memory corruption
/// when `p` asks for it.
[[gnu::noinline]] std::unique_ptr<Grid> make_grid(Context& ctx, const HeatParams& p,
                                                 const Decomposition& d) {
  auto grid = std::make_unique<Grid>(d);
  grid->init(p);
  if (p.register_memory) ctx.register_memory("heat3d.grid", grid->raw(), grid->raw_bytes());
  return grid;
}

using HaloHandles = std::array<RequestHandle, 2 * kDirs>;

/// Posts the modeled halo's receives, then its sends, into `handles`;
/// returns how many. Out of line: its loop state stays out of the frame
/// that waits.
[[gnu::noinline]] std::size_t post_modeled_halo(Context& ctx, const Decomposition& d,
                                                HaloHandles& handles) {
  auto& world = ctx.world();
  std::size_t n = 0;
  for (int dir = 0; dir < kDirs; ++dir) {
    if (d.neighbor[dir] < 0) continue;
    handles[n++] = ctx.irecv_modeled(world, d.neighbor[dir], kHaloTagBase + opposite(dir),
                                     d.face_bytes(dir));
  }
  for (int dir = 0; dir < kDirs; ++dir) {
    if (d.neighbor[dir] < 0) continue;
    handles[n++] = ctx.isend_modeled(world, d.neighbor[dir], kHaloTagBase + dir, d.face_bytes(dir));
  }
  return n;
}

/// Modeled halo exchange with the (up to 6) face neighbors: size-only
/// messages, no grid, and a frame of little more than the handles. Returns
/// the first error the underlying MPI operations reported (the error
/// handler of the world communicator already ran — under kFatal this call
/// aborts instead of returning).
Err modeled_halo_exchange(Context& ctx, const Decomposition& d) {
  HaloHandles handles;
  const std::size_t n = post_modeled_halo(ctx, d, handles);
  return ctx.waitall(ctx.world(), std::span(handles.data(), n), nullptr);
}

/// The same exchange with real face planes: packs the interior faces out of
/// `grid` and unpacks the neighbors' into its halo layers.
[[gnu::noinline]] Err real_halo_exchange(Context& ctx, const Decomposition& d, Grid& grid) {
  auto& world = ctx.world();
  std::array<RequestHandle, 2 * kDirs> handles;
  std::size_t n = 0;
  for (int dir = 0; dir < kDirs; ++dir) {
    if (d.neighbor[dir] < 0) continue;
    const std::size_t bytes = d.face_bytes(dir);
    std::vector<double>& buf = grid.recv_buf(dir);
    buf.assign(bytes / sizeof(double), 0.0);
    handles[n++] = ctx.irecv(world, d.neighbor[dir], kHaloTagBase + opposite(dir), buf.data(),
                             bytes);
  }
  for (int dir = 0; dir < kDirs; ++dir) {
    if (d.neighbor[dir] < 0) continue;
    grid.pack_face(dir);
    handles[n++] = ctx.isend(world, d.neighbor[dir], kHaloTagBase + dir,
                             grid.send_buf(dir).data(), d.face_bytes(dir));
  }
  const Err e = ctx.waitall(world, std::span(handles.data(), n), nullptr);
  if (e == Err::kSuccess) {
    for (int dir = 0; dir < kDirs; ++dir) {
      if (d.neighbor[dir] >= 0) grid.unpack_face(dir);
    }
  }
  return e;
}

Err halo_exchange(Context& ctx, const Decomposition& d, Grid* grid) {
  return grid != nullptr ? real_halo_exchange(ctx, d, *grid) : modeled_halo_exchange(ctx, d);
}

/// Restart path (paper §V-B): "it automatically loads the last checkpoint".
/// Restores the grid's interior from it and garbage-collects the stale
/// complete sets older than it. Returns the iteration the checkpoint holds,
/// or 0 on a cold start (checkpoints are taken from iteration 1 on).
[[gnu::noinline]] int load_checkpoint(Context& ctx, ckpt::CheckpointStore& store,
                                      const core::Services& services, Grid* grid,
                                      std::size_t state_bytes, std::uint64_t* version) {
  const int rank = ctx.rank();
  auto payload = ckpt::read_latest_checkpoint_tiered(ctx, store, *services.storage, version);
  if (!payload) return 0;
  HeatCkptHeader header{};
  if (payload->size() < sizeof(header)) throw std::runtime_error("corrupt checkpoint header");
  std::memcpy(&header, payload->data(), sizeof(header));
  if (header.magic != HeatCkptHeader{}.magic || header.rank != rank) {
    throw std::runtime_error("checkpoint mismatch");
  }
  if (grid != nullptr) {
    if (payload->size() != sizeof(header) + state_bytes) {
      throw std::runtime_error("checkpoint payload size mismatch");
    }
    grid->restore_interior(reinterpret_cast<const double*>(payload->data() + sizeof(header)));
  }
  for (std::uint64_t v : store.versions()) {
    if (v < *version) store.remove_file(v, rank);
  }
  return header.iteration;
}

/// Writes iteration `it`'s checkpoint: the header, then the grid's interior
/// when there is a grid. A modeled rank's payload is the header alone,
/// which the store keeps inline (ckpt::Payload), so it needs no buffer.
[[gnu::noinline]] void write_checkpoint(Context& ctx, ckpt::TieredWriter& writer,
                                        ckpt::CheckpointStore& store, const HeatParams& p,
                                        int it, Grid* grid, std::size_t state_bytes) {
  HeatCkptHeader header;
  header.rank = ctx.rank();
  header.iteration = it;
  header.nx = p.nx;
  header.ny = p.ny;
  header.nz = p.nz;
  const std::span<const std::byte> payload = grid != nullptr
                                                 ? grid->checkpoint_payload(header)
                                                 : std::as_bytes(std::span(&header, 1));
  writer.write(ctx, store, static_cast<std::uint64_t>(it), payload, sizeof(header) + state_bytes);
}

void heat3d_main(Context& ctx, const HeatParams& p, std::vector<HeatReport>* reports) {
  const int rank = ctx.rank();
  auto& services = core::services_of(ctx);
  if (services.checkpoints == nullptr) {
    throw std::logic_error("heat3d requires a checkpoint store service");
  }
  auto& store = *services.checkpoints;
  ckpt::TieredWriter writer(*services.storage, services.ckpt_mode);

  set_phase(p, rank, HeatPhase::kStartup);
  const Decomposition d = decompose(p, rank, ctx.size());
  const std::size_t state_bytes = d.points() * sizeof(double);

  // Halo buffers exist only with a grid (it holds them); modeled halos
  // carry no bytes.
  std::unique_ptr<Grid> grid;
  if (p.real_compute) grid = make_grid(ctx, p, d);

  std::uint64_t restored_version = 0;
  const int restored_iteration =
      load_checkpoint(ctx, store, services, grid.get(), state_bytes, &restored_version);
  const int start_iteration = restored_iteration + 1;
  const bool restarted = restored_iteration > 0;
  if (restarted) {
    // Checkpoints persist interiors only; rebuild the halo layers so the
    // physics after restart is bit-identical to the uninterrupted run.
    set_phase(p, rank, HeatPhase::kHalo);
    if (halo_exchange(ctx, d, grid.get()) != Err::kSuccess) return;
  }

  std::uint64_t prev_ckpt_version = restarted ? restored_version : 0;
  bool have_prev_ckpt = restarted;

  // The iterations due a halo exchange and a checkpoint are the multiples of
  // their intervals. Keep the next one due, starting from the first at or
  // after start_iteration, so a restart keeps the schedule (no interval:
  // never).
  auto first_multiple = [start_iteration](int interval) -> std::int64_t {
    if (interval <= 0) return std::numeric_limits<std::int64_t>::max();
    return (static_cast<std::int64_t>(start_iteration) + interval - 1) / interval * interval;
  };
  std::int64_t next_halo = first_multiple(p.halo_interval);
  std::int64_t next_ckpt = first_multiple(p.checkpoint_interval);
  const double work_per_iteration = static_cast<double>(d.points()) * p.work_units_per_point;

  for (int it = start_iteration; it <= p.total_iterations; ++it) {
    // Computation phase — by far the longest (§V-D), so most failures
    // activate here and are *detected* in the next halo exchange.
    set_phase(p, rank, HeatPhase::kCompute);
    if (grid) grid->step();
    ctx.compute(work_per_iteration);

    const bool do_halo = it == next_halo;
    if (do_halo) next_halo += p.halo_interval;
    const bool do_ckpt = it == next_ckpt || it == p.total_iterations;
    if (it == next_ckpt) next_ckpt += p.checkpoint_interval;

    if (do_halo) {
      set_phase(p, rank, HeatPhase::kHalo);
      if (halo_exchange(ctx, d, grid.get()) != Err::kSuccess) return;
    }

    if (do_ckpt) {
      // Checkpoint phase: write file, then global barrier, then delete the
      // previous checkpoint ("such that the previous checkpoint can be
      // deleted safely", §V-B).
      set_phase(p, rank, HeatPhase::kCheckpoint);
      write_checkpoint(ctx, writer, store, p, it, grid.get(), state_bytes);

      set_phase(p, rank, HeatPhase::kBarrier);
      if (ctx.barrier(ctx.world()) != Err::kSuccess) return;

      set_phase(p, rank, HeatPhase::kCleanup);
      if (have_prev_ckpt && prev_ckpt_version != static_cast<std::uint64_t>(it)) {
        store.remove_file(prev_ckpt_version, rank);
      }
      prev_ckpt_version = static_cast<std::uint64_t>(it);
      have_prev_ckpt = true;
    }
  }

  set_phase(p, rank, HeatPhase::kDone);
  if (reports != nullptr) {
    auto& rep = reports->at(static_cast<std::size_t>(rank));
    rep.completed_iterations = p.total_iterations;
    rep.restarts_used = restarted ? 1 : 0;
    rep.checksum = grid ? grid->checksum() : 0.0;
  }
  ctx.finalize();
}

}  // namespace

const char* to_string(HeatPhase p) {
  switch (p) {
    case HeatPhase::kStartup: return "startup";
    case HeatPhase::kCompute: return "compute";
    case HeatPhase::kHalo: return "halo";
    case HeatPhase::kCheckpoint: return "checkpoint";
    case HeatPhase::kBarrier: return "barrier";
    case HeatPhase::kCleanup: return "cleanup";
    case HeatPhase::kDone: return "done";
  }
  return "?";
}

vmpi::AppMain make_heat3d(HeatParams params, std::vector<HeatReport>* reports) {
  return [params, reports](Context& ctx) { heat3d_main(ctx, params, reports); };
}

}  // namespace exasim::apps
