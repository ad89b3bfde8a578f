#include "netmodel/topology.hpp"

#include <climits>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "util/parse.hpp"

namespace exasim {
namespace {

void check_dims(int nx, int ny, int nz) {
  if (nx <= 0 || ny <= 0 || nz <= 0) throw std::invalid_argument("non-positive dimension");
}

int ring_distance(int a, int b, int n) {
  int d = std::abs(a - b);
  return std::min(d, n - d);
}

int mod(int v, int n) {
  int r = v % n;
  return r < 0 ? r + n : r;
}

/// The dims (0=x, 1=y, 2=z) along which two coordinates differ, ascending.
/// Non-differing dims contribute no links, so route variants only permute
/// these.
int differing_dims(const Coord3& a, const Coord3& b, std::array<int, 3>& dims) {
  int n = 0;
  if (a.x != b.x) dims[n++] = 0;
  if (a.y != b.y) dims[n++] = 1;
  if (a.z != b.z) dims[n++] = 2;
  return n;
}

constexpr std::uint64_t kFactorial[4] = {1, 1, 2, 6};

/// Reorders dims[0..n) into its `index`-th lexicographic permutation
/// (Lehmer code). index must be < n!.
void permute_dims(std::array<int, 3>& dims, int n, std::uint64_t index) {
  for (int i = 0; i < n; ++i) {
    const std::uint64_t f = kFactorial[n - 1 - i];
    const int pick = static_cast<int>(index / f);
    index %= f;
    const int chosen = dims[i + pick];
    for (int j = i + pick; j > i; --j) dims[j] = dims[j - 1];
    dims[i] = chosen;
  }
}

int coord_axis(const Coord3& c, int dim) { return dim == 0 ? c.x : dim == 1 ? c.y : c.z; }

void set_coord_axis(Coord3& c, int dim, int v) {
  (dim == 0 ? c.x : dim == 1 ? c.y : c.z) = v;
}

}  // namespace

int Topology::hop_count(int src, int dst) const {
  std::vector<LinkId> links;
  route_into(src, dst, 0, links);
  return static_cast<int>(links.size());
}

std::vector<LinkId> Topology::route(int src, int dst, std::uint64_t variant) const {
  std::vector<LinkId> links;
  route_into(src, dst, variant, links);
  return links;
}

Torus3D::Torus3D(int nx, int ny, int nz, bool wrap)
    : nx_(nx), ny_(ny), nz_(nz), wrap_(wrap) {
  check_dims(nx, ny, nz);
}

Coord3 Torus3D::coord_of(int node) const {
  return Coord3{node % nx_, (node / nx_) % ny_, node / (nx_ * ny_)};
}

int Torus3D::node_of(Coord3 c) const {
  return mod(c.x, nx_) + mod(c.y, ny_) * nx_ + mod(c.z, nz_) * nx_ * ny_;
}

int Torus3D::axis_distance(int from, int to, int n) const {
  return wrap_ ? ring_distance(from, to, n) : std::abs(from - to);
}

int Torus3D::hop_count(int src, int dst) const {
  const Coord3 a = coord_of(src), b = coord_of(dst);
  return axis_distance(a.x, b.x, nx_) + axis_distance(a.y, b.y, ny_) +
         axis_distance(a.z, b.z, nz_);
}

int Torus3D::diameter() const {
  if (wrap_) return nx_ / 2 + ny_ / 2 + nz_ / 2;
  return (nx_ - 1) + (ny_ - 1) + (nz_ - 1);
}

std::string Torus3D::name() const {
  std::ostringstream os;
  os << (wrap_ ? "torus:" : "mesh:") << nx_ << 'x' << ny_ << 'x' << nz_;
  return os.str();
}

std::array<int, 6> Torus3D::face_neighbors(int node) const {
  const Coord3 c = coord_of(node);
  return {node_of({c.x - 1, c.y, c.z}), node_of({c.x + 1, c.y, c.z}),
          node_of({c.x, c.y - 1, c.z}), node_of({c.x, c.y + 1, c.z}),
          node_of({c.x, c.y, c.z - 1}), node_of({c.x, c.y, c.z + 1})};
}

std::uint64_t Torus3D::route_count(int src, int dst) const {
  std::array<int, 3> dims;
  return kFactorial[differing_dims(coord_of(src), coord_of(dst), dims)];
}

void Torus3D::route_into(int src, int dst, std::uint64_t variant,
                         std::vector<LinkId>& out) const {
  const Coord3 b = coord_of(dst);
  Coord3 cur = coord_of(src);
  std::array<int, 3> dims;
  const int ndiff = differing_dims(cur, b, dims);
  if (ndiff == 0) return;
  permute_dims(dims, ndiff, variant % kFactorial[ndiff]);

  const int sizes[3] = {nx_, ny_, nz_};
  for (int i = 0; i < ndiff; ++i) {
    const int dim = dims[i];
    const int n = sizes[dim];
    const int from = coord_axis(cur, dim), to = coord_axis(b, dim);
    const int forward = mod(to - from, n);
    const int steps = axis_distance(from, to, n);
    // On the torus a tie (forward == n - forward) breaks toward + so the
    // canonical route is unique and matches ring_distance exactly; the mesh
    // always walks straight toward `to`.
    const int dir = (wrap_ ? forward <= n - forward : to > from) ? +1 : -1;
    for (int s = 0; s < steps; ++s) {
      if (dir > 0) {
        out.push_back(static_cast<LinkId>(node_of(cur)) * 3 + static_cast<LinkId>(dim));
        set_coord_axis(cur, dim, mod(coord_axis(cur, dim) + 1, n));
      } else {
        // A -dim step traverses the +dim link owned by the node stepped onto.
        set_coord_axis(cur, dim, mod(coord_axis(cur, dim) - 1, n));
        out.push_back(static_cast<LinkId>(node_of(cur)) * 3 + static_cast<LinkId>(dim));
      }
    }
  }
}

FatTree::FatTree(int radix, int leaf_switches) : radix_(radix), leaves_(leaf_switches) {
  if (radix <= 0 || leaf_switches <= 0) throw std::invalid_argument("non-positive dimension");
}

int FatTree::hop_count(int src, int dst) const {
  if (src == dst) return 0;
  return (src / radix_ == dst / radix_) ? 2 : 4;
}

int FatTree::diameter() const {
  if (node_count() <= 1) return 0;
  return leaves_ > 1 ? 4 : 2;
}

std::string FatTree::name() const {
  std::ostringstream os;
  os << "fattree:" << radix_ << 'x' << leaves_;
  return os.str();
}

std::uint64_t FatTree::route_count(int src, int dst) const {
  if (src == dst || src / radix_ == dst / radix_) return 1;
  return static_cast<std::uint64_t>(radix_);
}

void FatTree::route_into(int src, int dst, std::uint64_t variant,
                         std::vector<LinkId>& out) const {
  if (src == dst) return;
  const int leaf_s = src / radix_, leaf_d = dst / radix_;
  out.push_back(static_cast<LinkId>(src));  // Up the terminal link.
  if (leaf_s != leaf_d) {
    // Any of the radix_ spines reaches every leaf in one up + one down hop;
    // the canonical choice hashes the leaf pair so load spreads over spines
    // even under deterministic routing.
    const std::uint64_t r = static_cast<std::uint64_t>(radix_);
    const std::uint64_t spine =
        (static_cast<std::uint64_t>(leaf_s) + static_cast<std::uint64_t>(leaf_d) + variant % r) %
        r;
    const std::uint64_t base = static_cast<std::uint64_t>(node_count());
    out.push_back(base + static_cast<std::uint64_t>(leaf_s) * r + spine);
    out.push_back(base + static_cast<std::uint64_t>(leaf_d) * r + spine);
  }
  out.push_back(static_cast<LinkId>(dst));  // Down the terminal link.
}

Dragonfly::Dragonfly(int groups, int routers_per_group, int nodes_per_router)
    : groups_(groups), routers_(routers_per_group), nodes_(nodes_per_router) {
  if (groups <= 0 || routers_per_group <= 0 || nodes_per_router <= 0) {
    throw std::invalid_argument("non-positive dimension");
  }
}

int Dragonfly::hop_count(int src, int dst) const {
  if (src == dst) return 0;
  if (router_of(src) == router_of(dst)) return 2;  // Up, down: same router.
  if (group_of(src) == group_of(dst)) return 3;    // Up, local link, down.
  // Up, (maybe) local to the global-link router, global, (maybe) local, down.
  // With all-to-all global links we charge the canonical minimal path of 5.
  return 5;
}

int Dragonfly::diameter() const {
  if (node_count() <= 1) return 0;
  if (groups_ > 1) return 5;
  if (routers_ > 1) return 3;
  return 2;  // One router, several nodes.
}

std::string Dragonfly::name() const {
  std::ostringstream os;
  os << "dragonfly:" << groups_ << 'x' << routers_ << 'x' << nodes_;
  return os.str();
}

std::uint64_t Dragonfly::link_count() const {
  const std::uint64_t g = static_cast<std::uint64_t>(groups_);
  const std::uint64_t r = static_cast<std::uint64_t>(routers_);
  return static_cast<std::uint64_t>(node_count()) + g * r * r + g * g;
}

LinkId Dragonfly::local_link(int group, int a, int b) const {
  const std::uint64_t r = static_cast<std::uint64_t>(routers_);
  const std::uint64_t lo = static_cast<std::uint64_t>(std::min(a, b));
  const std::uint64_t hi = static_cast<std::uint64_t>(std::max(a, b));
  return static_cast<std::uint64_t>(node_count()) +
         static_cast<std::uint64_t>(group) * r * r + lo * r + hi;
}

int Dragonfly::link_plane(LinkId link) const {
  const std::uint64_t n = static_cast<std::uint64_t>(node_count());
  if (link < n) return 0;
  const std::uint64_t locals =
      static_cast<std::uint64_t>(groups_) * static_cast<std::uint64_t>(routers_) *
      static_cast<std::uint64_t>(routers_);
  return link < n + locals ? 1 : 2;
}

std::uint64_t Dragonfly::route_count(int src, int dst) const {
  if (src == dst || group_of(src) == group_of(dst)) return 1;
  return static_cast<std::uint64_t>(routers_);
}

void Dragonfly::route_into(int src, int dst, std::uint64_t variant,
                           std::vector<LinkId>& out) const {
  if (src == dst) return;
  out.push_back(static_cast<LinkId>(src));  // Up the terminal link.
  const int g_s = group_of(src), g_d = group_of(dst);
  const int r_s = router_of(src) % routers_, r_d = router_of(dst) % routers_;
  if (g_s == g_d) {
    if (r_s != r_d) out.push_back(local_link(g_s, r_s, r_d));
  } else {
    // Gateway routers for the (g_s, g_d) global link; variant spreads flows
    // over the routers_ gateway pairs. When a gateway is the source or
    // destination router itself, the "local" hop is its internal crossbar
    // crossing (the degenerate a==b local link), keeping every inter-group
    // route at the canonical 5 links.
    const std::uint64_t r = static_cast<std::uint64_t>(routers_);
    const std::uint64_t v = variant % r;
    const int gw_s = static_cast<int>((static_cast<std::uint64_t>(g_d) + v) % r);
    const int gw_d = static_cast<int>((static_cast<std::uint64_t>(g_s) + v) % r);
    out.push_back(local_link(g_s, r_s, gw_s));
    const std::uint64_t g = static_cast<std::uint64_t>(groups_);
    const std::uint64_t lo = static_cast<std::uint64_t>(std::min(g_s, g_d));
    const std::uint64_t hi = static_cast<std::uint64_t>(std::max(g_s, g_d));
    out.push_back(static_cast<std::uint64_t>(node_count()) + g * r * r + lo * g + hi);
    out.push_back(local_link(g_d, gw_d, r_d));
  }
  out.push_back(static_cast<LinkId>(dst));  // Down the terminal link.
}

Star::Star(int nodes) : nodes_(nodes) {
  if (nodes <= 0) throw std::invalid_argument("non-positive dimension");
}

std::string Star::name() const {
  std::ostringstream os;
  os << "star:" << nodes_;
  return os.str();
}

void Star::route_into(int src, int dst, std::uint64_t variant,
                      std::vector<LinkId>& out) const {
  (void)variant;
  if (src == dst) return;
  out.push_back(static_cast<LinkId>(src));  // Into the hub.
  out.push_back(static_cast<LinkId>(dst));  // Out of the hub.
}

const std::vector<TopologyInfo>& list_topologies() {
  static const std::vector<TopologyInfo> kInfos = {
      {"torus", "torus:NXxNYxNZ",
       "3-D wrapped torus, dimension-ordered routing (paper's 32x32x32 system)"},
      {"mesh", "mesh:NXxNYxNZ", "3-D mesh without wrap links, dimension-ordered routing"},
      {"fattree", "fattree:RADIXxLEAVES",
       "two-level fat tree, RADIX nodes/leaf, RADIX spines, up-down routing"},
      {"dragonfly", "dragonfly:GROUPSxROUTERSxNODES",
       "dragonfly with all-to-all global links, local-global-local routing"},
      {"star", "star:NODES", "single central switch, every pair 2 hops"},
  };
  return kInfos;
}

std::unique_ptr<Topology> make_topology(const std::string& spec) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) {
    throw std::invalid_argument(
        "topology spec missing ':' (expected KIND:DIMS, e.g. torus:32x32x32; "
        "see --list-topologies): " +
        spec);
  }
  const std::string kind = spec.substr(0, colon);
  const std::string dims = spec.substr(colon + 1);

  // Each dimension is a whole integer >= 1, and the node-count product must
  // fit the int node-id space too.
  auto parse_xyz = [&](int expected, const char* format) {
    auto fail = [&](const std::string& why) -> void {
      throw std::invalid_argument("bad topology spec \"" + spec + "\": " + why + " (expected " +
                                  format + ")");
    };
    std::vector<int> out;
    long long product = 1;
    std::size_t start = 0;
    while (true) {
      auto x = dims.find('x', start);
      const std::string piece =
          dims.substr(start, x == std::string::npos ? std::string::npos : x - start);
      const auto v = parse_int(piece, 1, INT_MAX);
      if (!v) {
        fail("dimension \"" + piece + "\" is not an integer in [1, " + std::to_string(INT_MAX) +
             "]");
      }
      product *= *v;
      if (product > INT_MAX) {
        fail("node count overflows the int node-id space (max " + std::to_string(INT_MAX) + ")");
      }
      out.push_back(static_cast<int>(*v));
      if (x == std::string::npos) break;
      start = x + 1;
    }
    if (static_cast<int>(out.size()) != expected) {
      fail("got " + std::to_string(out.size()) + " dimension(s), need " +
           std::to_string(expected));
    }
    return out;
  };

  if (kind == "torus") {
    auto d = parse_xyz(3, "torus:NXxNYxNZ");
    return std::make_unique<Torus3D>(d[0], d[1], d[2]);
  }
  if (kind == "mesh") {
    auto d = parse_xyz(3, "mesh:NXxNYxNZ");
    return std::make_unique<Torus3D>(d[0], d[1], d[2], /*wrap=*/false);
  }
  if (kind == "fattree") {
    auto d = parse_xyz(2, "fattree:RADIXxLEAVES");
    return std::make_unique<FatTree>(d[0], d[1]);
  }
  if (kind == "star") {
    auto d = parse_xyz(1, "star:NODES");
    return std::make_unique<Star>(d[0]);
  }
  if (kind == "dragonfly") {
    auto d = parse_xyz(3, "dragonfly:GROUPSxROUTERSxNODES");
    return std::make_unique<Dragonfly>(d[0], d[1], d[2]);
  }
  throw std::invalid_argument("unknown topology kind: " + kind +
                              " (see --list-topologies for the supported fabrics)");
}

}  // namespace exasim
