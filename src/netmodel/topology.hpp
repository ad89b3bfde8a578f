#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace exasim {

/// Integer coordinates in a 3-D grid topology.
struct Coord3 {
  int x = 0, y = 0, z = 0;
  friend bool operator==(const Coord3&, const Coord3&) = default;
};

/// Stable identifier of one physical link of a topology. Ids are dense per
/// link class (see each topology's encoding) and always < link_count(); a
/// link's id never depends on which route traverses it, so per-link state
/// (failure timeouts, occupancy windows) can live in flat tables.
using LinkId = std::uint64_t;

/// Abstract interconnect topology over `node_count()` compute nodes.
///
/// The primary abstraction is the *route*: `route(src, dst)` names the
/// sequence of links a message traverses under minimal routing (dimension-
/// ordered for tori/meshes, up-down for fat trees, local-global-local for
/// dragonflies). `hop_count()` is derived from it — concrete topologies
/// override it with the equivalent closed form as a fast path, pinned equal
/// to `route().size()` by tests. Topologies with several equal-cost minimal
/// routes expose them as numbered variants (`route_count`), which
/// route_variant spreads flows over.
class Topology {
 public:
  virtual ~Topology() = default;

  virtual int node_count() const = 0;

  /// Number of links traversed from src to dst under minimal routing.
  /// hop_count(a, a) == 0 for all a. Default: the canonical route's length;
  /// overrides must agree with it exactly.
  virtual int hop_count(int src, int dst) const;

  /// Largest hop count over all pairs (the network diameter).
  virtual int diameter() const = 0;

  virtual std::string name() const = 0;

  // -- Link/route layer ----------------------------------------------------

  /// Size of the link-id space: every id a route can emit is < link_count().
  /// Ids are dense per link class but not every id is necessarily in use
  /// (e.g. a grid dimension of size 1 has no links in that dimension).
  virtual std::uint64_t link_count() const = 0;

  /// Number of equal-cost minimal route variants between src and dst (>= 1).
  virtual std::uint64_t route_count(int src, int dst) const {
    (void)src;
    (void)dst;
    return 1;
  }

  /// Appends the links of one minimal route from src to dst to `out`, in
  /// traversal order. `variant` (taken modulo route_count(src, dst)) selects
  /// among the equal-cost minimal routes; variant 0 is the canonical
  /// deterministic route. The route from a node to itself is empty. Must be
  /// a pure function of its arguments — a network model may be shared by
  /// simulations on different threads.
  virtual void route_into(int src, int dst, std::uint64_t variant,
                          std::vector<LinkId>& out) const = 0;

  /// Convenience wrapper around route_into (canonical route by default).
  std::vector<LinkId> route(int src, int dst, std::uint64_t variant = 0) const;

  /// Plane (link class) of a link, for per-plane timeout overrides:
  /// grid dimension for torus/mesh (0 = x, 1 = y, 2 = z), 0 = terminal /
  /// 1 = spine for fattree, 0 = terminal / 1 = intra-group / 2 = global for
  /// dragonfly, 0 for star. -1 = unclassified.
  virtual int link_plane(LinkId link) const {
    (void)link;
    return -1;
  }
};

/// k x l x m torus with wrap-around links and dimension-ordered routing —
/// the paper's simulated system is a 32x32x32 3-D wrapped torus (§V-C) — or,
/// with `wrap` false, the k x l x m mesh without them.
///
/// Link encoding: id = node * 3 + dim is the link from `node` to its
/// +dim-direction neighbor (the torus's wrap included); a -dim step
/// traverses the neighbor's +dim link. Equal-cost variants are the 6
/// dimension orders.
class Torus3D final : public Topology {
 public:
  Torus3D(int nx, int ny, int nz, bool wrap = true);

  int node_count() const override { return nx_ * ny_ * nz_; }
  int hop_count(int src, int dst) const override;
  int diameter() const override;
  std::string name() const override;

  std::uint64_t link_count() const override {
    return 3ull * static_cast<std::uint64_t>(node_count());
  }
  std::uint64_t route_count(int src, int dst) const override;
  void route_into(int src, int dst, std::uint64_t variant,
                  std::vector<LinkId>& out) const override;
  int link_plane(LinkId link) const override { return static_cast<int>(link % 3); }

  Coord3 coord_of(int node) const;
  int node_of(Coord3 c) const;  ///< coordinates taken modulo the dimensions.

  /// The six face neighbors (x±1, y±1, z±1) of a node, in deterministic
  /// order (-x, +x, -y, +y, -z, +z) — the halo-exchange partner set, with
  /// the torus's wrap-around.
  std::array<int, 6> face_neighbors(int node) const;

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int nz() const { return nz_; }

 private:
  /// Hops between two coordinates along one dimension of size n.
  int axis_distance(int from, int to, int n) const;

  int nx_, ny_, nz_;
  bool wrap_;
};

/// Two-level k-ary fat tree: `radix` nodes per leaf switch, leaf switches
/// connected through `radix` spine switches (full bisection: as many up
/// links per leaf as down links). Same-switch pairs are 2 hops (up, down);
/// cross-switch pairs are 4 hops (up, up, down, down) with `radix`
/// equal-cost spine choices.
///
/// Link encoding: id = node for the node<->leaf terminal link;
/// id = node_count() + leaf * radix + spine for the leaf<->spine link.
class FatTree final : public Topology {
 public:
  FatTree(int radix, int leaf_switches);

  int node_count() const override { return radix_ * leaves_; }
  int hop_count(int src, int dst) const override;
  int diameter() const override;
  std::string name() const override;

  std::uint64_t link_count() const override {
    return static_cast<std::uint64_t>(node_count()) +
           static_cast<std::uint64_t>(leaves_) * static_cast<std::uint64_t>(radix_);
  }
  std::uint64_t route_count(int src, int dst) const override;
  void route_into(int src, int dst, std::uint64_t variant,
                  std::vector<LinkId>& out) const override;
  int link_plane(LinkId link) const override {
    return link < static_cast<std::uint64_t>(node_count()) ? 0 : 1;
  }

  int spine_count() const { return radix_; }

 private:
  int radix_, leaves_;
};

/// Dragonfly (simplified canonical form): `groups` groups of `routers_per_group`
/// routers, `nodes_per_router` nodes each. Minimal routing: up to the local
/// router (1 hop), across the group to the gateway router (1 hop), one global
/// link (1 hop), across the destination group (1 hop), down (1 hop). All-to-all
/// global links between groups are assumed, and the canonical 5-hop path is
/// charged for every inter-group pair — when the source router is itself the
/// gateway the "local" hop is its internal crossbar crossing, which carries
/// its own link id. Equal-cost variants are the `routers_per_group` gateway
/// choices.
///
/// Link encoding (N = node_count(), R = routers_per_group, G = groups):
///   id = node                                  node<->router terminal link
///   id = N + g*R*R + min(a,b)*R + max(a,b)     intra-group link a<->b in g
///   id = N + G*R*R + min(gs,gd)*G + max(gs,gd) global link between groups
class Dragonfly final : public Topology {
 public:
  Dragonfly(int groups, int routers_per_group, int nodes_per_router);

  int node_count() const override { return groups_ * routers_ * nodes_; }
  int hop_count(int src, int dst) const override;
  int diameter() const override;
  std::string name() const override;

  std::uint64_t link_count() const override;
  std::uint64_t route_count(int src, int dst) const override;
  void route_into(int src, int dst, std::uint64_t variant,
                  std::vector<LinkId>& out) const override;
  int link_plane(LinkId link) const override;

  int group_of(int node) const { return node / (routers_ * nodes_); }
  int router_of(int node) const { return node / nodes_; }  ///< Global router id.

 private:
  LinkId local_link(int group, int a, int b) const;

  int groups_, routers_, nodes_;
};

/// Star: every pair communicates through one central switch (2 hops).
/// Link encoding: id = node for the node<->hub link.
class Star final : public Topology {
 public:
  explicit Star(int nodes);

  int node_count() const override { return nodes_; }
  int hop_count(int src, int dst) const override { return src == dst ? 0 : 2; }
  int diameter() const override { return nodes_ > 1 ? 2 : 0; }
  std::string name() const override;

  std::uint64_t link_count() const override { return static_cast<std::uint64_t>(nodes_); }
  void route_into(int src, int dst, std::uint64_t variant,
                  std::vector<LinkId>& out) const override;
  int link_plane(LinkId link) const override {
    (void)link;
    return 0;
  }

 private:
  int nodes_;
};

/// One row of `exasim_run --list-topologies`.
struct TopologyInfo {
  std::string name;     ///< Kind keyword ("torus", ...).
  std::string format;   ///< Spec format ("torus:NXxNYxNZ", ...).
  std::string summary;  ///< One-line description.
};
const std::vector<TopologyInfo>& list_topologies();

/// Factory helper: "torus:32x32x32", "mesh:8x8x8", "fattree:16x8",
/// "dragonfly:4x4x4", "star:64". Throws std::invalid_argument with an
/// actionable message on malformed specs: unknown kinds, wrong dimension
/// counts, non-numeric/zero/negative dimensions, trailing garbage, and
/// node counts that overflow the int node-id space.
std::unique_ptr<Topology> make_topology(const std::string& spec);

}  // namespace exasim
