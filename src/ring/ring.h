// Weighted consistent-hash placement ring (DESIGN.md "Elastic membership &
// rebalancing").
//
// Subfile placement was frozen round-robin at create time, so the cluster
// could not grow, shrink or drain a node without downtime. The ring makes
// placement a pure function of the *membership*: each member node projects
// `vnodes * weight` virtual points onto a 64-bit circle, a subfile key is
// hashed onto the same circle, and its replicas are the first k distinct
// nodes found walking clockwise. Two properties carry the whole elastic-
// membership design:
//
//   determinism   every point and every lookup is a seeded splitmix64 mix —
//                 two rings built with the same seed, members and weights
//                 agree byte-for-byte on every placement, across runs and
//                 across machines (no std::hash, no iteration-order input);
//   minimality    adding one node of weight w steals ~w/W of the circle
//                 (W = total weight) and leaves every other arc untouched,
//                 so a membership change remaps only the keys whose walk
//                 crossed a stolen arc — the structural counterpart of the
//                 INTERSECT-minimal transfer plans the rebalancer emits.
//
// The ring is a value type with no locking: Clusterfile mutates it under
// its own membership mutex and hands out copies/derived placements.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

namespace pfm {

class PlacementRing {
 public:
  struct Options {
    /// Virtual points per unit of weight. More vnodes → smoother arcs and
    /// closer-to-proportional ownership, at O(members * vnodes) rebuild
    /// cost. Clusterfile uses this default.
    int vnodes = 64;
    /// Seed mixed into every point and key hash; placements are a pure
    /// function of (seed, membership, weights).
    std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  };

  // Two overloads instead of `Options opts = {}`: GCC rejects a braced
  // default argument of a nested class with default member initializers.
  PlacementRing();
  explicit PlacementRing(Options opts);

  /// Adds a member with `weight` >= 1 (throws std::invalid_argument on a
  /// duplicate node or a non-positive weight).
  void add_node(int node, int weight = 1);
  /// Removes a member (throws std::invalid_argument when absent). Every
  /// other node's points are untouched — the minimal-disruption property.
  void remove_node(int node);

  bool contains(int node) const { return weights_.count(node) > 0; }
  /// Member node ids, ascending.
  std::vector<int> nodes() const;
  std::size_t size() const { return weights_.size(); }
  std::size_t point_count() const { return points_.size(); }
  const Options& options() const { return opts_; }

  /// The first `count` distinct member nodes clockwise from hash(key),
  /// primary first. count must be in [1, size()].
  std::vector<int> replicas_for(std::uint64_t key, int count) const;
  /// replicas_for(key, 1)[0].
  int node_for(std::uint64_t key) const;

  /// The seeded 64-bit mix used for both point and key positions; exposed
  /// so tests can reason about the circle directly.
  static std::uint64_t mix(std::uint64_t seed, std::uint64_t x);

 private:
  struct Point {
    std::uint64_t pos = 0;
    int node = 0;
    bool operator<(const Point& o) const {
      // Position ties (astronomically rare) break by node id so the walk
      // order — and therefore every placement — is deterministic.
      return pos != o.pos ? pos < o.pos : node < o.node;
    }
  };

  void rebuild();

  Options opts_;
  std::map<int, int> weights_;  ///< node -> weight, ordered for determinism
  std::vector<Point> points_;   ///< sorted by (pos, node)
};

}  // namespace pfm
