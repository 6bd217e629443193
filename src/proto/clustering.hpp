// Cluster decomposition around a ruling set (Algorithm 1's middle section).
//
// Every node joins the cluster of its closest ruler (ties broken toward the
// smaller ruler ID). With that tie-breaking the clusters are connected
// subgraphs (standard Voronoi-cell argument), every member is within β hops
// of its ruler, and intra-cluster distances are ≤ 2β — so all per-cluster
// communication (member discovery, helper announcements, token hand-offs)
// can flood inside the cluster only, which is what cluster_flood provides.
#pragma once

#include <vector>

#include "proto/ruling_set.hpp"
#include "sim/hybrid_net.hpp"

namespace hybrid {

struct cluster_decomposition {
  std::vector<u32> rulers;            ///< cluster c has ruler rulers[c]
  std::vector<u32> cluster_of;        ///< per node: cluster index
  std::vector<u32> hops_to_ruler;     ///< per node
  std::vector<std::vector<u32>> members;  ///< per cluster, sorted node IDs
  u32 beta = 0;                       ///< domination radius guarantee
  /// Largest observed hops_to_ruler, made globally known by one charged
  /// max-aggregation at construction. Intra-cluster floods are sized by
  /// this (2·max_radius+1 rounds reach the whole cluster) instead of the
  /// worst-case β, which matters enormously on low-diameter graphs.
  u32 max_radius = 0;

  u32 flood_budget() const { return 2 * max_radius + 1; }
};

/// Build clusters from a ruling set: rulers flood for rs.beta rounds, every
/// node picks the (hop, ruler-ID)-minimal ruler it heard.
cluster_decomposition compute_clusters(hybrid_net& net,
                                       const ruling_set_result& rs);

/// 128-bit opaque item for intra-cluster flooding.
struct item128 {
  u64 a = 0;
  u64 b = 0;
  friend bool operator==(const item128&, const item128&) = default;
};

/// Flood items within clusters for `rounds` rounds (items never cross
/// cluster boundaries). Returns everything each node has heard, own items
/// included, deduplicated in arrival order. 2β+1 rounds reach the whole
/// cluster. Runs the seen-set flood kernel (proto/flood_kernel.hpp) over
/// per-cluster item indices, pulling from same-cluster neighbours only;
/// under local-plane faults it draws no drops (docs/FAULTS.md §3).
std::vector<std::vector<item128>> cluster_flood(
    hybrid_net& net, const cluster_decomposition& cd,
    std::vector<std::vector<item128>> initial, u32 rounds);

}  // namespace hybrid
