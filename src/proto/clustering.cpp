#include "proto/clustering.hpp"

#include <algorithm>
#include <tuple>

#include "proto/aggregation.hpp"
#include "proto/flood.hpp"
#include "proto/flood_kernel.hpp"
#include "util/assert.hpp"

namespace hybrid {

cluster_decomposition compute_clusters(hybrid_net& net,
                                       const ruling_set_result& rs) {
  const u32 n = net.n();
  cluster_decomposition cd;
  cd.rulers = rs.rulers;
  cd.beta = rs.beta;
  cd.cluster_of.assign(n, ~u32{0});
  cd.hops_to_ruler.assign(n, ~u32{0});
  cd.members.resize(rs.rulers.size());

  const auto heard = hop_discovery(net, rs.rulers, rs.beta,
                                   /*early_exit=*/true);
  for (u32 v = 0; v < n; ++v) {
    u32 best_cluster = ~u32{0};
    u32 best_hop = ~u32{0};
    for (const discovered_seed& d : heard[v]) {
      const u32 c = d.seed;
      // hop_discovery reports ascending hop; ties resolve to the smaller
      // ruler ID because rulers are sorted and we compare explicitly.
      if (d.hop < best_hop ||
          (d.hop == best_hop && rs.rulers[c] < rs.rulers[best_cluster])) {
        best_hop = d.hop;
        best_cluster = c;
      }
    }
    HYB_INVARIANT(best_cluster != ~u32{0},
                  "ruling set domination radius violated: node saw no ruler");
    cd.cluster_of[v] = best_cluster;
    cd.hops_to_ruler[v] = best_hop;
    cd.members[best_cluster].push_back(v);
    cd.max_radius = std::max(cd.max_radius, best_hop);
  }
  // Make max_radius common knowledge (one max-aggregation, Lemma B.2).
  const u64 agg =
      global_aggregate(net, agg_op::max,
                       std::vector<u64>(cd.hops_to_ruler.begin(),
                                        cd.hops_to_ruler.end()));
  HYB_INVARIANT(agg == cd.max_radius, "radius aggregation mismatch");
  return cd;
}

std::vector<std::vector<item128>> cluster_flood(
    hybrid_net& net, const cluster_decomposition& cd,
    std::vector<std::vector<item128>> initial, u32 rounds) {
  const u32 n = net.n();
  HYB_REQUIRE(initial.size() == n, "initial items must cover every node");
  HYB_REQUIRE(cd.cluster_of.size() == n, "clustering must cover every node");

  // Set-up: give each cluster's distinct initial items dense local indices
  // (one sort of (cluster, item) keys; equal items of one cluster share an
  // index). Items never leave their cluster, so a node's seen-set is a
  // bitset over its own cluster's items and the round loop below touches
  // no hash table. table[base[c] + i] is item i of cluster c.
  const u32 clusters = static_cast<u32>(cd.members.size());
  struct keyed {
    u32 cluster;
    u32 pos;  // position in the concatenation of initial[0..n)
    item128 item;
  };
  std::vector<keyed> keys;
  for (u32 v = 0; v < n; ++v) {
    HYB_REQUIRE(cd.cluster_of[v] < clusters, "node outside every cluster");
    for (const item128& it : initial[v])
      keys.push_back({cd.cluster_of[v], static_cast<u32>(keys.size()), it});
  }
  std::sort(keys.begin(), keys.end(), [](const keyed& x, const keyed& y) {
    return std::tie(x.cluster, x.item.a, x.item.b) <
           std::tie(y.cluster, y.item.a, y.item.b);
  });
  std::vector<u32> base(clusters + 1, 0);
  std::vector<item128> table;
  std::vector<u32> index_at(keys.size());
  for (u32 k = 0; k < keys.size(); ++k) {
    const keyed& x = keys[k];
    if (k == 0 || x.cluster != keys[k - 1].cluster ||
        x.item != keys[k - 1].item) {
      table.push_back(x.item);
      ++base[x.cluster + 1];
    }
    index_at[x.pos] = base[x.cluster + 1] - 1;
  }
  for (u32 c = 0; c < clusters; ++c) base[c + 1] += base[c];

  // known[v] grows in arrival order. Each node's seen-set is a bitset over
  // its own cluster's items, and v pulls only from same-cluster neighbours.
  std::vector<std::vector<item128>> known(n);
  const auto learn = [&](u32 v, u32 i, u32) {
    known[v].push_back(table[base[cd.cluster_of[v]] + i]);
  };
  flood::state st(n, flood::seen_bits(n, [&](u32 v) {
                    const u32 c = cd.cluster_of[v];
                    return u64{base[c + 1] - base[c]};
                  }));
  for (u32 v = 0, pos = 0; v < n; ++v)
    for (const u32 end = pos + static_cast<u32>(initial[v].size()); pos < end;
         ++pos)
      if (st.seed(v, index_at[pos])) learn(v, index_at[pos], 0);
  // Saturating early pays one aggregation to detect it.
  flood::run(
      net.executor(), net.g(), st, rounds, /*early_exit=*/true,
      [&](u32 v, u32 u) { return cd.cluster_of[u] == cd.cluster_of[v]; },
      flood::unit_cost{}, learn, flood::net_hook{net});
  return known;
}

}  // namespace hybrid
