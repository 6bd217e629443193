#include "proto/clustering.hpp"

#include <algorithm>
#include <functional>
#include <tuple>

#include "proto/aggregation.hpp"
#include "proto/flood.hpp"
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
  const graph& g = net.g();
  const u32 n = g.num_nodes();
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
  std::vector<u64> seen_at(n + 1, 0);  // node v's bitset words start here
  for (u32 v = 0; v < n; ++v) {
    const u32 c = cd.cluster_of[v];
    seen_at[v + 1] = seen_at[v] + ceil_div(base[c + 1] - base[c], 64);
  }
  std::vector<u64> seen(seen_at[n], 0);
  const auto learn = [](u64* bits, u32 i) {
    u64& word = bits[i >> 6];
    const u64 bit = u64{1} << (i & 63);
    if (word & bit) return false;
    word |= bit;
    return true;
  };

  // known[v] grows in arrival order; frontier[v] holds the local indices v
  // first learned last round. frontier/next are double-buffered and
  // cleared in place, so the loop allocates only when a buffer outgrows
  // its high-water mark.
  std::vector<std::vector<item128>> known(n);
  std::vector<std::vector<u32>> frontier(n);
  std::vector<std::vector<u32>> next(n);
  u32 pos = 0;
  for (u32 v = 0; v < n; ++v)
    for (const item128& it : initial[v]) {
      const u32 i = index_at[pos++];
      if (learn(seen.data() + seen_at[v], i)) {
        known[v].push_back(it);
        frontier[v].push_back(i);
      }
    }
  // Pull from same-cluster neighbors in sorted adjacency order — the
  // arrival order of the sequential push loop (docs/CONCURRENCY.md §3).
  // Both callbacks are wrapped once, so no round builds a std::function.
  const std::function<u64(u32)> pull = [&](u32 v) -> u64 {
    next[v].clear();
    const u32 c = cd.cluster_of[v];
    u64* const bits = seen.data() + seen_at[v];
    const item128* const items = table.data() + base[c];
    u64 mine = 0;
    for (const edge& e : g.neighbors(v)) {
      if (cd.cluster_of[e.to] != c) continue;
      const std::vector<u32>& from = frontier[e.to];
      mine += from.size();
      for (const u32 i : from)
        if (learn(bits, i)) {
          known[v].push_back(items[i]);
          next[v].push_back(i);
        }
    }
    return mine;
  };
  const std::function<bool(u32)> active = [&](u32 v) {
    return !frontier[v].empty();
  };
  round_executor& exec = net.executor();
  for (u32 r = 0; r < rounds; ++r) {
    const u64 items = exec.sum_nodes(n, pull);
    net.charge_local(items);
    net.note_local_delivered(items);
    net.advance_round();
    frontier.swap(next);
    if (!exec.any_node(n, active)) {
      // Saturated early: detecting that globally costs one aggregation.
      if (r + 1 < rounds)
        for (u32 extra = aggregation_rounds(n); extra > 0; --extra)
          net.advance_round();
      break;
    }
  }
  return known;
}

}  // namespace hybrid
