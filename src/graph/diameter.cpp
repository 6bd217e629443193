#include "graph/diameter.hpp"

#include <algorithm>
#include <numeric>

#include "graph/shortest_paths.hpp"
#include "util/assert.hpp"

namespace hybrid {

u64 diameter_of_rows(
    u32 n, const std::function<void(u32, std::vector<u64>&)>& fill_row,
    bool require_connected) {
  u64 best = 0;
  std::vector<u64> row;
  for (u32 u = 0; u < n; ++u) {
    fill_row(u, row);
    for (u64 d : row) {
      if (d >= kInfDist) {
        HYB_REQUIRE(!require_connected, "diameter requires a connected graph");
        continue;
      }
      best = std::max(best, d);
    }
  }
  return best;
}

u32 hop_diameter(const graph& g) {
  u32 best = 0;
  for (u32 v = 0; v < g.num_nodes(); ++v) {
    for (u32 h : bfs_hops(g, v)) {
      HYB_REQUIRE(h != ~u32{0}, "hop_diameter requires a connected graph");
      best = std::max(best, h);
    }
  }
  return best;
}

u64 weighted_diameter(const graph& g) {
  return diameter_of_rows(
      g.num_nodes(), [&](u32 u, std::vector<u64>& row) { row = dijkstra(g, u); },
      /*require_connected=*/true);
}

u32 shortest_path_diameter(const graph& g) {
  // The minimum hop count among shortest paths from each source: relax the
  // shortest-path DAG of its Dijkstra in order of distance. Weights are at
  // least 1, so every DAG predecessor of v is strictly closer than v and
  // its count is final when v's turn comes.
  const u32 n = g.num_nodes();
  u32 best = 0;
  std::vector<u32> order(n);
  std::vector<u32> hops(n);
  for (u32 s = 0; s < n; ++s) {
    const std::vector<u64> dist = dijkstra(g, s);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](u32 a, u32 b) { return dist[a] < dist[b]; });
    hops.assign(n, ~u32{0});
    hops[s] = 0;
    for (u32 v : order) {
      HYB_REQUIRE(dist[v] != kInfDist, "requires a connected graph");
      best = std::max(best, hops[v]);
      for (const edge& e : g.neighbors(v))
        if (dist[v] + e.weight == dist[e.to])
          hops[e.to] = std::min(hops[e.to], hops[v] + 1);
    }
  }
  return best;
}

}  // namespace hybrid
