// Distributed IP-routing demo: APSP with next-hop tables (paper Section 1:
// "learning the topology of the local network … can be used for efficient
// IP-routing").
//
// After one run of Theorem 1.1's APSP (plus one local round of
// distance-vector exchange), every node owns a routing table. The demo then
// forwards sample packets hop by hop — each step consults only the current
// node's table — and verifies the realized path length equals the exact
// distance.
//
//   ./examples/routing_tables [n] [seed]
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/apsp.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hybrid;
  const u32 n = argc > 1 ? static_cast<u32>(std::atoi(argv[1])) : 200;
  const u64 seed = argc > 2 ? static_cast<u64>(std::atoll(argv[2])) : 9;

  std::cout << "Routing-table demo (Theorem 1.1 + one distance-vector "
               "round)\n";
  const graph g = gen::random_geometric(n, 7.0, 9, seed);
  const apsp_result res =
      hybrid_apsp_exact(g, model_config{}, seed, /*build_routes=*/true);
  std::cout << "network: n = " << n << ", m = " << g.num_edges()
            << "; tables built in " << res.metrics.rounds
            << " simulated rounds\n\n";

  // Forward a packet from src toward dst; each step consults only the
  // current node's table (labels.next_hop). `on_hop` sees every node
  // reached. Returns the node the walk ends at and the weight it realized.
  const auto forward = [&](u32 src, u32 dst, auto&& on_hop) {
    u64 weight = 0;
    u32 cur = src;
    for (u32 hops = 0; cur != dst && hops < n; ++hops) {
      const u32 nh = res.labels.next_hop(cur, dst);
      if (nh == ~u32{0}) break;
      for (const edge& e : g.neighbors(cur))
        if (e.to == nh) {
          weight += e.weight;
          break;
        }
      cur = nh;
      on_hop(cur);
    }
    return std::pair<u32, u64>{cur, weight};
  };

  rng r(derive_seed(seed, 4));
  table t({"packet", "path", "weight", "exact d(u,v)"});
  u32 ok = 0, total = 0;
  for (u32 q = 0; q < 5; ++q) {
    const u32 src = static_cast<u32>(r.next_below(n));
    const u32 dst = static_cast<u32>(r.next_below(n));
    std::string path = std::to_string(src);
    const auto [end, weight] = forward(src, dst, [&](u32 cur) {
      if (path.size() < 48) path += "->" + std::to_string(cur);
    });
    if (path.size() >= 48) path += "->...";
    ++total;
    const u64 d = res.labels.query(src, dst);
    if (end == dst && weight == d) ++ok;
    t.add_row({std::to_string(src) + " => " + std::to_string(dst), path,
               table::integer(static_cast<long long>(weight)),
               table::integer(static_cast<long long>(d))});
  }
  t.print();

  // Exhaustive verification over all pairs.
  u64 mismatches = 0;
  for (u32 u = 0; u < n; ++u) {
    const std::vector<u64> row = res.labels.row(u);
    for (u32 v = 0; v < n; ++v) {
      const auto [end, weight] = forward(u, v, [](u32) {});
      if (end != v || weight != row[v]) ++mismatches;
    }
  }
  std::cout << "\nexhaustive check: " << (static_cast<u64>(n) * n - mismatches)
            << " / " << static_cast<u64>(n) * n
            << " routed paths realize the exact distance\n";
  return (ok == total && mismatches == 0) ? 0 : 1;
}
