// Deeper tests of the LOCAL-mode primitives: hop-accurate propagation,
// weighted relaxation semantics, round accounting of the early-exit and
// parallel-composition modes, and traffic charging.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "proto/aggregation.hpp"
#include "proto/clustering.hpp"
#include "proto/flood.hpp"
#include "proto/ruling_set.hpp"
#include "proto/sparse_exploration.hpp"

namespace hybrid {
namespace {

model_config cfg() { return model_config{}; }

/// Node u's exploration triples widened to an n-wide distance row
/// (kInfDist outside u's h-ball).
std::vector<u64> row_of(const sparse_exploration_result& r, u32 u, u32 n) {
  std::vector<u64> row(n, kInfDist);
  for (const exploration_entry& e : r.reached(u)) row[e.source] = e.dist;
  return row;
}

TEST(HopDiscovery, OneHopPerRoundStrictly) {
  // A value must not travel two hops in one round regardless of node order:
  // the regression that motivated the value-carrying frontier.
  const graph g = gen::path(6);
  hybrid_net net(g, cfg(), 1);
  const auto known = hop_discovery(net, {0}, 2);
  for (u32 v = 0; v < 6; ++v) {
    const bool reached = !known[v].empty();
    EXPECT_EQ(reached, v <= 2) << v;
  }
}

TEST(HopDiscovery, DescendingIdsSameResult) {
  // Propagation must be independent of node iteration order; build a path
  // with ids reversed relative to adjacency.
  std::vector<edge_spec> edges;
  for (u32 i = 0; i + 1 < 6; ++i) edges.push_back({5 - i, 5 - (i + 1), 1});
  const graph g = graph::from_edges(6, edges);
  hybrid_net net(g, cfg(), 1);
  const auto known = hop_discovery(net, {5}, 2);  // 5 is a path endpoint
  u32 reached = 0;
  for (u32 v = 0; v < 6; ++v) reached += !known[v].empty();
  EXPECT_EQ(reached, 3u);  // self + 2 hops
}

TEST(HopDiscovery, EarlyExitChargesAggregation) {
  const graph g = gen::path(8);  // last new node at round 7, detected at 8
  hybrid_net net(g, cfg(), 1);
  hop_discovery(net, {0}, 1000, /*early_exit=*/true);
  EXPECT_LE(net.round(), 8u + aggregation_rounds(8));
  EXPECT_GE(net.round(), 7u);
}

TEST(HopDiscovery, MultipleSeedsSameNode) {
  const graph g = gen::path(5);
  hybrid_net net(g, cfg(), 1);
  const auto known = hop_discovery(net, {2, 2}, 1);  // duplicated seed
  // Both seed indices must be discoverable independently.
  u32 count_at_2 = 0;
  for (const discovered_seed& d : known[2]) {
    EXPECT_EQ(d.hop, 0u);
    ++count_at_2;
  }
  EXPECT_EQ(count_at_2, 2u);
}

TEST(LimitedBellmanFord, WeightedShortcutBeyondHopBudget) {
  // d_1(0,2) uses the heavy direct edge; d_2 uses the light 2-hop path.
  const graph g = graph::from_edges(
      3, std::vector<edge_spec>{{0, 1, 2}, {1, 2, 2}, {0, 2, 10}});
  {
    hybrid_net net(g, cfg(), 1);
    const auto got = limited_bellman_ford(net, {0}, 1);
    u64 d2 = kInfDist;
    for (const source_distance& sd : got[2]) d2 = sd.dist;
    EXPECT_EQ(d2, 10u);
  }
  {
    hybrid_net net(g, cfg(), 1);
    const auto got = limited_bellman_ford(net, {0}, 2);
    u64 d2 = kInfDist;
    for (const source_distance& sd : got[2]) d2 = sd.dist;
    EXPECT_EQ(d2, 4u);
  }
}

TEST(LimitedBellmanFord, ZeroRoundsOnlySources) {
  const graph g = gen::path(5);
  hybrid_net net(g, cfg(), 1);
  const auto got = limited_bellman_ford(net, {3}, 0);
  for (u32 v = 0; v < 5; ++v) {
    if (v == 3) {
      ASSERT_EQ(got[v].size(), 1u);
      EXPECT_EQ(got[v][0].dist, 0u);
    } else {
      EXPECT_TRUE(got[v].empty());
    }
  }
}

TEST(LimitedBellmanFord, ManySourcesMatchReference) {
  const graph g = gen::grid(9, 9, 7, 4);
  hybrid_net net(g, cfg(), 1);
  std::vector<u32> sources;
  for (u32 v = 0; v < 81; v += 8) sources.push_back(v);
  const u32 h = 6;
  const auto got = limited_bellman_ford(net, sources, h);
  for (u32 i = 0; i < sources.size(); ++i) {
    const auto ref = limited_distance(g, sources[i], h);
    for (u32 v = 0; v < 81; ++v) {
      u64 mine = kInfDist;
      for (const source_distance& sd : got[v])
        if (sd.source == i) mine = sd.dist;
      ASSERT_EQ(mine, ref[v]) << "source " << i << " node " << v;
    }
  }
}

TEST(LimitedBellmanFord, DuplicateSourceGetsIdenticalRows) {
  // Sources are indices: a node listed twice is explored once per index,
  // and both indices come back with identical (dist, via) entries.
  const graph g = gen::erdos_renyi_connected(30, 3.0, 7, 5);
  const std::vector<u32> sources = {3, 3, 5};
  const u32 h = 4;
  for (u32 threads : {1u, 2u, 8u}) {
    sim_options so;
    so.threads = threads;
    hybrid_net net(g, cfg(), 1, so);
    const auto got = limited_bellman_ford(net, sources, h);
    const auto ref = limited_distance(g, 3, h);
    for (u32 v = 0; v < 30; ++v) {
      std::vector<source_distance> first;
      std::vector<source_distance> second;
      for (const source_distance& sd : got[v]) {
        if (sd.source == 0) first.push_back(sd);
        if (sd.source == 1) second.push_back({0, sd.dist, sd.via});
      }
      EXPECT_EQ(first, second) << "node " << v << " threads " << threads;
      EXPECT_EQ(first.size(), ref[v] < kInfDist ? 1u : 0u) << v;
      if (!first.empty()) {
        EXPECT_EQ(first[0].dist, ref[v]) << v;
      }
    }
  }
}

TEST(LimitedBellmanFord, ChargesTrafficInParallelMode) {
  const graph g = gen::grid(8, 8);
  hybrid_net net(g, cfg(), 1);
  const u64 before = net.raw_metrics().local_items;
  limited_bellman_ford(net, {0}, 10, /*advance_rounds=*/false);
  EXPECT_GT(net.raw_metrics().local_items, before);
  EXPECT_EQ(net.round(), 0u);
}

TEST(FullLocalExploration, SymmetricOnUndirected) {
  const graph g = gen::erdos_renyi_connected(40, 4.0, 6, 8);
  hybrid_net net(g, cfg(), 1);
  const sparse_exploration_result got = dense_local_exploration(net, 4, true);
  for (u32 u = 0; u < 40; ++u) {
    const std::vector<u64> row_u = row_of(got, u, 40);
    for (u32 v = 0; v < 40; ++v) EXPECT_EQ(row_u[v], row_of(got, v, 40)[u]);
  }
}

TEST(FullLocalExploration, HorizonGrowsMonotonically) {
  const graph g = gen::path(20, 5, 3);
  std::vector<sparse_exploration_result> runs;
  for (u32 h : {1u, 3u, 9u}) {
    hybrid_net net(g, cfg(), 1);
    runs.push_back(dense_local_exploration(net, h, true));
  }
  for (u32 u = 0; u < 20; ++u) {
    const std::vector<u64> r0 = row_of(runs[0], u, 20);
    const std::vector<u64> r1 = row_of(runs[1], u, 20);
    const std::vector<u64> r2 = row_of(runs[2], u, 20);
    for (u32 v = 0; v < 20; ++v) {
      EXPECT_GE(r0[v], r1[v]);
      EXPECT_GE(r1[v], r2[v]);
    }
  }
}

TEST(TableFlood, ChargesWordsPerEdgeCrossing) {
  const graph g = gen::path(5);
  hybrid_net net(g, cfg(), 1);
  table_flood(net, {0}, {1000}, 2);
  // The table crosses at least 2 edges (plus re-offers to known holders).
  EXPECT_GE(net.raw_metrics().local_items, 2000u);
}

TEST(TableFlood, MultiplePublishersIndependentRadii) {
  const graph g = gen::grid(6, 6);
  hybrid_net net(g, cfg(), 1);
  const auto holds = table_flood(net, {0, 35}, {10, 10}, 3);
  const auto h0 = bfs_hops(g, 0);
  const auto h1 = bfs_hops(g, 35);
  for (u32 v = 0; v < 36; ++v) {
    const bool has0 =
        std::find(holds[v].begin(), holds[v].end(), 0u) != holds[v].end();
    const bool has1 =
        std::find(holds[v].begin(), holds[v].end(), 1u) != holds[v].end();
    EXPECT_EQ(has0, h0[v] <= 3) << v;
    EXPECT_EQ(has1, h1[v] <= 3) << v;
  }
}

TEST(TruncatedEccentricity, GridCenterVsCorner) {
  const graph g = gen::grid(7, 7);
  hybrid_net net(g, cfg(), 1);
  const auto ecc = truncated_eccentricity(net, 50);
  EXPECT_EQ(ecc[0], 12u);       // corner: 6 + 6
  EXPECT_EQ(ecc[3 * 7 + 3], 6u);  // center: 3 + 3
}

TEST(TruncatedEccentricity, RoundsChargedFully) {
  const graph g = gen::grid(4, 4);
  hybrid_net net(g, cfg(), 1);
  truncated_eccentricity(net, 9);
  EXPECT_EQ(net.round(), 9u);  // fixed budget, no early exit in Algorithm 9
}

// ---- Reliable floods pinned at their pre-kernel values ----------------------

struct flood_fingerprint {
  u64 rounds, local_items, local_delivered, digest;
  friend bool operator==(const flood_fingerprint&,
                         const flood_fingerprint&) = default;
};

// One reliable flood on a weighted ER graph (n = 96, average degree 6); the
// digest folds the returned lists in order, so learn order, hop stamps and
// duplicate handling are all pinned, not just the sets.
flood_fingerprint reliable_fingerprint(const std::string& what, u32 budget,
                                       bool early_exit, u32 threads) {
  const u32 n = 96;
  const graph g = gen::erdos_renyi_connected(n, 6.0, 9, 41);
  sim_options so;
  so.threads = threads;
  hybrid_net net(g, cfg(), 11, so);
  u64 digest = 1469598103934665603ull;
  const auto mix = [&](u64 x) {
    digest ^= x;
    digest *= 1099511628211ull;
  };
  if (what == "hop_discovery") {
    const std::vector<u32> seeds = {0, 5, 13, 21, 34, 42, 42, 60, 77, 95};
    const auto got = hop_discovery(net, seeds, budget, early_exit);
    for (u32 v = 0; v < n; ++v) {
      mix(got[v].size());
      for (const discovered_seed& d : got[v]) mix(u64{d.seed} << 32 | d.hop);
    }
  } else if (what == "table_flood") {
    const auto got = table_flood(net, {1, 9, 9, 17, 50, 88},
                                 {4, 2, 7, 1, 30, 3}, budget);
    for (u32 v = 0; v < n; ++v) {
      mix(got[v].size());
      for (const u32 i : got[v]) mix(i);
    }
  } else if (what == "truncated_eccentricity") {
    for (const u32 h : truncated_eccentricity(net, budget)) mix(h);
  } else {
    const cluster_decomposition cd =
        compute_clusters(net, compute_ruling_set(net, 1));
    // Every cluster shares items across its members (v % 5), and one node
    // lists an item twice.
    std::vector<std::vector<item128>> init(n);
    for (u32 v = 0; v < n; ++v) {
      init[v].push_back({cd.cluster_of[v], v % 5});
      init[v].push_back({u64{1} << 40 | v, 0});
    }
    init[7].push_back(init[7][0]);
    const auto got = cluster_flood(net, cd, std::move(init),
                                   budget == 0 ? cd.flood_budget() : budget);
    for (u32 v = 0; v < n; ++v) {
      mix(got[v].size());
      for (const item128& it : got[v]) {
        mix(it.a);
        mix(it.b);
      }
    }
  }
  const run_metrics& m = net.raw_metrics();
  return {m.rounds, m.local_items, m.local_delivered, digest};
}

TEST(ReliableFloods, MatchParentFingerprints) {
  // {rounds, local_items, local_delivered, digest}, recorded before the four
  // reliable flood loops became instantiations of one kernel. A cluster_flood
  // budget of 0 stands for the decomposition's flood_budget().
  struct pinned {
    const char* what;
    u32 budget;
    bool early_exit;
    flood_fingerprint want;
  };
  const pinned table[] = {
      {"hop_discovery", 3, false, {3, 2522, 2522, 0x296df5fb977a4ccbull}},
      {"hop_discovery", 3, true, {3, 2522, 2522, 0x296df5fb977a4ccbull}},
      {"hop_discovery", 50, false, {50, 5760, 5760, 0x5ed879e833c25b68ull}},
      {"hop_discovery", 50, true, {19, 5760, 5760, 0x5ed879e833c25b68ull}},
      {"table_flood", 3, false, {3, 9197, 9197, 0x5376fc52aff5f29cull}},
      {"table_flood", 50, false, {50, 27072, 27072, 0x86e84821e16d3b9full}},
      {"truncated_eccentricity", 2, false,
       {2, 4558, 4558, 0xd2e7363b38b72783ull}},
      {"truncated_eccentricity", 50, false,
       {50, 55296, 55296, 0x84aef02f95ba3acfull}},
      {"cluster_flood", 0, false, {53, 28159, 28159, 0x8373a52dc47c1cc1ull}},
      {"cluster_flood", 1, false, {47, 18571, 18571, 0x1d251823238dbc2aull}},
  };
  for (const pinned& p : table)
    for (const u32 threads : {1u, 2u, 8u}) {
      const flood_fingerprint got =
          reliable_fingerprint(p.what, p.budget, p.early_exit, threads);
      EXPECT_EQ(got, p.want)
          << p.what << " budget=" << p.budget << " early_exit=" << p.early_exit
          << " threads=" << threads << " got {" << got.rounds << ", "
          << got.local_items << ", " << got.local_delivered << ", 0x"
          << std::hex << got.digest << std::dec << "}";
    }
}

}  // namespace
}  // namespace hybrid
