// Tests for the graph substrate: construction, generators, reference
// shortest paths / diameters, and the lower-bound constructions' ground
// truth (Lemmas 7.1 and 7.2 verified combinatorially).
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/diameter.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/shortest_paths.hpp"
#include "lb/gamma_graph.hpp"
#include "lb/kssp_lb_graph.hpp"

namespace hybrid {
namespace {

TEST(Graph, BuildAndNeighbors) {
  const std::vector<edge_spec> es = {{0, 1, 3}, {1, 2, 1}, {0, 2, 10}};
  const graph g = graph::from_edges(3, es);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.max_weight(), 10u);
  EXPECT_FALSE(g.is_unweighted());
  EXPECT_TRUE(g.is_connected());
}

TEST(Graph, ParallelEdgesKeepLightest) {
  const std::vector<edge_spec> es = {{0, 1, 5}, {1, 0, 2}};
  const graph g = graph::from_edges(2, es);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.neighbors(0)[0].weight, 2u);
}

TEST(Graph, RejectsBadEdges) {
  EXPECT_THROW(graph::from_edges(2, std::vector<edge_spec>{{0, 0, 1}}),
               std::invalid_argument);
  EXPECT_THROW(graph::from_edges(2, std::vector<edge_spec>{{0, 5, 1}}),
               std::invalid_argument);
  EXPECT_THROW(graph::from_edges(2, std::vector<edge_spec>{{0, 1, 0}}),
               std::invalid_argument);
}

TEST(Graph, WeightBoundKeepsPathSumsBelowInfinity) {
  // Accept exactly the weights with (n-1)·w < kInfDist/8.
  for (const u32 n : {2u, 3u, 1000u}) {
    const u64 w = max_edge_weight(n);
    EXPECT_LT(u64{n - 1} * w, kInfDist / 8) << n;
    EXPECT_GE(u64{n - 1} * (w + 1), kInfDist / 8) << n;
    const graph g = graph::from_edges(n, std::vector<edge_spec>{{0, 1, w}});
    EXPECT_EQ(g.max_weight(), w) << n;
    EXPECT_THROW(
        graph::from_edges(n, std::vector<edge_spec>{{0, 1, w + 1}}),
        std::invalid_argument)
        << n;
  }
  // A heavy parallel edge is rejected even when a lighter one exists.
  EXPECT_THROW(graph::from_edges(2, std::vector<edge_spec>{{0, 1, 1},
                                                           {1, 0, kInfDist}}),
               std::invalid_argument);
}

TEST(Graph, DisconnectedDetected) {
  const graph g = graph::from_edges(4, std::vector<edge_spec>{{0, 1, 1}, {2, 3, 1}});
  EXPECT_FALSE(g.is_connected());
}

TEST(Generators, PathCycleGridTree) {
  EXPECT_EQ(gen::path(10).num_edges(), 9u);
  EXPECT_EQ(gen::cycle(10).num_edges(), 10u);
  const graph grid = gen::grid(4, 5);
  EXPECT_EQ(grid.num_nodes(), 20u);
  EXPECT_EQ(grid.num_edges(), 4u * 4 + 5u * 3);
  EXPECT_TRUE(grid.is_connected());
  const graph tree = gen::balanced_tree(31, 2);
  EXPECT_EQ(tree.num_edges(), 30u);
  EXPECT_TRUE(tree.is_connected());
}

TEST(Generators, ErdosRenyiConnectedAndSized) {
  for (u64 seed : {1u, 2u, 3u}) {
    const graph g = gen::erdos_renyi_connected(200, 6.0, 8, seed);
    EXPECT_TRUE(g.is_connected());
    EXPECT_GE(g.num_edges(), 199u);
    EXPECT_LE(g.max_weight(), 8u);
  }
}

TEST(Generators, RandomGeometricConnected) {
  const graph g = gen::random_geometric(300, 8.0, 1, 7);
  EXPECT_TRUE(g.is_connected());
  EXPECT_TRUE(g.is_unweighted());
}

TEST(Generators, PreferentialAttachment) {
  const graph g = gen::preferential_attachment(300, 3, 1, 11);
  EXPECT_EQ(g.num_nodes(), 300u);
  EXPECT_TRUE(g.is_connected());
  // Scale-free skew: the max degree should far exceed the average.
  u32 max_deg = 0;
  u64 total_deg = 0;
  for (u32 v = 0; v < 300; ++v) {
    max_deg = std::max(max_deg, g.degree(v));
    total_deg += g.degree(v);
  }
  EXPECT_GE(max_deg, 4 * total_deg / 300);
}

TEST(Generators, PreferentialAttachmentWeighted) {
  const graph g = gen::preferential_attachment(100, 2, 9, 7);
  EXPECT_TRUE(g.is_connected());
  EXPECT_LE(g.max_weight(), 9u);
  EXPECT_GE(g.max_weight(), 2u);
}

TEST(Generators, BoundedDegreeRespectsCap) {
  for (u32 cap : {2u, 3u, 6u}) {
    const graph g = gen::bounded_degree(500, cap, 1, 19);
    EXPECT_EQ(g.num_nodes(), 500u);
    EXPECT_TRUE(g.is_connected());
    u64 total_deg = 0;
    for (u32 v = 0; v < 500; ++v) {
      EXPECT_LE(g.degree(v), cap);
      total_deg += g.degree(v);
    }
    // The extra-edge phase should use up most of the capacity — well
    // beyond the spanning tree's 2(n-1) = 998, which it provides by
    // construction. (With these seeds it saturates cap·n exactly.)
    EXPECT_GE(total_deg, u64{9} * cap * 500 / 10);
  }
}

TEST(Generators, BoundedDegreeWeightedAndDeterministic) {
  const graph g1 = gen::bounded_degree(200, 4, 9, 23);
  const graph g2 = gen::bounded_degree(200, 4, 9, 23);
  EXPECT_EQ(g1.num_edges(), g2.num_edges());
  EXPECT_LE(g1.max_weight(), 9u);
  for (u32 v = 0; v < 200; ++v) {
    const auto n1 = g1.neighbors(v);
    const auto n2 = g2.neighbors(v);
    ASSERT_EQ(n1.size(), n2.size());
    for (u32 i = 0; i < n1.size(); ++i) {
      EXPECT_EQ(n1[i].to, n2[i].to);
      EXPECT_EQ(n1[i].weight, n2[i].weight);
    }
  }
}

TEST(Generators, Barbell) {
  const graph g = gen::barbell(5, 10);
  EXPECT_EQ(g.num_nodes(), 20u);
  EXPECT_TRUE(g.is_connected());
  // clique hop + bridge of path_len+1 edges + clique hop
  EXPECT_EQ(hop_diameter(g), 13u);
}

TEST(ShortestPaths, DijkstraOnKnownGraph) {
  //    0 --1-- 1 --1-- 2
  //     \------5------/
  const graph g = graph::from_edges(
      3, std::vector<edge_spec>{{0, 1, 1}, {1, 2, 1}, {0, 2, 5}});
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], 2u);
}

TEST(ShortestPaths, BfsHops) {
  const graph g = gen::path(6);
  const auto h = bfs_hops(g, 0);
  for (u32 v = 0; v < 6; ++v) EXPECT_EQ(h[v], v);
}

TEST(ShortestPaths, LimitedDistanceRespectsHopBudget) {
  // Direct heavy edge vs. long light path: d_h must use ≤ h hops.
  const graph g = graph::from_edges(
      5, std::vector<edge_spec>{
             {0, 4, 10}, {0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}});
  EXPECT_EQ(limited_distance(g, 0, 1)[4], 10u);
  EXPECT_EQ(limited_distance(g, 0, 3)[4], 10u);
  EXPECT_EQ(limited_distance(g, 0, 4)[4], 4u);
  EXPECT_EQ(limited_distance(g, 0, 100)[4], 4u);
}

TEST(ShortestPaths, LimitedDistanceUnreachableIsInf) {
  const graph g = gen::path(10);
  EXPECT_EQ(limited_distance(g, 0, 3)[9], kInfDist);
}

TEST(ShortestPaths, ApspMatchesDijkstraRows) {
  const graph g = gen::erdos_renyi_connected(60, 4.0, 9, 11);
  const auto all = apsp_reference(g);
  for (u32 v : {0u, 13u, 59u}) {
    const auto row = dijkstra(g, v);
    EXPECT_EQ(all[v], row);
  }
  // Symmetry on undirected graphs.
  for (u32 u = 0; u < 60; u += 7)
    for (u32 v = 0; v < 60; v += 5) EXPECT_EQ(all[u][v], all[v][u]);
}

TEST(Diameter, PathAndGrid) {
  EXPECT_EQ(hop_diameter(gen::path(17)), 16u);
  EXPECT_EQ(hop_diameter(gen::grid(4, 7)), 3u + 6u);
  EXPECT_EQ(weighted_diameter(gen::path(5)), 4u);
}

TEST(Diameter, WeightedVsHop) {
  // Heavy direct edge forces weighted distance along more hops.
  const graph g = graph::from_edges(
      3, std::vector<edge_spec>{{0, 1, 1}, {1, 2, 1}, {0, 2, 100}});
  EXPECT_EQ(hop_diameter(g), 1u);
  EXPECT_EQ(weighted_diameter(g), 2u);
}

TEST(Diameter, ShortestPathDiameter) {
  // SPD counts hops of weighted shortest paths: the light path wins, so the
  // SPD is larger than the hop diameter.
  const graph g = graph::from_edges(
      5, std::vector<edge_spec>{
             {0, 4, 100}, {0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}});
  EXPECT_EQ(hop_diameter(g), 2u);
  EXPECT_EQ(shortest_path_diameter(g), 4u);
}

TEST(Diameter, ShortestPathDiameterMatchesHopLimitedDefinition) {
  // SPD = max over pairs of the least h with d_h(s, v) = d(s, v).
  for (u64 seed : {3u, 4u, 5u}) {
    const graph g = gen::erdos_renyi_connected(40, 3.0, 7, seed);
    const u32 n = g.num_nodes();
    u32 want = 0;
    for (u32 s = 0; s < n; ++s) {
      const std::vector<u64> dist = dijkstra(g, s);
      std::vector<u32> least(n, ~u32{0});
      for (u32 h = 0; h < n; ++h) {
        const std::vector<u64> lim = limited_distance(g, s, h);
        for (u32 v = 0; v < n; ++v)
          if (least[v] == ~u32{0} && lim[v] == dist[v]) least[v] = h;
      }
      want = std::max(want, *std::max_element(least.begin(), least.end()));
    }
    EXPECT_EQ(shortest_path_diameter(g), want) << "seed " << seed;
  }
}

// ---- Figure 2: Γ^{a,b} and Lemmas 7.1 / 7.2 -------------------------------

lb::gamma_graph make_gamma(u32 k, u32 ell, u64 w, bool make_disjoint,
                           u64 seed) {
  rng r(seed);
  std::vector<u8> a(k * k, 0), b(k * k, 0);
  for (u32 i = 0; i < k * k; ++i) {
    a[i] = r.next_bool(0.5);
    b[i] = a[i] ? 0 : r.next_bool(0.5);  // start disjoint
  }
  if (!make_disjoint) {
    const u32 i = static_cast<u32>(r.next_below(k * k));
    a[i] = b[i] = 1;  // plant exactly one intersection
  }
  return lb::build_gamma({k, ell, w}, a, b);
}

TEST(GammaGraph, StructureAndSize) {
  const auto gg = make_gamma(4, 5, 20, true, 1);
  // 4 cliques of k + 2 hubs + (2k+1) paths with ell−1 internal nodes.
  EXPECT_EQ(gg.g.num_nodes(), 4u * 4 + 2 + (2u * 4 + 1) * (5 - 1));
  EXPECT_TRUE(gg.g.is_connected());
  EXPECT_EQ(gg.column[gg.v_hat], 0u);
  EXPECT_EQ(gg.column[gg.u_hat], 5u);
}

TEST(GammaGraph, Lemma71WeightedDisjoint) {
  for (u64 seed : {1u, 2u, 3u, 4u}) {
    const auto gg = make_gamma(4, 4, 16, true, seed);
    ASSERT_GT(gg.params.w, gg.params.ell);  // Lemma 7.1 requires W > ℓ
    EXPECT_LE(weighted_diameter(gg.g), gg.low_diameter()) << "seed " << seed;
  }
}

TEST(GammaGraph, Lemma71WeightedIntersecting) {
  for (u64 seed : {1u, 2u, 3u, 4u}) {
    const auto gg = make_gamma(4, 4, 16, false, seed);
    EXPECT_GE(weighted_diameter(gg.g), gg.high_diameter()) << "seed " << seed;
  }
}

TEST(GammaGraph, Lemma72UnweightedGap) {
  for (u64 seed : {5u, 6u, 7u}) {
    const auto dis = make_gamma(4, 6, 1, true, seed);
    const auto inter = make_gamma(4, 6, 1, false, seed);
    EXPECT_EQ(hop_diameter(dis.g), dis.params.ell + 1) << "seed " << seed;
    EXPECT_EQ(hop_diameter(inter.g), inter.params.ell + 2) << "seed " << seed;
  }
}

TEST(GammaGraph, CutSplitsColumns) {
  const auto gg = make_gamma(3, 6, 1, true, 9);
  const auto cut = gg.alice_bob_cut();
  EXPECT_EQ(cut[gg.v_hat], 0);
  EXPECT_EQ(cut[gg.u_hat], 1);
  for (u32 i = 0; i < 3; ++i) {
    EXPECT_EQ(cut[gg.v1[i]], 0);
    EXPECT_EQ(cut[gg.u2[i]], 1);
  }
}

TEST(GammaGraph, RejectsMalformedInput) {
  EXPECT_THROW(lb::build_gamma({2, 4, 8}, std::vector<u8>(3, 0),
                               std::vector<u8>(4, 0)),
               std::invalid_argument);
}

// ---- Figure 1: the k-SSP lower-bound graph --------------------------------

TEST(KsspLbGraph, DistancesMatchConstruction) {
  rng r(3);
  const auto lbg = lb::build_kssp_lb({100, 16, 8}, r);
  EXPECT_TRUE(lbg.g.is_connected());
  const auto d = dijkstra(lbg.g, lbg.b);
  u32 s1 = 0, s2 = 0;
  for (u32 i = 0; i < lbg.sources.size(); ++i) {
    if (lbg.in_s1[i]) {
      EXPECT_EQ(d[lbg.sources[i]], lbg.dist_b_s1());
      ++s1;
    } else {
      EXPECT_EQ(d[lbg.sources[i]], lbg.dist_b_s2());
      ++s2;
    }
  }
  EXPECT_EQ(s1, s2);  // random half/half split
  EXPECT_GT(lbg.alpha_prime(), 1.0);
}

TEST(KsspLbGraph, AlphaPrimeGrowsWithPathLength) {
  rng r(4);
  const auto small = lb::build_kssp_lb({64, 16, 8}, r);
  const auto big = lb::build_kssp_lb({512, 16, 8}, r);
  EXPECT_GT(big.alpha_prime(), small.alpha_prime());
}

TEST(KsspLbGraph, CutSeparatesBFromSources) {
  rng r(5);
  const auto lbg = lb::build_kssp_lb({50, 8, 4}, r);
  const auto cut = lbg.path_cut();
  EXPECT_EQ(cut[lbg.b], 0);
  for (u32 s : lbg.sources) EXPECT_EQ(cut[s], 1);
}

}  // namespace
}  // namespace hybrid
