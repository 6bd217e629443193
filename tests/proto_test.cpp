// Tests for the LOCAL/NCC protocol substrates: flooding primitives, ruling
// sets (Lemma 2.1), clustering, aggregation (Lemma B.2), and token
// dissemination (Lemma B.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <unordered_set>

#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "proto/aggregation.hpp"
#include "proto/clustering.hpp"
#include "proto/dissemination.hpp"
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

// ---- flood primitives -------------------------------------------------------

TEST(HopDiscovery, MatchesBfsWithinRadius) {
  const graph g = gen::grid(8, 8);
  hybrid_net net(g, cfg(), 1);
  const std::vector<u32> seeds = {0, 63};
  const auto known = hop_discovery(net, seeds, 5);
  const auto h0 = bfs_hops(g, 0);
  const auto h1 = bfs_hops(g, 63);
  for (u32 v = 0; v < g.num_nodes(); ++v) {
    std::set<std::pair<u32, u32>> got;
    for (const discovered_seed& d : known[v]) got.insert({d.seed, d.hop});
    if (h0[v] <= 5) {
      EXPECT_TRUE(got.count({0, h0[v]})) << v;
    } else {
      EXPECT_FALSE(got.count({0, h0[v]})) << v;
    }
    if (h1[v] <= 5) {
      EXPECT_TRUE(got.count({1, h1[v]})) << v;
    }
  }
  EXPECT_EQ(net.round(), 5u);  // fixed budget elapses fully
}

TEST(HopDiscovery, EarlyExitStillChargesBudget) {
  const graph g = gen::path(4);
  hybrid_net net(g, cfg(), 1);
  hop_discovery(net, {0}, 50);  // graph exhausted after 3 rounds
  EXPECT_EQ(net.round(), 50u);
  EXPECT_EQ(net.raw_metrics().local_items, 6u);  // 1 + 2 + 2 + 1 crossings
}

TEST(HopDiscovery, EarlyExitPaysOneAggregation) {
  // Round 4 is the first silent one; the early exit then pays the
  // detection aggregation instead of the 46 silent rounds. Pins rounds and
  // items across the reused frontier buffers at every thread count.
  const graph g = gen::path(4);
  for (u32 threads : {1u, 2u, 8u}) {
    sim_options o;
    o.threads = threads;
    hybrid_net net(g, cfg(), 1, o);
    const auto known = hop_discovery(net, {0}, 50, /*early_exit=*/true);
    for (u32 v = 0; v < 4; ++v) {
      ASSERT_EQ(known[v].size(), 1u);
      EXPECT_EQ(known[v][0].hop, v);
    }
    EXPECT_EQ(net.round(), 4u + aggregation_rounds(4)) << threads;
    EXPECT_EQ(net.raw_metrics().local_items, 6u) << threads;
  }
}

TEST(LimitedBellmanFord, MatchesReference) {
  const graph g = gen::erdos_renyi_connected(80, 5.0, 7, 3);
  hybrid_net net(g, cfg(), 1);
  const std::vector<u32> sources = {0, 17, 42};
  const u32 h = 4;
  const auto got = limited_bellman_ford(net, sources, h);
  for (u32 i = 0; i < sources.size(); ++i) {
    const auto ref = limited_distance(g, sources[i], h);
    for (u32 v = 0; v < g.num_nodes(); ++v) {
      u64 mine = kInfDist;
      for (const source_distance& sd : got[v])
        if (sd.source == i) mine = sd.dist;
      EXPECT_EQ(mine, ref[v]) << "source " << i << " node " << v;
    }
  }
}

TEST(LimitedBellmanFord, ParallelModeChargesNoRounds) {
  const graph g = gen::path(32);
  hybrid_net net(g, cfg(), 1);
  limited_bellman_ford(net, {0}, 10, /*advance_rounds=*/false);
  EXPECT_EQ(net.round(), 0u);
  EXPECT_GT(net.raw_metrics().local_items, 0u);
}

TEST(FullLocalExploration, MatchesLimitedDistanceAllPairs) {
  const graph g = gen::erdos_renyi_connected(48, 4.0, 5, 9);
  hybrid_net net(g, cfg(), 1);
  const u32 h = 3;
  const sparse_exploration_result got = dense_local_exploration(net, h, true);
  for (u32 u = 0; u < 48; u += 7) {
    const auto ref = limited_distance(g, u, h);
    EXPECT_EQ(row_of(got, u, 48), ref) << "row " << u;
  }
}

TEST(TableFlood, ReachesExactlyTheRadius) {
  const graph g = gen::path(20);
  hybrid_net net(g, cfg(), 1);
  const auto holds = table_flood(net, {0, 19}, {100, 100}, 4);
  for (u32 v = 0; v < 20; ++v) {
    const bool has0 =
        std::find(holds[v].begin(), holds[v].end(), 0u) != holds[v].end();
    const bool has1 =
        std::find(holds[v].begin(), holds[v].end(), 1u) != holds[v].end();
    EXPECT_EQ(has0, v <= 4) << v;
    EXPECT_EQ(has1, v >= 15) << v;
  }
  // Traffic: each table crossing an edge charges its word size.
  EXPECT_GE(net.raw_metrics().local_items, 2u * 4 * 100);
}

TEST(TruncatedEccentricity, PathValues) {
  const graph g = gen::path(11);
  hybrid_net net(g, cfg(), 1);
  const auto ecc = truncated_eccentricity(net, 100);
  EXPECT_EQ(ecc[0], 10u);
  EXPECT_EQ(ecc[5], 5u);
  EXPECT_EQ(ecc[10], 10u);
}

TEST(TruncatedEccentricity, TruncationCaps) {
  const graph g = gen::path(11);
  hybrid_net net(g, cfg(), 1);
  const auto ecc = truncated_eccentricity(net, 3);
  EXPECT_EQ(ecc[0], 3u);
  EXPECT_EQ(ecc[5], 3u);
}

// ---- ruling set (Lemma 2.1) -------------------------------------------------

class RulingSetProperty : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(RulingSetProperty, IndependenceAndDomination) {
  const auto [graph_kind, mu] = GetParam();
  graph g;
  switch (graph_kind) {
    case 0: g = gen::path(200, 1, 5); break;
    case 1: g = gen::grid(14, 14); break;
    case 2: g = gen::erdos_renyi_connected(200, 5.0, 1, 5); break;
    default: g = gen::balanced_tree(200, 3); break;
  }
  hybrid_net net(g, cfg(), 77);
  const ruling_set_result rs =
      compute_ruling_set(net, static_cast<u32>(mu));
  ASSERT_FALSE(rs.rulers.empty());
  EXPECT_EQ(rs.alpha, 2u * mu + 1);

  // Independence: pairwise hop distance ≥ α.
  for (u32 r : rs.rulers) {
    const auto hops = bfs_hops(g, r);
    for (u32 r2 : rs.rulers) {
      if (r2 != r) {
        EXPECT_GE(hops[r2], rs.alpha) << r << " vs " << r2;
      }
    }
  }
  // Domination: every node within β hops of some ruler.
  std::vector<u32> best(g.num_nodes(), ~u32{0});
  for (u32 r : rs.rulers) {
    const auto hops = bfs_hops(g, r);
    for (u32 v = 0; v < g.num_nodes(); ++v)
      best[v] = std::min(best[v], hops[v]);
  }
  for (u32 v = 0; v < g.num_nodes(); ++v)
    EXPECT_LE(best[v], rs.beta) << "node " << v;
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, RulingSetProperty,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(1, 2, 4)));

TEST(RulingSet, RoundCostScalesWithMu) {
  const graph g = gen::path(256);
  u64 rounds_mu2, rounds_mu8;
  {
    hybrid_net net(g, cfg(), 1);
    compute_ruling_set(net, 2);
    rounds_mu2 = net.round();
  }
  {
    hybrid_net net(g, cfg(), 1);
    compute_ruling_set(net, 8);
    rounds_mu8 = net.round();
  }
  EXPECT_EQ(rounds_mu8, 4 * rounds_mu2);  // 2µ rounds per ID level
}

// ---- clustering -------------------------------------------------------------

TEST(Clustering, PartitionCoversAndRespectsRadius) {
  const graph g = gen::grid(16, 16);
  hybrid_net net(g, cfg(), 5);
  const ruling_set_result rs = compute_ruling_set(net, 3);
  const cluster_decomposition cd = compute_clusters(net, rs);
  u32 covered = 0;
  for (u32 c = 0; c < cd.members.size(); ++c) covered += cd.members[c].size();
  EXPECT_EQ(covered, g.num_nodes());
  for (u32 v = 0; v < g.num_nodes(); ++v) {
    ASSERT_NE(cd.cluster_of[v], ~u32{0});
    EXPECT_LE(cd.hops_to_ruler[v], cd.beta);
    // The ruler of v's cluster is indeed a closest ruler.
    const auto hops = bfs_hops(g, v);
    u32 closest = ~u32{0};
    for (u32 r : rs.rulers) closest = std::min(closest, hops[r]);
    EXPECT_EQ(hops[cd.rulers[cd.cluster_of[v]]], closest) << v;
  }
}

TEST(Clustering, ClustersAreConnected) {
  // Voronoi cells under (hop, ruler-ID) tie-breaking must induce connected
  // subgraphs — required for intra-cluster flooding.
  const graph g = gen::erdos_renyi_connected(300, 4.0, 1, 13);
  hybrid_net net(g, cfg(), 13);
  const ruling_set_result rs = compute_ruling_set(net, 2);
  const cluster_decomposition cd = compute_clusters(net, rs);
  for (u32 c = 0; c < cd.members.size(); ++c) {
    if (cd.members[c].empty()) continue;
    std::set<u32> cluster(cd.members[c].begin(), cd.members[c].end());
    std::set<u32> seen;
    std::vector<u32> stack = {cd.members[c][0]};
    seen.insert(cd.members[c][0]);
    while (!stack.empty()) {
      const u32 v = stack.back();
      stack.pop_back();
      for (const edge& e : g.neighbors(v))
        if (cluster.count(e.to) && !seen.count(e.to)) {
          seen.insert(e.to);
          stack.push_back(e.to);
        }
    }
    EXPECT_EQ(seen.size(), cluster.size()) << "cluster " << c;
  }
}

TEST(ClusterFlood, StaysInsideCluster) {
  const graph g = gen::path(40);
  hybrid_net net(g, cfg(), 3);
  const ruling_set_result rs = compute_ruling_set(net, 2);
  const cluster_decomposition cd = compute_clusters(net, rs);
  ASSERT_GE(cd.members.size(), 2u) << "path should split into clusters";
  std::vector<std::vector<item128>> init(g.num_nodes());
  const u32 origin = cd.members[0][0];
  init[origin].push_back({123, 456});
  const auto heard = cluster_flood(net, cd, std::move(init), 2 * cd.beta + 1);
  for (u32 v = 0; v < g.num_nodes(); ++v) {
    const bool got = !heard[v].empty();
    if (cd.cluster_of[v] == cd.cluster_of[origin])
      EXPECT_TRUE(got) << v;  // full cluster reached within 2β+1 rounds
    else
      EXPECT_FALSE(got) << v;
  }
}

// Differential reference: the sequential push loop (one unordered_set per
// node, fresh next buffers every round) that cluster_flood's parallel pull
// kernel replaced. The pull kernel must reproduce it exactly — heard order
// drives compute_helpers' per-node join draws.
struct item128_hash {
  std::size_t operator()(const item128& x) const {
    u64 h = x.a * 0x9e3779b97f4a7c15ULL ^ (x.b + 0x517cc1b727220a95ULL);
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

std::vector<std::vector<item128>> push_cluster_flood(
    hybrid_net& net, const cluster_decomposition& cd,
    std::vector<std::vector<item128>> initial, u32 rounds) {
  const graph& g = net.g();
  const u32 n = g.num_nodes();
  std::vector<std::unordered_set<item128, item128_hash>> seen(n);
  std::vector<std::vector<item128>> known(n);
  std::vector<std::vector<item128>> frontier(n);
  for (u32 v = 0; v < n; ++v)
    for (const item128& it : initial[v])
      if (seen[v].insert(it).second) {
        known[v].push_back(it);
        frontier[v].push_back(it);
      }
  for (u32 r = 0; r < rounds; ++r) {
    std::vector<std::vector<item128>> next(n);
    u64 items = 0;
    bool any = false;
    for (u32 v = 0; v < n; ++v) {
      if (frontier[v].empty()) continue;
      for (const edge& e : g.neighbors(v)) {
        if (cd.cluster_of[e.to] != cd.cluster_of[v]) continue;
        items += frontier[v].size();
        for (const item128& it : frontier[v])
          if (seen[e.to].insert(it).second) {
            known[e.to].push_back(it);
            next[e.to].push_back(it);
            any = true;
          }
      }
    }
    net.charge_local(items);
    net.note_local_delivered(items);
    net.advance_round();
    frontier = std::move(next);
    if (!any) {
      for (u32 extra = aggregation_rounds(n); extra > 0 && r + 1 < rounds;
           --extra)
        net.advance_round();
      break;
    }
  }
  return known;
}

struct cluster_flood_run {
  std::vector<std::vector<item128>> heard;
  u64 rounds = 0;
  u64 local_items = 0;
  u64 local_delivered = 0;
};

/// Every node owns {v, 0}; v % 3 == 1 holds it twice (duplicate on one
/// node); v % 7 == 0 holds nothing; the first two members of every cluster
/// both hold a per-cluster item (duplicate across two nodes of a cluster).
std::vector<std::vector<item128>> mixed_items(const cluster_decomposition& cd) {
  const u32 n = static_cast<u32>(cd.cluster_of.size());
  std::vector<std::vector<item128>> init(n);
  for (u32 v = 0; v < n; ++v) {
    if (v % 7 == 0) continue;
    init[v].push_back({v, 0});
    if (v % 3 == 1) init[v].push_back({v, 0});
  }
  for (u32 c = 0; c < cd.members.size(); ++c)
    for (u32 k = 0; k < std::min<std::size_t>(2, cd.members[c].size()); ++k)
      init[cd.members[c][k]].push_back({1000 + c, 7});
  return init;
}

/// Builds the (deterministic) clustering on a fresh net, then measures one
/// flood of mixed_items — the reference push loop or the library's pull
/// kernel.
template <typename Flood>
cluster_flood_run run_cluster_flood(
    const graph& g, u32 mu, u32 threads,
    const std::function<u32(const cluster_decomposition&)>& budget,
    Flood flood) {
  sim_options o;
  o.threads = threads;
  hybrid_net net(g, cfg(), 21, o);
  const cluster_decomposition cd =
      compute_clusters(net, compute_ruling_set(net, mu));
  const u64 r0 = net.round();
  const run_metrics m0 = net.raw_metrics();
  cluster_flood_run out;
  out.heard = flood(net, cd, mixed_items(cd), budget(cd));
  out.rounds = net.round() - r0;
  out.local_items = net.raw_metrics().local_items - m0.local_items;
  out.local_delivered =
      net.raw_metrics().local_delivered - m0.local_delivered;
  return out;
}

/// Asserts the pull kernel equals the push reference at threads {1, 2, 8}.
/// Returns the reference run for scenario-specific checks.
cluster_flood_run expect_flood_matches_push(
    const graph& g, u32 mu,
    const std::function<u32(const cluster_decomposition&)>& budget) {
  const cluster_flood_run ref =
      run_cluster_flood(g, mu, 1, budget, push_cluster_flood);
  for (u32 threads : {1u, 2u, 8u}) {
    const cluster_flood_run got =
        run_cluster_flood(g, mu, threads, budget, cluster_flood);
    EXPECT_EQ(got.heard.size(), ref.heard.size());
    for (u32 v = 0; v < ref.heard.size() && v < got.heard.size(); ++v)
      EXPECT_EQ(got.heard[v], ref.heard[v]) << "node " << v
                                            << " threads " << threads;
    EXPECT_EQ(got.rounds, ref.rounds) << "threads " << threads;
    EXPECT_EQ(got.local_items, ref.local_items) << "threads " << threads;
    EXPECT_EQ(got.local_delivered, ref.local_delivered)
        << "threads " << threads;
  }
  return ref;
}

u32 full_budget(const cluster_decomposition& cd) { return cd.flood_budget(); }

graph two_components() {
  // A 30-cycle and a 5x5 grid, no edge between them.
  const graph a = gen::cycle(30);
  const graph b = gen::grid(5, 5);
  std::vector<edge_spec> edges;
  for (const graph* part : {&a, &b}) {
    const u32 shift = part == &a ? 0 : a.num_nodes();
    for (u32 v = 0; v < part->num_nodes(); ++v)
      for (const edge& e : part->neighbors(v))
        if (v < e.to) edges.push_back({v + shift, e.to + shift, e.weight});
  }
  return graph::from_edges(a.num_nodes() + b.num_nodes(), edges);
}

TEST(ClusterFlood, MatchesPushReferenceOnEr) {
  const graph g = gen::erdos_renyi_connected(300, 4.0, 1, 13);
  const cluster_flood_run ref = expect_flood_matches_push(g, 2, full_budget);
  EXPECT_GT(ref.local_items, 0u);
}

TEST(ClusterFlood, MatchesPushReferenceOnGrid) {
  expect_flood_matches_push(gen::grid(12, 12), 3, full_budget);
}

TEST(ClusterFlood, MatchesPushReferenceOnPath) {
  expect_flood_matches_push(gen::path(60), 2, full_budget);
}

TEST(ClusterFlood, MatchesPushReferenceOnDisconnectedGraph) {
  expect_flood_matches_push(two_components(), 2, full_budget);
}

TEST(ClusterFlood, MatchesPushReferenceWhenTruncated) {
  // One round is shorter than the clusters' diameters: the truncated flood
  // must leave some node short of the full-budget result.
  const graph g = gen::grid(12, 12);
  const cluster_flood_run ref =
      expect_flood_matches_push(g, 3, [](const cluster_decomposition&) {
        return 1u;
      });
  EXPECT_EQ(ref.rounds, 1u);
  const cluster_flood_run full =
      run_cluster_flood(g, 3, 1, full_budget, cluster_flood);
  EXPECT_NE(ref.heard, full.heard);
}

TEST(ClusterFlood, MatchesPushReferenceWithZeroRounds) {
  const cluster_flood_run ref = expect_flood_matches_push(
      gen::path(60), 2, [](const cluster_decomposition&) { return 0u; });
  EXPECT_EQ(ref.rounds, 0u);
  EXPECT_EQ(ref.local_items, 0u);
}

TEST(ClusterFlood, MatchesPushReferenceOnEarlyExitPadding) {
  // A budget far past saturation takes the early exit: the silent rounds
  // are replaced by one detection aggregation.
  const u32 extra = 200;
  const graph g = gen::grid(12, 12);
  const cluster_flood_run ref = expect_flood_matches_push(
      g, 3, [&](const cluster_decomposition& cd) {
        return cd.flood_budget() + extra;
      });
  EXPECT_LT(ref.rounds, extra);
  ASSERT_GT(ref.rounds, aggregation_rounds(g.num_nodes()));
  // A budget whose last round is the first silent one exits without the
  // aggregation: nothing is left to save.
  const u32 silent = static_cast<u32>(ref.rounds) -
                     aggregation_rounds(g.num_nodes());
  const cluster_flood_run exact = expect_flood_matches_push(
      g, 3, [&](const cluster_decomposition&) { return silent; });
  EXPECT_EQ(exact.rounds, silent);
}

// ---- aggregation (Lemma B.2) ------------------------------------------------

class AggregationProperty : public ::testing::TestWithParam<int> {};

TEST_P(AggregationProperty, AllOpsAllSizes) {
  const u32 n = static_cast<u32>(GetParam());
  const graph g = gen::path(n);
  hybrid_net net(g, cfg(), 9);
  std::vector<u64> vals(n);
  rng r(n);
  u64 mx = 0, mn = ~u64{0}, sum = 0;
  for (u32 v = 0; v < n; ++v) {
    vals[v] = r.next_below(1000);
    mx = std::max(mx, vals[v]);
    mn = std::min(mn, vals[v]);
    sum += vals[v];
  }
  EXPECT_EQ(global_aggregate(net, agg_op::max, vals), mx);
  EXPECT_EQ(global_aggregate(net, agg_op::min, vals), mn);
  EXPECT_EQ(global_aggregate(net, agg_op::sum, vals), sum);
  EXPECT_EQ(global_aggregate(net, agg_op::logical_and, vals),
            mn > 0 ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AggregationProperty,
                         ::testing::Values(2, 3, 7, 64, 100, 257));

TEST(Aggregation, LogarithmicRounds) {
  const graph g = gen::path(1024);
  hybrid_net net(g, cfg(), 2);
  std::vector<u64> vals(1024, 1);
  global_aggregate(net, agg_op::max, vals);
  EXPECT_LE(net.round(), 2u * 11 + 2);  // 2·depth + slack (Lemma B.2)
}

TEST(Aggregation, StaysWithinSendCap) {
  const graph g = gen::path(300);
  hybrid_net net(g, cfg(), 2);
  global_aggregate(net, agg_op::sum, std::vector<u64>(300, 7));
  EXPECT_LE(net.raw_metrics().max_global_recv_per_round, 3u);
}

// ---- token dissemination (Lemma B.1) ---------------------------------------

class DisseminationProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DisseminationProperty, EveryNodeLearnsEverything) {
  const auto [kind, tokens_total] = GetParam();
  graph g;
  switch (kind) {
    case 0: g = gen::erdos_renyi_connected(128, 5.0, 1, 21); break;
    case 1: g = gen::grid(12, 11); break;
    default: g = gen::path(128); break;
  }
  hybrid_net net(g, cfg(), 31);
  rng r(55);
  std::vector<std::vector<token2>> initial(g.num_nodes());
  for (int t = 0; t < tokens_total; ++t) {
    const u32 owner = static_cast<u32>(r.next_below(g.num_nodes()));
    initial[owner].push_back(
        {static_cast<u64>(t) << 8, static_cast<u64>(0xBEEF + t)});
  }
  const dissemination_result res = disseminate(net, initial);
  EXPECT_EQ(res.tokens.size(), static_cast<std::size_t>(tokens_total));
  // Spot-check token content survived.
  std::set<u64> payloads;
  for (const token2& t : res.tokens) payloads.insert(t.b);
  for (int t = 0; t < tokens_total; ++t)
    EXPECT_TRUE(payloads.count(0xBEEF + t));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DisseminationProperty,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1, 32, 256)));

TEST(Dissemination, EmptyInstanceCostsOnlyCountAggregation) {
  const graph g = gen::path(64);
  hybrid_net net(g, cfg(), 1);
  const auto res = disseminate(net, std::vector<std::vector<token2>>(64));
  EXPECT_TRUE(res.tokens.empty());
  EXPECT_LE(net.round(), 16u);
}

TEST(Dissemination, ReceiveLoadStaysLogarithmic) {
  const graph g = gen::erdos_renyi_connected(256, 5.0, 1, 3);
  hybrid_net net(g, cfg(), 8);
  std::vector<std::vector<token2>> initial(256);
  rng r(4);
  for (int t = 0; t < 300; ++t)
    initial[r.next_below(256)].push_back({static_cast<u64>(t), 1});
  disseminate(net, initial);
  // Lemma D.2-style bound: a small multiple of γ = 4·log2(n).
  EXPECT_LE(net.raw_metrics().max_global_recv_per_round,
            4 * net.global_cap());
}

TEST(Dissemination, SqrtKScaling) {
  // Rounds should grow far slower than k (≈ √k up to polylogs).
  const graph g = gen::erdos_renyi_connected(128, 5.0, 1, 17);
  std::vector<u64> rounds;
  for (u32 k : {64u, 1024u}) {
    hybrid_net net(g, cfg(), 19);
    rng r(6);
    std::vector<std::vector<token2>> initial(128);
    for (u32 t = 0; t < k; ++t)
      initial[r.next_below(128)].push_back({t, t});
    disseminate(net, initial);
    rounds.push_back(net.round());
  }
  // k grew 16×; Õ(√k) predicts ≈ 4×; require well under linear.
  EXPECT_LT(rounds[1], rounds[0] * 8);
}

}  // namespace
}  // namespace hybrid
