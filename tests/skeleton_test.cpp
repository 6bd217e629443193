// Tests for skeleton graphs (Lemmas C.1/C.2, Algorithm 6), representatives
// (Algorithm 7), and the CLIQUE embedding (Corollary 4.1, Algorithm 8).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "clique/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "proto/clique_embed.hpp"
#include "proto/flood.hpp"
#include "proto/representatives.hpp"
#include "proto/skeleton.hpp"
#include "util/rng.hpp"

namespace hybrid {
namespace {

model_config cfg() { return model_config{}; }

class SkeletonProperty : public ::testing::TestWithParam<std::tuple<int, u64>> {
};

TEST_P(SkeletonProperty, LemmasC1C2) {
  const auto [kind, seed] = GetParam();
  graph g;
  switch (kind) {
    case 0: g = gen::erdos_renyi_connected(256, 5.0, 9, seed); break;
    case 1: g = gen::grid(16, 16, 4, seed); break;
    default: g = gen::path(256, 6, seed); break;
  }
  const u32 n = g.num_nodes();
  hybrid_net net(g, cfg(), seed);
  const double p = 1.0 / std::sqrt(static_cast<double>(n));
  const skeleton_result sk = compute_skeleton(net, p);
  ASSERT_FALSE(sk.nodes.empty());
  EXPECT_EQ(net.round(), sk.h);  // Algorithm 6 costs exactly h rounds

  // index_of consistency.
  for (u32 i = 0; i < sk.nodes.size(); ++i)
    EXPECT_EQ(sk.index_of[sk.nodes[i]], i);

  const auto ref = apsp_reference(g);

  // Lemma C.2 part 1: skeleton edges carry d_h = true distance for pairs
  // within h hops... at minimum, edge weights never underestimate.
  for (u32 i = 0; i < sk.nodes.size(); ++i)
    for (const edge& e : sk.edges.neighbors(i)) {
      EXPECT_GE(e.weight, ref[sk.nodes[i]][sk.nodes[e.to]]);
    }

  // Lemma C.2 part 2 (the load-bearing property): the skeleton graph
  // preserves exact distances between skeleton nodes w.h.p.
  const auto dist_s = skeleton_apsp(sk);
  for (u32 i = 0; i < sk.nodes.size(); ++i)
    for (u32 j = 0; j < sk.nodes.size(); ++j)
      EXPECT_EQ(dist_s[i][j], ref[sk.nodes[i]][sk.nodes[j]])
          << "skeleton pair " << i << "," << j << " kind " << kind;

  // Lemma C.1 corollary: every node has a skeleton node within h hops.
  for (u32 v = 0; v < n; ++v)
    EXPECT_FALSE(sk.near[v].empty()) << "node " << v;

  // near distances are exact h-limited distances.
  for (u32 v = 0; v < std::min(n, 40u); ++v) {
    for (const source_distance& sd : sk.near[v]) {
      const auto lim = limited_distance(g, sk.nodes[sd.source], sk.h);
      EXPECT_EQ(sd.dist, lim[v]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, SkeletonProperty,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(1u, 2u)));

TEST(Skeleton, ForcedNodesAlwaysIncluded) {
  const graph g = gen::grid(10, 10);
  hybrid_net net(g, cfg(), 3);
  const skeleton_result sk = compute_skeleton(net, 0.05, {7, 93});
  EXPECT_TRUE(sk.is_skeleton(7));
  EXPECT_TRUE(sk.is_skeleton(93));
}

TEST(Skeleton, SizeConcentratesAroundPn) {
  const graph g = gen::erdos_renyi_connected(1024, 5.0, 1, 5);
  hybrid_net net(g, cfg(), 11);
  const skeleton_result sk = compute_skeleton(net, 1.0 / 32);
  EXPECT_GE(sk.nodes.size(), 16u);   // E = 32; w.h.p. within [½, 2]·E
  EXPECT_LE(sk.nodes.size(), 64u);
}

TEST(Skeleton, ApspExecutorThreadCountsBitIdentical) {
  // The skeleton APSP runs its per-source Dijkstras over G_S on the
  // deterministic executor: rows must be bit-identical at every thread
  // count (and to the convenience sequential overload).
  const graph g = gen::erdos_renyi_connected(300, 5.0, 8, 43);
  hybrid_net net(g, cfg(), 43);
  const skeleton_result sk = compute_skeleton(net, 0.2);
  const auto ref = skeleton_apsp(sk);
  for (u32 threads : {1u, 2u, 8u}) {
    sim_options so;
    so.threads = threads;
    round_executor ex(so);
    EXPECT_EQ(skeleton_apsp(sk, ex), ref) << "threads " << threads;
  }
}

TEST(Skeleton, SparseExplorationPathMatchesDenseBellmanFord) {
  // compute_skeleton's skeleton-edge discovery is source-set exploration
  // from sk.nodes. Both row types behind run_local_exploration — dense
  // |sources|-wide rows keyed by position and ball-bounded sparse rows —
  // must give its `near` lists, triples and round/traffic charging bit for
  // bit.
  const graph g = gen::erdos_renyi_connected(220, 4.5, 8, 33);
  hybrid_net a(g, cfg(), 33);
  const skeleton_result sk = compute_skeleton(a, 0.12);
  using explore_fn = sparse_exploration_result (*)(
      hybrid_net&, u32, bool, const std::vector<u32>*, bool);
  for (const explore_fn explore :
       {&dense_local_exploration, &sparse_local_exploration}) {
    hybrid_net b(g, cfg(), 33);
    const sparse_exploration_result res =
        explore(b, sk.h, /*advance_rounds=*/true, &sk.nodes,
                /*first_hops=*/true);
    EXPECT_EQ(a.round(), b.round());
    EXPECT_EQ(a.raw_metrics().local_items, b.raw_metrics().local_items);
    for (u32 v = 0; v < g.num_nodes(); ++v) {
      const auto near = res.reached(v);
      ASSERT_EQ(sk.near[v].size(), near.size()) << "node " << v;
      for (u32 k = 0; k < near.size(); ++k) {
        const source_distance want{sk.index_of[near[k].source], near[k].dist,
                                   near[k].first_hop};
        EXPECT_EQ(sk.near[v][k], want) << v << "/" << k;
      }
    }
  }
}

// ---- explore_graph (the super-skeleton's ball builder) ----------------------

/// h-limited all-pairs reference: h rounds of synchronous relaxation, the
/// primitive's definition executed naively.
std::vector<std::vector<u64>> limited_apsp_brute(const graph& g, u32 h) {
  const u32 n = g.num_nodes();
  std::vector<std::vector<u64>> d(n, std::vector<u64>(n, kInfDist));
  for (u32 v = 0; v < n; ++v) d[v][v] = 0;
  for (u32 it = 0; it < h; ++it) {
    auto next = d;
    for (u32 v = 0; v < n; ++v)
      for (const edge& e : g.neighbors(v))
        for (u32 s = 0; s < n; ++s)
          if (d[v][s] < kInfDist)
            next[e.to][s] = std::min(next[e.to][s], d[v][s] + e.weight);
    d = next;
  }
  return d;
}

TEST(ExploreAdjacency, MatchesBruteForceAtEveryThreadCount) {
  // A random multigraph: parallel edges collapse to the lightest.
  rng r(77);
  std::vector<edge_spec> es;
  for (u32 e = 0; e < 80; ++e) {
    const u32 u = static_cast<u32>(r.next_below(40));
    const u32 v = static_cast<u32>(r.next_below(40));
    if (u == v) continue;
    es.push_back({u, v, 1 + r.next_below(9)});
  }
  const graph adj = graph::from_edges(40, es);
  const auto brute = limited_apsp_brute(adj, 3);
  sparse_exploration_result ref;
  for (u32 threads : {1u, 2u, 8u}) {
    sim_options so;
    so.threads = threads;
    round_executor ex(so);
    const sparse_exploration_result res = explore_graph(adj, 3, ex);
    // Correct AND complete vs the brute force: exactly the finite pairs.
    u64 finite = 0;
    for (u32 v = 0; v < 40; ++v) {
      for (const exploration_entry& e : res.reached(v))
        EXPECT_EQ(e.dist, brute[v][e.source]) << v << "<-" << e.source;
      for (u32 s = 0; s < 40; ++s) finite += brute[v][s] < kInfDist;
    }
    EXPECT_EQ(res.entries.size(), finite);
    if (threads == 1) {
      ref = res;
    } else {
      EXPECT_EQ(res.offsets, ref.offsets) << "threads " << threads;
      EXPECT_EQ(res.entries, ref.entries) << "threads " << threads;
    }
  }
}

TEST(ExploreAdjacency, GraphAdjacencyMatchesNetExplorations) {
  // The pure instantiation must return exactly what both net-charged
  // exploration paths return on the same graph: same triples, first hops
  // included.
  const graph g = gen::erdos_renyi_connected(60, 3.5, 9, 12);
  const u32 h = 4;
  for (u32 threads : {1u, 2u, 8u}) {
    sim_options so;
    so.threads = threads;
    round_executor ex(so);
    const sparse_exploration_result res = explore_graph(g, h, ex);
    hybrid_net sparse_net(g, cfg(), 12, so);
    EXPECT_EQ(res, sparse_local_exploration(sparse_net, h, true))
        << "threads " << threads;
    hybrid_net dense_net(g, cfg(), 12, so);
    EXPECT_EQ(res, dense_local_exploration(dense_net, h, true))
        << "threads " << threads;
  }
}

// ---- super-skeleton (the two-level hierarchy's level 2) ---------------------

TEST(SuperSkeleton, TablesMatchSkeletonGraphReferences) {
  const graph g = gen::erdos_renyi_connected(200, 5.0, 6, 13);
  hybrid_net net(g, cfg(), 13);
  const skeleton_result sk = compute_skeleton(net, 0.15);
  const u32 n_s = static_cast<u32>(sk.nodes.size());
  const u64 r0 = net.round();
  const super_skeleton_result ss = compute_super_skeleton(net, sk, 0.3, 2);
  EXPECT_GT(net.round(), r0);  // the membership announcement is charged
  const u32 n_s2 = static_cast<u32>(ss.members.size());
  ASSERT_GE(n_s2, 1u);
  ASSERT_LE(n_s2, n_s);

  // Membership bookkeeping: ascending members, consistent inverse index.
  for (u32 j = 0; j < n_s2; ++j) {
    if (j > 0) {
      EXPECT_LT(ss.members[j - 1], ss.members[j]);
    }
    EXPECT_EQ(ss.index_of[ss.members[j]], j);
  }

  // Super-pair rows are exact skeleton-graph distances between members.
  for (u32 i = 0; i < n_s2; ++i) {
    const std::vector<u64> dist = dijkstra(sk.edges, ss.members[i]);
    for (u32 j = 0; j < n_s2; ++j)
      EXPECT_EQ(ss.pairs[u64{i} * n_s2 + j], dist[ss.members[j]])
          << i << "," << j;
  }

  // ball1 holds exactly the h1-limited pairs over G_S…
  const auto brute = limited_apsp_brute(sk.edges, ss.h1);
  u64 finite = 0;
  for (u32 s1 = 0; s1 < n_s; ++s1) {
    for (u64 k = ss.ball_offsets[s1]; k < ss.ball_offsets[s1 + 1]; ++k) {
      const exploration_entry& e = ss.ball_entries[k];
      EXPECT_EQ(e.dist, brute[s1][e.source]) << s1 << "<-" << e.source;
    }
    for (u32 t1 = 0; t1 < n_s; ++t1) finite += brute[s1][t1] < kInfDist;
  }
  EXPECT_EQ(ss.ball_entries.size(), finite);

  // …and gw1 is that ball filtered to members, re-indexed to super indices.
  for (u32 s1 = 0; s1 < n_s; ++s1) {
    u64 at = ss.gw_offsets[s1];
    for (u64 k = ss.ball_offsets[s1]; k < ss.ball_offsets[s1 + 1]; ++k) {
      const exploration_entry& e = ss.ball_entries[k];
      if (ss.index_of[e.source] == super_skeleton_result::npos) continue;
      ASSERT_LT(at, ss.gw_offsets[s1 + 1]);
      EXPECT_EQ(ss.gateways[at].source, ss.index_of[e.source]);
      EXPECT_EQ(ss.gateways[at].dist, e.dist);
      ++at;
    }
    EXPECT_EQ(at, ss.gw_offsets[s1 + 1]) << "s1 " << s1;
  }
}

TEST(SkeletonHeavyWeights, AgreesWithDijkstraOnG) {
  // Every weight of G is max_edge_weight(n), so a skeleton edge spanning k
  // hops weighs k·max_edge_weight(n) — past max_edge_weight(n_s) once k
  // exceeds (n − 1)/(n_s − 1). G_S must accept those weights (they are
  // distances of G, below kInfDist/8), and every consumer of G_S must still
  // agree with Dijkstra on G between skeleton nodes.
  const u32 n = 96;
  std::vector<edge_spec> es;
  for (u32 v = 0; v + 1 < n; ++v) es.push_back({v, v + 1, max_edge_weight(n)});
  const graph g = graph::from_edges(n, es);
  hybrid_net net(g, cfg(), 5);
  const skeleton_result sk = compute_skeleton(net, 0.2);
  const u32 n_s = static_cast<u32>(sk.nodes.size());
  ASSERT_GE(n_s, 2u);
  ASSERT_GT(sk.edges.max_weight(), max_edge_weight(n_s));
  const auto ref = apsp_reference(g);

  const auto dist_s = skeleton_apsp(sk);
  for (u32 i = 0; i < n_s; ++i)
    for (u32 j = 0; j < n_s; ++j)
      EXPECT_EQ(dist_s[i][j], ref[sk.nodes[i]][sk.nodes[j]]) << i << "," << j;

  const super_skeleton_result ss = compute_super_skeleton(net, sk, 0.3, 2);
  const u32 n_s2 = static_cast<u32>(ss.members.size());
  for (u32 i = 0; i < n_s2; ++i)
    for (u32 j = 0; j < n_s2; ++j)
      EXPECT_EQ(ss.pairs[u64{i} * n_s2 + j],
                ref[sk.nodes[ss.members[i]]][sk.nodes[ss.members[j]]])
          << i << "," << j;

  clique_problem prob;
  prob.g = &sk.edges;
  prob.sources = {0};
  const auto solved = make_clique_sssp_exact().solve(prob);
  ASSERT_EQ(solved.size(), 1u);
  for (u32 j = 0; j < n_s; ++j)
    EXPECT_EQ(solved[0][j], ref[sk.nodes[0]][sk.nodes[j]]) << j;
}

// ---- representatives --------------------------------------------------------

TEST(Representatives, SkeletonSourcesRepresentThemselves) {
  const graph g = gen::grid(12, 12);
  hybrid_net net(g, cfg(), 7);
  const skeleton_result sk = compute_skeleton(net, 0.1, {17});
  const auto reps = compute_representatives(net, sk, {17});
  EXPECT_EQ(reps.rep_of[0], sk.index_of[17]);
  EXPECT_EQ(reps.dist_to_rep[0], 0u);
}

TEST(Representatives, ClosestSkeletonChosen) {
  const graph g = gen::erdos_renyi_connected(200, 5.0, 6, 13);
  hybrid_net net(g, cfg(), 13);
  const skeleton_result sk = compute_skeleton(net, 0.08);
  std::vector<u32> sources;
  for (u32 v = 0; v < 20; ++v)
    if (!sk.is_skeleton(v)) sources.push_back(v);
  ASSERT_FALSE(sources.empty());
  const auto reps = compute_representatives(net, sk, sources);
  for (u32 j = 0; j < sources.size(); ++j) {
    // The representative minimizes d_h among nearby skeletons.
    u64 best = kInfDist;
    for (const source_distance& sd : sk.near[sources[j]])
      best = std::min(best, sd.dist);
    EXPECT_EQ(reps.dist_to_rep[j], best);
    EXPECT_LT(reps.rep_of[j], sk.nodes.size());
  }
}

TEST(Representatives, DisseminationChargesRounds) {
  const graph g = gen::grid(10, 10);
  hybrid_net net(g, cfg(), 3);
  const skeleton_result sk = compute_skeleton(net, 0.1);
  const u64 before = net.round();
  compute_representatives(net, sk, {1, 2, 3});
  EXPECT_GT(net.round(), before);  // token dissemination is not free
}

// ---- CLIQUE embedding (Corollary 4.1) --------------------------------------

TEST(CliqueEmbedding, ChargesRoundsPerCliqueRound) {
  const graph g = gen::erdos_renyi_connected(256, 5.0, 1, 17);
  hybrid_net net(g, cfg(), 17);
  const double p = std::pow(256.0, -1.0 / 3.0);  // x = 2/3
  const skeleton_result sk = compute_skeleton(net, p);
  clique_embedding emb = build_clique_embedding(net, sk);
  EXPECT_GT(emb.build_rounds, 0u);

  const u64 before = net.round();
  charge_clique_rounds(net, emb, 3);
  EXPECT_EQ(emb.clique_rounds_charged, 3u);
  EXPECT_EQ(emb.hybrid_rounds_charged, net.round() - before);
  EXPECT_GT(emb.hybrid_rounds_charged, 0u);
  // Per-round cost roughly even across rounds (context reuse).
  EXPECT_LE(emb.hybrid_rounds_charged, 3 * (emb.hybrid_rounds_charged / 3) + 3);
}

TEST(CliqueEmbedding, WholeGraphSkeletonDegenerate) {
  // p = 1: every node is a clique node, helper sets are trivial (µ = 1),
  // and a clique round is a direct n²-token routing instance.
  const graph g = gen::erdos_renyi_connected(64, 5.0, 1, 29);
  hybrid_net net(g, cfg(), 29);
  const skeleton_result sk = compute_skeleton(net, 1.0);
  ASSERT_EQ(sk.nodes.size(), 64u);
  clique_embedding emb = build_clique_embedding(net, sk);
  EXPECT_TRUE(emb.ctx.sender_helpers.trivial());
  charge_clique_rounds(net, emb, 1);
  EXPECT_EQ(emb.clique_rounds_charged, 1u);
}

TEST(CliqueEmbedding, ReceiveLoadBounded) {
  const graph g = gen::erdos_renyi_connected(256, 5.0, 1, 23);
  hybrid_net net(g, cfg(), 23);
  const skeleton_result sk = compute_skeleton(net, std::pow(256.0, -1.0 / 3.0));
  clique_embedding emb = build_clique_embedding(net, sk);
  charge_clique_rounds(net, emb, 2);
  EXPECT_LE(net.raw_metrics().max_global_recv_per_round,
            4 * net.global_cap());
}

}  // namespace
}  // namespace hybrid
