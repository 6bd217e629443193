// Edge-case and shape tests that don't fit the per-module files:
// dissemination's √k behavior where it actually shows (paths), degenerate
// instances, all-ones/all-zeros disjointness encodings, and the k-SSP
// framework driven to its k = n extreme.
#include <gtest/gtest.h>

#include <cmath>

#include "core/kssp_framework.hpp"
#include "graph/diameter.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "lb/gamma_graph.hpp"
#include "proto/dissemination.hpp"
#include "proto/representatives.hpp"
#include "proto/skeleton.hpp"
#include "proto/token_routing.hpp"

namespace hybrid {
namespace {

model_config cfg() { return model_config{}; }

// ---- dissemination where √k matters ------------------------------------------

TEST(DisseminationShape, SublinearGrowthInK) {
  // Small k completes within the per-node receive budget γ·rounds; the
  // interesting regime is k >> n·γ, where the ball-collectively-receives
  // argument gives Õ(√k). 16× more tokens must cost far less than 16×.
  const graph g = gen::path(128);
  std::vector<u64> rounds;
  for (u32 k : {1024u, 16384u}) {
    hybrid_net net(g, cfg(), 5);
    rng r(9);
    std::vector<std::vector<token2>> initial(128);
    for (u32 t = 0; t < k; ++t)
      initial[r.next_below(128)].push_back({t, t});
    disseminate(net, initial);
    rounds.push_back(net.round());
  }
  EXPECT_GT(rounds[1], rounds[0]);
  EXPECT_LT(rounds[1], 10 * rounds[0]);  // Õ(√k) predicts ≈ 4×
}

TEST(DisseminationShape, SingleHeavyOwnerPaysEll) {
  // ℓ = k concentrated on one node: the ℓ term dominates (Lemma B.1).
  const graph g = gen::erdos_renyi_connected(128, 5.0, 1, 3);
  u64 concentrated, spread;
  {
    hybrid_net net(g, cfg(), 7);
    std::vector<std::vector<token2>> initial(128);
    for (u32 t = 0; t < 512; ++t) initial[0].push_back({t, t});
    disseminate(net, initial);
    concentrated = net.round();
  }
  {
    hybrid_net net(g, cfg(), 7);
    rng r(11);
    std::vector<std::vector<token2>> initial(128);
    for (u32 t = 0; t < 512; ++t)
      initial[r.next_below(128)].push_back({t, t});
    disseminate(net, initial);
    spread = net.round();
  }
  EXPECT_GE(concentrated, spread);
}

// ---- degenerate & adversarial instances --------------------------------------

TEST(GammaGraph, AllOnesMaximalIntersection) {
  // a = b = all-ones: no red edges at all; diameter must exceed the
  // disjoint threshold.
  const u32 k = 4, ell = 4;
  std::vector<u8> ones(k * k, 1);
  const lb::gamma_graph gg = lb::build_gamma({k, ell, 16}, ones, ones);
  EXPECT_GE(weighted_diameter(gg.g), gg.high_diameter());
}

TEST(GammaGraph, AllZerosFullyRed) {
  // a = b = all-zeros: every red edge present (disjoint instance).
  const u32 k = 4, ell = 4;
  std::vector<u8> zeros(k * k, 0);
  const lb::gamma_graph gg = lb::build_gamma({k, ell, 16}, zeros, zeros);
  EXPECT_LE(weighted_diameter(gg.g), gg.low_diameter());
}

TEST(TokenRouting, SingleSenderSingleReceiver) {
  const graph g = gen::grid(8, 8);
  routing_spec spec;
  spec.senders = {0};
  spec.receivers = {63};
  spec.k_s = 1;
  spec.k_r = 1;
  std::vector<std::vector<routed_token>> batch(1);
  batch[0].push_back({0, 63, 0, 0xCAFE});
  hybrid_net net(g, cfg(), 3);
  const auto got = run_token_routing(net, spec, batch);
  ASSERT_EQ(got[0].size(), 1u);
  EXPECT_EQ(got[0][0].payload, 0xCAFEu);
}

TEST(Skeleton, SampleProbabilityOneIsWholeGraph) {
  const graph g = gen::grid(6, 6, 4, 2);
  hybrid_net net(g, cfg(), 2);
  const skeleton_result sk = compute_skeleton(net, 1.0);
  EXPECT_EQ(sk.nodes.size(), g.num_nodes());
  // With every node sampled, skeleton distances are graph distances.
  const auto dist_s = skeleton_apsp(sk);
  const auto ref = apsp_reference(g);
  for (u32 i = 0; i < sk.nodes.size(); ++i)
    for (u32 j = 0; j < sk.nodes.size(); ++j)
      EXPECT_EQ(dist_s[i][j], ref[sk.nodes[i]][sk.nodes[j]]);
}

TEST(Representatives, AllSourcesAreSkeleton) {
  const graph g = gen::grid(8, 8);
  hybrid_net net(g, cfg(), 4);
  const skeleton_result sk = compute_skeleton(net, 1.0);
  const std::vector<u32> sources = {0, 21, 63};
  const auto reps = compute_representatives(net, sk, sources);
  for (u32 j = 0; j < sources.size(); ++j) {
    EXPECT_EQ(reps.rep_of[j], sk.index_of[sources[j]]);
    EXPECT_EQ(reps.dist_to_rep[j], 0u);
  }
}

// ---- k-SSP at its extremes ----------------------------------------------------

TEST(KsspExtremes, AllNodesAsSources) {
  // k = n: the framework degenerates toward APSP (Lemma 4.4's regime).
  const graph g = gen::erdos_renyi_connected(96, 5.0, 6, 7);
  std::vector<u32> sources(96);
  for (u32 v = 0; v < 96; ++v) sources[v] = v;
  const auto alg = make_clique_apsp_2eps(0.25, injection::none);
  const kssp_result res = hybrid_kssp(g, cfg(), 13, sources, alg);
  const auto ref = apsp_reference(g);
  for (u32 j = 0; j < 96; ++j)
    for (u32 v = 0; v < 96; ++v) {
      ASSERT_GE(res.labels.query(j, v), ref[j][v]);
      ASSERT_LE(static_cast<double>(res.labels.query(j, v)),
                res.bound_weighted * static_cast<double>(ref[j][v]) + 1e-9);
    }
}

TEST(KsspExtremes, TwoNodeNetwork) {
  const graph g = gen::path(2, 5, 3);
  const auto alg = make_clique_sssp_exact();
  const kssp_result res = hybrid_kssp(g, cfg(), 1, {0}, alg, true);
  EXPECT_EQ(res.labels.query(0, 0), 0u);
  EXPECT_EQ(res.labels.query(0, 1), dijkstra(g, 0)[1]);
}

TEST(KsspExtremes, SourcesShareOneRepresentative) {
  // A star-ish graph with one skeleton node forced: several sources close
  // together must be allowed to share a representative (dedup path).
  const graph g = gen::balanced_tree(64, 4, 1, 5);
  model_config c = cfg();
  hybrid_net net(g, c, 3);
  const skeleton_result sk = compute_skeleton(net, 0.02, {0});
  const std::vector<u32> sources = {1, 2, 3, 4};
  const auto reps = compute_representatives(net, sk, sources);
  // However reps land, they must be valid skeleton indices with correct d_h.
  for (u32 j = 0; j < sources.size(); ++j) {
    ASSERT_LT(reps.rep_of[j], sk.nodes.size());
    const auto lim = limited_distance(g, sk.nodes[reps.rep_of[j]], sk.h);
    EXPECT_EQ(reps.dist_to_rep[j], lim[sources[j]]);
  }
}

}  // namespace
}  // namespace hybrid
