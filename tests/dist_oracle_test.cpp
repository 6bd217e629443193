// Differential suite for the distance-label oracle (core/dist_oracle.hpp):
// on randomized ER / grid / star / bounded-degree / disconnected graphs,
// query(u, v) and next_hop(u, v) must be bit-identical to the materialize()
// adapters and to centralized Dijkstra ground truth, at threads
// ∈ {1, 2, 8}; plus the h = 0 / isolated-vertex / singleton-component /
// unreachable-pair (∞) edge cases, the baseline's two-sided labels, the
// k-SSP labels, the diameter label path (exact + the (1+ε̂) skeleton
// estimate), and one two-level build above the dense-exploration cutoff,
// where the cores run sparse rows. Runs in the TSAN CI job at 8 threads;
// `ctest -L oracle` runs it standalone.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/apsp.hpp"
#include "core/apsp_baseline.hpp"
#include "core/diameter.hpp"
#include "core/kssp_framework.hpp"
#include "core/oracle_store.hpp"
#include "core/sssp.hpp"
#include "graph/diameter.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"

namespace hybrid {
namespace {

model_config cfg() { return model_config{}; }

sim_options opts(u32 threads) {
  sim_options o;
  o.threads = threads;
  return o;
}

void expect_metrics_eq(const run_metrics& a, const run_metrics& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.local_items, b.local_items);
  EXPECT_EQ(a.global_messages, b.global_messages);
  EXPECT_EQ(a.global_payload_words, b.global_payload_words);
  EXPECT_EQ(a.max_global_recv_per_round, b.max_global_recv_per_round);
}

/// Materialized reference labels at one thread vs label runs at threads
/// {1, 2, 8}: per-pair query/next_hop identity, materialize() identity,
/// metric identity, and Dijkstra ground truth.
void apsp_differential(const graph& g, u64 seed) {
  const u32 n = g.num_nodes();
  const apsp_result ref =
      hybrid_apsp_exact(g, cfg(), seed, /*build_routes=*/true, opts(1));
  round_executor ref_ex(opts(1));
  const auto ref_dist = ref.labels.materialize(ref_ex);
  const auto ref_hops = ref.labels.materialize_next_hops(ref_dist, ref_ex);
  ASSERT_EQ(ref_dist.size(), n);
  const auto truth = apsp_reference(g);
  for (u32 u = 0; u < n; ++u) ASSERT_EQ(ref_dist[u], truth[u]) << "row " << u;

  for (u32 threads : {1u, 2u, 8u}) {
    const apsp_result lab =
        hybrid_apsp_exact(g, cfg(), seed, /*build_routes=*/true, opts(threads));
    ASSERT_TRUE(lab.labels.routes);
    expect_metrics_eq(lab.metrics, ref.metrics);
    for (u32 u = 0; u < n; ++u)
      for (u32 v = 0; v < n; ++v) {
        ASSERT_EQ(lab.labels.query(u, v), ref_dist[u][v])
            << u << "->" << v << " threads=" << threads;
        ASSERT_EQ(lab.labels.next_hop(u, v), ref_hops[u][v])
            << u << "->" << v << " threads=" << threads;
      }
    // The dense adapters reproduce the matrices bit for bit.
    round_executor ex(opts(threads));
    const auto dist = lab.labels.materialize(ex);
    ASSERT_EQ(dist, ref_dist);
    ASSERT_EQ(lab.labels.materialize_next_hops(dist, ex), ref_hops);
  }
}

// ---- randomized differential runs ------------------------------------------

TEST(DistOracleDiff, ErdosRenyiRandomized) {
  for (u64 seed : {51u, 52u, 53u}) {
    rng r(seed);
    const u32 n = 48 + static_cast<u32>(r.next_below(72));
    const double deg = 3.5 + r.next_double() * 2.5;
    const u64 max_w = r.next_bool(0.5) ? 1 : 9;
    apsp_differential(gen::erdos_renyi_connected(n, deg, max_w, seed), seed);
  }
}

TEST(DistOracleDiff, Grid) { apsp_differential(gen::grid(9, 9, 6, 23), 23); }

TEST(DistOracleDiff, Star) {
  // balanced_tree with arity n-1 is a star: every leaf routes through the
  // hub, so gateway composition and next-hop tie-breaks get a dense workout.
  apsp_differential(gen::balanced_tree(40, 39, 4, 7), 7);
}

TEST(DistOracleDiff, BoundedDegree) {
  apsp_differential(gen::bounded_degree(72, 3, 5, 11), 11);
}

TEST(DistOracleDiff, DisconnectedWithIsolatedVertices) {
  // Two components (path, triangle) plus two isolated vertices: queries
  // across components must return kInfDist exactly where Dijkstra does, and
  // next_hop must stay ~0 there.
  std::vector<edge_spec> edges{{0, 1, 2}, {1, 2, 1}, {2, 3, 3},
                               {4, 5, 1}, {5, 6, 2}, {4, 6, 2}};
  const graph g = graph::from_edges(9, edges);
  apsp_differential(g, 3);
  const apsp_result lab = hybrid_apsp_exact(
      g, cfg(), 3, true, opts(1));
  for (u32 v : {7u, 8u}) {
    EXPECT_EQ(lab.labels.query(v, v), 0u);       // singleton component
    EXPECT_EQ(lab.labels.next_hop(v, v), v);
    EXPECT_EQ(lab.labels.query(v, 0), kInfDist);  // unreachable pair
    EXPECT_EQ(lab.labels.next_hop(v, 0), ~u32{0});
    EXPECT_EQ(lab.labels.query(0, v), kInfDist);
  }
  EXPECT_EQ(lab.labels.query(0, 5), kInfDist);  // across the two components
}

// ---- edge cases -------------------------------------------------------------

TEST(DistOracleEdge, HZeroBallOnlyLabels) {
  // h = 0 labels built directly: every ball is the node itself, no
  // gateways, empty skeleton table — query must fall through the (absent)
  // skeleton part and report self-distance 0 / kInfDist elsewhere.
  dist_labels lab;
  lab.n = 3;
  lab.n_s = 0;
  lab.h = 0;
  lab.ball.offsets = {0, 1, 2, 3};
  lab.ball.entries = {{0, 0, 0}, {0, 1, 1}, {0, 2, 2}};
  lab.gw_offsets = {0, 0, 0, 0};
  for (u32 u = 0; u < 3; ++u)
    for (u32 v = 0; v < 3; ++v)
      EXPECT_EQ(lab.query(u, v), u == v ? 0 : kInfDist) << u << "->" << v;
  EXPECT_EQ(lab.row(1), (std::vector<u64>{kInfDist, 0, kInfDist}));
}

TEST(DistOracleEdge, BallOnlyTwoSidedLabels) {
  // The two-sided scheme with no gateways likewise degenerates to the ball.
  dist_labels lab;
  lab.n = 2;
  lab.n_s = 1;
  lab.scheme = label_scheme::kSkeletonPairs;
  lab.ball.offsets = {0, 1, 2};
  lab.ball.entries = {{0, 0, 0}, {0, 1, 1}};
  lab.gw_offsets = {0, 0, 0};
  lab.skel = {0};
  EXPECT_EQ(lab.query(0, 1), kInfDist);
  EXPECT_EQ(lab.query(1, 1), 0u);
}

TEST(DistOracleEdge, NextHopRequiresRoutes) {
  const graph g = gen::path(32, 3, 5);
  const apsp_result lab = hybrid_apsp_exact(
      g, cfg(), 5, /*build_routes=*/false, opts(1));
  EXPECT_FALSE(lab.labels.routes);
  EXPECT_EQ(lab.labels.query(0, 31), dijkstra(g, 0)[31]);
  EXPECT_THROW(lab.labels.next_hop(0, 31), std::invalid_argument);
}

TEST(DistOracleEdge, StorageResolution) {
  const graph g = gen::erdos_renyi_connected(64, 4.0, 5, 9);
  // Labels are the only result: the default options and an explicit
  // thread count build the same labels, and the dense adapters agree with
  // them row by row.
  const apsp_result by_default = hybrid_apsp_exact(g, cfg(), 9);
  round_executor ex;
  const auto dense = by_default.labels.materialize(ex);
  ASSERT_EQ(dense.size(), 64u);
  const apsp_result label_only = hybrid_apsp_exact(g, cfg(), 9, false, opts(0));
  for (u32 u = 0; u < 64; ++u)
    ASSERT_EQ(label_only.labels.row(u), dense[u]) << "row " << u;
  // The standalone materialize(sim_options) overload works without a net.
  ASSERT_EQ(label_only.labels.materialize(), dense);
}

// ---- materialize() with unreachable pairs (explicit ∞ handling) -------------

TEST(DistOracleMaterialize, DisconnectedInfinityRowsScheme) {
  // materialize() on labels with unreachable pairs: every cross-component
  // entry must come out as EXACTLY kInfDist (the composition saturates at
  // the ball's ∞ — no wraparound, no kInfDist-plus-a-leg artifacts), and
  // the next-hop matrix must keep ~0 there.
  std::vector<edge_spec> edges{{0, 1, 2}, {1, 2, 1}, {3, 4, 5},
                               {4, 5, 1}, {3, 5, 4}};
  const graph g = graph::from_edges(8, edges);  // + isolated 6, 7
  const apsp_result lab = hybrid_apsp_exact(
      g, cfg(), 13, /*build_routes=*/true, opts(1));
  round_executor ex;
  const auto dist = lab.labels.materialize(ex);
  const auto hops = lab.labels.materialize_next_hops(dist, ex);
  const auto truth = apsp_reference(g);
  for (u32 u = 0; u < 8; ++u)
    for (u32 v = 0; v < 8; ++v) {
      ASSERT_EQ(dist[u][v], truth[u][v]) << u << "->" << v;
      if (truth[u][v] == kInfDist) {
        ASSERT_EQ(dist[u][v], kInfDist) << u << "->" << v;
        ASSERT_EQ(hops[u][v], ~u32{0}) << u << "->" << v;
      }
    }
  // The component structure is what makes this a real ∞ test.
  ASSERT_EQ(dist[0][3], kInfDist);
  ASSERT_EQ(dist[6][7], kInfDist);
  ASSERT_EQ(dist[6][6], 0u);
}

TEST(DistOracleMaterialize, DisconnectedInfinityPairsScheme) {
  // Same property through the baseline's two-sided composition, whose
  // skip-at-exactly-∞ filter is the line that keeps ∞ from leaking a
  // finite gateway leg into an unreachable pair.
  std::vector<edge_spec> edges{{0, 1, 1}, {1, 2, 3}, {3, 4, 2}};
  const graph g = graph::from_edges(7, edges);  // + isolated 5, 6
  const apsp_baseline_result lab = baseline_apsp_ahkss(
      g, cfg(), 17, opts(1));
  ASSERT_EQ(lab.labels.scheme, label_scheme::kSkeletonPairs);
  round_executor ex;
  const auto dist = lab.labels.materialize(ex);
  const auto truth = apsp_reference(g);
  for (u32 u = 0; u < 7; ++u)
    for (u32 v = 0; v < 7; ++v) {
      ASSERT_EQ(dist[u][v], truth[u][v]) << u << "->" << v;
      if (truth[u][v] == kInfDist) {
        ASSERT_EQ(dist[u][v], kInfDist) << u << "->" << v;
      }
    }
  ASSERT_EQ(dist[2][3], kInfDist);
  ASSERT_EQ(dist[5][0], kInfDist);
}

// ---- the baseline's two-sided labels ----------------------------------------

TEST(DistOracleBaseline, QueryMatchesDenseAndDijkstra) {
  const graph g = gen::erdos_renyi_connected(96, 4.5, 7, 31);
  const apsp_baseline_result ref = baseline_apsp_ahkss(g, cfg(), 31, opts(1));
  const auto ref_dist = ref.labels.materialize(opts(1));
  const auto truth = apsp_reference(g);
  for (u32 u = 0; u < 96; ++u) ASSERT_EQ(ref_dist[u], truth[u]);
  for (u32 threads : {1u, 8u}) {
    const apsp_baseline_result lab =
        baseline_apsp_ahkss(g, cfg(), 31, opts(threads));
    EXPECT_EQ(lab.labels.scheme, label_scheme::kSkeletonPairs);
    expect_metrics_eq(lab.metrics, ref.metrics);
    for (u32 u = 0; u < 96; ++u)
      for (u32 v = 0; v < 96; ++v)
        ASSERT_EQ(lab.labels.query(u, v), ref_dist[u][v]) << u << "->" << v;
    round_executor ex(opts(threads));
    ASSERT_EQ(lab.labels.materialize(ex), ref_dist);
  }
}

TEST(DistOracleBaseline, DisconnectedTwoSided) {
  std::vector<edge_spec> edges{{0, 1, 1}, {1, 2, 2}, {3, 4, 1}};
  const graph g = graph::from_edges(6, edges);
  const apsp_baseline_result lab = baseline_apsp_ahkss(g, cfg(), 5, opts(1));
  const auto dense = lab.labels.materialize(opts(1));
  const auto truth = apsp_reference(g);
  for (u32 u = 0; u < 6; ++u)
    for (u32 v = 0; v < 6; ++v) {
      ASSERT_EQ(dense[u][v], truth[u][v]);
      ASSERT_EQ(lab.labels.query(u, v), truth[u][v]) << u << "->" << v;
    }
}

// ---- k-SSP labels -----------------------------------------------------------

TEST(DistOracleKssp, QueryMatchesDenseRows) {
  const graph g = gen::erdos_renyi_connected(96, 4.0, 5, 7);
  const auto alg = make_clique_kssp_1eps(0.25, injection::none);
  const std::vector<u32> sources{4, 31, 77};
  const kssp_result ref =
      hybrid_kssp(g, cfg(), 7, sources, alg, false, opts(1));
  round_executor ref_ex(opts(1));
  const auto ref_dist = ref.labels.materialize(ref_ex);
  ASSERT_EQ(ref_dist.size(), sources.size());
  for (u32 threads : {1u, 8u}) {
    const kssp_result lab =
        hybrid_kssp(g, cfg(), 7, sources, alg, false, opts(threads));
    expect_metrics_eq(lab.metrics, ref.metrics);
    for (u32 j = 0; j < sources.size(); ++j) {
      ASSERT_EQ(lab.labels.row(j), ref_dist[j]) << "source " << j;
      for (u32 v = 0; v < 96; ++v)
        ASSERT_EQ(lab.labels.query(j, v), ref_dist[j][v]);
    }
    round_executor ex(opts(threads));
    ASSERT_EQ(lab.labels.materialize(ex), ref_dist);
  }
}

TEST(DistOracleKssp, SsspRowIdenticalAcrossStorageModes) {
  const graph g = gen::grid(12, 12, 6, 13);
  // The SSSP row streamed from the labels equals the k-SSP core's explicit
  // dense adapter for the same run.
  const kssp_result k = hybrid_kssp(g, cfg(), 13, {5}, make_clique_sssp_exact(),
                                    /*source_into_skeleton=*/true, opts(1));
  round_executor ex(opts(1));
  const auto dense = k.labels.materialize(ex);
  const sssp_result lab = hybrid_sssp_exact(g, cfg(), 13, 5, opts(1));
  EXPECT_EQ(lab.dist, dense[0]);
  EXPECT_EQ(lab.dist, dijkstra(g, 5));
}

// ---- the charged-routing stand-in preserves results -------------------------

TEST(DistOracleCharged, ChargedRoutingPreservesDistances) {
  // model_config{charged_token_routing} (DESIGN.md deviation 9) replaces
  // the helper-machinery simulation with closed-form charging — the switch
  // the n = 10⁵ bench scenarios flip. Distances must be untouched.
  const graph g = gen::erdos_renyi_connected(96, 4.0, 6, 19);
  model_config charged = cfg();
  charged.charged_token_routing = true;
  const apsp_result lab = hybrid_apsp_exact(
      g, charged, 19, false, opts(1));
  const auto truth = apsp_reference(g);
  for (u32 u = 0; u < 96; ++u)
    for (u32 v = 0; v < 96; ++v)
      ASSERT_EQ(lab.labels.query(u, v), truth[u][v]) << u << "->" << v;
  EXPECT_GT(lab.metrics.rounds, 0u);
}

// ---- diameter through the label path ----------------------------------------

TEST(DistOracleDiameter, ExactMatchesCentralizedReference) {
  for (u64 seed : {3u, 4u}) {
    const graph g = gen::erdos_renyi_connected(96, 4.5, 7, seed);
    const apsp_result lab = hybrid_apsp_exact(
        g, cfg(), seed, false, opts(1));
    EXPECT_EQ(labels_exact_diameter(lab.labels), weighted_diameter(g));
  }
  const graph grid = gen::grid(8, 8, 5, 21);
  const apsp_result lab = hybrid_apsp_exact(grid, cfg(), 21);
  EXPECT_EQ(labels_exact_diameter(lab.labels), weighted_diameter(grid));
}

TEST(DistOracleDiameter, ExactSkipsUnreachablePairsWhenAsked) {
  std::vector<edge_spec> edges{{0, 1, 3}, {1, 2, 4}, {3, 4, 2}};
  const graph g = graph::from_edges(5, edges);
  const apsp_result lab = hybrid_apsp_exact(
      g, cfg(), 9, false, opts(1));
  EXPECT_THROW(labels_exact_diameter(lab.labels), std::invalid_argument);
  EXPECT_EQ(labels_exact_diameter(lab.labels, /*require_connected=*/false), 7u);
}

TEST(DistOracleDiameter, EstimateWithinBoundOn50SeededGraphs) {
  // The (1 + ε̂) skeleton estimate: D ≤ estimate ≤ bound·D on connected
  // random graphs (full gateway coverage at default parameters), with
  // ε̂ = L/M measured from the labels themselves.
  for (u64 seed = 1; seed <= 50; ++seed) {
    rng r(1000 + seed);
    const u32 n = 40 + static_cast<u32>(r.next_below(80));
    const double deg = 3.0 + r.next_double() * 3.0;
    const u64 max_w = r.next_bool(0.5) ? 1 : 8;
    const graph g = gen::erdos_renyi_connected(n, deg, max_w, seed);
    const apsp_result lab = hybrid_apsp_exact(
        g, cfg(), seed, false, opts(1));
    const label_diameter_estimate est = diameter_estimate_from_labels(lab.labels);
    ASSERT_EQ(est.covered, n) << "seed " << seed;
    const u64 d_true = weighted_diameter(g);
    ASSERT_GE(est.estimate, d_true) << "seed " << seed;
    ASSERT_LE(static_cast<double>(est.estimate),
              est.bound * static_cast<double>(d_true) + 1e-9)
        << "seed " << seed << " bound " << est.bound;
    ASSERT_LE(est.skeleton_max, d_true) << "seed " << seed;
  }
}

// ---- the two-level hierarchy (kTwoLevel) ------------------------------------

sim_options two_level_opts(u32 threads) {
  sim_options o = opts(threads);
  o.hierarchy = oracle_hierarchy::kTwoLevel;
  return o;
}

TEST(DistOracleTwoLevel, QueryRowMaterializeAgreeAndNeverUnderestimate) {
  // The composition through ball1/gw1/super-pairs is an upper bound by
  // construction (every candidate is a real walk), must agree with itself
  // across query/row_into/materialize, and must keep ∞ exact: an
  // unreachable pair composes to EXACTLY kInfDist, never a wrapped sum.
  for (u64 seed : {201u, 202u, 203u}) {
    rng r(seed);
    const u32 n = 48 + static_cast<u32>(r.next_below(72));
    const double deg = 3.5 + r.next_double() * 2.5;
    const u64 max_w = r.next_bool(0.5) ? 1 : 9;
    const graph g = gen::erdos_renyi_connected(n, deg, max_w, seed);
    const apsp_result lab =
        hybrid_apsp_exact(g, cfg(), seed, false, two_level_opts(1));
    ASSERT_EQ(lab.labels.scheme, label_scheme::kTwoLevel);
    ASSERT_GE(lab.labels.n_s2, 1u);
    ASSERT_LE(lab.labels.n_s2, lab.labels.n_s);
    const auto truth = apsp_reference(g);
    round_executor ex;
    const auto dense = lab.labels.materialize(ex);
    std::vector<u64> row;
    for (u32 u = 0; u < n; ++u) {
      lab.labels.row_into(u, row);
      ASSERT_EQ(row, dense[u]) << "row " << u;
      for (u32 v = 0; v < n; ++v) {
        const u64 q = lab.labels.query(u, v);
        ASSERT_EQ(q, row[v]) << u << "->" << v;
        ASSERT_GE(q, truth[u][v]) << u << "->" << v;  // never underestimate
        if (truth[u][v] == kInfDist) {
          ASSERT_EQ(q, kInfDist) << u << "->" << v;
        }
      }
    }
  }
}

TEST(DistOracleTwoLevel, ExactAtSaturatedDefaults) {
  // At default parameters on these seeds the skeleton and super-skeleton
  // hop budgets saturate (Lemma C.2 at both levels), so the two-level
  // composition is exact — and with exact distances the route exchange
  // works unchanged, so next_hop matches the single-level oracle too.
  for (u64 seed : {31u, 32u}) {
    const graph g = gen::erdos_renyi_connected(96, 4.5, 7, seed);
    const apsp_result two =
        hybrid_apsp_exact(g, cfg(), seed, true, two_level_opts(1));
    const apsp_result one = hybrid_apsp_exact(
        g, cfg(), seed, true, opts(1));
    const auto truth = apsp_reference(g);
    for (u32 u = 0; u < 96; ++u)
      for (u32 v = 0; v < 96; ++v) {
        ASSERT_EQ(two.labels.query(u, v), truth[u][v])
            << u << "->" << v << " seed " << seed;
        ASSERT_EQ(two.labels.next_hop(u, v), one.labels.next_hop(u, v))
            << u << "->" << v << " seed " << seed;
      }
    // The label-path diameter consumers accept the scheme.
    EXPECT_EQ(labels_exact_diameter(two.labels), weighted_diameter(g));
    const label_diameter_estimate est =
        diameter_estimate_from_labels(two.labels);
    EXPECT_EQ(est.covered, 96u);
    EXPECT_GE(est.estimate, weighted_diameter(g));
  }
}

TEST(DistOracleTwoLevel, ConstructionBitIdenticalAcrossThreads) {
  // The whole two-level build (skeleton, super-skeleton sampling, ball1/gw1
  // flattening, super-pair Dijkstras) runs on the deterministic executor:
  // every label array and every metric must be bit-identical at any thread
  // count (docs/CONCURRENCY.md contract).
  const graph g = gen::erdos_renyi_connected(90, 4.0, 6, 57);
  const apsp_result ref = hybrid_apsp_exact(g, cfg(), 57, false, two_level_opts(1));
  for (u32 threads : {2u, 8u}) {
    const apsp_result got =
        hybrid_apsp_exact(g, cfg(), 57, false, two_level_opts(threads));
    EXPECT_EQ(got.labels.n_s2, ref.labels.n_s2) << "threads " << threads;
    EXPECT_EQ(got.labels.ball.offsets, ref.labels.ball.offsets);
    EXPECT_EQ(got.labels.ball.entries, ref.labels.ball.entries);
    EXPECT_EQ(got.labels.gw_offsets, ref.labels.gw_offsets);
    EXPECT_EQ(got.labels.gateways, ref.labels.gateways);
    EXPECT_EQ(got.labels.skeleton_nodes, ref.labels.skeleton_nodes);
    EXPECT_EQ(got.labels.skel, ref.labels.skel);
    EXPECT_EQ(got.labels.ball1_offsets, ref.labels.ball1_offsets);
    EXPECT_EQ(got.labels.ball1_entries, ref.labels.ball1_entries);
    EXPECT_EQ(got.labels.gw1_offsets, ref.labels.gw1_offsets);
    EXPECT_EQ(got.labels.gw1, ref.labels.gw1);
    EXPECT_EQ(got.labels.super_nodes, ref.labels.super_nodes);
    expect_metrics_eq(got.metrics, ref.metrics);
  }
}

TEST(DistOracleTwoLevel, SparseRowsAboveDenseCutoff) {
  // Above kDenseExplorationMaxNodes every exploration a core runs uses
  // sparse rows; the other pipeline cases here stay below the cutoff. The
  // configuration is the oracle_2level benchmark's (bench_apsp's
  // label_large: p1 = 0.08 with h back-solved to 5, p2 = 0.05, h1 = 3,
  // charged token routing) on a smaller bounded-degree graph.
  constexpr u32 n = 5000;
  static_assert(n > kDenseExplorationMaxNodes);
  const graph g = gen::bounded_degree(n, 3, 1, 3);
  model_config c = cfg();
  const double p = 0.08;
  c.skeleton_xi = (5.0 - 0.25) * p / std::log(static_cast<double>(n));
  c.skeleton_p_override = p;
  c.super_p_override = 0.05;
  c.super_h_override = 3;
  c.charged_token_routing = true;
  u64 checksum[2] = {};
  run_metrics metrics[2];
  for (u32 i = 0; i < 2; ++i) {
    const u32 threads = i == 0 ? 1 : 8;
    const apsp_result lab =
        hybrid_apsp_exact(g, c, 3, false, two_level_opts(threads));
    ASSERT_EQ(lab.labels.scheme, label_scheme::kTwoLevel);
    metrics[i] = lab.metrics;
    const std::string path = ::testing::TempDir() + "dist_oracle_sparse_" +
                             std::to_string(::getpid()) + ".bin";
    save_oracle(lab.labels, path);
    checksum[i] = mapped_oracle::load(path).header().payload_checksum;
    std::remove(path.c_str());
    if (i != 0) continue;
    // Eight rows against Dijkstra: the ball (the sparse rows' output) is
    // exactly d_h, and the composition never underestimates and never
    // exceeds d_h.
    for (u32 u = 0; u < n; u += n / 8) {
      const std::vector<u64> truth = dijkstra(g, u);
      const std::vector<u64> d_h = limited_distance(g, u, lab.labels.h);
      const auto ball = lab.labels.ball.reached(u);
      ASSERT_EQ(ball.size(), static_cast<u64>(std::count_if(
                                 d_h.begin(), d_h.end(),
                                 [](u64 d) { return d != kInfDist; })));
      for (const exploration_entry& e : ball)
        ASSERT_EQ(e.dist, d_h[e.source]) << u << "->" << e.source;
      const std::vector<u64> row = lab.labels.row(u);
      for (u32 v = 0; v < n; ++v) {
        ASSERT_GE(row[v], truth[v]) << u << "->" << v;
        ASSERT_LE(row[v], d_h[v]) << u << "->" << v;
      }
    }
  }
  EXPECT_EQ(checksum[1], checksum[0]);
  expect_metrics_eq(metrics[1], metrics[0]);
}

TEST(DistOracleTwoLevel, DisconnectedSuperSkeletonInfinityRegression) {
  // Hand-built labels with a DISCONNECTED super-skeleton and gateway legs
  // near kInfDist: the composition's deepest term has five addends, so an
  // unskipped ∞ super-pair entry would wrap u64 and surface as a small
  // finite distance. The ∞ skip must keep the answer exactly kInfDist.
  const u64 huge = kInfDist - 1;  // finite, maximal — the wraparound fuel
  dist_labels lab;
  lab.n = 4;
  lab.n_s = 2;
  lab.n_s2 = 2;
  lab.h = 1;
  lab.scheme = label_scheme::kTwoLevel;
  lab.ball.offsets = {0, 1, 2, 3, 4};
  lab.ball.entries = {{0, 0, 0}, {0, 1, 1}, {0, 2, 2}, {0, 3, 3}};  // self only
  // Node 0 reaches skeleton index 0, node 3 reaches skeleton index 1; the
  // skeleton nodes reach themselves.
  lab.gw_offsets = {0, 1, 2, 3, 4};
  lab.gateways = {{0, huge, 1}, {0, 0, 1}, {1, 0, 2}, {1, huge, 2}};
  lab.skeleton_nodes = {1, 2};
  // Level 1: each skeleton node's ball1 holds only itself, and its super
  // gateway leg is also maximal — the unskipped candidate would sum to
  // 4·(kInfDist−1) + kInfDist > 2^64 and wrap to a value BELOW kInfDist,
  // turning an unreachable pair into a bogus finite answer. The two super
  // components never meet: all cross entries ∞.
  lab.ball1_offsets = {0, 1, 2};
  lab.ball1_entries = {{0, 0, 0}, {0, 1, 1}};
  lab.gw1_offsets = {0, 1, 2};
  lab.gw1 = {{0, huge, 0}, {1, huge, 1}};
  lab.super_nodes = {0, 1};
  lab.skel = {0, kInfDist, kInfDist, 0};
  // Within a component ({0,1} through skeleton node 1, {2,3} through
  // skeleton node 2) the one finite leg is `huge`; every cross-component
  // pair must compose to exactly kInfDist.
  for (u32 u = 0; u < 4; ++u)
    for (u32 v = 0; v < 4; ++v) {
      const u64 want =
          u == v ? 0 : ((u < 2) == (v < 2) ? huge : kInfDist);
      EXPECT_EQ(lab.query(u, v), want) << u << "->" << v;
    }
  EXPECT_EQ(lab.row(0), (std::vector<u64>{0, huge, kInfDist, kInfDist}));
  EXPECT_EQ(lab.row(3), (std::vector<u64>{kInfDist, kInfDist, huge, 0}));
}

TEST(DistOracleEdge, SkeletonRowsInfinityEntrySkippedExactly) {
  // kSkeletonRows regression for the same invariant: the only gateway's row
  // entry is ∞ with a maximal finite gateway leg — the sum exceeds kInfDist,
  // and the answer must be EXACTLY kInfDist, not a clamped or wrapped value.
  dist_labels lab;
  lab.n = 2;
  lab.n_s = 1;
  lab.h = 1;
  lab.scheme = label_scheme::kSkeletonRows;
  lab.ball.offsets = {0, 1, 2};
  lab.ball.entries = {{0, 0, 0}, {0, 1, 1}};
  lab.gw_offsets = {0, 1, 2};
  lab.gateways = {{0, kInfDist - 1, 1}, {0, 0, 1}};
  lab.skeleton_nodes = {1};
  lab.skel = {kInfDist, 0};  // d(s, 0) = ∞: node 0 is severed from s
  EXPECT_EQ(lab.query(0, 1), kInfDist - 1);  // the finite leg still works
  EXPECT_EQ(lab.query(1, 0), kInfDist);      // ∞ entry skipped, not added
  EXPECT_EQ(lab.row(1), (std::vector<u64>{kInfDist, 0}));
}

}  // namespace
}  // namespace hybrid
