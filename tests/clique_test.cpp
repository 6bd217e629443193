// Tests for the CLIQUE plug-in algorithms: contracts, declared rounds,
// worst-case error injection, and the message-level naive CLIQUE APSP.
#include <gtest/gtest.h>

#include <cmath>

#include "clique/algorithms.hpp"
#include "graph/diameter.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "proto/skeleton.hpp"
#include "sim/hybrid_net.hpp"

namespace hybrid {
namespace {

// A small weighted graph standing in for a skeleton graph.
struct problem_fixture {
  graph g;
  clique_problem prob;
  std::vector<std::vector<u64>> ref;

  explicit problem_fixture(u32 n, u64 seed) {
    g = gen::erdos_renyi_connected(n, 4.0, 9, seed);
    prob.g = &g;
    ref = apsp_reference(g);
  }
};

TEST(CliqueSp, ExactSolveMatchesReference) {
  problem_fixture f(40, 3);
  const auto alg = make_clique_sssp_exact();
  f.prob.sources = {0, 7, 13};
  const auto got = alg.solve(f.prob);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], f.ref[0]);
  EXPECT_EQ(got[1], f.ref[7]);
  EXPECT_EQ(got[2], f.ref[13]);
}

TEST(CliqueSp, EmptySourcesMeansApsp) {
  problem_fixture f(24, 5);
  const auto alg = make_clique_apsp_2eps(0.25, injection::none);
  const auto got = alg.solve(f.prob);
  ASSERT_EQ(got.size(), 24u);
  for (u32 v = 0; v < 24; ++v) EXPECT_EQ(got[v], f.ref[v]);
}

TEST(CliqueSp, WorstCaseInjectionRespectsContract) {
  problem_fixture f(40, 7);
  const auto alg = make_clique_apsp_2eps(0.5, injection::worst_case);
  const approx_contract c = alg.contract(f.prob.max_edge_weight());
  EXPECT_DOUBLE_EQ(c.alpha, 2.5);
  EXPECT_EQ(c.beta, static_cast<u64>(std::ceil(1.5 * f.g.max_weight())));
  f.prob.sources = {0};
  const auto got = alg.solve(f.prob);
  for (u32 v = 1; v < 40; ++v) {
    EXPECT_GE(got[0][v], f.ref[0][v]) << v;
    EXPECT_LE(got[0][v],
              static_cast<u64>(c.alpha * static_cast<double>(f.ref[0][v])) +
                  c.beta)
        << v;
    EXPECT_GT(got[0][v], f.ref[0][v]) << "injection must actually distort";
  }
  EXPECT_EQ(got[0][0], 0u) << "distance to self stays 0";
}

TEST(CliqueSp, DeclaredRoundsFollowEtaAndDelta) {
  const auto fast = make_clique_kssp_1eps(0.25, injection::none);
  EXPECT_EQ(fast.declared_rounds(1000), 4u);  // ⌈1/ε⌉, δ = 0
  const auto algebraic = make_clique_apsp_algebraic(0.25, injection::none);
  EXPECT_EQ(algebraic.declared_rounds(4096),
            static_cast<u64>(std::ceil(std::pow(4096.0, 0.15715))));
  const auto sssp = make_clique_sssp_exact();
  EXPECT_EQ(sssp.declared_rounds(64), 2u);  // 64^{1/6} = 2
}

TEST(CliqueSp, ContractParameters) {
  EXPECT_DOUBLE_EQ(
      make_clique_kssp_1eps(0.1, injection::none).contract(5).alpha, 1.1);
  EXPECT_EQ(make_clique_kssp_1eps(0.1, injection::none).contract(5).beta, 0u);
  const auto a2 = make_clique_apsp_2eps(0.1, injection::none).contract(10);
  EXPECT_DOUBLE_EQ(a2.alpha, 2.1);
  EXPECT_EQ(a2.beta, 11u);
}

TEST(CliqueDiameter, ExactAndInjected) {
  problem_fixture f(32, 11);
  const u64 true_diam = weighted_diameter(f.g);
  const auto exact = make_clique_diameter_32(0.25, injection::none);
  EXPECT_EQ(exact.solve(f.prob), true_diam);

  const auto inj = make_clique_diameter_32(0.25, injection::worst_case);
  const approx_contract c = inj.contract(f.prob.max_edge_weight());
  const u64 got = inj.solve(f.prob);
  EXPECT_GE(got, true_diam);
  EXPECT_LE(got, static_cast<u64>(c.alpha * static_cast<double>(true_diam)) +
                     c.beta);
}

TEST(CliqueDiameter, AlgebraicVariantTighter) {
  problem_fixture f(32, 13);
  const u64 true_diam = weighted_diameter(f.g);
  const auto inj = make_clique_diameter_algebraic(0.1, injection::worst_case);
  const u64 got = inj.solve(f.prob);
  EXPECT_LE(got, static_cast<u64>(1.1 * static_cast<double>(true_diam)) + 1);
}

TEST(NaiveCliqueApsp, MessageLevelFullExchange) {
  problem_fixture f(16, 17);
  clique_net net(16);
  const auto got = naive_clique_apsp(net, f.prob);
  EXPECT_EQ(net.round(), 16u);  // exactly n_s rounds
  EXPECT_EQ(net.total_messages(), 16u * 16 * 16);
  EXPECT_EQ(net.max_recv_per_round(), 16u);  // Lenzen cap respected
  for (u32 v = 0; v < 16; ++v) EXPECT_EQ(got[v], f.ref[v]);
}

TEST(NaiveCliqueApsp, SizeMismatchRejected) {
  problem_fixture f(8, 19);
  clique_net net(9);
  EXPECT_THROW(naive_clique_apsp(net, f.prob), std::invalid_argument);
}

TEST(CliqueSp, RejectsBadProblem) {
  const auto alg = make_clique_sssp_exact();
  clique_problem bad;
  bad.g = nullptr;
  EXPECT_THROW(alg.solve(bad), std::invalid_argument);
}

TEST(BellmanFordCliqueSssp, ExactOnWeightedSkeleton) {
  problem_fixture f(48, 23);
  clique_net net(48);
  const auto got = bellman_ford_clique_sssp(net, f.prob, 5);
  EXPECT_EQ(got, f.ref[5]);
  EXPECT_GT(net.round(), 0u);
}

TEST(BellmanFordCliqueSssp, RoundsTrackShortestPathHops) {
  // On a path skeleton, synchronous BF needs ~n rounds — the cost that
  // motivates the fast (charged) CLIQUE algorithms.
  const u32 n = 24;
  std::vector<edge_spec> es;
  for (u32 i = 0; i + 1 < n; ++i) es.push_back({i, i + 1, 2});
  const graph g = graph::from_edges(n, es);
  clique_problem prob;
  prob.g = &g;
  clique_net net(n);
  const auto got = bellman_ford_clique_sssp(net, prob, 0);
  for (u32 v = 0; v < n; ++v) EXPECT_EQ(got[v], 2u * v);
  EXPECT_GE(net.round(), n - 1);
  EXPECT_LE(net.round(), n + 1);
}

TEST(BellmanFordCliqueSssp, StaysWithinLenzenCap) {
  problem_fixture f(32, 29);
  clique_net net(32);
  bellman_ford_clique_sssp(net, f.prob, 0);
  EXPECT_LE(net.max_recv_per_round(), 32u);
}

}  // namespace
}  // namespace hybrid
