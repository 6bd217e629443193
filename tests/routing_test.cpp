// Tests for helper sets (Definition 2.1 / Lemma 2.2) and token routing
// (Theorem 2.2) — correctness, load bounds, and the Lemma D.2 receive cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "proto/helper_sets.hpp"
#include "proto/token_routing.hpp"

namespace hybrid {
namespace {

model_config cfg() { return model_config{}; }

std::vector<u32> sample_set(u32 n, double p, u64 seed) {
  rng r(seed);
  std::vector<u32> w;
  for (u32 v = 0; v < n; ++v)
    if (r.next_bool(p)) w.push_back(v);
  if (w.empty()) w.push_back(0);
  return w;
}

// ---- helper sets ------------------------------------------------------------

TEST(HelperMu, FormulaFromAlgorithm2) {
  EXPECT_EQ(helper_mu(100, 1.0), 1u);    // 1/p = 1 caps µ
  EXPECT_EQ(helper_mu(100, 0.1), 10u);   // √k = 10 caps µ
  EXPECT_EQ(helper_mu(4, 0.01), 2u);     // √k = 2
  EXPECT_EQ(helper_mu(0, 0.5), 1u);      // degenerate: at least 1
}

TEST(HelperSets, TrivialMuSkipsMachinery) {
  const graph g = gen::grid(8, 8);
  hybrid_net net(g, cfg(), 1);
  const std::vector<u32> w = {3, 17, 40};
  const helper_family fam = compute_helpers(net, w, 1);
  EXPECT_TRUE(fam.trivial());
  EXPECT_EQ(net.round(), 0u);
  for (u32 i = 0; i < w.size(); ++i)
    EXPECT_EQ(fam.helpers_of[i], std::vector<u32>{w[i]});
}

class HelperSetProperty : public ::testing::TestWithParam<std::tuple<int, u64>> {
};

TEST_P(HelperSetProperty, Definition21Invariants) {
  const auto [kind, seed] = GetParam();
  graph g;
  switch (kind) {
    case 0: g = gen::erdos_renyi_connected(256, 5.0, 1, seed); break;
    case 1: g = gen::grid(16, 16); break;
    default: g = gen::path(256); break;
  }
  const u32 n = g.num_nodes();
  hybrid_net net(g, cfg(), seed);
  const double p = 1.0 / 16.0;  // W sampled at rate p
  const std::vector<u32> w = sample_set(n, p, seed * 7 + 1);
  const u32 mu = helper_mu(/*k=*/n / 4, p);  // µ = min(√k, 1/p) = 8
  const helper_family fam = compute_helpers(net, w, mu);

  // (1) size: every W member has helpers; w.h.p. at least µ of them
  // (we assert the guaranteed ≥1 plus the statistical bound µ/2 to keep
  // fixed-seed tests stable).
  for (u32 i = 0; i < w.size(); ++i) {
    ASSERT_GE(fam.helpers_of[i].size(), 1u);
    EXPECT_GE(fam.helpers_of[i].size(), mu / 2) << "w index " << i;
    EXPECT_TRUE(std::binary_search(fam.helpers_of[i].begin(),
                                   fam.helpers_of[i].end(), w[i]))
        << "w must belong to its own helper set";
  }
  // (2) locality: helpers within Õ(µ) hops (the cluster bound 2β).
  for (u32 i = 0; i < w.size(); ++i) {
    const auto hops = bfs_hops(g, w[i]);
    for (u32 x : fam.helpers_of[i])
      EXPECT_LE(hops[x], 2 * fam.clusters.beta) << "helper " << x;
  }
  // (3) membership: no node helps more than Õ(1) W-members.
  const u32 logn = id_bits(n);
  for (u32 v = 0; v < n; ++v)
    EXPECT_LE(fam.helps[v].size(), 6u * logn) << "node " << v;
  // Consistency of the two views.
  for (u32 i = 0; i < w.size(); ++i)
    for (u32 x : fam.helpers_of[i]) {
      const auto& hs = fam.helps[x];
      EXPECT_TRUE(std::find(hs.begin(), hs.end(), i) != hs.end());
    }
}

INSTANTIATE_TEST_SUITE_P(Graphs, HelperSetProperty,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(1u, 2u, 3u)));

TEST(HelperSets, RoundCostScalesWithMu) {
  const graph g = gen::path(256);
  const std::vector<u32> w = sample_set(256, 0.1, 5);
  u64 r4, r8;
  {
    hybrid_net net(g, cfg(), 1);
    compute_helpers(net, w, 4);
    r4 = net.round();
  }
  {
    hybrid_net net(g, cfg(), 1);
    compute_helpers(net, w, 8);
    r8 = net.round();
  }
  EXPECT_GT(r8, r4);
  EXPECT_LE(r8, 3 * r4);  // linear in µ up to constants
}

// ---- token routing ----------------------------------------------------------

struct routing_fixture {
  graph g;
  routing_spec spec;
  std::vector<std::vector<routed_token>> batch;
  std::map<std::pair<u32, u32>, u64> expected;  // (sender, receiver) → payload
};

routing_fixture make_fixture(u32 n, double p_s, double p_r, u32 tokens_per_pair,
                             u64 seed, int graph_kind = 0) {
  routing_fixture f;
  switch (graph_kind) {
    case 0: f.g = gen::erdos_renyi_connected(n, 5.0, 1, seed); break;
    case 1: f.g = gen::grid(n / 16, 16); break;
    default: f.g = gen::path(n); break;
  }
  f.spec.senders = sample_set(f.g.num_nodes(), p_s, seed + 1);
  f.spec.receivers = sample_set(f.g.num_nodes(), p_r, seed + 2);
  f.spec.p_s = p_s;
  f.spec.p_r = p_r;
  f.spec.k_s = f.spec.receivers.size() * tokens_per_pair;
  f.spec.k_r = f.spec.senders.size() * tokens_per_pair;
  f.batch.resize(f.spec.senders.size());
  for (u32 i = 0; i < f.spec.senders.size(); ++i)
    for (u32 j = 0; j < f.spec.receivers.size(); ++j)
      for (u32 t = 0; t < tokens_per_pair; ++t) {
        const u64 payload =
            (static_cast<u64>(i) << 40) | (static_cast<u64>(j) << 16) | t;
        f.batch[i].push_back({f.spec.senders[i], f.spec.receivers[j], t,
                              payload});
        if (t == 0)
          f.expected[{f.spec.senders[i], f.spec.receivers[j]}] = payload;
      }
  return f;
}

void verify_delivery(const routing_fixture& f,
                     const std::vector<std::vector<routed_token>>& got) {
  ASSERT_EQ(got.size(), f.spec.receivers.size());
  u64 total_expected = 0;
  for (const auto& b : f.batch) total_expected += b.size();
  u64 total_got = 0;
  for (u32 ri = 0; ri < got.size(); ++ri) {
    for (const routed_token& t : got[ri]) {
      EXPECT_EQ(t.receiver, f.spec.receivers[ri]);
      if (t.index == 0) {
        auto it = f.expected.find({t.sender, t.receiver});
        ASSERT_NE(it, f.expected.end());
        EXPECT_EQ(t.payload, it->second) << t.sender << "->" << t.receiver;
      }
      ++total_got;
    }
  }
  EXPECT_EQ(total_got, total_expected);
}

class TokenRoutingProperty
    : public ::testing::TestWithParam<std::tuple<int, u64>> {};

TEST_P(TokenRoutingProperty, AllTokensDeliveredIntact) {
  const auto [kind, seed] = GetParam();
  routing_fixture f = make_fixture(256, 1.0 / 8, 1.0 / 8, 1, seed, kind);
  hybrid_net net(f.g, cfg(), seed);
  const auto got = run_token_routing(net, f.spec, f.batch);
  verify_delivery(f, got);
  // Lemma D.2: receive load O(log n) — a small multiple of γ.
  EXPECT_LE(net.raw_metrics().max_global_recv_per_round,
            4 * net.global_cap());
}

INSTANTIATE_TEST_SUITE_P(Cases, TokenRoutingProperty,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(11u, 12u, 13u)));

TEST(TokenRouting, TrivialSenderSideAllNodes) {
  // The APSP shape: S = V (p_s = 1 ⇒ µ_s = 1), R small.
  routing_fixture f = make_fixture(128, 1.0, 1.0 / 16, 1, 3);
  hybrid_net net(f.g, cfg(), 3);
  const auto got = run_token_routing(net, f.spec, f.batch);
  verify_delivery(f, got);
}

TEST(TokenRouting, MultipleTokensPerPair) {
  routing_fixture f = make_fixture(128, 1.0 / 8, 1.0 / 8, 3, 5);
  hybrid_net net(f.g, cfg(), 5);
  const auto got = run_token_routing(net, f.spec, f.batch);
  verify_delivery(f, got);
}

TEST(TokenRouting, SelfTokensDeliveredLocally) {
  const graph g = gen::path(32);
  routing_spec spec;
  spec.senders = {5};
  spec.receivers = {5, 9};
  spec.k_s = 2;
  spec.k_r = 2;
  std::vector<std::vector<routed_token>> batch(1);
  batch[0].push_back({5, 5, 0, 111});
  batch[0].push_back({5, 9, 0, 222});
  hybrid_net net(g, cfg(), 1);
  const auto got = run_token_routing(net, spec, batch);
  ASSERT_EQ(got[0].size(), 1u);
  EXPECT_EQ(got[0][0].payload, 111u);
  ASSERT_EQ(got[1].size(), 1u);
  EXPECT_EQ(got[1][0].payload, 222u);
}

TEST(TokenRouting, EmptyBatchIsFree) {
  const graph g = gen::path(32);
  routing_spec spec;
  spec.senders = {1};
  spec.receivers = {2};
  hybrid_net net(g, cfg(), 1);
  routing_context ctx = build_routing_context(net, spec);
  const u64 setup = net.round();
  const auto got =
      route_tokens(net, ctx, std::vector<std::vector<routed_token>>(1));
  EXPECT_EQ(net.round(), setup);
  EXPECT_TRUE(got[0].empty());
}

TEST(TokenRouting, ContextReuseAcrossBatches) {
  // The clique-embedding pattern: one context, many batches.
  routing_fixture f = make_fixture(128, 1.0 / 8, 1.0 / 8, 1, 9);
  hybrid_net net(f.g, cfg(), 9);
  routing_context ctx = build_routing_context(net, f.spec);
  for (int round = 0; round < 3; ++round) {
    auto batch = f.batch;
    for (auto& tokens : batch)
      for (auto& t : tokens) t.index = round;  // fresh labels per batch
    const auto got = route_tokens(net, ctx, batch);
    u64 total = 0;
    for (const auto& d : got) total += d.size();
    u64 expected = 0;
    for (const auto& b : f.batch) expected += b.size();
    EXPECT_EQ(total, expected) << "batch " << round;
  }
}

TEST(TokenRouting, RejectsForeignTokens) {
  const graph g = gen::path(16);
  routing_spec spec;
  spec.senders = {1};
  spec.receivers = {2};
  spec.k_s = 1;
  spec.k_r = 1;
  std::vector<std::vector<routed_token>> batch(1);
  batch[0].push_back({3, 2, 0, 1});  // sender mismatch
  hybrid_net net(g, cfg(), 1);
  EXPECT_THROW(run_token_routing(net, spec, batch), std::invalid_argument);
}

TEST(TokenRouting, RejectsUnknownReceiver) {
  const graph g = gen::path(16);
  routing_spec spec;
  spec.senders = {1};
  spec.receivers = {2};
  spec.k_s = 1;
  spec.k_r = 1;
  for (u32 receiver : {7u, 99u}) {  // not a receiver; not even a node
    std::vector<std::vector<routed_token>> batch(1);
    batch[0].push_back({1, receiver, 0, 1});
    hybrid_net net(g, cfg(), 1);
    EXPECT_THROW(run_token_routing(net, spec, batch), std::invalid_argument)
        << "receiver " << receiver;
  }
}

TEST(TokenRouting, RoundsScaleWithLoadNotTokens) {
  // Theorem 2.2: K/n + √k_S + √k_R — doubling tokens-per-pair must not
  // double the rounds once µ absorbs the load.
  routing_fixture f1 = make_fixture(256, 1.0 / 8, 1.0 / 8, 1, 21);
  routing_fixture f4 = make_fixture(256, 1.0 / 8, 1.0 / 8, 4, 21);
  u64 r1, r4;
  {
    hybrid_net net(f1.g, cfg(), 2);
    run_token_routing(net, f1.spec, f1.batch);
    r1 = net.round();
  }
  {
    hybrid_net net(f4.g, cfg(), 2);
    run_token_routing(net, f4.spec, f4.batch);
    r4 = net.round();
  }
  EXPECT_LT(r4, 3 * r1) << "4x tokens must cost far less than 4x rounds";
}

// ---- charged stand-in (DESIGN.md deviation 9) -------------------------------

TEST(ChargedTokenRouting, DeliversIdenticalContentToSimulatedPath) {
  // The stand-in changes accounting, never results: per receiver, the same
  // token multiset arrives (the simulated path's order is unspecified, so
  // compare sorted).
  for (u64 seed : {11u, 12u}) {
    routing_fixture f = make_fixture(192, 1.0, 1.0 / 12, 1, seed);
    std::vector<std::vector<routed_token>> simulated, charged;
    {
      hybrid_net net(f.g, cfg(), seed);
      simulated = run_token_routing(net, f.spec, f.batch);
    }
    model_config c = cfg();
    c.charged_token_routing = true;
    hybrid_net net(f.g, c, seed);
    charged = run_token_routing(net, f.spec, f.batch);
    EXPECT_GT(net.round(), 0u);
    EXPECT_GT(net.raw_metrics().global_messages, 0u);
    ASSERT_EQ(charged.size(), simulated.size());
    auto key = [](const routed_token& a, const routed_token& b) {
      return std::tie(a.sender, a.receiver, a.index, a.payload) <
             std::tie(b.sender, b.receiver, b.index, b.payload);
    };
    for (u32 ri = 0; ri < charged.size(); ++ri) {
      auto want = simulated[ri];
      std::sort(want.begin(), want.end(), key);
      ASSERT_EQ(charged[ri].size(), want.size()) << "receiver " << ri;
      for (u32 k = 0; k < want.size(); ++k) {
        EXPECT_EQ(charged[ri][k].sender, want[k].sender);
        EXPECT_EQ(charged[ri][k].payload, want[k].payload);
      }
    }
  }
}

TEST(ChargedTokenRouting, ValidatesLikeSimulatedPath) {
  const graph g = gen::path(16);
  model_config c = cfg();
  c.charged_token_routing = true;
  routing_spec spec;
  spec.senders = {1};
  spec.receivers = {2};
  spec.k_s = 1;
  spec.k_r = 1;
  {
    std::vector<std::vector<routed_token>> batch(1);
    batch[0].push_back({3, 2, 0, 1});  // sender mismatch
    hybrid_net net(g, c, 1);
    EXPECT_THROW(run_token_routing(net, spec, batch), std::invalid_argument);
  }
  for (u32 receiver : {7u, 99u}) {  // not a receiver; not even a node
    std::vector<std::vector<routed_token>> batch(1);
    batch[0].push_back({1, receiver, 0, 1});
    hybrid_net net(g, c, 1);
    EXPECT_THROW(run_token_routing(net, spec, batch), std::invalid_argument)
        << "receiver " << receiver;
  }
}

TEST(ChargedTokenRouting, ChargesDeterministically) {
  // Same inputs → identical charged rounds/messages (the closed form is a
  // pure function of (n, γ, µ, K)); a second identical run must agree.
  routing_fixture f = make_fixture(160, 1.0, 1.0 / 10, 1, 7);
  model_config c = cfg();
  c.charged_token_routing = true;
  u64 rounds[2], msgs[2];
  for (int i = 0; i < 2; ++i) {
    hybrid_net net(f.g, c, 7);
    run_token_routing(net, f.spec, f.batch);
    rounds[i] = net.round();
    msgs[i] = net.raw_metrics().global_messages;
  }
  EXPECT_EQ(rounds[0], rounds[1]);
  EXPECT_EQ(msgs[0], msgs[1]);
}

}  // namespace
}  // namespace hybrid
