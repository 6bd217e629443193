// Tests for the HYBRID and CLIQUE simulators: round lifecycle, cap
// enforcement, receive-load recording, cut accounting, determinism.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "proto/flood.hpp"
#include "sim/clique_net.hpp"
#include "sim/hybrid_net.hpp"

namespace hybrid {
namespace {

model_config default_cfg() { return model_config{}; }

TEST(HybridNet, GlobalCapScalesWithLogN) {
  const graph g = gen::path(1024);
  hybrid_net net(g, default_cfg(), 1);
  EXPECT_EQ(net.global_cap(), 4u * 10);  // γ = 4·log2(1024)
}

TEST(HybridNet, MessageDeliveryNextRound) {
  const graph g = gen::path(4);
  hybrid_net net(g, default_cfg(), 1);
  EXPECT_TRUE(net.try_send_global(global_msg::make(0, 3, 7, {42})));
  EXPECT_TRUE(net.global_inbox(3).empty());  // not yet delivered
  net.advance_round();
  ASSERT_EQ(net.global_inbox(3).size(), 1u);
  EXPECT_EQ(net.global_inbox(3)[0].w[0], 42u);
  EXPECT_EQ(net.global_inbox(3)[0].src, 0u);
  net.advance_round();
  EXPECT_TRUE(net.global_inbox(3).empty());  // inbox cleared next round
}

TEST(HybridNet, SendCapEnforced) {
  const graph g = gen::path(8);
  hybrid_net net(g, default_cfg(), 1);
  const u32 cap = net.global_cap();
  for (u32 i = 0; i < cap; ++i)
    EXPECT_TRUE(net.try_send_global(global_msg::make(0, 1, 0, {i})));
  EXPECT_FALSE(net.try_send_global(global_msg::make(0, 1, 0, {99})));
  EXPECT_EQ(net.global_budget(0), 0u);
  net.advance_round();
  EXPECT_EQ(net.global_budget(0), cap);  // budget resets per round
}

TEST(HybridNet, PayloadCapEnforced) {
  const graph g = gen::path(4);
  model_config cfg;
  cfg.max_payload_words = 2;
  hybrid_net net(g, cfg, 1);
  global_msg m = global_msg::make(0, 1, 0, {1, 2, 3});
  EXPECT_THROW(net.try_send_global(m), std::logic_error);
}

TEST(HybridNet, ReceiveLoadRecorded) {
  const graph g = gen::path(16);
  hybrid_net net(g, default_cfg(), 1);
  for (u32 v = 1; v <= 5; ++v)
    net.try_send_global(global_msg::make(v, 0, 0, {v}));
  net.advance_round();
  EXPECT_EQ(net.raw_metrics().max_global_recv_per_round, 5u);
}

TEST(HybridNet, CutAccountingCountsCrossingBitsOnly) {
  const graph g = gen::path(8);
  hybrid_net net(g, default_cfg(), 1);
  std::vector<u8> side(8, 0);
  for (u32 v = 4; v < 8; ++v) side[v] = 1;
  net.set_cut(side);
  net.try_send_global(global_msg::make(0, 1, 0, {1}));     // same side
  net.try_send_global(global_msg::make(0, 7, 0, {1, 2}));  // crosses
  net.advance_round();
  // crossing message: 2 payload words + 2·log2(8)-bit header
  EXPECT_EQ(net.raw_metrics().cut_bits, 2u * 64 + 2u * 3);
}

// A model_config cut is registered at construction like set_cut, and
// rejected like set_cut when it does not label every node: ignoring it
// would leave cut_bits at 0 with no error.
TEST(HybridNet, ConfigCutMustLabelEveryNode) {
  const graph g = gen::path(8);
  model_config cfg = default_cfg();
  cfg.cut_side.assign(7, 0);
  EXPECT_THROW(hybrid_net(g, cfg, 1), std::invalid_argument);
  cfg.cut_side.assign(8, 0);
  cfg.cut_side[7] = 1;
  hybrid_net net(g, cfg, 1);
  net.try_send_global(global_msg::make(0, 7, 0, {1}));
  net.advance_round();
  EXPECT_EQ(net.raw_metrics().cut_bits, 64u + 2u * 3);
}

TEST(HybridNet, PhasesPartitionRounds) {
  const graph g = gen::path(4);
  hybrid_net net(g, default_cfg(), 1);
  net.begin_phase("a");
  net.advance_round();
  net.advance_round();
  net.begin_phase("b");
  net.advance_round();
  const run_metrics m = net.snapshot();
  ASSERT_EQ(m.phases.size(), 2u);
  EXPECT_EQ(m.phases[0].name, "a");
  EXPECT_EQ(m.phases[0].rounds, 2u);
  EXPECT_EQ(m.phases[1].rounds, 1u);
  EXPECT_EQ(m.rounds, 3u);
}

TEST(HybridNet, NodeRngDeterministicPerSeed) {
  const graph g = gen::path(4);
  hybrid_net a(g, default_cfg(), 5), b(g, default_cfg(), 5), c(g, default_cfg(), 6);
  EXPECT_EQ(a.node_rng(2).next(), b.node_rng(2).next());
  EXPECT_NE(a.node_rng(3).next(), c.node_rng(3).next());
}

TEST(HybridNet, LocalChargeAccumulates) {
  const graph g = gen::path(4);
  hybrid_net net(g, default_cfg(), 1);
  net.charge_local(10);
  net.charge_local(5);
  EXPECT_EQ(net.raw_metrics().local_items, 15u);
}

TEST(HybridNet, RejectsTinyGraphs) {
  const graph g = graph::from_edges(1, std::vector<edge_spec>{});
  EXPECT_THROW(hybrid_net(g, default_cfg(), 1), std::invalid_argument);
}

TEST(MetricsAbsorb, MergesCountersAndPhases) {
  run_metrics a, b;
  a.rounds = 5;
  a.max_global_recv_per_round = 3;
  a.phases.push_back({"x", 5, 0});
  b.rounds = 7;
  b.max_global_recv_per_round = 9;
  b.cut_bits = 11;
  a.absorb(b);
  EXPECT_EQ(a.rounds, 12u);
  EXPECT_EQ(a.max_global_recv_per_round, 9u);
  EXPECT_EQ(a.cut_bits, 11u);
}

TEST(MetricsAbsorb, SumsLocalLedgerCounters) {
  run_metrics a, b;
  a.local_items = 10;
  a.local_delivered = 8;
  a.local_dropped = 2;
  b.local_items = 5;
  b.local_delivered = 5;
  a.absorb(b);
  EXPECT_EQ(a.local_items, 15u);
  EXPECT_EQ(a.local_delivered, 13u);
  EXPECT_EQ(a.local_dropped, 2u);
  EXPECT_EQ(a.local_items, a.local_delivered + a.local_dropped);
}

TEST(CliqueNet, FullExchangeWithinCaps) {
  clique_net net(8);
  for (u32 i = 0; i < 8; ++i)
    for (u32 j = 0; j < 8; ++j) {
      clique_msg m;
      m.src = i;
      m.dst = j;
      m.w[0] = i * 100 + j;
      m.nw = 1;
      net.send(m);
    }
  net.advance_round();
  for (u32 j = 0; j < 8; ++j) EXPECT_EQ(net.inbox(j).size(), 8u);
  EXPECT_EQ(net.max_recv_per_round(), 8u);
  EXPECT_EQ(net.total_messages(), 64u);
}

TEST(CliqueNet, SendCapIsN) {
  clique_net net(4);
  clique_msg m;
  m.src = 0;
  m.dst = 1;
  for (u32 i = 0; i < 4; ++i) net.send(m);
  EXPECT_THROW(net.send(m), std::logic_error);
}

// Metrics regression (docs/FAULTS.md): sent == delivered + dropped on both
// simulators, with fault injection off (dropped pinned at 0) and on.
TEST(HybridNet, SentEqualsDeliveredPlusDroppedFaultsOff) {
  const graph g = gen::path(16);
  hybrid_net net(g, default_cfg(), 3);
  for (u32 r = 0; r < 5; ++r) {
    for (u32 v = 0; v < 16; ++v)
      net.try_send_global(global_msg::make(v, (v + r + 1) % 16, r, {v}));
    net.advance_round();
  }
  const run_metrics& m = net.raw_metrics();
  EXPECT_EQ(m.global_dropped, 0u);
  EXPECT_EQ(m.global_sent, m.global_messages);
  EXPECT_EQ(m.global_sent, u64{5} * 16);
}

TEST(HybridNet, SentEqualsDeliveredPlusDroppedFaultsOn) {
  const graph g = gen::path(16);
  sim_options opts;
  opts.threads = 2;
  opts.faults.drop_global = 0.4;
  opts.faults.fault_seed = 7;
  hybrid_net net(g, default_cfg(), 3, opts);
  for (u32 r = 0; r < 8; ++r) {
    for (u32 v = 0; v < 16; ++v)
      net.try_send_global(global_msg::make(v, (v + r + 1) % 16, r, {v}));
    net.advance_round();
  }
  const run_metrics& m = net.raw_metrics();
  EXPECT_EQ(m.global_sent, u64{8} * 16);
  EXPECT_EQ(m.global_sent, m.global_messages + m.global_dropped);
  EXPECT_GT(m.global_dropped, 0u);
  u64 delivered = 0;
  for (u32 v = 0; v < 16; ++v) delivered += net.global_inbox(v).size();
  // Last round's inboxes agree with the per-round slice of the invariant.
  EXPECT_LE(delivered, u64{16});
}

TEST(CliqueNet, SentEqualsDeliveredPlusDropped) {
  auto exchange = [](clique_net& net) {
    for (u32 r = 0; r < 4; ++r) {
      for (u32 i = 0; i < 8; ++i)
        for (u32 j = 0; j < 8; ++j) {
          clique_msg m;
          m.src = i;
          m.dst = j;
          m.w[0] = r;
          m.nw = 1;
          net.send(m);
        }
      net.advance_round();
    }
  };
  clique_net off(8);
  exchange(off);
  EXPECT_EQ(off.total_dropped(), 0u);
  EXPECT_EQ(off.total_sent(), off.total_messages());
  EXPECT_EQ(off.total_sent(), u64{4} * 64);

  sim_options opts;
  opts.faults.drop_global = 0.3;
  opts.faults.fault_seed = 5;
  clique_net on(8, opts);
  exchange(on);
  EXPECT_EQ(on.total_sent(), u64{4} * 64);
  EXPECT_EQ(on.total_sent(), on.total_messages() + on.total_dropped());
  EXPECT_GT(on.total_dropped(), 0u);
}

// Local-plane ledger (docs/FAULTS.md §2): local_items == local_delivered +
// local_dropped. Faults off exercises the reliable paths — including the
// early-exit branch of truncated_eccentricity, which stops flooding before
// its nominal budget and must not leave charged items unaccounted.
TEST(HybridNet, LocalLedgerBalancesFaultsOff) {
  const graph g = gen::path(8);  // diameter 7 << rounds: early exit fires
  hybrid_net net(g, default_cfg(), 3);
  const std::vector<u32> ecc = truncated_eccentricity(net, 32);
  EXPECT_EQ(ecc[0], 7u);
  EXPECT_EQ(ecc[4], 4u);
  const run_metrics& m = net.raw_metrics();
  EXPECT_GT(m.local_items, 0u);
  EXPECT_EQ(m.local_dropped, 0u);
  EXPECT_EQ(m.local_items, m.local_delivered + m.local_dropped);
}

TEST(HybridNet, LocalLedgerBalancesFaultsOn) {
  const graph g = gen::path(12);
  sim_options opts;
  opts.threads = 2;
  opts.faults.drop_local = 0.3;
  opts.faults.fault_seed = 9;
  hybrid_net net(g, default_cfg(), 3, opts);
  const auto heard = hop_discovery(net, {0, 11}, 11);
  for (u32 v = 0; v < 12; ++v) ASSERT_EQ(heard[v].size(), 2u) << v;
  const run_metrics& m = net.raw_metrics();
  EXPECT_GT(m.local_dropped, 0u);
  EXPECT_EQ(m.local_items, m.local_delivered + m.local_dropped);
}

}  // namespace
}  // namespace hybrid
