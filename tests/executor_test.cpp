// Tests for the parallel round executor and its determinism contract
// (docs/CONCURRENCY.md): sharding coverage, reductions, exception
// propagation, thread-count-invariant simulation outputs, and a
// TSAN-friendly stress of concurrent γ-budget accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "core/apsp.hpp"
#include "core/sssp.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "proto/dissemination.hpp"
#include "sim/executor.hpp"
#include "sim/hybrid_net.hpp"

namespace hybrid {
namespace {

TEST(ResolveThreads, ExplicitKnobWins) {
  EXPECT_EQ(resolve_threads(sim_options{3}), 3u);
  EXPECT_EQ(resolve_threads(sim_options{1}), 1u);
}

TEST(ResolveThreads, EnvOverrideWhenAuto) {
  setenv("HYBRID_THREADS", "5", 1);
  EXPECT_EQ(resolve_threads(sim_options{}), 5u);
  EXPECT_EQ(resolve_threads(sim_options{2}), 2u);  // explicit still wins
  setenv("HYBRID_THREADS", "garbage", 1);
  EXPECT_GE(resolve_threads(sim_options{}), 1u);  // falls through to auto
  unsetenv("HYBRID_THREADS");
  EXPECT_GE(resolve_threads(sim_options{}), 1u);
}

TEST(RoundExecutor, EveryNodeRunsExactlyOnce) {
  for (u32 threads : {1u, 2u, 8u}) {
    round_executor exec(sim_options{threads});
    const u32 n = 1000;
    std::vector<u32> count(n, 0);
    exec.for_nodes(n, [&](u32 v) { ++count[v]; });  // node-private writes
    for (u32 v = 0; v < n; ++v) EXPECT_EQ(count[v], 1u) << "node " << v;
  }
}

TEST(RoundExecutor, ShardsPartitionTheRange) {
  round_executor exec(sim_options{4});
  const u32 n = 103;  // not a multiple of the thread count
  std::vector<std::atomic<u32>> hits(n);
  std::vector<std::atomic<u32>> shard_hits(4);
  exec.for_shards(n, [&](u32 shard, u32 begin, u32 end) {
    ASSERT_LT(begin, end);
    ASSERT_LT(shard, 4u);
    ++shard_hits[shard];
    for (u32 v = begin; v < end; ++v) ++hits[v];
  });
  for (u32 v = 0; v < n; ++v) EXPECT_EQ(hits[v].load(), 1u);
  for (u32 s = 0; s < 4; ++s) EXPECT_EQ(shard_hits[s].load(), 1u);
}

TEST(RoundExecutor, NestedDispatchIsRejected) {
  round_executor exec(sim_options{4});
  EXPECT_THROW(
      exec.for_nodes(64, [&](u32) { exec.sum_nodes(4, [](u32) -> u64 { return 1; }); }),
      std::invalid_argument);
  // The pool recovers for subsequent (well-formed) jobs.
  EXPECT_EQ(exec.sum_nodes(10, [](u32) -> u64 { return 1; }), 10u);
}

TEST(RoundExecutor, SumMatchesSequential) {
  for (u32 threads : {1u, 3u, 8u}) {
    round_executor exec(sim_options{threads});
    const u64 got =
        exec.sum_nodes(1234, [](u32 v) -> u64 { return u64{v} * v; });
    u64 want = 0;
    for (u64 v = 0; v < 1234; ++v) want += v * v;
    EXPECT_EQ(got, want) << threads << " threads";
  }
}

TEST(RoundExecutor, MaxMatchesSequentialAndIsThreadInvariant) {
  auto term = [](u32 v) -> u64 { return (u64{v} * 2654435761u) % 10007; };
  u64 want = 0;
  for (u32 v = 0; v < 1234; ++v) want = std::max(want, term(v));
  for (u32 threads : {1u, 3u, 8u}) {
    round_executor exec(sim_options{threads});
    EXPECT_EQ(exec.max_nodes(1234, term), want) << threads << " threads";
    EXPECT_EQ(exec.max_nodes(0, term), 0u);
  }
}

TEST(RoundExecutor, ShardPartitionHelpersMatchDispatch) {
  round_executor exec(sim_options{4});
  for (u32 n : {1u, 3u, 4u, 5u, 103u}) {
    const u32 shards = exec.shard_count(n);
    EXPECT_EQ(shards, std::min(4u, n));
    EXPECT_EQ(exec.shard_begin(n, 0), 0u);
    EXPECT_EQ(exec.shard_begin(n, shards), n);  // partition covers [0, n)
    // The ranges for_shards actually dispatches are exactly these.
    std::vector<std::pair<u32, u32>> seen(shards, {~0u, ~0u});
    exec.for_shards(n, [&](u32 s, u32 begin, u32 end) {
      seen[s] = {begin, end};
    });
    for (u32 s = 0; s < shards; ++s) {
      const u32 begin = exec.shard_begin(n, s);
      const u32 end = exec.shard_begin(n, s + 1);
      if (begin < end)
        EXPECT_EQ(seen[s], std::make_pair(begin, end)) << "n=" << n;
      else
        EXPECT_EQ(seen[s].first, ~0u) << "empty shard was dispatched";
    }
  }
}

TEST(RoundExecutor, AnyNode) {
  round_executor exec(sim_options{4});
  EXPECT_TRUE(exec.any_node(100, [](u32 v) { return v == 99; }));
  EXPECT_FALSE(exec.any_node(100, [](u32) { return false; }));
  EXPECT_FALSE(exec.any_node(0, [](u32) { return true; }));
}

TEST(RoundExecutor, ExceptionsPropagateThroughTheBarrier) {
  for (u32 threads : {1u, 4u}) {
    round_executor exec(sim_options{threads});
    EXPECT_THROW(exec.for_nodes(64,
                                [](u32 v) {
                                  if (v == 33) throw std::runtime_error("boom");
                                }),
                 std::runtime_error);
    // The pool survives a throwing job.
    EXPECT_EQ(exec.sum_nodes(10, [](u32) -> u64 { return 1; }), 10u);
  }
}

TEST(RoundExecutor, ReusableAcrossManyJobs) {
  round_executor exec(sim_options{4});
  u64 total = 0;
  for (u32 i = 0; i < 200; ++i)
    total += exec.sum_nodes(64, [](u32) -> u64 { return 1; });
  EXPECT_EQ(total, 200u * 64);
}

// ---- determinism across thread counts ------------------------------------

TEST(Determinism, SsspIdenticalAcrossThreadCounts) {
  const graph g = gen::erdos_renyi_connected(256, 6.0, 16, 42);
  const auto ref = dijkstra(g, 0);
  sssp_result base;
  for (u32 threads : {1u, 2u, 8u}) {
    const sssp_result res =
        hybrid_sssp_exact(g, model_config{}, 7, 0, sim_options{threads});
    for (u32 v = 0; v < 256; ++v)
      ASSERT_EQ(res.dist[v], ref[v]) << "wrong distance at " << threads;
    if (threads == 1) {
      base = res;
      continue;
    }
    EXPECT_EQ(res.dist, base.dist) << threads << " threads";
    EXPECT_EQ(res.metrics.rounds, base.metrics.rounds);
    EXPECT_EQ(res.metrics.global_messages, base.metrics.global_messages);
    EXPECT_EQ(res.metrics.global_payload_words,
              base.metrics.global_payload_words);
    EXPECT_EQ(res.metrics.local_items, base.metrics.local_items);
    EXPECT_EQ(res.metrics.max_global_recv_per_round,
              base.metrics.max_global_recv_per_round);
    EXPECT_EQ(res.skeleton_size, base.skeleton_size);
  }
}

TEST(Determinism, ApspIdenticalAcrossThreadCounts) {
  const graph g = gen::erdos_renyi_connected(96, 5.0, 8, 13);
  apsp_result base;
  std::vector<std::vector<u64>> base_dist;
  std::vector<std::vector<u32>> base_hops;
  for (u32 threads : {1u, 2u, 8u}) {
    apsp_result res = hybrid_apsp_exact(g, model_config{}, 11,
                                        /*build_routes=*/true,
                                        sim_options{threads});
    round_executor ex(sim_options{threads});
    auto dist = res.labels.materialize(ex);
    auto hops = res.labels.materialize_next_hops(dist, ex);
    if (threads == 1) {
      // Ground truth once: the simulated distances are exact.
      for (u32 u = 0; u < 96; ++u) {
        const auto ref = dijkstra(g, u);
        ASSERT_EQ(dist[u], ref) << "source " << u;
      }
      base = std::move(res);
      base_dist = std::move(dist);
      base_hops = std::move(hops);
      continue;
    }
    EXPECT_EQ(dist, base_dist) << threads << " threads";
    EXPECT_EQ(hops, base_hops);
    EXPECT_EQ(res.metrics.rounds, base.metrics.rounds);
    EXPECT_EQ(res.metrics.global_messages, base.metrics.global_messages);
    EXPECT_EQ(res.metrics.local_items, base.metrics.local_items);
    EXPECT_EQ(res.metrics.max_global_recv_per_round,
              base.metrics.max_global_recv_per_round);
  }
}

TEST(Determinism, DisseminationIdenticalAcrossThreadCounts) {
  const graph g = gen::erdos_renyi_connected(128, 5.0, 1, 23);
  auto run = [&](u32 threads) {
    hybrid_net net(g, model_config{}, 99, sim_options{threads});
    std::vector<std::vector<token2>> initial(128);
    for (u32 t = 0; t < 96; ++t) initial[(t * 7) % 128].push_back({t, t ^ 5});
    const dissemination_result res = disseminate(net, std::move(initial));
    return std::make_pair(res.rounds_used, net.snapshot());
  };
  const auto [rounds1, m1] = run(1);
  const auto [rounds2, m2] = run(2);
  const auto [rounds8, m8] = run(8);
  EXPECT_EQ(rounds1, rounds2);
  EXPECT_EQ(rounds1, rounds8);
  EXPECT_EQ(m1.global_messages, m2.global_messages);
  EXPECT_EQ(m1.global_messages, m8.global_messages);
  EXPECT_EQ(m1.local_items, m8.local_items);
  EXPECT_EQ(m1.max_global_recv_per_round, m8.max_global_recv_per_round);
}

TEST(Determinism, RoundRngDependsOnlyOnSeedNodeRound) {
  const graph g = gen::path(16);
  hybrid_net a(g, model_config{}, 5), b(g, model_config{}, 5);
  // Same (seed, node, round) → same stream, regardless of draw history.
  (void)a.round_rng(3).next();  // draws do not advance the derived stream
  EXPECT_EQ(a.round_rng(3).next(), b.round_rng(3).next());
  EXPECT_NE(a.round_rng(3).next(), a.round_rng(4).next());
  a.advance_round();
  EXPECT_NE(a.round_rng(3).next(), b.round_rng(3).next());  // round moved
  b.advance_round();
  EXPECT_EQ(a.round_rng(3).next(), b.round_rng(3).next());
}

// ---- TSAN-friendly stress of concurrent budget accounting ----------------
// Every node spends its entire γ budget each round from a parallel step;
// under ThreadSanitizer this exercises try_send_global / global_budget /
// advance_round for races, and in any build it checks that per-src budgets
// and delivery-time metric accounting stay exact under concurrency.

TEST(StressConcurrency, GlobalBudgetAccountingUnderParallelSends) {
  const u32 n = 512;
  const graph g = gen::erdos_renyi_connected(n, 4.0, 1, 3);
  const u32 rounds = 25;
  run_metrics base;
  for (u32 threads : {1u, 8u}) {
    hybrid_net net(g, model_config{}, 77, sim_options{threads});
    const u32 cap = net.global_cap();
    for (u32 r = 0; r < rounds; ++r) {
      net.executor().for_nodes(n, [&](u32 v) {
        rng rv = net.round_rng(v);
        // Spend the whole budget; the cap must hold exactly.
        u32 sent = 0;
        while (net.global_budget(v) > 0) {
          const u32 dst = static_cast<u32>(rv.next_below(n));
          ASSERT_TRUE(net.try_send_global(
              global_msg::make(v, dst, 1, {u64{v} << 32 | r})));
          ++sent;
        }
        ASSERT_EQ(sent, cap);
        ASSERT_FALSE(
            net.try_send_global(global_msg::make(v, 0, 1, {u64{9}})));
      });
      net.advance_round();
      // Every enqueued message was delivered somewhere.
      const u64 delivered = net.executor().sum_nodes(
          n, [&](u32 v) -> u64 { return net.global_inbox(v).size(); });
      ASSERT_EQ(delivered, u64{n} * cap);
    }
    const run_metrics m = net.snapshot();
    EXPECT_EQ(m.global_messages, u64{n} * cap * rounds);
    EXPECT_EQ(m.rounds, rounds);
    if (threads == 1)
      base = m;
    else {
      EXPECT_EQ(m.global_messages, base.global_messages);
      EXPECT_EQ(m.global_payload_words, base.global_payload_words);
      EXPECT_EQ(m.max_global_recv_per_round, base.max_global_recv_per_round);
    }
  }
}

}  // namespace
}  // namespace hybrid
