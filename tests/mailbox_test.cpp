// Tests for the flat-arena mailbox delivery path (sim/mailbox.hpp):
// (src, send-index) inbox ordering, bit-identical delivery and receive-load
// metrics across thread counts, arena reuse (no heap growth after warm-up,
// probed via mailbox stats), γ-cap saturation on the flat outbox, the
// clique mirror's overflow/re-stride path, the slot-range guard, and the
// delivery contract against a sequential reference (reading an inbox while
// sending, re-strides, trim(), drops). Run under -fsanitize=thread this
// suite doubles as a race detector for the parallel counting sort (the TSAN
// CI job does exactly that).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "graph/generators.hpp"
#include "sim/clique_net.hpp"
#include "sim/hybrid_net.hpp"
#include "util/rng.hpp"

namespace hybrid {
namespace {

// Order-sensitive digest of one inbox (FNV-style fold), so two runs agree
// iff contents AND order agree. Takes mailbox views and plain vectors alike.
template <class Box>
u64 inbox_digest(const Box& box) {
  u64 h = 1469598103934665603ull;
  auto mix = [&](u64 x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  for (const auto& m : box) {
    mix(m.src);
    mix(m.dst);
    mix(m.tag);
    mix(m.nw);
    for (u8 i = 0; i < m.nw; ++i) mix(m.w[i]);
  }
  return h;
}

TEST(FlatMailbox, InboxSortedBySrcThenSendIndex) {
  const graph g = gen::path(8);
  hybrid_net net(g, model_config{}, 1);
  // Enqueue in scrambled source order; within each source, send order is
  // the tag sequence.
  EXPECT_TRUE(net.try_send_global(global_msg::make(5, 2, /*tag=*/50, {})));
  EXPECT_TRUE(net.try_send_global(global_msg::make(1, 2, 10, {})));
  EXPECT_TRUE(net.try_send_global(global_msg::make(5, 2, 51, {})));
  EXPECT_TRUE(net.try_send_global(global_msg::make(0, 2, 0, {})));
  EXPECT_TRUE(net.try_send_global(global_msg::make(1, 2, 11, {})));
  net.advance_round();
  const auto box = net.global_inbox(2);
  ASSERT_EQ(box.size(), 5u);
  const u32 want_src[] = {0, 1, 1, 5, 5};
  const u32 want_tag[] = {0, 10, 11, 50, 51};
  for (u32 i = 0; i < 5; ++i) {
    EXPECT_EQ(box[i].src, want_src[i]) << i;
    EXPECT_EQ(box[i].tag, want_tag[i]) << i;
  }
}

// A multi-round workload where every node sends a round_rng-chosen batch
// from inside a parallel step — the exact shape advance_round()'s counting
// sort must deliver identically at every thread count.
TEST(FlatMailbox, DeliveryBitIdenticalAcrossThreadCounts) {
  const u32 n = 257;  // prime-ish: exercises uneven shard tails
  const graph g = gen::erdos_renyi_connected(n, 4.0, 1, 11);
  const u32 rounds = 12;
  auto run = [&](u32 threads) {
    hybrid_net net(g, model_config{}, 31, sim_options{threads});
    std::vector<u64> digests;
    for (u32 r = 0; r < rounds; ++r) {
      net.executor().for_nodes(n, [&](u32 v) {
        rng rv = net.round_rng(v);
        const u32 k = static_cast<u32>(rv.next_below(net.global_cap() + 1));
        for (u32 i = 0; i < k; ++i) {
          const u32 dst = static_cast<u32>(rv.next_below(n));
          ASSERT_TRUE(net.try_send_global(
              global_msg::make(v, dst, i, {rv.next(), u64{v} << 32 | r})));
        }
      });
      net.advance_round();
      u64 round_digest = 0;
      for (u32 v = 0; v < n; ++v)
        round_digest ^= (v + 1) * inbox_digest(net.global_inbox(v));
      digests.push_back(round_digest);
    }
    return std::make_pair(digests, net.snapshot());
  };
  const auto [d1, m1] = run(1);
  for (u32 threads : {2u, 8u}) {
    const auto [dt, mt] = run(threads);
    EXPECT_EQ(dt, d1) << threads << " threads";
    EXPECT_EQ(mt.global_messages, m1.global_messages) << threads;
    EXPECT_EQ(mt.global_payload_words, m1.global_payload_words) << threads;
    EXPECT_EQ(mt.max_global_recv_per_round, m1.max_global_recv_per_round)
        << threads;
  }
}

TEST(FlatMailbox, ArenasStopGrowingAfterWarmup) {
  const u32 n = 128;
  const graph g = gen::erdos_renyi_connected(n, 4.0, 1, 7);
  hybrid_net net(g, model_config{}, 5, sim_options{2});
  auto saturate_round = [&](u32 r) {
    net.executor().for_nodes(n, [&](u32 v) {
      rng rv = net.round_rng(v);
      while (net.global_budget(v) > 0) {
        const u32 dst = static_cast<u32>(rv.next_below(n));
        net.try_send_global(global_msg::make(v, dst, r, {rv.next()}));
      }
    });
    net.advance_round();
  };
  for (u32 r = 0; r < 4; ++r) saturate_round(r);
  const mailbox_stats warm = net.global_mailbox_stats();
  // Slabs start small and re-stride to γ at the first barrier; the send
  // cap guarantees they never need to grow past γ.
  EXPECT_EQ(warm.stride, net.global_cap());
  EXPECT_GT(warm.overflow_messages, 0u);  // round 1 spilled, pre-re-stride
  for (u32 r = 4; r < 24; ++r) saturate_round(r);
  const mailbox_stats done = net.global_mailbox_stats();
  EXPECT_EQ(done.grow_events, warm.grow_events) << "arena grew after warm-up";
  EXPECT_EQ(done.inbox_slots, warm.inbox_slots);
  EXPECT_EQ(done.outbox_slots, warm.outbox_slots);
  EXPECT_EQ(done.overflow_messages, warm.overflow_messages)
      << "slab overflowed again after the re-stride";
  EXPECT_EQ(done.delivered_total, u64{24} * n * net.global_cap());
}

TEST(FlatMailbox, GammaCapSaturationOnFlatOutbox) {
  const u32 n = 64;
  const graph g = gen::path(n);
  hybrid_net net(g, model_config{}, 9, sim_options{4});
  const u32 cap = net.global_cap();
  net.executor().for_nodes(n, [&](u32 v) {
    for (u32 i = 0; i < cap; ++i)
      ASSERT_TRUE(net.try_send_global(
          global_msg::make(v, (v + i + 1) % n, i, {u64{v}})));
    ASSERT_EQ(net.global_budget(v), 0u);
    ASSERT_FALSE(net.try_send_global(global_msg::make(v, 0, 99, {})));
  });
  net.advance_round();
  u64 delivered = 0;
  for (u32 v = 0; v < n; ++v) {
    delivered += net.global_inbox(v).size();
    EXPECT_EQ(net.global_budget(v), cap);  // budget reset at the barrier
  }
  EXPECT_EQ(delivered, u64{n} * cap);
  EXPECT_EQ(net.raw_metrics().global_messages, u64{n} * cap);
  net.advance_round();
  for (u32 v = 0; v < n; ++v)
    EXPECT_TRUE(net.global_inbox(v).empty());  // cleared next round
}

TEST(FlatMailbox, CliqueOverflowRestridesOnceThenStaysFlat) {
  const u32 n = 64;
  const u32 per_node = 40;  // above the initial slab width of 16
  clique_net net(n, sim_options{2});
  auto full_round = [&] {
    net.executor().for_nodes(n, [&](u32 v) {
      for (u32 i = 0; i < per_node; ++i) {
        clique_msg m;
        m.src = v;
        m.dst = (v + i) % n;
        m.tag = i;
        net.send(m);
      }
    });
    net.advance_round();
  };
  full_round();
  const mailbox_stats first = net.mailbox_stats_probe();
  EXPECT_GT(first.overflow_messages, 0u);  // round 1 spilled past the slab
  EXPECT_GE(first.stride, per_node);       // ...and re-strided at the barrier
  full_round();
  full_round();
  const mailbox_stats later = net.mailbox_stats_probe();
  EXPECT_EQ(later.overflow_messages, first.overflow_messages)
      << "slab overflowed again after the re-stride";
  EXPECT_EQ(later.grow_events, first.grow_events);
  EXPECT_EQ(net.total_messages(), u64{3} * n * per_node);
  EXPECT_EQ(net.max_recv_per_round(), per_node);
  // Inboxes stay (src, send-index)-sorted through slab + overflow delivery.
  const auto box = net.inbox(0);
  ASSERT_EQ(box.size(), per_node);
  for (u32 i = 1; i < box.size(); ++i)
    EXPECT_LT(box[i - 1].src, box[i].src) << i;
}

TEST(FlatMailbox, CliqueDeliveryBitIdenticalAcrossThreadCounts) {
  const u32 n = 96;
  const u32 rounds = 6;
  auto run = [&](u32 threads) {
    clique_net net(n, sim_options{threads});
    std::vector<u64> digests;
    for (u32 r = 0; r < rounds; ++r) {
      net.executor().for_nodes(n, [&](u32 v) {
        rng rv(derive_seed(derive_seed(1234, v), r));
        const u32 k = static_cast<u32>(rv.next_below(n));
        for (u32 i = 0; i < k; ++i) {
          clique_msg m;
          m.src = v;
          m.dst = static_cast<u32>(rv.next_below(n));
          m.tag = i;
          m.w[0] = rv.next();
          m.nw = 1;
          net.send(m);
        }
      });
      net.advance_round();
      u64 round_digest = 0;
      for (u32 v = 0; v < n; ++v)
        round_digest ^= (v + 1) * inbox_digest(net.inbox(v));
      digests.push_back(round_digest);
    }
    return std::make_tuple(digests, net.total_messages(),
                           net.max_recv_per_round());
  };
  const auto base = run(1);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(8), base);
}

// Filtered delivery (the fault-injection drop path, sim/fault.hpp): the
// dual-pass counting sort must keep survivors in (src, send-index) order,
// deliver bit-identically at every thread count, and account sent/dropped
// consistently — specifically under sparse scatter, where most nodes send
// nothing and a rotating minority sends bursts, so shard tails see empty
// and dense source runs side by side.
TEST(FlatMailbox, FilteredSparseScatterKeepsOrderAcrossThreadCounts) {
  const u32 n = 257;
  const graph g = gen::erdos_renyi_connected(n, 4.0, 1, 11);
  const u32 rounds = 10;
  auto run = [&](u32 threads) {
    sim_options opts;
    opts.threads = threads;
    opts.faults.drop_global = 0.35;
    opts.faults.fault_seed = 13;
    hybrid_net net(g, model_config{}, 31, opts);
    std::vector<u64> digests;
    for (u32 r = 0; r < rounds; ++r) {
      net.executor().for_nodes(n, [&](u32 v) {
        if (v % 17 != r % 17) return;  // sparse: ~n/17 senders per round
        rng rv = net.round_rng(v);
        const u32 k = static_cast<u32>(rv.next_below(net.global_cap() + 1));
        for (u32 i = 0; i < k; ++i) {
          const u32 dst = static_cast<u32>(rv.next_below(n));
          ASSERT_TRUE(
              net.try_send_global(global_msg::make(v, dst, i, {rv.next()})));
        }
      });
      net.advance_round();
      u64 round_digest = 0;
      for (u32 v = 0; v < n; ++v) {
        const auto box = net.global_inbox(v);
        // Survivors keep (src, send-index) order: the tag is the per-source
        // send counter, so within one src it must stay strictly increasing
        // after the drops removed arbitrary positions.
        for (u32 i = 1; i < box.size(); ++i)
          EXPECT_TRUE(box[i - 1].src < box[i].src ||
                      (box[i - 1].src == box[i].src &&
                       box[i - 1].tag < box[i].tag))
              << "round " << r << " dst " << v << " pos " << i;
        round_digest ^= (v + 1) * inbox_digest(box);
      }
      digests.push_back(round_digest);
    }
    const run_metrics m = net.raw_metrics();
    return std::make_tuple(digests, m.global_sent, m.global_messages,
                           m.global_dropped);
  };
  const auto base = run(1);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(8), base);
  EXPECT_GT(std::get<3>(base), 0u);
  EXPECT_EQ(std::get<1>(base), std::get<2>(base) + std::get<3>(base));
}

// The keyed (drawn) kernel through the overflow/re-stride transition:
// the per-shard key streams are sized from the live send counts, so the
// round that spills past the initial slab width and triggers the barrier
// re-stride is exactly where a sizing bug would corrupt the frozen drop
// verdicts. Drive flat_mailbox directly (the bench_scatter shape) with a
// tiny initial stride so round 0 overflows with drops already drawn, and
// require bit-identical inboxes and drop accounting at every thread
// count, before AND after the re-stride.
TEST(FlatMailbox, FilteredDeliveryBitIdenticalThroughRestride) {
  const u32 n = 97;
  const u32 cap = 24;
  const u32 rounds = 6;
  // A hash drop predicate in the per-sender form deliver() asks for.
  struct hash_drops {
    u32 src;
    bool drop(u32 idx, const global_msg& m) const {
      return derive_seed(derive_seed(src, idx), m.w[0]) % 4 == 0;
    }
  };
  const auto drawer = [](u32 src, u32) { return hash_drops{src}; };
  auto run = [&](u32 threads) {
    round_executor exec(sim_options{threads});
    flat_mailbox<global_msg> mail(n, cap, /*initial_stride=*/3);
    std::vector<u64> digests;
    u64 delivered = 0, dropped = 0;
    for (u32 r = 0; r < rounds; ++r) {
      exec.for_nodes(n, [&](u32 v) {
        // Every node overflows the 3-slot slab in round 0; later rounds
        // mix empty, slab-only, and full senders.
        const u32 k = r == 0 ? cap : (v + r) % (cap + 1);
        for (u32 i = 0; i < k; ++i)
          mail.push(global_msg::make(v, (v * 31 + i * 7 + r) % n, i,
                                     {derive_seed(v, i ^ r)}));
      });
      mail.deliver(exec, drawer);
      delivered += mail.delivered_last_round();
      dropped += mail.dropped_last_round();
      u64 round_digest = 0;
      for (u32 v = 0; v < n; ++v) {
        const auto box = mail.inbox(v);
        for (u32 i = 1; i < box.size(); ++i)
          EXPECT_TRUE(box[i - 1].src < box[i].src ||
                      (box[i - 1].src == box[i].src &&
                       box[i - 1].tag < box[i].tag))
              << "round " << r << " dst " << v << " pos " << i;
        round_digest ^= (v + 1) * inbox_digest(box);
      }
      digests.push_back(round_digest);
      if (r == 0) {
        // The overflow round must also have re-strided at its barrier.
        EXPECT_GT(mail.stats().overflow_messages, 0u) << threads;
        EXPECT_EQ(mail.stats().stride, cap) << threads;
      }
    }
    EXPECT_GT(dropped, 0u) << threads;
    return std::make_tuple(digests, delivered, dropped);
  };
  const auto base = run(1);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(8), base);
}

// ---- the delivery contract against a sequential reference -----------------
//
// Every node's sends in round r are a pure function of its round-(r-1)
// inbox, made in the same step that reads it — the read-while-send shape
// the double-buffered outboxes exist for. The reference delivers with
// per-node vectors (sources ascending, sends in order, drops removed), and
// every thread count must reproduce its per-round digests and totals.

/// The contract workload: `sends(r, v)` messages a node makes in round r,
/// their payloads folded from the inbox it is reading.
struct contract_shape {
  u32 n = 97;
  u32 cap = 24;
  u32 initial_stride = 24;
  u32 rounds = 8;
  bool drops = false;
  std::vector<u32> trim_after = {};  ///< trim() after these rounds' reads
  /// Round r's send count for every node: 0..cap by hash, or the whole
  /// cap in `full_rounds` (which overflow a narrower slab).
  std::vector<u32> full_rounds = {};
};

/// A pure drop predicate in the per-sender form deliver() asks for.
struct contract_drops {
  u32 src;
  bool drop(u32 idx, const global_msg& m) const {
    return derive_seed(derive_seed(src, idx), m.w[0]) % 5 == 0;
  }
};

template <class Box>
void contract_sends(const contract_shape& c, u32 r, u32 v, const Box& box,
                    std::vector<global_msg>& out) {
  const u64 h = inbox_digest(box);
  const bool full = std::find(c.full_rounds.begin(), c.full_rounds.end(),
                              r) != c.full_rounds.end();
  const u32 k = full ? c.cap
                     : static_cast<u32>(derive_seed(h, v * 131 + r) %
                                        (c.cap + 1));
  for (u32 i = 0; i < k; ++i) {
    const u64 x = derive_seed(derive_seed(h, i), r);
    out.push_back(global_msg::make(v, static_cast<u32>(x % c.n), i,
                                   {x, u64{v} << 32 | r}));
  }
}

struct contract_trace {
  std::vector<u64> digests;  ///< one per round: xor of (v+1)·inbox digest
  u64 delivered = 0;
  u64 dropped = 0;
  u64 words = 0;
  u32 max_inbox = 0;
  bool operator==(const contract_trace&) const = default;
};

contract_trace contract_reference(const contract_shape& c) {
  contract_trace t;
  std::vector<std::vector<global_msg>> in(c.n), out(c.n);
  for (u32 r = 0; r < c.rounds; ++r) {
    for (u32 v = 0; v < c.n; ++v) {
      out[v].clear();
      contract_sends(c, r, v, in[v], out[v]);
    }
    for (auto& box : in) box.clear();
    for (u32 src = 0; src < c.n; ++src)
      for (u32 i = 0; i < out[src].size(); ++i) {
        const global_msg& m = out[src][i];
        if (c.drops && contract_drops{src}.drop(i, m)) {
          ++t.dropped;
          continue;
        }
        in[m.dst].push_back(m);
        t.words += m.nw;
      }
    u64 d = 0;
    for (u32 v = 0; v < c.n; ++v) {
      d ^= (v + 1) * inbox_digest(in[v]);
      t.delivered += in[v].size();
      t.max_inbox = std::max<u32>(t.max_inbox, in[v].size());
    }
    t.digests.push_back(d);
    if (std::count(c.trim_after.begin(), c.trim_after.end(), r))
      for (auto& box : in) box.clear();  // trim() ends the inboxes too
  }
  return t;
}

contract_trace contract_run(const contract_shape& c, u32 threads) {
  contract_trace t;
  round_executor exec(sim_options{threads});
  flat_mailbox<global_msg> mail(c.n, c.cap, c.initial_stride);
  std::vector<std::vector<global_msg>> scratch(c.n);
  for (u32 r = 0; r < c.rounds; ++r) {
    exec.for_nodes(c.n, [&](u32 v) {
      scratch[v].clear();
      contract_sends(c, r, v, mail.inbox(v), scratch[v]);
      for (const global_msg& m : scratch[v]) mail.push(m);
    });
    if (c.drops)
      mail.deliver(exec, [](u32 src, u32) { return contract_drops{src}; });
    else
      mail.deliver(exec);
    u64 d = 0;
    for (u32 v = 0; v < c.n; ++v) d ^= (v + 1) * inbox_digest(mail.inbox(v));
    t.digests.push_back(d);
    t.delivered += mail.delivered_last_round();
    t.dropped += mail.dropped_last_round();
    t.words += mail.payload_words_last_round();
    t.max_inbox = std::max(t.max_inbox, mail.max_inbox_last_round());
    if (std::count(c.trim_after.begin(), c.trim_after.end(), r)) mail.trim();
  }
  EXPECT_EQ(mail.stats().sent_total, t.delivered + t.dropped) << threads;
  return t;
}

void expect_contract(const contract_shape& c) {
  const contract_trace want = contract_reference(c);
  ASSERT_GT(want.delivered, 0u);
  for (u32 threads : {1u, 2u, 8u})
    EXPECT_EQ(contract_run(c, threads), want) << threads << " threads";
}

TEST(FlatMailboxContract, StepReadsInboxWhileSending) {
  expect_contract({});
}

TEST(FlatMailboxContract, OverflowRoundsRestrideAndStayReadable) {
  contract_shape c;
  c.initial_stride = 2;
  c.full_rounds = {0, 3};  // round 0 overflows the 2-slot slabs
  expect_contract(c);
}

TEST(FlatMailboxContract, TrimThenMoreRounds) {
  contract_shape c;
  c.initial_stride = 4;
  c.full_rounds = {1, 5};   // re-strides before and after the trim
  c.trim_after = {2};       // back to 1-slot slabs
  c.rounds = 9;
  expect_contract(c);
}

TEST(FlatMailboxContract, KeyedDropsThroughRestride) {
  contract_shape c;
  c.initial_stride = 3;
  c.drops = true;
  c.full_rounds = {0, 4};
  const contract_trace want = contract_reference(c);
  EXPECT_GT(want.dropped, 0u);
  expect_contract(c);
}

// Slot indices are u32, so n · cap must stay below 2³². Initial stride 1
// keeps both cases at O(n) memory.
TEST(FlatMailbox, RejectsSlotRangeBeyondU32) {
  EXPECT_THROW(flat_mailbox<global_msg>(70000, 70000, 1),
               std::invalid_argument);
  EXPECT_NO_THROW(flat_mailbox<global_msg>(65535, 65535, 1));
}

TEST(FlatMailbox, EmptyRoundsDeliverNothingAndResetInboxes) {
  const graph g = gen::path(4);
  hybrid_net net(g, model_config{}, 3, sim_options{8});
  net.advance_round();
  for (u32 v = 0; v < 4; ++v) EXPECT_TRUE(net.global_inbox(v).empty());
  EXPECT_TRUE(net.try_send_global(global_msg::make(0, 1, 0, {7})));
  net.advance_round();
  EXPECT_EQ(net.global_inbox(1).size(), 1u);
  net.advance_round();
  for (u32 v = 0; v < 4; ++v) EXPECT_TRUE(net.global_inbox(v).empty());
  EXPECT_EQ(net.raw_metrics().global_messages, 1u);
}

}  // namespace
}  // namespace hybrid
