#include "proto/aggregation.hpp"

#include <algorithm>
#include <array>

#include "util/assert.hpp"

namespace hybrid {

namespace {

u64 combine(agg_op op, u64 x, u64 y) {
  switch (op) {
    case agg_op::max:
      return std::max(x, y);
    case agg_op::min:
      return std::min(x, y);
    case agg_op::sum:
      return x + y;
    case agg_op::logical_and:
      return (x != 0 && y != 0) ? 1 : 0;
  }
  return 0;
}

u32 tree_depth_of(u32 v) {
  u32 d = 0;
  while (v != 0) {
    v = (v - 1) / 2;
    ++d;
  }
  return d;
}

constexpr u32 kUpTag = 0xA661;
constexpr u32 kDownTag = 0xA662;
constexpr u32 kUpAckTag = 0xA663;
constexpr u32 kDownAckTag = 0xA664;

/// One node's protocol state; slot 0/1 of the pairs = child 2v+1 / 2v+2.
struct agg_node {
  u64 acc = 0;
  u64 retx = 0;
  std::array<u8, 2> got_child{};
  std::array<u8, 2> down_sent{};
  std::array<u8, 2> down_acked{};
  u8 up_sent = 0;
  u8 up_acked = 0;
  u8 have = 0;
};

}  // namespace

u32 aggregation_rounds(u32 n) {
  return 2 * tree_depth_of(n - 1) + 1;
}

/// One protocol for both planes (docs/FAULTS.md): a node re-sends its child
/// report every round until the parent acks it, and re-sends the result to
/// each child until that child acks; duplicate child reports are
/// deduplicated per child slot because sum is not idempotent. On a faulty
/// plane receivers ack every copy, and every message carries the instance
/// epoch (the round the aggregation started at) so back-to-back
/// aggregations ignore each other's stragglers; a run that outlasts
/// heal_budget_mult times the nominal budget (e.g. a node that never
/// recovers) throws fault_failure. On a reliable plane a send that got
/// through is its own ack.
u64 global_aggregate(hybrid_net& net, agg_op op,
                     const std::vector<u64>& values) {
  const u32 n = net.n();
  HYB_REQUIRE(values.size() == n, "need one value per node");
  const bool faulty = net.global_faults_active();
  const u64 epoch = net.round();
  const u32 nominal = aggregation_rounds(n);
  const u64 budget =
      faulty ? u64{net.faults().heal_budget_mult} * nominal : nominal;

  std::vector<agg_node> st(n);
  for (u32 v = 0; v < n; ++v) st[v].acc = values[v];
  // Sends v's value to `to`; a repeat counts as a retransmission.
  auto transmit = [&](u32 v, u32 to, u32 tag, u8& sent, u8& acked) {
    const global_msg m = faulty
                             ? global_msg::make(v, to, tag, {st[v].acc, epoch})
                             : global_msg::make(v, to, tag, {st[v].acc});
    const bool ok = net.try_send_global(m);
    if (ok && sent) ++st[v].retx;
    sent = 1;
    if (ok && !faulty) acked = 1;
  };

  // The round's step returns 1 while the node still lacks the result, so
  // the round's sum is the termination check.
  const auto step = [&](u32 v) -> u64 {
    agg_node& s = st[v];
    // A down node's inbox is empty (delivery dropped) and it sends
    // nothing; its state freezes until recovery (fail-pause).
    if (!net.is_up(v)) return !s.have;
    for (const global_msg& m : net.global_inbox(v)) {
      const u32 slot = (m.src == 2 * v + 1) ? 0 : 1;
      if (m.tag == kUpTag || m.tag == kDownTag) {
        if (faulty && m.w[1] != epoch) continue;
        if (m.tag == kUpTag && !s.got_child[slot]) {
          s.got_child[slot] = 1;
          s.acc = combine(op, s.acc, m.w[0]);
        } else if (m.tag == kDownTag && !s.have) {
          s.have = 1;
          s.acc = m.w[0];
        }
        // Ack even duplicates: the sender re-sends until one lands.
        if (faulty)
          net.try_send_global(global_msg::make(
              v, m.src, m.tag == kUpTag ? kUpAckTag : kDownAckTag,
              {epoch}));
      } else if (m.tag == kUpAckTag && m.w[0] == epoch) {
        s.up_acked = 1;
      } else if (m.tag == kDownAckTag && m.w[0] == epoch) {
        s.down_acked[slot] = 1;
      }
    }
    const bool kids_done = (2 * v + 1 >= n || s.got_child[0]) &&
                           (2 * v + 2 >= n || s.got_child[1]);
    if (v == 0) {
      if (kids_done) s.have = 1;
    } else if (kids_done && !s.up_acked) {
      transmit(v, (v - 1) / 2, kUpTag, s.up_sent, s.up_acked);
    }
    if (s.have) {
      for (u32 slot = 0; slot < 2; ++slot) {
        const u32 c = 2 * v + 1 + slot;
        if (c < n && !s.down_acked[slot])
          transmit(v, c, kDownTag, s.down_sent[slot], s.down_acked[slot]);
      }
    }
    return !s.have;
  };
  round_executor& exec = net.executor();
  u64 used = 0;
  for (;;) {
    if (used >= budget) {
      // A reliable plane misses the nominal schedule only when the γ cap
      // refuses a send.
      HYB_INVARIANT(faulty, "aggregation exceeded the global send cap");
      throw fault_failure("aggregation healing budget exhausted");
    }
    ++used;
    const u64 missing = exec.sum_nodes(n, step);
    net.advance_round();
    if (missing == 0) break;
  }
  u64 resent = 0;
  for (u32 v = 0; v < n; ++v) resent += st[v].retx;
  net.note_retransmitted(resent);
  if (used > nominal) net.note_extra_rounds(used - nominal);

  const u64 result = st[0].acc;
  for (u32 v = 0; v < n; ++v)
    HYB_INVARIANT(st[v].acc == result, "aggregation failed to reach all nodes");
  return result;
}

}  // namespace hybrid
