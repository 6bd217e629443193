// The seen-set flood kernel: the one "flood what you know" round loop
// behind Algorithm 1's ruler flood (hop_discovery), the label flood to the
// Õ(x)-neighbourhood (table_flood), Algorithm 9's hello flood
// (truncated_eccentricity) and the helper sets' intra-cluster flood
// (cluster_flood).
//
// Internal header. One round: every node v pulls its neighbours'
// round-frozen frontiers in adjacency order, skipping the edges the
// caller's filter rejects; each pulled item i is charged cost(i), and an
// unseen one is learned (on_learn(v, i, round)) and put on v's next
// frontier. A step writes only v's seen words, v's next frontier and what
// on_learn writes for v, so runs are bit-identical at every thread count,
// and sorted adjacency makes the pull order the sequential push order
// (docs/CONCURRENCY.md §3). The round goes to the hook — charged and
// delivered as one sum (nothing here is dropped) and advanced for net
// callers, nothing for pure ones — and the frontiers swap. Once no
// frontier is left before the budget ends, the flood pays one
// AND-aggregation to detect that (early exit, Lemma B.2) or lets the
// budget's silent rest elapse. The hooks are the relaxation kernel's too
// (proto/relax_kernel.hpp). Under local faults the floods run here as free
// local computation, and the healed exploration engine
// (proto/heal_kernel.hpp) pays for what healing them costs, refereed
// against that same run.
#pragma once

#include <concepts>
#include <utility>
#include <vector>

#include "proto/aggregation.hpp"
#include "sim/hybrid_net.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

namespace hybrid::flood {

/// Bitset seen-sets of all nodes in one u64 array. Node v's words start at
/// at_[v] and no two nodes share a word, so concurrent steps stay apart.
class seen_bits {
 public:
  /// `width` bits for each of n nodes.
  seen_bits(u32 n, u64 width)
      : seen_bits(n, [width](u32) { return width; }) {}
  /// width_of(v) bits for node v.
  template <class WidthOf>
    requires std::invocable<const WidthOf&, u32>
  seen_bits(u32 n, const WidthOf& width_of) : at_(u64{n} + 1, 0) {
    for (u32 v = 0; v < n; ++v)
      at_[v + 1] = at_[v] + ceil_div(width_of(v), 64);
    words_.assign(at_[n], 0);
  }

  u64* row(u32 v) { return words_.data() + at_[v]; }
  /// Test-and-set bit i of a row: true when it was clear.
  static bool learn(u64* row, u32 i) {
    u64& word = row[i >> 6];
    const u64 bit = u64{1} << (i & 63);
    if (word & bit) return false;
    word |= bit;
    return true;
  }
  bool learn(u32 v, u32 i) { return learn(row(v), i); }
  bool test(u32 v, u32 i) const {
    return (words_[at_[v] + (i >> 6)] >> (i & 63)) & 1;
  }

 private:
  std::vector<u64> at_;
  std::vector<u64> words_;
};

/// A flood's seen-sets and its double-buffered frontiers (cleared in
/// place, so a round allocates only when a buffer outgrows its high-water
/// mark).
struct state {
  seen_bits seen;
  std::vector<std::vector<u32>> frontier;
  std::vector<std::vector<u32>> next;

  state(u32 n, seen_bits seen_)
      : seen(std::move(seen_)), frontier(n), next(n) {}

  /// Node v holds item i from the start; false when it already did.
  bool seed(u32 v, u32 i) {
    if (!seen.learn(v, i)) return false;
    frontier[v].push_back(i);
    return true;
  }
};

/// Every edge carries the flood.
struct all_edges {
  bool operator()(u32, u32) const { return true; }
};

/// Every item costs one.
struct unit_cost {
  u64 operator()(u32) const { return 1; }
};

/// Net callers: every pulled item is charged and delivered (the local
/// plane is reliable on these paths), and rounds advance only when the
/// caller asked for them — otherwise traffic is charged but rounds are not
/// (Lemma 4.3's run-in-parallel trick). At an early exit nothing charged
/// was dropped, so the local ledger must balance; then the rounds a fixed
/// budget still owes elapse silently.
struct net_hook {
  hybrid_net& net;
  bool advance_rounds = true;
  void round(u64 items) const {
    net.charge_local(items);
    net.note_local_delivered(items);
    if (advance_rounds) net.advance_round();
  }
  void pad(u32 idle) const {
    const run_metrics& m = net.raw_metrics();
    HYB_INVARIANT(m.local_items == m.local_delivered + m.local_dropped,
                  "local plane ledger must balance at an early exit");
    if (advance_rounds)
      for (; idle > 0; --idle) net.advance_round();
  }
};

/// Pure callers: free local computation, no rounds, no traffic.
struct no_hook {
  void round(u64) const {}
  void pad(u32) const {}
};

/// Up to `rounds` flood rounds from the seeded state. keep(v, u) says
/// whether v pulls from neighbour u, cost(i) is what item i costs per edge
/// crossing, and on_learn(v, i, r) records that v learned i in round r.
/// Returns the rounds the flood takes on a reliable net: the budget, or
/// with `early_exit` the saturation round plus one AND-aggregation when
/// that comes first.
template <class Keep, class Cost, class Learn, class Hook>
u32 run(round_executor& exec, const graph& g, state& st, u32 rounds,
        bool early_exit, const Keep& keep, const Cost& cost,
        const Learn& on_learn, const Hook& hook) {
  const u32 n = g.num_nodes();
  u32 r = 0;
  const auto pull = [&](u32 v) -> u64 {
    std::vector<u32>& out = st.next[v];
    out.clear();
    u64* const bits = st.seen.row(v);
    u64 charged = 0;
    for (const edge& e : g.neighbors(v)) {
      if (!keep(v, e.to)) continue;
      for (const u32 i : st.frontier[e.to]) {
        charged += cost(i);
        if (seen_bits::learn(bits, i)) {
          on_learn(v, i, r);
          out.push_back(i);
        }
      }
    }
    return charged;
  };
  const auto active = [&](u32 v) {
    return !st.frontier[v].empty();
  };
  for (r = 1; r <= rounds; ++r) {
    hook.round(exec.sum_nodes(n, pull));
    st.frontier.swap(st.next);
    if (exec.any_node(n, active) || r == rounds) continue;
    // Detecting global saturation costs one AND-aggregation; a fixed
    // budget's remaining rounds are silent but still elapse.
    const u32 idle = early_exit ? aggregation_rounds(n) : rounds - r;
    hook.pad(idle);
    return r + idle;
  }
  return rounds;
}

}  // namespace hybrid::flood
