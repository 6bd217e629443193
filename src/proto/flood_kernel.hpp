// The seen-set flood kernel: the one reliable "flood what you know" round
// loop behind Algorithm 1's ruler flood (hop_discovery), the label flood to
// the Õ(x)-neighbourhood (table_flood), Algorithm 9's hello flood
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
// (docs/CONCURRENCY.md §3). The round is charged and delivered as one sum
// (nothing here is dropped), advances, and the frontiers swap. Once no
// frontier is left before the budget ends, the flood pays one
// AND-aggregation to detect that (early exit, Lemma B.2) or lets the
// budget's silent rest elapse. The healed floods keep their seen-sets in
// seen_bits too (heal::seen_rows) but re-offer through heal_kernel.hpp.
#pragma once

#include <concepts>
#include <functional>
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

/// Up to `rounds` flood rounds from the seeded state. keep(v, u) says
/// whether v pulls from neighbour u, cost(i) is what item i costs per edge
/// crossing, and on_learn(v, i, r) records that v learned i in round r.
template <class Keep, class Cost, class Learn>
void run(hybrid_net& net, state& st, u32 rounds, bool early_exit,
         const Keep& keep, const Cost& cost, const Learn& on_learn) {
  const graph& g = net.g();
  const u32 n = g.num_nodes();
  round_executor& exec = net.executor();
  u32 r = 0;
  // Both steps are wrapped once, so no round builds a std::function.
  const std::function<u64(u32)> pull = [&](u32 v) -> u64 {
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
  const std::function<bool(u32)> active = [&](u32 v) {
    return !st.frontier[v].empty();
  };
  for (r = 1; r <= rounds; ++r) {
    const u64 items = exec.sum_nodes(n, pull);
    net.charge_local(items);
    net.note_local_delivered(items);
    net.advance_round();
    st.frontier.swap(st.next);
    if (exec.any_node(n, active)) continue;
    if (r < rounds) {
      // Nothing this loop charges is dropped, so at saturation the local
      // plane's ledger must balance.
      const run_metrics& m = net.raw_metrics();
      HYB_INVARIANT(m.local_items == m.local_delivered + m.local_dropped,
                    "local plane ledger must balance at flood saturation");
      if (early_exit) {
        // Detecting global saturation costs one AND-aggregation.
        for (u32 extra = aggregation_rounds(n); extra > 0; --extra)
          net.advance_round();
      } else {
        // Fixed round budgets are part of the protocols: the remaining
        // rounds are silent but still elapse.
        for (; r < rounds; ++r) net.advance_round();
      }
    }
    return;
  }
}

}  // namespace hybrid::flood
