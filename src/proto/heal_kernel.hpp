// The self-healing re-offer round: the one loop behind every healed LOCAL
// primitive (docs/FAULTS.md §3) — hop_discovery, table_flood,
// limited_bellman_ford and the exploration engine behind every exploration
// entry point. It is the collect/update/disseminate min-finding of PraSLE
// (SNIPPETS.md #2) run over the paper's h-hop floods and explorations.
//
// Internal header. Under local-plane drops a frontier item lost once would
// be lost forever, so every round every node offers its whole held set to
// its neighbours, and an item lost to a drop gets a fresh chance every
// later round. One round of heal::run, in order:
//   * the budget check — fault_failure once the healing multiple of the
//     fault-free budget (plus the quiet window) has elapsed;
//   * per edge, the held set's offers in the row's fixed order, each
//     through the local plane's drop draw — that order fixes every fault
//     draw's index;
//   * staged acceptances: a step reads its neighbours' rows, so it must not
//     grow its own mid-round (docs/CONCURRENCY.md §3);
//   * the accounting: charged, delivered and dropped in the offer's cost
//     unit, retransmitted in offers;
//   * advance_round — always, even for frozen-round callers: a frozen
//     counter would re-roll the same drops forever;
//   * the post-barrier merge, stamping each accepted item with the round;
//   * the crash-aware quiet window (next_quiet).
// The caller then referees the converged state against the reliable result
// (premature stability surfaces as fault_failure, never as a silently
// incomplete return) and settles its rounds with heal::pad.
//
// The loop is a template over the rows (the state of every node):
//   * seen_rows — a seen-set per node, items in learn order (the hop and
//     table floods; each offer costs 1 or the table's word count);
//   * pareto_rows<by_position> — Pareto (dist, hops) sets keyed by source
//     position (limited_bellman_ford);
//   * pareto_rows<by_discovery> — the same sets keyed in discovery order
//     (the exploration engine).
// A row type provides `staged`, count(u) — the offers node u makes on each
// edge, which the adversarial mode needs before it draws — pull(v, e, add,
// deliver), which enumerates e.to's offers in order through `deliver(stamp,
// cost)` and stages what v accepts, and merge(v, add, round).
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "proto/flood.hpp"
#include "proto/sparse_exploration.hpp"
#include "util/assert.hpp"

namespace hybrid {

/// The healed exploration engine (proto/sparse_exploration.cpp): heal::run
/// over pareto_rows<by_discovery>, refereed against the reliable relaxation
/// kernel run as free local computation, retried up to four times with
/// fresh fault draws. It returns the referee's canonical triples, so the
/// result is bit-identical to the fault-free run, vias and all. The nominal
/// budget is h when advancing rounds and 0 when not (healing needs real
/// rounds, so every one is then surfaced as extra_rounds). With
/// `unit_weights` every edge counts 1 (truncated_eccentricity's hop flood).
sparse_exploration_result healed_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    const std::vector<u32>* sources = nullptr, bool first_hops = true,
    bool unit_weights = false);

namespace heal {

/// Quiet-window update. Progress this round resets the counter; so does
/// any node still being down — a paused node has pulls pending that only
/// run after recovery, so its silence is not convergence (a never-recovering
/// node pushes the loop into its budget and an explicit fault_failure).
inline u32 next_quiet(hybrid_net& net, round_executor& exec, u32 n, u32 quiet,
                      const std::vector<u8>& changed) {
  if (exec.any_node(n, [&](u32 v) { return changed[v] != 0; })) return 0;
  if (!net.faults().crashes.empty() &&
      exec.any_node(n, [&](u32 v) { return !net.is_up(v); }))
    return 0;
  return quiet + 1;
}

/// Re-offer rounds until the quiet window closes. `nominal` is the
/// fault-free round budget the healing budget scales. Every round advanced
/// is added to `rounds`, also when the budget runs out and this throws.
template <class Rows>
void run(hybrid_net& net, Rows& rows, u32 nominal, const char* what,
         u64& rounds) {
  const graph& g = net.g();
  const u32 n = g.num_nodes();
  const fault_options& fo = net.faults();
  round_executor& exec = net.executor();
  std::vector<std::vector<typename Rows::staged>> add(n);
  std::vector<u8> changed(n, 0);
  std::vector<u64> dropped(n, 0);
  std::vector<u64> retx(n, 0);
  const u64 budget = u64{fo.heal_budget_mult} * std::max<u32>(nominal, 1) +
                     fo.heal_stability_rounds;
  u32 quiet = 0;
  for (u32 it = 1; quiet < fo.heal_stability_rounds; ++it) {
    if (it > budget)
      throw fault_failure(std::string(what) + " healing budget exhausted");
    const u64 items = exec.sum_nodes(n, [&](u32 v) -> u64 {
      add[v].clear();
      dropped[v] = 0;
      retx[v] = 0;
      if (!net.is_up(v)) return 0;
      u64 mine = 0;
      for (const edge& e : g.neighbors(v)) {
        const u32 count = rows.count(e.to);
        u32 idx = 0;
        rows.pull(v, e, add[v], [&](u32 stamp, u64 cost) {
          mine += cost;
          // An item first crosses edges in the round after its merge; any
          // later crossing is a retransmission (counted whether or not this
          // copy is then dropped — it did cross the edge).
          if (stamp + 1 < it) ++retx[v];
          if (net.local_drop(e.to, v, idx++, count)) {
            dropped[v] += cost;
            return false;
          }
          return true;
        });
      }
      return mine;
    });
    net.charge_local(items);
    u64 lost = 0;
    u64 re = 0;
    for (u32 v = 0; v < n; ++v) {
      lost += dropped[v];
      re += retx[v];
    }
    net.note_local_delivered(items - lost);
    net.note_local_dropped(lost);
    net.note_retransmitted(re);
    net.advance_round();
    ++rounds;
    exec.for_nodes(n,
                   [&](u32 v) { changed[v] = rows.merge(v, add[v], it); });
    quiet = next_quiet(net, exec, n, quiet, changed);
  }
}

/// Round-accounting parity with the reliable path: elapse the silent rounds
/// a fixed budget of `nominal` still owes after `used`, and surface every
/// round beyond it as healing overhead.
inline void pad(hybrid_net& net, u64 used, u64 nominal) {
  for (; used < nominal; ++used) net.advance_round();
  if (used > nominal) net.note_extra_rounds(used - nominal);
}

/// The hop and table floods' rows: per node the held item indices in learn
/// order, each stamped with its learn round (0 at its root) — for
/// hop_discovery that stamp is the reported hop, an upper bound on the true
/// one. An offer costs 1, or its table's word count when `words` is set.
struct seen_rows {
  using staged = u32;

  std::vector<std::vector<discovered_seed>> held;
  std::vector<std::vector<char>> seen;
  const std::vector<u64>* words = nullptr;

  /// Item i starts at roots[i].
  seen_rows(u32 n, const std::vector<u32>& roots, const char* out_of_range,
            const std::vector<u64>* words_ = nullptr)
      : held(n), seen(n, std::vector<char>(roots.size(), 0)), words(words_) {
    for (u32 i = 0; i < roots.size(); ++i) {
      HYB_REQUIRE(roots[i] < n, out_of_range);
      seen[roots[i]][i] = 1;
      held[roots[i]].push_back({i, 0});
    }
  }

  u32 count(u32 u) const { return static_cast<u32>(held[u].size()); }

  template <class Deliver>
  void pull(u32 v, const edge& e, std::vector<u32>& add,
            Deliver&& deliver) const {
    for (const discovered_seed& d : held[e.to])
      if (deliver(d.hop, words ? (*words)[d.seed] : 1) && !seen[v][d.seed])
        add.push_back(d.seed);
  }

  bool merge(u32 v, const std::vector<u32>& add, u32 round) {
    bool changed = false;
    for (const u32 i : add)
      if (!seen[v][i]) {
        seen[v][i] = 1;
        held[v].push_back({i, round});
        changed = true;
      }
    return changed;
  }
};

/// One Pareto-minimal (dist, hops) pair held for a source, stamped with the
/// round that accepted it (0 at the source).
struct pareto_entry {
  u64 dist;
  u32 hops;
  u32 stamp;
};

/// Pareto-minimal (dist, hops) pairs for one source. Under drops a
/// smaller-dist/more-hops value can arrive before (or instead of) a
/// fewer-hops one, and downstream nodes may only extend pairs with
/// hops < h — keeping just the best dist would silently lose valid ≤h-hop
/// distances. Every held pair is realized by some ≤h-hop walk, so at
/// convergence the front pair's dist is d_h. Sorted by dist ascending
/// (hence hops strictly descending).
struct pareto_set {
  std::vector<pareto_entry> entries;

  bool dominated(u64 dist, u32 hops) const {
    for (const pareto_entry& e : entries)
      if (e.dist <= dist && e.hops <= hops) return true;
    return false;
  }
  void insert(u64 dist, u32 hops, u32 stamp) {
    std::erase_if(entries, [&](const pareto_entry& e) {
      return e.dist >= dist && e.hops >= hops;
    });
    const auto pos = std::lower_bound(
        entries.begin(), entries.end(), dist,
        [](const pareto_entry& e, u64 d) { return e.dist < d; });
    entries.insert(pos, {dist, hops, stamp});
  }
  u64 front_dist() const {
    return entries.empty() ? kInfDist : entries.front().dist;
  }
};

/// A node's sets keyed by source position, offered in position order —
/// limited_bellman_ford's index semantics (duplicate sources get their own
/// keys).
struct by_position {
  std::vector<pareto_set> sets;

  u32 key(u32 k) const { return k; }
  u32 find(u32 key) const { return key; }
  pareto_set& at(u32 key) { return sets[key]; }
};

/// A node's sets keyed by source node id, offered in discovery order — a
/// pure function of the merge history, so deterministic and
/// thread-count-invariant. Lookup is a linear scan.
struct by_discovery {
  std::vector<u32> keys;
  std::vector<pareto_set> sets;

  u32 key(u32 k) const { return keys[k]; }
  u32 find(u32 key) const {
    for (u32 k = 0; k < keys.size(); ++k)
      if (keys[k] == key) return k;
    return ~u32{0};
  }
  pareto_set& at(u32 key) {
    const u32 k = find(key);
    if (k != ~u32{0}) return sets[k];
    keys.push_back(key);
    return sets.emplace_back();
  }
};

/// The Bellman–Ford-shaped rows: every held pair that can still be
/// extended within h hops is offered, and crosses an edge at its weight
/// (1 with `unit_weights`).
template <class Row>
struct pareto_rows {
  struct staged {
    u32 key;
    u64 dist;
    u32 hops;
  };

  std::vector<Row> rows;
  u32 h;
  bool unit_weights;

  pareto_rows(u32 n, u32 h_, bool unit_weights_)
      : rows(n), h(h_), unit_weights(unit_weights_) {}

  /// `key` held at distance 0 by `node`.
  void seed(u32 node, u32 key) { rows[node].at(key).insert(0, 0, 0); }

  bool dominated(u32 v, u32 key, u64 dist, u32 hops) const {
    const u32 k = rows[v].find(key);
    return k != ~u32{0} && rows[v].sets[k].dominated(dist, hops);
  }

  u32 count(u32 u) const {
    u32 c = 0;
    for (const pareto_set& set : rows[u].sets)
      for (const pareto_entry& pe : set.entries)
        if (pe.hops < h) ++c;
    return c;
  }

  template <class Deliver>
  void pull(u32 v, const edge& e, std::vector<staged>& add,
            Deliver&& deliver) const {
    const Row& from = rows[e.to];
    const u64 w = unit_weights ? 1 : e.weight;
    for (u32 k = 0; k < from.sets.size(); ++k)
      for (const pareto_entry& pe : from.sets[k].entries) {
        if (pe.hops >= h || !deliver(pe.stamp, 1)) continue;
        const staged s{from.key(k), pe.dist + w, pe.hops + 1};
        if (!dominated(v, s.key, s.dist, s.hops)) add.push_back(s);
      }
  }

  bool merge(u32 v, const std::vector<staged>& add, u32 round) {
    bool changed = false;
    for (const staged& s : add) {
      if (dominated(v, s.key, s.dist, s.hops)) continue;
      rows[v].at(s.key).insert(s.dist, s.hops, round);
      changed = true;
    }
    return changed;
  }
};

}  // namespace heal
}  // namespace hybrid
