// The self-healing re-offer round: the one loop behind every healed LOCAL
// primitive (docs/FAULTS.md §3) — the exploration engine behind every
// exploration entry point, truncated_eccentricity and the hop and table
// floods. It is the collect/update/disseminate min-finding of PraSLE
// (SNIPPETS.md #2) run over the paper's h-hop explorations.
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
// incomplete return) and pads its rounds to the fault-free call's.
//
// The rows (the state of every node) are pareto_rows: Pareto (dist, hops)
// sets keyed by source node id in discovery order, a held source's slot
// found through a flat_u64_map index. heal::run takes them as a template
// parameter so that a test can check every merge (fault_test's
// checked_rows).
//
// A round costs O(offers) and reads contiguous memory: each Pareto row
// keeps its sets in one arena whose array of extendable pairs IS the offer
// sequence (pareto_arena), so count(u) is its size — O(1), and read before
// the first draw because the adversarial mode needs it — and pull skips the
// accept check for every offer a copy of which already got through
// (pareto_rows::link); on a link where that is every offer and each costs
// one, it only draws. No buffer of the round is allocated per round.
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "proto/sparse_exploration.hpp"
#include "util/assert.hpp"
#include "util/flat_map.hpp"

namespace hybrid {

/// The healed exploration engine (proto/sparse_exploration.cpp): heal::run
/// over pareto_rows from `sources` (every node when null), refereed
/// against `ref` — the fault-free call's result, which the caller computes
/// as free local computation: the relaxation kernel's for an exploration,
/// the flood kernel's for the floods of proto/flood.cpp — and retried up
/// to four times with fresh fault draws. It returns once the healed rows
/// hold exactly ref's (source, dist) pairs, so the caller may return ref
/// as the fault-free result; otherwise it throws fault_failure. `nominal`
/// is the fault-free call's round count: the rounds spent healing are
/// padded up to it and any excess is surfaced as extra_rounds (an
/// exploration passes h when advancing rounds and 0 when not — healing
/// needs real rounds). With `unit_weights` every edge counts 1 (the
/// floods); `offer_words`, indexed by node id, is what an offer of each
/// source costs (1 each when null).
void healed_local_exploration(hybrid_net& net, u32 h, u64 nominal,
                              const std::vector<u32>* sources,
                              const sparse_exploration_result& ref,
                              bool unit_weights = false,
                              const std::vector<u64>* offer_words = nullptr);

namespace heal {

/// Quiet-window update. Progress this round resets the counter; so does
/// any node still being down — a paused node has pulls pending that only
/// run after recovery, so its silence is not convergence (a never-recovering
/// node pushes the loop into its budget and an explicit fault_failure).
inline u32 next_quiet(const hybrid_net& net, u32 n, u32 quiet,
                      const std::vector<u8>& changed) {
  for (u32 v = 0; v < n; ++v)
    if (changed[v] != 0) return 0;
  if (!net.faults().crashes.empty())
    for (u32 v = 0; v < n; ++v)
      if (!net.is_up(v)) return 0;
  return quiet + 1;
}

/// One held Pareto pair that can still be extended (hops < h), and so one
/// offer: its (dist, hops) and the round that accepted it (0 at the
/// source). Its key is its slot's.
struct pareto_entry {
  u64 dist;
  u32 hops;
  u32 stamp;
};

/// A candidate pair for source `key`, staged by a pull. Once merge has
/// found the receiver's slot for it, `key` holds that slot instead.
struct pareto_candidate {
  u64 dist;
  u32 key;
  u32 hops;
};

/// No slot: the key is not held (pareto_arena::find).
inline constexpr u32 kNoSlot = ~u32{0};

/// One node's Pareto (dist, hops) sets in one flat arena, one set (slot)
/// per source node id in discovery order — a pure function of the merge
/// history, so deterministic and thread-count-invariant. Under drops a
/// smaller-dist/more-hops value can arrive before (or instead of) a
/// fewer-hops one, and downstream nodes may only extend pairs with
/// hops < h — keeping just the best dist would silently lose valid ≤h-hop
/// distances. Every held pair is realized by some ≤h-hop walk, so at
/// convergence a set's front dist is d_h. Pairs never have hops > h.
///
/// Layout: slot k's pairs with hops < h are offers[begin[k], begin[k+1]),
/// dist ascending (hence hops strictly descending). `index` maps a held
/// key to its slot — its entries are in slot order, so entry k is slot k's
/// key. A set holds at most one pair with hops == h, its front (smallest
/// dist); capped[k] keeps that dist (kInfDist for none). Walking
/// `offers` front to back is therefore the per-set enumeration the
/// re-offer loop has always used — keys in order, dist ascending within a
/// key, hops == h pairs skipped — which fixes every fault draw's index;
/// and its size is the tally of offers the node makes on each edge. The
/// engine reserves the per-slot vectors at the referee's reached count
/// (the healed support is a subset of it), so they never regrow; `offers`
/// grows by a quarter at a time: rows stop growing at convergence, so
/// growth slack is resident memory.
struct pareto_arena {
  std::vector<pareto_entry> offers;
  std::vector<u32> begin{0};
  std::vector<u64> capped;
  flat_u64_map<u32> index;
  /// No offer's stamp exceeds this: the last round a merge changed the row.
  u32 newest = 0;

  u32 slots() const { return static_cast<u32>(capped.size()); }
  u32 count() const { return static_cast<u32>(offers.size()); }
  std::span<const pareto_entry> set(u32 slot) const {
    return {offers.data() + begin[slot], offers.data() + begin[slot + 1]};
  }
  /// The slot of offer i, searching forward from slot k ≤ it.
  u32 slot_at(u32 i, u32 k) const {
    while (begin[k + 1] <= i) ++k;
    return k;
  }
  u64 front_dist(u32 slot) const {
    return begin[slot] == begin[slot + 1]
               ? capped[slot]
               : std::min(capped[slot], offers[begin[slot]].dist);
  }
  bool dominated(u32 slot, u64 dist, u32 hops, u32 h) const {
    if (capped[slot] <= dist && h <= hops) return true;
    for (const pareto_entry& e : set(slot)) {
      if (e.dist > dist) break;
      if (e.hops <= hops) return true;
    }
    return false;
  }
  u32 find(u32 key) const {
    const auto* held = index.find(key);
    return held ? held->value : kNoSlot;
  }
  /// The key's slot, appended (empty) on first sight.
  u32 slot_of(u32 key) {
    const u32 slot = slots();
    const auto [held, fresh] = index.insert({key, slot});
    if (!fresh) return held->value;
    begin.push_back(begin.back());
    capped.push_back(kInfDist);
    return slot;
  }
  u32 key_of(u32 slot) const {
    return static_cast<u32>(index.entries()[slot].key);
  }

  /// Merge `add` — candidate pairs whose `key` holds their slot, sorted by
  /// (slot, dist, hops) — stamping the ones that stay with `round`. Each
  /// set becomes the Pareto front of held ∪ candidates, which is what
  /// inserting the candidates one by one (skip a dominated one, evict what
  /// it dominates) leaves in any order; a candidate equal to a held pair
  /// loses to it, so held pairs keep their stamps. The arena is rebuilt in
  /// place: the slots from the first to the last touched one go through a
  /// per-thread buffer (untouched ones as blocks), the rest move as
  /// one block. Returns whether any candidate stayed.
  bool merge_sorted(std::span<const pareto_candidate> add, u32 round, u32 h) {
    thread_local std::vector<pareto_entry> run;
    run.clear();
    const u32 first = add.front().key;
    const u32 last = add.back().key;
    const u32 base = begin[first];
    const u32 old_end = begin[last + 1];
    bool changed = false;
    std::size_t j = 0;
    for (u32 k = first, ob = base; k <= last;) {
      if (add[j].key != k) {
        // Untouched slots up to the next touched one: one block.
        const u32 next = add[j].key;
        const u32 oe = begin[next];
        const u32 shift = base + static_cast<u32>(run.size()) - ob;
        run.insert(run.end(), offers.begin() + ob, offers.begin() + oe);
        for (u32 q = k + 1; q <= next; ++q) begin[q] += shift;  // mod 2^32
        ob = oe;
        k = next;
        continue;
      }
      const u32 oe = begin[k + 1];
      const u64 held_cap = capped[k];
      capped[k] = kInfDist;
      bool cap_next = held_cap != kInfDist;  // the capped pair leads its set
      u32 best = ~u32{0};  // fewest hops kept so far in this set
      for (u32 i = ob;;) {
        const bool has_held = cap_next || i < oe;
        const bool has_new = j < add.size() && add[j].key == k;
        if (!has_held && !has_new) break;
        pareto_entry e = cap_next   ? pareto_entry{held_cap, h, 0}
                         : has_held ? offers[i]
                                    : pareto_entry{};
        const bool held =
            has_held && (!has_new || e.dist < add[j].dist ||
                         (e.dist == add[j].dist && e.hops <= add[j].hops));
        if (!held) {
          e = {add[j].dist, add[j].hops, round};
          ++j;
        } else if (cap_next) {
          cap_next = false;
        } else {
          ++i;
        }
        if (e.hops >= best) continue;
        best = e.hops;
        changed |= !held;
        if (e.hops < h)
          run.push_back(e);
        else
          capped[k] = e.dist;
      }
      ob = oe;
      begin[++k] = base + static_cast<u32>(run.size());
    }
    // Move the suffix behind the last touched slot, then drop the run in.
    const u32 new_end = begin[last + 1];
    const auto suffix = offers.size() - old_end;
    if (new_end > old_end) {
      if (new_end + suffix > offers.capacity())
        offers.reserve((new_end + suffix) * 5 / 4);
      offers.resize(new_end + suffix);
      std::copy_backward(offers.begin() + old_end,
                         offers.begin() + old_end + suffix, offers.end());
    } else if (new_end < old_end) {
      std::copy(offers.begin() + old_end, offers.end(),
                offers.begin() + new_end);
      offers.resize(new_end + suffix);
    }
    std::copy(run.begin(), run.end(), offers.begin() + base);
    for (u32 q = last + 2; q <= slots(); ++q) begin[q] += new_end - old_end;
    if (changed) newest = round;
    return changed;
  }
};

/// What a node's pulls carried in one round, in the offers' cost unit:
/// offered, lost to drops, and the offers retransmitted (counted in
/// offers).
struct traffic {
  u64 offered = 0, dropped = 0, retx = 0;
  traffic& operator+=(const traffic& t) {
    offered += t.offered;
    dropped += t.dropped;
    retx += t.retx;
    return *this;
  }
};

/// The Bellman–Ford-shaped rows: every held pair that can still be
/// extended within h hops is offered, and crosses an edge at its weight
/// (1 with `unit_weights`). An offer costs its source's `words` entry
/// (indexed by node id; 1 when null).
struct pareto_rows {
  using staged = pareto_candidate;

  /// An offer that crossed a link only as dropped copies so far. Its
  /// sender slot, dist and hops name it for good: slots never move, and an
  /// evicted pair is dominated, so it never comes back.
  struct undelivered {
    u64 dist;
    u32 slot;
    u32 hops;
  };

  /// What a node knows of one in-edge's offers: the round it last pulled
  /// them, and — in arena order — the ones offered by then that no copy of
  /// has got through.
  struct link {
    u32 last = 0;
    std::vector<undelivered> pending;
  };

  std::vector<pareto_arena> rows;
  /// Per node, per adjacency position: its in-edges' links.
  std::vector<std::vector<link>> links;
  u32 h;
  bool unit_weights;
  const std::vector<u64>* words;

  pareto_rows(const graph& g, u32 h_, bool unit_weights_,
              const std::vector<u64>* words_ = nullptr)
      : rows(g.num_nodes()),
        links(g.num_nodes()),
        h(h_),
        unit_weights(unit_weights_),
        words(words_) {
    for (u32 v = 0; v < g.num_nodes(); ++v)
      links[v].resize(g.neighbors(v).size());
  }

  /// `key` held at distance 0 by `node`.
  void seed(u32 node, u32 key) {
    const staged s{0, rows[node].slot_of(key), 0};
    rows[node].merge_sorted({&s, 1}, 0, h);
  }

  /// O(1): the arena holds exactly the offers.
  u32 count(u32 u) const { return rows[u].count(); }

  /// Node v pulls the offers of its j-th neighbour e.to in round `round`,
  /// each through the edge's drop draw in arena order — the order that fixes
  /// every draw's index. Only the offers no copy of which has reached v yet
  /// are checked against v's row — once a copy got through, v's row
  /// dominates it for good. Those are the pairs stamped at or after the
  /// link's last pull (never offered on it) and the link's pending ones.
  traffic pull(u32 v, u32 j, const edge& e, u32 round,
               std::vector<staged>& add, const local_drops drops) {
    thread_local std::vector<u32> pending_at;
    thread_local std::vector<undelivered> still;
    const pareto_arena& from = rows[e.to];
    const pareto_arena& to = rows[v];
    link& in = links[v][j];
    const u32 count = from.count();
    if (!words && in.pending.empty() && from.newest < in.last) {
      // Every offer crossed this link before (no stamp reaches the last
      // pull) and none is pending: all are retransmissions of unit cost
      // whose draws only count.
      traffic t{count, 0, count};
      for (u32 i = 0; i < count; ++i) t.dropped += drops.drop(i);
      in.last = round;
      return t;
    }
    // Where the pending offers sit in the sender's arena now, ascending.
    pending_at.clear();
    for (const undelivered& p : in.pending)
      for (u32 i = from.begin[p.slot]; i < from.begin[p.slot + 1]; ++i)
        if (from.offers[i].dist == p.dist && from.offers[i].hops == p.hops)
          pending_at.push_back(i);
    still.clear();
    const u64 w = unit_weights ? 1 : e.weight;
    // The next pending offer's position (count once none is left).
    std::size_t next = 0;
    u32 pending = pending_at.empty() ? count : pending_at[0];
    traffic t;
    u32 k = 0;  // the slot of the last fresh (or, with words, any) offer
    for (u32 i = 0; i < count; ++i) {
      const pareto_entry& pe = from.offers[i];
      bool fresh = pe.stamp >= in.last;
      if (i == pending) {
        fresh = true;
        pending = ++next < pending_at.size() ? pending_at[next] : count;
      }
      if (fresh || words) k = from.slot_at(i, k);
      const u64 cost = words ? (*words)[from.key_of(k)] : 1;
      t.offered += cost;
      // A pair first crosses edges in the round after its merge; any later
      // crossing is a retransmission (counted whether or not this copy is
      // then dropped — it did cross the edge).
      if (pe.stamp + 1 < round) ++t.retx;
      if (drops.drop(i)) {
        t.dropped += cost;
        if (fresh) still.push_back({pe.dist, k, pe.hops});
        continue;
      }
      if (!fresh) continue;
      const staged s{pe.dist + w, from.key_of(k), pe.hops + 1};
      const u32 slot = to.find(s.key);
      if (slot == kNoSlot || !to.dominated(slot, s.dist, s.hops, h))
        add.push_back(s);
    }
    in.pending.assign(still.begin(), still.end());
    in.last = round;
    return t;
  }

  /// New keys take slots in first-arrival order — the discovery order
  /// one-by-one inserts would give them — then the candidates, keyed by
  /// slot, are sorted into arena order and merged. Rewrites `add`'s keys.
  bool merge(u32 v, std::vector<staged>& add, u32 round) {
    if (add.empty()) return false;
    pareto_arena& row = rows[v];
    for (staged& s : add) s.key = row.slot_of(s.key);
    std::sort(add.begin(), add.end(), [](const staged& a, const staged& b) {
      if (a.key != b.key) return a.key < b.key;
      if (a.dist != b.dist) return a.dist < b.dist;
      return a.hops < b.hops;
    });
    return row.merge_sorted(add, round, h);
  }
};

/// heal::run's per-node round buffers. A caller that retries (the
/// exploration engine's ≤ 4 attempts) hands every attempt the same
/// workspace, so the buffers keep their capacity.
struct workspace {
  std::vector<std::vector<pareto_candidate>> add;
  std::vector<u8> changed;
  std::vector<traffic> sent;

  void reset(u32 n) {
    add.resize(n);
    changed.assign(n, 0);
    sent.assign(n, {});
  }
};

/// Re-offer rounds until the quiet window closes. `nominal` is the
/// fault-free round budget the healing budget scales. Every round advanced
/// is added to `rounds`, also when the budget runs out and this throws.
/// The round itself allocates nothing of its own: buffers live in `ws`, and
/// the executor gets its steps by reference.
template <class Rows>
void run(hybrid_net& net, Rows& rows, u32 nominal, const char* what,
         u64& rounds, workspace& ws) {
  const graph& g = net.g();
  const u32 n = g.num_nodes();
  const fault_options& fo = net.faults();
  round_executor& exec = net.executor();
  ws.reset(n);
  const u64 budget = u64{fo.heal_budget_mult} * std::max<u32>(nominal, 1) +
                     fo.heal_stability_rounds;
  u32 it = 0;
  const auto offer = [&](u32 v) {
    ws.add[v].clear();
    traffic sent;
    const std::span<const edge> nbrs = g.neighbors(v);
    if (net.is_up(v))
      for (u32 j = 0; j < nbrs.size(); ++j) {
        const edge& e = nbrs[j];
        sent += rows.pull(v, j, e, it, ws.add[v],
                          net.local_link(e.to, v, rows.count(e.to)));
      }
    ws.sent[v] = sent;
  };
  const auto merge = [&](u32 v) {
    ws.changed[v] = rows.merge(v, ws.add[v], it);
  };
  for (u32 quiet = 0; quiet < fo.heal_stability_rounds;) {
    if (++it > budget)
      throw fault_failure(std::string(what) + " healing budget exhausted");
    exec.for_nodes(n, offer);
    traffic all;
    for (const traffic& t : ws.sent) all += t;
    net.charge_local(all.offered);
    net.note_local_delivered(all.offered - all.dropped);
    net.note_local_dropped(all.dropped);
    net.note_retransmitted(all.retx);
    net.advance_round();
    ++rounds;
    exec.for_nodes(n, merge);
    quiet = next_quiet(net, n, quiet, ws.changed);
  }
}

}  // namespace heal
}  // namespace hybrid
