// h-hop exploration entry points and the healed exploration engine. Every
// reliable loop here — sparse, dense, explore_adjacency and the healed
// engine's referee — is an instantiation of the one relaxation kernel in
// proto/relax_kernel.hpp; the sparse path differs from the dense one only
// in its row type (sparse_dist_map instead of an n-wide row), which is
// what makes the two bit-identical (the differential suite asserts it,
// triples and metrics both).
#include "proto/sparse_exploration.hpp"

#include <algorithm>
#include <tuple>

#include "proto/flood.hpp"
#include "proto/relax_kernel.hpp"
#include "util/assert.hpp"

namespace hybrid {

namespace {

/// Fibonacci multiplicative mix; sources are sequential small ints, so the
/// multiply spreads them across the probe table.
u32 hash_source(u32 source, u32 mask) {
  return static_cast<u32>((u64{source} * 0x9E3779B97F4A7C15ull) >> 32) & mask;
}

void require_distinct(const std::vector<u32>& sources, u32 n) {
  std::vector<u32> sorted(sources);
  std::sort(sorted.begin(), sorted.end());
  HYB_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
              "exploration sources must be distinct");
  HYB_REQUIRE(sorted.empty() || sorted.back() < n, "source out of range");
}

/// The healed engine's referee: the reliable kernel run as free local
/// computation (no simulated traffic, no randomness), so its flattened
/// result is the canonical fixed point the fault-free run returns, vias
/// included. `unit_weights` floods hop counts instead of weighted distances
/// (truncated_eccentricity).
sparse_exploration_result reliable_exploration_reference(
    round_executor& ex, const graph& g, u32 h,
    const std::vector<u32>* sources, bool first_hops, bool unit_weights) {
  std::vector<sparse_dist_map> rows(g.num_nodes());
  const relax::sources src{sources};
  if (unit_weights)
    relax::run(ex, rows, src, h, relax::unit_edges{g}, relax::no_hook{});
  else
    relax::run(ex, rows, src, h, relax::graph_edges{g}, relax::no_hook{});
  return relax::flatten(ex, rows, src, first_hops);
}

/// One Pareto-minimal (dist, hops) pair the healed engine holds for a
/// source, stamped with the merge iteration that accepted it — offering a
/// pair in any later iteration than stamp + 1 is a retransmission
/// (docs/FAULTS.md §3's `retransmitted` counter).
struct healed_pareto_entry {
  u64 dist;
  u32 hops;
  u32 stamp;
};

/// Per-node healed state: sources in insertion (discovery) order, each with
/// its dist-ascending / hops-strictly-descending Pareto set. Insertion
/// order is a pure function of the merge history, which is deterministic
/// and thread-count-invariant, so the per-edge offer enumeration (and with
/// it every fault draw index) is too. Lookup is a linear scan — healed runs
/// are test/bench sized, and the referee bounds the held set by the h-ball.
struct healed_source_sets {
  std::vector<u32> sources;
  std::vector<std::vector<healed_pareto_entry>> sets;

  u32 find(u32 source) const {
    for (u32 k = 0; k < sources.size(); ++k)
      if (sources[k] == source) return k;
    return ~u32{0};
  }
  bool dominated(u32 source, u64 dist, u32 hops) const {
    const u32 k = find(source);
    if (k == ~u32{0}) return false;
    for (const healed_pareto_entry& e : sets[k])
      if (e.dist <= dist && e.hops <= hops) return true;
    return false;
  }
  void insert(u32 source, u64 dist, u32 hops, u32 stamp) {
    u32 k = find(source);
    if (k == ~u32{0}) {
      k = static_cast<u32>(sources.size());
      sources.push_back(source);
      sets.emplace_back();
    }
    std::vector<healed_pareto_entry>& set = sets[k];
    set.erase(std::remove_if(set.begin(), set.end(),
                             [&](const healed_pareto_entry& e) {
                               return e.dist >= dist && e.hops >= hops;
                             }),
              set.end());
    auto pos = std::lower_bound(set.begin(), set.end(), dist,
                                [](const healed_pareto_entry& e, u64 d) {
                                  return e.dist < d;
                                });
    set.insert(pos, {dist, hops, stamp});
  }
};

/// One self-healing attempt: re-offer rounds until a crash-aware quiet
/// window, then validate against the referee's fixed point. Returns normally
/// on success; throws fault_failure on budget exhaustion or premature
/// stability (the caller retries with fresh fault draws — the round counter
/// moved). `rounds_spent` accumulates even on throw so the caller can
/// account every burned round as healing overhead.
void healed_exploration_attempt(hybrid_net& net, u32 h,
                                const std::vector<u32>* sources,
                                bool unit_weights,
                                const sparse_exploration_result& ref,
                                u64& rounds_spent) {
  const graph& g = net.g();
  const u32 n = g.num_nodes();
  const fault_options& fo = net.faults();
  round_executor& exec = net.executor();
  std::vector<healed_source_sets> cur(n);
  if (sources) {
    for (u32 s : *sources) cur[s].insert(s, 0, 0, 0);
  } else {
    for (u32 v = 0; v < n; ++v) cur[v].insert(v, 0, 0, 0);
  }
  // (source, dist, hops) acceptances staged per round, merged after the
  // barrier (steps read other nodes' cur, docs/CONCURRENCY.md).
  std::vector<std::vector<std::tuple<u32, u64, u32>>> add(n);
  std::vector<u8> changed(n, 0);
  std::vector<u64> dropped(n, 0);
  std::vector<u64> retx(n, 0);
  const u64 budget = u64{fo.heal_budget_mult} * std::max<u32>(h, 1) +
                     fo.heal_stability_rounds;
  u32 quiet = 0;
  u64 used = 0;
  while (quiet < fo.heal_stability_rounds) {
    if (used >= budget)
      throw fault_failure("local exploration healing budget exhausted");
    const u32 it = static_cast<u32>(++used);
    const u64 items = exec.sum_nodes(n, [&](u32 v) -> u64 {
      add[v].clear();
      dropped[v] = 0;
      retx[v] = 0;
      if (!net.is_up(v)) return 0;
      u64 mine = 0;
      for (const edge& e : g.neighbors(v)) {
        // Offered set: every held pair that can still be extended within
        // the hop budget. Enumerate once for the count (the adversarial
        // mode needs it), once for the pulls.
        const healed_source_sets& from = cur[e.to];
        u32 count = 0;
        for (const std::vector<healed_pareto_entry>& set : from.sets)
          for (const healed_pareto_entry& pe : set)
            if (pe.hops < h) ++count;
        mine += count;
        const u64 w = unit_weights ? 1 : e.weight;
        u32 idx = 0;
        for (u32 k = 0; k < from.sources.size(); ++k)
          for (const healed_pareto_entry& pe : from.sets[k]) {
            if (pe.hops >= h) continue;
            // A pair first crosses edges in the iteration after its merge;
            // any later crossing is a retransmission (counted whether or
            // not this copy is then dropped — it did cross the edge).
            if (pe.stamp + 1 < it) ++retx[v];
            if (net.local_drop(e.to, v, idx++, count)) {
              ++dropped[v];
              continue;
            }
            const u64 nd = pe.dist + w;
            const u32 nh = pe.hops + 1;
            if (!cur[v].dominated(from.sources[k], nd, nh))
              add[v].push_back({from.sources[k], nd, nh});
          }
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
    // Rounds always advance, even for advance_rounds=false callers: a
    // frozen counter would re-roll the same drops forever, so healing needs
    // real rounds (the caller surfaces them all via note_extra_rounds).
    net.advance_round();
    ++rounds_spent;
    exec.for_nodes(n, [&](u32 v) {
      changed[v] = 0;
      for (const auto& [s, nd, nh] : add[v]) {
        if (cur[v].dominated(s, nd, nh)) continue;
        cur[v].insert(s, nd, nh, it);
        changed[v] = 1;
      }
    });
    quiet = heal_next_quiet(net, exec, n, quiet, changed);
  }
  // Referee check: the healed support is a subset of the reliable one
  // (every held pair is realized by a ≤h-hop walk), so matching reached
  // counts plus matching front distances on every referee entry means the
  // healed state IS the fixed point. Anything less is premature stability.
  for (u32 v = 0; v < n; ++v) {
    const std::span<const exploration_entry> want = ref.reached(v);
    if (cur[v].sources.size() != want.size())
      throw fault_failure(
          "local exploration healing stabilized before reaching the h-ball");
    for (const exploration_entry& e : want) {
      const u32 k = cur[v].find(e.source);
      if (k == ~u32{0} || cur[v].sets[k].front().dist != e.dist)
        throw fault_failure(
            "local exploration healing stabilized before convergence");
    }
  }
}

}  // namespace

u64 sparse_dist_map::dist_of(u32 source) const {
  if (table_.empty()) return kInfDist;
  u32 i = hash_source(source, mask_);
  for (;;) {
    const u32 slot = table_[i];
    if (slot == 0) return kInfDist;
    if (entries_[slot - 1].source == source) return entries_[slot - 1].dist;
    i = (i + 1) & mask_;
  }
}

u32* sparse_dist_map::find_slot(u32 source) {
  u32 i = hash_source(source, mask_);
  for (;;) {
    u32& slot = table_[i];
    if (slot == 0 || entries_[slot - 1].source == source) return &slot;
    i = (i + 1) & mask_;
  }
}

bool sparse_dist_map::relax(u32 source, u64 nd, u32 via) {
  if (table_.empty()) grow();
  u32* slot = find_slot(source);
  if (*slot != 0) {
    exploration_entry& e = entries_[*slot - 1];
    if (nd >= e.dist) return false;
    e.dist = nd;
    e.first_hop = via;
    return true;
  }
  entries_.push_back({nd, source, via});
  *slot = static_cast<u32>(entries_.size());
  // Keep load factor under 1/2 so probe chains stay short.
  if (2 * entries_.size() >= table_.size()) grow();
  return true;
}

void sparse_dist_map::grow() {
  const u32 cap = table_.empty() ? 8 : static_cast<u32>(table_.size()) * 2;
  table_.assign(cap, 0);
  mask_ = cap - 1;
  for (u32 k = 0; k < entries_.size(); ++k)
    *find_slot(entries_[k].source) = k + 1;
}

void sparse_dist_map::clear() {
  entries_.clear();
  std::fill(table_.begin(), table_.end(), 0);
}

sparse_exploration_result healed_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    const std::vector<u32>* sources, bool first_hops, bool unit_weights) {
  HYB_REQUIRE(net.local_faults_active(),
              "healed exploration requires an injected local fault plane");
  const u32 n = net.n();
  if (sources) require_distinct(*sources, n);
  // The referee fixed point is computed once — it is a pure function of the
  // graph, so retries only redraw the fault schedule, never the target.
  const sparse_exploration_result ref = reliable_exploration_reference(
      net.executor(), net.g(), h, sources, first_hops, unit_weights);
  const u64 nominal = advance_rounds ? h : 0;
  u64 spent = 0;
  for (u32 attempt = 1;; ++attempt) {
    try {
      healed_exploration_attempt(net, h, sources, unit_weights, ref, spent);
      break;
    } catch (const fault_failure&) {
      // Each retry sees fresh fault draws (the round counter moved), so
      // random schedules converge with overwhelming probability; only
      // adversarial ones exhaust the retries.
      if (attempt >= 4) {
        net.note_extra_rounds(spent);
        throw;
      }
    }
  }
  // Round-accounting parity with the reliable path: pad up to the nominal
  // budget and surface everything beyond it as healing overhead. With
  // advance_rounds=false the nominal budget is zero — the run-in-parallel
  // trick is unavailable under faults, so every round spent is overhead.
  for (; spent < nominal; ++spent) net.advance_round();
  if (spent > nominal) net.note_extra_rounds(spent - nominal);
  // Return the referee's canonical triples: bit-identical to the fault-free
  // run (the healed state was just validated to be the same fixed point,
  // but its first hops depend on the drop pattern; the referee's do not).
  return ref;
}

sparse_exploration_result sparse_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    const std::vector<u32>* sources, bool first_hops) {
  if (net.local_faults_active())
    return healed_local_exploration(net, h, advance_rounds, sources,
                                    first_hops);
  const u32 n = net.n();
  if (sources) require_distinct(*sources, n);
  std::vector<sparse_dist_map> rows(n);
  const relax::sources src{sources};
  relax::run(net.executor(), rows, src, h, relax::graph_edges{net.g()},
             relax::net_hook{net, advance_rounds});
  return relax::flatten(net.executor(), rows, src, first_hops);
}

sparse_exploration_result dense_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    const std::vector<u32>* sources, bool first_hops) {
  if (net.local_faults_active())
    return healed_local_exploration(net, h, advance_rounds, sources,
                                    first_hops);
  const u32 n = net.n();
  if (sources) require_distinct(*sources, n);
  // n-wide rows for all sources, |sources|-wide rows keyed by position for
  // a subset; vias are only stored when asked for.
  std::vector<relax::dense_row> rows = relax::dense_rows(
      net.executor(), n, sources ? static_cast<u32>(sources->size()) : n,
      first_hops);
  const relax::sources src{sources, /*by_index=*/sources != nullptr};
  relax::run(net.executor(), rows, src, h, relax::graph_edges{net.g()},
             relax::net_hook{net, advance_rounds});
  return relax::flatten(net.executor(), rows, src, first_hops);
}

sparse_exploration_result explore_adjacency(
    const std::vector<std::vector<std::pair<u32, u64>>>& adj, u32 h,
    round_executor& ex) {
  std::vector<sparse_dist_map> rows(adj.size());
  relax::run(ex, rows, {}, h, relax::adjacency_edges{adj}, relax::no_hook{});
  return relax::flatten(ex, rows, {}, /*first_hops=*/true);
}

sparse_exploration_result run_local_exploration(hybrid_net& net, u32 h,
                                                bool advance_rounds,
                                                const std::vector<u32>* sources,
                                                bool first_hops) {
  // Both message-level paths assume reliable neighborhood reads; under
  // local-plane faults the healed engine takes over before either runs, so
  // the dense/sparse choice never changes fault behavior (docs/FAULTS.md).
  if (net.local_faults_active())
    return healed_local_exploration(net, h, advance_rounds, sources,
                                    first_hops);
  return resolve_exploration(net.options(), net.n()) == exploration_path::kDense
             ? dense_local_exploration(net, h, advance_rounds, sources,
                                       first_hops)
             : sparse_local_exploration(net, h, advance_rounds, sources,
                                        first_hops);
}

}  // namespace hybrid
