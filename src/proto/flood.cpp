// Pull-based implementations of the LOCAL primitives, run node-parallel on
// the round executor (docs/CONCURRENCY.md). Each node's step reads its
// neighbors' round-frozen frontiers and writes only its own rows, so the
// executor may run nodes concurrently; since adjacency lists are sorted by
// node ID, the pull order reproduces the classic sequential push order
// bit-for-bit (same known/next orderings, same tie-breaks). The
// frontier-emptiness checks that drive early exit are any_node reductions —
// order-insensitive, so thread-count-invariant like every other observable.
// limited_bellman_ford and full_local_exploration are dense-row
// instantiations of the relaxation kernel (proto/relax_kernel.hpp); the
// hop and table floods below keep their own seen-set loops.
// Fault healing (docs/FAULTS.md): under local-plane faults each primitive
// that can self-heal switches to a re-offer variant — every round every node
// offers its whole held set to its neighbors (not just the last round's
// frontier), so an item lost to a drop gets fresh chances every subsequent
// round. The variant stops once no node learned anything new for
// heal_stability_rounds consecutive rounds (rounds with a crashed node
// still down never count as quiet), throws fault_failure when
// heal_budget_mult times the fault-free round budget elapses first, and
// referees its converged state against the reliable result — premature
// stability (possible under adversarial-prefix schedules, or with ~p^k
// probability under random drops) surfaces as fault_failure, never as a
// silently incomplete return. Learned
// hop values become learn-round stamps (upper bounds on the true hop
// distance); distances in the Bellman–Ford variant stay exact because each
// node keeps the Pareto-minimal (dist, hops) pairs per source and only
// offers pairs with hops < h — so every accepted value is realized by some
// ≤h-hop walk, and at convergence it is d_h. The exploration-shaped
// primitives (full_local_exploration, truncated_eccentricity) heal through
// the shared engine in proto/sparse_exploration.cpp and return results
// bit-identical to the fault-free run; the only refusals left are the two
// documented fault_unsupported cases (frozen-round Bellman–Ford below,
// charged token routing in proto/token_routing.cpp).
#include "proto/flood.hpp"

#include <algorithm>
#include <tuple>

#include "proto/aggregation.hpp"
#include "proto/relax_kernel.hpp"
#include "proto/sparse_exploration.hpp"
#include "util/assert.hpp"

namespace hybrid {

namespace {

/// Connected-component labels for the referee checks below. Frontier
/// stability is a heuristic: an adversarial-prefix schedule can starve a
/// link forever and look quiet, so each healed flood validates its
/// converged state against what a reliable flood must produce and throws
/// fault_failure on any shortfall — correct-or-explicitly-failed, never a
/// silently truncated result. The validation is simulator-level, like the
/// reliable path's frontier-emptiness reductions (docs/FAULTS.md).
std::vector<u32> component_labels(const graph& g) {
  const u32 n = g.num_nodes();
  std::vector<u32> comp(n, ~u32{0});
  std::vector<u32> stack;
  u32 c = 0;
  for (u32 root = 0; root < n; ++root) {
    if (comp[root] != ~u32{0}) continue;
    comp[root] = c;
    stack.push_back(root);
    while (!stack.empty()) {
      const u32 u = stack.back();
      stack.pop_back();
      for (const edge& e : g.neighbors(u))
        if (comp[e.to] == ~u32{0}) {
          comp[e.to] = c;
          stack.push_back(e.to);
        }
    }
    ++c;
  }
  return comp;
}

/// Per-component tally of flooded item indices (seeds / publishers): at
/// convergence every node must hold exactly the items rooted in its own
/// component.
std::vector<u64> items_per_component(const std::vector<u32>& comp,
                                     const std::vector<u32>& roots) {
  std::vector<u64> count;
  for (const u32 r : roots) {
    const u32 c = comp[r];
    if (c >= count.size()) count.resize(c + 1, 0);
    ++count[c];
  }
  return count;
}

std::vector<std::vector<discovered_seed>> healed_hop_discovery(
    hybrid_net& net, const std::vector<u32>& seeds, u32 rounds,
    bool early_exit) {
  const graph& g = net.g();
  const u32 n = g.num_nodes();
  const fault_options& fo = net.faults();
  std::vector<std::vector<discovered_seed>> known(n);
  std::vector<std::vector<char>> seen(n);
  for (u32 v = 0; v < n; ++v) seen[v].assign(seeds.size(), 0);
  for (u32 i = 0; i < seeds.size(); ++i) {
    HYB_REQUIRE(seeds[i] < n, "seed out of range");
    if (!seen[seeds[i]][i]) {
      seen[seeds[i]][i] = 1;
      known[seeds[i]].push_back({i, 0});
    }
  }
  // Staged acceptances: the pull step reads known[u] of *other* nodes, so
  // it must not grow known[v] mid-round (docs/CONCURRENCY.md); new items
  // land in add[v] and merge after the barrier.
  std::vector<std::vector<discovered_seed>> add(n);
  std::vector<u8> changed(n, 0);
  const u64 budget =
      u64{fo.heal_budget_mult} * std::max<u32>(rounds, 1) +
      fo.heal_stability_rounds;
  round_executor& exec = net.executor();
  u32 quiet = 0;
  u64 used = 0;
  while (quiet < fo.heal_stability_rounds) {
    if (used >= budget)
      throw fault_failure("hop_discovery healing budget exhausted");
    const u32 r = static_cast<u32>(++used);
    std::vector<u64> dropped(n, 0);
    const u64 items = exec.sum_nodes(n, [&](u32 v) -> u64 {
      add[v].clear();
      if (!net.is_up(v)) return 0;
      u64 mine = 0;
      for (const edge& e : g.neighbors(v)) {
        const std::vector<discovered_seed>& from = known[e.to];
        const u32 count = static_cast<u32>(from.size());
        mine += count;
        for (u32 j = 0; j < count; ++j) {
          if (net.local_drop(e.to, v, j, count)) {
            ++dropped[v];
            continue;
          }
          const u32 i = from[j].seed;
          if (!seen[v][i]) add[v].push_back({i, r});
        }
      }
      return mine;
    });
    net.charge_local(items);
    u64 lost = 0;
    for (u32 v = 0; v < n; ++v) lost += dropped[v];
    net.note_local_delivered(items - lost);
    net.note_local_dropped(lost);
    net.advance_round();
    exec.for_nodes(n, [&](u32 v) {
      changed[v] = 0;
      for (const discovered_seed& d : add[v])
        if (!seen[v][d.seed]) {
          seen[v][d.seed] = 1;
          known[v].push_back(d);
          changed[v] = 1;
        }
    });
    quiet = heal_next_quiet(net, exec, n, quiet, changed);
  }
  // Referee: each node must know exactly the seeds of its own component
  // (the healed flood runs to saturation, not a T-round ball).
  {
    const std::vector<u32> comp = component_labels(g);
    const std::vector<u64> want = items_per_component(comp, seeds);
    for (u32 v = 0; v < n; ++v)
      if (known[v].size() !=
          (comp[v] < want.size() ? want[comp[v]] : 0))
        throw fault_failure(
            "hop_discovery healing stabilized before reaching every node");
  }
  // Round-accounting parity with the reliable path: pad the fixed budget
  // (or the early-exit detection aggregation), and surface the healing
  // overshoot. Stability detection itself is simulator-level, like the
  // reliable path's frontier-emptiness check.
  if (early_exit) {
    for (u32 extra = aggregation_rounds(n); extra > 0; --extra)
      net.advance_round();
  } else {
    for (; used < rounds; ++used) net.advance_round();
  }
  if (used > rounds) net.note_extra_rounds(used - rounds);
  return known;
}

/// Pareto-minimal (dist, hops) tracking for the healed Bellman–Ford: under
/// drops a smaller-dist/more-hops value can arrive before (or instead of) a
/// fewer-hops one, and downstream nodes may only extend walks with
/// hops < h — keeping just the best dist per source would silently lose
/// valid ≤h-hop distances. Sets stay sorted by dist ascending (hence hops
/// strictly descending).
struct pareto_entry {
  u64 dist;
  u32 hops;
  u32 via;
};

bool pareto_dominated(const std::vector<pareto_entry>& set, u64 dist,
                      u32 hops) {
  for (const pareto_entry& e : set)
    if (e.dist <= dist && e.hops <= hops) return true;
  return false;
}

void pareto_insert(std::vector<pareto_entry>& set, u64 dist, u32 hops,
                   u32 via) {
  set.erase(std::remove_if(set.begin(), set.end(),
                           [&](const pareto_entry& e) {
                             return e.dist >= dist && e.hops >= hops;
                           }),
            set.end());
  auto pos = std::lower_bound(set.begin(), set.end(), dist,
                              [](const pareto_entry& e, u64 d) {
                                return e.dist < d;
                              });
  set.insert(pos, {dist, hops, via});
}

/// limited_bellman_ford's rows: one |sources|-wide dense row per node,
/// keyed by source position (duplicate sources get identical columns).
template <class Hook>
std::vector<relax::dense_row> bellman_ford_rows(
    round_executor& ex, const graph& g, const std::vector<u32>& sources,
    u32 h, const Hook& hook) {
  std::vector<relax::dense_row> rows = relax::dense_rows(
      ex, g.num_nodes(), static_cast<u32>(sources.size()), /*vias=*/true);
  relax::run(ex, rows, {&sources, /*by_index=*/true}, h,
             relax::graph_edges{g}, hook);
  return rows;
}

/// Per node, the reached sources in index order with their vias.
std::vector<std::vector<source_distance>> by_source_index(
    round_executor& ex, const std::vector<relax::dense_row>& rows) {
  std::vector<std::vector<source_distance>> out(rows.size());
  ex.for_nodes(static_cast<u32>(rows.size()), [&](u32 v) {
    const relax::dense_row& row = rows[v];
    for (u32 i = 0; i < row.dist.size(); ++i)
      if (row.dist[i] != kInfDist)
        out[v].push_back({i, row.dist[i], row.via[i]});
  });
  return out;
}

std::vector<std::vector<source_distance>> healed_limited_bellman_ford(
    hybrid_net& net, const std::vector<u32>& sources, u32 h) {
  const graph& g = net.g();
  const u32 n = g.num_nodes();
  const u32 s_count = static_cast<u32>(sources.size());
  const fault_options& fo = net.faults();
  // cur[v][i]: Pareto-minimal (dist, hops) pairs v holds for source i.
  std::vector<std::vector<std::vector<pareto_entry>>> cur(
      n, std::vector<std::vector<pareto_entry>>(s_count));
  for (u32 i = 0; i < s_count; ++i) {
    HYB_REQUIRE(sources[i] < n, "source out of range");
    if (cur[sources[i]][i].empty())
      cur[sources[i]][i].push_back({0, 0, sources[i]});
  }
  // (source, dist, hops, via) acceptances staged per round, merged after
  // the barrier (steps read other nodes' cur).
  std::vector<std::vector<std::tuple<u32, u64, u32, u32>>> add(n);
  std::vector<u8> changed(n, 0);
  std::vector<u64> dropped(n, 0);
  const u64 budget = u64{fo.heal_budget_mult} * std::max<u32>(h, 1) +
                     fo.heal_stability_rounds;
  round_executor& exec = net.executor();
  u32 quiet = 0;
  u64 used = 0;
  while (quiet < fo.heal_stability_rounds) {
    if (used >= budget)
      throw fault_failure("limited_bellman_ford healing budget exhausted");
    ++used;
    const u64 items = exec.sum_nodes(n, [&](u32 v) -> u64 {
      add[v].clear();
      dropped[v] = 0;
      if (!net.is_up(v)) return 0;
      u64 mine = 0;
      for (const edge& e : g.neighbors(v)) {
        // Offered set: every held pair that can still be extended within
        // the hop budget. Enumerate once for the count (the adversarial
        // mode needs it), once for the pulls.
        u32 count = 0;
        for (u32 i = 0; i < s_count; ++i)
          for (const pareto_entry& pe : cur[e.to][i])
            if (pe.hops < h) ++count;
        mine += count;
        u32 idx = 0;
        for (u32 i = 0; i < s_count; ++i)
          for (const pareto_entry& pe : cur[e.to][i]) {
            if (pe.hops >= h) continue;
            if (net.local_drop(e.to, v, idx++, count)) {
              ++dropped[v];
              continue;
            }
            const u64 nd = pe.dist + e.weight;
            const u32 nh = pe.hops + 1;
            if (!pareto_dominated(cur[v][i], nd, nh))
              add[v].push_back({i, nd, nh, e.to});
          }
      }
      return mine;
    });
    net.charge_local(items);
    u64 lost = 0;
    for (u32 v = 0; v < n; ++v) lost += dropped[v];
    net.note_local_delivered(items - lost);
    net.note_local_dropped(lost);
    net.advance_round();
    exec.for_nodes(n, [&](u32 v) {
      changed[v] = 0;
      for (const auto& [i, nd, nh, via] : add[v]) {
        if (pareto_dominated(cur[v][i], nd, nh)) continue;
        pareto_insert(cur[v][i], nd, nh, via);
        changed[v] = 1;
      }
    });
    quiet = heal_next_quiet(net, exec, n, quiet, changed);
  }
  // Referee: rerun the reliable relaxation kernel as free local
  // computation — no simulated traffic — including its via tie-breaking
  // (first neighbor in adjacency order that strictly improves, per round),
  // and require the healed distance fronts to match exactly. Healed
  // entries are always realized by ≤h-hop walks, so any divergence means
  // the stability heuristic fired before convergence. The referee's result
  // is what gets returned: healed vias depend on which copy survived the
  // drop pattern, while the callers' determinism contract promises labels
  // bit-identical to the fault-free run.
  const std::vector<relax::dense_row> ref =
      bellman_ford_rows(exec, g, sources, h, relax::no_hook{});
  for (u32 v = 0; v < n; ++v)
    for (u32 i = 0; i < s_count; ++i)
      if ((cur[v][i].empty() ? kInfDist : cur[v][i].front().dist) !=
          ref[v].dist[i])
        throw fault_failure(
            "limited_bellman_ford healing stabilized before convergence");
  for (; used < h; ++used) net.advance_round();
  if (used > h) net.note_extra_rounds(used - h);
  return by_source_index(exec, ref);
}

std::vector<std::vector<u32>> healed_table_flood(
    hybrid_net& net, const std::vector<u32>& publishers,
    const std::vector<u64>& table_words, u32 rounds) {
  const graph& g = net.g();
  const u32 n = g.num_nodes();
  const fault_options& fo = net.faults();
  std::vector<std::vector<u32>> holds(n);
  std::vector<std::vector<char>> seen(n);
  for (u32 v = 0; v < n; ++v) seen[v].assign(publishers.size(), 0);
  for (u32 i = 0; i < publishers.size(); ++i) {
    const u32 p = publishers[i];
    HYB_REQUIRE(p < n, "publisher out of range");
    if (!seen[p][i]) {
      seen[p][i] = 1;
      holds[p].push_back(i);
    }
  }
  std::vector<std::vector<u32>> add(n);
  std::vector<u8> changed(n, 0);
  std::vector<u64> dropped(n, 0);
  const u64 budget = u64{fo.heal_budget_mult} * std::max<u32>(rounds, 1) +
                     fo.heal_stability_rounds;
  round_executor& exec = net.executor();
  u32 quiet = 0;
  u64 used = 0;
  while (quiet < fo.heal_stability_rounds) {
    if (used >= budget)
      throw fault_failure("table_flood healing budget exhausted");
    ++used;
    const u64 items = exec.sum_nodes(n, [&](u32 v) -> u64 {
      add[v].clear();
      dropped[v] = 0;
      if (!net.is_up(v)) return 0;
      u64 mine = 0;
      for (const edge& e : g.neighbors(v)) {
        const std::vector<u32>& from = holds[e.to];
        const u32 count = static_cast<u32>(from.size());
        for (u32 j = 0; j < count; ++j) {
          mine += table_words[from[j]];  // whole table crosses the edge
          if (net.local_drop(e.to, v, j, count)) {
            ++dropped[v];
            continue;
          }
          if (!seen[v][from[j]]) add[v].push_back(from[j]);
        }
      }
      return mine;
    });
    net.charge_local(items);
    u64 lost = 0;
    for (u32 v = 0; v < n; ++v) lost += dropped[v];
    net.note_local_delivered(items - lost);
    net.note_local_dropped(lost);
    net.advance_round();
    exec.for_nodes(n, [&](u32 v) {
      changed[v] = 0;
      for (u32 i : add[v])
        if (!seen[v][i]) {
          seen[v][i] = 1;
          holds[v].push_back(i);
          changed[v] = 1;
        }
    });
    quiet = heal_next_quiet(net, exec, n, quiet, changed);
  }
  // Referee: every node must hold exactly its component's tables.
  {
    const std::vector<u32> comp = component_labels(g);
    const std::vector<u64> want = items_per_component(comp, publishers);
    for (u32 v = 0; v < n; ++v)
      if (holds[v].size() !=
          (comp[v] < want.size() ? want[comp[v]] : 0))
        throw fault_failure(
            "table_flood healing stabilized before reaching every node");
  }
  for (; used < rounds; ++used) net.advance_round();
  if (used > rounds) net.note_extra_rounds(used - rounds);
  return holds;
}

}  // namespace

u32 heal_next_quiet(hybrid_net& net, round_executor& exec, u32 n, u32 quiet,
                    const std::vector<u8>& changed) {
  if (exec.any_node(n, [&](u32 v) { return changed[v] != 0; })) return 0;
  if (!net.faults().crashes.empty() &&
      exec.any_node(n, [&](u32 v) { return !net.is_up(v); }))
    return 0;
  return quiet + 1;
}

std::vector<std::vector<discovered_seed>> hop_discovery(
    hybrid_net& net, const std::vector<u32>& seeds, u32 rounds,
    bool early_exit) {
  if (net.local_faults_active())
    return healed_hop_discovery(net, seeds, rounds, early_exit);
  const graph& g = net.g();
  const u32 n = g.num_nodes();
  std::vector<std::vector<discovered_seed>> known(n);
  // frontier[v] = seed indices first learned by v in the previous round;
  // next is its double buffer, cleared in place each round.
  std::vector<std::vector<u32>> frontier(n);
  std::vector<std::vector<u32>> next(n);
  std::vector<std::vector<char>> seen(n);
  for (u32 v = 0; v < n; ++v) seen[v].assign(seeds.size(), 0);
  for (u32 i = 0; i < seeds.size(); ++i) {
    HYB_REQUIRE(seeds[i] < n, "seed out of range");
    if (!seen[seeds[i]][i]) {
      seen[seeds[i]][i] = 1;
      known[seeds[i]].push_back({i, 0});
      frontier[seeds[i]].push_back(i);
    }
  }
  for (u32 r = 1; r <= rounds; ++r) {
    const u64 items = net.executor().sum_nodes(n, [&](u32 v) -> u64 {
      next[v].clear();
      u64 mine = 0;
      for (const edge& e : g.neighbors(v)) {
        const std::vector<u32>& from = frontier[e.to];
        mine += from.size();
        for (u32 i : from) {
          if (!seen[v][i]) {
            seen[v][i] = 1;
            known[v].push_back({i, r});
            next[v].push_back(i);
          }
        }
      }
      return mine;
    });
    net.charge_local(items);
    net.note_local_delivered(items);
    net.advance_round();
    frontier.swap(next);
    const bool any = net.executor().any_node(
        n, [&](u32 v) { return !frontier[v].empty(); });
    if (!any && r < rounds) {
      if (early_exit) {
        // Detecting global saturation costs one AND-aggregation.
        for (u32 extra = aggregation_rounds(n); extra > 0; --extra)
          net.advance_round();
      } else {
        // Fixed round budgets are part of the protocols: the remaining
        // rounds are silent but still elapse.
        for (u32 rest = r + 1; rest <= rounds; ++rest) net.advance_round();
      }
      break;
    }
  }
  return known;
}

std::vector<std::vector<source_distance>> limited_bellman_ford(
    hybrid_net& net, const std::vector<u32>& sources, u32 h,
    bool advance_rounds) {
  if (net.local_faults_active()) {
    // With a frozen round counter the fault stream would re-roll the same
    // draws every iteration — a dropped edge stays dropped forever and no
    // amount of re-offering heals it. The remediation its former
    // fault_unsupported refusal named (run with advance_rounds=true) is now
    // honored automatically: the healed path runs with real rounds, and
    // because the caller asked for a frozen counter its nominal budget is 0
    // — every round actually consumed surfaces as extra_rounds, so metrics
    // record the whole cost of the fallback (docs/FAULTS.md §3).
    if (!advance_rounds) {
      const u64 r0 = net.round();
      const u64 x0 = net.raw_metrics().extra_rounds;
      auto out = healed_limited_bellman_ford(net, sources, h);
      const u64 spent = net.round() - r0;
      const u64 noted = net.raw_metrics().extra_rounds - x0;
      if (spent > noted) net.note_extra_rounds(spent - noted);
      return out;
    }
    return healed_limited_bellman_ford(net, sources, h);
  }
  return by_source_index(
      net.executor(),
      bellman_ford_rows(net.executor(), net.g(), sources, h,
                        relax::net_hook{net, advance_rounds}));
}

std::vector<std::vector<u64>> full_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    std::vector<std::vector<u32>>* first_hop) {
  if (net.local_faults_active()) {
    // Self-heal through the shared exploration engine
    // (proto/sparse_exploration.cpp) and expand its canonical CSR triples
    // back into the dense matrix shape this primitive promises. The engine
    // returns the referee's fixed point, so dist and first_hop are
    // bit-identical to the fault-free run.
    const sparse_exploration_result got = healed_local_exploration(
        net, h, advance_rounds, nullptr, first_hop != nullptr);
    const u32 n = net.n();
    std::vector<std::vector<u64>> dist(n, std::vector<u64>(n, kInfDist));
    if (first_hop) first_hop->assign(n, std::vector<u32>(n, ~u32{0}));
    for (u32 v = 0; v < n; ++v)
      for (const exploration_entry& e : got.reached(v)) {
        dist[v][e.source] = e.dist;
        if (first_hop) (*first_hop)[v][e.source] = e.first_hop;
      }
    return dist;
  }
  const u32 n = net.n();
  std::vector<relax::dense_row> rows =
      relax::dense_rows(net.executor(), n, n, first_hop != nullptr);
  relax::run(net.executor(), rows, {}, h, relax::graph_edges{net.g()},
             relax::net_hook{net, advance_rounds});
  std::vector<std::vector<u64>> dist(n);
  if (first_hop) first_hop->assign(n, {});
  for (u32 v = 0; v < n; ++v) {
    dist[v] = std::move(rows[v].dist);
    if (first_hop) (*first_hop)[v] = std::move(rows[v].via);
  }
  return dist;
}

std::vector<std::vector<u32>> table_flood(hybrid_net& net,
                                          const std::vector<u32>& publishers,
                                          const std::vector<u64>& table_words,
                                          u32 rounds) {
  HYB_REQUIRE(publishers.size() == table_words.size(),
              "each publisher needs a table size");
  if (net.local_faults_active())
    return healed_table_flood(net, publishers, table_words, rounds);
  const graph& g = net.g();
  const u32 n = g.num_nodes();
  std::vector<std::vector<u32>> holds(n);
  // frontier[v] = tables first received by v in the previous round; next
  // is its double buffer, cleared in place each round.
  std::vector<std::vector<u32>> frontier(n);
  std::vector<std::vector<u32>> next(n);
  std::vector<std::vector<char>> seen(n);
  for (u32 v = 0; v < n; ++v) seen[v].assign(publishers.size(), 0);
  for (u32 i = 0; i < publishers.size(); ++i) {
    const u32 p = publishers[i];
    HYB_REQUIRE(p < n, "publisher out of range");
    if (!seen[p][i]) {
      seen[p][i] = 1;
      holds[p].push_back(i);
      frontier[p].push_back(i);
    }
  }
  for (u32 r = 1; r <= rounds; ++r) {
    const u64 items = net.executor().sum_nodes(n, [&](u32 v) -> u64 {
      next[v].clear();
      u64 mine = 0;
      for (const edge& e : g.neighbors(v)) {
        for (u32 i : frontier[e.to]) {
          mine += table_words[i];  // whole table crosses the edge
          if (!seen[v][i]) {
            seen[v][i] = 1;
            holds[v].push_back(i);
            next[v].push_back(i);
          }
        }
      }
      return mine;
    });
    net.charge_local(items);
    net.note_local_delivered(items);
    net.advance_round();
    frontier.swap(next);
    const bool any = net.executor().any_node(
        n, [&](u32 v) { return !frontier[v].empty(); });
    if (!any && r < rounds) {
      for (u32 rest = r + 1; rest <= rounds; ++rest) net.advance_round();
      break;
    }
  }
  return holds;
}

std::vector<u32> truncated_eccentricity(hybrid_net& net, u32 rounds) {
  if (net.local_faults_active()) {
    // Hello floods carry hop counts, not weighted distances, so run the
    // healed engine with unit weights (always with real rounds — frozen
    // counters cannot heal) and read each node's truncated eccentricity off
    // its reached set. The engine returns the referee's canonical fixed
    // point, so the h_v vector is bit-identical to the fault-free flood.
    const sparse_exploration_result got = healed_local_exploration(
        net, rounds, true, nullptr, false, true);
    const run_metrics& m = net.raw_metrics();
    HYB_INVARIANT(m.local_items == m.local_delivered + m.local_dropped,
                  "local plane ledger must balance after a healed flood");
    const u32 n = net.n();
    std::vector<u32> ecc(n, 0);
    for (u32 v = 0; v < n; ++v)
      for (const exploration_entry& e : got.reached(v))
        ecc[v] = std::max(ecc[v], static_cast<u32>(e.dist));
    return ecc;
  }
  // Bitset-based all-sources hello flood: O(n²/8) memory instead of storing
  // (seed, hop) lists per node.
  const graph& g = net.g();
  const u32 n = g.num_nodes();
  const u32 words = (n + 63) / 64;
  std::vector<std::vector<u64>> seen(n, std::vector<u64>(words, 0));
  std::vector<std::vector<u32>> frontier(n);
  std::vector<std::vector<u32>> next(n);  // double buffer, cleared in place
  std::vector<u32> ecc(n, 0);
  for (u32 v = 0; v < n; ++v) {
    seen[v][v / 64] |= u64{1} << (v % 64);
    frontier[v].push_back(v);
  }
  for (u32 r = 1; r <= rounds; ++r) {
    const u64 items = net.executor().sum_nodes(n, [&](u32 v) -> u64 {
      next[v].clear();
      u64 mine = 0;
      for (const edge& e : g.neighbors(v)) {
        const std::vector<u32>& from = frontier[e.to];
        mine += from.size();
        for (u32 id : from) {
          u64& word = seen[v][id / 64];
          const u64 bit = u64{1} << (id % 64);
          if (!(word & bit)) {
            word |= bit;
            ecc[v] = r;
            next[v].push_back(id);
          }
        }
      }
      return mine;
    });
    net.charge_local(items);
    net.note_local_delivered(items);
    net.advance_round();
    frontier.swap(next);
    const bool any = net.executor().any_node(
        n, [&](u32 v) { return !frontier[v].empty(); });
    if (!any && r < rounds) {
      // This branch only runs on a reliable local plane (the healed path
      // returned above), so everything charged must have arrived: the
      // ledger local_items == local_delivered + local_dropped balances with
      // a zero dropped share from this flood.
      const run_metrics& m = net.raw_metrics();
      HYB_INVARIANT(m.local_items == m.local_delivered + m.local_dropped,
                    "local plane ledger must balance at flood saturation");
      for (u32 rest = r + 1; rest <= rounds; ++rest) net.advance_round();
      break;
    }
  }
  return ecc;
}

}  // namespace hybrid
