// Pull-based implementations of the LOCAL primitives, run node-parallel on
// the round executor (docs/CONCURRENCY.md). Each node's step reads its
// neighbors' round-frozen frontiers and writes only its own rows, so the
// executor may run nodes concurrently; since adjacency lists are sorted by
// node ID, the pull order reproduces the classic sequential push order
// bit-for-bit (same known/next orderings, same tie-breaks). The
// frontier-emptiness checks that drive early exit are any_node reductions —
// order-insensitive, so thread-count-invariant like every other observable.
// limited_bellman_ford is a dense-row instantiation of the relaxation
// kernel (proto/relax_kernel.hpp);
// hop_discovery, table_flood and truncated_eccentricity instantiate the
// seen-set flood kernel (proto/flood_kernel.hpp), as cluster_flood does.
// Fault healing (docs/FAULTS.md §3): under local-plane faults hop_discovery,
// table_flood and limited_bellman_ford each instantiate the one re-offer
// loop of proto/heal_kernel.hpp with their rows (seen-sets, or Pareto
// (dist, hops) sets keyed by source position), referee the converged state
// against what a reliable run must produce, and pad to their nominal
// budgets. Learned hop values become learn-round stamps (upper bounds on
// the true hop distance); Bellman–Ford distances stay exact, and its
// referee's vias are what gets returned. The exploration-shaped
// truncated_eccentricity heals through the exploration engine in
// proto/sparse_exploration.cpp and returns results bit-identical to the
// fault-free run.
#include "proto/flood.hpp"

#include <algorithm>
#include <string>

#include "proto/aggregation.hpp"
#include "proto/flood_kernel.hpp"
#include "proto/heal_kernel.hpp"
#include "proto/relax_kernel.hpp"
#include "proto/sparse_exploration.hpp"
#include "util/assert.hpp"

namespace hybrid {

namespace {

/// The healed floods' referee. Quiet-window stability is a heuristic: an
/// adversarial-prefix schedule can starve a link forever and look quiet. A
/// healed flood runs to saturation, not a T-round ball, so every node must
/// hold exactly the items rooted in its own connected component; anything
/// less is a fault_failure — correct-or-explicitly-failed, never a silently
/// truncated result. The check is simulator-level, like the reliable path's
/// frontier-emptiness reductions (docs/FAULTS.md).
void require_saturated(const graph& g, const heal::seen_rows& rows,
                       const std::vector<u32>& roots, const char* what) {
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
  std::vector<u64> want(c, 0);
  for (const u32 r : roots) ++want[comp[r]];
  for (u32 v = 0; v < n; ++v)
    if (rows.held[v].size() != want[comp[v]])
      throw fault_failure(std::string(what) +
                          " healing stabilized before reaching every node");
}

std::vector<std::vector<discovered_seed>> healed_hop_discovery(
    hybrid_net& net, const std::vector<u32>& seeds, u32 rounds,
    bool early_exit) {
  heal::seen_rows rows(net.n(), seeds, "seed out of range");
  u64 used = 0;
  heal::run(net, rows, rounds, "hop_discovery", used);
  require_saturated(net.g(), rows, seeds, "hop_discovery");
  // The early exit pays the saturation-detecting aggregation instead of the
  // budget's silent rest, so only an overshoot is left to surface.
  if (early_exit)
    for (u32 extra = aggregation_rounds(net.n()); extra > 0; --extra)
      net.advance_round();
  heal::pad(net, used, early_exit ? std::min<u64>(used, rounds) : rounds);
  return std::move(rows.held);
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
    hybrid_net& net, const std::vector<u32>& sources, u32 h,
    bool advance_rounds) {
  const u32 n = net.n();
  heal::pareto_rows<heal::by_position> rows(net.g(), h,
                                            /*unit_weights=*/false);
  for (heal::by_position& row : rows.rows) row.open_slots(sources.size());
  for (u32 i = 0; i < sources.size(); ++i) {
    HYB_REQUIRE(sources[i] < n, "source out of range");
    rows.seed(sources[i], i);
  }
  u64 used = 0;
  heal::run(net, rows, h, "limited_bellman_ford", used);
  // Referee: rerun the reliable relaxation kernel as free local
  // computation — no simulated traffic — including its via tie-breaking
  // (first neighbor in adjacency order that strictly improves, per round),
  // and require the healed distance fronts to match exactly. Any
  // divergence means the stability heuristic fired before convergence. The
  // referee's result is what gets returned: healed vias depend on which
  // copy survived the drop pattern, while the callers' determinism contract
  // promises labels bit-identical to the fault-free run.
  const std::vector<relax::dense_row> ref =
      bellman_ford_rows(net.executor(), net.g(), sources, h, relax::no_hook{});
  for (u32 v = 0; v < n; ++v)
    for (u32 i = 0; i < sources.size(); ++i)
      if (rows.rows[v].front_dist(i) != ref[v].dist[i])
        throw fault_failure(
            "limited_bellman_ford healing stabilized before convergence");
  // A frozen-round caller's nominal budget is zero rounds: healing needs
  // real ones, and every one of them surfaces as extra_rounds.
  heal::pad(net, used, advance_rounds ? h : 0);
  return by_source_index(net.executor(), ref);
}

std::vector<std::vector<u32>> healed_table_flood(
    hybrid_net& net, const std::vector<u32>& publishers,
    const std::vector<u64>& table_words, u32 rounds) {
  heal::seen_rows rows(net.n(), publishers, "publisher out of range",
                       &table_words);
  u64 used = 0;
  heal::run(net, rows, rounds, "table_flood", used);
  require_saturated(net.g(), rows, publishers, "table_flood");
  heal::pad(net, used, rounds);
  std::vector<std::vector<u32>> holds(net.n());
  for (u32 v = 0; v < net.n(); ++v)
    for (const discovered_seed& d : rows.held[v]) holds[v].push_back(d.seed);
  return holds;
}

}  // namespace

std::vector<std::vector<discovered_seed>> hop_discovery(
    hybrid_net& net, const std::vector<u32>& seeds, u32 rounds,
    bool early_exit) {
  if (net.local_faults_active())
    return healed_hop_discovery(net, seeds, rounds, early_exit);
  const u32 n = net.n();
  std::vector<std::vector<discovered_seed>> known(n);
  const auto learn = [&](u32 v, u32 i, u32 r) { known[v].push_back({i, r}); };
  flood::state st(n, flood::seen_bits(n, seeds.size()));
  for (u32 i = 0; i < seeds.size(); ++i) {
    HYB_REQUIRE(seeds[i] < n, "seed out of range");
    if (st.seed(seeds[i], i)) learn(seeds[i], i, 0);
  }
  flood::run(net, st, rounds, early_exit, flood::all_edges{},
             flood::unit_cost{}, learn);
  return known;
}

std::vector<std::vector<source_distance>> limited_bellman_ford(
    hybrid_net& net, const std::vector<u32>& sources, u32 h,
    bool advance_rounds) {
  // Under faults a frozen round counter would re-roll the same draws every
  // round, so the healed path always advances real rounds (docs/FAULTS.md
  // §3).
  if (net.local_faults_active())
    return healed_limited_bellman_ford(net, sources, h, advance_rounds);
  return by_source_index(
      net.executor(),
      bellman_ford_rows(net.executor(), net.g(), sources, h,
                        relax::net_hook{net, advance_rounds}));
}

std::vector<std::vector<u32>> table_flood(hybrid_net& net,
                                          const std::vector<u32>& publishers,
                                          const std::vector<u64>& table_words,
                                          u32 rounds) {
  HYB_REQUIRE(publishers.size() == table_words.size(),
              "each publisher needs a table size");
  if (net.local_faults_active())
    return healed_table_flood(net, publishers, table_words, rounds);
  const u32 n = net.n();
  std::vector<std::vector<u32>> holds(n);
  const auto learn = [&](u32 v, u32 i, u32) { holds[v].push_back(i); };
  flood::state st(n, flood::seen_bits(n, publishers.size()));
  for (u32 i = 0; i < publishers.size(); ++i) {
    HYB_REQUIRE(publishers[i] < n, "publisher out of range");
    if (st.seed(publishers[i], i)) learn(publishers[i], i, 0);
  }
  // The whole table crosses every edge it is pulled over.
  flood::run(net, st, rounds, /*early_exit=*/false, flood::all_edges{},
             [&](u32 i) { return table_words[i]; }, learn);
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
  // All-sources hello flood over bitset seen-sets: O(n²/8) memory instead
  // of (seed, hop) lists per node.
  const u32 n = net.n();
  std::vector<u32> ecc(n, 0);
  flood::state st(n, flood::seen_bits(n, n));
  for (u32 v = 0; v < n; ++v) st.seed(v, v);
  flood::run(net, st, rounds, /*early_exit=*/false, flood::all_edges{},
             flood::unit_cost{}, [&](u32 v, u32, u32 r) { ecc[v] = r; });
  return ecc;
}

}  // namespace hybrid
