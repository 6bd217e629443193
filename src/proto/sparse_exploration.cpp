// h-hop exploration entry points and the healed exploration engine. Every
// exploration here — sparse, dense and explore_graph — is an
// instantiation of the one relaxation kernel in proto/relax_kernel.hpp; the
// sparse path differs from the dense one only in its row type (a flat_map
// of entries instead of an n-wide row), which is what makes the two
// bit-identical (the differential suite asserts it, triples and metrics
// both). Under local faults the kernel runs as free computation and its
// result is the healed engine's referee; the engine's rounds are the
// re-offer kernel of proto/heal_kernel.hpp over Pareto rows keyed in
// discovery order.
#include "proto/sparse_exploration.hpp"

#include <algorithm>

#include "proto/heal_kernel.hpp"
#include "proto/relax_kernel.hpp"
#include "util/assert.hpp"

namespace hybrid {

namespace {

void require_distinct(const std::vector<u32>& sources, u32 n) {
  std::vector<u32> sorted(sources);
  std::sort(sorted.begin(), sorted.end());
  HYB_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
              "exploration sources must be distinct");
  HYB_REQUIRE(sorted.empty() || sorted.back() < n, "source out of range");
}

/// One self-healing attempt: re-offer rounds until a crash-aware quiet
/// window, then validate against the referee's fixed point. Returns normally
/// on success; throws fault_failure on budget exhaustion or premature
/// stability (the caller retries with fresh fault draws — the round counter
/// moved). `rounds_spent` accumulates even on throw so the caller can
/// account every burned round as healing overhead. `ws` is the re-offer
/// loop's buffers, shared by every attempt.
void healed_exploration_attempt(
    hybrid_net& net, u32 h, const std::vector<u32>* sources,
    bool unit_weights, const std::vector<u64>* offer_words,
    const sparse_exploration_result& ref,
    heal::workspace& ws, u64& rounds_spent) {
  const u32 n = net.n();
  heal::pareto_rows rows(net.g(), h, unit_weights, offer_words);
  // A node ends up holding a subset of its referee entries' sources, so
  // its per-slot vectors never outgrow the referee's count; most sets end
  // with one extendable pair, so the offers start at that count too.
  for (u32 v = 0; v < n; ++v) {
    heal::pareto_arena& row = rows.rows[v];
    const std::size_t slots = ref.reached(v).size();
    row.capped.reserve(slots);
    row.begin.reserve(slots + 1);
    row.offers.reserve(slots);
  }
  if (sources) {
    for (u32 s : *sources) rows.seed(s, s);
  } else {
    for (u32 v = 0; v < n; ++v) rows.seed(v, v);
  }
  heal::run(net, rows, h, "local exploration", rounds_spent, ws);
  // Referee check: the healed support is a subset of the reliable one
  // (every held pair is realized by a ≤h-hop walk), so matching reached
  // counts plus matching front distances on every referee entry means the
  // healed state IS the fixed point. Anything less is premature stability.
  for (u32 v = 0; v < n; ++v) {
    const heal::pareto_arena& row = rows.rows[v];
    const std::span<const exploration_entry> want = ref.reached(v);
    if (row.slots() != want.size())
      throw fault_failure(
          "local exploration healing stabilized before reaching the h-ball");
    for (const exploration_entry& e : want) {
      const u32 k = row.find(e.source);
      if (k == heal::kNoSlot || row.front_dist(k) != e.dist)
        throw fault_failure(
            "local exploration healing stabilized before convergence");
    }
  }
}

}  // namespace

void healed_local_exploration(hybrid_net& net, u32 h, u64 nominal,
                              const std::vector<u32>* sources,
                              const sparse_exploration_result& ref,
                              bool unit_weights,
                              const std::vector<u64>* offer_words) {
  HYB_REQUIRE(net.local_faults_active(),
              "healed exploration requires an injected local fault plane");
  // The referee is a pure function of the graph, so retries only redraw
  // the fault schedule, never the target.
  heal::workspace ws;
  u64 spent = 0;
  for (u32 attempt = 1;; ++attempt) {
    try {
      healed_exploration_attempt(net, h, sources, unit_weights, offer_words,
                                 ref, ws, spent);
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
  // Round parity with the fault-free call: its silent rest elapses, and
  // every round beyond it is healing overhead.
  for (u64 r = spent; r < nominal; ++r) net.advance_round();
  if (spent > nominal) net.note_extra_rounds(spent - nominal);
}

namespace {

/// The one exploration over a row type. On a reliable local plane the
/// relaxation kernel is the protocol, charged round by round. Under local
/// faults it runs as free local computation (no traffic, no randomness), so
/// its flattened rows are the canonical fixed point the fault-free run
/// returns, vias included, and the healed engine then pays for reaching
/// it: its success makes these triples the result, bit-identical to the
/// fault-free run (the healed state is the same fixed point, but its first
/// hops depend on the drop pattern; the kernel's do not).
template <class Row>
sparse_exploration_result explore(hybrid_net& net, std::vector<Row> rows,
                                  relax::sources src, u32 h,
                                  bool advance_rounds, bool first_hops) {
  if (src.nodes) require_distinct(*src.nodes, net.n());
  round_executor& ex = net.executor();
  const bool healed = net.local_faults_active();
  if (healed)
    relax::run(ex, net.g(), rows, src, h, flood::no_hook{});
  else
    relax::run(ex, net.g(), rows, src, h,
               flood::net_hook{net, advance_rounds});
  sparse_exploration_result out = relax::flatten(ex, rows, src, first_hops);
  if (healed) {
    std::vector<Row>().swap(rows);  // the engine needs only the triples
    healed_local_exploration(net, h, advance_rounds ? h : 0, src.nodes, out);
  }
  return out;
}

}  // namespace

sparse_exploration_result sparse_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    const std::vector<u32>* sources, bool first_hops) {
  return explore(net, std::vector<relax::sparse_row>(net.n()), {sources}, h,
                 advance_rounds, first_hops);
}

sparse_exploration_result dense_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    const std::vector<u32>* sources, bool first_hops) {
  // n-wide rows for all sources, |sources|-wide rows keyed by position for
  // a subset; vias are only stored when asked for.
  const u32 n = net.n();
  return explore(net,
                 relax::dense_rows(
                     net.executor(), n,
                     sources ? static_cast<u32>(sources->size()) : n,
                     first_hops),
                 {sources, /*by_index=*/sources != nullptr}, h,
                 advance_rounds, first_hops);
}

sparse_exploration_result explore_graph(const graph& g, u32 h,
                                        round_executor& ex) {
  std::vector<relax::sparse_row> rows(g.num_nodes());
  relax::run(ex, g, rows, {}, h, flood::no_hook{});
  return relax::flatten(ex, rows, {}, /*first_hops=*/true);
}

sparse_exploration_result run_local_exploration(hybrid_net& net, u32 h,
                                                bool advance_rounds,
                                                const std::vector<u32>* sources,
                                                bool first_hops) {
  return net.n() <= kDenseExplorationMaxNodes
             ? dense_local_exploration(net, h, advance_rounds, sources,
                                       first_hops)
             : sparse_local_exploration(net, h, advance_rounds, sources,
                                        first_hops);
}

}  // namespace hybrid
