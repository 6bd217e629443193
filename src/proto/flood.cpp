// Pull-based implementations of the LOCAL primitives, run node-parallel on
// the round executor (docs/CONCURRENCY.md). Each node's step reads its
// neighbors' round-frozen frontiers and writes only its own rows, so the
// executor may run nodes concurrently; since adjacency lists are sorted by
// node ID, the pull order reproduces the classic sequential push order
// bit-for-bit (same known/next orderings, same tie-breaks). The
// frontier-emptiness checks that drive early exit are any_node reductions —
// order-insensitive, so thread-count-invariant like every other observable.
// hop_discovery, table_flood and truncated_eccentricity instantiate the
// seen-set flood kernel (proto/flood_kernel.hpp), as cluster_flood does.
// Fault healing (docs/FAULTS.md §3): under local-plane faults all three
// heal through the exploration engine (proto/sparse_exploration.cpp) in
// unit-weight, source-set mode with h = the round budget, refereed against
// the flood kernel's run as free local computation, and return that run —
// the fault-free result bit for bit — or throw fault_failure.
#include "proto/flood.hpp"

#include <algorithm>
#include <numeric>

#include "proto/flood_kernel.hpp"
#include "proto/heal_kernel.hpp"
#include "proto/sparse_exploration.hpp"
#include "util/assert.hpp"

namespace hybrid {

namespace {

/// The LOCAL floods: item i starts at roots[i], costs cost(i) per edge
/// crossing, and on_learn(v, i, hop) records v's items in learn order. On
/// a reliable local plane the flood kernel runs on the net. Under local
/// faults it runs as free local computation — its result is the fault-free
/// one by construction — and the net pays what healing the flood costs:
/// the healed exploration engine from the distinct roots, unit weights,
/// h = the budget, an offer costing the summed costs of the items rooted
/// at its source. Its referee is the same free run: each node's distinct
/// roots at their learn round, which is their hop distance. The engine
/// throws fault_failure when the healed state never reaches it, pads its
/// rounds to the fault-free flood's and surfaces any excess as
/// extra_rounds.
template <class Cost, class Learn>
void set_flood(hybrid_net& net, const std::vector<u32>& roots,
               const Cost& cost, u32 rounds, bool early_exit,
               const char* out_of_range, const Learn& on_learn) {
  const u32 n = net.n();
  const bool faulty = net.local_faults_active();
  std::vector<std::vector<exploration_entry>> reach(faulty ? n : 0);
  const auto learn = [&](u32 v, u32 i, u32 r) {
    on_learn(v, i, r);
    if (faulty) reach[v].push_back({r, roots[i], ~u32{0}});
  };
  flood::state st(n, flood::seen_bits(n, roots.size()));
  for (u32 i = 0; i < roots.size(); ++i) {
    HYB_REQUIRE(roots[i] < n, out_of_range);
    if (st.seed(roots[i], i)) learn(roots[i], i, 0);
  }
  const auto flood_on = [&](const auto& hook) {
    return flood::run(net.executor(), net.g(), st, rounds, early_exit,
                      flood::all_edges{}, cost, learn, hook);
  };
  if (!faulty) {
    flood_on(flood::net_hook{net});
    return;
  }
  const u32 ff_rounds = flood_on(flood::no_hook{});
  // Every item of a root reaches a node in the same round, so a node's
  // entries for one root are equal.
  sparse_exploration_result ref;
  ref.offsets.assign(u64{n} + 1, 0);
  for (u32 v = 0; v < n; ++v) {
    std::vector<exploration_entry>& es = reach[v];
    std::sort(es.begin(), es.end(),
              [](const exploration_entry& a, const exploration_entry& b) {
                return a.source < b.source;
              });
    es.erase(std::unique(es.begin(), es.end()), es.end());
    ref.entries.insert(ref.entries.end(), es.begin(), es.end());
    ref.offsets[v + 1] = ref.entries.size();
  }
  std::vector<u32> sources(roots);
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  std::vector<u64> offer_words(n, 0);
  for (u32 i = 0; i < roots.size(); ++i) offer_words[roots[i]] += cost(i);
  const bool unit = std::all_of(sources.begin(), sources.end(),
                                [&](u32 s) { return offer_words[s] == 1; });
  healed_local_exploration(net, rounds, ff_rounds, &sources, ref,
                           /*unit_weights=*/true,
                           unit ? nullptr : &offer_words);
  const run_metrics& m = net.raw_metrics();
  HYB_INVARIANT(m.local_items == m.local_delivered + m.local_dropped,
                "local plane ledger must balance after a healed flood");
}

}  // namespace

std::vector<std::vector<discovered_seed>> hop_discovery(
    hybrid_net& net, const std::vector<u32>& seeds, u32 rounds,
    bool early_exit) {
  std::vector<std::vector<discovered_seed>> known(net.n());
  set_flood(net, seeds, flood::unit_cost{}, rounds, early_exit,
            "seed out of range",
            [&](u32 v, u32 i, u32 r) { known[v].push_back({i, r}); });
  return known;
}

std::vector<std::vector<u32>> table_flood(hybrid_net& net,
                                          const std::vector<u32>& publishers,
                                          const std::vector<u64>& table_words,
                                          u32 rounds) {
  HYB_REQUIRE(publishers.size() == table_words.size(),
              "each publisher needs a table size");
  // The whole table crosses every edge it is pulled over.
  std::vector<std::vector<u32>> holds(net.n());
  set_flood(net, publishers, [&](u32 i) { return table_words[i]; }, rounds,
            /*early_exit=*/false, "publisher out of range",
            [&](u32 v, u32 i, u32) { holds[v].push_back(i); });
  return holds;
}

std::vector<u32> truncated_eccentricity(hybrid_net& net, u32 rounds) {
  // Every node floods its own ID; bitset seen-sets keep the memory at
  // O(n²/8) instead of (seed, hop) lists per node.
  const u32 n = net.n();
  std::vector<u32> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  std::vector<u32> ecc(n, 0);
  set_flood(net, ids, flood::unit_cost{}, rounds, /*early_exit=*/false,
            "node out of range", [&](u32 v, u32, u32 r) { ecc[v] = r; });
  return ecc;
}

}  // namespace hybrid
