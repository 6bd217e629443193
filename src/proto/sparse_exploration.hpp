// The h-hop local exploration (primitive (3) of proto/flood.hpp) and its
// neighborhood-bounded sparse rows.
//
// The paper's APSP/k-SSP algorithms spend their local phase on h-hop
// exploration. The dense primitives keep an n-wide distance vector per node
// — O(n²) memory by design — which dies long before n ≈ 10⁵ on sparse
// graphs even though each node only ever hears from its h-ball. This module
// stores exactly what a node learns: per node v a flat_map
// (util/flat_map.hpp) of exploration entries keyed by source id, so total
// memory is O(Σᵥ|ball_h(v)|) instead of O(n²). The sparse regime is where HYBRID shines (Feldmann et
// al. 2020, PAPERS.md), and the trick is sound because Kuhn & Schneider's
// "run local exploration in parallel" step only ever needs the h-ball.
//
// Equivalence contract (differentially tested in
// tests/sparse_exploration_test.cpp, gated in CI): the sparse and dense
// paths are two instantiations of one round loop, the relaxation kernel in
// proto/relax_kernel.hpp, that differ only in their per-node row type. So
// they produce the same (source, dist, first_hop) triples, bit for bit, at
// every thread count, and charge the same traffic and rounds; first hops
// tie-break the same way (the first neighbor in sorted adjacency order
// that strictly improves a source's distance, docs/CONCURRENCY.md §3).
#pragma once

#include <span>
#include <vector>

#include "sim/hybrid_net.hpp"

namespace hybrid {

/// One reached source at one node: d_h(v, source) plus v's first hop on a
/// d_h-realizing path toward it (self for the source itself). Field order
/// keeps the struct at 16 bytes — the unit the O(Σ|ball_h(v)|) bound counts.
struct exploration_entry {
  u64 dist;
  u32 source;     ///< source NODE id (not an index into a sources vector)
  u32 first_hop;  ///< neighbor toward the source; self at the source
  friend bool operator==(const exploration_entry&,
                         const exploration_entry&) = default;
};

/// Per-node reached sets in one flat CSR arena: node v's triples are
/// entries[offsets[v] .. offsets[v+1]), sorted by source id. Memory is
/// O(total_reached()) = O(Σᵥ|ball_h(v)|), never O(n²).
struct sparse_exploration_result {
  std::vector<u64> offsets;  ///< size n + 1
  std::vector<exploration_entry> entries;

  std::span<const exploration_entry> reached(u32 v) const {
    return {entries.data() + offsets[v], entries.data() + offsets[v + 1]};
  }
  u64 total_reached() const { return entries.size(); }
  friend bool operator==(const sparse_exploration_result&,
                         const sparse_exploration_result&) = default;
};

/// h rounds of exploration from `sources` (nullptr = every node explores,
/// the all-pairs workload; otherwise the limited_bellman_ford workload —
/// sources must be distinct). Per-node distance state lives in
/// flat maps of reached entries, so memory is bounded by the h-ball sizes. Round and
/// traffic accounting matches the dense primitives exactly; with
/// `advance_rounds` false only traffic is charged (the paper's
/// run-in-parallel trick, Lemma 4.3). With `first_hops` false every
/// entry's first_hop is ~0 — callers that only consume (source, dist)
/// spare the dense reference path its n² first-hop matrix, and the
/// cross-path bit-identity contract holds in either mode.
sparse_exploration_result sparse_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    const std::vector<u32>* sources = nullptr, bool first_hops = true);

/// The dense path behind the same interface: the relaxation kernel over
/// n-wide rows (|sources|-wide for a subset), flattened into the sparse
/// triple format. O(n²) memory — callers bound n; it wins on small
/// instances whose balls saturate (docs/ARCHITECTURE.md §6.2).
sparse_exploration_result dense_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    const std::vector<u32>* sources = nullptr, bool first_hops = true);

/// What the cores call: dense rows up to kDenseExplorationMaxNodes nodes,
/// sparse rows beyond. Both paths return identical triples and charge
/// identical rounds/messages, so the choice is a memory/speed trade only
/// (docs/ARCHITECTURE.md §6.2). Under
/// local-plane faults every entry point routes to the healed exploration
/// engine instead (proto/heal_kernel.hpp, docs/FAULTS.md §3): Pareto
/// (dist, hops) sets re-offered until quiet, refereed against this kernel's
/// fixed point and retried with fresh draws; it returns the fault-free
/// triples or throws fault_failure. So the choice of path never changes
/// fault behavior either.
sparse_exploration_result run_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    const std::vector<u32>* sources = nullptr, bool first_hops = true);

/// h-hop all-sources exploration over an EXPLICIT adjacency list — free
/// local computation, no hybrid_net, no rounds, no traffic charging. This
/// is the level-1 table builder of the two-level hierarchy: once the
/// skeleton edge set E_S is public (disseminated), every node can run this
/// over G_S locally, exactly like skeleton_apsp. `adj[v]` holds (neighbor,
/// weight) pairs; entries come back sorted by source INDEX (the vertices of
/// `adj` are their own id space), first_hop = the producing neighbor index
/// (self at the source). Deterministic and bit-identical at every thread
/// count of `ex` — it is the relaxation kernel (proto/relax_kernel.hpp)
/// with sparse rows and no round or traffic accounting.
sparse_exploration_result explore_adjacency(
    const std::vector<std::vector<std::pair<u32, u64>>>& adj, u32 h,
    round_executor& ex);

}  // namespace hybrid
