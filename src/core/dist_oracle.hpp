// Distance-label oracle: the queryable form of the APSP/k-SSP outputs.
//
// The paper's Theorem 1.1 construction never computes an n×n matrix at any
// single node — it leaves every node v with (a) its h-hop ball distances
// d_h(v, ·), (b) its distances to the nearby skeleton nodes ("gateways"),
// and (c) the flooded skeleton label table. The distance of any pair is then
// the free local composition
//
//     d(u, v) = min( d_h(u, v),  min_{s near u} d_h(u, s) + d(s, v) )
//
// (step 4 of the Section 3 pipeline). This module stores exactly those
// per-node labels — Õ(|ball_h(v)| + |V_S|) words per node instead of n — and
// answers query/next_hop/row on demand by running the same composition the
// dense assembly loop used to run eagerly for all n² pairs. The oracle view
// mirrors Censor-Hillel et al. 2020 ("Distance Computations in the Hybrid
// Network Model via Oracle Simulations", PAPERS.md); the sparse-graph regime
// it unlocks at n ≈ 10⁵ is the one of Feldmann–Hinnenthal–Scheideler 2020.
//
// Equivalence contract (differentially tested in tests/dist_oracle_test.cpp,
// `ctest -L oracle`, gated in CI): for every pair, query()/next_hop()/row()
// agree bit for bit with the materialize() adapters and with Dijkstra where
// the scheme is exact, at every thread count — the composition below is the
// dense assembly loop, evaluated lazily.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "proto/flood.hpp"
#include "proto/sparse_exploration.hpp"
#include "sim/executor.hpp"

namespace hybrid {

/// How the skeleton part of a label composes with the ball part.
enum class label_scheme : u8 {
  /// Theorem 1.1: `skel` holds d(s, v) for every skeleton index s and every
  /// node v (n_s × n, the token-routed label table each skeleton node
  /// floods). One-sided composition: ball(u,v) ⊓ min_s gw(u,s) + skel[s][v].
  kSkeletonRows,
  /// AHKSS20 baseline: `skel` holds the skeleton-pair distances d_S(s1, s2)
  /// (n_s × n_s, public after the broadcast). Two-sided composition:
  /// ball(u,v) ⊓ min_{s1 near u, s2 near v} gw(u,s1) + d_S(s1,s2) + gw(v,s2).
  kSkeletonPairs,
  /// Two-level hierarchy (the recursive Section 4 / Lemma C.1 structure): a
  /// super-skeleton V_S2 ⊆ V_S is sampled from the skeleton, each level-1
  /// node holds its h1-hop ball over the skeleton graph (`ball1`) plus
  /// gateways into level 2 (`gw1`), and `skel` shrinks to the n_s2 × n_s2
  /// super-pair table. Composition recurses one level:
  ///   d_S1(s1,t1) = ball1(s1,t1)
  ///                 ⊓ min_{s2∈gw1(s1), t2∈gw1(t1)} gw1+d_S2(s2,t2)+gw1
  ///   d(u,v)      = ball(u,v) ⊓ min_{s1 near u, t1 near v} gw+d_S1(s1,t1)+gw
  /// with every ∞ table entry skipped explicitly (four finite addends max —
  /// the kInfDist headroom argument no longer covers the sum). Each level's
  /// table is Õ(√ of the level below), which is what restores full coverage
  /// at n = 10⁵ inside the 2 GB budget (ROADMAP).
  kTwoLevel,
};

/// Storage-agnostic read-only view over one set of distance labels: every
/// query path (query/next_hop/row and the assembly composition they share)
/// is implemented ONCE against these spans, so the owning `dist_labels`
/// (spans over its vectors) and the mmap-ed `oracle_store` view (spans into
/// the mapped file) answer bit-identically by construction — there is no
/// second implementation to drift.
struct label_view {
  u32 n = 0;
  u32 n_s = 0;
  u32 n_s2 = 0;  ///< super-skeleton size |V_S2| (kTwoLevel only, else 0)
  u32 h = 0;
  label_scheme scheme = label_scheme::kSkeletonRows;
  bool routes = false;
  /// Local graph for next_hop(); may be null (query/row never need it).
  const graph* topo = nullptr;

  std::span<const u64> ball_offsets;  ///< size n + 1
  std::span<const exploration_entry> ball_entries;
  std::span<const u64> gw_offsets;  ///< size n + 1
  std::span<const source_distance> gateways;
  std::span<const u32> skeleton_nodes;  ///< size n_s
  /// n_s × n rows, n_s × n_s pairs, or n_s2 × n_s2 super-pairs (kTwoLevel).
  std::span<const u64> skel;

  // ---- level-1 slabs (kTwoLevel only; empty otherwise) -------------------
  /// h1-hop balls over the *skeleton graph*: per skeleton index s1 the
  /// triples (t1 = skeleton index, d_{h1,G_S}(s1, t1), via), sorted by t1.
  std::span<const u64> ball1_offsets;  ///< size n_s + 1
  std::span<const exploration_entry> ball1_entries;
  /// Level-2 gateways: per skeleton index s1 the nearby super-skeleton
  /// members as (source = *super* index s2, d_{h1,G_S}(s1, s2), via).
  std::span<const u64> gw1_offsets;  ///< size n_s + 1
  std::span<const source_distance> gw1;
  std::span<const u32> super_nodes;  ///< size n_s2, level-1 indices, ascending

  std::span<const exploration_entry> ball_of(u32 u) const {
    return {ball_entries.data() + ball_offsets[u],
            ball_entries.data() + ball_offsets[u + 1]};
  }
  std::span<const source_distance> gateways_of(u32 u) const {
    return {gateways.data() + gw_offsets[u], gateways.data() + gw_offsets[u + 1]};
  }
  std::span<const exploration_entry> ball1_of(u32 s1) const {
    return {ball1_entries.data() + ball1_offsets[s1],
            ball1_entries.data() + ball1_offsets[s1 + 1]};
  }
  std::span<const source_distance> gw1_of(u32 s1) const {
    return {gw1.data() + gw1_offsets[s1], gw1.data() + gw1_offsets[s1 + 1]};
  }

  /// d_h(u, v) from u's ball (kInfDist when v is outside it).
  u64 ball_dist(u32 u, u32 v) const;

  /// d(u, v) — the assembly composition for one pair; kInfDist when
  /// unreachable. Bit-identical to the dense matrix entry.
  u64 query(u32 u, u32 v) const;

  /// u's neighbor on a shortest u→v path (u on the diagonal, ~0u when v is
  /// unreachable), with the dense path's tie-break: the smallest qualifying
  /// neighbor ID. Requires routes (the charged distance-vector round).
  u32 next_hop(u32 u, u32 v) const;

  /// Full distance row of u (the dense assembly loop for one u).
  void row_into(u32 u, std::vector<u64>& out) const;
  std::vector<u64> row(u32 u) const;

  /// Total stored label entries (ball + gateway + skeleton-table words,
  /// plus the level-1 slabs when two-level).
  u64 label_entries() const {
    return ball_entries.size() + gateways.size() + skel.size() +
           ball1_entries.size() + gw1.size() + super_nodes.size();
  }
};

/// The gateway part of every label scheme: `near[v]` (a node's nearby
/// skeleton nodes, sk.near) flattened verbatim into one CSR — `offsets`
/// (size n + 1) and `gateways` — copied node-parallel on `ex`.
void flatten_gateways(round_executor& ex,
                      const std::vector<std::vector<source_distance>>& near,
                      std::vector<u64>& offsets,
                      std::vector<source_distance>& gateways);

/// Per-node distance labels for all-pairs queries. Built natively by
/// core/apsp and core/apsp_baseline, whose only result it is; the dense
/// n × n matrices exist only as the explicit materialize() adapters below.
/// All query paths delegate to `view()` — the shared span accessor the
/// mmap-ed oracle_store also uses.
struct dist_labels {
  u32 n = 0;     ///< nodes of the underlying local graph
  u32 n_s = 0;   ///< skeleton size |V_S|
  u32 n_s2 = 0;  ///< super-skeleton size |V_S2| (kTwoLevel only, else 0)
  u32 h = 0;     ///< skeleton hop budget (ball radius)
  label_scheme scheme = label_scheme::kSkeletonRows;
  /// True when the route-exchange round ran (hybrid_apsp_exact's
  /// build_routes): next_hop() composes neighbors' labels, information a
  /// node only holds after that charged LOCAL round.
  bool routes = false;
  /// The local graph (adjacency for next_hop()). Non-owning: the caller
  /// keeps the graph alive for the oracle's lifetime, as with clique_problem.
  const graph* topo = nullptr;

  /// Ball part: per node u the triples (v, d_h(u, v), first hop), sorted by
  /// v — the sparse exploration result, adopted wholesale.
  sparse_exploration_result ball;

  /// Gateway part: per node u the nearby skeleton nodes, flattened CSR.
  /// `source` is the skeleton *index*, `dist` is d_h(u, s) — sk.near[u]
  /// verbatim, in its original order.
  std::vector<u64> gw_offsets;  ///< size n + 1
  std::vector<source_distance> gateways;

  /// Skeleton part: node IDs of V_S plus the row-major table described by
  /// `scheme` (n_s × n rows, n_s × n_s pairs, or n_s2 × n_s2 super-pairs).
  std::vector<u32> skeleton_nodes;
  std::vector<u64> skel;

  /// Level-1 slabs (kTwoLevel only; empty otherwise) — see label_view.
  std::vector<u64> ball1_offsets;
  std::vector<exploration_entry> ball1_entries;
  std::vector<u64> gw1_offsets;
  std::vector<source_distance> gw1;
  std::vector<u32> super_nodes;

  std::span<const source_distance> gateways_of(u32 u) const {
    return {gateways.data() + gw_offsets[u], gateways.data() + gw_offsets[u + 1]};
  }

  /// The span accessor over this label set — the single query
  /// implementation, shared with oracle_store's mmap-ed labels.
  label_view view() const {
    label_view v;
    v.n = n;
    v.n_s = n_s;
    v.n_s2 = n_s2;
    v.h = h;
    v.scheme = scheme;
    v.routes = routes;
    v.topo = topo;
    v.ball_offsets = ball.offsets;
    v.ball_entries = ball.entries;
    v.gw_offsets = gw_offsets;
    v.gateways = gateways;
    v.skeleton_nodes = skeleton_nodes;
    v.skel = skel;
    v.ball1_offsets = ball1_offsets;
    v.ball1_entries = ball1_entries;
    v.gw1_offsets = gw1_offsets;
    v.gw1 = gw1;
    v.super_nodes = super_nodes;
    return v;
  }

  /// d_h(u, v) from u's ball (kInfDist when v is outside it).
  u64 ball_dist(u32 u, u32 v) const { return view().ball_dist(u, v); }

  /// d(u, v) — the assembly composition for one pair; kInfDist when
  /// unreachable. Bit-identical to the dense matrix entry.
  u64 query(u32 u, u32 v) const { return view().query(u, v); }

  /// u's neighbor on a shortest u→v path (u on the diagonal, ~0u when v is
  /// unreachable), with the dense path's tie-break: the smallest qualifying
  /// neighbor ID. Requires routes (the charged distance-vector round).
  u32 next_hop(u32 u, u32 v) const { return view().next_hop(u, v); }

  /// Full distance row of u (the dense assembly loop for one u).
  void row_into(u32 u, std::vector<u64>& out) const { view().row_into(u, out); }
  std::vector<u64> row(u32 u) const { return view().row(u); }

  /// Total stored label entries (ball + gateway + skeleton-table words,
  /// plus the level-1 slabs when two-level) — the memory the oracle is
  /// bounded by: Õ(Σᵥ|ball_h(v)| + n_s·n) single-level, and
  /// Õ(Σᵥ|ball| + Σₛ|ball1| + n_s2²) for kTwoLevel.
  u64 label_entries() const {
    return ball.entries.size() + gateways.size() + skel.size() +
           ball1_entries.size() + gw1.size() + super_nodes.size();
  }

  // ---- dense adapters (O(n²) memory — callers bound n) -------------------
  /// The dense n × n distance matrix, node-parallel on `ex`.
  std::vector<std::vector<u64>> materialize(round_executor& ex) const;
  std::vector<std::vector<u64>> materialize(sim_options opts = {}) const;
  /// The dense n × n next-hop matrix from an already-materialized `dist`
  /// (the exact argmin-over-neighbors loop, same tie-break). Requires routes.
  std::vector<std::vector<u32>> materialize_next_hops(
      const std::vector<std::vector<u64>>& dist, round_executor& ex) const;
};

/// Per-source distance labels for the k-SSP framework (Theorem 4.1): the
/// Equation (1) assembly evaluated lazily per (source, node) pair instead of
/// eagerly into k n-wide rows.
struct kssp_labels {
  u32 n = 0;
  u32 n_s = 0;
  std::vector<u32> sources;  ///< source node IDs, row index j

  /// Ball part: reached(v) holds (source node id, d, hop) for the sources
  /// within the exploration depth of v.
  sparse_exploration_result ball;
  /// Gateway part: sk.near flattened, as in dist_labels.
  std::vector<u64> gw_offsets;
  std::vector<source_distance> gateways;
  /// est[slot · n_s + s] = d̃_S(s, rep) from the CLIQUE plug-in, one row per
  /// distinct representative slot; rep_slot[j] / rep_leg[j] map source j to
  /// its slot and its d(source, rep) leg (Fact 4.4).
  std::vector<u64> est;
  std::vector<u32> rep_slot;
  std::vector<u64> rep_leg;

  std::span<const source_distance> gateways_of(u32 v) const {
    return {gateways.data() + gw_offsets[v], gateways.data() + gw_offsets[v + 1]};
  }

  /// d̃(sources[j], v) — Equation (1) for one pair, bit-identical to
  /// materialize()[j][v].
  u64 query(u32 j, u32 v) const;

  void row_into(u32 j, std::vector<u64>& out) const;
  std::vector<u64> row(u32 j) const;

  u64 label_entries() const {
    return ball.entries.size() + gateways.size() + est.size();
  }

  /// The dense k × n matrix, row j for sources[j], node-parallel on `ex`.
  std::vector<std::vector<u64>> materialize(round_executor& ex) const;
};

}  // namespace hybrid
