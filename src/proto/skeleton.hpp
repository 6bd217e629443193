// Skeleton graphs (paper Appendix C, Algorithm 6).
//
// V_S ⊆ V is sampled with probability p; skeleton edges connect sampled
// nodes within h = ⌈ξ·(1/p)·ln n⌉ hops and carry weight d_h(u, v). By
// Lemma C.1 every shortest path of G has a skeleton node at least every h
// hops w.h.p., so the skeleton preserves distances between its nodes
// (Lemma C.2) and every node has a skeleton node within h hops.
//
// The h rounds of limited Bellman–Ford also give every node v its h-hop
// distances d_h(v, s) to all nearby skeleton nodes — the "local exploration"
// every algorithm in Sections 3–5 builds on.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "proto/dissemination.hpp"
#include "proto/flood.hpp"
#include "proto/sparse_exploration.hpp"
#include "sim/executor.hpp"
#include "sim/hybrid_net.hpp"

namespace hybrid {

struct skeleton_result {
  std::vector<u32> nodes;     ///< V_S, sorted node IDs
  std::vector<u32> index_of;  ///< node ID → skeleton index, or npos
  static constexpr u32 npos = ~u32{0};
  u32 h = 0;                  ///< hop budget used
  double sample_prob = 0.0;

  /// The skeleton graph G_S over skeleton indices: edge (i, j) carries
  /// weight d_h(nodes[i], nodes[j]).
  graph edges;
  /// Per node: (skeleton index, d_h(v, skeleton)) for skeletons within h
  /// hops, exactly what the h-round exploration teaches v.
  std::vector<std::vector<source_distance>> near;

  bool is_skeleton(u32 v) const { return index_of[v] != npos; }
  /// E_S as dissemination tokens ((i << 32) | j, w) held by node: each
  /// edge is announced once, by its smaller endpoint.
  std::vector<std::vector<token2>> edge_tokens() const;
};

/// Algorithm 6. `forced` nodes (e.g. the SSSP source, Lemma 4.5) are always
/// included. Rounds consumed: h; under local-plane faults max(h, healing
/// rounds), the excess surfaced as extra_rounds.
skeleton_result compute_skeleton(hybrid_net& net, double sample_prob,
                                 const std::vector<u32>& forced = {});

/// Local (free) computation every node can do once the skeleton edge set is
/// public: all-pairs distances within the skeleton graph. dist[i][j] indexed
/// by skeleton indices. The per-source Dijkstras over G_S run node-parallel
/// on `ex` — each source's row is private, so the result is bit-identical at
/// every thread count (tested at threads {1,2,8}).
std::vector<std::vector<u64>> skeleton_apsp(const skeleton_result& sk,
                                            round_executor& ex);
/// Convenience overload on a default executor (HYBRID_THREADS honored).
std::vector<std::vector<u64>> skeleton_apsp(const skeleton_result& sk);

/// The second sampling level (the recursion the paper's Section 4 machinery
/// admits): V_S2 ⊆ V_S sampled with probability `sample_prob` from the
/// skeleton, explored h1 hops over the SKELETON graph G_S. Everything here
/// is indexed in skeleton/super index space, mirroring skeleton_result one
/// level up.
struct super_skeleton_result {
  std::vector<u32> members;   ///< super members as level-1 indices, ascending
  std::vector<u32> index_of;  ///< level-1 index → super index, or npos
  static constexpr u32 npos = ~u32{0};
  u32 h1 = 0;  ///< hop budget over G_S
  double sample_prob = 0.0;

  /// ball1: per skeleton index s1 the h1-hop triples over G_S
  /// (source = level-1 index, dist = d_{h1,G_S}, via), CSR sorted by source.
  std::vector<u64> ball_offsets;  ///< size n_s + 1
  std::vector<exploration_entry> ball_entries;
  /// gw1: ball1 filtered to super members, re-indexed to super indices.
  std::vector<u64> gw_offsets;  ///< size n_s + 1
  std::vector<source_distance> gateways;
  /// Exact super-pair distances d_S(members[i], members[j]) within G_S,
  /// row-major n_s2 × n_s2 (Dijkstra over the full skeleton graph — level-2
  /// distances are NOT h1-truncated, exactly as level-1 pairs are exact).
  std::vector<u64> pairs;
};

/// Build the super skeleton: sample members from sk.nodes' per-node RNGs
/// (deterministic; forced to one member if the draw is empty so the level-2
/// table exists), disseminate the membership over the global network (one
/// token per member — the same announcement pattern as the skeleton edge
/// set), then derive ball1/gw1/pairs as free local computation from the
/// already-public E_S (the skeleton_apsp precedent). Node-parallel on the
/// net's executor, bit-identical at every thread count.
super_skeleton_result compute_super_skeleton(hybrid_net& net,
                                             const skeleton_result& sk,
                                             double sample_prob, u32 h1);

}  // namespace hybrid
