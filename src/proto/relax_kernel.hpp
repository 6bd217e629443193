// The h-hop relaxation kernel: the one pull-based Bellman–Ford round loop
// behind every reliable exploration entry point (the paper's "run the
// local exploration in parallel" step, Lemma 4.3, and the AHKSS baseline's
// identical local phase).
//
// Internal header. Its instantiations are
//   * sparse_local_exploration / dense_local_exploration — net, graph edges;
//   * limited_bellman_ford — net, graph edges;
//   * the referees of the healed limited_bellman_ford and of the healed
//     exploration engine — pure, graph or unit edges;
//   * explore_adjacency — pure, explicit (to, w) lists;
// and they differ only in three parameters:
//   * the row type — sparse_row (a flat_map of exploration entries keyed
//     by source, memory O(|ball_h(v)|)) or dense_row (K distances per
//     node: K = n for all sources, or K = |sources| keyed by position,
//     which keeps limited_bellman_ford's index semantics and its
//     acceptance of duplicate sources); each row type provides relax,
//     dist_of, reached_count and copy_reached below;
//   * the neighbour source — graph edges with real or unit weights, or an
//     explicit adjacency list, always read in its stored (sorted) order;
//   * the per-round hook — traffic/round accounting for net callers, a
//     no-op for pure ones.
//
// One round: every node v pulls the round-frozen frontiers of its
// neighbours in adjacency order and relaxes each (key, dist + w) into its
// own row; the first neighbour that strictly improves a key becomes its
// via. v then drops queued entries a later, smaller update superseded, so
// its next frontier holds each improved key once, at its final value for
// the round. Steps write only v's row and v's next frontier, so every run
// is bit-identical at every thread count of the executor
// (docs/CONCURRENCY.md §3) — which is also why the referees may use the
// net's executor. Once no frontier is left the loop exits; the hook pads
// the rounds a fixed budget still owes.
// The healed loops live in the re-offer kernel (proto/heal_kernel.hpp),
// and floods with nothing to relax in proto/flood_kernel.hpp.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "proto/flood.hpp"
#include "proto/sparse_exploration.hpp"
#include "util/assert.hpp"
#include "util/flat_map.hpp"

namespace hybrid::relax {

/// One node's reached sources: exploration entries (dist, source, via)
/// keyed by source in discovery order.
using sparse_row = flat_map<exploration_entry, &exploration_entry::source>;

/// K distances keyed 0..K-1, plus the via of each when asked for.
struct dense_row {
  std::vector<u64> dist;
  std::vector<u32> via;  ///< empty unless vias were requested
};

/// The key's distance as currently known, kInfDist when never reached.
inline u64 dist_of(const sparse_row& row, u32 key) {
  const exploration_entry* e = row.find(key);
  return e ? e->dist : kInfDist;
}
inline u64 dist_of(const dense_row& row, u32 key) { return row.dist[key]; }

/// The relaxation primitive: adopt (nd, from) iff nd strictly improves on
/// the key's distance (absent counts as kInfDist), so an equal later offer
/// never moves the via. Returns whether it did — the condition the kernel
/// extends the frontier on.
inline bool relax(sparse_row& row, u32 key, u64 nd, u32 from) {
  const auto [e, fresh] = row.insert({nd, key, from});
  if (fresh) return true;
  if (nd >= e->dist) return false;
  e->dist = nd;
  e->first_hop = from;
  return true;
}
inline bool relax(dense_row& row, u32 key, u64 nd, u32 from) {
  if (nd >= row.dist[key]) return false;
  row.dist[key] = nd;
  if (!row.via.empty()) row.via[key] = from;
  return true;
}

/// n dense rows of width k, first-touched node-parallel.
inline std::vector<dense_row> dense_rows(round_executor& ex, u32 n, u32 k,
                                         bool vias) {
  std::vector<dense_row> rows(n);
  ex.for_nodes(n, [&](u32 v) {
    rows[v].dist.assign(k, kInfDist);
    rows[v].via.assign(vias ? k : 0, ~u32{0});
  });
  return rows;
}

inline u64 reached_count(const sparse_row& row) { return row.size(); }
inline u64 reached_count(const dense_row& row) {
  return static_cast<u64>(std::count_if(row.dist.begin(), row.dist.end(),
                                        [](u64 d) { return d != kInfDist; }));
}

/// Writes the row's reached (dist, key, via) triples to `at` in row order
/// and returns the end; via is ~0 where the row keeps none.
inline exploration_entry* copy_reached(const sparse_row& row,
                                       exploration_entry* at) {
  return std::copy(row.entries().begin(), row.entries().end(), at);
}
inline exploration_entry* copy_reached(const dense_row& row,
                                       exploration_entry* at) {
  for (u32 k = 0; k < row.dist.size(); ++k)
    if (row.dist[k] != kInfDist)
      *at++ = {row.dist[k], k, row.via.empty() ? ~u32{0} : row.via[k]};
  return at;
}

/// Who explores and how rows key them: every node keyed by its id
/// (`nodes` null), or `nodes` keyed by node id, or by position when
/// `by_index` (limited_bellman_ford's semantics: duplicates get their own
/// keys).
struct sources {
  const std::vector<u32>* nodes = nullptr;
  bool by_index = false;

  u32 source_of(u32 key) const { return by_index ? (*nodes)[key] : key; }
};

struct graph_edges {
  const graph& g;
  template <class F>
  void operator()(u32 v, F&& f) const {
    for (const edge& e : g.neighbors(v)) f(e.to, e.weight);
  }
};

/// Hop counts instead of distances (truncated_eccentricity's hello flood).
struct unit_edges {
  const graph& g;
  template <class F>
  void operator()(u32 v, F&& f) const {
    for (const edge& e : g.neighbors(v)) f(e.to, u64{1});
  }
};

struct adjacency_edges {
  const std::vector<std::vector<std::pair<u32, u64>>>& adj;
  template <class F>
  void operator()(u32 v, F&& f) const {
    for (const auto& [to, w] : adj[v]) f(to, w);
  }
};

/// Net callers: every pulled frontier item is charged and delivered (the
/// local plane is reliable on this path), and rounds advance only when the
/// caller asked for them — otherwise traffic is charged but rounds are not
/// (Lemma 4.3's run-in-parallel trick). An early exit still elapses the
/// fixed budget's silent rounds.
struct net_hook {
  hybrid_net& net;
  bool advance_rounds;
  void round(u64 items) const {
    net.charge_local(items);
    net.note_local_delivered(items);
    if (advance_rounds) net.advance_round();
  }
  void pad(u32 idle) const {
    if (advance_rounds)
      for (; idle > 0; --idle) net.advance_round();
  }
};

/// Pure callers: free local computation, no rounds, no traffic.
struct no_hook {
  void round(u64) const {}
  void pad(u32) const {}
};

/// Seeds every source at distance 0 (via = itself) and runs up to h
/// relaxation rounds over `rows` (one per node, default state = nothing
/// reached). Afterwards rows[v] holds d_h(v, s) and v's first hop toward s
/// for every source s within h hops.
template <class Row, class Nbrs, class Hook>
void run(round_executor& ex, std::vector<Row>& rows, sources src, u32 h,
         const Nbrs& nbrs, const Hook& hook) {
  const u32 n = static_cast<u32>(rows.size());
  // Frontier entries carry the value of the round that produced them, so
  // information moves exactly one hop per round. Both buffers keep their
  // capacity across rounds.
  std::vector<std::vector<source_distance>> frontier(n);
  std::vector<std::vector<source_distance>> next(n);
  const auto seed = [&](u32 node, u32 key) {
    HYB_REQUIRE(node < n, "source out of range");
    if (relax(rows[node], key, 0, node))
      frontier[node].push_back({key, 0, node});
  };
  if (!src.nodes) {
    for (u32 v = 0; v < n; ++v) seed(v, v);
  } else {
    for (u32 i = 0; i < src.nodes->size(); ++i)
      seed((*src.nodes)[i], src.by_index ? i : (*src.nodes)[i]);
  }
  for (u32 r = 0; r < h; ++r) {
    const u64 items = ex.sum_nodes(n, [&](u32 v) -> u64 {
      Row& row = rows[v];
      std::vector<source_distance>& out = next[v];
      out.clear();
      u64 pulled = 0;
      nbrs(v, [&](u32 to, u64 w) {
        const std::vector<source_distance>& from = frontier[to];
        pulled += from.size();
        for (const source_distance& f : from)
          if (relax(row, f.source, f.dist + w, to))
            out.push_back({f.source, f.dist + w, to});
      });
      std::erase_if(out, [&](const source_distance& sd) {
        return sd.dist != dist_of(row, sd.source);
      });
      return pulled;
    });
    hook.round(items);
    frontier.swap(next);
    if (!ex.any_node(n, [&](u32 v) { return !frontier[v].empty(); })) {
      hook.pad(h - r - 1);
      return;
    }
  }
}

/// The rows as one CSR arena: node v's triples sorted by source node id
/// (canonical, thread-count-invariant). With `first_hops` false every
/// first_hop is ~0.
template <class Row>
sparse_exploration_result flatten(round_executor& ex,
                                  const std::vector<Row>& rows, sources src,
                                  bool first_hops) {
  const u32 n = static_cast<u32>(rows.size());
  sparse_exploration_result out;
  out.offsets.assign(u64{n} + 1, 0);
  ex.for_nodes(n, [&](u32 v) { out.offsets[v + 1] = reached_count(rows[v]); });
  for (u32 v = 0; v < n; ++v) out.offsets[v + 1] += out.offsets[v];
  out.entries.resize(out.offsets[n]);
  const auto by_source = [](const exploration_entry& a,
                            const exploration_entry& b) {
    return a.source < b.source;
  };
  ex.for_nodes(n, [&](u32 v) {
    exploration_entry* const at = out.entries.data() + out.offsets[v];
    exploration_entry* const end = copy_reached(rows[v], at);
    for (exploration_entry* e = at; e != end; ++e) {
      e->source = src.source_of(e->source);
      if (!first_hops) e->first_hop = ~u32{0};
    }
    if (!std::is_sorted(at, end, by_source)) std::sort(at, end, by_source);
  });
  return out;
}

}  // namespace hybrid::relax
