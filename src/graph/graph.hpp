// Weighted undirected graph substrate (CSR) used as the HYBRID local
// communication graph G = (V, E).
//
// Conventions follow the paper's preliminaries: nodes are [0, n); edge
// weights are integers in [1, W] with W polynomial in n (unweighted means
// W = 1); distances are sums of weights, hop distances count edges.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bits.hpp"

namespace hybrid {

/// Distance infinity; chosen so that INF + any edge weight cannot overflow.
inline constexpr u64 kInfDist = ~u64{0} / 4;

/// Largest edge weight an n-node graph accepts: (n-1)·w < kInfDist/8, so a
/// shortest-path sum (at most n-1 edges) plus one more edge, and label
/// compositions of up to five such sums, can never reach or wrap past
/// kInfDist. Weights are polynomial in n in the paper, far below this.
constexpr u64 max_edge_weight(u32 n) {
  return n <= 1 ? kInfDist / 8 - 1 : (kInfDist / 8 - 1) / (n - 1);
}

struct edge {
  u32 to;
  u64 weight;
  friend bool operator==(const edge&, const edge&) = default;
};

struct edge_spec {
  u32 a;
  u32 b;
  u64 weight;
};

class graph {
 public:
  graph() = default;

  /// Build from an undirected edge list. Parallel edges are collapsed to the
  /// lightest; self-loops and weights outside [1, max_weight] are rejected.
  /// The bound defaults to max_edge_weight(n); a graph whose weights are
  /// already distances of another graph (the skeleton G_S, whose weights
  /// G's own bound keeps below kInfDist/8) passes kInfDist/8 − 1 instead.
  static graph from_edges(u32 n, std::span<const edge_spec> edges,
                          u64 max_weight);
  static graph from_edges(u32 n, std::span<const edge_spec> edges) {
    return from_edges(n, edges, max_edge_weight(n));
  }

  u32 num_nodes() const { return n_; }
  u64 num_edges() const { return adj_.size() / 2; }

  std::span<const edge> neighbors(u32 v) const {
    return {adj_.data() + offset_[v], adj_.data() + offset_[v + 1]};
  }

  /// neighbors(v), for the frozen benchmark driver `perfbench/hybench.cpp`
  /// (it reads the skeleton's `edges[i]`); the next change to the
  /// benchmark removes it.
  std::span<const edge> operator[](u32 v) const { return neighbors(v); }

  u32 degree(u32 v) const { return offset_[v + 1] - offset_[v]; }

  u64 max_weight() const { return max_weight_; }
  bool is_unweighted() const { return max_weight_ <= 1; }

  bool is_connected() const;

  friend bool operator==(const graph&, const graph&) = default;

 private:
  u32 n_ = 0;
  std::vector<u32> offset_;  // size n_ + 1
  std::vector<edge> adj_;    // both directions materialized
  u64 max_weight_ = 0;
};

}  // namespace hybrid
