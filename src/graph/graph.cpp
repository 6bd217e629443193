#include "graph/graph.hpp"

#include <algorithm>
#include <map>

#include "util/assert.hpp"

namespace hybrid {

graph graph::from_edges(u32 n, std::span<const edge_spec> edges,
                        u64 max_weight) {
  HYB_REQUIRE(n > 0, "graph needs at least one node");
  // Collapse parallel edges keeping the minimum weight.
  std::map<std::pair<u32, u32>, u64> uniq;
  for (const auto& e : edges) {
    HYB_REQUIRE(e.a < n && e.b < n, "edge endpoint out of range");
    HYB_REQUIRE(e.a != e.b, "self-loops are not allowed");
    HYB_REQUIRE(e.weight >= 1, "edge weights must be >= 1");
    HYB_REQUIRE(e.weight <= max_weight,
                "edge weight too large: above the graph's bound, by default "
                "max_edge_weight(n) so that (n-1)*w stays below kInfDist/8");
    auto key = std::minmax(e.a, e.b);
    auto [it, inserted] = uniq.emplace(key, e.weight);
    if (!inserted) it->second = std::min(it->second, e.weight);
  }

  graph g;
  g.n_ = n;
  std::vector<u32> deg(n, 0);
  for (const auto& [key, w] : uniq) {
    (void)w;
    ++deg[key.first];
    ++deg[key.second];
  }
  g.offset_.assign(n + 1, 0);
  for (u32 v = 0; v < n; ++v) g.offset_[v + 1] = g.offset_[v] + deg[v];
  g.adj_.resize(g.offset_[n]);
  std::vector<u32> cursor(g.offset_.begin(), g.offset_.end() - 1);
  for (const auto& [key, w] : uniq) {
    g.adj_[cursor[key.first]++] = {key.second, w};
    g.adj_[cursor[key.second]++] = {key.first, w};
    g.max_weight_ = std::max(g.max_weight_, w);
  }
  for (u32 v = 0; v < n; ++v)
    std::sort(g.adj_.begin() + g.offset_[v], g.adj_.begin() + g.offset_[v + 1],
              [](const edge& x, const edge& y) { return x.to < y.to; });
  return g;
}

bool graph::is_connected() const {
  if (n_ == 0) return false;
  std::vector<char> seen(n_, 0);
  std::vector<u32> stack{0};
  seen[0] = 1;
  u32 count = 1;
  while (!stack.empty()) {
    u32 v = stack.back();
    stack.pop_back();
    for (const edge& e : neighbors(v)) {
      if (!seen[e.to]) {
        seen[e.to] = 1;
        ++count;
        stack.push_back(e.to);
      }
    }
  }
  return count == n_;
}

}  // namespace hybrid
