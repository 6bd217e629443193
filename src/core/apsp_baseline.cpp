#include "core/apsp_baseline.hpp"

#include <algorithm>
#include <cmath>

#include "proto/dissemination.hpp"
#include "proto/flood.hpp"
#include "proto/skeleton.hpp"
#include "proto/sparse_exploration.hpp"
#include "util/assert.hpp"

namespace hybrid {

apsp_baseline_result baseline_apsp_ahkss(const graph& g,
                                         const model_config& cfg, u64 seed,
                                         sim_options opts) {
  hybrid_net net(g, cfg, seed, opts);
  const u32 n = net.n();
  apsp_baseline_result out;

  // ---- 1. skeleton with p = n^{-2/3} --------------------------------------
  net.begin_phase("skeleton");
  const double p = std::pow(static_cast<double>(n), -2.0 / 3.0);
  const skeleton_result sk = compute_skeleton(net, p);
  const u32 n_s = static_cast<u32>(sk.nodes.size());
  out.skeleton_size = n_s;
  out.h = sk.h;

  // ---- 2. make E_S public ----------------------------------------------
  net.begin_phase("skeleton_dissemination");
  std::vector<std::vector<token2>> edge_tokens(n);
  for (u32 i = 0; i < n_s; ++i)
    for (const auto& [j, w] : sk.edges[i])
      if (i < j) edge_tokens[sk.nodes[i]].push_back({(u64{i} << 32) | j, w});
  disseminate(net, std::move(edge_tokens));
  const std::vector<std::vector<u64>> dist_s = skeleton_apsp(sk, net.executor());

  // ---- 3. broadcast ALL h-limited labels d_h(v, s) ------------------------
  net.begin_phase("label_dissemination");
  std::vector<std::vector<token2>> label_tokens(n);
  for (u32 v = 0; v < n; ++v)
    for (const source_distance& sd : sk.near[v]) {
      label_tokens[v].push_back({(u64{v} << 32) | sd.source, sd.dist});
      ++out.labels_broadcast;
    }
  disseminate(net, std::move(label_tokens));

  // ---- 4. per-node labels ---------------------------------------------------
  // After the broadcast every node holds all (v, s, d_h(v, s)) tokens and
  // the public d_S, i.e. the two-sided label
  //   d(u, v) = min(d_h(u, v),
  //                 min_{s1 near u, s2 near v} d_h(u,s1) + d_S(s1,s2) + d_h(v,s2))
  // — stored once as the dist_labels oracle instead of a per-node copy (the
  // same content-is-identical sharing as table_flood, DESIGN.md deviation 2).
  net.begin_phase("assembly");
  out.labels.ball = run_local_exploration(
      net, sk.h, /*advance_rounds=*/false, nullptr, /*first_hops=*/false);
  out.labels.n = n;
  out.labels.n_s = n_s;
  out.labels.h = sk.h;
  out.labels.scheme = label_scheme::kSkeletonPairs;
  out.labels.topo = &g;
  out.labels.skeleton_nodes = sk.nodes;
  out.labels.skel.assign(u64{n_s} * n_s, kInfDist);
  for (u32 i = 0; i < n_s; ++i)
    for (u32 j = 0; j < n_s; ++j) out.labels.skel[u64{i} * n_s + j] = dist_s[i][j];
  flatten_gateways(net.executor(), sk.near, out.labels.gw_offsets,
                   out.labels.gateways);
  out.metrics = net.snapshot();
  return out;
}

}  // namespace hybrid
