#include "core/diameter.hpp"

#include <algorithm>
#include <cmath>

#include "core/sssp.hpp"
#include "graph/diameter.hpp"
#include "proto/aggregation.hpp"
#include "proto/clique_embed.hpp"
#include "proto/flood.hpp"
#include "proto/skeleton.hpp"
#include "util/assert.hpp"

namespace hybrid {

diameter_result hybrid_diameter(const graph& g, const model_config& cfg,
                                u64 seed,
                                const clique_diameter_algorithm& alg,
                                sim_options opts) {
  HYB_REQUIRE(g.is_unweighted(),
              "Theorem 5.1 approximates the unweighted diameter");
  hybrid_net net(g, cfg, seed, opts);
  const u32 n = net.n();
  diameter_result out;

  // ---- 1. skeleton ---------------------------------------------------------
  net.begin_phase("skeleton");
  const double x = 2.0 / (3.0 + 2.0 * alg.delta());  // Theorem 5.1

  const double p = std::pow(static_cast<double>(n), x - 1.0);
  const skeleton_result sk = compute_skeleton(net, p);
  const u32 n_s = static_cast<u32>(sk.nodes.size());
  out.skeleton_size = n_s;
  out.h = sk.h;

  // ---- 2. CLIQUE diameter algorithm on the skeleton ------------------------
  net.begin_phase("clique_embedding");
  clique_embedding emb = build_clique_embedding(net, sk);
  net.begin_phase("clique_simulation");
  charge_clique_rounds(net, emb, alg.declared_rounds(n_s));

  clique_problem prob;
  prob.g = &sk.edges;
  out.skeleton_estimate = alg.solve(prob);

  // ---- 3. (ηh+1)-round hello flood: h_v, and D̃(S) rides along -------------
  net.begin_phase("eccentricity_flood");
  const u64 eta_h =
      static_cast<u64>(std::ceil(alg.eta() * static_cast<double>(sk.h))) + 1;
  const auto ecc = truncated_eccentricity(net, static_cast<u32>(eta_h));
  net.charge_local(n);  // D̃(S) spreading from skeleton nodes, in parallel
  net.note_local_delivered(n);  // closed-form budget: no loss model
  out.exploration_depth = eta_h;

  // ---- 4. ĥ = max_v h_v (Lemma B.2 aggregation) ----------------------------
  net.begin_phase("aggregation");
  std::vector<u64> hv(n);
  for (u32 v = 0; v < n; ++v) hv[v] = ecc[v];
  out.h_hat = global_aggregate(net, agg_op::max, hv);

  // ---- 5. Equation (3) ------------------------------------------------------
  if (out.h_hat <= eta_h - 1) {
    out.estimate = out.h_hat;  // the flood saw the whole graph: D̃ = D
    out.exact_path = true;
  } else {
    out.estimate = out.skeleton_estimate + 2 * sk.h;
    out.exact_path = false;
  }

  out.metrics = net.snapshot();
  const double t_b = static_cast<double>(out.metrics.rounds);
  const approx_contract c = alg.contract(prob.max_edge_weight());
  out.bound = c.alpha + 2.0 / alg.eta() + static_cast<double>(c.beta) / t_b;
  return out;
}

weighted_diameter_result hybrid_weighted_diameter_2approx(
    const graph& g, const model_config& cfg, u64 seed, u32 pivot,
    sim_options opts) {
  HYB_REQUIRE(pivot < g.num_nodes(), "pivot out of range");
  // One exact SSSP from the pivot (Theorem 1.3), then a max-aggregation
  // over every node's learned distance (Lemma B.2) yields e(pivot).
  sssp_result sssp = hybrid_sssp_exact(g, cfg, seed, pivot, opts);
  weighted_diameter_result out;
  for (u64 d : sssp.dist) {
    HYB_REQUIRE(d != kInfDist, "graph must be connected");
    out.eccentricity = std::max(out.eccentricity, d);
  }
  out.estimate = 2 * out.eccentricity;
  out.metrics = std::move(sssp.metrics);
  // Charge the aggregation that makes e(pivot) common knowledge.
  out.metrics.rounds += aggregation_rounds(g.num_nodes());
  out.metrics.global_messages += g.num_nodes();
  return out;
}

u64 labels_exact_diameter(const dist_labels& labels, bool require_connected) {
  HYB_REQUIRE(labels.scheme == label_scheme::kSkeletonRows ||
                  labels.scheme == label_scheme::kTwoLevel,
              "labels_exact_diameter consumes hybrid_apsp_exact labels");
  return diameter_of_rows(
      labels.n, [&](u32 u, std::vector<u64>& row) { labels.row_into(u, row); },
      require_connected);
}

label_diameter_estimate diameter_estimate_from_labels(
    const dist_labels& labels) {
  HYB_REQUIRE(labels.scheme == label_scheme::kSkeletonRows ||
                  labels.scheme == label_scheme::kTwoLevel,
              "the skeleton estimate consumes hybrid_apsp_exact labels");
  label_diameter_estimate out;
  // M = max finite skeleton-table entry: rows hold d(s, v) over all nodes
  // (M ≤ D directly); the two-level table holds super-pair distances, so M
  // is a diameter lower bound over V_S2 only and both query endpoints pay
  // their gateway legs in the upper bound below.
  for (u64 d : labels.skel)
    if (d < kInfDist) out.skeleton_max = std::max(out.skeleton_max, d);
  // L = max over nodes of the distance to their nearest gateway.
  for (u32 v = 0; v < labels.n; ++v) {
    u64 nearest = kInfDist;
    for (const source_distance& sd : labels.gateways_of(v))
      nearest = std::min(nearest, sd.dist);
    if (nearest == kInfDist) continue;  // uncovered node: no skeleton in reach
    ++out.covered;
    out.gateway_slack = std::max(out.gateway_slack, nearest);
  }
  const label_view view = labels.view();
  if (labels.scheme == label_scheme::kSkeletonRows) {
    // d(u, v) ≤ d_h(u, s_u) + d(s_u, v) ≤ L + M for covered u: D ≤ M + L.
    out.estimate = out.skeleton_max + out.gateway_slack;
    out.bound =
        1.0 + static_cast<double>(out.gateway_slack) /
                  static_cast<double>(std::max<u64>(out.skeleton_max, 1));
  } else {
    // L1 = max over gw1-covered skeleton nodes of min level-2 gateway dist.
    // d(u, v) ≤ L + d_S1(s_u, t_v) + L and d_S1(s, t) ≤ L1 + M + L1 when
    // both s and t reach a super member, so D ≤ M + 2·L1 + 2·L when every
    // node and skeleton node is covered.
    for (u32 s1 = 0; s1 < labels.n_s; ++s1) {
      u64 nearest = kInfDist;
      for (const source_distance& sd : view.gw1_of(s1))
        nearest = std::min(nearest, sd.dist);
      if (nearest == kInfDist) continue;
      out.super_slack = std::max(out.super_slack, nearest);
    }
    const u64 slack = 2 * out.super_slack + 2 * out.gateway_slack;
    out.estimate = out.skeleton_max + slack;
    out.bound = 1.0 + static_cast<double>(slack) /
                          static_cast<double>(std::max<u64>(out.skeleton_max, 1));
  }
  return out;
}

}  // namespace hybrid
