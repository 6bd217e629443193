#include "core/kssp_framework.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "proto/clique_embed.hpp"
#include "proto/flood.hpp"
#include "proto/representatives.hpp"
#include "proto/skeleton.hpp"
#include "proto/sparse_exploration.hpp"
#include "util/assert.hpp"

namespace hybrid {

kssp_result hybrid_kssp(const graph& g, const model_config& cfg, u64 seed,
                        std::vector<u32> sources,
                        const clique_sp_algorithm& alg,
                        bool source_into_skeleton, sim_options opts) {
  HYB_REQUIRE(!sources.empty(), "need at least one source");
  HYB_REQUIRE(!source_into_skeleton || sources.size() == 1,
              "γ = 0 mode requires a single source");
  {
    std::set<u32> uniq(sources.begin(), sources.end());
    HYB_REQUIRE(uniq.size() == sources.size(), "sources must be distinct");
  }

  hybrid_net net(g, cfg, seed, opts);
  const u32 n = net.n();
  kssp_result out;
  out.sources = sources;

  // ---- 1. skeleton with x = 2/(3+2δ) --------------------------------------
  net.begin_phase("skeleton");
  const double x = 2.0 / (3.0 + 2.0 * alg.delta());
  out.x_exponent = x;
  const double p = std::pow(static_cast<double>(n), x - 1.0);
  std::vector<u32> forced;
  if (source_into_skeleton) forced = sources;
  const skeleton_result sk = compute_skeleton(net, p, forced);
  const u32 n_s = static_cast<u32>(sk.nodes.size());
  out.skeleton_size = n_s;
  out.h = sk.h;

  // ---- 2. representatives (skipped when the source is in the skeleton) ----
  net.begin_phase("representatives");
  representatives_result reps;
  if (source_into_skeleton) {
    reps.rep_of = {sk.index_of[sources[0]]};
    reps.dist_to_rep = {0};
  } else {
    reps = compute_representatives(net, sk, sources);
  }
  // Deduplicate representatives — A runs once per distinct rep.
  std::vector<u32> rep_nodes;  // distinct skeleton indices
  std::vector<u32> rep_slot(sources.size());
  {
    std::vector<u32> slot_of(n_s, ~u32{0});
    for (u32 j = 0; j < sources.size(); ++j) {
      const u32 r = reps.rep_of[j];
      if (slot_of[r] == ~u32{0}) {
        slot_of[r] = static_cast<u32>(rep_nodes.size());
        rep_nodes.push_back(r);
      }
      rep_slot[j] = slot_of[r];
    }
  }

  // ---- 3. run A on the skeleton via the CLIQUE embedding ------------------
  net.begin_phase("clique_embedding");
  clique_embedding emb = build_clique_embedding(net, sk);
  net.begin_phase("clique_simulation");
  out.clique_rounds = alg.declared_rounds(n_s);
  charge_clique_rounds(net, emb, out.clique_rounds);

  u64 max_skel_weight = 1;
  for (const auto& adj : sk.edges)
    for (const auto& [to, w] : adj) {
      (void)to;
      max_skel_weight = std::max(max_skel_weight, w);
    }
  clique_problem prob;
  prob.n_s = n_s;
  prob.edges = &sk.edges;
  prob.sources = rep_nodes;
  prob.max_edge_weight = max_skel_weight;
  // est[slot][u] = d̃(u, rep) under A's (α, β) contract.
  const std::vector<std::vector<u64>> est = alg.solve(prob);

  // ---- 4. flood estimates h hops; local exploration in parallel -----------
  net.begin_phase("estimate_flood");
  table_flood(net, sk.nodes, std::vector<u64>(n_s, rep_nodes.size()), sk.h);

  net.begin_phase("local_exploration");
  const u64 eta_h =
      static_cast<u64>(std::ceil(alg.eta() * static_cast<double>(sk.h))) + 1;
  u64 elapsed = net.round();
  // Exploration runs in parallel with everything so far; only rounds beyond
  // the elapsed runtime cost extra. Under faults the elapsed runtime —
  // hence the depth — can exceed its fault-free value (healing overhead in
  // the earlier stages): the deeper ball is harmless, because d_h is
  // already exact at every depth ≥ ηh for the label queries the framework
  // answers, and per-query outputs stay identical to the fault-free run.
  out.exploration_depth = std::max(eta_h, elapsed);
  for (u64 r = elapsed; r < out.exploration_depth; ++r) net.advance_round();

  // ---- 5. per-source labels for Equation (1) ------------------------------
  // Every node now holds its exploration ball (keyed by source node id), its
  // nearby-skeleton gateways, and the flooded estimate table — the
  // kssp_labels oracle (core/dist_oracle.hpp), which evaluates Equation (1)
  // per (source, node) pair on demand instead of eagerly into k n-wide rows.
  out.labels.ball = run_local_exploration(
      net, static_cast<u32>(out.exploration_depth),
      /*advance_rounds=*/false, &sources, /*first_hops=*/false);
  out.labels.n = n;
  out.labels.n_s = n_s;
  out.labels.sources = sources;
  out.labels.rep_slot = rep_slot;
  out.labels.rep_leg = reps.dist_to_rep;
  out.labels.est.assign(u64{rep_nodes.size()} * n_s, kInfDist);
  for (u32 slot = 0; slot < rep_nodes.size(); ++slot)
    for (u32 s = 0; s < n_s; ++s)
      out.labels.est[u64{slot} * n_s + s] = est[slot][s];
  flatten_gateways(net.executor(), sk.near, out.labels.gw_offsets,
                   out.labels.gateways);

  out.metrics = net.snapshot();
  const double t_b = static_cast<double>(out.metrics.rounds);
  const approx_contract c = alg.contract(max_skel_weight);
  out.bound_weighted = 2.0 * c.alpha + 1.0 + static_cast<double>(c.beta) / t_b;
  out.bound_unweighted =
      c.alpha + 2.0 / alg.eta() + static_cast<double>(c.beta) / t_b;
  out.bound_single_source = c.alpha + static_cast<double>(c.beta) / t_b;
  return out;
}

}  // namespace hybrid
