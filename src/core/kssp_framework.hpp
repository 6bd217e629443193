// The CLIQUE→HYBRID shortest-path simulation framework (paper Theorem 4.1,
// Algorithm 5) and its instantiations (Theorem 1.2, Corollaries 4.6–4.9).
//
// Given a CLIQUE algorithm A with runtime Õ(η·n^δ) and an (α, β) contract,
// the framework runs A on a skeleton of Θ(n^x) nodes, x = 2/(3+2δ):
//   1. skeleton + (for k-SSP) representatives of the sources, made public by
//      token dissemination (the +Õ(√k) of Lemma 4.4);
//   2. A runs on the skeleton via the CLIQUE embedding (Corollary 4.1);
//   3. skeleton nodes flood the estimated distances-to-representatives h
//      hops; every node also explores the local graph for max(ηh, T_B)
//      rounds in parallel (Lemma 4.3's final remark);
//   4. every node assembles Equation (1):
//        d̃(v,s) = min(d_T(v,s),
//                      min_{u near v} d_h(v,u) + d̃(u,r_s) + d_h(r_s,s)).
//
// Approximation guarantees (with T_B the measured total runtime):
//   weighted   : 2α + 1 + β/T_B          (Theorem 4.1)
//   unweighted : α + 2/η + β/T_B
//   γ = 0      : α + β/T_B               (source joins the skeleton,
//                                          Lemma 4.5 — exact for α=1, β=0)
#pragma once

#include "clique/algorithms.hpp"
#include "core/dist_oracle.hpp"
#include "graph/graph.hpp"
#include "sim/hybrid_net.hpp"

namespace hybrid {

struct kssp_result {
  std::vector<u32> sources;
  /// The native output: per-source labels answering Equation (1) on demand
  /// (core/dist_oracle.hpp). Always built.
  kssp_labels labels;
  run_metrics metrics;
  u32 skeleton_size = 0;
  u32 h = 0;
  double x_exponent = 0.0;
  u64 clique_rounds = 0;         ///< T_A charged
  u64 exploration_depth = 0;     ///< local exploration rounds (≥ ηh)
  /// Proven approximation factors instantiated with the measured T_B.
  double bound_weighted = 0.0;
  double bound_unweighted = 0.0;
  double bound_single_source = 0.0;
};

/// Algorithm 5. `source_into_skeleton` is the γ = 0 mode of Lemma 4.5 and
/// requires exactly one source. `opts` selects the executor thread count
/// for the node-parallel round steps (docs/CONCURRENCY.md); results are
/// bit-identical for every thread count.
kssp_result hybrid_kssp(const graph& g, const model_config& cfg, u64 seed,
                        std::vector<u32> sources,
                        const clique_sp_algorithm& alg,
                        bool source_into_skeleton = false,
                        sim_options opts = {});

}  // namespace hybrid
