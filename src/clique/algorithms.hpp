// CLIQUE-model plug-in algorithms A for the simulation framework of
// Sections 4–5 (Theorems 4.1 and 5.1).
//
// The paper consumes published CONGESTED CLIQUE algorithms as black boxes
// parameterized by (γ, δ, η, α, β): runtime T_A = Õ(η·n^δ) and an
// (α, β)-approximation contract. Re-implementing the algebraic matrix
// multiplication machinery of Censor-Hillel et al. [7, 8] is out of scope
// for a reproduction of *this* paper (docs/DESIGN.md §4); instead each plug-in
//   * produces outputs satisfying its exact (α, β) contract (computed on
//     the skeleton instance the clique nodes jointly know),
//   * declares the published round complexity T_A, which the embedding
//     charges through the real token-routing machinery at the model-maximal
//     all-to-all load (Corollary 4.1), and
//   * optionally runs under *worst-case error injection*: every output is
//     inflated to the largest value its contract allows, so the end-to-end
//     approximation bounds of Theorems 1.2/1.4 are exercised rather than
//     vacuously satisfied by exact sub-results.
//
// A message-level naive CLIQUE APSP (full edge exchange in n_S rounds) is
// also provided to validate the clique_net simulator honestly and as the
// ablation baseline of experiment E13.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sim/clique_net.hpp"
#include "util/bits.hpp"

namespace hybrid {

/// What the clique nodes jointly know: the skeleton graph and which of its
/// nodes are (representatives of) sources.
struct clique_problem {
  /// The skeleton graph G_S; the caller keeps it alive.
  const graph* g = nullptr;
  /// Skeleton indices acting as sources; empty means "all" (APSP).
  std::vector<u32> sources;

  u32 n_s() const { return g->num_nodes(); }
  /// The heaviest skeleton edge weight W_S, at least 1.
  u64 max_edge_weight() const { return std::max<u64>(1, g->max_weight()); }
};

struct approx_contract {
  double alpha = 1.0;
  u64 beta = 0;
};

enum class injection {
  none,       ///< return exact results (every exact result meets any contract)
  worst_case  ///< inflate every value to ⌊α·d⌋ + β, the contract's edge
};

/// Shortest-path plug-in: T_A = ⌈η·n_s^δ⌉ declared rounds (polylog factors
/// of Õ(·) omitted — they only rescale constants), η = 1/ε where the cited
/// algorithm's runtime carries a 1/ε factor.
class clique_sp_algorithm {
 public:
  struct params {
    std::string name;
    double delta = 0.0;        ///< runtime exponent δ
    double eps = 0.25;         ///< ε of the cited algorithm
    bool eta_is_inv_eps = true;///< η = 1/ε (else η = 1)
    double alpha_base = 1.0;   ///< α = alpha_base + alpha_eps_mult·ε
    double alpha_eps_mult = 0.0;
    bool beta_is_skeleton_weight = false;  ///< β = ⌈(1+ε)·W_S⌉ (else 0)
    double max_source_exponent = 1.0;      ///< γ of Theorem 4.1
  };

  clique_sp_algorithm(params p, injection inj);

  const std::string& name() const { return p_.name; }
  double eta() const { return p_.eta_is_inv_eps ? 1.0 / p_.eps : 1.0; }
  double delta() const { return p_.delta; }
  double eps() const { return p_.eps; }
  double max_source_exponent() const { return p_.max_source_exponent; }
  u64 declared_rounds(u32 n_s) const;
  approx_contract contract(u64 max_skeleton_weight) const;

  /// dist[j][u] = estimate of d_S(sources[j], u) meeting the contract.
  std::vector<std::vector<u64>> solve(const clique_problem& prob) const;

 private:
  params p_;
  injection inj_;
};

/// Diameter plug-in (weighted diameter of the skeleton).
class clique_diameter_algorithm {
 public:
  struct params {
    std::string name;
    double delta = 0.0;
    double eps = 0.25;
    bool eta_is_inv_eps = true;
    double alpha_base = 1.0;
    double alpha_eps_mult = 0.0;
    bool beta_is_skeleton_weight = false;
  };

  clique_diameter_algorithm(params p, injection inj);

  const std::string& name() const { return p_.name; }
  double eta() const { return p_.eta_is_inv_eps ? 1.0 / p_.eps : 1.0; }
  double delta() const { return p_.delta; }
  double eps() const { return p_.eps; }
  u64 declared_rounds(u32 n_s) const;
  approx_contract contract(u64 max_skeleton_weight) const;
  u64 solve(const clique_problem& prob) const;

 private:
  params p_;
  injection inj_;
};

// ---- factories for the cited algorithms -----------------------------------

/// [7] Thm 1.2: (1+ε) k-SSP for k ≤ √n sources, Õ(1/ε) rounds (Cor 4.6).
clique_sp_algorithm make_clique_kssp_1eps(double eps, injection inj);
/// [7] Thm 1.1: (2+ε, (1+ε)·w)-APSP, Õ(1/ε) rounds (Cor 4.7).
clique_sp_algorithm make_clique_apsp_2eps(double eps, injection inj);
/// [8]: (1+o(1))-APSP in Õ(n^ρ), ρ < 0.15715 (Cor 4.8).
clique_sp_algorithm make_clique_apsp_algebraic(double eps, injection inj);
/// [7] Thm 5.2: exact SSSP in Õ(n^{1/6}) (Cor 4.9 / Thm 1.3).
clique_sp_algorithm make_clique_sssp_exact();
/// [7]: (3/2+ε, W)-diameter in Õ(1/ε) (Cor 5.2).
clique_diameter_algorithm make_clique_diameter_32(double eps, injection inj);
/// [8]: (1+o(1))-diameter via algebraic APSP (Cor 5.3).
clique_diameter_algorithm make_clique_diameter_algebraic(double eps,
                                                         injection inj);

// ---- message-level reference ----------------------------------------------

/// Honest CONGESTED CLIQUE APSP: every node broadcasts one adjacency entry
/// per target per round (n_s rounds of full exchange on clique_net), then
/// solves locally. Used to validate clique_net and as the E13 ablation.
std::vector<std::vector<u64>> naive_clique_apsp(clique_net& net,
                                                const clique_problem& prob);

/// Honest CONGESTED CLIQUE SSSP: synchronous Bellman–Ford over the skeleton
/// edges (each round every node sends its improved distance to each
/// skeleton neighbor — at most n_s messages, within the Lenzen cap).
/// Terminates after SPD(S) quiet rounds; returns exact distances.
std::vector<u64> bellman_ford_clique_sssp(clique_net& net,
                                          const clique_problem& prob,
                                          u32 source);

}  // namespace hybrid
