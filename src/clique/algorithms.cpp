#include "clique/algorithms.hpp"

#include <algorithm>
#include <cmath>

#include "graph/shortest_paths.hpp"
#include "util/assert.hpp"

namespace hybrid {

namespace {

u64 inflate(u64 d, const approx_contract& c) {
  if (d == kInfDist || d == 0) return d;
  const double x = std::floor(c.alpha * static_cast<double>(d));
  return static_cast<u64>(x) + c.beta;
}

u64 rounds_from(double eta, double delta, u32 n_s) {
  const double t = eta * std::pow(static_cast<double>(n_s), delta);
  return std::max<u64>(1, static_cast<u64>(std::ceil(t)));
}

}  // namespace

// ---- shortest-path plug-in --------------------------------------------------

clique_sp_algorithm::clique_sp_algorithm(params p, injection inj)
    : p_(std::move(p)), inj_(inj) {
  HYB_REQUIRE(p_.eps > 0.0, "ε must be positive");
  HYB_REQUIRE(p_.delta >= 0.0, "δ must be non-negative");
}

u64 clique_sp_algorithm::declared_rounds(u32 n_s) const {
  return rounds_from(eta(), p_.delta, n_s);
}

approx_contract clique_sp_algorithm::contract(u64 max_skeleton_weight) const {
  approx_contract c;
  c.alpha = p_.alpha_base + p_.alpha_eps_mult * p_.eps;
  c.beta = p_.beta_is_skeleton_weight
               ? static_cast<u64>(std::ceil(
                     (1.0 + p_.eps) *
                     static_cast<double>(max_skeleton_weight)))
               : 0;
  return c;
}

std::vector<std::vector<u64>> clique_sp_algorithm::solve(
    const clique_problem& prob) const {
  HYB_REQUIRE(prob.g != nullptr, "malformed clique problem");
  std::vector<u32> sources = prob.sources;
  if (sources.empty())
    for (u32 i = 0; i < prob.n_s(); ++i) sources.push_back(i);
  const approx_contract c = contract(prob.max_edge_weight());
  std::vector<std::vector<u64>> out;
  out.reserve(sources.size());
  for (u32 s : sources) {
    HYB_REQUIRE(s < prob.n_s(), "source index out of range");
    std::vector<u64> row = dijkstra(*prob.g, s);
    if (inj_ == injection::worst_case)
      for (u64& d : row) d = inflate(d, c);
    out.push_back(std::move(row));
  }
  return out;
}

// ---- diameter plug-in -------------------------------------------------------

clique_diameter_algorithm::clique_diameter_algorithm(params p, injection inj)
    : p_(std::move(p)), inj_(inj) {
  HYB_REQUIRE(p_.eps > 0.0, "ε must be positive");
}

u64 clique_diameter_algorithm::declared_rounds(u32 n_s) const {
  return rounds_from(eta(), p_.delta, n_s);
}

approx_contract clique_diameter_algorithm::contract(
    u64 max_skeleton_weight) const {
  approx_contract c;
  c.alpha = p_.alpha_base + p_.alpha_eps_mult * p_.eps;
  c.beta = p_.beta_is_skeleton_weight ? max_skeleton_weight : 0;
  return c;
}

u64 clique_diameter_algorithm::solve(const clique_problem& prob) const {
  HYB_REQUIRE(prob.g != nullptr, "malformed clique problem");
  u64 diam = 0;
  for (u32 i = 0; i < prob.n_s(); ++i) {
    for (u64 d : dijkstra(*prob.g, i)) {
      HYB_INVARIANT(d != kInfDist,
                    "skeleton is disconnected (Lemma C.2 event failed)");
      diam = std::max(diam, d);
    }
  }
  if (inj_ == injection::worst_case)
    diam = inflate(diam, contract(prob.max_edge_weight()));
  return diam;
}

// ---- factories --------------------------------------------------------------

clique_sp_algorithm make_clique_kssp_1eps(double eps, injection inj) {
  clique_sp_algorithm::params p;
  p.name = "CHKL19-kSSP(1+eps)";
  p.delta = 0.0;
  p.eps = eps;
  p.eta_is_inv_eps = true;
  p.alpha_base = 1.0;
  p.alpha_eps_mult = 1.0;
  p.max_source_exponent = 0.5;
  return {p, inj};
}

clique_sp_algorithm make_clique_apsp_2eps(double eps, injection inj) {
  clique_sp_algorithm::params p;
  p.name = "CHKL19-APSP(2+eps)";
  p.delta = 0.0;
  p.eps = eps;
  p.eta_is_inv_eps = true;
  p.alpha_base = 2.0;
  p.alpha_eps_mult = 1.0;
  p.beta_is_skeleton_weight = true;
  p.max_source_exponent = 1.0;
  return {p, inj};
}

clique_sp_algorithm make_clique_apsp_algebraic(double eps, injection inj) {
  clique_sp_algorithm::params p;
  p.name = "CKKLPS19-APSP(1+o(1))";
  p.delta = 0.15715;  // ρ ≤ 1 − 2/ω with ω < 2.3728639
  p.eps = eps;
  p.eta_is_inv_eps = false;
  p.alpha_base = 1.0;
  p.alpha_eps_mult = 1.0;
  p.max_source_exponent = 1.0;
  return {p, inj};
}

clique_sp_algorithm make_clique_sssp_exact() {
  clique_sp_algorithm::params p;
  p.name = "CHDKL19-SSSP(exact)";
  p.delta = 1.0 / 6.0;
  p.eps = 1.0;  // unused: η = 1, α = 1, β = 0
  p.eta_is_inv_eps = false;
  p.alpha_base = 1.0;
  p.max_source_exponent = 0.0;
  return {p, injection::none};
}

clique_diameter_algorithm make_clique_diameter_32(double eps, injection inj) {
  clique_diameter_algorithm::params p;
  p.name = "CHKL19-diam(3/2+eps)";
  p.delta = 0.0;
  p.eps = eps;
  p.eta_is_inv_eps = true;
  p.alpha_base = 1.5;
  p.alpha_eps_mult = 1.0;
  p.beta_is_skeleton_weight = true;
  return {p, inj};
}

clique_diameter_algorithm make_clique_diameter_algebraic(double eps,
                                                         injection inj) {
  clique_diameter_algorithm::params p;
  p.name = "CKKLPS19-diam(1+eps)";
  p.delta = 0.15715;
  p.eps = eps;
  p.eta_is_inv_eps = true;
  p.alpha_base = 1.0;
  p.alpha_eps_mult = 1.0;
  return {p, inj};
}

// ---- message-level naive CLIQUE APSP ---------------------------------------

std::vector<std::vector<u64>> naive_clique_apsp(clique_net& net,
                                                const clique_problem& prob) {
  const u32 n_s = prob.n_s();
  HYB_REQUIRE(net.n() == n_s, "clique size mismatch");
  // Each node i owns adjacency row i, padded to length n_s with kInfDist;
  // in round r it sends entry r of its row to every node. After n_s rounds
  // everyone holds the full weight matrix and solves locally.
  std::vector<std::vector<u64>> weight(n_s, std::vector<u64>(n_s, kInfDist));
  for (u32 i = 0; i < n_s; ++i)
    for (const edge& e : prob.g->neighbors(i)) weight[i][e.to] = e.weight;

  // gathered[v][i][j]: what v has learned of the matrix.
  std::vector<std::vector<std::vector<u64>>> gathered(
      n_s, std::vector<std::vector<u64>>(n_s, std::vector<u64>(n_s, kInfDist)));
  // Node-parallel rounds (docs/CONCURRENCY.md): i sends from its own
  // budget, v writes only its own gathered slice.
  for (u32 r = 0; r < n_s; ++r) {
    net.executor().for_nodes(n_s, [&](u32 i) {
      for (u32 dst = 0; dst < n_s; ++dst) {
        clique_msg m;
        m.src = i;
        m.dst = dst;
        m.tag = r;
        m.w[0] = r;
        m.w[1] = weight[i][r];
        m.nw = 2;
        net.send(m);
      }
    });
    net.advance_round();
    net.executor().for_nodes(n_s, [&](u32 v) {
      for (const clique_msg& m : net.inbox(v))
        gathered[v][m.src][static_cast<u32>(m.w[0])] = m.w[1];
    });
  }
  // All nodes now solve the same instance locally; compute once and verify
  // one node's copy matches the instance.
  for (u32 i = 0; i < n_s; ++i)
    for (u32 j = 0; j < n_s; ++j)
      HYB_INVARIANT(gathered[0][i][j] == weight[i][j],
                    "full exchange failed to reproduce the weight matrix");
  std::vector<std::vector<u64>> out(n_s);
  for (u32 i = 0; i < n_s; ++i) out[i] = dijkstra(*prob.g, i);
  return out;
}

std::vector<u64> bellman_ford_clique_sssp(clique_net& net,
                                          const clique_problem& prob,
                                          u32 source) {
  const u32 n_s = prob.n_s();
  HYB_REQUIRE(net.n() == n_s, "clique size mismatch");
  HYB_REQUIRE(source < n_s, "source out of range");
  std::vector<u64> dist(n_s, kInfDist);
  std::vector<char> changed(n_s, 0);
  dist[source] = 0;
  changed[source] = 1;
  bool any = true;
  while (any) {
    net.executor().for_nodes(n_s, [&](u32 v) {
      if (!changed[v]) return;
      for (const edge& e : prob.g->neighbors(v)) {
        clique_msg m;
        m.src = v;
        m.dst = e.to;
        m.w[0] = dist[v];
        m.nw = 1;
        net.send(m);
      }
      changed[v] = 0;
    });
    net.advance_round();
    any = net.executor().sum_nodes(n_s, [&](u32 v) -> u64 {
      // Relax against the senders' skeleton edge weights (v knows its own
      // incident weights).
      u64 improved = 0;
      for (const clique_msg& m : net.inbox(v)) {
        for (const edge& e : prob.g->neighbors(v)) {
          if (e.to != m.src) continue;
          const u64 nd = m.w[0] + e.weight;
          if (nd < dist[v]) {
            dist[v] = nd;
            changed[v] = 1;
            improved = 1;
          }
        }
      }
      return improved;
    }) != 0;
  }
  return dist;
}

}  // namespace hybrid
