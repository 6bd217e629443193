// E4/E5/E6 — Theorem 1.2: the three k-SSP parameterizations.
//
//   row 1 (Cor 4.6): k = n^{1/3} sources, Õ(n^{1/3}/ε) rounds,
//                    (3+ε) weighted / (1+ε) unweighted;
//   row 2 (Cor 4.7): any k, Õ(n^{1/3}/ε + √k) rounds,
//                    (7+ε) weighted / (2+ε) unweighted;
//   row 3 (Cor 4.8): any k, Õ(n^{0.397} + √k) rounds, (3+o(1)) weighted.
//
// All plug-ins run under WORST-CASE error injection (every CLIQUE output
// inflated to the edge of its (α, β) contract), so the observed stretch
// genuinely exercises Theorem 4.1's end-to-end bound instead of being
// exact by construction.
#include <cmath>
#include <iostream>

#include "core/kssp_framework.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "util/bench_io.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace hybrid;

struct stretch {
  double max_ratio = 1.0;
  u64 underestimates = 0;
};

stretch measure(const kssp_result& res, const graph& g) {
  stretch s;
  const auto ref = multi_source_reference(g, res.sources);
  // The k × n dense adapter: k ≤ 128 rows, trivial at bench sizes.
  round_executor ex;
  const auto dist = res.labels.materialize(ex);
  for (u32 j = 0; j < res.sources.size(); ++j)
    for (u32 v = 0; v < g.num_nodes(); ++v) {
      if (dist[j][v] < ref[j][v]) ++s.underestimates;
      if (ref[j][v] > 0)
        s.max_ratio = std::max(
            s.max_ratio, static_cast<double>(dist[j][v]) /
                             static_cast<double>(ref[j][v]));
    }
  return s;
}

std::vector<u32> pick_sources(u32 n, u32 k, u64 seed) {
  rng r(seed);
  return r.sample_without_replacement(n, k);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hybrid;
  bench_recorder rec(argc, argv, "bench_kssp");

  print_section(
      "E4 / Thm 1.2 row 1 (Cor 4.6) — k = n^{1/3} sources, eps = 0.25, "
      "worst-case injected CLIQUE");
  table t1({"graph", "n", "k", "rounds", "max stretch", "proven bound",
            "under-est"});
  std::vector<double> ns1, rounds1;
  for (u32 n : {256, 512, 1024}) {
    for (bool weighted : {false, true}) {
      const u64 w = weighted ? 16 : 1;
      const graph g = gen::erdos_renyi_connected(n, 6.0, w, 40 + n);
      const u32 k = static_cast<u32>(std::cbrt(static_cast<double>(n)));
      const auto alg = make_clique_kssp_1eps(0.25, injection::worst_case);
      kssp_result res;
      const double ms = timed_ms([&] {
        res = hybrid_kssp(g, model_config{}, 17 + n, pick_sources(n, k, n),
                          alg);
      });
      const stretch s = measure(res, g);
      const double bound =
          weighted ? res.bound_weighted : res.bound_unweighted;
      rec.add(weighted ? "cor46_weighted" : "cor46_unweighted",
              {{"n", n},
               {"k", k},
               {"rounds", res.metrics.rounds},
               {"messages", res.metrics.global_messages},
               {"wall_ms", ms},
               {"max_stretch", s.max_ratio}});
      if (weighted) {
        ns1.push_back(n);
        rounds1.push_back(static_cast<double>(res.metrics.rounds));
      }
      t1.add_row({weighted ? "ER W=16" : "ER W=1", table::integer(n),
                  table::integer(k),
                  table::integer(static_cast<long long>(res.metrics.rounds)),
                  table::num(s.max_ratio, 3), table::num(bound, 3),
                  table::integer(static_cast<long long>(s.underestimates))});
    }
  }
  t1.print();
  const linear_fit f1 = loglog_exponent(ns1, rounds1);
  std::cout << "\nraw fitted rounds exponent: n^" << table::num(f1.slope, 3)
            << " (claim 1/3 = 0.333 plus polylog). Stretch 1.0 here is "
               "expected: on these small-diameter graphs the T_B-deep local "
               "exploration already covers every pair exactly — the paper's "
               "own min(D, complexity) remark. The approximation regime "
               "needs D >> T_B; see E4b.\n";

  print_section(
      "E4b — approximation regime (D >> T_B): long weighted paths, "
      "worst-case injected CLIQUE plug-ins");
  table t1b({"algorithm", "graph", "n", "rounds", "max stretch",
             "proven bound", "under-est"});
  for (u32 n : {4096u, 6144u}) {
    for (bool weighted : {false, true}) {
      const u64 w = weighted ? 16 : 1;
      const graph g = gen::path(n, w, 13 + n);
      std::vector<u32> sources = pick_sources(n, 8, 3 + n);
      {
        const auto alg = make_clique_kssp_1eps(0.25, injection::worst_case);
        const kssp_result res = hybrid_kssp(g, model_config{}, 31 + n,
                                            sources, alg);
        const stretch s = measure(res, g);
        const double bound =
            weighted ? res.bound_weighted : res.bound_unweighted;
        t1b.add_row({"CHKL19 (1+eps)", weighted ? "path W=16" : "path W=1",
                     table::integer(n),
                     table::integer(static_cast<long long>(res.metrics.rounds)),
                     table::num(s.max_ratio, 3), table::num(bound, 3),
                     table::integer(static_cast<long long>(s.underestimates))});
      }
      {
        const auto alg = make_clique_apsp_2eps(0.25, injection::worst_case);
        const kssp_result res = hybrid_kssp(g, model_config{}, 37 + n,
                                            sources, alg);
        const stretch s = measure(res, g);
        const double bound =
            weighted ? res.bound_weighted : res.bound_unweighted;
        t1b.add_row({"CHKL19 (2+eps,..)", weighted ? "path W=16" : "path W=1",
                     table::integer(n),
                     table::integer(static_cast<long long>(res.metrics.rounds)),
                     table::num(s.max_ratio, 3), table::num(bound, 3),
                     table::integer(static_cast<long long>(s.underestimates))});
      }
    }
  }
  t1b.print();
  std::cout << "\n(stretch now strictly > 1 and still within the proven "
               "bound: Theorem 4.1's error amplification measured end-to-"
               "end under contract-edge CLIQUE outputs)\n";

  print_section(
      "E5 / Thm 1.2 row 2 (Cor 4.7) — arbitrary k, (7+eps) weighted / "
      "(2+eps) unweighted");
  table t2({"graph", "n", "k", "rounds", "max stretch", "proven bound",
            "under-est"});
  const u32 n2 = 1024;
  for (u32 k : {8, 32, 128}) {
    for (bool weighted : {false, true}) {
      const u64 w = weighted ? 16 : 1;
      const graph g = gen::erdos_renyi_connected(n2, 6.0, w, 60 + k);
      const auto alg = make_clique_apsp_2eps(0.25, injection::worst_case);
      const kssp_result res = hybrid_kssp(g, model_config{}, 23 + k,
                                          pick_sources(n2, k, 5 + k), alg);
      const stretch s = measure(res, g);
      const double bound =
          weighted ? res.bound_weighted : res.bound_unweighted;
      t2.add_row({weighted ? "ER W=16" : "ER W=1", table::integer(n2),
                  table::integer(k),
                  table::integer(static_cast<long long>(res.metrics.rounds)),
                  table::num(s.max_ratio, 3), table::num(bound, 3),
                  table::integer(static_cast<long long>(s.underestimates))});
    }
  }
  t2.print();

  print_section(
      "E6 / Thm 1.2 row 3 (Cor 4.8) — algebraic CLIQUE APSP, (3+o(1)) "
      "weighted");
  table t3({"n", "k", "T_A(clique)", "rounds", "max stretch",
            "proven bound", "under-est"});
  for (u32 n : {256, 512, 1024}) {
    const graph g = gen::erdos_renyi_connected(n, 6.0, 16, 80 + n);
    const u32 k = static_cast<u32>(std::cbrt(static_cast<double>(n)));
    const auto alg = make_clique_apsp_algebraic(0.1, injection::worst_case);
    kssp_result res;
    const double ms = timed_ms([&] {
      res = hybrid_kssp(g, model_config{}, 29 + n, pick_sources(n, k, 9 + n),
                        alg);
    });
    const stretch s = measure(res, g);
    rec.add("cor48_algebraic", {{"n", n},
                                {"k", k},
                                {"rounds", res.metrics.rounds},
                                {"messages", res.metrics.global_messages},
                                {"wall_ms", ms},
                                {"max_stretch", s.max_ratio}});
    t3.add_row({table::integer(n), table::integer(k),
                table::integer(static_cast<long long>(res.clique_rounds)),
                table::integer(static_cast<long long>(res.metrics.rounds)),
                table::num(s.max_ratio, 3),
                table::num(res.bound_weighted, 3),
                table::integer(static_cast<long long>(s.underestimates))});
  }
  t3.print();
  std::cout << "\nall rows: max stretch <= proven bound and zero "
               "underestimates reproduce Theorem 1.2's guarantees.\n";
  return rec.write() ? 0 : 1;
}
