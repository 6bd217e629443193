// E12 — primitive complexities (self-timing, shared util/bench_io style):
//   Lemma 2.1: ruling set in O(µ log n) rounds;
//   Lemma 2.2: helper sets in O(µ log n) rounds;
//   Lemma B.1: token dissemination in Õ(√k + ℓ) rounds;
//   Lemma B.2: aggregation in O(log n) rounds;
//   Appendix D: k-wise hash evaluation throughput.
// Simulated round counts are printed next to the paper's bound terms so the
// asymptotics can be eyeballed from the tables; wall time is the best of
// kReps runs (the simulations are deterministic, so the minimum is the
// least-noise estimate). Usage:
//
//   bench_primitives [--json <path>]
#include <cmath>
#include <iostream>

#include "graph/generators.hpp"
#include "hash/kwise.hpp"
#include "proto/aggregation.hpp"
#include "proto/dissemination.hpp"
#include "proto/helper_sets.hpp"
#include "proto/ruling_set.hpp"
#include "util/bench_io.hpp"
#include "util/table.hpp"

namespace {

using namespace hybrid;

constexpr u32 kReps = 3;

/// Best-of-kReps wall time for a deterministic body.
double best_ms(const std::function<void()>& body) {
  double best = 0;
  for (u32 i = 0; i < kReps; ++i) {
    const double ms = timed_ms(body);
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

void bench_ruling_set(bench_recorder& rec) {
  const u32 n = 512;
  const graph g = gen::erdos_renyi_connected(n, 5.0, 1, 3);
  print_section("Ruling set (Lemma 2.1) — O(µ log n) rounds");
  table t({"mu", "sim rounds", "mu·log n", "wall ms"});
  for (u32 mu : {2u, 4u, 8u, 16u}) {
    u64 rounds = 0;
    const double ms = best_ms([&] {
      hybrid_net net(g, model_config{}, 7);
      compute_ruling_set(net, mu);
      rounds = net.round();
    });
    t.add_row({table::integer(mu), table::integer(static_cast<long long>(rounds)),
               table::integer(static_cast<long long>(mu) * id_bits(n)),
               table::num(ms, 2)});
    rec.add("ruling_set", {{"n", n},
                           {"mu", mu},
                           {"sim_rounds", rounds},
                           {"mu_logn", mu * id_bits(n)},
                           {"wall_ms", ms}});
  }
  t.print();
  std::cout << "\n";
}

void bench_helper_sets(bench_recorder& rec) {
  const u32 n = 512;
  const graph g = gen::erdos_renyi_connected(n, 5.0, 1, 5);
  rng r(9);
  std::vector<u32> w;
  for (u32 v = 0; v < n; ++v)
    if (r.next_bool(1.0 / 16)) w.push_back(v);
  print_section("Helper sets (Lemma 2.2) — O(µ log n) rounds");
  table t({"mu", "sim rounds", "wall ms"});
  for (u32 mu : {2u, 4u, 8u}) {
    u64 rounds = 0;
    const double ms = best_ms([&] {
      hybrid_net net(g, model_config{}, 11);
      compute_helpers(net, w, mu);
      rounds = net.round();
    });
    t.add_row({table::integer(mu), table::integer(static_cast<long long>(rounds)),
               table::num(ms, 2)});
    rec.add("helper_sets",
            {{"n", n}, {"mu", mu}, {"sim_rounds", rounds}, {"wall_ms", ms}});
  }
  t.print();
  std::cout << "\n";
}

void bench_dissemination(bench_recorder& rec) {
  const u32 n = 256;
  const graph g = gen::erdos_renyi_connected(n, 5.0, 1, 13);
  print_section("Token dissemination (Lemma B.1) — Õ(√k + ℓ) rounds");
  table t({"k", "sim rounds", "sqrt k", "wall ms"});
  for (u32 k : {16u, 64u, 256u, 1024u}) {
    u64 rounds = 0;
    const double ms = best_ms([&] {
      hybrid_net net(g, model_config{}, 17);
      rng r(19);
      std::vector<std::vector<token2>> initial(n);
      for (u32 tok = 0; tok < k; ++tok)
        initial[r.next_below(n)].push_back({tok, tok});
      disseminate(net, initial);
      rounds = net.round();
    });
    t.add_row({table::integer(k), table::integer(static_cast<long long>(rounds)),
               table::num(std::sqrt(static_cast<double>(k)), 1),
               table::num(ms, 2)});
    rec.add("dissemination",
            {{"n", n}, {"k", k}, {"sim_rounds", rounds}, {"wall_ms", ms}});
  }
  t.print();
  std::cout << "\n";
}

void bench_aggregation(bench_recorder& rec) {
  print_section("Global aggregation (Lemma B.2) — O(log n) rounds");
  table t({"n", "sim rounds", "log2 n", "wall ms"});
  for (u32 n : {64u, 512u, 4096u}) {
    const graph g = gen::path(n);
    std::vector<u64> vals(n, 3);
    u64 rounds = 0, messages = 0;
    const double ms = best_ms([&] {
      hybrid_net net(g, model_config{}, 23);
      global_aggregate(net, agg_op::max, vals);
      rounds = net.round();
      messages = net.raw_metrics().global_messages;
    });
    t.add_row({table::integer(n), table::integer(static_cast<long long>(rounds)),
               table::integer(id_bits(n)), table::num(ms, 2)});
    rec.add("aggregation",
            {{"n", n}, {"sim_rounds", rounds}, {"messages", messages},
             {"log2_n", id_bits(n)}, {"wall_ms", ms}});
  }
  t.print();
  std::cout << "\n";
}

void bench_kwise_hash(bench_recorder& rec) {
  print_section("k-wise hash evaluation (Appendix D) — throughput");
  table t({"independence", "evals", "wall ms", "Meval/s"});
  const u32 evals = 200000;
  for (u32 k : {4u, 16u, 64u}) {
    rng r(29);
    kwise_hash h(k, r);
    u64 sink = 12345;
    const double ms = best_ms([&] {
      u64 x = 12345;
      for (u32 i = 0; i < evals; ++i) x = h.eval(x);
      sink ^= x;  // keep the loop observable
    });
    const double meps = evals / 1e3 / std::max(ms, 1e-6);
    t.add_row({table::integer(k), table::integer(evals), table::num(ms, 2),
               table::num(meps, 2)});
    rec.add("kwise_hash_eval", {{"independence", k},
                                {"evals", evals},
                                {"wall_ms", ms},
                                {"mevals_per_sec", meps},
                                {"sink", sink & 0xff}});
  }
  t.print();
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench_recorder rec(argc, argv, "bench_primitives");
  bench_ruling_set(rec);
  bench_helper_sets(rec);
  bench_dissemination(rec);
  bench_aggregation(rec);
  bench_kwise_hash(rec);
  if (!rec.write()) {
    std::cerr << "failed to write --json output\n";
    return 1;
  }
  return 0;
}
