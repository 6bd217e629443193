// Fault-degradation curves (sim/fault.hpp, docs/FAULTS.md): how the
// self-healing protocols degrade as the seeded drop probability rises,
// p ∈ {0, 0.05, 0.1, 0.3} — round overshoot, dropped traffic, and
// protocol-level retransmissions for the healed local flood (a source-set
// exploration, the h-hop limited Bellman–Ford, under local-plane drops),
// token dissemination and token routing (both under global-plane drops),
// plus the end-to-end APSP/SSSP/diameter pipelines under drops on each
// plane separately. The healed exploration engine also runs alone (the
// all-sources exploration of the APSP label phase, p ∈ {0.02, 0.1}) with
// its heap allocations per round (bench/alloc_counter.hpp). Every quantity
// except wall time, allocations and the pipelines' extra_rounds (healing
// overhead — a perf trajectory that moves with the healing engine) is
// deterministic per (seed, fault_seed), so the curves are gated against
// bench/baseline/BENCH_faults.json like the other deterministic
// trajectories. A protocol that aborts (fault_failure) records success = 0
// — the curve stays honest instead of silently dropping the row. Usage:
//
//   bench_faults [--json <path>]
#include <functional>
#include <iostream>
#include <string>
#include <utility>

#include "alloc_counter.hpp"
#include "core/apsp.hpp"
#include "core/diameter.hpp"
#include "core/sssp.hpp"
#include "graph/generators.hpp"
#include "proto/dissemination.hpp"
#include "proto/flood.hpp"
#include "proto/sparse_exploration.hpp"
#include "proto/token_routing.hpp"
#include "sim/hybrid_net.hpp"
#include "util/bench_io.hpp"
#include "util/table.hpp"

namespace {

using namespace hybrid;

constexpr double kProbabilities[] = {0.0, 0.05, 0.1, 0.3};
constexpr u32 kReps = 3;

double best_ms(const std::function<void()>& body) {
  double best = 0;
  for (u32 i = 0; i < kReps; ++i) {
    const double ms = timed_ms(body);
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

sim_options faulty_local(double p) {
  sim_options opts;
  opts.faults.drop_local = p;
  opts.faults.fault_seed = 17;
  return opts;
}

sim_options faulty_global(double p) {
  sim_options opts;
  opts.faults.drop_global = p;
  opts.faults.fault_seed = 17;
  return opts;
}

void bench_flood(bench_recorder& rec) {
  const u32 n = 256;
  const graph g = gen::erdos_renyi_connected(n, 4.0, 8, 7);
  const std::vector<u32> sources = {0, 63, 127, 191};
  const u32 h = 24;
  print_section("Healed local flood (source-set exploration) — local drops");
  table t({"p", "sim rounds", "extra rounds", "local dropped", "success",
           "wall ms"});
  for (const double p : kProbabilities) {
    u64 rounds = 0, extra = 0, dropped = 0;
    u32 success = 1;
    const double ms = best_ms([&] {
      hybrid_net net(g, model_config{}, 5, faulty_local(p));
      try {
        run_local_exploration(net, h, /*advance_rounds=*/true, &sources);
      } catch (const fault_failure&) {
        success = 0;
      }
      rounds = net.round();
      extra = net.raw_metrics().extra_rounds;
      dropped = net.raw_metrics().local_dropped;
    });
    t.add_row({table::num(p, 2),
               table::integer(static_cast<long long>(rounds)),
               table::integer(static_cast<long long>(extra)),
               table::integer(static_cast<long long>(dropped)),
               table::integer(success), table::num(ms, 2)});
    rec.add("flood_degradation", {{"p_x100", p * 100},
                                  {"n", n},
                                  {"sim_rounds", rounds},
                                  {"extra_rounds", extra},
                                  {"local_dropped", dropped},
                                  {"success", success},
                                  {"wall_ms", ms}});
  }
  t.print();
  std::cout << "\n";
}

// The healed exploration engine on its own: the all-sources, frozen-round
// exploration the APSP label phase runs (so every healing round is
// overhead), under local drops. allocs_per_round is the call's heap
// allocations — setup, referee and result included — per simulated round.
void bench_exploration(bench_recorder& rec) {
  const u32 n = 256;
  const graph g = gen::erdos_renyi_connected(n, 6.0, 16, 13);
  const u32 h = 16;
  print_section("Healed exploration (all sources) — local drops");
  table t({"p", "sim rounds", "retransmitted", "local dropped", "success",
           "allocs/round", "wall ms"});
  for (const double p : {0.02, 0.1}) {
    u64 rounds = 0, extra = 0, retx = 0, dropped = 0;
    u32 success = 1;
    double allocs_per_round = 0;
    const double ms = best_ms([&] {
      hybrid_net net(g, model_config{}, 5, faulty_local(p));
      const unsigned long long before = benchalloc::allocations();
      try {
        run_local_exploration(net, h, /*advance_rounds=*/false, nullptr,
                              /*first_hops=*/false);
      } catch (const fault_failure&) {
        success = 0;
      }
      const unsigned long long allocs = benchalloc::allocations() - before;
      rounds = net.round();
      extra = net.raw_metrics().extra_rounds;
      retx = net.raw_metrics().retransmitted;
      dropped = net.raw_metrics().local_dropped;
      allocs_per_round =
          rounds > 0 ? static_cast<double>(allocs) / static_cast<double>(rounds)
                     : 0.0;
    });
    t.add_row({table::num(p, 2),
               table::integer(static_cast<long long>(rounds)),
               table::integer(static_cast<long long>(retx)),
               table::integer(static_cast<long long>(dropped)),
               table::integer(success), table::num(allocs_per_round, 1),
               table::num(ms, 2)});
    rec.add("healed_exploration", {{"p_x100", p * 100},
                                   {"n", n},
                                   {"sim_rounds", rounds},
                                   {"extra_rounds", extra},
                                   {"retransmitted", retx},
                                   {"local_dropped", dropped},
                                   {"success", success},
                                   {"allocs_per_round", allocs_per_round},
                                   {"wall_ms", ms}});
  }
  t.print();
  std::cout << "\n";
}

void bench_dissemination(bench_recorder& rec) {
  const u32 n = 256;
  const graph g = gen::erdos_renyi_connected(n, 4.0, 1, 9);
  print_section("Token dissemination (Lemma B.1) — global drops");
  table t({"p", "sim rounds", "extra rounds", "dropped", "success",
           "wall ms"});
  for (const double p : kProbabilities) {
    u64 rounds = 0, extra = 0, dropped = 0;
    u32 success = 1;
    const double ms = best_ms([&] {
      hybrid_net net(g, model_config{}, 5, faulty_global(p));
      std::vector<std::vector<token2>> initial(n);
      for (u32 v = 0; v < n; v += 4) initial[v].push_back({v, u64{v} * 3});
      try {
        disseminate(net, std::move(initial));
      } catch (const fault_failure&) {
        success = 0;
      }
      rounds = net.round();
      extra = net.raw_metrics().extra_rounds;
      dropped = net.raw_metrics().global_dropped;
    });
    t.add_row({table::num(p, 2),
               table::integer(static_cast<long long>(rounds)),
               table::integer(static_cast<long long>(extra)),
               table::integer(static_cast<long long>(dropped)),
               table::integer(success), table::num(ms, 2)});
    rec.add("dissemination_degradation", {{"p_x100", p * 100},
                                          {"n", n},
                                          {"sim_rounds", rounds},
                                          {"extra_rounds", extra},
                                          {"global_dropped", dropped},
                                          {"success", success},
                                          {"wall_ms", ms}});
  }
  t.print();
  std::cout << "\n";
}

void bench_token_routing(bench_recorder& rec) {
  const u32 n = 256;
  const graph g = gen::erdos_renyi_connected(n, 4.0, 1, 11);
  print_section("Token routing (Theorem 2.2) — global drops");
  table t({"p", "sim rounds", "retransmitted", "dropped", "success",
           "wall ms"});
  for (const double p : kProbabilities) {
    u64 rounds = 0, retx = 0, dropped = 0;
    u32 success = 1;
    const double ms = best_ms([&] {
      hybrid_net net(g, model_config{}, 5, faulty_global(p));
      routing_spec spec;
      for (u32 v = 0; v < n; v += 2) spec.senders.push_back(v);
      for (u32 v = 1; v < n; v += 2) spec.receivers.push_back(v);
      spec.k_s = 4;
      spec.k_r = 4;
      std::vector<std::vector<routed_token>> batch(spec.senders.size());
      for (u32 si = 0; si < spec.senders.size(); ++si)
        for (u32 i = 0; i < 4; ++i) {
          const u32 r = spec.receivers[(si + i) % spec.receivers.size()];
          batch[si].push_back(
              {spec.senders[si], r, i, u64{spec.senders[si]} << 16 | i});
        }
      try {
        run_token_routing(net, std::move(spec), std::move(batch));
      } catch (const fault_failure&) {
        success = 0;
      }
      rounds = net.round();
      retx = net.raw_metrics().retransmitted;
      dropped = net.raw_metrics().global_dropped;
    });
    t.add_row({table::num(p, 2),
               table::integer(static_cast<long long>(rounds)),
               table::integer(static_cast<long long>(retx)),
               table::integer(static_cast<long long>(dropped)),
               table::integer(success), table::num(ms, 2)});
    rec.add("token_routing_degradation", {{"p_x100", p * 100},
                                          {"n", n},
                                          {"sim_rounds", rounds},
                                          {"retransmitted", retx},
                                          {"global_dropped", dropped},
                                          {"success", success},
                                          {"wall_ms", ms}});
  }
  t.print();
  std::cout << "\n";
}

// End-to-end degradation: the full APSP/SSSP/diameter pipelines under
// drops on each plane separately. `identical` asserts the headline claim —
// the healed result is bit-identical to the fault-free run — and is gated;
// `extra_rounds` is the healing overhead curve (perf-tracked, see
// compare_bench_json.py).
void bench_pipelines(bench_recorder& rec) {
  const u32 n = 64;
  const graph gw = gen::erdos_renyi_connected(n, 3.0, 8, 21);  // weighted
  const graph gu = gen::erdos_renyi_connected(n, 3.0, 1, 21);  // unweighted
  const auto dia_alg = make_clique_diameter_32(0.25, injection::none);
  const auto apsp_ref =
      hybrid_apsp_exact(gw, model_config{}, 7).labels.materialize();
  const auto sssp_ref = hybrid_sssp_exact(gw, model_config{}, 7, 0);
  const auto dia_ref = hybrid_diameter(gu, model_config{}, 7, dia_alg);
  print_section("Full pipelines — healed degradation on either plane");
  table t({"scenario", "p", "extra rounds", "identical", "success",
           "wall ms"});
  // run(opts) -> {identical-to-fault-free, extra_rounds}; throws
  // fault_failure when healing gives up.
  const auto family =
      [&](const std::string& scenario, bool local_plane,
          const std::function<std::pair<u32, u64>(const sim_options&)>& run) {
        for (const double p : kProbabilities) {
          u32 success = 1, identical = 0;
          u64 extra = 0;
          const double ms = best_ms([&] {
            const sim_options o = local_plane ? faulty_local(p)
                                              : faulty_global(p);
            try {
              const std::pair<u32, u64> r = run(o);
              identical = r.first;
              extra = r.second;
            } catch (const fault_failure&) {
              success = 0;
              identical = 0;
              extra = 0;
            }
          });
          t.add_row({scenario, table::num(p, 2),
                     table::integer(static_cast<long long>(extra)),
                     table::integer(identical), table::integer(success),
                     table::num(ms, 2)});
          rec.add(scenario, {{"p_x100", p * 100},
                             {"n", n},
                             {"success", success},
                             {"identical", identical},
                             {"extra_rounds", extra},
                             {"wall_ms", ms}});
        }
      };
  const auto apsp_run = [&](const sim_options& o) {
    const auto got = hybrid_apsp_exact(gw, model_config{}, 7, false, o);
    return std::pair<u32, u64>{got.labels.materialize() == apsp_ref,
                               got.metrics.extra_rounds};
  };
  const auto sssp_run = [&](const sim_options& o) {
    const auto got = hybrid_sssp_exact(gw, model_config{}, 7, 0, o);
    return std::pair<u32, u64>{got.dist == sssp_ref.dist,
                               got.metrics.extra_rounds};
  };
  const auto dia_run = [&](const sim_options& o) {
    const auto got = hybrid_diameter(gu, model_config{}, 7, dia_alg, o);
    return std::pair<u32, u64>{got.estimate == dia_ref.estimate &&
                                   got.h_hat == dia_ref.h_hat &&
                                   got.skeleton_estimate ==
                                       dia_ref.skeleton_estimate,
                               got.metrics.extra_rounds};
  };
  family("apsp_pipeline_local", true, apsp_run);
  family("apsp_pipeline_global", false, apsp_run);
  family("sssp_pipeline_local", true, sssp_run);
  family("sssp_pipeline_global", false, sssp_run);
  family("diameter_pipeline_local", true, dia_run);
  family("diameter_pipeline_global", false, dia_run);
  t.print();
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench_recorder rec(argc, argv, "bench_faults");
  bench_flood(rec);
  bench_exploration(rec);
  bench_dissemination(rec);
  bench_token_routing(rec);
  bench_pipelines(rec);
  if (!rec.write()) {
    std::cerr << "failed to write --json output\n";
    return 1;
  }
  return 0;
}
