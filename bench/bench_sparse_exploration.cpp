// Sparse exploration at scale: the n = 10⁵ bounded-degree workload the
// dense path cannot touch (its n² distance matrix alone would be ~80 GB),
// plus a small-instance differential scenario asserting the sparse and
// dense paths produce bit-identical triples and metrics.
//
// Reports rounds, local traffic, reached-set totals (Σ|ball_h(v)| — the
// quantity that bounds sparse memory), wall-clock, heap allocations per
// round (bench/alloc_counter.hpp), and process peak RSS; asserts the large
// run stays orders of magnitude under the dense equivalent. Usage:
//
//   bench_sparse_exploration [n] [h] [--json <path>]
#include "alloc_counter.hpp"
#include "peak_rss.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "graph/generators.hpp"
#include "proto/sparse_exploration.hpp"
#include "util/assert.hpp"
#include "util/bench_io.hpp"
#include "util/table.hpp"

namespace {

using namespace hybrid;
using benchrss::peak_rss_mb;
using benchrss::reset_peak_rss;

struct explo_run {
  sparse_exploration_result res;
  run_metrics m;
  double wall_ms = 0;
  u64 allocs = 0;
  double peak_mb = 0;    ///< this run's own peak (water mark reset per run)
  bool peak_valid = false;  ///< reset took; otherwise peak_mb is stale
};

/// dense_local_exploration or sparse_local_exploration.
using explore_fn = sparse_exploration_result (*)(hybrid_net&, u32, bool,
                                                 const std::vector<u32>*,
                                                 bool);

explo_run run(const graph& g, u32 h, u32 threads, explore_fn path) {
  explo_run out;
  out.peak_valid = reset_peak_rss();
  const u64 alloc0 = benchalloc::allocations();
  out.wall_ms = timed_ms([&] {
    sim_options o;
    o.threads = threads;
    hybrid_net net(g, model_config{}, 1, o);
    out.res = path(net, h, /*advance_rounds=*/true, nullptr,
                   /*first_hops=*/true);
    out.m = net.snapshot();
  });
  out.allocs = benchalloc::allocations() - alloc0;
  // A failed water-mark reset would make this read the previous run's
  // peak; keep the field absent rather than wrong.
  out.peak_mb = out.peak_valid ? peak_rss_mb() : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench_recorder rec(argc, argv, "bench_sparse_exploration");
  std::vector<u32> sizes;
  for (int i = 1; i < argc && argv[i][0] != '-'; ++i)
    sizes.push_back(static_cast<u32>(std::atoi(argv[i])));
  const u32 n = sizes.size() > 0 ? sizes[0] : 100000;
  const u32 h = sizes.size() > 1 ? sizes[1] : 4;

  print_section("Sparse exploration — neighborhood-bounded vs dense");
  const u64 dense_equiv_mb = u64{n} * n * 8 / 1000000;
  std::cout << "n = " << n << ", degree <= 3, h = " << h
            << "; dense path would need ~" << dense_equiv_mb / 1000
            << " GB for its distance matrix alone\n\n";

  const graph big = gen::bounded_degree(n, 3, 1, 42);

  table t({"scenario", "threads", "rounds", "Mitems", "reached", "wall ms",
           "allocs/round", "peak MB"});
  auto row = [&](const char* name, u32 threads, const explo_run& r) {
    const double apr =
        static_cast<double>(r.allocs) / std::max<u64>(r.m.rounds, 1);
    t.add_row({name, table::integer(threads), table::integer(r.m.rounds),
               table::num(static_cast<double>(r.m.local_items) / 1e6, 2),
               table::integer(static_cast<long long>(r.res.total_reached())),
               table::num(r.wall_ms, 1), table::num(apr, 1),
               r.peak_valid ? table::num(r.peak_mb, 0) : "-"});
    std::vector<bench_field> fields = {
        {"n", r.res.offsets.size() - 1},
        {"h", h},
        {"threads", threads},
        {"rounds", r.m.rounds},
        {"messages", r.m.local_items},
        {"reached", r.res.total_reached()},
        {"wall_ms", r.wall_ms},
        {"allocs_per_round", apr}};
    if (r.peak_valid) fields.push_back({"peak_mem_mb", r.peak_mb});
    rec.add(name, std::move(fields));
  };

  u64 ball_total = 0;
  double large_peak = 0;
  {
    const explo_run large1 = run(big, h, 1, sparse_local_exploration);
    row("sparse_large", 1, large1);
    const explo_run large8 = run(big, h, 8, sparse_local_exploration);
    HYB_INVARIANT(large8.res == large1.res,
                  "thread count changed the sparse exploration result");
    HYB_INVARIANT(large8.m.rounds == large1.m.rounds &&
                      large8.m.local_items == large1.m.local_items,
                  "thread count changed charged rounds/traffic");
    row("sparse_large", 8, large8);
    ball_total = large1.res.total_reached();
    if (large1.peak_valid && large8.peak_valid)
      large_peak = std::max(large1.peak_mb, large8.peak_mb);
  }  // drop the large results so the differential rows report their own peak
  // The acceptance bound: memory stays O(Σ|ball_h(v)|), orders of magnitude
  // under the ~80 GB the dense matrices would need at n = 10⁵.
  if (large_peak > 0)
    HYB_INVARIANT(large_peak < 4096.0,
                  "sparse exploration exceeded the ball-bounded memory budget");

  // Small-instance differential: dense and sparse agree bit-for-bit, on
  // triples and on charged metrics.
  const u32 n_small = 2048;
  const graph small = gen::erdos_renyi_connected(n_small, 4.0, 6, 7);
  const explo_run dense = run(small, 6, 1, dense_local_exploration);
  const explo_run sparse = run(small, 6, 1, sparse_local_exploration);
  HYB_INVARIANT(dense.res == sparse.res,
                "sparse exploration diverged from the dense reference");
  HYB_INVARIANT(dense.m.rounds == sparse.m.rounds &&
                    dense.m.local_items == sparse.m.local_items,
                "sparse path charged different rounds/traffic than dense");
  row("differential_dense", 1, dense);
  row("differential_sparse", 1, sparse);
  t.print();

  std::cout << "\nΣ|ball_h(v)| = " << ball_total << " entries ("
            << ball_total * sizeof(exploration_entry) / 1000000
            << " MB flattened) vs dense " << dense_equiv_mb << " MB\n";

  if (!rec.write()) {
    std::cerr << "failed to write --json output\n";
    return 1;
  }
  return 0;
}
