// Query service over the persistent oracle store (core/oracle_store.hpp):
// the "build once in the simulator, serve forever at memory-bus speed"
// regime. The n = 2048 oracle is built, saved, and mmap-loaded; a seeded
// mix of query / next_hop / route requests is then replayed against the
// mapped view from 1, 2, and 8 reader threads, with throughput and
// p50/p99 latency columns. A second, two-level (kTwoLevel) oracle with
// bench_apsp's label_large configuration at n = 5000 is served the same
// way for single-thread query() throughput.
//
// Deterministic fields (gated by compare_bench_json.py --gate):
//   request_digest — FNV over the generated request stream;
//   result_digest  — order-insensitive sum of per-request result hashes,
//                    identical at every thread count by construction (and
//                    identical to an in-memory replay, asserted inline);
//   file_bytes / label_entries / rounds — the stored oracle's shape;
//   zero_alloc_queries — two-level queries that made no heap allocation,
//                    counted in an untimed pass; must equal `queries`.
// Perf-only fields: *_per_sec, p50/p99_latency_ns, wall_ms.
//
// Usage: bench_query_service [requests] [--json <path>]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <thread>
#include <vector>

#include "alloc_counter.hpp"
#include "core/apsp.hpp"
#include "core/oracle_store.hpp"
#include "graph/generators.hpp"
#include "util/assert.hpp"
#include "util/bench_io.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace hybrid;

constexpr u64 kFnvOffset = 0xcbf29ce484222325ull;
constexpr u64 kFnvPrime = 0x100000001b3ull;

u64 fold(u64 state, u64 word) { return (state ^ word) * kFnvPrime; }

/// Fit a u64 digest into the exactly-representable double range the bench
/// JSON uses (xor-folded to 32 bits).
u32 digest32(u64 d) { return static_cast<u32>(d ^ (d >> 32)); }

enum class req_op : u8 { query, next_hop, route };

struct request {
  req_op op;
  u32 u;
  u32 v;
};

/// Seeded request mix: 60% query, 30% next_hop, 10% route.
std::vector<request> make_requests(u32 n, u64 count, u64 seed) {
  std::vector<request> reqs(count);
  rng r(seed);
  for (request& q : reqs) {
    const u64 op = r.next_below(10);
    q.op = op < 6 ? req_op::query : op < 9 ? req_op::next_hop : req_op::route;
    q.u = static_cast<u32>(r.next_below(n));
    q.v = static_cast<u32>(r.next_below(n));
  }
  return reqs;
}

u64 request_digest(const std::vector<request>& reqs) {
  u64 d = kFnvOffset;
  for (const request& q : reqs)
    d = fold(fold(fold(d, static_cast<u64>(q.op)), q.u), q.v);
  return d;
}

/// Serve one request; returns its result hash. Route = greedy forwarding
/// along next hops (with exact labels the remaining distance strictly
/// decreases, so ≤ n hops; unreachable pairs stop at the ~0 hop).
u64 serve(const label_view& v, const request& q) {
  switch (q.op) {
    case req_op::query:
      return fold(kFnvOffset, v.query(q.u, q.v));
    case req_op::next_hop:
      return fold(kFnvOffset, v.next_hop(q.u, q.v));
    case req_op::route: {
      u32 at = q.u;
      u64 hops = 0;
      while (at != q.v && hops <= v.n) {
        const u32 nh = v.next_hop(at, q.v);
        if (nh == ~u32{0}) break;
        at = nh;
        ++hops;
      }
      return fold(fold(kFnvOffset, hops), at);
    }
  }
  return 0;
}

struct leg_result {
  u64 result_digest = 0;  ///< sum of per-request hashes: order-insensitive
  double wall_ms = 0;
  double per_sec = 0;
  double p50_ns = 0;
  double p99_ns = 0;
};

/// Replay the full stream across `threads` contiguous chunks (bulk pass,
/// for throughput and the digest), then time a strided sample of requests
/// individually on one thread for the latency percentiles.
leg_result replay(const label_view& view, const std::vector<request>& reqs,
                  u32 threads) {
  leg_result out;
  std::vector<u64> partial(threads, 0);
  out.wall_ms = timed_ms([&] {
    std::vector<std::thread> pool;
    const u64 chunk = ceil_div(reqs.size(), threads);
    for (u32 t = 0; t < threads; ++t) {
      const u64 lo = std::min<u64>(reqs.size(), t * chunk);
      const u64 hi = std::min<u64>(reqs.size(), lo + chunk);
      pool.emplace_back([&view, &reqs, &partial, t, lo, hi] {
        u64 sum = 0;
        for (u64 i = lo; i < hi; ++i) sum += serve(view, reqs[i]);
        partial[t] = sum;
      });
    }
    for (auto& th : pool) th.join();
  });
  for (const u64 p : partial) out.result_digest += p;
  out.per_sec = static_cast<double>(reqs.size()) / (out.wall_ms / 1000.0);

  // Latency sample: every k-th request, timed individually.
  const u64 stride = std::max<u64>(1, reqs.size() / 50000);
  std::vector<double> lat;
  lat.reserve(reqs.size() / stride + 1);
  volatile u64 sink = 0;
  for (u64 i = 0; i < reqs.size(); i += stride) {
    const auto t0 = std::chrono::steady_clock::now();
    sink = sink + serve(view, reqs[i]);
    const auto t1 = std::chrono::steady_clock::now();
    lat.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  const auto pct = [&lat](double p) {
    const size_t k = static_cast<size_t>(p * static_cast<double>(lat.size() - 1));
    std::nth_element(lat.begin(), lat.begin() + static_cast<std::ptrdiff_t>(k),
                     lat.end());
    return lat[k];
  };
  out.p99_ns = pct(0.99);
  out.p50_ns = pct(0.50);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench_recorder rec(argc, argv, "bench_query_service");
  u64 total_requests = 2000000;
  for (int i = 1; i < argc && argv[i][0] != '-'; ++i)
    total_requests = static_cast<u64>(std::atoll(argv[i]));

  print_section(
      "query service — persistent mmap-ed oracle, concurrent readers "
      "(core/oracle_store.hpp)");

  // ---- build once ----------------------------------------------------------
  const u32 n = 2048;
  const graph g = gen::erdos_renyi_connected(n, 6.0, 16, 1000 + n);
  apsp_result built;
  const double build_ms = timed_ms(
      [&] { built = hybrid_apsp_exact(g, model_config{}, 7 + n, true); });

  // ---- save + zero-copy load ----------------------------------------------
  const std::string path = "/tmp/bench_query_service_oracle.bin";
  const double save_ms = timed_ms([&] { save_oracle(built.labels, path); });
  mapped_oracle oracle;
  const double load_ms = timed_ms([&] {
    oracle = mapped_oracle::load(path);
    oracle.attach_topology(g);
  });
  const u64 file_bytes = oracle.header().file_bytes;
  std::cout << "built n=" << n << " oracle in " << table::num(build_ms, 0)
            << " ms; saved " << file_bytes / 1000000 << " MB in "
            << table::num(save_ms, 0) << " ms; mmap-load+validate in "
            << table::num(load_ms, 1) << " ms\n\n";

  // Round-trip identity: the mapped view must answer every sampled request
  // exactly like the in-memory oracle (the store suite proves all pairs;
  // this inline guard keeps the bench honest about what it serves).
  {
    const std::vector<request> sample = make_requests(n, 20000, 99);
    u64 mem = 0;
    u64 mapped = 0;
    const label_view mem_view = built.labels.view();
    for (const request& q : sample) {
      mem += serve(mem_view, q);
      mapped += serve(oracle.view(), q);
    }
    HYB_INVARIANT(mem == mapped,
                  "mapped oracle diverged from the in-memory labels");
  }
  rec.add("round_trip", {{"n", n},
                         {"h", built.labels.h},
                         {"rounds", built.metrics.rounds},
                         {"label_entries", built.labels.label_entries()},
                         {"file_bytes", file_bytes},
                         {"build_wall_ms", build_ms},
                         {"save_wall_ms", save_ms},
                         {"load_wall_ms", load_ms}});

  // ---- pure single-thread query throughput ---------------------------------
  // The acceptance floor: ≥ 1 M query()/sec from one thread on the mapped
  // n = 2048 oracle.
  {
    rng r(31);
    const u64 queries = std::max<u64>(total_requests, 1000000);
    std::vector<std::pair<u32, u32>> pairs(queries);
    for (auto& [u, v] : pairs) {
      u = static_cast<u32>(r.next_below(n));
      v = static_cast<u32>(r.next_below(n));
    }
    u64 digest = 0;
    const label_view& view = oracle.view();
    const double ms = timed_ms([&] {
      for (const auto& [u, v] : pairs)
        digest += fold(kFnvOffset, view.query(u, v));
    });
    const double qps = static_cast<double>(queries) / (ms / 1000.0);
    std::cout << "pure query()  : " << table::num(qps / 1e6, 2)
              << " M queries/sec single-thread (" << table::num(ms * 1e6 / static_cast<double>(queries), 0)
              << " ns/query)\n";
    HYB_INVARIANT(qps >= 1e6,
                  "mapped oracle below the 1 M queries/sec acceptance floor");
    rec.add("pure_query", {{"n", n},
                           {"queries", queries},
                           {"result_digest", digest32(digest)},
                           {"queries_per_sec", qps}});
  }

  // ---- pure single-thread query throughput, two-level labels ---------------
  // bench_apsp's label_large configuration (p1 = 0.08 with h back-solved to
  // 5, p2 = 0.05, h1 = 3, charged token routing) on a bounded-degree graph:
  // every query composes through the ball1 cross term and the super-pair
  // table. After the timed pass, an untimed pass over the same pairs counts
  // the queries that touched the heap — the steady-state query path must
  // touch it on none.
  {
    const u32 n2 = 5000;
    const graph g2 = gen::bounded_degree(n2, 3, 1, 42);
    model_config c;
    const double p = 0.08;
    c.skeleton_xi = (5.0 - 0.25) * p / std::log(static_cast<double>(n2));
    c.skeleton_p_override = p;
    c.super_p_override = 0.05;
    c.super_h_override = 3;
    c.charged_token_routing = true;
    sim_options o;
    o.hierarchy = oracle_hierarchy::kTwoLevel;
    const apsp_result two = hybrid_apsp_exact(g2, c, 13, false, o);
    const std::string path2 = "/tmp/bench_query_service_two_level.bin";
    save_oracle(two.labels, path2);
    const mapped_oracle mapped = mapped_oracle::load(path2);
    const label_view& view = mapped.view();

    rng r(37);
    const u64 queries = 200000;
    std::vector<std::pair<u32, u32>> pairs(queries);
    for (auto& [u, v] : pairs) {
      u = static_cast<u32>(r.next_below(n2));
      v = static_cast<u32>(r.next_below(n2));
    }
    u64 digest = 0;
    const double ms = timed_ms([&] {
      for (const auto& [u, v] : pairs)
        digest += fold(kFnvOffset, view.query(u, v));
    });
    const double qps = static_cast<double>(queries) / (ms / 1000.0);

    u64 zero_alloc = 0;
    u64 recount = 0;
    for (const auto& [u, v] : pairs) {
      const u64 allocs0 = benchalloc::allocations();
      recount += fold(kFnvOffset, view.query(u, v));
      zero_alloc += benchalloc::allocations() == allocs0;
    }
    HYB_INVARIANT(recount == digest, "two-level query() is not repeatable");
    HYB_INVARIANT(zero_alloc == queries,
                  "two-level query() allocated on the steady-state path");
    const label_view mem_view = two.labels.view();
    for (u64 i = 0; i < queries; i += 10) {
      const auto [u, v] = pairs[i];
      HYB_INVARIANT(mem_view.query(u, v) == view.query(u, v),
                    "mapped two-level oracle diverged from in-memory labels");
    }
    std::cout << "two-level query(): " << table::num(qps / 1e3, 0)
              << " k queries/sec single-thread ("
              << table::num(ms * 1e6 / static_cast<double>(queries), 0)
              << " ns/query; n_s=" << two.labels.n_s
              << " n_s2=" << two.labels.n_s2 << "); " << zero_alloc << "/"
              << queries << " queries allocation-free\n";
    rec.add("pure_query_two_level",
            {{"n", n2},
             {"n_s", two.labels.n_s},
             {"n_s2", two.labels.n_s2},
             {"label_entries", two.labels.label_entries()},
             {"queries", queries},
             {"result_digest", digest32(digest)},
             {"zero_alloc_queries", zero_alloc},
             {"queries_per_sec", qps}});
    std::remove(path2.c_str());
  }

  // ---- mixed request service, 1/2/8 reader threads -------------------------
  const std::vector<request> reqs = make_requests(n, total_requests, 4242);
  const u64 req_digest = request_digest(reqs);
  table t({"threads", "requests", "req/sec", "p50 ns", "p99 ns", "digest"});
  u64 reference_digest = 0;
  for (u32 threads : {1u, 2u, 8u}) {
    const leg_result leg = replay(oracle.view(), reqs, threads);
    if (threads == 1) reference_digest = leg.result_digest;
    HYB_INVARIANT(leg.result_digest == reference_digest,
                  "result digest changed with the reader thread count");
    t.add_row({table::integer(threads),
               table::integer(static_cast<long long>(reqs.size())),
               table::num(leg.per_sec, 0), table::num(leg.p50_ns, 0),
               table::num(leg.p99_ns, 0),
               table::integer(digest32(leg.result_digest))});
    rec.add("query_service", {{"threads", threads},
                              {"n", n},
                              {"h", built.labels.h},
                              {"requests", reqs.size()},
                              {"request_digest", digest32(req_digest)},
                              {"result_digest", digest32(leg.result_digest)},
                              {"requests_per_sec", leg.per_sec},
                              {"p50_latency_ns", leg.p50_ns},
                              {"p99_latency_ns", leg.p99_ns},
                              {"wall_ms", leg.wall_ms}});
  }
  t.print();
  std::cout << "\nmix: 60% query, 30% next_hop, 10% route (greedy "
               "forwarding to the target); digests are thread-count "
               "invariant and gated vs bench/baseline.\n";

  std::remove(path.c_str());
  return rec.write() ? 0 : 1;
}
