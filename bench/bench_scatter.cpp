// Delivery-scatter microbench: isolates the flat_mailbox counting-sort
// kernel (sim/mailbox.hpp) — the count → prefix → scatter passes that
// dominate a message-bound round — with the push loops and verification
// scans kept OUTSIDE the timed region, so the reported wall-clock is the
// deliver() call alone. bench_mailbox measures the whole round loop end to
// end; this bench is the profiler's view of the kernel itself.
//
// Three workload shapes, each swept over threads {1, 2, 8}, and one fixed
// row:
//   * uniform  — every node sends `fan` messages to hash-random dsts (the
//     γ-saturated delivery shape of bench_executor_scaling);
//   * hotspot  — 50 % of traffic converges on 1 % of the nodes (stresses
//     the histogram's hot columns and the slice imbalance in the scatter);
//   * filtered — uniform plus a pure hash drop predicate at p = 0.1, in
//     the per-sender drawer form deliver() asks for (the fault-injection
//     path: key-stream extraction, sentinel column, trash region —
//     docs/FAULTS.md);
//   * oracle_2level — uniform at the γ-saturated gossip rounds of
//     perfbench's oracle_2level workload (n = 30,000, fan 60 = γ, 2
//     threads as there), whatever the command-line sizes.
//
// Deterministic gated fields (bench/baseline/BENCH_scatter.json):
//   * inbox_digest32 — 32 low bits of an order-insensitive fold over every
//     delivered inbox, asserted identical across thread counts inline;
//   * zero_alloc_rounds — timed rounds that performed zero heap
//     allocations; the steady-state-allocation-free contract says ALL of
//     them, and a regression here is an algorithm change, not noise.
// Perf fields (deliver_wall_ms, mmsgs_per_sec, allocs_per_round) report
// deltas only. Usage:
//
//   bench_scatter [n] [fan] [rounds] [--json <path>]
#include "alloc_counter.hpp"

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "sim/hybrid_net.hpp"
#include "sim/mailbox.hpp"
#include "util/assert.hpp"
#include "util/bench_io.hpp"
#include "util/table.hpp"

namespace {

using namespace hybrid;

constexpr u32 kThreadCounts[] = {1, 2, 8};
constexpr u32 kWarmupRounds = 4;

/// Deterministic workload: node v's i-th send in round r. `hot` routes
/// half the traffic to the first max(1, n/100) nodes.
u32 send_dst(u32 n, u32 v, u32 i, u32 r, bool hot) {
  const u64 x = derive_seed(derive_seed(v, i), r);
  if (hot && (x & 1) == 0) return static_cast<u32>((x >> 1) % std::max(1u, n / 100));
  return static_cast<u32>(x % n);
}

/// Pure drop predicate (the fault path's shape): ~10 % of messages, one
/// sender's drawer at a time.
struct hash_drops {
  u32 src;
  bool drop(u32 idx, const global_msg& m) const {
    return derive_seed(derive_seed(src, idx), m.w[0]) % 10 == 0;
  }
};

struct run_result {
  double deliver_ms = 0;  ///< wall time inside deliver() only
  u64 messages = 0;       ///< pushes over the timed rounds
  u64 delivered = 0;
  u64 timed_allocs = 0;   ///< heap allocations during the timed rounds
  u64 zero_alloc_rounds = 0;
  u64 digest = 0;
};

run_result run_kernel(u32 n, u32 fan, u32 rounds, u32 threads, bool hot,
                      bool filtered) {
  run_result res;
  round_executor exec(sim_options{threads});
  // Small initial stride so the warm-up exercises the re-stride path the
  // simulators rely on; steady state must then be allocation-free.
  flat_mailbox<global_msg> mail(n, fan, /*initial_stride=*/8);
  const auto deliver = [&] {
    if (filtered)
      mail.deliver(exec, [](u32 src, u32) { return hash_drops{src}; });
    else
      mail.deliver(exec);
  };
  const auto push_round = [&](u32 r) {
    exec.for_nodes(n, [&](u32 v) {
      for (u32 i = 0; i < fan; ++i)
        mail.push(global_msg::make(v, send_dst(n, v, i, r, hot), i,
                                   {(u64{v} << 32) | i}));
    });
  };
  for (u32 r = 0; r < kWarmupRounds; ++r) {
    push_round(r);
    deliver();
  }
  for (u32 r = kWarmupRounds; r < kWarmupRounds + rounds; ++r) {
    push_round(r);
    res.messages += u64{n} * fan;
    // Timed without timed_ms: its std::function parameter would charge a
    // heap allocation to the kernel and break the zero-alloc invariant.
    const u64 alloc0 = benchalloc::allocations();
    const auto t0 = std::chrono::steady_clock::now();
    deliver();
    res.deliver_ms += std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    const u64 allocs = benchalloc::allocations() - alloc0;
    res.timed_allocs += allocs;
    res.zero_alloc_rounds += allocs == 0;
    res.delivered += mail.delivered_last_round();
    // Order-insensitive per-inbox fold (outside the timed region).
    res.digest += exec.sum_nodes(n, [&](u32 v) {
      u64 h = v + 1;
      for (const global_msg& m : mail.inbox(v))
        h = derive_seed(h, (u64{m.src} << 32) ^ m.w[0]);
      return h;
    });
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  bench_recorder rec(argc, argv, "bench_scatter");
  std::vector<u32> sizes;
  for (int i = 1; i < argc && argv[i][0] != '-'; ++i)
    sizes.push_back(static_cast<u32>(std::atoi(argv[i])));
  const u32 n = sizes.size() > 0 ? sizes[0] : 4096;
  const u32 fan = sizes.size() > 1 ? sizes[1] : 32;
  const u32 rounds = sizes.size() > 2 ? sizes[2] : 40;

  print_section("Delivery scatter kernel — deliver() wall-clock only");
  std::cout << "n = " << n << ", fan = " << fan << ", timed rounds = "
            << rounds << " (+" << kWarmupRounds << " warm-up)\n\n";

  table t({"workload", "threads", "deliver ms", "Mmsg/s", "allocs/round",
           "zero-alloc rounds", "digest32"});
  const auto record = [&](const char* name, u32 rn, u32 rfan, u32 rrounds,
                          u32 threads, const run_result& r) {
    const double mmsgs = static_cast<double>(r.delivered) / 1e3 /
                         std::max(r.deliver_ms, 1e-6);
    const double apr = static_cast<double>(r.timed_allocs) / rrounds;
    const u64 digest32 = r.digest & 0xFFFFFFFFu;
    t.add_row({name, table::integer(threads), table::num(r.deliver_ms, 2),
               table::num(mmsgs, 2), table::num(apr, 2),
               table::integer(static_cast<long long>(r.zero_alloc_rounds)),
               table::integer(static_cast<long long>(digest32))});
    rec.add(name, {{"n", rn},
                   {"fan", rfan},
                   {"threads", threads},
                   {"rounds", rrounds},
                   {"messages", r.messages},
                   {"delivered", r.delivered},
                   {"deliver_wall_ms", r.deliver_ms},
                   {"mmsgs_per_sec", mmsgs},
                   {"allocs_per_round", apr},
                   {"zero_alloc_rounds", r.zero_alloc_rounds},
                   {"inbox_digest32", digest32}});
  };
  for (const auto& [name, hot, filtered] :
       {std::tuple{"uniform", false, false}, {"hotspot", true, false},
        {"filtered", false, true}}) {
    u64 base_digest = 0, base_delivered = 0;
    for (u32 threads : kThreadCounts) {
      const run_result r = run_kernel(n, fan, rounds, threads, hot, filtered);
      if (threads == kThreadCounts[0]) {
        base_digest = r.digest;
        base_delivered = r.delivered;
      }
      HYB_INVARIANT(r.digest == base_digest && r.delivered == base_delivered,
                    "thread count changed delivered inboxes");
      record(name, n, fan, rounds, threads, r);
    }
  }
  {
    constexpr u32 kN = 30000, kFan = 60, kRounds = 10, kThreads = 2;
    record("oracle_2level", kN, kFan, kRounds, kThreads,
           run_kernel(kN, kFan, kRounds, kThreads, false, false));
  }
  t.print();

  if (!rec.write()) {
    std::cerr << "failed to write --json output\n";
    return 1;
  }
  return 0;
}
