// Parallel round executor for the synchronous simulators.
//
// The HYBRID model (paper Section 1) is a synchronous round model: within a
// round, nodes act on the state of the *previous* round only, so the
// per-node protocol steps of one round are independent and can run
// concurrently. `round_executor` exploits exactly that structure — and
// nothing more:
//
//   * node IDs [0, n) are partitioned into contiguous shards, one per
//     worker thread (static sharding, no work stealing);
//   * each shard runs its nodes' step callbacks in ID order;
//   * the executor joins all shards before returning — the round barrier —
//     after which the caller may mutate shared state (advance_round()).
//
// Determinism contract (docs/CONCURRENCY.md): a step callback for node v
// may read any round-frozen shared state but write only v-private state
// (including v's outbox/budget inside hybrid_net). Under that discipline
// every quantity the simulation produces is bit-identical for any thread
// count, because each node's write sequence is a pure function of the
// frozen round state. Reductions (`sum_nodes`) accumulate per shard and
// combine over u64 addition, which is order-insensitive.
//
// Steps are taken by reference as any callable: the per-node loop is
// instantiated inside the shard body, so one dispatch costs one indirect
// call per shard and no heap allocation.
//
// Thread count resolution: sim_options{threads} wins when nonzero; else the
// HYBRID_THREADS environment variable; else std::thread::hardware_concurrency.
// One thread means strictly inline execution — no pool is ever spawned, so
// single-threaded runs behave exactly like the pre-executor simulator.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/fault.hpp"
#include "util/bits.hpp"

namespace hybrid {

/// A one-value stub: the cores' only result is their distance labels
/// (core/dist_oracle.hpp), and nothing reads `sim_options::storage`. It
/// exists only so the frozen benchmark driver `perfbench/hybench.cpp`, which
/// sets `storage = result_storage::kLabels`, still compiles; the next change
/// to the benchmark removes both.
enum class result_storage : u8 { kLabels };

/// Oracle hierarchy for the label-producing APSP core (core/apsp.hpp).
/// `kSingleLevel` is the Theorem 1.1 one-sided scheme: token-routed
/// n_s × n skeleton rows, exact everywhere a gateway exists but Õ(n^1.5)
/// label words for full coverage. `kTwoLevel` samples a super-skeleton over
/// the skeleton and stores the recursive two-sided composition
/// (label_scheme::kTwoLevel) instead of the rows — each level's table is
/// Õ(√ of the level below), which is what keeps full coverage at n = 10⁵
/// inside the 2 GB budget (ROADMAP; the `label_large` bench gates it).
enum class oracle_hierarchy : u8 { kSingleLevel = 0, kTwoLevel };

struct sim_options {
  /// Worker threads for node-parallel round steps. 0 = auto: the
  /// HYBRID_THREADS environment variable when set to a positive integer,
  /// else std::thread::hardware_concurrency().
  u32 threads = 0;
  /// Unread; see result_storage.
  result_storage storage = result_storage::kLabels;
  /// Skeleton hierarchy depth for hybrid_apsp_exact (single-level rows vs
  /// the two-level recursive labels). The other cores ignore it.
  oracle_hierarchy hierarchy = oracle_hierarchy::kSingleLevel;
  /// Fault injection: seeded message loss and node crash/recovery
  /// (sim/fault.hpp, docs/FAULTS.md). Default-constructed = disabled, and
  /// the simulators' fault-free paths are untouched.
  fault_options faults = {};
};

/// Largest n for which h-hop exploration runs on n-wide dense rows rather
/// than sparse ones (run_local_exploration, proto/sparse_exploration.hpp).
/// Calibrated from measured dense/sparse crossover sweeps
/// (docs/ARCHITECTURE.md §6.2): the true discriminator is ball density,
/// which is unknown before the exploration runs, so this n bounds the
/// regret instead — dense through
/// 4096 costs at most ~155 ms / ~183 MB against the sparsest measured
/// workload while keeping a 2.3–2.7× time-and-RSS win when balls saturate;
/// 8192 would quadruple the worst-case footprint, 2048 forfeits the
/// saturated win.
inline constexpr u32 kDenseExplorationMaxNodes = 4096;

/// The thread count `sim_options` resolves to (see above). Never 0.
u32 resolve_threads(const sim_options& opts);

class round_executor {
 public:
  explicit round_executor(sim_options opts = {});
  ~round_executor();

  round_executor(const round_executor&) = delete;
  round_executor& operator=(const round_executor&) = delete;

  u32 threads() const { return threads_; }

  /// The static shard partition for n nodes: min(threads, n) shards of
  /// ⌈n/shards⌉ contiguous IDs; shard s covers [shard_begin(n, s),
  /// shard_begin(n, s+1)) (tail shards may be empty). Exposed so
  /// barrier-phase code (flat_mailbox delivery) can mirror the exact
  /// partition for_shards uses.
  u32 shard_count(u32 n) const { return n == 0 ? 0 : std::min(threads_, n); }
  u32 shard_begin(u32 n, u32 shard) const {
    if (n == 0) return 0;
    const u32 chunk = static_cast<u32>(ceil_div(n, shard_count(n)));
    return std::min(n, shard * chunk);
  }

  /// Run `step(v)` for every v in [0, n); returns after ALL nodes finished
  /// (the round barrier). Steps must follow the determinism contract above.
  /// Exceptions thrown by steps are rethrown here (first one wins).
  /// Dispatching is not reentrant: a step must never call back into the
  /// executor (enforced at every thread count — nested dispatch throws).
  template <class Step>
  void for_nodes(u32 n, const Step& step) {
    for_shards(n, [&step](u32, u32 begin, u32 end) {
      for (u32 v = begin; v < end; ++v) step(v);
    });
  }

  /// Shard-granular variant: `body(shard, begin, end)` runs once per
  /// contiguous shard (`shard` ascending with `begin`). Use when the step
  /// needs shard-local scratch; ranges are a static partition of [0, n)
  /// and do not depend on scheduling.
  template <class Body>
  void for_shards(u32 n, const Body& body) {
    dispatch(n, &call_shard<Body>, &body);
  }

  /// Deterministic reduction: sum of `term(v)` over v in [0, n).
  /// Accumulated per shard into executor-owned slots, combined in shard
  /// order; u64 addition is order-insensitive, so the result is
  /// thread-count-invariant.
  template <class Term>
  u64 sum_nodes(u32 n, const Term& term) {
    for_shards(n, [&](u32 shard, u32 begin, u32 end) {
      u64 acc = 0;
      for (u32 v = begin; v < end; ++v) acc += term(v);
      partial_[shard] = acc;
    });
    // Empty shards sit at the tail and never ran; their slots are stale.
    u64 total = 0;
    for (u32 s = 0; s < shard_count(n) && shard_begin(n, s) < n; ++s)
      total += partial_[s];
    return total;
  }

  /// True when `pred(v)` holds for at least one node (barrier included).
  template <class Pred>
  bool any_node(u32 n, const Pred& pred) {
    const auto hit = [&pred](u32 v) -> u64 { return pred(v) ? 1 : 0; };
    return sum_nodes(n, hit) != 0;
  }

 private:
  // The one type-erased call: a shard body behind a context pointer.
  using shard_fn = void (*)(const void* body, u32 shard, u32 begin, u32 end);
  template <class Body>
  static void call_shard(const void* body, u32 shard, u32 begin, u32 end) {
    (*static_cast<const Body*>(body))(shard, begin, end);
  }

  void dispatch(u32 n, shard_fn fn, const void* body);
  void spawn_workers();
  void worker_loop();
  void run_job(u64 my_generation);

  u32 threads_;
  // True while a job runs, at every thread count; a dispatch that finds it
  // set comes from inside a step and is rejected.
  bool busy_ = false;
  // sum_nodes' per-shard slots; grown to the largest shard count used.
  std::vector<u64> partial_;

  // Pool state (untouched when threads_ == 1).
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  u64 generation_ = 0;
  bool stop_ = false;
  // Current job, valid while pending_shards_ > 0.
  shard_fn job_fn_ = nullptr;
  const void* job_body_ = nullptr;
  u32 job_n_ = 0;
  u32 job_shards_ = 0;
  u32 next_shard_ = 0;
  u32 pending_shards_ = 0;
  std::exception_ptr first_error_;
};

}  // namespace hybrid
