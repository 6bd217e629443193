// Repo benchmark driver: one workload per process.
//
// Generates the workload's inputs from its seed, builds the distance oracle,
// saves it, mmap-loads it back, serves a closed-loop request mix from the
// mapped store, checks every answer class against an independent reference,
// and prints one JSON object as the last line of stdout. perfbench/run.py
// builds this program and shapes its output into the benchmark result.
//
//   hybench --workload <name> --seed <n> --seconds <s> --store <path>
//           [--doctor] [--n <nodes>]
//
// Two binaries are built from this file:
//   hybench         runs each pipeline through its public entry point
//                   (hybrid_apsp_exact, save_oracle, mapped_oracle::load)
//                   with no instrumentation — the end-to-end numbers;
//   hybench_traced  (HYBENCH_TRACED) replays each pipeline stage by stage
//                   through the same public proto/ calls in the same order,
//                   wraps every call in a span, counts heap allocations with
//                   bench/alloc_counter.hpp, and times query / next_hop /
//                   route one by one — the per-layer numbers. run.py rejects
//                   the trace unless the replay reproduces the untraced
//                   run's rounds, messages, per-phase rounds and label
//                   digest exactly.
//
// --doctor corrupts one served answer before it is checked; the run must
// then report a failed check (run.py --self-test relies on it).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/apsp.hpp"
#include "core/oracle_store.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "peak_rss.hpp"
#include "proto/clustering.hpp"
#include "proto/dissemination.hpp"
#include "proto/flood.hpp"
#include "proto/helper_sets.hpp"
#include "proto/ruling_set.hpp"
#include "proto/skeleton.hpp"
#include "proto/sparse_exploration.hpp"
#include "proto/token_routing.hpp"
#include "sim/fault.hpp"
#include "util/rng.hpp"

#ifdef HYBENCH_TRACED
#include "alloc_counter.hpp"
#endif

namespace {

using namespace hybrid;
using clk = std::chrono::steady_clock;

double seconds_since(clk::time_point t0) {
  return std::chrono::duration<double>(clk::now() - t0).count();
}

u64 heap_allocations() {
#ifdef HYBENCH_TRACED
  return benchalloc::allocations();
#else
  return 0;
#endif
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile of `v` (reorders it).
template <class T>
double percentile(std::vector<T>& v, double p) {
  if (v.empty()) return 0.0;
  const size_t k = std::min(
      v.size() - 1, static_cast<size_t>(std::ceil(p * static_cast<double>(
                                                          v.size())) -
                                        1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

// ---- workloads -------------------------------------------------------------

/// One benchmark workload. The request stream and the checked rows come
/// from the --seed argument, and so does the graph unless `graph_seed` pins
/// it; the simulator seed and the fault seed are fixed per workload so the
/// paper's deterministic counts (rounds, messages, skeleton size) do not
/// swing with the skeleton sample between seeds.
struct workload {
  std::string name;
  u32 n = 0;
  bool two_level = false;
  bool routes = false;
  double drop = 0.0;  ///< per-message drop probability on both planes
  u64 sim_seed = 0;
  u64 fault_seed = 0;
  u64 graph_seed = 0;  ///< 0 = derived from --seed
  u32 builds = 1;        ///< timed builds per run (build_s = median)
  u32 check_rows = 16;   ///< Dijkstra-checked rows
  double serve_share = 0.5;  ///< share of --seconds spent serving
  u32 mix_query = 6, mix_next_hop = 3;  ///< of 10; the rest are routes

  model_config config() const {
    model_config cfg;
    if (two_level) {
      // bench_apsp's label_large: p1 = 0.08 with h back-solved to 5,
      // p2 = 0.05, h1 = 3, charged token routing.
      const double p = 0.08;
      cfg.skeleton_xi = (5.0 - 0.25) * p / std::log(static_cast<double>(n));
      cfg.skeleton_p_override = p;
      cfg.super_p_override = 0.05;
      cfg.super_h_override = 3;
      cfg.charged_token_routing = true;
    }
    return cfg;
  }

  sim_options options(bool with_faults = true) const {
    sim_options o;
    o.threads = 2;
    o.storage = result_storage::kLabels;
    o.hierarchy = two_level ? oracle_hierarchy::kTwoLevel
                            : oracle_hierarchy::kSingleLevel;
    if (with_faults && drop > 0.0) {
      o.faults.drop_global = drop;
      o.faults.drop_local = drop;
      o.faults.fault_seed = fault_seed;
    }
    return o;
  }
};

std::optional<workload> find_workload(const std::string& name) {
  workload w;
  w.name = name;
  if (name == "apsp_er") {
    w.n = 1024;
    w.routes = true;
    w.sim_seed = 1031;
    w.builds = 3;
    w.serve_share = 0.8;
  } else if (name == "oracle_2level") {
    // bench_apsp's label_large runs this at n = 1e5 (1.9 GB); there its
    // build time spread 20-34 % between runs on a shared 4-vCPU host, so
    // the benchmark keeps the configuration at n = 3e4 and five builds.
    w.n = 30000;
    w.two_level = true;
    w.sim_seed = 13;
    w.builds = 5;
    w.check_rows = 8;
    w.mix_query = 10;
    w.mix_next_hop = 0;
  } else if (name == "apsp_lossy") {
    w.n = 512;
    w.routes = true;
    w.drop = 0.02;
    w.sim_seed = 519;
    w.fault_seed = 77;
    // One fixed lossy instance: healing cost is chaotic in the instance
    // (dissemination's doubling lands on 129, 165 or more rounds, so global
    // messages swing 1.2-2.1 M between graphs), and a pinned graph keeps
    // the healed stages' work identical from seed to seed.
    w.graph_seed = 512;
    w.builds = 3;
    w.serve_share = 0.4;
  } else {
    return std::nullopt;
  }
  return w;
}

// ---- inputs ----------------------------------------------------------------

enum class req_op : u8 { query, next_hop, route };

struct request {
  req_op op;
  u32 u;
  u32 v;
};

constexpr u64 kRequestPool = u64{1} << 20;

struct inputs {
  graph g;
  std::vector<request> requests;
  double graph_ms = 0.0;  ///< time spent in the graph generator
};

inputs make_inputs(const workload& w, u64 seed) {
  inputs in;
  const u64 gseed = w.graph_seed != 0 ? w.graph_seed : derive_seed(seed, 1);
  const auto t0 = clk::now();
  in.g = w.two_level ? gen::bounded_degree(w.n, 3, 1, gseed)
                     : gen::erdos_renyi_connected(w.n, 6.0, 16, gseed);
  in.graph_ms = seconds_since(t0) * 1e3;
  in.requests.resize(kRequestPool);
  rng r(derive_seed(seed, 2));
  for (request& q : in.requests) {
    const u64 op = r.next_below(10);
    q.op = op < w.mix_query                    ? req_op::query
           : op < w.mix_query + w.mix_next_hop ? req_op::next_hop
                                               : req_op::route;
    q.u = static_cast<u32>(r.next_below(w.n));
    q.v = static_cast<u32>(r.next_below(w.n));
  }
  return in;
}

// ---- serving ---------------------------------------------------------------

constexpr u64 kFnvOffset = 0xcbf29ce484222325ull;
constexpr u64 kFnvPrime = 0x100000001b3ull;
u64 fold(u64 state, u64 word) { return (state ^ word) * kFnvPrime; }

struct route_walk {
  u32 at = 0;
  u64 hops = 0;
  u64 cost = 0;  ///< path weight, when walked with the graph
};

/// Greedy forwarding along next hops (with exact labels the remaining
/// distance strictly decreases, so at most n hops; unreachable pairs stop
/// at the ~0 hop). With `weights`, also sums the walked edge weights; a hop
/// to a non-neighbor makes the cost kInfDist and ends the walk.
route_walk walk_route(const label_view& view, u32 u, u32 v,
                      const graph* weights = nullptr) {
  route_walk r{u, 0, 0};
  while (r.at != v && r.hops <= view.n) {
    const u32 nh = view.next_hop(r.at, v);
    if (nh == ~u32{0}) break;
    if (weights != nullptr) {
      u64 wt = kInfDist;
      for (const edge& e : weights->neighbors(r.at))
        if (e.to == nh) wt = std::min(wt, e.weight);
      r.cost = wt == kInfDist ? kInfDist : r.cost + wt;
      if (r.cost >= kInfDist) break;
    }
    r.at = nh;
    ++r.hops;
  }
  return r;
}

/// Serve one request; returns its result hash.
u64 serve(const label_view& view, const request& q) {
  switch (q.op) {
    case req_op::query:
      return fold(kFnvOffset, view.query(q.u, q.v));
    case req_op::next_hop:
      return fold(kFnvOffset, view.next_hop(q.u, q.v));
    case req_op::route: {
      const route_walk r = walk_route(view, q.u, q.v);
      return fold(fold(kFnvOffset, r.hops), r.at);
    }
  }
  return 0;
}

/// Closed-loop serving figures, each the median over fixed-length windows
/// so a transient stall on a shared machine moves one window, not the run.
struct serve_result {
  u64 requests = 0;
  double wall_s = 0.0;
  u32 windows = 0;
  double rps = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

/// Closed loop: each of `readers` threads sends its next request only when
/// the previous one returned, cycling through its own slice of the pool,
/// for `windows` windows of `window_s` seconds. Every request is timed.
serve_result serve_closed_loop(const label_view& view,
                               const std::vector<request>& pool, u32 readers,
                               u32 windows, double window_s) {
  std::vector<std::vector<u32>> lat(readers);
  // cut[t][k]: reader t's sample count when window k began.
  std::vector<std::vector<u64>> cut(readers);
  std::vector<u64> sinks(readers, 0);
  const auto t0 = clk::now();
  const auto boundary = [&](u32 k) {
    return t0 + std::chrono::duration_cast<clk::duration>(
                    std::chrono::duration<double>(window_s * k));
  };
  {
    std::vector<std::thread> pool_threads;
    for (u32 t = 0; t < readers; ++t)
      pool_threads.emplace_back([&, t] {
        std::vector<u32>& mine = lat[t];
        mine.reserve(1 << 22);
        cut[t].push_back(0);
        u64 i = (pool.size() / readers) * t;
        u64 sink = 0;
        while (cut[t].size() <= windows) {
          for (u32 k = 0; k < 64; ++k, ++i) {
            const request& q = pool[i % pool.size()];
            const auto a = clk::now();
            sink += serve(view, q);
            const auto b = clk::now();
            mine.push_back(static_cast<u32>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                    .count()));
          }
          const auto now = clk::now();
          while (cut[t].size() <= windows &&
                 now >= boundary(static_cast<u32>(cut[t].size())))
            cut[t].push_back(mine.size());
        }
        sinks[t] = sink;
      });
    for (std::thread& th : pool_threads) th.join();
  }
  serve_result out;
  out.wall_s = seconds_since(t0);
  out.windows = windows;
  std::vector<double> rps, p50, p99;
  std::vector<u32> win;
  for (u32 k = 0; k < windows; ++k) {
    win.clear();
    for (u32 t = 0; t < readers; ++t)
      win.insert(win.end(), lat[t].begin() + static_cast<std::ptrdiff_t>(cut[t][k]),
                 lat[t].begin() + static_cast<std::ptrdiff_t>(cut[t][k + 1]));
    out.requests += win.size();
    rps.push_back(static_cast<double>(win.size()) / window_s);
    p50.push_back(percentile(win, 0.50));
    p99.push_back(percentile(win, 0.99));
  }
  out.rps = median(rps);
  out.p50_ns = median(p50);
  out.p99_ns = median(p99);
  volatile u64 keep = 0;
  for (const u64 s : sinks) keep = keep + s;
  return out;
}

/// Read one byte of every page of the mapped store, so serving starts on a
/// resident mapping (a long-running server pays those faults once).
void warm_pages(const label_view& v) {
  u64 acc = 0;
  const auto touch = [&acc](auto span) {
    const auto* p = reinterpret_cast<const unsigned char*>(span.data());
    for (size_t i = 0; i < span.size_bytes(); i += 4096) acc += p[i];
  };
  touch(v.ball_offsets);
  touch(v.ball_entries);
  touch(v.gw_offsets);
  touch(v.gateways);
  touch(v.skeleton_nodes);
  touch(v.skel);
  touch(v.ball1_offsets);
  touch(v.ball1_entries);
  touch(v.gw1_offsets);
  touch(v.gw1);
  touch(v.super_nodes);
  volatile u64 keep = acc;
  (void)keep;
}

// ---- tracing ---------------------------------------------------------------

/// A recorded span: one call into a layer, timed from the benchmark side,
/// with the simulator counters it moved.
struct span_record {
  std::string name;
  int parent = -1;
  double start_s = 0.0;
  double end_s = 0.0;
  u64 allocs = 0;
  u64 rounds = 0;
  u64 global_msgs = 0;
  u64 retransmitted = 0;
  u64 extra_rounds = 0;
};

class tracer {
 public:
  explicit tracer(bool enabled) : enabled_(enabled), t0_(clk::now()) {}

  /// Run `f` inside a span named `name`. With `net`, the span also records
  /// the rounds/messages/healing counters and the mailbox arena size.
  template <class F>
  void span(const char* name, hybrid_net* net, F&& f) {
    if (!enabled_) {
      f();
      return;
    }
    span_record rec;
    rec.name = name;
    rec.parent = open_;
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back(rec);
    const int saved_open = open_;
    open_ = idx;
    run_metrics before;
    if (net != nullptr) before = net->raw_metrics();
    const u64 a0 = heap_allocations();
    const double s0 = now();
    f();
    const double s1 = now();
    const u64 a1 = heap_allocations();
    open_ = saved_open;
    span_record& r = spans_[static_cast<size_t>(idx)];
    r.start_s = s0;
    r.end_s = s1;
    r.allocs = a1 - a0;
    if (net != nullptr) {
      const run_metrics& m = net->raw_metrics();
      r.rounds = m.rounds - before.rounds;
      r.global_msgs = m.global_messages - before.global_messages;
      r.retransmitted = m.retransmitted - before.retransmitted;
      r.extra_rounds = m.extra_rounds - before.extra_rounds;
      const mailbox_stats ms = net->global_mailbox_stats();
      const double mb = static_cast<double>(ms.outbox_slots + ms.inbox_slots) *
                        sizeof(global_msg) / (1024.0 * 1024.0);
      arena_mb_ = std::max(arena_mb_, mb);
    }
  }

  double now() const { return seconds_since(t0_); }
  const std::vector<span_record>& spans() const { return spans_; }
  double arena_mb() const { return arena_mb_; }

  /// Sum of a field over every span named `name`.
  template <class G>
  double sum(const std::string& name, G field) const {
    double s = 0.0;
    for (const span_record& r : spans_)
      if (r.name == name) s += field(r);
    return s;
  }
  double ms(const std::string& name) const {
    return sum(name, [](const span_record& r) {
      return (r.end_s - r.start_s) * 1e3;
    });
  }
  /// A span's duration minus the part its direct children cover.
  double self_s(size_t i) const {
    double s = spans_[i].end_s - spans_[i].start_s;
    for (const span_record& c : spans_)
      if (c.parent == static_cast<int>(i)) s -= c.end_s - c.start_s;
    return s;
  }

 private:
  bool enabled_;
  clk::time_point t0_;
  std::vector<span_record> spans_;
  int open_ = -1;
  double arena_mb_ = 0.0;
};

// ---- building --------------------------------------------------------------

struct built_oracle {
  apsp_result res;
  mapped_oracle store;
  double pipeline_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  double build_s() const { return pipeline_s + save_s + load_s; }
  u64 digest() const { return store.header().payload_checksum; }
};

void save_and_load(const graph& g, const workload& w, const std::string& path,
                   built_oracle& b, tracer& tr) {
  const auto t0 = clk::now();
  tr.span("core.store.save", nullptr,
          [&] { save_oracle(b.res.labels, path); });
  b.save_s = seconds_since(t0);
  const auto t1 = clk::now();
  tr.span("core.store.load", nullptr, [&] {
    b.store = mapped_oracle::load(path);
    if (w.routes) b.store.attach_topology(g);
  });
  b.load_s = seconds_since(t1);
  // The mapping outlives the name. Unlinking now lets the kernel drop the
  // file's dirty pages instead of writing hundreds of MB back to disk in
  // the background of later builds.
  std::remove(path.c_str());
}

/// The untraced build: the pipeline's own entry point.
built_oracle build_plain(const graph& g, const workload& w,
                         const std::string& path, bool with_faults = true) {
  built_oracle b;
  tracer off(false);
  const auto t0 = clk::now();
  b.res = hybrid_apsp_exact(g, w.config(), w.sim_seed, w.routes,
                            w.options(with_faults));
  b.pipeline_s = seconds_since(t0);
  save_and_load(g, w, path, b, off);
  return b;
}

/// hybrid_apsp_exact (core/apsp.cpp) replayed stage by stage through the
/// same public calls in the same order, each call inside a span. The code
/// between stage calls is the pipeline's own glue, timed as core.glue.
built_oracle build_replayed(const graph& g, const workload& w,
                            const std::string& path, tracer& tr) {
  built_oracle b;
  const model_config cfg = w.config();
  const sim_options opts = w.options();
  apsp_result& out = b.res;
  const auto t0 = clk::now();

  std::optional<hybrid_net> net_slot;
  tr.span("sim.net_init", nullptr,
          [&] { net_slot.emplace(g, cfg, w.sim_seed, opts); });
  hybrid_net& net = *net_slot;
  hybrid_net* np = &net;
  const u32 n = net.n();
  const bool two_level = opts.hierarchy == oracle_hierarchy::kTwoLevel;

  net.begin_phase("skeleton");
  const double p = cfg.skeleton_p_override > 0.0
                       ? cfg.skeleton_p_override
                       : 1.0 / std::sqrt(static_cast<double>(n));
  skeleton_result sk;
  tr.span("proto.skeleton", np, [&] { sk = compute_skeleton(net, p); });
  const u32 n_s = static_cast<u32>(sk.nodes.size());
  out.skeleton_size = n_s;
  out.h = sk.h;

  net.begin_phase("skeleton_dissemination");
  std::vector<std::vector<token2>> edge_tokens;
  tr.span("core.glue", np, [&] {
    edge_tokens.resize(n);
    for (u32 i = 0; i < n_s; ++i)
      for (const auto& [j, wt] : sk.edges[i])
        if (i < j) edge_tokens[sk.nodes[i]].push_back({(u64{i} << 32) | j, wt});
  });
  tr.span("proto.dissemination", np, [&] {
    if (two_level && !net.faults_active())
      disseminate_charged(net, std::move(edge_tokens));
    else
      disseminate(net, std::move(edge_tokens));
  });

  super_skeleton_result ss;
  if (!two_level) {
    std::vector<std::vector<u64>> dist_s;
    tr.span("proto.skeleton_apsp", np,
            [&] { dist_s = skeleton_apsp(sk, net.executor()); });
    net.begin_phase("token_routing");
    routing_spec spec;
    std::vector<std::vector<routed_token>> batch(n);
    tr.span("core.glue", np, [&] {
      spec.senders.resize(n);
      for (u32 v = 0; v < n; ++v) spec.senders[v] = v;
      spec.receivers = sk.nodes;
      spec.p_s = 1.0;
      spec.p_r = p;
      spec.k_s = n_s;
      spec.k_r = n;
      net.executor().for_nodes(n, [&](u32 v) {
        batch[v].reserve(n_s);
        for (u32 s = 0; s < n_s; ++s)
          batch[v].push_back({v, sk.nodes[s], 0, kInfDist});
        for (const source_distance& sd : sk.near[v])
          for (u32 s = 0; s < n_s; ++s) {
            const u64 cand = sd.dist + dist_s[sd.source][s];
            batch[v][s].payload = std::min(batch[v][s].payload, cand);
          }
      });
    });
    // run_token_routing is exactly these two calls (proto/token_routing.cpp).
    routing_context ctx;
    tr.span("proto.routing_context", np,
            [&] { ctx = build_routing_context(net, std::move(spec)); });
    std::vector<std::vector<routed_token>> delivered;
    tr.span("proto.route_tokens", np, [&] {
      delivered = route_tokens(net, ctx, std::move(batch));
    });
    tr.span("core.glue", np, [&] {
      out.labels.skel.assign(u64{n_s} * n, kInfDist);
      net.executor().for_nodes(n_s, [&](u32 s) {
        u64* lbl = out.labels.skel.data() + u64{s} * n;
        for (const routed_token& t : delivered[s]) lbl[t.sender] = t.payload;
        std::vector<routed_token>().swap(delivered[s]);
      });
    });
  } else {
    net.begin_phase("super_skeleton");
    const double p2 = cfg.super_p_override > 0.0
                          ? cfg.super_p_override
                          : 1.0 / std::sqrt(static_cast<double>(n_s));
    const u32 h1 =
        cfg.super_h_override > 0
            ? cfg.super_h_override
            : std::max<u32>(
                  1, static_cast<u32>(std::ceil(
                         cfg.skeleton_xi * (1.0 / p2) *
                         std::log(std::max<double>(2.0, n_s)))));
    tr.span("proto.super_skeleton", np,
            [&] { ss = compute_super_skeleton(net, sk, p2, h1); });
    out.labels.n_s2 = static_cast<u32>(ss.members.size());
  }

  net.begin_phase("label_flood");
  std::vector<u64> words;
  tr.span("core.glue", np, [&] {
    if (!two_level) {
      words.assign(n_s, n);
      return;
    }
    words.resize(n_s);
    for (u32 i = 0; i < n_s; ++i) {
      const u64 b1 = ss.ball_offsets[i + 1] - ss.ball_offsets[i];
      const u64 g1 = ss.gw_offsets[i + 1] - ss.gw_offsets[i];
      words[i] = 3 * b1 + 3 * g1 +
                 (ss.index_of[i] != super_skeleton_result::npos
                      ? u64{out.labels.n_s2}
                      : 0);
    }
  });
  tr.span("proto.table_flood", np,
          [&] { table_flood(net, sk.nodes, words, sk.h); });
  tr.span("proto.exploration", np, [&] {
    out.labels.ball = run_local_exploration(
        net, sk.h, /*advance_rounds=*/false, nullptr, /*first_hops=*/false);
  });

  tr.span("core.glue", np, [&] {
    out.labels.n = n;
    out.labels.n_s = n_s;
    out.labels.h = sk.h;
    out.labels.scheme =
        two_level ? label_scheme::kTwoLevel : label_scheme::kSkeletonRows;
    out.labels.topo = &g;
    out.labels.skeleton_nodes = sk.nodes;
    if (two_level) {
      out.labels.ball1_offsets = std::move(ss.ball_offsets);
      out.labels.ball1_entries = std::move(ss.ball_entries);
      out.labels.gw1_offsets = std::move(ss.gw_offsets);
      out.labels.gw1 = std::move(ss.gateways);
      out.labels.super_nodes = std::move(ss.members);
      out.labels.skel = std::move(ss.pairs);
    }
    out.labels.gw_offsets.assign(n + 1, 0);
    for (u32 v = 0; v < n; ++v)
      out.labels.gw_offsets[v + 1] =
          out.labels.gw_offsets[v] + sk.near[v].size();
    out.labels.gateways.resize(out.labels.gw_offsets[n]);
    net.executor().for_nodes(n, [&](u32 v) {
      std::copy(sk.near[v].begin(), sk.near[v].end(),
                out.labels.gateways.begin() +
                    static_cast<std::ptrdiff_t>(out.labels.gw_offsets[v]));
    });
    if (w.routes) {
      net.begin_phase("route_tables");
      net.charge_local(2 * g.num_edges() * n);
      net.note_local_delivered(2 * g.num_edges() * n);
      net.advance_round();
      out.labels.routes = true;
    }
    out.metrics = net.snapshot();
  });
  tr.span("sim.net_teardown", nullptr, [&] { net_slot.reset(); });
  b.pipeline_s = seconds_since(t0);
  save_and_load(g, w, path, b, tr);
  return b;
}

/// Sub-layer probe of build_routing_context: compute_helpers (proto/
/// helper_sets.cpp) re-run on a fresh net through its public parts — ruling
/// set, clusters, the membership flood, the join draws, the announcement
/// flood — for every helper side with µ > 1, each part inside a span. The
/// probe runs after the timed build, outside build_s and trace.coverage;
/// its join draws come from the fresh net's node streams, so helper sets
/// match the build's in distribution, not bit for bit. Returns the items
/// the cluster floods delivered.
u64 probe_routing_context(const graph& g, const workload& w,
                          const built_oracle& b, tracer& tr) {
  if (w.two_level) return 0;  // charged token routing: no helper machinery
  const u32 n = g.num_nodes();
  const double p = 1.0 / std::sqrt(static_cast<double>(n));
  const std::vector<u32>& skel = b.res.labels.skeleton_nodes;
  std::vector<u32> all(n);
  for (u32 v = 0; v < n; ++v) all[v] = v;
  const std::pair<const std::vector<u32>*, u32> sides[] = {
      {&all, helper_mu(skel.size(), 1.0)}, {&skel, helper_mu(n, p)}};
  hybrid_net net(g, w.config(), w.sim_seed, w.options(false));
  u64 items = 0;
  for (const auto& [w_set, mu] : sides) {
    if (mu <= 1) continue;
    ruling_set_result rs;
    tr.span("proto.ruling_set", &net,
            [&] { rs = compute_ruling_set(net, mu); });
    cluster_decomposition cd;
    tr.span("proto.clusters", &net, [&] { cd = compute_clusters(net, rs); });
    std::vector<u32> w_index_of(n, ~u32{0});
    for (u32 i = 0; i < w_set->size(); ++i) w_index_of[(*w_set)[i]] = i;
    std::vector<std::vector<item128>> init(n);
    for (u32 v = 0; v < n; ++v)
      init[v].push_back(
          {(u64{v} << 1) | (w_index_of[v] != ~u32{0} ? 1 : 0), 0});
    std::vector<std::vector<item128>> heard;
    tr.span("proto.cluster_flood", &net, [&] {
      heard = cluster_flood(net, cd, std::move(init), cd.flood_budget());
    });
    std::vector<std::vector<item128>> ann(n);
    tr.span("proto.helper_join", &net, [&] {
      const double q_mult = net.config().helper_q_mult;
      for (u32 v = 0; v < n; ++v) {
        items += heard[v].size();
        const double q = std::min(
            q_mult * mu / static_cast<double>(heard[v].size()), 1.0);
        rng& rv = net.node_rng(v);
        for (const item128& it : heard[v]) {
          if ((it.a & 1) == 0) continue;
          const u32 w_node = static_cast<u32>(it.a >> 1);
          if (w_node == v || rv.next_bool(q))
            ann[v].push_back({(u64{v} << 32) | w_node, 1});
        }
      }
    });
    tr.span("proto.cluster_flood", &net, [&] {
      heard = cluster_flood(net, cd, std::move(ann), cd.flood_budget());
    });
    for (const auto& h : heard) items += h.size();
  }
  return items;
}

// ---- checks ----------------------------------------------------------------

struct check_tally {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> failures;

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 8) failures.push_back(what);
    }
  }
};

struct row_sample {
  u64 pairs = 0;
  u64 finite = 0;
};

/// Sampled rows from the mapped store against Dijkstra: exact equality
/// (single level) or never below the true distance (two level, whose
/// composition is an upper bound beyond the balls). One check per row.
row_sample check_rows(const graph& g, const workload& w,
                      const label_view& view, u64 seed, bool doctor,
                      check_tally& tally) {
  row_sample out;
  rng r(derive_seed(seed, 3));
  std::vector<u64> row;
  for (u32 i = 0; i < w.check_rows; ++i) {
    const u32 s = static_cast<u32>(r.next_below(g.num_nodes()));
    view.row_into(s, row);
    // Doctored: distance 0 to another node is below every true distance
    // (weights are >= 1), so both the exact and the lower-bound check see it.
    if (doctor && i == 0) row[(s + 1) % g.num_nodes()] = 0;
    const std::vector<u64> ref = dijkstra(g, s);
    bool ok = true;
    for (u32 v = 0; v < g.num_nodes(); ++v) {
      ++out.pairs;
      if (row[v] < kInfDist) ++out.finite;
      ok = ok && (w.two_level ? row[v] >= ref[v] : row[v] == ref[v]);
    }
    tally.record(ok, "row " + std::to_string(s) + " disagrees with Dijkstra");
  }
  return out;
}

/// The mapped store must answer every sampled request exactly like the
/// in-memory labels it was saved from. One check per request.
void check_mapped(const built_oracle& b, const std::vector<request>& pool,
                  check_tally& tally) {
  const label_view mem = b.res.labels.view();
  const label_view& mapped = b.store.view();
  for (u64 i = 0; i < 20000; ++i) {
    const request& q = pool[(i * 7919) % pool.size()];
    tally.record(serve(mem, q) == serve(mapped, q),
                 "mapped answer differs for (" + std::to_string(q.u) + "," +
                     std::to_string(q.v) + ")");
  }
}

/// Every route walked on the mapped store must cost exactly query(u, v).
void check_routes(const graph& g, const built_oracle& b,
                  const std::vector<request>& pool, check_tally& tally) {
  const label_view& view = b.store.view();
  u64 checked = 0;
  for (u64 i = 0; i < pool.size() && checked < 2000; ++i) {
    const request& q = pool[i];
    if (q.op != req_op::route) continue;
    ++checked;
    const u64 want = view.query(q.u, q.v);
    const route_walk r = walk_route(view, q.u, q.v, &g);
    const bool ok =
        want >= kInfDist ? r.at != q.v : r.at == q.v && r.cost == want;
    tally.record(ok, "route (" + std::to_string(q.u) + "," +
                         std::to_string(q.v) + ") costs " +
                         std::to_string(r.cost) + " != " +
                         std::to_string(want));
  }
}

// ---- output ----------------------------------------------------------------

class json_object {
 public:
  json_object& num(const std::string& k, double v) {
    std::ostringstream s;
    s.precision(17);
    s << v;
    return raw(k, std::isfinite(v) ? s.str() : "null");
  }
  json_object& str(const std::string& k, const std::string& v) {
    std::string e = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') e += '\\';
      e += c;
    }
    return raw(k, e + "\"");
  }
  json_object& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + k + "\":") + v;
    return *this;
  }
  json_object& metric(const std::string& k, double v, const std::string& unit) {
    return raw(k, json_object().num("value", v).str("unit", unit).dump());
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_array(const std::vector<double>& xs) {
  std::string arr = "[";
  for (const double x : xs) {
    if (arr.size() > 1) arr += ',';
    std::ostringstream o;
    o.precision(17);
    o << x;
    arr += o.str();
  }
  return arr + "]";
}

std::string hex(u64 x) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

std::string phases_json(const run_metrics& m) {
  json_object o;
  for (const phase_entry& p : m.phases)
    o.raw(p.name, json_object()
                      .num("rounds", static_cast<double>(p.rounds))
                      .num("global_msgs", static_cast<double>(p.global_messages))
                      .dump());
  return o.dump();
}

struct args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  std::string store;
  bool doctor = false;
  u32 n_override = 0;
};

std::optional<args> parse(int argc, char** argv) {
  args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--doctor") {
      a.doctor = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--store") a.store = v;
    else if (k == "--n") a.n_override = static_cast<u32>(std::atoi(v.c_str()));
    else return std::nullopt;
  }
  if (a.workload.empty() || a.store.empty() || a.seconds <= 0.0)
    return std::nullopt;
  return a;
}

constexpr u32 kReaders = 2;
constexpr double kWindowS = 0.25;  ///< serve window (figures are medians)

/// Per-operation latencies on one thread: the pool's requests of kind `op`,
/// in order, each timed alone (up to `limit` requests or `budget_s`).
std::vector<u32> time_op(const label_view& view,
                         const std::vector<request>& pool, req_op op,
                         u64 limit, double budget_s, double* hops_mean) {
  std::vector<u32> lat;
  u64 hops = 0;
  u64 sink = 0;
  const auto t0 = clk::now();
  for (const request& q : pool) {
    if (q.op != op) continue;
    if (lat.size() >= limit ||
        (lat.size() % 256 == 0 && seconds_since(t0) > budget_s))
      break;
    const auto a = clk::now();
    if (op == req_op::route) {
      const route_walk r = walk_route(view, q.u, q.v);
      hops += r.hops;
      sink += r.at;
    } else {
      sink += serve(view, q);
    }
    const auto z = clk::now();
    lat.push_back(static_cast<u32>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(z - a).count()));
  }
  if (hops_mean != nullptr)
    *hops_mean =
        lat.empty() ? 0.0 : static_cast<double>(hops) / static_cast<double>(lat.size());
  volatile u64 keep = sink;
  (void)keep;
  return lat;
}

std::string tally_json(const check_tally& t) {
  std::string fails = "[";
  for (const std::string& f : t.failures) {
    if (fails.size() > 1) fails += ',';
    fails += json_object().str("f", f).dump();
  }
  return json_object()
      .num("attempted", static_cast<double>(t.attempted))
      .num("failed", static_cast<double>(t.failed))
      .raw("failures", fails + "]")
      .dump();
}

std::string spans_json(const tracer& tr) {
  std::string out = "[";
  const std::vector<span_record>& sp = tr.spans();
  for (size_t i = 0; i < sp.size(); ++i) {
    const span_record& r = sp[i];
    if (i > 0) out += ',';
    out += json_object()
               .str("name", r.name)
               .num("parent", r.parent)
               .num("start_ms", r.start_s * 1e3)
               .num("dur_ms", (r.end_s - r.start_s) * 1e3)
               .num("self_ms", tr.self_s(i) * 1e3)
               .num("allocs", static_cast<double>(r.allocs))
               .num("rounds", static_cast<double>(r.rounds))
               .num("global_msgs", static_cast<double>(r.global_msgs))
               .dump();
  }
  return out + "]";
}

int run(const args& a) {
  const std::optional<workload> found = find_workload(a.workload);
  if (!found) {
    std::cerr << "unknown workload " << a.workload << "\n";
    return 2;
  }
  workload w = *found;
  if (a.n_override > 0) w.n = a.n_override;
#ifdef HYBENCH_TRACED
  const bool traced = true;
#else
  const bool traced = false;
#endif

  // ---- setup: input generation. It is timed again after every build and
  // after serving (those copies are discarded), so the setup_s median
  // samples the machine across the whole run, not one moment of it.
  std::vector<double> setup_s;
  std::vector<double> graph_ms;
  const auto timed_setup = [&] {
    const auto t0 = clk::now();
    inputs made = make_inputs(w, a.seed);
    setup_s.push_back(seconds_since(t0));
    graph_ms.push_back(made.graph_ms);
    return made;
  };
  const inputs in = timed_setup();
  timed_setup();
  const graph& g = in.g;

  // ---- build: pipeline + save + mmap load, repeated in untraced runs -----
  check_tally tally;
  tracer tr(traced);
  std::optional<built_oracle> b;
  std::vector<double> build_s;
  std::vector<double> build_parts_s;  ///< pipeline, save, load per build
  const u32 builds = traced ? 1 : w.builds;
  for (u32 i = 0; i < builds; ++i) {
    const bool have_prev = b.has_value();
    const u64 prev_digest = b ? b->digest() : 0;
    const u64 prev_rounds = b ? b->res.metrics.rounds : 0;
    const u64 prev_msgs = b ? b->res.metrics.global_messages : 0;
    b.reset();  // release the previous oracle before building the next
    try {
      b.emplace(traced ? build_replayed(g, w, a.store, tr)
                       : build_plain(g, w, a.store));
    } catch (const fault_failure& e) {
      tally.record(false, std::string("fault_failure: ") + e.what());
      b.reset();
      break;
    }
    build_s.push_back(b->build_s());
    build_parts_s.insert(build_parts_s.end(),
                         {b->pipeline_s, b->save_s, b->load_s});
    timed_setup();
    if (have_prev)
      tally.record(b->digest() == prev_digest &&
                       b->res.metrics.rounds == prev_rounds &&
                       b->res.metrics.global_messages == prev_msgs,
                   "repeated build differs");
  }
  if (!b) {
    std::cout << json_object()
                     .str("workload", w.name)
                     .raw("checks", tally_json(tally))
                     .dump()
              << "\n";
    return 1;
  }
  const double coverage = [&] {
    double covered = 0.0;
    for (size_t i = 0; i < tr.spans().size(); ++i) covered += tr.self_s(i);
    return covered / b->build_s();
  }();

  // ---- checks --------------------------------------------------------------
  if (w.drop > 0.0 && !traced) {
    // Healing must give bit-identical labels to the fault-free build.
    const std::string ref_path = a.store + ".ref";
    u64 ref_digest = 0;
    {
      const built_oracle ref = build_plain(g, w, ref_path, false);
      ref_digest = ref.digest();
    }
    tally.record(ref_digest == b->digest(),
                 "lossy labels differ from the fault-free build");
  }
  const row_sample rows =
      check_rows(g, w, b->store.view(), a.seed, a.doctor, tally);
  check_mapped(*b, in.requests, tally);
  if (w.routes) check_routes(g, *b, in.requests, tally);

  const run_metrics& m = b->res.metrics;
  const double file_mb =
      static_cast<double>(b->store.header().file_bytes) / 1e6;
  json_object det;
  det.num("sim_rounds", static_cast<double>(m.rounds))
      .num("sim_global_msgs", static_cast<double>(m.global_messages))
      .str("label_digest", hex(b->digest()))
      .raw("phases", phases_json(m));
  json_object info;
  info.num("hardware_concurrency", std::thread::hardware_concurrency())
      .num("sim_threads", resolve_threads(w.options()))
      .num("reader_threads", kReaders)
      .str("compiler", HYBENCH_COMPILER)
      .str("build_type", HYBENCH_BUILD_TYPE)
      .str("cxx_flags", HYBENCH_CXX_FLAGS)
      .num("n", w.n)
      .num("sim_seed", static_cast<double>(w.sim_seed))
      .num("fault_seed", static_cast<double>(w.fault_seed))
      .raw("build_times_s", json_array(build_s))
      .raw("build_parts_s", json_array(build_parts_s))
      .num("skeleton_size", b->res.skeleton_size)
      .num("super_skeleton_size", b->res.labels.n_s2)
      .num("checked_pairs", static_cast<double>(rows.pairs));

  json_object metrics;
  if (!traced) {
    warm_pages(b->store.view());
    const double serve_s = a.seconds * w.serve_share;
    const u32 windows = std::max<u32>(1, static_cast<u32>(serve_s / kWindowS));
    const serve_result sr = serve_closed_loop(b->store.view(), in.requests,
                                              kReaders, windows, kWindowS);
    timed_setup();
    info.num("serve_samples", static_cast<double>(sr.requests))
        .num("serve_windows", sr.windows)
        .num("serve_seconds", sr.wall_s)
        .num("setup_reps", static_cast<double>(setup_s.size()));
    metrics.metric("setup_s", median(setup_s), "s")
        .metric("build_s", median(build_s), "s")
        .metric("peak_rss_mb", benchrss::peak_rss_mb(), "MB")
        .metric("sim_rounds", static_cast<double>(m.rounds), "rounds")
        .metric("sim_global_msgs", static_cast<double>(m.global_messages),
                "count")
        .metric("oracle_mb", file_mb, "MB")
        .metric("finite_frac",
                static_cast<double>(rows.finite) /
                    static_cast<double>(std::max<u64>(1, rows.pairs)),
                "ratio")
        .metric("serve_rps", sr.rps, "1/s")
        .metric("serve_p50_us", sr.p50_ns / 1e3, "us")
        .metric("serve_p99_us", sr.p99_ns / 1e3, "us");
  } else {
    const std::vector<span_record>& sp = tr.spans();
    double pipeline_allocs = 0.0;
    for (const span_record& r : sp)
      if (r.name.rfind("core.store.", 0) != 0)
        pipeline_allocs += static_cast<double>(r.allocs);
    const auto rounds_of = [&](const std::string& name) {
      return tr.sum(name, [](const span_record& r) {
        return static_cast<double>(r.rounds);
      });
    };
    const auto msgs_of = [&](const std::string& name) {
      return tr.sum(name, [](const span_record& r) {
        return static_cast<double>(r.global_msgs);
      });
    };
    const auto allocs_of = [&](const std::string& name) {
      return tr.sum(name, [](const span_record& r) {
        return static_cast<double>(r.allocs);
      });
    };
    const auto per_round = [&](const std::string& name) {
      const double r = rounds_of(name);
      return r > 0.0 ? allocs_of(name) / r : 0.0;
    };
    const double rounds = static_cast<double>(std::max<u64>(1, m.rounds));
    const double retx = tr.sum("proto.exploration", [](const span_record& r) {
      return static_cast<double>(r.retransmitted);
    });
    const double extra = tr.sum("proto.exploration", [](const span_record& r) {
      return static_cast<double>(r.extra_rounds);
    });
    const double entries =
        static_cast<double>(b->res.labels.ball.entries.size());
    const double mapped_ms = tr.ms("core.store.load");
    const double save_ms = tr.ms("core.store.save");

    // Sub-layer probe of the routing context (outside build_s/coverage).
    const u64 flood_items = probe_routing_context(g, w, *b, tr);

    // Per-operation serve rows on one thread, from the mapped store.
    const label_view& view = b->store.view();
    warm_pages(view);
    double hops_mean = 0.0;
    std::vector<u32> q_lat =
        time_op(view, in.requests, req_op::query, 200000, 2.0, nullptr);
    std::vector<u32> nh_lat, rt_lat;
    if (w.routes) {
      nh_lat = time_op(view, in.requests, req_op::next_hop, 100000, 2.0,
                       nullptr);
      rt_lat = time_op(view, in.requests, req_op::route, 20000, 2.0,
                       &hops_mean);
    }
    info.num("query_samples", static_cast<double>(q_lat.size()))
        .num("next_hop_samples", static_cast<double>(nh_lat.size()))
        .num("route_samples", static_cast<double>(rt_lat.size()));

    metrics.metric("graph.generate_ms", median(graph_ms), "ms")
        .metric("sim.host_us_per_round", b->pipeline_s * 1e6 / rounds, "us")
        .metric("sim.allocs_per_round", pipeline_allocs / rounds, "count")
        .metric("sim.max_global_recv", m.max_global_recv_per_round, "count")
        .metric("sim.mailbox_arena_mb", tr.arena_mb(), "MB")
        .metric("proto.skeleton.ms", tr.ms("proto.skeleton"), "ms")
        .metric("proto.skeleton.rounds", rounds_of("proto.skeleton"), "rounds")
        .metric("proto.skeleton.allocs_per_round", per_round("proto.skeleton"),
                "count")
        .metric("proto.super_skeleton.ms", tr.ms("proto.super_skeleton"), "ms")
        .metric("proto.skeleton_apsp.ms", tr.ms("proto.skeleton_apsp"), "ms")
        .metric("proto.dissemination.ms", tr.ms("proto.dissemination"), "ms")
        .metric("proto.dissemination.rounds", rounds_of("proto.dissemination"),
                "rounds")
        .metric("proto.dissemination.global_msgs",
                msgs_of("proto.dissemination"), "count")
        .metric("proto.dissemination.allocs_per_round",
                per_round("proto.dissemination"), "count")
        .metric("proto.routing_context.ms", tr.ms("proto.routing_context"),
                "ms")
        .metric("proto.routing_context.allocs_per_round",
                per_round("proto.routing_context"), "count")
        .metric("proto.ruling_set.ms", tr.ms("proto.ruling_set"), "ms")
        .metric("proto.clusters.ms", tr.ms("proto.clusters"), "ms")
        .metric("proto.cluster_flood.ms", tr.ms("proto.cluster_flood"), "ms")
        .metric("proto.cluster_flood.items", static_cast<double>(flood_items),
                "count")
        .metric("proto.helper_join.ms", tr.ms("proto.helper_join"), "ms")
        .metric("proto.route_tokens.ms", tr.ms("proto.route_tokens"), "ms")
        .metric("proto.route_tokens.rounds", rounds_of("proto.route_tokens"),
                "rounds")
        .metric("proto.route_tokens.global_msgs", msgs_of("proto.route_tokens"),
                "count")
        .metric("proto.route_tokens.allocs_per_round",
                per_round("proto.route_tokens"), "count")
        .metric("proto.table_flood.ms", tr.ms("proto.table_flood"), "ms")
        .metric("proto.table_flood.allocs_per_round",
                per_round("proto.table_flood"), "count")
        .metric("proto.exploration.ms", tr.ms("proto.exploration"), "ms")
        .metric("proto.exploration.entries", entries, "count")
        .metric("proto.exploration.allocs", allocs_of("proto.exploration"),
                "count")
        .metric("proto.exploration.retransmits", retx, "count")
        .metric("proto.exploration.extra_rounds", extra, "rounds")
        .metric("proto.exploration.retx_per_item",
                entries > 0.0 ? retx / entries : 0.0, "ratio")
        .metric("core.glue.ms", tr.ms("core.glue"), "ms")
        .metric("core.query.p50_ns", percentile(q_lat, 0.50), "ns")
        .metric("core.query.p99_ns", percentile(q_lat, 0.99), "ns")
        .metric("core.next_hop.p50_ns", percentile(nh_lat, 0.50), "ns")
        .metric("core.route.p50_ns", percentile(rt_lat, 0.50), "ns")
        .metric("core.route.p99_ns", percentile(rt_lat, 0.99), "ns")
        .metric("core.route.hops_mean", hops_mean, "count")
        .metric("core.label_entries",
                static_cast<double>(b->res.labels.label_entries()), "count")
        .metric("core.store.save_ms", save_ms, "ms")
        .metric("core.store.load_ms", mapped_ms, "ms")
        .metric("core.store.file_mb", file_mb, "MB")
        .metric("trace.coverage", coverage, "ratio")
        .metric("trace.build_s", b->build_s(), "s");
  }
  b.reset();
  std::remove(a.store.c_str());

  json_object out;
  out.str("workload", w.name)
      .str("mode", traced ? "traced" : "plain")
      .raw("checks", tally_json(tally))
      .raw("det", det.dump())
      .raw("info", info.dump())
      .raw("metrics", metrics.dump());
  if (traced) out.raw("spans", spans_json(tr));
  std::cout << out.dump() << "\n";
  return tally.failed == 0 ? 0 : 1;
}
}  // namespace

int main(int argc, char** argv) {
  const std::optional<args> a = parse(argc, argv);
  if (!a) {
    std::cerr << "usage: hybench --workload <name> --seed <n> --seconds <s> "
                 "--store <path> [--doctor] [--n <nodes>]\n";
    return 2;
  }
  try {
    return run(*a);
  } catch (const std::exception& e) {
    std::cerr << "hybench: " << e.what() << "\n";
    return 1;
  }
}
