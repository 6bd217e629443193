// Baseline: the exact APSP algorithm of Augustine et al. [3] in Õ(n^{2/3})
// HYBRID rounds (the algorithm Theorem 1.1 improves on; Section 3 describes
// the difference).
//
// Identical pipeline to core/apsp.hpp except for the last step: instead of
// token-routing one label per (node, skeleton) pair to its skeleton node,
// ALL h-limited distance labels d_h(v, s), (v, s) ∈ V × V_S, are broadcast
// to the whole network with token dissemination. That is Θ(n·|V_S|) tokens;
// with the trade-off optimized at x = n^{2/3} (|V_S| ≈ n^{1/3}) the total
// runtime is Õ(x + n/√x) = Õ(n^{2/3}).
//
// Fault behavior (docs/FAULTS.md): like core/apsp.hpp, every stage
// self-heals under message loss on both planes plus crash/recovery, so the
// labels are bit-identical to the fault-free run or the pipeline throws
// fault_failure explicitly (this pipeline has no charged stand-in, so no
// fault_unsupported case at all).
#pragma once

#include "core/dist_oracle.hpp"
#include "graph/graph.hpp"
#include "sim/hybrid_net.hpp"

namespace hybrid {

struct apsp_baseline_result {
  /// Two-sided labels (label_scheme::kSkeletonPairs): ball + gateways + the
  /// public skeleton-pair distances. Always built; `labels.topo` points at
  /// the caller's graph.
  dist_labels labels;
  /// Dense adapter, filled when resolve_materialize(opts, n) holds.
  std::vector<std::vector<u64>> dist;
  run_metrics metrics;
  u32 skeleton_size = 0;
  u32 h = 0;
  u64 labels_broadcast = 0;

  bool materialized() const { return !dist.empty(); }
};

/// `opts` selects the executor thread count and the result storage
/// (docs/CONCURRENCY.md, core/dist_oracle.hpp); results are bit-identical
/// for every thread count and either storage mode.
apsp_baseline_result baseline_apsp_ahkss(const graph& g,
                                         const model_config& cfg, u64 seed,
                                         sim_options opts = {});

}  // namespace hybrid
