#include "core/sssp.hpp"

#include "core/kssp_framework.hpp"

namespace hybrid {

sssp_result hybrid_sssp_exact(const graph& g, const model_config& cfg,
                              u64 seed, u32 source, sim_options opts) {
  const clique_sp_algorithm alg = make_clique_sssp_exact();
  kssp_result k = hybrid_kssp(g, cfg, seed, {source}, alg,
                              /*source_into_skeleton=*/true, opts);
  sssp_result out;
  out.source = source;
  out.dist = k.labels.row(0);
  out.metrics = std::move(k.metrics);
  out.skeleton_size = k.skeleton_size;
  out.h = k.h;
  return out;
}

}  // namespace hybrid
