#include "sim/hybrid_net.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace hybrid {

namespace {

u32 compute_global_cap(const model_config& cfg, u32 n) {
  return std::max<u32>(
      1, static_cast<u32>(std::ceil(cfg.global_cap_mult * id_bits(n))));
}

}  // namespace

hybrid_net::hybrid_net(const graph& g, model_config cfg, u64 seed,
                       sim_options opts)
    : g_(&g),
      cfg_(cfg),
      opts_(opts),
      exec_(opts),
      global_cap_(compute_global_cap(cfg, g.num_nodes())),
      // Slabs start at 8 slots, not γ: an idle or send-light network pays
      // O(n) idle memory instead of O(n·γ), and γ-saturating protocols
      // re-stride to γ once at the first barrier and are overflow- and
      // allocation-free from then on.
      mail_(g.num_nodes(), global_cap_, std::min<u32>(global_cap_, 8)),
      node_rng_(g.num_nodes()),
      seed_(seed),
      public_rng_(derive_seed(seed, ~u64{0})) {
  HYB_REQUIRE(g.num_nodes() >= 2, "HYBRID networks need at least two nodes");
  const u32 logn = id_bits(g.num_nodes());
  hash_independence_ = std::max<u32>(
      2, static_cast<u32>(std::ceil(cfg.hash_independence_mult * logn)));
  header_bits_ = 2 * logn;  // src + dst IDs
  // Stream ids: v for the persistent per-node streams, ~0 for the public
  // stream; the high bit keeps the per-round family disjoint from both.
  node_stream_.reserve(n());
  for (u32 v = 0; v < n(); ++v)
    node_stream_.push_back(derive_seed(seed, (u64{1} << 63) | v));
  if (!cfg_.cut_side.empty()) set_cut(cfg_.cut_side);

  // Fault wiring (sim/fault.hpp): everything below stays dormant with the
  // default fault_options, and delivery stays on the undrawn path.
  const fault_options& fo = opts_.faults;
  HYB_REQUIRE(fo.drop_global >= 0.0 && fo.drop_global <= 1.0 &&
                  fo.drop_local >= 0.0 && fo.drop_local <= 1.0,
              "drop probabilities must lie in [0, 1]");
  crashes_ = crash_schedule(n(), fo.crashes);
  // A zero quiet window runs no healing round, and a zero multiplier leaves
  // no round budget: either setting could only fail under faults.
  if (fo.enabled()) {
    HYB_REQUIRE(fo.heal_stability_rounds > 0,
                "heal_stability_rounds must be positive under faults");
    HYB_REQUIRE(fo.heal_budget_mult > 0,
                "heal_budget_mult must be positive under faults");
  }
  fault_global_ = fo.global_faulty();
  fault_local_ = fo.local_faulty();
  global_plane_ = fault_plane(seed, fo, kFaultPlaneGlobal);
  local_plane_ = fault_plane(seed, fo, kFaultPlaneLocal);
}

local_drops hybrid_net::local_link(u32 from, u32 to, u32 count) const {
  return local_plane_.link((u64{from} << 32) | to, metrics_.rounds, count,
                           crashes_.down(from) || crashes_.down(to));
}

void hybrid_net::advance_round() {
  // The round barrier: called from the orchestrating thread only, after the
  // executor joined all per-node steps (docs/CONCURRENCY.md). Delivery is
  // the mailbox's parallel counting sort; it fixes inbox order as
  // (src, send-index), independent of send interleaving and thread count.
  ++metrics_.rounds;
  // Crash schedule: compute the opening round's bitmap before delivery
  // (each sender's drawer reads both — sender down at send time, receiver
  // down at delivery), then promote it to current.
  crashes_.open(metrics_.rounds);
  if (fault_global_) {
    const u64 send_round = metrics_.rounds - 1;
    mail_.deliver(exec_, [this, send_round](u32 src, u32 count) {
      return crashes_.sender(global_plane_, src, send_round, count);
    });
  } else {
    mail_.deliver(exec_);
  }
  crashes_.promote();
  // Aggregate metrics are accounted here rather than at send time so that
  // try_send_global writes only src-private state during parallel steps.
  // The mailbox totals them inside its delivery passes (per-shard sums and
  // maxima, order-insensitive), so every counter is thread-count-invariant
  // (docs/CONCURRENCY.md §5).
  const u64 delivered = mail_.delivered_last_round();
  metrics_.global_messages += delivered;
  metrics_.global_sent += mail_.sent_last_round();
  metrics_.global_dropped += mail_.dropped_last_round();
  metrics_.global_payload_words += mail_.payload_words_last_round();
  metrics_.max_global_recv_per_round = std::max(
      metrics_.max_global_recv_per_round, mail_.max_inbox_last_round());
  if (delivered == 0 || cut_side_.empty()) return;
  // Section-7 cut accounting: one pass over the delivered messages, only
  // while a cut is registered.
  metrics_.cut_bits += exec_.sum_nodes(n(), [this](u32 v) {
    u64 bits = 0;
    for (const global_msg& m : mail_.inbox(v))
      if (cut_side_[m.src] != cut_side_[v])
        bits += static_cast<u64>(m.nw) * 64 + header_bits_;
    return bits;
  });
}

rng& hybrid_net::node_rng(u32 v) {
  HYB_REQUIRE(v < n(), "node out of range");
  if (!node_rng_[v]) node_rng_[v].emplace(derive_seed(seed_, v));
  return *node_rng_[v];
}

rng hybrid_net::round_rng(u32 v) const {
  HYB_REQUIRE(v < n(), "node out of range");
  return rng(derive_seed(node_stream_[v], metrics_.rounds));
}

void hybrid_net::begin_phase(std::string name) {
  close_phase();
  open_phase_ = phase_entry{std::move(name)};
  phase_start_rounds_ = metrics_.rounds;
  phase_start_msgs_ = metrics_.global_messages;
  phase_start_retx_ = metrics_.retransmitted;
  phase_start_extra_ = metrics_.extra_rounds;
}

void hybrid_net::close_phase() {
  if (!open_phase_) return;
  open_phase_->rounds = metrics_.rounds - phase_start_rounds_;
  open_phase_->global_messages = metrics_.global_messages - phase_start_msgs_;
  open_phase_->retransmitted = metrics_.retransmitted - phase_start_retx_;
  open_phase_->extra_rounds = metrics_.extra_rounds - phase_start_extra_;
  metrics_.phases.push_back(*open_phase_);
  open_phase_.reset();
}

run_metrics hybrid_net::snapshot() {
  close_phase();
  return metrics_;
}

void hybrid_net::set_cut(std::vector<u8> side) {
  HYB_REQUIRE(side.size() == n(), "cut must label every node");
  cut_side_ = std::move(side);
}

}  // namespace hybrid
