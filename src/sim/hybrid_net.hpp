// The HYBRID network model simulator (paper Section 1, "The Hybrid Network
// Model": LOCAL + NCC).
//
// Synchronous rounds. In every round a node may
//   (a) exchange arbitrary messages with each neighbor in the local graph G
//       (LOCAL mode; unbounded bandwidth, traffic is accounted but not
//       capped), and
//   (b) send at most γ = global_cap() messages of at most
//       max_payload_words·64 bits each to arbitrary nodes (NCC mode; the cap
//       is enforced at send time, receive loads are recorded so tests can
//       check Lemma D.2's O(log n) bound).
//
// Protocols are written against this class: they keep per-node state arrays,
// and all information flow between nodes goes through global mailboxes or
// the audited LOCAL utilities in proto/flood.hpp (which charge local items
// and advance rounds). Node-private and public randomness both derive from
// one run seed, so every simulation is reproducible.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sim/executor.hpp"
#include "sim/fault.hpp"
#include "sim/mailbox.hpp"
#include "sim/metrics.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace hybrid {

struct model_config {
  /// γ = ceil(global_cap_mult · log2 n) global messages per node per round.
  double global_cap_mult = 4.0;
  /// Global message payload cap in 64-bit words (Θ(log n) bits).
  u32 max_payload_words = 3;
  /// Hash independence k = ceil(hash_independence_mult · log2 n) (Lemma D.2).
  double hash_independence_mult = 3.0;
  /// Skeleton hop budget h = ceil(skeleton_xi · (1/p) · ln n) (Lemma C.1's ξ).
  double skeleton_xi = 2.0;
  /// Level-1 sampling probability override for the APSP cores; 0 keeps the
  /// Theorem 1.1 default p = 1/√n. The two-level bench raises it (denser
  /// skeleton, smaller h) to trade ball size against table size.
  double skeleton_p_override = 0.0;
  /// Super-skeleton sampling probability (oracle_hierarchy::kTwoLevel);
  /// 0 = 1/√n_s, the same Õ(√·) recursion step as level 1.
  double super_p_override = 0.0;
  /// Super-skeleton hop budget h1 over the skeleton graph; 0 = the Lemma
  /// C.1 formula with skeleton_xi at level 1: ⌈ξ·(1/p₂)·ln n_s⌉ (which
  /// saturates to exact ball1 coverage at test sizes).
  u32 super_h_override = 0;
  /// Helper-set join probability q = min(helper_q_mult · µ / |C|, 1)
  /// (Algorithm 1 uses 2; larger values harden the |H_w| ≥ µ event at
  /// simulation sizes).
  double helper_q_mult = 4.0;
  /// Charged stand-in for token routing's helper machinery (DESIGN.md §4,
  /// deviation 9): route_tokens charges the Theorem 2.2 / Algorithm 1
  /// round, message, and flood budgets in closed form and delivers tokens
  /// directly, skipping the Θ(Σ|cluster|²)-memory ruling-set/cluster
  /// simulation. Default off — everything stays message-level simulated.
  /// Needed for the n ≈ 10⁵ label-oracle workloads (bench_apsp E2e), where
  /// µ ≈ √n exceeds the graph diameter and the exact simulation of "every
  /// node learns its whole cluster" is Θ(n²) memory.
  bool charged_token_routing = false;
  /// Optional node bipartition for Section-7-style cut accounting; when
  /// nonempty it is registered at network construction (like set_cut, it
  /// must label every node), so the full algorithms (which build their own
  /// nets over the caller's graph) can be instrumented.
  std::vector<u8> cut_side;
};

struct global_msg {
  u32 src = 0;
  u32 dst = 0;
  u32 tag = 0;
  u8 nw = 0;               ///< payload words in use; packed beside the tag
  std::array<u64, 3> w{};  ///< payload words (w[0..nw))

  static global_msg make(u32 src, u32 dst, u32 tag,
                         std::initializer_list<u64> words) {
    global_msg m;
    m.src = src;
    m.dst = dst;
    m.tag = tag;
    HYB_REQUIRE(words.size() <= m.w.size(), "payload exceeds message capacity");
    u8 i = 0;
    for (u64 x : words) m.w[i++] = x;
    m.nw = i;
    return m;
  }
};
// Every round streams each message through memory: 40 bytes, not 48.
static_assert(sizeof(global_msg) == 40);

class hybrid_net {
 public:
  hybrid_net(const graph& g, model_config cfg, u64 seed,
             sim_options opts = {});

  const graph& g() const { return *g_; }
  u32 n() const { return g_->num_nodes(); }
  const model_config& config() const { return cfg_; }
  /// The sim_options this net was constructed with (thread count as given,
  /// unresolved — see resolve_threads).
  const sim_options& options() const { return opts_; }

  /// Node-parallel round executor (docs/CONCURRENCY.md). Protocol drivers
  /// run their per-node round steps through this; within a step for node v,
  /// only v-private state (and v's own send budget) may be written.
  round_executor& executor() { return exec_; }

  /// γ: per-node global sends per round.
  u32 global_cap() const { return global_cap_; }
  /// Hash independence parameter for this n.
  u32 hash_independence() const { return hash_independence_; }

  // ---- round lifecycle -----------------------------------------------
  /// Close the current round: deliver queued global messages (parallel
  /// counting sort on the executor, sim/mailbox.hpp, which also totals the
  /// round's metrics), reset send budgets, bump the round counter.
  /// Orchestrating thread only, after the round barrier.
  void advance_round();
  u64 round() const { return metrics_.rounds; }

  // ---- NCC global mode -------------------------------------------------
  /// Send if src still has budget this round; returns false when the γ cap
  /// is exhausted (callers keep the message queued for a later round).
  /// Thread-safe across distinct src within one parallel round step: all
  /// writes are src-private; aggregate metrics are accounted when the
  /// delivering advance_round() closes the round.
  bool try_send_global(const global_msg& m) {
    HYB_REQUIRE(m.src < n() && m.dst < n(), "message endpoint out of range");
    HYB_INVARIANT(m.nw <= cfg_.max_payload_words,
                  "payload exceeds the O(log n)-bit model cap");
    if (mail_.sends(m.src) >= global_cap_) return false;
    mail_.push(m);
    return true;
  }
  /// Remaining sends for src this round.
  u32 global_budget(u32 src) const { return global_cap_ - mail_.sends(src); }
  /// Messages delivered to v at the last advance_round(), sorted by
  /// (src, send-index). The view reads the sending round's outbox arena
  /// and stays valid until the next advance_round(), so a step may read it
  /// while it sends for the next round.
  inbox_view<global_msg> global_inbox(u32 v) const { return mail_.inbox(v); }
  /// Mailbox arena occupancy/allocation probe (tests assert arenas stop
  /// growing after warm-up).
  mailbox_stats global_mailbox_stats() const { return mail_.stats(); }
  /// Release the mailbox high-water arenas (memory only, they regrow on
  /// demand; sim/mailbox.hpp trim()). Used by the large-n label pipelines
  /// before long global-silent stretches. Orchestrating thread only.
  void trim_mailboxes() { mail_.trim(); }

  // ---- LOCAL mode accounting -------------------------------------------
  /// Charge `items` O(log n)-bit records crossing local edges this round.
  void charge_local(u64 items) { metrics_.local_items += items; }

  // ---- fault injection (sim/fault.hpp, docs/FAULTS.md) -------------------
  const fault_options& faults() const { return opts_.faults; }
  bool faults_active() const { return fault_global_ || fault_local_; }
  /// Global plane faulty: queued global sends may be dropped at delivery.
  bool global_faults_active() const { return fault_global_; }
  /// Local plane faulty: LOCAL primitives must route every pulled item
  /// through local_link() and take their self-healing paths.
  bool local_faults_active() const { return fault_local_; }
  /// Whether v is up in the current round (crash schedule). Down nodes
  /// send and receive nothing on either plane but keep their state.
  bool is_up(u32 v) const { return !crashes_.down(v); }

  /// The drop decisions for the `count` items `to` pulls from `from` across
  /// a local edge this round (link (from << 32) | to, all lost while an
  /// endpoint is down). Pure in (round, from, to, count), so callable from
  /// parallel steps; callers count drops per node and report the sum
  /// through note_local_dropped (the charge_local charge includes dropped
  /// items — they did cross the edge). Drops nothing while the local plane
  /// is reliable.
  local_drops local_link(u32 from, u32 to, u32 count) const;
  /// Items that arrived (= charged minus dropped at the charging site).
  /// Every charge_local caller reports its delivered share so the ledger
  /// local_items == local_delivered + local_dropped holds at all times;
  /// charged stand-ins report their whole charge (loss is not modeled for
  /// closed-form budgets, see run_metrics::local_delivered).
  void note_local_delivered(u64 items) { metrics_.local_delivered += items; }
  void note_local_dropped(u64 items) { metrics_.local_dropped += items; }
  void note_retransmitted(u64 count) { metrics_.retransmitted += count; }
  void note_extra_rounds(u64 rounds) { metrics_.extra_rounds += rounds; }

  // ---- charged stand-ins (DESIGN.md §4) ----------------------------------
  /// Account `rounds` silent rounds without simulating them (no delivery,
  /// no budget reset — callers must have no queued sends). Used by charged
  /// stand-ins whose round cost is a documented closed form
  /// (model_config{charged_token_routing}); orchestrating thread only.
  void charge_rounds(u64 rounds) { metrics_.rounds += rounds; }
  /// Account global messages/payload words a charged stand-in would have
  /// sent (receive-load tracking is not modeled for stand-ins).
  void charge_global(u64 messages, u64 payload_words) {
    metrics_.global_messages += messages;
    metrics_.global_payload_words += payload_words;
  }

  // ---- randomness --------------------------------------------------------
  /// Node v's persistent private stream, derived from (seed, v). Node-
  /// private, so it is safe inside a parallel step as long as only v's own
  /// step draws from it — but its draw positions depend on the node's whole
  /// history. Prefer round_rng() in parallel step code.
  rng& node_rng(u32 v);
  /// A fresh stream derived from (seed, v, round()) — the determinism
  /// contract's randomness primitive (docs/CONCURRENCY.md): draws depend
  /// only on the (seed, node, round) triple, never on scheduling or on how
  /// many values other rounds consumed.
  rng round_rng(u32 v) const;
  /// Shared public coins (the broadcastable seed of Lemma 2.3).
  rng& public_rng() { return public_rng_; }

  // ---- metrics / instrumentation -----------------------------------------
  void begin_phase(std::string name);
  /// Finalize the open phase and return a copy of the metrics.
  run_metrics snapshot();
  const run_metrics& raw_metrics() const { return metrics_; }

  /// Register a bipartition for Section-7-style cut accounting; bits of
  /// global messages crossing it accumulate in metrics().cut_bits.
  void set_cut(std::vector<u8> side);
  void clear_cut() { cut_side_.clear(); }

 private:
  void close_phase();

  const graph* g_;
  model_config cfg_;
  sim_options opts_;
  round_executor exec_;
  u32 global_cap_;
  u32 hash_independence_;
  u32 header_bits_;

  flat_mailbox<global_msg> mail_;

  std::vector<std::optional<rng>> node_rng_;
  /// Per-node round_rng stream ids, derived once at construction (they are
  /// a pure function of (seed_, v), so recomputing them every round was
  /// pure waste).
  std::vector<u64> node_stream_;
  u64 seed_;
  rng public_rng_;

  run_metrics metrics_;
  std::optional<phase_entry> open_phase_;
  u64 phase_start_rounds_ = 0;
  u64 phase_start_msgs_ = 0;
  u64 phase_start_retx_ = 0;
  u64 phase_start_extra_ = 0;

  std::vector<u8> cut_side_;

  // ---- fault state (all dormant when fault_options{} is default) ---------
  bool fault_global_ = false;
  bool fault_local_ = false;
  fault_plane global_plane_;
  fault_plane local_plane_;
  crash_schedule crashes_;
};

}  // namespace hybrid
