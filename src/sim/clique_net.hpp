// CONGESTED CLIQUE simulator (paper Section 4, footnotes 4 and 9).
//
// Synchronous message passing on a complete graph: per round, every node may
// send one O(log n)-bit message to every other node; with Lenzen's routing
// the equivalent guarantee is n messages per node per round to arbitrary
// targets, which is what we enforce (send cap n, receive load recorded).
//
// This simulator is used (a) standalone to unit-test CLIQUE algorithms at
// the message level, and (b) as the semantic reference for the charged-round
// CLIQUE embedding into HYBRID (proto/clique_embed).
//
// Mailboxes are the flat-arena kind (sim/mailbox.hpp): sends write into a
// reused per-node slab and advance_round() delivers with the parallel
// counting sort, same determinism contract as the HYBRID simulator. Because
// the clique cap is n per node (an n² arena if preallocated), the outbox
// starts with a small slab and re-strides itself up to the observed peak,
// so sparse workloads stay small and all-to-all workloads converge to
// allocation-free rounds after warm-up.
#pragma once

#include <array>

#include "sim/executor.hpp"
#include "sim/fault.hpp"
#include "sim/mailbox.hpp"
#include "util/bits.hpp"

namespace hybrid {

struct clique_msg {
  u32 src = 0;
  u32 dst = 0;
  u32 tag = 0;
  u8 nw = 0;  ///< payload words in use; packed beside the tag
  std::array<u64, 3> w{};
};
static_assert(sizeof(clique_msg) == 40);

class clique_net {
 public:
  explicit clique_net(u32 n, sim_options opts = {});

  u32 n() const { return n_; }
  u64 round() const { return rounds_; }
  u32 max_recv_per_round() const { return max_recv_; }
  u64 total_messages() const { return total_msgs_; }
  /// Fault accounting (sim/fault.hpp): sends entering delivery and sends
  /// lost to injected faults; total_sent() == total_messages() +
  /// total_dropped() always. The clique's drop stream derives from
  /// fault_options::fault_seed alone (the clique simulator has no run
  /// seed); fault_options::drop_global is its drop probability and the
  /// crash schedule applies unchanged.
  u64 total_sent() const { return total_sent_; }
  u64 total_dropped() const { return total_dropped_; }
  bool faults_active() const { return fault_on_; }
  bool is_up(u32 v) const { return !crashes_.down(v); }

  /// Node-parallel round executor; same determinism contract as the HYBRID
  /// simulator (docs/CONCURRENCY.md).
  round_executor& executor() { return exec_; }

  /// Enqueue for delivery at the next advance_round(). Enforces the
  /// n-messages-per-node-per-round cap (Lenzen routing). Thread-safe across
  /// distinct src within a parallel step: writes are src-private, totals
  /// are accounted at delivery.
  void send(const clique_msg& m);
  u32 budget(u32 src) const { return n_ - mail_.sends(src); }

  void advance_round();
  /// Messages delivered to v at the last advance_round(), sorted by
  /// (src, send-index); valid until the next advance_round().
  inbox_view<clique_msg> inbox(u32 v) const { return mail_.inbox(v); }
  /// Mailbox arena occupancy/allocation probe.
  mailbox_stats mailbox_stats_probe() const { return mail_.stats(); }

 private:
  u32 n_;
  round_executor exec_;
  u64 rounds_ = 0;
  u64 total_msgs_ = 0;
  u64 total_sent_ = 0;
  u64 total_dropped_ = 0;
  u32 max_recv_ = 0;
  flat_mailbox<clique_msg> mail_;
  bool fault_on_ = false;
  fault_plane plane_;
  crash_schedule crashes_;
};

}  // namespace hybrid
