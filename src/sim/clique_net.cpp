#include "sim/clique_net.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace hybrid {

clique_net::clique_net(u32 n, sim_options opts)
    // Initial slab width 16 (clamped to n): small enough that sparse
    // workloads never pay n² memory, large enough that the unit-test
    // cliques (n ≤ 16) start overflow-free; heavier senders trigger one
    // re-stride at the next barrier and are slab-resident from then on.
    : n_(n), exec_(opts), mail_(n, n, 16) {
  const fault_options& fo = opts.faults;
  HYB_REQUIRE(n >= 2, "clique needs at least two nodes");
  HYB_REQUIRE(fo.drop_global >= 0.0 && fo.drop_global <= 1.0,
              "drop probability must lie in [0, 1]");
  crashes_ = crash_schedule(n, fo.crashes);
  fault_on_ = fo.global_faulty();
  // No run seed on the clique simulator: the drop stream derives from
  // fault_seed alone (documented in clique_net.hpp).
  plane_ = fault_plane(0, fo, kFaultPlaneClique);
}

void clique_net::send(const clique_msg& m) {
  HYB_REQUIRE(m.src < n_ && m.dst < n_, "endpoint out of range");
  HYB_INVARIANT(mail_.sends(m.src) < n_,
                "node exceeded the n-messages-per-round clique cap");
  mail_.push(m);
}

void clique_net::advance_round() {
  ++rounds_;
  crashes_.open(rounds_);
  if (fault_on_) {
    const u64 send_round = rounds_ - 1;
    mail_.deliver(exec_, [this, send_round](u32 src, u32 count) {
      return crashes_.sender(plane_, src, send_round, count);
    });
  } else {
    mail_.deliver(exec_);
  }
  crashes_.promote();
  total_msgs_ += mail_.delivered_last_round();
  total_sent_ += mail_.sent_last_round();
  total_dropped_ += mail_.dropped_last_round();
  max_recv_ = std::max(max_recv_, mail_.max_inbox_last_round());
}

}  // namespace hybrid
