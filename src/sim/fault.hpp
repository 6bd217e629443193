// Seeded fault injection for the simulators (docs/FAULTS.md).
//
// The HYBRID model assumes perfectly reliable edges; this module adds the
// fault axis the ROADMAP asks for: seeded message loss on either plane
// (local edges, NCC global sends) and an optional per-round node
// crash/recovery schedule. Two design rules govern everything here:
//
//   * Determinism: every drop decision is a pure function of
//     (seed, fault_seed, plane, link, round, msg_idx) — a dedicated stream
//     chained through derive_seed, independent of scheduling, thread count,
//     and of how many draws anything else consumed. A run is bit-identical
//     per (seed, fault_seed, threads) triple and thread-count-invariant
//     like every other observable (docs/CONCURRENCY.md).
//   * Zero overhead when off: `fault_options{}` injects nothing and every
//     fault branch in the simulators is hoisted behind one cached bool, so
//     the fault-free hot paths are unchanged.
//
// Protocols degrade in one of two explicit ways (docs/FAULTS.md):
// self-healing stages re-send until convergence and throw `fault_failure`
// when their bounded budget runs out; stages without a healing path refuse
// up front with `fault_unsupported`. Results are correct or explicitly
// failed — never silently wrong.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace hybrid {

enum class fault_mode : u8 {
  /// Each message is dropped independently with probability p.
  kRandom = 0,
  /// Adversarial prefix: of a node's `c` sends in a round, the first
  /// ⌈p·c⌉ are dropped — a deterministic worst-ish case (it always severs
  /// the same positions, so protocols that rely on send order must
  /// reshuffle or retransmit to make progress).
  kAdversarialPrefix,
};

/// One scheduled outage: `node` is down for rounds [down_round, up_round).
/// A down node sends nothing, receives nothing (both planes), but keeps its
/// protocol state — fail-pause, not fail-stop.
struct crash_event {
  u32 node = 0;
  u64 down_round = 0;
  u64 up_round = 0;
};

struct fault_options {
  /// Per-message drop probability on the NCC global plane (and the clique).
  double drop_global = 0.0;
  /// Per-item drop probability on LOCAL-mode edge crossings.
  double drop_local = 0.0;
  /// Extra seed mixed into the drop stream; (seed, fault_seed) together
  /// determine every fault decision.
  u64 fault_seed = 0;
  fault_mode mode = fault_mode::kRandom;
  /// Crash/recovery schedule, applied to both planes.
  std::vector<crash_event> crashes;
  /// Self-healing stages stop after this many consecutive rounds in which
  /// no node learned anything new. Early false stability has probability
  /// ≲ p^stability per pending item per window; the default keeps that
  /// negligible at the drop rates the tests and benches run.
  u32 heal_stability_rounds = 8;
  /// Healing round budget multiplier: a stage with fault-free budget B may
  /// spend up to heal_budget_mult·B rounds before throwing fault_failure.
  u32 heal_budget_mult = 64;

  bool global_faulty() const { return drop_global > 0.0 || !crashes.empty(); }
  bool local_faulty() const { return drop_local > 0.0 || !crashes.empty(); }
  bool enabled() const { return global_faulty() || local_faulty(); }
};

/// A self-healing stage exhausted its bounded retry/round budget (e.g. a
/// node is crashed for longer than the budget tolerates). The computation
/// is explicitly failed, never silently wrong.
class fault_failure : public std::runtime_error {
 public:
  explicit fault_failure(const std::string& what) : std::runtime_error(what) {}
};

/// The requested stage has no self-healing path under the active fault
/// planes and refuses to produce possibly-wrong results.
class fault_unsupported : public std::runtime_error {
 public:
  explicit fault_unsupported(const std::string& what)
      : std::runtime_error(what) {}
};

// ---- the fault stream ------------------------------------------------------
//
// fault_rng(seed, fault_seed, node/link, round, msg_idx): a splitmix chain
// through derive_seed. The per-plane base is precomputed once per network
// and holds no state. The chain splits at the message index: the
// (link, round) prefix is shared by every message of one link in one
// round, so every plane draws a link's messages together (local_drops
// below), hashing the prefix once and paying one finalizer call per
// message; fault_draw pays all three and is the per-message reference.

inline constexpr u64 kFaultPlaneGlobal = 0x67;  // NCC sends in hybrid_net
inline constexpr u64 kFaultPlaneLocal = 0x6C;   // LOCAL edge crossings
inline constexpr u64 kFaultPlaneClique = 0x63;  // clique_net sends

inline u64 fault_plane_base(u64 seed, u64 fault_seed, u64 plane) {
  return derive_seed(derive_seed(derive_seed(seed, 0xFA17FA17), fault_seed),
                     plane);
}

/// The part of a draw shared by one link's messages in one round. `link`
/// identifies the sender (global plane, clique) or the directed edge packed
/// as (from << 32) | to (local plane).
constexpr u64 fault_prefix(u64 plane_base, u64 link, u64 round) {
  return derive_seed(derive_seed(plane_base, link), round);
}

/// The raw 64-bit draw for one message; `idx` is its position within its
/// link's sends this round.
constexpr u64 fault_draw(u64 plane_base, u64 link, u64 round, u64 idx) {
  return derive_seed(fault_prefix(plane_base, link, round), idx);
}

/// Bernoulli(p) decision from a draw, mirroring rng::next_double's mapping.
inline bool fault_roll(u64 draw, double p) {
  return static_cast<double>(draw >> 11) * 0x1.0p-53 < p;
}

/// kAdversarialPrefix: how many of `count` sends are dropped (the first ones).
inline u32 adversarial_prefix_count(double p, u32 count) {
  const u32 k = static_cast<u32>(std::ceil(p * static_cast<double>(count)));
  return k > count ? count : k;
}

/// One link's drop decisions in one round, on any plane (a directed local
/// edge, or a global or clique sender): the crash cut, the adversarial
/// prefix and the stream prefix are settled by fault_plane::link, so a
/// decision costs at most one finalizer call. In kRandom mode drop(idx)
/// equals fault_roll(fault_draw(base, link, round, idx), p) in integer
/// form: scaling by 2^-53 is exact, so a draw's top 53 bits fall below p
/// scaled exactly when they fall below ⌈p·2^53⌉.
class local_drops {
 public:
  /// Whether the link's idx-th item this round is lost.
  bool drop(u32 idx) const {
    if (idx < cut_) return true;
    return below_ != 0 && (derive_seed(prefix_, idx) >> 11) < below_;
  }
  /// The message planes' form: also lost when the receiver is down in the
  /// delivery round (crash_schedule::sender).
  template <class Msg>
  bool drop(u32 idx, const Msg& m) const {
    return drop(idx) || (dst_down_ != nullptr && dst_down_[m.dst] != 0);
  }

 private:
  friend class fault_plane;
  friend class crash_schedule;
  u64 cut_ = 0;     ///< items [0, cut_) are lost: all while down, or the prefix
  u64 below_ = 0;   ///< kRandom's ⌈p·2^53⌉, 0 in every other case
  u64 prefix_ = 0;  ///< the link's (plane, link, round) stream prefix
  const u8* dst_down_ = nullptr;  ///< delivery round's down bitmap, if any
};

/// One plane's drop stream (base, drop probability, mode), the drawer of
/// all three planes; at p = 0 it drops only what `down` loses.
class fault_plane {
 public:
  fault_plane() = default;
  /// Plane `plane` (a kFaultPlane* id) of a network seeded `seed`: the
  /// local plane drops with fo.drop_local, the others with fo.drop_global.
  fault_plane(u64 seed, const fault_options& fo, u64 plane)
      : base_(fault_plane_base(seed, fo.fault_seed, plane)),
        p_(plane == kFaultPlaneLocal ? fo.drop_local : fo.drop_global),
        mode_(fo.mode),
        below_(mode_ == fault_mode::kRandom
                   ? static_cast<u64>(std::ceil(p_ * 0x1.0p53))
                   : 0) {}

  /// The decisions for `count` sends over `link` in `round`; `down` loses
  /// them all. Pure, so callable from parallel steps.
  local_drops link(u64 link, u64 round, u32 count, bool down) const {
    local_drops d;
    if (down) {
      d.cut_ = ~u64{0};
    } else if (mode_ == fault_mode::kAdversarialPrefix) {
      d.cut_ = adversarial_prefix_count(p_, count);
    } else if (below_ != 0) {
      d.below_ = below_;
      d.prefix_ = fault_prefix(base_, link, round);
    }
    return d;
  }

 private:
  u64 base_ = 0;
  double p_ = 0.0;
  fault_mode mode_ = fault_mode::kRandom;
  u64 below_ = 0;
};

/// The crash schedule of either simulator as per-round down bitmaps. At a
/// round barrier, open() computes the round being opened before delivery
/// and promote() makes it current after, so a message is lost when its
/// sender was down in the send round or its receiver is down in the
/// delivery round. Without crash events it holds nothing and every node is
/// up.
class crash_schedule {
 public:
  crash_schedule() = default;
  crash_schedule(u32 n, const std::vector<crash_event>& events)
      : events_(events) {
    for (const crash_event& c : events_) {
      HYB_REQUIRE(c.node < n, "crash event node out of range");
      HYB_REQUIRE(c.down_round < c.up_round, "crash interval must be nonempty");
    }
    if (events_.empty()) return;
    cur_.assign(n, 0);
    next_.assign(n, 0);
    fill(cur_, 0);
  }

  bool active() const { return !cur_.empty(); }
  /// Node v is down in the current round.
  bool down(u32 v) const { return active() && cur_[v] != 0; }
  /// src's drawer on a message plane (global, clique) for delivery between
  /// open() and promote(): `round` is the send round being closed.
  local_drops sender(const fault_plane& plane, u32 src, u64 round,
                     u32 count) const {
    local_drops d = plane.link(src, round, count, down(src));
    if (active()) d.dst_down_ = next_.data();
    return d;
  }
  void open(u64 round) {
    if (active()) fill(next_, round);
  }
  void promote() { cur_.swap(next_); }

 private:
  void fill(std::vector<u8>& down, u64 round) const {
    std::fill(down.begin(), down.end(), 0);
    for (const crash_event& c : events_)
      if (round >= c.down_round && round < c.up_round) down[c.node] = 1;
  }

  std::vector<crash_event> events_;
  std::vector<u8> cur_;
  std::vector<u8> next_;
};

}  // namespace hybrid
