// Flat-arena mailboxes with parallel counting-sort delivery.
//
// Both simulators (hybrid_net, clique_net) move per-round messages between
// nodes. The PR-2 implementation kept a `std::vector<std::vector<Msg>>` pair
// (outbox, inbox) and delivered with one sequential scan — O(total messages)
// of pointer-chasing plus per-round clear()/realloc churn, the last
// sequential O(n·γ) section in the round loop (ROADMAP). `flat_mailbox`
// replaces that with two reused arenas and a deterministic parallel
// counting sort:
//
//   * Outbox: one flat arena of n·stride message slots; node v's slab is
//     [v·stride, v·stride + sends(v)). push() is src-private (one slot write
//     plus a counter bump, no heap allocation), so parallel round steps can
//     send with no atomics and no locks, exactly as before. When a node
//     outgrows its slab the excess goes to a per-node overflow vector
//     (still src-private) and the arena is re-strided at the next barrier,
//     so steady state is overflow-free: slabs start small (idle networks
//     stay cheap even at large n) and converge to the observed per-round
//     peak — γ at most in the HYBRID simulator — after one warm-up round.
//   * Delivery (`deliver()`, called at the round barrier only) is a
//     counting sort by destination, parallel over the executor's static
//     source shards and restructured (PR 10) so every inner loop is a
//     contiguous stream the compiler can auto-vectorize:
//       (1) COUNT (parallel): each shard histograms its messages into its
//           private (n+1)-wide count row. On drawn (faulty) rounds the
//           shard first freezes the drop verdicts into a contiguous u32
//           key stream — each message is decided exactly ONCE, dropped
//           ones become the sentinel key `n` — and histograms that stream
//           branchlessly (drops land in the sentinel column); undrawn
//           rounds histogram the slabs directly, which measures faster
//           than paying an extraction pass they don't need;
//       (2) PREFIX (orchestrator, O(n·T) independent of message volume):
//           three shard-row-contiguous sweeps — column totals across the
//           active rows, one exclusive prefix over the totals, and the
//           conversion of each count row into scatter cursors — replacing
//           the old dst-outer/shard-inner walk whose stride-n row hops
//           defeated both the cache and the vectorizer;
//       (3) SCATTER (parallel): each shard walks its sources ascending and
//           copies each message to `arena[cursor[dst]++]` — a single
//           branchless fixed-stride-read line for the drawn and undrawn
//           paths alike, because on drawn rounds dst comes
//           from the key stream and dropped messages scatter into a
//           write-only trash region after the kept slices (cursor column
//           n), never into an inbox.
//     Slices are filled shard-ascending and shards are contiguous
//     ascending node ranges, so every inbox ends up sorted by
//     (src, send-index): bit-identical to the old sequential scan at every
//     thread count (docs/CONCURRENCY.md §5).
//
// All buffers are high-water-marked and reused across rounds; after a short
// warm-up a round performs zero heap allocations (asserted by
// tests/mailbox_test.cpp via stats(), quantified by bench_mailbox and
// bench_scatter). Fault injection (docs/FAULTS.md): the drop decisions
// are pure (one drawer per sender, sim/fault.hpp's local_drops) and frozen
// into the key stream, so the prefix sums describe exactly the kept set
// and the surviving subset lands in the same (src, send-index) order at
// every thread count — sparse (drawn) outboxes keep the full determinism
// contract.
#pragma once

#include <algorithm>
#include <span>
#include <type_traits>
#include <vector>

#include "sim/executor.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

namespace hybrid {

/// Arena occupancy/allocation probe (tests assert no growth after warm-up).
struct mailbox_stats {
  u32 stride = 0;             ///< current outbox slab width (slots per node)
  u64 outbox_slots = 0;       ///< total outbox arena slots (n · stride)
  u64 inbox_slots = 0;        ///< flat inbox arena high-water size (messages)
  u64 grow_events = 0;        ///< arena (re)allocations since construction
  u64 overflow_messages = 0;  ///< sends that missed the slab (pre-re-stride)
  u64 delivered_last_round = 0;
  u64 delivered_total = 0;
  u64 sent_total = 0;     ///< pushes seen by deliver() (kept + dropped)
  u64 dropped_total = 0;  ///< pushes deliver()'s drawer dropped
};

/// Msg must expose `u32 src` / `u32 dst` members (global_msg, clique_msg).
template <class Msg>
class flat_mailbox {
 public:
  /// `per_node_cap`: hard per-round send cap per node (γ, or n for the
  /// clique). `initial_stride`: starting slab width; pass the cap to make
  /// overflow impossible, or a small value to let sparse workloads stay
  /// small (the arena re-strides itself up to the cap on demand).
  flat_mailbox(u32 n, u32 per_node_cap, u32 initial_stride)
      : n_(n),
        cap_(std::max<u32>(1, per_node_cap)),
        stride_(std::clamp<u32>(initial_stride, 1, cap_)),
        out_arena_(static_cast<std::size_t>(n) * stride_),
        out_count_(n, 0),
        overflow_(n),
        in_begin_(static_cast<std::size_t>(n) + 1, 0) {}

  u32 per_node_cap() const { return cap_; }
  u32 sends(u32 src) const { return out_count_[src]; }

  /// Enqueue for the next deliver(). src-private: touches only src's slab
  /// slot, counter, and (on slab overflow) src's overflow vector, so
  /// distinct sources may push concurrently within a parallel round step.
  void push(const Msg& m) {
    const u32 src = m.src;
    const u32 at = out_count_[src]++;
    HYB_INVARIANT(at < cap_, "per-node per-round send cap exceeded");
    if (at < stride_) {
      out_arena_[static_cast<std::size_t>(src) * stride_ + at] = m;
    } else {
      auto& spill = overflow_[src];
      // Bounded up-front reserve keeps the warm-up round to O(1)
      // allocations per overflowing node instead of O(log overflow).
      if (spill.capacity() == 0)
        spill.reserve(std::min(cap_ - stride_, 2 * stride_));
      spill.push_back(m);
    }
  }

  /// Messages delivered to v at the last deliver(); sorted by
  /// (src, send-index). Valid until the next deliver().
  std::span<const Msg> inbox(u32 v) const {
    return {in_arena_.data() + in_begin_[v], in_begin_[v + 1] - in_begin_[v]};
  }
  u32 inbox_size(u32 v) const { return in_begin_[v + 1] - in_begin_[v]; }
  u64 delivered_last_round() const { return delivered_last_; }
  u64 sent_last_round() const { return sent_last_; }
  u64 dropped_last_round() const { return sent_last_ - delivered_last_; }

  /// Barrier-phase delivery: the deterministic parallel counting sort
  /// described above. Orchestrating thread only (never from inside a step);
  /// also resets all send counters and grows/re-strides arenas as needed.
  void deliver(round_executor& exec) { deliver(exec, no_drops{}); }

  /// Delivery with drops: the count pass's parallel shards call the pure
  /// `drawer(src, count)` once per sender with sends, and its result's pure
  /// `drop(send_idx, msg)` once per message. Lost messages are counted as
  /// dropped and never reach an inbox; survivors keep their order.
  template <class Drawer>
  void deliver(round_executor& exec, const Drawer& drawer) {
    // Fast path: nothing was sent this round — common in LOCAL-only phases
    // (flood drivers advance rounds without global traffic). One early-exit
    // scan of the send counters replaces the dispatches and the O(n·T)
    // prefix below; inbox offsets only need re-zeroing if the previous
    // round delivered anything.
    bool any_sends = false;
    for (u32 v = 0; v < n_; ++v)
      if (out_count_[v] != 0) {
        any_sends = true;
        break;
      }
    if (!any_sends) {
      if (delivered_last_ != 0)
        std::fill(in_begin_.begin(), in_begin_.end(), 0);
      delivered_last_ = 0;
      sent_last_ = 0;
      return;
    }

    const u32 shards = exec.shard_count(n_);
    // Count rows are (n + 1) wide: columns [0, n) are real destinations,
    // column n is the sentinel that collects dropped messages so the
    // histogram and scatter loops below stay branchless.
    const std::size_t cols = static_cast<std::size_t>(n_) + 1;
    if (counts_.size() != static_cast<std::size_t>(shards) * cols) {
      counts_.assign(static_cast<std::size_t>(shards) * cols, 0);
      ++grow_events_;
    }
    if (totals_.size() != cols) {
      totals_.assign(cols, 0);
      ++grow_events_;
    }
    // Tail shards can be empty (their count rows stay stale); the prefix
    // pass below must only read rows of shards that actually ran.
    u32 active = shards;
    while (active > 0 && exec.shard_begin(n_, active - 1) >= n_) --active;

    // Drawn rounds freeze the drop verdicts into a per-shard contiguous
    // key stream: shard s's messages map to keys_[key_begin_[s],
    // key_begin_[s+1]) in (src, send-index) order, dropped ones as the
    // sentinel key n. The draws then run exactly ONCE per message instead
    // of once in the count pass and again in the scatter, and both
    // downstream loops stay branchless. Undrawn rounds skip the stream:
    // for them the extraction pass is pure overhead (measured ~20 % on
    // bench_mailbox), and their count/scatter loops are sentinel-free.
    constexpr bool keyed = !std::is_same_v<Drawer, no_drops>;
    if constexpr (keyed) {
      if (key_begin_.size() != static_cast<std::size_t>(shards) + 1)
        key_begin_.assign(static_cast<std::size_t>(shards) + 1, 0);
      u64 queued = 0;
      for (u32 s = 0; s < shards; ++s) {
        key_begin_[s] = queued;
        const u32 begin = exec.shard_begin(n_, s);
        const u32 end = exec.shard_begin(n_, s + 1);
        for (u32 src = begin; src < end; ++src) queued += out_count_[src];
      }
      key_begin_[shards] = queued;
      if (keys_.size() < queued) {
        keys_.resize(std::max<std::size_t>(queued, 2 * keys_.size()));
        ++grow_events_;
      }
    }

    // Pass 1 (parallel over source shards): count per destination — for
    // drawn rounds, extract the key stream first and histogram the
    // contiguous u32 stream (branchless: drops land in the sentinel
    // column). Each shard writes only its own counts_ row. The dispatch
    // lambdas capture `this` and at most the drawer by pointer, so the
    // executor's std::function wrapper always fits its 16-byte
    // small-buffer slot: deliver() stays at ZERO heap allocations per
    // steady-state round no matter how many parameters the passes need —
    // gated by bench_scatter's zero_alloc_rounds field, which caught a
    // capture-one-local-too-many regression costing an allocation per
    // dispatch while this kernel was being written.
    const Drawer* draw = &drawer;
    exec.for_shards(n_, [this, draw](u32 s, u32 begin, u32 end) {
      count_shard(s, begin, end, *draw);
    });

    // Prefix (orchestrator, O(n·T) independent of message volume) as three
    // shard-row-contiguous sweeps — every loop below walks consecutive
    // memory, so they auto-vectorize where the old dst-outer/shard-inner
    // walk (stride-n hops between rows per destination) could not.
    // (a) Column totals across the active rows.
    {
      const u32* row0 = counts_.data();
      std::copy(row0, row0 + cols, totals_.data());
      for (u32 s = 1; s < active; ++s) {
        const u32* row = counts_.data() + static_cast<std::size_t>(s) * cols;
        u32* t = totals_.data();
        for (std::size_t d = 0; d < cols; ++d) t[d] += row[d];
      }
    }
    // (b) Exclusive prefix over the totals: in_begin_[d] becomes the start
    // of d's inbox slice and totals_[d] the column's first free slot. The
    // sentinel column's slots — the trash region dropped messages scatter
    // into — sit after every kept slice, so inboxes never see them.
    u64 total = 0;
    for (u32 d = 0; d < n_; ++d) {
      in_begin_[d] = static_cast<u32>(total);
      const u32 cnt = totals_[d];
      totals_[d] = static_cast<u32>(total);
      total += cnt;
    }
    const u64 dropped_now = totals_[n_];
    in_begin_[n_] = static_cast<u32>(total);
    totals_[n_] = static_cast<u32>(total);
    HYB_INVARIANT(total + dropped_now <= ~u32{0},
                  "round message volume overflows u32");
    delivered_last_ = total;
    delivered_total_ += total;

    // (c) Convert each count row into scatter cursors: cursor[s][d] =
    // column start + messages of earlier shards. Row-contiguous again.
    for (u32 s = 0; s < active; ++s) {
      u32* row = counts_.data() + static_cast<std::size_t>(s) * cols;
      u32* t = totals_.data();
      for (std::size_t d = 0; d < cols; ++d) {
        const u32 cnt = row[d];
        row[d] = t[d];
        t[d] += cnt;
      }
    }

    if (in_arena_.size() < total + dropped_now) {
      // Geometric growth, never shrunk: the arena is a high-water buffer.
      // The trash region (dropped_now slots) lives past the kept slices.
      in_arena_.resize(
          std::max<std::size_t>(total + dropped_now, 2 * in_arena_.size()));
      ++grow_events_;
    }

    // Pass 2 (parallel over source shards): scatter. Shard-private cursor
    // rows address disjoint slices (including disjoint trash sub-regions
    // for the sentinel column), so writes never race; walking sources in
    // ascending order within each contiguous shard yields the global
    // (src, send-index) order. One branchless line per message: the source
    // side is a fixed-stride slab read plus the sequential key stream.
    exec.for_shards(n_, [this](u32 s, u32 begin, u32 end) {
      scatter_shard<keyed>(s, begin, end);
    });

    // Reset outboxes; re-stride once if any slab overflowed this round so
    // the same workload shape never overflows (or allocates) again.
    u32 max_count = 0;
    u64 sent = 0;
    for (u32 v = 0; v < n_; ++v) {
      max_count = std::max(max_count, out_count_[v]);
      sent += out_count_[v];
      out_count_[v] = 0;
      if (!overflow_[v].empty()) {
        overflow_total_ += overflow_[v].size();
        overflow_[v].clear();  // keeps capacity; unused once re-strided
      }
    }
    if (max_count > stride_) {
      stride_ = std::min(cap_, std::max(max_count, 2 * stride_));
      out_arena_.resize(static_cast<std::size_t>(n_) * stride_);
      ++grow_events_;
    }
    sent_last_ = sent;
    sent_total_ += sent;
    dropped_total_ += sent - delivered_last_;
  }

  mailbox_stats stats() const {
    return {stride_,
            static_cast<u64>(n_) * stride_,
            in_arena_.size(),
            grow_events_,
            overflow_total_,
            delivered_last_,
            delivered_total_,
            sent_total_,
            dropped_total_};
  }

  /// Release the high-water arenas back to their construction size (memory
  /// only — no observable change; they regrow on demand). For long idle
  /// stretches at large n, e.g. after a γ-saturated phase whose arenas
  /// (n·γ slots both sides) would otherwise sit on hundreds of MB while a
  /// charged stand-in or LOCAL-only phase runs. Orchestrating thread only,
  /// between rounds (nothing queued, previous inboxes no longer read).
  void trim() {
    HYB_INVARIANT(std::all_of(out_count_.begin(), out_count_.end(),
                              [](u32 c) { return c == 0; }),
                  "trim with queued sends");
    stride_ = 1;
    std::vector<Msg>(static_cast<std::size_t>(n_)).swap(out_arena_);
    std::vector<Msg>().swap(in_arena_);
    std::vector<u32>().swap(counts_);
    std::vector<u32>().swap(totals_);
    std::vector<u32>().swap(keys_);
    std::vector<u64>().swap(key_begin_);
    std::fill(in_begin_.begin(), in_begin_.end(), 0);
    for (auto& spill : overflow_) std::vector<Msg>().swap(spill);
    delivered_last_ = 0;
    sent_last_ = 0;
    ++grow_events_;
  }

 private:
  /// The undrawn deliver(): no fault plane, no key stream.
  struct no_drops {};

  /// Visit src's queued messages in send order (slab, then overflow).
  template <class F>
  void for_each_out(u32 src, F&& f) const {
    const u32 count = out_count_[src];
    const Msg* slab = out_arena_.data() + static_cast<std::size_t>(src) * stride_;
    const u32 in_slab = std::min(count, stride_);
    for (u32 i = 0; i < in_slab; ++i) f(slab[i]);
    for (u32 i = in_slab; i < count; ++i) f(overflow_[src][i - in_slab]);
  }

  /// Delivery pass 1 for one shard (parallel; writes only row s of counts_
  /// and shard s's key-stream segment).
  template <class Drawer>
  void count_shard(u32 s, u32 begin, u32 end, const Drawer& drawer) {
    const std::size_t cols = static_cast<std::size_t>(n_) + 1;
    u32* row = counts_.data() + static_cast<std::size_t>(s) * cols;
    std::fill_n(row, cols, 0);
    if constexpr (std::is_same_v<Drawer, no_drops>) {
      for (u32 src = begin; src < end; ++src)
        for_each_out(src, [&](const Msg& m) { ++row[m.dst]; });
    } else {
      u32* keys = keys_.data() + key_begin_[s];
      u32 k = 0;
      for (u32 src = begin; src < end; ++src) {
        if (out_count_[src] == 0) continue;
        const auto drops = drawer(src, out_count_[src]);
        u32 i = 0;
        for_each_out(src, [&](const Msg& m) {
          keys[k++] = drops.drop(i++, m) ? n_ : m.dst;
        });
      }
      for (u32 j = 0; j < k; ++j) ++row[keys[j]];
    }
  }

  /// Delivery pass 2 for one shard (parallel; writes only the arena slices
  /// row s's cursors address — kept slices plus shard s's trash segment).
  template <bool keyed>
  void scatter_shard(u32 s, u32 begin, u32 end) {
    const std::size_t cols = static_cast<std::size_t>(n_) + 1;
    u32* cursor = counts_.data() + static_cast<std::size_t>(s) * cols;
    Msg* arena = in_arena_.data();
    if constexpr (!keyed) {
      for (u32 src = begin; src < end; ++src)
        for_each_out(src, [&](const Msg& m) { arena[cursor[m.dst]++] = m; });
    } else {
      const u32* keys = keys_.data() + key_begin_[s];
      u32 k = 0;
      for (u32 src = begin; src < end; ++src)
        for_each_out(src,
                     [&](const Msg& m) { arena[cursor[keys[k++]]++] = m; });
    }
  }

  u32 n_;
  u32 cap_;
  u32 stride_;
  std::vector<Msg> out_arena_;   ///< n · stride slots, slab per node
  std::vector<u32> out_count_;   ///< sends this round, per node
  std::vector<std::vector<Msg>> overflow_;  ///< slab spill (rare, re-strided)
  std::vector<Msg> in_arena_;    ///< delivered messages, dst-contiguous
  std::vector<u32> in_begin_;    ///< inbox slice offsets, size n+1
  std::vector<u32> counts_;      ///< shard-count / scatter-cursor matrix,
                                 ///< (n+1)-wide rows (column n = dropped)
  std::vector<u32> totals_;      ///< prefix scratch: column totals → next
                                 ///< free slot per column, size n+1
  std::vector<u32> keys_;        ///< per-shard contiguous dst-key streams
                                 ///< (sentinel n = dropped), high-water
  std::vector<u64> key_begin_;   ///< key-stream offset per shard, size T+1
  u64 delivered_last_ = 0;
  u64 delivered_total_ = 0;
  u64 sent_last_ = 0;
  u64 sent_total_ = 0;
  u64 dropped_total_ = 0;
  u64 overflow_total_ = 0;
  u64 grow_events_ = 0;
};

}  // namespace hybrid
