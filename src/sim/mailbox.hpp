// Flat-arena mailboxes with parallel counting-sort delivery by slot index.
//
// Both simulators (hybrid_net, clique_net) move per-round messages between
// nodes. `flat_mailbox` leaves every message where its sender wrote it and
// delivers a u32 slot index per message instead of a copy:
//
//   * Outboxes: two flat arenas of n·stride message slots that take turns
//     (double-buffered). Node v's slab in the sending arena is
//     [v·stride, v·stride + sends(v)). push() is src-private (one slot write
//     plus a counter bump, no heap allocation), so parallel round steps can
//     send with no atomics and no locks. When a node outgrows its slab the
//     excess goes to a per-node overflow vector (still src-private), and the
//     barrier re-strides the sending arena before counting — slabs and
//     overflow copied into the wider slabs — so every message sits at a
//     slot. Slabs start small (idle networks stay cheap even at large n)
//     and converge to the observed per-round peak — γ at most in the HYBRID
//     simulator — after one warm-up round.
//   * Delivery (`deliver()`, called at the round barrier only) is a
//     counting sort by destination, parallel over the executor's static
//     source shards, whose inner loops are contiguous streams:
//       (1) COUNT (parallel): each shard histograms its messages into its
//           private (n+1)-wide count row and sums their payload words. On
//           drawn (faulty) rounds the shard first freezes the drop verdicts
//           into a contiguous u32 key stream — each message is decided
//           exactly ONCE, dropped ones become the sentinel key `n`, whose
//           column collects them — and histograms that stream; undrawn
//           rounds histogram the slabs directly;
//       (2) PREFIX (orchestrator, O(n·T) independent of message volume):
//           three shard-row-contiguous sweeps — column totals across the
//           active rows, one exclusive prefix over the totals (which also
//           takes the largest inbox), and the conversion of each count row
//           into scatter cursors;
//       (3) SCATTER (parallel): each shard walks its sources ascending,
//           writes each message's slot `src·stride + i` to
//           `index[cursor[dst]++]` — 4 bytes, not the message — and zeroes
//           its sources' send counters. On drawn rounds dst comes from the
//           key stream, and dropped messages' slots land in a write-only
//           trash region after the kept slices, never in an inbox.
//     The delivered arena then becomes the read side and the other one
//     takes the next round's sends, so a step may read round r's inbox
//     while it sends for round r + 1. Slices are filled shard-ascending and
//     shards are contiguous ascending node ranges, so every inbox is
//     ordered by (src, send-index): bit-identical at every thread count
//     (docs/CONCURRENCY.md §5).
//
// All buffers are high-water-marked and reused across rounds; after a short
// warm-up a round performs zero heap allocations (asserted by
// tests/mailbox_test.cpp via stats(), quantified by bench_mailbox and
// bench_scatter). Fault injection (docs/FAULTS.md): the drop decisions
// are pure (one drawer per sender, sim/fault.hpp's local_drops) and frozen
// into the key stream, so the surviving subset lands in the same
// (src, send-index) order at every thread count.
#pragma once

#include <algorithm>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "sim/executor.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

namespace hybrid {

/// Arena occupancy/allocation probe (tests assert no growth after warm-up).
/// Sizes count message slots: (outbox_slots + inbox_slots) · sizeof(Msg)
/// is the arena footprint.
struct mailbox_stats {
  u32 stride = 0;             ///< current outbox slab width (slots per node)
  u64 outbox_slots = 0;       ///< both outbox arenas
  u64 inbox_slots = 0;        ///< index arena bytes / sizeof(Msg), rounded up
  u64 grow_events = 0;        ///< arena (re)allocations since construction
  u64 overflow_messages = 0;  ///< sends that missed the slab (pre-re-stride)
  u64 delivered_last_round = 0;
  u64 delivered_total = 0;
  u64 sent_total = 0;     ///< pushes seen by deliver() (kept + dropped)
  u64 dropped_total = 0;  ///< pushes deliver()'s drawer dropped
};

/// Uninitialized storage for the arenas. Every slot is written before it
/// is read, so (re)allocation copies nothing and zero-fills nothing, and
/// pages never written stay out of the resident set.
template <class T>
struct scratch_array {
  static_assert(std::is_trivially_copyable_v<T>);
  struct release {
    void operator()(T* p) const { ::operator delete(p); }
  };
  std::unique_ptr<T, release> data;
  std::size_t size = 0;
  void reset(std::size_t count) {  // frees first: old and new never coexist
    data.reset();
    if (count) data.reset(static_cast<T*>(::operator new(count * sizeof(T))));
    size = count;
  }
};

/// One node's delivered messages: its slice of slot indices, resolved
/// against the outbox arena they were sent in. Ordered by (src,
/// send-index); valid until the next deliver().
template <class Msg>
class inbox_view {
 public:
  struct iterator {
    const Msg* slots;
    const u32* at;
    const Msg& operator*() const { return slots[*at]; }
    iterator& operator++() {
      ++at;
      return *this;
    }
    bool operator==(const iterator& o) const { return at == o.at; }
  };
  inbox_view(const Msg* slots, const u32* at, u32 size)
      : slots_(slots), at_(at), size_(size) {}
  u32 size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Msg& operator[](u32 i) const { return slots_[at_[i]]; }
  iterator begin() const { return {slots_, at_}; }
  iterator end() const { return {slots_, at_ + size_}; }

 private:
  const Msg* slots_;
  const u32* at_;
  u32 size_;
};

/// Msg must expose `u32 src`, `u32 dst` and `u8 nw` (payload words)
/// members (global_msg, clique_msg).
template <class Msg>
class flat_mailbox {
 public:
  /// `per_node_cap`: hard per-round send cap per node (γ, or n for the
  /// clique); n · cap must stay below 2³², the u32 slot-index range.
  /// `initial_stride`: starting slab width; pass the cap to make overflow
  /// impossible, or a small value to let sparse workloads stay small (the
  /// arenas re-stride themselves up to the cap on demand).
  flat_mailbox(u32 n, u32 per_node_cap, u32 initial_stride)
      : n_(n),
        cap_(std::max<u32>(1, per_node_cap)),
        stride_(std::clamp<u32>(initial_stride, 1, cap_)),
        out_count_(n, 0),
        overflow_(n),
        in_begin_(static_cast<std::size_t>(n) + 1, 0) {
    HYB_REQUIRE(u64{n} * cap_ < (u64{1} << 32),
                "n · per-node cap must stay below 2^32 (u32 slot indices)");
    for (auto& arena : out_) arena.reset(std::size_t{n} * stride_);
  }

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
      out_[cur_].data.get()[std::size_t{src} * stride_ + at] = m;
    } else {
      auto& spill = overflow_[src];
      // Bounded up-front reserve keeps the warm-up round to O(1)
      // allocations per overflowing node instead of O(log overflow).
      if (spill.capacity() == 0)
        spill.reserve(std::min(cap_ - stride_, 2 * stride_));
      spill.push_back(m);
    }
  }

  /// Messages delivered to v at the last deliver(); ordered by
  /// (src, send-index). Valid until the next deliver().
  inbox_view<Msg> inbox(u32 v) const {
    return {out_[cur_ ^ 1].data.get(), idx_.data.get() + in_begin_[v],
            in_begin_[v + 1] - in_begin_[v]};
  }
  u64 delivered_last_round() const { return delivered_last_; }
  u64 sent_last_round() const { return sent_last_; }
  u64 dropped_last_round() const { return sent_last_ - delivered_last_; }
  /// Payload words (Msg::nw) the last round delivered.
  u64 payload_words_last_round() const { return words_last_; }
  u32 max_inbox_last_round() const { return max_inbox_last_; }

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
    // One vectorizable scan of the send counters: the round's volume and
    // its largest sender. A round without sends — common in LOCAL-only
    // phases — skips the dispatches and the O(n·T) prefix below; inbox
    // offsets only need re-zeroing if the previous round delivered.
    u64 sent = 0;
    u32 widest_out = 0;
    for (u32 v = 0; v < n_; ++v) {
      sent += out_count_[v];
      widest_out = std::max(widest_out, out_count_[v]);
    }
    if (sent == 0) {
      if (delivered_last_ != 0)
        std::fill(in_begin_.begin(), in_begin_.end(), 0);
      delivered_last_ = sent_last_ = words_last_ = max_inbox_last_ = 0;
      return;
    }
    // A slab overflowed: widen the sending arena first, so the passes
    // below find every message in its slab and can name it by its slot.
    if (widest_out > stride_) restride(widest_out);

    const u32 shards = exec.shard_count(n_);
    // Count rows are (n + 1) wide: columns [0, n) are real destinations,
    // column n is the sentinel that collects dropped messages so the
    // histogram and scatter loops below stay branchless.
    const std::size_t cols = std::size_t{n_} + 1;
    if (counts_.size() != shards * cols) {
      counts_.assign(shards * cols, 0);
      totals_.assign(cols, 0);
      shard_words_.assign(shards, 0);
      ++grow_events_;
    }
    // Tail shards can be empty (the executor skips them, so their rows
    // stay stale); only shards that ran are read below.
    u32 active = shards;
    while (active > 0 && exec.shard_begin(n_, active - 1) >= n_) --active;

    // Drawn rounds' key stream: shard s's messages map to
    // keys_[key_begin_[s], key_begin_[s+1]) in (src, send-index) order.
    constexpr bool keyed = !std::is_same_v<Drawer, no_drops>;
    if constexpr (keyed) {
      key_begin_.resize(std::size_t{shards} + 1);
      u64 queued = 0;
      for (u32 s = 0; s < shards; ++s) {
        key_begin_[s] = queued;
        const u32 end = exec.shard_begin(n_, s + 1);
        for (u32 src = exec.shard_begin(n_, s); src < end; ++src)
          queued += out_count_[src];
      }
      key_begin_[shards] = queued;
      if (keys_.size < queued) {
        keys_.reset(std::max<std::size_t>(queued, 2 * keys_.size));
        ++grow_events_;
      }
    }

    // Pass 1 (parallel over source shards): count per destination.
    exec.for_shards(n_, [&](u32 s, u32 begin, u32 end) {
      count_shard(s, begin, end, drawer);
    });

    // Prefix (orchestrator, O(n·T) independent of message volume) as three
    // shard-row-contiguous sweeps that auto-vectorize.
    // (a) Column totals across the active rows.
    u32* t = totals_.data();
    std::copy_n(counts_.data(), cols, t);
    for (u32 s = 1; s < active; ++s) {
      const u32* row = counts_.data() + s * cols;
      for (std::size_t d = 0; d < cols; ++d) t[d] += row[d];
    }
    // (b) Exclusive prefix over the totals: in_begin_[d] becomes the start
    // of d's inbox slice and t[d] the column's first free slot. The
    // sentinel column's slots — the trash region dropped messages scatter
    // into — sit after every kept slice, so inboxes never see them. Sums
    // fit in u32: the constructor bounds n · cap below 2³².
    u32 total = 0;
    u32 widest_in = 0;
    for (u32 d = 0; d < n_; ++d) {
      in_begin_[d] = total;
      const u32 cnt = t[d];
      widest_in = std::max(widest_in, cnt);
      t[d] = total;
      total += cnt;
    }
    in_begin_[n_] = total;
    t[n_] = total;
    // (c) Convert each count row into scatter cursors: cursor[s][d] =
    // column start + messages of earlier shards.
    for (u32 s = 0; s < active; ++s) {
      u32* row = counts_.data() + s * cols;
      for (std::size_t d = 0; d < cols; ++d) {
        const u32 cnt = row[d];
        row[d] = t[d];
        t[d] += cnt;
      }
    }
    if (idx_.size < sent) {  // kept slices plus the trash region
      idx_.reset(std::max<std::size_t>(sent, 2 * idx_.size));
      ++grow_events_;
    }

    // Pass 2 (parallel over source shards): scatter slot indices. Shard-
    // private cursor rows address disjoint slices (including disjoint trash
    // sub-regions), so writes never race; walking sources in ascending
    // order within each contiguous shard yields the global
    // (src, send-index) order.
    exec.for_shards(n_, [this](u32 s, u32 begin, u32 end) {
      scatter_shard<keyed>(s, begin, end);
    });

    // Swap roles: the delivered arena is read until the next deliver(); the
    // other one, two rounds old and dead, takes the next round's sends.
    cur_ ^= 1;
    if (out_[cur_].size < std::size_t{n_} * stride_) {
      out_[cur_].reset(std::size_t{n_} * stride_);
      ++grow_events_;
    }
    u64 words = 0;
    for (u32 s = 0; s < active; ++s) words += shard_words_[s];
    delivered_last_ = total;
    delivered_total_ += total;
    sent_last_ = sent;
    sent_total_ += sent;
    dropped_total_ += sent - total;
    words_last_ = words;
    max_inbox_last_ = widest_in;
  }

  mailbox_stats stats() const {
    return {stride_,
            out_[0].size + out_[1].size,
            ceil_div(idx_.size * sizeof(u32), sizeof(Msg)),
            grow_events_,
            overflow_total_,
            delivered_last_,
            delivered_total_,
            sent_total_,
            dropped_total_};
  }

  /// Release the high-water arenas back to 1-slot slabs (memory only — no
  /// observable change; they regrow on demand). For long idle stretches at
  /// large n, e.g. after a γ-saturated phase whose arenas would otherwise
  /// sit on hundreds of MB while a charged stand-in or LOCAL-only phase
  /// runs. Orchestrating thread only, between rounds (nothing queued,
  /// previous inboxes no longer read).
  void trim() {
    HYB_INVARIANT(std::all_of(out_count_.begin(), out_count_.end(),
                              [](u32 c) { return c == 0; }),
                  "trim with queued sends");
    stride_ = 1;
    for (auto& arena : out_) arena.reset(n_);
    idx_.reset(0);
    keys_.reset(0);
    std::vector<u32>().swap(counts_);
    std::vector<u32>().swap(totals_);
    std::vector<u64>().swap(shard_words_);
    std::vector<u64>().swap(key_begin_);
    std::fill(in_begin_.begin(), in_begin_.end(), 0);
    for (auto& spill : overflow_) std::vector<Msg>().swap(spill);
    delivered_last_ = sent_last_ = words_last_ = max_inbox_last_ = 0;
    ++grow_events_;
  }

 private:
  /// The undrawn deliver(): no fault plane, no key stream.
  struct no_drops {};

  /// Widen the sending arena's slabs to hold `widest` sends (at least
  /// double, at most the cap), moving every slab and overflow vector into
  /// its new slab. Warm-up rounds only.
  void restride(u32 widest) {
    const u32 wide = std::min(cap_, std::max(widest, 2 * stride_));
    scratch_array<Msg> grown;
    grown.reset(std::size_t{n_} * wide);
    for (u32 src = 0; src < n_; ++src) {
      const Msg* from = out_[cur_].data.get() + std::size_t{src} * stride_;
      Msg* to = grown.data.get() + std::size_t{src} * wide;
      to = std::copy_n(from, std::min(out_count_[src], stride_), to);
      std::copy(overflow_[src].begin(), overflow_[src].end(), to);
      overflow_total_ += overflow_[src].size();
      overflow_[src].clear();  // keeps capacity; unused once re-strided
    }
    out_[cur_] = std::move(grown);
    stride_ = wide;
    ++grow_events_;
  }

  /// Delivery pass 1 for one shard (parallel; writes only row s of counts_,
  /// shard s's key-stream segment and shard_words_[s]).
  template <class Drawer>
  void count_shard(u32 s, u32 begin, u32 end, const Drawer& drawer) {
    const std::size_t cols = std::size_t{n_} + 1;
    u32* row = counts_.data() + s * cols;
    std::fill_n(row, cols, 0);
    u64 words = 0;
    [[maybe_unused]] u32* keys = nullptr;
    if constexpr (!std::is_same_v<Drawer, no_drops>)
      keys = keys_.data.get() + key_begin_[s];
    for (u32 src = begin; src < end; ++src) {
      const u32 count = out_count_[src];
      const Msg* m = out_[cur_].data.get() + std::size_t{src} * stride_;
      if constexpr (std::is_same_v<Drawer, no_drops>) {
        for (u32 i = 0; i < count; ++i) {
          ++row[m[i].dst];
          words += m[i].nw;
        }
      } else if (count != 0) {
        const auto drops = drawer(src, count);
        for (u32 i = 0; i < count; ++i) {
          const bool lost = drops.drop(i, m[i]);
          *keys++ = lost ? n_ : m[i].dst;
          words += lost ? 0 : m[i].nw;
        }
      }
    }
    if constexpr (!std::is_same_v<Drawer, no_drops>)
      for (const u32* k = keys_.data.get() + key_begin_[s]; k != keys; ++k)
        ++row[*k];
    shard_words_[s] = words;
  }

  /// Delivery pass 2 for one shard (parallel; writes only the index slices
  /// row s's cursors address — kept slices plus shard s's trash segment —
  /// and its own sources' send counters).
  template <bool keyed>
  void scatter_shard(u32 s, u32 begin, u32 end) {
    u32* cursor = counts_.data() + s * (std::size_t{n_} + 1);
    u32* idx = idx_.data.get();
    const Msg* slab = out_[cur_].data.get();
    [[maybe_unused]] const u32* keys = nullptr;
    if constexpr (keyed) keys = keys_.data.get() + key_begin_[s];
    for (u32 src = begin; src < end; ++src) {
      const u32 first = src * stride_;
      const u32 last = first + out_count_[src];
      for (u32 i = first; i < last; ++i) {
        if constexpr (keyed)
          idx[cursor[*keys++]++] = i;
        else
          idx[cursor[slab[i].dst]++] = i;
      }
      out_count_[src] = 0;
    }
  }

  u32 n_;
  u32 cap_;
  u32 stride_;                    ///< slab width of the sending arena
  scratch_array<Msg> out_[2];     ///< out_[cur_] takes this round's sends;
  u32 cur_ = 0;                   ///< out_[cur_ ^ 1] holds the last round's
  std::vector<u32> out_count_;    ///< sends this round, per node
  std::vector<std::vector<Msg>> overflow_;  ///< slab spill (rare, re-strided)
  scratch_array<u32> idx_;        ///< delivered slot indices, dst-contiguous
  std::vector<u32> in_begin_;     ///< inbox slice offsets, size n+1
  std::vector<u32> counts_;       ///< shard-count / scatter-cursor matrix,
                                  ///< (n+1)-wide rows (column n = dropped)
  std::vector<u32> totals_;       ///< prefix scratch: column totals → next
                                  ///< free slot per column, size n+1
  std::vector<u64> shard_words_;  ///< payload words counted per shard
  scratch_array<u32> keys_;       ///< per-shard contiguous dst-key streams
                                  ///< (sentinel n = dropped), high-water
  std::vector<u64> key_begin_;    ///< key-stream offset per shard, size T+1
  u64 delivered_last_ = 0;
  u64 delivered_total_ = 0;
  u64 sent_last_ = 0;
  u64 sent_total_ = 0;
  u64 dropped_total_ = 0;
  u64 words_last_ = 0;
  u32 max_inbox_last_ = 0;
  u64 overflow_total_ = 0;
  u64 grow_events_ = 0;
};

}  // namespace hybrid
