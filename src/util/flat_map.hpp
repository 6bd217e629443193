// Open-addressed flat map over entries that carry their own key — the one
// hash map of the codebase. It replaces per-node std::unordered_map state
// and keeps the sparse exploration rows:
//   * flat_u64_map<V> — u64 keys to V, for token routing's exact path
//     (store / pending / slots_of, src/proto/token_routing.cpp,
//     hundreds of thousands of tiny per-node maps) and the healed
//     exploration engine's source index (proto/heal_kernel.hpp);
//   * relax::sparse_row — exploration_entry keyed by its source, one per
//     node during h-hop exploration (proto/relax_kernel.hpp), so memory is
//     the 16-byte entries actually reached plus the probe table.
// Insertion-ordered entries live in one dense vector (pointer-stable only
// until the next mutation, like unordered_map iterators), a power-of-two
// linear probe table holds entry indices, and deletion tombstones the slot
// and swap-removes the entry, so neither lookups nor erasure ever chase
// list nodes or touch the allocator per element.
//
// Determinism: callers must not depend on iteration order across
// implementations — token routing only does point lookups, exploration
// sorts its rows when it flattens them — but the structure itself is fully
// deterministic: layout is a pure function of the operation sequence,
// never of pointer values or a seeded hash.
#pragma once

#include <algorithm>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bits.hpp"

namespace hybrid {

/// Entries of type `Entry`, keyed by the integer member `Key` points to.
/// Entry must be movable; erase() swap-removes, so moves must not
/// invalidate the entry's state (vectors, scalars are fine).
template <class Entry, auto Key>
class flat_map {
 public:
  using key_type = std::remove_cvref_t<decltype(std::declval<Entry>().*Key)>;

  /// The key's entry, or nullptr when absent. Valid until the next
  /// mutating call (exactly the unordered_map iterator contract callers
  /// already obeyed).
  Entry* find(key_type key) {
    return const_cast<Entry*>(static_cast<const flat_map*>(this)->find(key));
  }
  const Entry* find(key_type key) const {
    if (table_.empty()) return nullptr;
    u32 i = probe_start(key);
    for (;;) {
      const u32 slot = table_[i];
      if (slot == kEmpty) return nullptr;
      if (slot != kTomb && entries_[slot - 1].*Key == key)
        return &entries_[slot - 1];
      i = (i + 1) & mask_;
    }
  }
  bool contains(key_type key) const { return find(key) != nullptr; }

  /// Insert `e` iff its key is absent, in one probe. Returns the key's
  /// entry and whether it inserted (the unordered_map insert contract —
  /// never overwrites).
  std::pair<Entry*, bool> insert(Entry e) {
    if (table_.empty()) grow();
    const key_type key = e.*Key;
    u32* target = nullptr;
    u32 i = probe_start(key);
    for (;;) {
      u32& slot = table_[i];
      if (slot == kEmpty) {
        if (target == nullptr) target = &slot;
        break;
      }
      if (slot == kTomb) {
        if (target == nullptr) target = &slot;
      } else if (entries_[slot - 1].*Key == key) {
        return {&entries_[slot - 1], false};
      }
      i = (i + 1) & mask_;
    }
    if (*target == kTomb) --tombstones_;
    entries_.push_back(std::move(e));
    *target = static_cast<u32>(entries_.size());
    Entry* const inserted = &entries_.back();
    // Keep (live + tombstone) load under 1/2 so probe chains stay short.
    if (2 * (entries_.size() + tombstones_) >= table_.size()) grow();
    return {inserted, true};
  }

  /// The key's entry, value-initialized and inserted when absent (the
  /// unordered_map operator[] semantics).
  Entry& operator[](key_type key) {
    Entry e{};
    e.*Key = key;
    return *insert(std::move(e)).first;
  }

  /// Remove key if present. Swap-removes the entry and tombstones the
  /// probe slot, so erase is O(probe) with no heap traffic.
  void erase(key_type key) {
    if (table_.empty()) return;
    u32 i = probe_start(key);
    for (;;) {
      u32& slot = table_[i];
      if (slot == kEmpty) return;
      if (slot != kTomb && entries_[slot - 1].*Key == key) {
        const u32 idx = slot - 1;
        slot = kTomb;
        ++tombstones_;
        const u32 last = static_cast<u32>(entries_.size()) - 1;
        if (idx != last) {
          // Repoint the moved entry's probe slot before the swap-remove.
          u32 j = probe_start(entries_[last].*Key);
          while (table_[j] != last + 1) j = (j + 1) & mask_;
          table_[j] = idx + 1;
          entries_[idx] = std::move(entries_[last]);
        }
        entries_.pop_back();
        return;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Live entries in insertion order (an erase moves the last one into
  /// the hole).
  std::span<const Entry> entries() const { return entries_; }
  u32 size() const { return static_cast<u32>(entries_.size()); }
  bool empty() const { return entries_.empty(); }

  /// Forget all entries but keep both arrays' capacity (scratch reuse).
  void clear() {
    entries_.clear();
    std::fill(table_.begin(), table_.end(), kEmpty);
    tombstones_ = 0;
  }

 private:
  static constexpr u32 kEmpty = 0;
  static constexpr u32 kTomb = ~u32{0};

  /// splitmix64 finalizer: full-avalanche, so sequential keys spread.
  u32 probe_start(key_type key) const {
    u64 x = static_cast<u64>(key);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<u32>(x) & mask_;
  }

  /// Rehash into a table sized for the live entries (doubling while the
  /// live load alone demands it); tombstones are dropped wholesale.
  void grow() {
    u32 cap = table_.empty() ? 8 : static_cast<u32>(table_.size());
    while (2 * (entries_.size() + 1) >= cap) cap *= 2;
    table_.assign(cap, kEmpty);
    mask_ = cap - 1;
    tombstones_ = 0;
    for (u32 k = 0; k < entries_.size(); ++k) {
      u32 i = probe_start(entries_[k].*Key);
      while (table_[i] != kEmpty) i = (i + 1) & mask_;
      table_[i] = k + 1;
    }
  }

  std::vector<Entry> entries_;
  /// Probe table of entry index + 1 (kEmpty = free, kTomb = erased);
  /// size is a power of two.
  std::vector<u32> table_;
  u32 mask_ = 0;
  u32 tombstones_ = 0;
};

/// A u64 key and its mapped value: flat_u64_map's entry.
template <class V>
struct u64_entry {
  u64 key;
  V value;
};

/// Maps u64 keys to V; find() and operator[] hand out the whole entry, so
/// the mapped value is its `.value`.
template <class V>
using flat_u64_map = flat_map<u64_entry<V>, &u64_entry<V>::key>;

}  // namespace hybrid
