// Unit tests for util/flat_map.hpp — the open-addressed flat map behind
// token routing's per-node exact-path state (store / pending / task_of /
// want_of), the healed exploration engine's source index, and the sparse
// exploration rows. Covers the unordered_map behaviours those call sites
// rely on (find-as-pointer, insert-never-overwrites, erase, operator[]
// value initialization) plus the open-addressing internals that
// unordered_map never exercised: tombstone reuse, swap-remove probe-slot
// repointing, and rehash under churn. Ends with a deterministic
// differential fuzz against std::unordered_map, over both the u64-keyed
// and the entry-keyed (exploration row) instantiation.
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "proto/sparse_exploration.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace hybrid {
namespace {

TEST(FlatMap, EmptyMapFindsNothing) {
  flat_u64_map<u64> m;
  EXPECT_EQ(m.find(0), nullptr);
  EXPECT_EQ(m.find(42), nullptr);
  EXPECT_FALSE(m.contains(42));
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  m.erase(42);  // erase on empty is a no-op, not a fault
  EXPECT_TRUE(m.empty());
}

TEST(FlatMap, SubscriptInsertsAndFinds) {
  flat_u64_map<u64> m;
  m[7].value = 70;
  m[9].value = 90;
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(m.find(7)->value, 70u);
  ASSERT_NE(m.find(9), nullptr);
  EXPECT_EQ(m.find(9)->value, 90u);
  EXPECT_EQ(m.find(8), nullptr);
  EXPECT_EQ(m.size(), 2u);
  m[7].value = 71;  // overwrite via subscript, no new entry
  EXPECT_EQ(m.find(7)->value, 71u);
  EXPECT_EQ(m.size(), 2u);
}

TEST(FlatMap, SubscriptDefaultConstructs) {
  flat_u64_map<std::vector<u32>> m;
  m[5].value.push_back(1);
  m[5].value.push_back(2);
  ASSERT_NE(m.find(5), nullptr);
  EXPECT_EQ(m.find(5)->value, (std::vector<u32>{1, 2}));
}

TEST(FlatMap, EmplaceNeverOverwrites) {
  flat_u64_map<u64> m;
  EXPECT_TRUE(m.insert({3, 30}).second);
  EXPECT_FALSE(m.insert({3, 31}).second);  // unordered_map insert contract
  EXPECT_EQ(m.find(3)->value, 30u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, EraseRemovesOnlyItsKey) {
  flat_u64_map<u64> m;
  for (u64 k = 0; k < 16; ++k) m[k].value = k * 10;
  m.erase(5);
  m.erase(5);   // double erase is a no-op
  m.erase(99);  // absent key is a no-op
  EXPECT_EQ(m.size(), 15u);
  for (u64 k = 0; k < 16; ++k) {
    if (k == 5) {
      EXPECT_EQ(m.find(k), nullptr);
    } else {
      ASSERT_NE(m.find(k), nullptr) << "key " << k;
      EXPECT_EQ(m.find(k)->value, k * 10);
    }
  }
}

TEST(FlatMap, EraseThenReinsertReusesTombstone) {
  flat_u64_map<u64> m;
  m[1].value = 10;
  m[2].value = 20;
  m.erase(1);
  m[1].value = 11;  // lands in (or before) the tombstoned slot, no duplicate
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.find(1)->value, 11u);
  EXPECT_EQ(m.find(2)->value, 20u);
}

TEST(FlatMap, SwapRemoveKeepsLastEntryReachable) {
  // erase() moves the last entry into the erased slot and must repoint its
  // probe-table slot; every surviving key stays findable after each erase.
  flat_u64_map<u64> m;
  constexpr u64 kKeys = 64;
  for (u64 k = 0; k < kKeys; ++k) m[k].value = k;
  for (u64 k = 0; k < kKeys; ++k) {
    m.erase(k);
    for (u64 j = k + 1; j < kKeys; ++j) {
      ASSERT_NE(m.find(j), nullptr) << "lost key " << j << " erasing " << k;
      EXPECT_EQ(m.find(j)->value, j);
    }
  }
  EXPECT_TRUE(m.empty());
}

TEST(FlatMap, GrowPreservesEntriesAndDropsTombstones) {
  flat_u64_map<u64> m;
  // Heavy insert/erase churn forces several rehashes with live tombstones.
  for (u64 k = 0; k < 4096; ++k) {
    m[k].value = k ^ 0xabcdu;
    if (k % 3 == 0) m.erase(k);
  }
  for (u64 k = 0; k < 4096; ++k) {
    if (k % 3 == 0) {
      EXPECT_EQ(m.find(k), nullptr);
    } else {
      ASSERT_NE(m.find(k), nullptr) << "key " << k;
      EXPECT_EQ(m.find(k)->value, k ^ 0xabcdu);
    }
  }
}

TEST(FlatMap, ClearKeepsMapUsable) {
  flat_u64_map<u64> m;
  for (u64 k = 0; k < 100; ++k) m[k].value = k;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(50), nullptr);
  m[50].value = 500;
  EXPECT_EQ(m.find(50)->value, 500u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, AdversarialKeysCollide) {
  // Keys chosen so raw low bits collide badly; the splitmix64 finalizer
  // plus linear probing must still keep everything findable.
  flat_u64_map<u64> m;
  std::vector<u64> keys;
  for (u64 k = 0; k < 256; ++k) keys.push_back(k << 32);  // identical low bits
  for (u64 k : keys) m[k].value = k + 1;
  for (u64 k : keys) {
    ASSERT_NE(m.find(k), nullptr);
    EXPECT_EQ(m.find(k)->value, k + 1);
  }
}

/// Deterministic op stream (insert / subscript / erase / lookup) applied
/// to flat_map<Entry, Key> and to a std::unordered_map; every lookup must
/// agree, and size must match throughout. `Value` is the entry member the
/// stream writes.
template <class Entry, auto Key, auto Value>
void fuzz_against_unordered_map() {
  using map = flat_map<Entry, Key>;
  map flat;
  std::unordered_map<u64, u64> ref;
  rng gen(0x5eedf00du);
  for (u32 step = 0; step < 50000; ++step) {
    // Small key space → heavy churn.
    const auto key = static_cast<typename map::key_type>(gen.next() % 512);
    switch (gen.next() % 4) {
      case 0: {
        Entry e{};
        e.*Key = key;
        e.*Value = step;
        EXPECT_EQ(flat.insert(e).second, ref.emplace(key, step).second);
        break;
      }
      case 1:
        flat[key].*Value = step;
        ref[key] = step;
        break;
      case 2:
        flat.erase(key);
        ref.erase(key);
        break;
      case 3: {
        const auto* got = flat.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got != nullptr, it != ref.end()) << "step " << step;
        if (got != nullptr) {
          EXPECT_EQ(got->*Value, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(flat.size(), ref.size()) << "step " << step;
  }
  for (const auto& [key, value] : ref) {
    const auto* got = flat.find(static_cast<typename map::key_type>(key));
    ASSERT_NE(got, nullptr) << "key " << key;
    EXPECT_EQ(got->*Value, value);
  }
}

TEST(FlatMap, DifferentialFuzzAgainstUnorderedMap) {
  fuzz_against_unordered_map<u64_entry<u64>, &u64_entry<u64>::key,
                             &u64_entry<u64>::value>();
  // The entry-keyed instantiation the sparse exploration rows use.
  fuzz_against_unordered_map<exploration_entry, &exploration_entry::source,
                             &exploration_entry::dist>();
}

}  // namespace
}  // namespace hybrid
