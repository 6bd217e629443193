// Serialization battery for the persistent oracle store
// (core/oracle_store.hpp), `ctest -L store`:
//
//   * property-based round trips — randomized ER / grid / star /
//     bounded-degree / disconnected graphs × both label schemes: save →
//     mmap-load → query/next_hop/row bit-identical to the in-memory oracle,
//     compared from 1, 2, and 8 concurrent reader threads;
//   * corruption/fuzz cases — truncation, flipped magic, wrong version,
//     out-of-bounds section offsets, CSR indices past the arena: each file
//     must be rejected with the RIGHT typed store_errc, never UB (the suite
//     runs in the TSAN CI leg);
//   * a seeded mutation loop — 2,100 deterministic bit flips, word
//     overwrites, truncations and extensions of three seed stores, half of
//     them resealed: each is refused with a typed error or served over all
//     pairs with next hops in range (ASan+UBSan in CI);
//   * a concurrent-reader torture test — 8 threads hammering one mapped
//     view with seeded request mixes, per-thread result digests
//     seed-deterministic and equal to an in-memory replay;
//   * a golden file — tests/data/golden_oracle_v2.bin is read bit-exactly
//     and byte-compared against a fresh save of the same labels, so ANY
//     format change forces a conscious kOracleFormatVersion bump
//     (regenerate deliberately with HYBRID_REGEN_ORACLE_GOLDEN=1). The v1
//     golden stays committed as the versioning-policy witness: today's
//     loader must reject it with exactly store_errc::bad_version.
#include "core/oracle_store.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/apsp.hpp"
#include "core/apsp_baseline.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace hybrid {
namespace {

model_config cfg() { return model_config{}; }

// Pid-qualified: ctest -j runs each test case as its own process, so a
// fixed name would race between concurrently running cases.
std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "oracle_store_" + name + "_" +
         std::to_string(::getpid()) + ".bin";
}

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(f.good()) << path;
  std::vector<std::byte> bytes(static_cast<size_t>(f.tellg()));
  f.seekg(0);
  f.read(reinterpret_cast<char*>(bytes.data()),
         static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void write_file(const std::string& path, std::span<const std::byte> bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good()) << path;
}

/// Recompute the payload checksum after a deliberate payload patch, so the
/// load reaches the validation layers BEHIND the checksum (bad_csr & co).
void reseal_checksum(std::vector<std::byte>& bytes) {
  auto* hdr = reinterpret_cast<oracle_header*>(bytes.data());
  u64 checksum = 0xcbf29ce484222325ull;
  for (u32 s = 0; s < kOracleSectionCount; ++s)
    checksum = fnv1a({bytes.data() + hdr->sections[s].offset,
                      static_cast<size_t>(hdr->sections[s].bytes)},
                     checksum);
  hdr->payload_checksum = checksum;
}

store_errc load_error(const std::string& path) {
  try {
    (void)mapped_oracle::load(path);
  } catch (const oracle_store_error& e) {
    return e.code();
  }
  ADD_FAILURE() << "load unexpectedly succeeded: " << path;
  return store_errc::io;
}

/// Compare the mapped view against the in-memory labels over every pair,
/// the comparison loop partitioned across `threads` concurrent readers
/// (mismatches counted atomically; gtest assertions stay on the main
/// thread).
void expect_identical(const dist_labels& lab, const mapped_oracle& m,
                      u32 threads) {
  const label_view& mv = m.view();
  ASSERT_EQ(mv.n, lab.n);
  ASSERT_EQ(mv.n_s, lab.n_s);
  ASSERT_EQ(mv.n_s2, lab.n_s2);
  ASSERT_EQ(mv.h, lab.h);
  ASSERT_EQ(mv.scheme, lab.scheme);
  ASSERT_EQ(mv.routes, lab.routes);
  ASSERT_EQ(mv.label_entries(), lab.label_entries());
  std::atomic<u64> mismatches{0};
  std::vector<std::thread> pool;
  const u32 chunk = static_cast<u32>(ceil_div(lab.n, threads));
  for (u32 t = 0; t < threads; ++t) {
    const u32 lo = std::min(lab.n, t * chunk);
    const u32 hi = std::min(lab.n, lo + chunk);
    pool.emplace_back([&, lo, hi] {
      u64 bad = 0;
      std::vector<u64> mine, theirs;
      for (u32 u = lo; u < hi; ++u) {
        lab.row_into(u, mine);
        mv.row_into(u, theirs);
        if (mine != theirs) ++bad;
        for (u32 v = 0; v < lab.n; ++v) {
          if (mv.query(u, v) != lab.query(u, v)) ++bad;
          if (lab.routes && mv.next_hop(u, v) != lab.next_hop(u, v)) ++bad;
        }
      }
      mismatches += bad;
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(mismatches.load(), 0u) << "threads=" << threads;
}

/// Build (per scheme), save, mmap-load, attach the graph, and compare at
/// reader-thread counts {1, 2, 8}.
void round_trip(const graph& g, u64 seed, label_scheme scheme,
                const std::string& name) {
  sim_options o;
  dist_labels lab;
  if (scheme == label_scheme::kSkeletonRows) {
    lab = hybrid_apsp_exact(g, cfg(), seed, /*build_routes=*/true, o).labels;
  } else if (scheme == label_scheme::kTwoLevel) {
    o.hierarchy = oracle_hierarchy::kTwoLevel;
    lab = hybrid_apsp_exact(g, cfg(), seed, /*build_routes=*/true, o).labels;
  } else {
    lab = baseline_apsp_ahkss(g, cfg(), seed, o).labels;
  }
  const std::string path = tmp_path(name);
  save_oracle(lab, path);
  mapped_oracle m = mapped_oracle::load(path);
  if (lab.routes) m.attach_topology(g);
  for (u32 threads : {1u, 2u, 8u}) expect_identical(lab, m, threads);
  std::remove(path.c_str());
}

// ---- property-based round trips ---------------------------------------------

TEST(OracleStoreRoundTrip, ErdosRenyiRandomizedBothSchemes) {
  for (u64 seed : {61u, 62u, 63u}) {
    rng r(seed);
    const u32 n = 64 + static_cast<u32>(r.next_below(56));
    const double deg = 3.0 + r.next_double() * 3.0;
    const u64 max_w = r.next_bool(0.5) ? 1 : 9;
    const graph g = gen::erdos_renyi_connected(n, deg, max_w, seed);
    round_trip(g, seed, label_scheme::kSkeletonRows, "er_rows");
    round_trip(g, seed, label_scheme::kSkeletonPairs, "er_pairs");
  }
}

TEST(OracleStoreRoundTrip, Grid) {
  round_trip(gen::grid(8, 8, 6, 29), 29, label_scheme::kSkeletonRows, "grid");
}

TEST(OracleStoreRoundTrip, Star) {
  round_trip(gen::balanced_tree(36, 35, 4, 17), 17,
             label_scheme::kSkeletonRows, "star");
}

TEST(OracleStoreRoundTrip, BoundedDegree) {
  round_trip(gen::bounded_degree(64, 3, 5, 41), 41,
             label_scheme::kSkeletonRows, "bdeg");
}

TEST(OracleStoreRoundTrip, DisconnectedBothSchemes) {
  // Two components plus isolated vertices: the saved labels must reproduce
  // every kInfDist pair and every ~0 next hop exactly.
  std::vector<edge_spec> edges{{0, 1, 2}, {1, 2, 1}, {2, 3, 3},
                               {4, 5, 1}, {5, 6, 2}, {4, 6, 2}};
  const graph g = graph::from_edges(9, edges);
  round_trip(g, 3, label_scheme::kSkeletonRows, "disc_rows");
  round_trip(g, 3, label_scheme::kSkeletonPairs, "disc_pairs");
}

TEST(OracleStoreRoundTrip, TwoLevelRandomized) {
  // The v2 sections (ball1/gw1/super-nodes/super-pairs) through the same
  // property harness: save → mmap → bit-identical at reader threads
  // {1, 2, 8}.
  for (u64 seed : {64u, 65u, 66u}) {
    rng r(seed);
    const u32 n = 64 + static_cast<u32>(r.next_below(56));
    const double deg = 3.0 + r.next_double() * 3.0;
    const u64 max_w = r.next_bool(0.5) ? 1 : 9;
    const graph g = gen::erdos_renyi_connected(n, deg, max_w, seed);
    round_trip(g, seed, label_scheme::kTwoLevel, "er_two_level");
  }
}

TEST(OracleStoreRoundTrip, TwoLevelDisconnected) {
  // Disconnected super-skeleton on disk: ∞ super-pair entries must survive
  // the round trip and keep composing to exactly kInfDist.
  std::vector<edge_spec> edges{{0, 1, 2}, {1, 2, 1}, {2, 3, 3},
                               {4, 5, 1}, {5, 6, 2}, {4, 6, 2}};
  const graph g = graph::from_edges(9, edges);
  round_trip(g, 3, label_scheme::kTwoLevel, "disc_two_level");
}

// ---- edge cases -------------------------------------------------------------

TEST(OracleStoreEdge, EmptyGraphRoundTrips) {
  dist_labels lab;
  lab.n = 0;
  lab.ball.offsets = {0};
  lab.gw_offsets = {0};
  const std::string path = tmp_path("empty");
  save_oracle(lab, path);
  const mapped_oracle m = mapped_oracle::load(path);
  EXPECT_EQ(m.view().n, 0u);
  EXPECT_EQ(m.view().n_s, 0u);
  EXPECT_EQ(m.view().label_entries(), 0u);
  std::remove(path.c_str());
}

TEST(OracleStoreEdge, SingletonRoundTrips) {
  dist_labels lab;
  lab.n = 1;
  lab.ball.offsets = {0, 1};
  lab.ball.entries = {{0, 0, 0}};
  lab.gw_offsets = {0, 0};
  const std::string path = tmp_path("singleton");
  save_oracle(lab, path);
  const mapped_oracle m = mapped_oracle::load(path);
  EXPECT_EQ(m.query(0, 0), 0u);
  std::remove(path.c_str());
}

TEST(OracleStoreEdge, HZeroBallOnlyRoundTrips) {
  // h = 0 labels: every ball is the node itself, no gateways, no skeleton
  // table — the store must carry the degenerate shape unchanged.
  dist_labels lab;
  lab.n = 3;
  lab.h = 0;
  lab.ball.offsets = {0, 1, 2, 3};
  lab.ball.entries = {{0, 0, 0}, {0, 1, 1}, {0, 2, 2}};
  lab.gw_offsets = {0, 0, 0, 0};
  const std::string path = tmp_path("hzero");
  save_oracle(lab, path);
  const mapped_oracle m = mapped_oracle::load(path);
  for (u32 u = 0; u < 3; ++u)
    for (u32 v = 0; v < 3; ++v)
      EXPECT_EQ(m.query(u, v), u == v ? 0 : kInfDist) << u << "->" << v;
  EXPECT_EQ(m.row(1), (std::vector<u64>{kInfDist, 0, kInfDist}));
  std::remove(path.c_str());
}

TEST(OracleStoreEdge, SaveRejectsMalformedLabels) {
  dist_labels lab;
  lab.n = 2;  // offsets missing → shape violation, typed as invalid_argument
  EXPECT_THROW(save_oracle(lab, tmp_path("malformed")), std::invalid_argument);
}

TEST(OracleStoreEdge, AttachTopologyChecksRoundTripGraph) {
  const graph g = gen::erdos_renyi_connected(48, 4.0, 6, 91);
  const apsp_result res = hybrid_apsp_exact(g, cfg(), 91, true);
  const std::string path = tmp_path("attach");
  save_oracle(res.labels, path);
  mapped_oracle m = mapped_oracle::load(path);
  // next_hop before attach: the view has routes but no graph.
  EXPECT_THROW((void)m.next_hop(0, 1), std::invalid_argument);
  // A different graph (same n, different weights) is rejected.
  const graph other = gen::erdos_renyi_connected(48, 4.0, 6, 92);
  EXPECT_THROW(m.attach_topology(other), std::invalid_argument);
  // A wrong-n graph is rejected.
  const graph small = gen::path(5, 2, 3);
  EXPECT_THROW(m.attach_topology(small), std::invalid_argument);
  // The original graph attaches, and next_hop serves.
  m.attach_topology(g);
  for (u32 v : {1u, 17u, 40u})
    EXPECT_EQ(m.next_hop(0, v), res.labels.next_hop(0, v));
  std::remove(path.c_str());
}

// ---- corruption / fuzz ------------------------------------------------------

class OracleStoreCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    const graph g = gen::erdos_renyi_connected(40, 4.0, 5, 71);
    lab_ = hybrid_apsp_exact(g, cfg(), 71, true).labels;
    lab_.topo = nullptr;  // the corruption cases never attach a graph
    path_ = tmp_path("corrupt");
    save_oracle(lab_, path_);
    bytes_ = read_file(path_);
    ASSERT_GE(bytes_.size(), sizeof(oracle_header));
  }
  void TearDown() override { std::remove(path_.c_str()); }

  oracle_header* header() {
    return reinterpret_cast<oracle_header*>(bytes_.data());
  }
  /// Write the (possibly patched) bytes and return the typed load error.
  store_errc load_patched() {
    write_file(path_, bytes_);
    return load_error(path_);
  }

  dist_labels lab_;
  std::string path_;
  std::vector<std::byte> bytes_;
};

TEST_F(OracleStoreCorruption, PristineBytesStillLoad) {
  write_file(path_, bytes_);
  const mapped_oracle m = mapped_oracle::load(path_);
  EXPECT_EQ(m.view().n, lab_.n);
}

TEST_F(OracleStoreCorruption, TruncatedBelowHeader) {
  bytes_.resize(sizeof(oracle_header) / 2);
  EXPECT_EQ(load_patched(), store_errc::truncated);
}

TEST_F(OracleStoreCorruption, TruncatedMidPayload) {
  bytes_.pop_back();
  EXPECT_EQ(load_patched(), store_errc::truncated);
}

TEST_F(OracleStoreCorruption, TrailingGarbageRejected) {
  bytes_.push_back(std::byte{0x5a});
  EXPECT_EQ(load_patched(), store_errc::bad_header);
}

TEST_F(OracleStoreCorruption, FlippedMagic) {
  header()->magic ^= 0xff;
  EXPECT_EQ(load_patched(), store_errc::bad_magic);
}

TEST_F(OracleStoreCorruption, WrongVersion) {
  header()->version = kOracleFormatVersion + 1;
  EXPECT_EQ(load_patched(), store_errc::bad_version);
}

TEST_F(OracleStoreCorruption, BadSchemeByte) {
  header()->scheme = 7;
  EXPECT_EQ(load_patched(), store_errc::bad_header);
}

TEST_F(OracleStoreCorruption, SectionOffsetOutOfBounds) {
  header()->sections[1].offset = header()->file_bytes + kOracleSectionAlign;
  EXPECT_EQ(load_patched(), store_errc::bad_section);
}

TEST_F(OracleStoreCorruption, SectionCountInconsistentWithBytes) {
  header()->sections[1].count += 3;
  EXPECT_EQ(load_patched(), store_errc::bad_section);
}

TEST_F(OracleStoreCorruption, SectionMisaligned) {
  header()->sections[2].offset += 8;
  EXPECT_EQ(load_patched(), store_errc::bad_section);
}

TEST_F(OracleStoreCorruption, OffsetTableWrongLength) {
  header()->sections[0].count -= 1;
  header()->sections[0].bytes -= sizeof(u64);
  EXPECT_EQ(load_patched(), store_errc::bad_section);
}

TEST_F(OracleStoreCorruption, PayloadBitFlip) {
  bytes_[header()->sections[1].offset + 5] ^= std::byte{0x10};
  EXPECT_EQ(load_patched(), store_errc::bad_checksum);
}

TEST_F(OracleStoreCorruption, CsrOffsetPastArenaEnd) {
  // Patch one ball offset beyond the entry arena and re-seal the checksum:
  // the damage must be caught by the CSR layer, not by luck.
  auto* offsets =
      reinterpret_cast<u64*>(bytes_.data() + header()->sections[0].offset);
  offsets[lab_.n / 2] = header()->sections[1].count + 5;
  reseal_checksum(bytes_);
  EXPECT_EQ(load_patched(), store_errc::bad_csr);
}

TEST_F(OracleStoreCorruption, CsrOffsetsDecreasing) {
  auto* offsets =
      reinterpret_cast<u64*>(bytes_.data() + header()->sections[2].offset);
  if (offsets[1] == 0) offsets[1] = 1;  // force non-monotone vs offsets[0]=0…
  offsets[2] = 0;                       // …or a later decrease
  reseal_checksum(bytes_);
  EXPECT_EQ(load_patched(), store_errc::bad_csr);
}

TEST_F(OracleStoreCorruption, GatewaySkeletonIndexOutOfRange) {
  auto* gws = reinterpret_cast<source_distance*>(bytes_.data() +
                                                 header()->sections[3].offset);
  ASSERT_GT(header()->sections[3].count, 0u);
  gws[0].source = lab_.n_s + 7;
  reseal_checksum(bytes_);
  EXPECT_EQ(load_patched(), store_errc::bad_csr);
}

TEST_F(OracleStoreCorruption, BallEntryNodeOutOfRange) {
  auto* entries = reinterpret_cast<exploration_entry*>(
      bytes_.data() + header()->sections[1].offset);
  entries[0].source = lab_.n + 100;
  reseal_checksum(bytes_);
  EXPECT_EQ(load_patched(), store_errc::bad_csr);
}

TEST_F(OracleStoreCorruption, SuperSizeNonzeroOnRowsScheme) {
  // A single-level file claiming a super-skeleton is self-contradictory and
  // must die in the header layer, before any section is interpreted.
  header()->n_s2 = 5;
  EXPECT_EQ(load_patched(), store_errc::bad_header);
}

TEST_F(OracleStoreCorruption, ReservedFieldNonzero) {
  header()->reserved = 1;
  EXPECT_EQ(load_patched(), store_errc::bad_header);
}

// ---- seeded mutation loop ---------------------------------------------------

/// Whether every section of a (possibly mutated) file lies inside it, so
/// reseal_checksum may read them all.
bool sections_in_bounds(const std::vector<std::byte>& bytes) {
  if (bytes.size() < sizeof(oracle_header)) return false;
  const auto* hdr = reinterpret_cast<const oracle_header*>(bytes.data());
  for (const oracle_section& sec : hdr->sections)
    if (sec.offset > bytes.size() || sec.bytes > bytes.size() - sec.offset)
      return false;
  return true;
}

/// Applies one seeded mutation — a bit flip; an aligned u32 or u64
/// overwritten with 0, ~0, n or n_s; a truncation or an extension — and
/// returns its description. Half of the flips and overwrites land in the
/// header, the rest anywhere in the file.
std::string mutate(std::vector<std::byte>& bytes, rng& r) {
  const auto* hdr = reinterpret_cast<const oracle_header*>(bytes.data());
  const u64 n = hdr->n;
  const u64 n_s = hdr->n_s;
  const u64 span = r.next_bool(0.5) ? sizeof(oracle_header) : bytes.size();
  switch (r.next_below(3)) {
    case 0: {
      const u64 at = r.next_below(span);
      const u32 bit = static_cast<u32>(r.next_below(8));
      bytes[at] ^= std::byte{static_cast<unsigned char>(1u << bit)};
      return "flip bit " + std::to_string(bit) + " of byte " +
             std::to_string(at);
    }
    case 1: {
      const u64 width = r.next_bool(0.5) ? 4 : 8;
      const u64 at = r.next_below(span / width) * width;
      const u64 values[] = {0, ~u64{0}, n, n_s};
      const u64 value = values[r.next_below(4)];
      std::memcpy(bytes.data() + at, &value, width);  // little-endian
      return "overwrite " + std::to_string(width) + " bytes at " +
             std::to_string(at) + " with " + std::to_string(value);
    }
    default:
      if (r.next_bool(0.5)) {
        bytes.resize(r.next_below(bytes.size()));
        return "truncate to " + std::to_string(bytes.size());
      }
      bytes.resize(bytes.size() + 1 + r.next_below(64),
                   std::byte{static_cast<unsigned char>(r.next_below(256))});
      return "extend to " + std::to_string(bytes.size());
  }
}

/// Every query, row_into and next_hop over all pairs of a loaded store;
/// returns how many next hops named neither a node nor ~0. next_hop runs
/// when the store claims routes and accepts `topo`.
u64 serve_all_pairs(mapped_oracle& m, const graph& topo) {
  const label_view& v = m.view();
  bool hops = v.routes;
  if (hops) {
    try {
      m.attach_topology(topo);
    } catch (const std::invalid_argument&) {
      hops = false;  // the header names another graph: refused explicitly
    }
  }
  u64 bad = 0;
  std::vector<u64> row;
  for (u32 a = 0; a < v.n; ++a) {
    v.row_into(a, row);
    for (u32 b = 0; b < v.n; ++b) {
      (void)v.query(a, b);
      if (!hops) continue;
      const u32 hop = v.next_hop(a, b);
      if (hop >= v.n && hop != ~u32{0}) ++bad;
    }
  }
  return bad;
}

TEST_F(OracleStoreCorruption, SeededMutationsThrowTypedOrStayInBounds) {
  // Three seed stores: the fixture's single-level store with routes, the
  // committed v2 golden, and a two-level store with routes saved here. The
  // invariant for every mutant: load throws oracle_store_error, or the
  // whole all-pairs serving surface completes with next hops in range.
  // Half of the mutants get a resealed payload checksum, so their damage
  // reaches the CSR layer. The CI ASan+UBSan job runs this suite, which
  // turns any out-of-bounds read on the way into a failure.
  const graph fixture_graph = gen::erdos_renyi_connected(40, 4.0, 5, 71);
  const graph two_level_graph = gen::erdos_renyi_connected(40, 4.0, 5, 73);
  const graph golden_graph = gen::path(4);
  sim_options o;
  o.hierarchy = oracle_hierarchy::kTwoLevel;
  const std::string two_level_path = tmp_path("mutate_two_level");
  save_oracle(hybrid_apsp_exact(two_level_graph, cfg(), 73,
                                /*build_routes=*/true, o)
                  .labels,
              two_level_path);
  struct seed_store {
    const char* name;
    std::vector<std::byte> bytes;
    const graph* topo;
  };
  const seed_store seeds[] = {
      {"single-level", bytes_, &fixture_graph},
      {"golden v2",
       read_file(std::string(HYBRID_TEST_DATA_DIR) + "/golden_oracle_v2.bin"),
       &golden_graph},
      {"two-level", read_file(two_level_path), &two_level_graph},
  };
  std::remove(two_level_path.c_str());

  rng r(0x5eedf00d);
  u64 refused[static_cast<u32>(store_errc::bad_csr) + 1] = {};
  u64 served = 0;
  for (const seed_store& s : seeds) {
    ASSERT_GE(s.bytes.size(), sizeof(oracle_header)) << s.name;
    for (u32 k = 0; k < 700; ++k) {
      std::vector<std::byte> mutant = s.bytes;
      std::string what = mutate(mutant, r);
      if (r.next_bool(0.5) && sections_in_bounds(mutant)) {
        reseal_checksum(mutant);
        what += ", resealed";
      }
      write_file(path_, mutant);
      const std::string tag = std::string(s.name) + " #" + std::to_string(k) +
                              ": " + what;
      std::optional<mapped_oracle> m;
      try {
        m = mapped_oracle::load(path_);
      } catch (const oracle_store_error& e) {
        ++refused[static_cast<u32>(e.code())];
        continue;
      } catch (const std::exception& e) {
        ADD_FAILURE() << tag << ": load threw an untyped error: " << e.what();
        continue;
      }
      ++served;
      try {
        EXPECT_EQ(serve_all_pairs(*m, *s.topo), 0u)
            << tag << ": next_hop named no node";
      } catch (const std::exception& e) {
        ADD_FAILURE() << tag << ": serving a loaded store threw: " << e.what();
      }
    }
  }
  // The loop must exercise both sides of the invariant and reach the
  // checksum and the CSR layer.
  EXPECT_GT(served, 0u);
  EXPECT_GT(refused[static_cast<u32>(store_errc::bad_checksum)], 0u);
  EXPECT_GT(refused[static_cast<u32>(store_errc::bad_csr)], 0u);
  for (u32 c = 0; c <= static_cast<u32>(store_errc::bad_csr); ++c)
    std::printf("%s: %llu\n", to_string(static_cast<store_errc>(c)),
                static_cast<unsigned long long>(refused[c]));
  std::printf("served: %llu\n", static_cast<unsigned long long>(served));
}

/// Corruption battery over the v2 level-1 slabs: the fixture labels are a
/// real two-level build, so sections 6–10 are all populated.
class OracleStoreTwoLevelCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    const graph g = gen::erdos_renyi_connected(40, 4.0, 5, 73);
    sim_options o;
      o.hierarchy = oracle_hierarchy::kTwoLevel;
    lab_ = hybrid_apsp_exact(g, cfg(), 73, /*build_routes=*/false, o).labels;
    lab_.topo = nullptr;
    ASSERT_GE(lab_.n_s2, 1u);
    ASSERT_FALSE(lab_.ball1_entries.empty());
    ASSERT_FALSE(lab_.gw1.empty());
    path_ = tmp_path("corrupt2");
    save_oracle(lab_, path_);
    bytes_ = read_file(path_);
    ASSERT_GE(bytes_.size(), sizeof(oracle_header));
  }
  void TearDown() override { std::remove(path_.c_str()); }

  oracle_header* header() {
    return reinterpret_cast<oracle_header*>(bytes_.data());
  }
  store_errc load_patched() {
    write_file(path_, bytes_);
    return load_error(path_);
  }

  dist_labels lab_;
  std::string path_;
  std::vector<std::byte> bytes_;
};

TEST_F(OracleStoreTwoLevelCorruption, PristineBytesStillLoad) {
  write_file(path_, bytes_);
  const mapped_oracle m = mapped_oracle::load(path_);
  EXPECT_EQ(m.view().n_s2, lab_.n_s2);
  EXPECT_EQ(m.view().scheme, label_scheme::kTwoLevel);
}

TEST_F(OracleStoreTwoLevelCorruption, SchemeDowngradeWithLiveSuperSections) {
  // Flipping the scheme byte back to kSkeletonRows while n_s2 and the
  // level-1 sections are populated must die in the header layer.
  header()->scheme = 0;
  EXPECT_EQ(load_patched(), store_errc::bad_header);
}

TEST_F(OracleStoreTwoLevelCorruption, Ball1OffsetsCountWrong) {
  // The ball1 offset table must have exactly n_s + 1 elements.
  header()->sections[6].count -= 1;
  header()->sections[6].bytes -= sizeof(u64);
  EXPECT_EQ(load_patched(), store_errc::bad_section);
}

TEST_F(OracleStoreTwoLevelCorruption, Ball1EntrySkeletonIndexOutOfRange) {
  auto* entries = reinterpret_cast<exploration_entry*>(
      bytes_.data() + header()->sections[7].offset);
  entries[0].source = lab_.n_s + 100;
  reseal_checksum(bytes_);
  EXPECT_EQ(load_patched(), store_errc::bad_csr);
}

TEST_F(OracleStoreTwoLevelCorruption, Gw1SuperIndexOutOfRange) {
  auto* gws = reinterpret_cast<source_distance*>(bytes_.data() +
                                                 header()->sections[9].offset);
  ASSERT_GT(header()->sections[9].count, 0u);
  gws[0].source = lab_.n_s2 + 3;
  reseal_checksum(bytes_);
  EXPECT_EQ(load_patched(), store_errc::bad_csr);
}

TEST_F(OracleStoreTwoLevelCorruption, SuperNodeOutOfRange) {
  auto* supers =
      reinterpret_cast<u32*>(bytes_.data() + header()->sections[10].offset);
  supers[0] = lab_.n_s + 9;
  reseal_checksum(bytes_);
  EXPECT_EQ(load_patched(), store_errc::bad_csr);
}

TEST(OracleStoreErrors, MissingFileIsIo) {
  EXPECT_EQ(load_error(tmp_path("never_written")), store_errc::io);
}

TEST(OracleStoreErrors, ErrcStringsAreDistinct) {
  const store_errc all[] = {store_errc::io,          store_errc::truncated,
                            store_errc::bad_magic,   store_errc::bad_version,
                            store_errc::bad_header,  store_errc::bad_section,
                            store_errc::bad_checksum, store_errc::bad_csr};
  for (const store_errc a : all)
    for (const store_errc b : all)
      if (a != b) {
        EXPECT_STRNE(to_string(a), to_string(b));
      }
}

// ---- concurrent-reader torture ----------------------------------------------

/// One thread's seeded request mix against a label_view, folded into a
/// digest. Pure function of (view contents, seed) — the torture test
/// asserts the digest is identical for the in-memory and mapped views and
/// across repeated concurrent runs.
u64 replay_digest(const label_view& v, u64 seed, u32 requests) {
  rng r(seed);
  u64 digest = 0xcbf29ce484222325ull;
  const auto fold = [&digest](u64 word) {
    digest ^= word;
    digest *= 0x100000001b3ull;
  };
  for (u32 i = 0; i < requests; ++i) {
    const u32 u = static_cast<u32>(r.next_below(v.n));
    const u32 w = static_cast<u32>(r.next_below(v.n));
    const u64 op = r.next_below(10);
    if (op < 6) {
      fold(v.query(u, w));
    } else if (op < 9) {
      fold(v.next_hop(u, w));
    } else {
      // Greedy route u → w along next hops; with exact labels this must
      // terminate in ≤ n hops (docs: remaining distance strictly drops).
      u32 at = u;
      u64 hops = 0;
      while (at != w && hops <= v.n) {
        const u32 nh = v.next_hop(at, w);
        if (nh == ~u32{0}) break;
        at = nh;
        ++hops;
      }
      fold(hops);
      fold(at);
    }
  }
  return digest;
}

TEST(OracleStoreTorture, EightThreadsSeedDeterministicDigests) {
  const graph g = gen::erdos_renyi_connected(192, 4.5, 7, 55);
  const apsp_result res = hybrid_apsp_exact(g, cfg(), 55, true);
  const std::string path = tmp_path("torture");
  save_oracle(res.labels, path);
  mapped_oracle m = mapped_oracle::load(path);
  m.attach_topology(g);

  constexpr u32 kThreads = 8;
  constexpr u32 kRequests = 12000;
  // Expected digests: the same per-thread streams replayed sequentially
  // against the in-memory labels.
  u64 expected[kThreads];
  for (u32 t = 0; t < kThreads; ++t)
    expected[t] = replay_digest(res.labels.view(), 9000 + t, kRequests);

  for (int run = 0; run < 2; ++run) {
    u64 got[kThreads] = {};
    std::vector<std::thread> pool;
    for (u32 t = 0; t < kThreads; ++t)
      pool.emplace_back([&m, &got, t] {
        got[t] = replay_digest(m.view(), 9000 + t, kRequests);
      });
    for (auto& th : pool) th.join();
    for (u32 t = 0; t < kThreads; ++t)
      EXPECT_EQ(got[t], expected[t]) << "thread " << t << " run " << run;
  }
  std::remove(path.c_str());
}

// ---- golden file ------------------------------------------------------------

/// Hand-built labels with fully pinned contents: no algorithm, no RNG, no
/// floating point — the committed bytes depend on the serializer alone.
/// kTwoLevel so all 11 v2 sections (including the level-1 slabs and their
/// zeroed source_distance padding) are pinned by the golden bytes.
dist_labels golden_labels() {
  dist_labels lab;
  lab.n = 4;
  lab.n_s = 2;
  lab.n_s2 = 1;
  lab.h = 2;
  lab.scheme = label_scheme::kTwoLevel;
  lab.routes = false;
  lab.ball.offsets = {0, 2, 4, 6, 8};
  lab.ball.entries = {{0, 0, 0}, {3, 1, 1},   // node 0: self, node 1 at 3
                      {3, 0, 0}, {0, 1, 1},   // node 1
                      {0, 2, 2}, {5, 3, 3},   // node 2
                      {5, 2, 2}, {0, 3, 3}};  // node 3
  lab.gw_offsets = {0, 1, 2, 3, 4};
  lab.gateways = {{0, 3, 1}, {0, 0, 1}, {1, 0, 2}, {1, 5, 2}};
  lab.skeleton_nodes = {1, 2};
  lab.skel = {0};  // the 1×1 super-pair table (member: skeleton index 0)
  lab.ball1_offsets = {0, 2, 4};
  lab.ball1_entries = {{0, 0, 0}, {9, 1, 1},   // s1 = 0: self, s1 = 1 at 9
                       {9, 0, 0}, {0, 1, 1}};  // s1 = 1
  lab.gw1_offsets = {0, 1, 2};
  lab.gw1 = {{0, 0, 0}, {0, 9, 0}};  // both reach the sole super member
  lab.super_nodes = {0};
  return lab;
}

TEST(OracleStoreGolden, V1FileRejectedWithTypedBadVersion) {
  // The versioning policy, pinned: the v1 golden stays committed, and this
  // build must reject it with exactly bad_version — never reinterpret,
  // never crash, never a vaguer error from a later layer.
  const std::string v1 = std::string(HYBRID_TEST_DATA_DIR) +
                         "/golden_oracle_v1.bin";
  ASSERT_FALSE(read_file(v1).empty()) << "v1 golden fixture missing";
  EXPECT_EQ(load_error(v1), store_errc::bad_version);
}

/// Latest mtime of the serializer's sources (what the golden bytes depend
/// on), or 0 when a file cannot be statted.
std::time_t serializer_source_mtime() {
  const std::string src_root = std::string(HYBRID_TEST_DATA_DIR) + "/../..";
  std::time_t latest = 0;
  for (const char* rel : {"/src/core/oracle_store.hpp",
                          "/src/core/oracle_store.cpp"}) {
    struct stat st{};
    if (stat((src_root + rel).c_str(), &st) != 0) return 0;
    latest = std::max(latest, st.st_mtime);
  }
  return latest;
}

TEST(OracleStoreGolden, CommittedFileReadsBitExactly) {
  const std::string golden = std::string(HYBRID_TEST_DATA_DIR) +
                             "/golden_oracle_v2.bin";
  const dist_labels lab = golden_labels();
  if (std::getenv("HYBRID_REGEN_ORACLE_GOLDEN") != nullptr) {
    // Regen refuses to run from a stale build: writing the golden with a
    // binary older than the serializer sources would commit the OLD
    // format's bytes and let the format change ride in unpinned — the
    // exact blind spot this file exists to close. Fail loudly instead of
    // silently regenerating (docs/ARCHITECTURE.md §1.1, regen workflow).
    struct stat self{};
    ASSERT_EQ(stat("/proc/self/exe", &self), 0)
        << "cannot stat the test binary to prove it is fresh — rerun the "
           "regen on Linux or regenerate by hand with extreme care";
    const std::time_t src_mtime = serializer_source_mtime();
    ASSERT_NE(src_mtime, 0) << "cannot stat src/core/oracle_store.* from "
                            << HYBRID_TEST_DATA_DIR
                            << "/../.. — regen must run from a source tree";
    ASSERT_GE(self.st_mtime, src_mtime)
        << "REGEN REFUSED: this test binary is older than "
           "src/core/oracle_store.* — it would write the previous "
           "serializer's bytes as the new golden. Rebuild first:\n"
           "  cmake --build build -j --target oracle_store_test";
    save_oracle(lab, golden);
    // Post-regen verification: the file just written must load with this
    // binary's kOracleFormatVersion. A mismatch means the version constant
    // and the writer disagree — fail before the bad golden gets committed.
    const mapped_oracle check = mapped_oracle::load(golden);
    ASSERT_EQ(check.header().version, kOracleFormatVersion)
        << "REGEN PRODUCED A BAD GOLDEN: written version does not match "
           "kOracleFormatVersion; do not commit this file";
  }

  // Today's serializer must reproduce the committed bytes exactly…
  const std::string fresh = tmp_path("golden_fresh");
  save_oracle(lab, fresh);
  const std::vector<std::byte> fresh_bytes = read_file(fresh);
  const std::vector<std::byte> golden_bytes = read_file(golden);
  ASSERT_FALSE(golden_bytes.empty())
      << "golden file missing — regenerate deliberately with "
         "HYBRID_REGEN_ORACLE_GOLDEN=1 and bump kOracleFormatVersion if the "
         "format changed";
  EXPECT_EQ(fresh_bytes, golden_bytes)
      << "serialized bytes changed — bump kOracleFormatVersion and "
         "regenerate the golden file deliberately";
  std::remove(fresh.c_str());

  // …and today's loader must serve the committed file verbatim.
  const mapped_oracle m = mapped_oracle::load(golden);
  EXPECT_EQ(m.header().version, kOracleFormatVersion);
  EXPECT_EQ(m.view().n, lab.n);
  EXPECT_EQ(m.view().n_s, lab.n_s);
  EXPECT_EQ(m.view().n_s2, lab.n_s2);
  EXPECT_EQ(m.view().h, lab.h);
  for (u32 u = 0; u < lab.n; ++u)
    for (u32 v = 0; v < lab.n; ++v)
      EXPECT_EQ(m.query(u, v), lab.query(u, v)) << u << "->" << v;
}

}  // namespace
}  // namespace hybrid
