// Audited LOCAL-mode primitives (paper Section 1, "The Hybrid Network
// Model": the unbounded-bandwidth LOCAL mode; used by Algorithms 1, 5, 6
// and 9).
//
// The paper's protocols use the local graph in exactly three ways; each gets
// one primitive (two here, the exploration in proto/sparse_exploration.hpp)
// so that all LOCAL information flow goes through code that advances
// simulated rounds and charges traffic:
//
//  1. hop_discovery        — multi-source BFS flooding for T rounds; every
//                            node learns (seed, hop) for seeds within T hops
//                            ("flood information on R / W", Algorithm 1).
//  2. local exploration    — h synchronous relaxation rounds from a source
//                            set (every node, or a subset); node v learns
//                            d_h(v, s) and its first hop toward s for every
//                            source s within h hops (the APSP algorithm's
//                            "local exploration", Section 3, Algorithm 6's
//                            skeleton-edge discovery, Algorithm 5's local
//                            source exploration), returned as per-node
//                            triples.
//  3. table_flood          — skeleton nodes publish an immutable table that
//                            floods T hops; recipients get shared read-only
//                            access (the "distribute distance labels to the
//                            Õ(x)-neighborhood" step). Payload bits are
//                            charged per edge crossing; sharing the storage
//                            is a simulator optimization, not an information
//                            leak, because the content is identical for all
//                            recipients.
//
// All primitives run over the whole graph; restricting propagation to a
// cluster is done by the clustering utilities (proto/clustering.hpp).
//
// On a reliable local plane (1), (3) and the hello flood below run the
// seen-set flood kernel of proto/flood_kernel.hpp, as cluster_flood does;
// (2) runs the relaxation kernel of proto/relax_kernel.hpp. Under
// local-plane faults all of them heal through the one re-offer loop of
// proto/heal_kernel.hpp and return the fault-free result or throw
// fault_failure (docs/FAULTS.md §3).
#pragma once

#include <memory>
#include <vector>

#include "sim/hybrid_net.hpp"

namespace hybrid {

struct discovered_seed {
  u32 seed;  ///< index into the seeds vector passed in
  u32 hop;
};

/// (1) Multi-source BFS flood for `rounds` rounds.
/// Returns per node the seeds heard with their hop distance (ascending hop).
/// With `early_exit` the flood stops once no node has anything new to
/// forward; since frontier-emptiness is global information, the saved
/// rounds cost one charged AND-aggregation (Lemma B.2). The result is
/// identical either way — once saturated, the remaining budget is silent.
std::vector<std::vector<discovered_seed>> hop_discovery(
    hybrid_net& net, const std::vector<u32>& seeds, u32 rounds,
    bool early_exit = false);

/// One reached source at one node, keyed by its index into a source list:
/// the skeleton's `near` lists (skeleton indices), the super skeleton's
/// gateways (super indices) and the relaxation kernel's frontier entries
/// (row keys, proto/relax_kernel.hpp).
struct source_distance {
  u32 source;  ///< index into the source list
  u64 dist;    ///< d_h(v, source) for the h used
  /// Neighbor through which the best value arrived — the node's first hop
  /// on a d_h-realizing path toward the source (self for the source).
  /// Exactly what routing-table construction needs (paper §1's IP-routing
  /// motivation).
  u32 via = ~u32{0};
  friend bool operator==(const source_distance&,
                         const source_distance&) = default;
};

/// (3) Flood per-publisher immutable tables for `rounds` rounds.
/// `table_words[i]` is the accounted size of publisher i's table in 64-bit
/// words. Returns for each node the publisher indices whose table it holds.
std::vector<std::vector<u32>> table_flood(hybrid_net& net,
                                          const std::vector<u32>& publishers,
                                          const std::vector<u64>& table_words,
                                          u32 rounds);

/// Hello-flood eccentricity: every node floods its ID for `rounds` rounds;
/// returns per node the largest hop at which it heard a new ID, i.e.
/// h_v = max_{u in N_rounds(v)} hop(v, u) truncated at `rounds`
/// (Algorithm 9's h_v). Under local-plane faults the flood self-heals
/// through the healed exploration engine (proto/heal_kernel.hpp) and
/// returns the identical h_v vector.
std::vector<u32> truncated_eccentricity(hybrid_net& net, u32 rounds);

}  // namespace hybrid
