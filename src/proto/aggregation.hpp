// Global aggregation over the NCC mode (paper Lemma B.2, from Augustine et
// al. [2]): compute an aggregate-distributive function of one value per node
// and make the result known to every node in O(log n) rounds.
//
// Implementation: convergecast up a static binary tree over node IDs
// (parent(v) = (v−1)/2), then broadcast down; each report and result is
// re-sent until acked. On a reliable plane a send that got through is its
// own ack: the run is aggregation_rounds(n) rounds and 2(n−1) one-word
// messages, and in any round a node sends at most two (its report, or the
// result to each of its two children) and receives at most two, well
// within the γ cap. A faulty global plane adds acks and an epoch word and
// heals (docs/FAULTS.md §3).
#pragma once

#include <vector>

#include "sim/hybrid_net.hpp"

namespace hybrid {

enum class agg_op { max, min, sum, logical_and };

/// Returns the aggregate; after the call every node knows it.
/// For logical_and, nonzero values count as true.
u64 global_aggregate(hybrid_net& net, agg_op op,
                     const std::vector<u64>& values);

/// Round cost of one aggregation at network size n (2·tree-depth + 1).
u32 aggregation_rounds(u32 n);

}  // namespace hybrid
