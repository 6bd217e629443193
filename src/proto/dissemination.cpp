#include "proto/dissemination.hpp"

#include <algorithm>
#include <cmath>

#include "proto/aggregation.hpp"
#include "util/assert.hpp"

namespace hybrid {

namespace {
constexpr u32 kTokenTag = 0xD155;

struct node_state {
  std::vector<u32> known;      // token indices in arrival order
  std::vector<u64> known_bit;  // bitset over token indices
  std::vector<u32> fresh;      // learned since last local flood
  // Seeding queue: (token index, copies still to send).
  std::vector<std::pair<u32, u32>> seed_queue;

  bool knows(u32 idx) const {
    return (known_bit[idx / 64] >> (idx % 64)) & 1;
  }
  void learn(u32 idx) {
    known_bit[idx / 64] |= u64{1} << (idx % 64);
    known.push_back(idx);
    fresh.push_back(idx);
  }
};

}  // namespace

dissemination_result disseminate(hybrid_net& net,
                                 std::vector<std::vector<token2>> initial) {
  const graph& g = net.g();
  const u32 n = g.num_nodes();
  HYB_REQUIRE(initial.size() == n, "initial tokens must cover every node");

  // Global enumeration of tokens (simulator bookkeeping; nodes address
  // tokens by this index, which rides inside the O(log n)-bit message).
  std::vector<token2> tokens;
  std::vector<std::vector<u32>> owned(n);
  u64 ell = 0;
  for (u32 v = 0; v < n; ++v) {
    for (const token2& t : initial[v]) {
      owned[v].push_back(static_cast<u32>(tokens.size()));
      tokens.push_back(t);
    }
    ell = std::max<u64>(ell, initial[v].size());
  }
  const u32 k = static_cast<u32>(tokens.size());

  const u64 start_round = net.round();
  // Make k known (the protocols downstream need it for termination checks).
  std::vector<u64> counts(n);
  for (u32 v = 0; v < n; ++v) counts[v] = owned[v].size();
  const u64 k_agg = global_aggregate(net, agg_op::sum, counts);
  HYB_INVARIANT(k_agg == k, "token count aggregation mismatch");

  dissemination_result out;
  out.tokens = tokens;
  if (k == 0) {
    out.rounds_used = net.round() - start_round;
    return out;
  }

  const u32 logn = id_bits(n);
  const u32 seed_copies = std::max<u32>(
      1, static_cast<u32>(
             std::ceil(net.config().dissemination_seed_mult * logn)));
  const u32 words = (k + 63) / 64;

  std::vector<node_state> st(n);
  for (u32 v = 0; v < n; ++v) {
    st[v].known_bit.assign(words, 0);
    for (u32 idx : owned[v]) {
      st[v].learn(idx);
      st[v].seed_queue.push_back({idx, seed_copies});
    }
  }

  // v knows all k tokens and has nothing left to seed.
  const auto node_done = [&](u32 v) {
    return st[v].known.size() == k && st[v].seed_queue.empty();
  };
  auto all_done = [&]() {
    for (u32 v = 0; v < n; ++v)
      if (!node_done(v)) return false;
    return true;
  };

  const u32 cadence = 16;  // gossip rounds between termination checks
  u64 budget = 4 * (isqrt(k) + ceil_div(ell * seed_copies, net.global_cap())) +
               cadence;
  // Fault degradation (docs/FAULTS.md): gossip is self-healing by nature —
  // every round each node re-offers uniformly random tokens from its whole
  // known set, so dropped copies get unlimited fresh chances and the
  // doubling outer loop already absorbs the slowdown. Crashed nodes pause
  // (no sends, no pulls, fresh list preserved for when they recover). The
  // only extra machinery needed is a hard budget so a node that never
  // recovers surfaces as fault_failure instead of an endless loop.
  const bool lf = net.local_faults_active();
  const bool faulty = net.faults_active();
  const u64 budget0 = budget;
  const u64 fail_budget =
      u64{net.faults().heal_budget_mult} *
      std::max<u64>(budget, aggregation_rounds(n));
  u64 spent = 0;
  std::vector<u64> dropped(lf ? n : 0, 0);
  std::vector<std::vector<u32>> inject(n);
  std::vector<u64> flags(n);
  // The termination check: one charged AND-aggregation of node_done.
  const auto everyone_done = [&] {
    for (u32 v = 0; v < n; ++v) flags[v] = node_done(v) ? 1 : 0;
    return global_aggregate(net, agg_op::logical_and, flags) == 1;
  };
  round_executor& exec = net.executor();
  bool done = false;
  while (!done) {
    for (u64 r = 0; r < budget && !done; ++r, ++spent) {
      // Global pushes (seeding first, then uniform random gossip) and the
      // pull side of the local flood run node-parallel: node v draws from
      // its (seed, v, round) stream, spends its own γ budget, and collects
      // fresh tokens from its neighbors' frozen fresh-lists.
      const u64 items = exec.sum_nodes(n, [&](u32 v) -> u64 {
        inject[v].clear();
        if (lf) dropped[v] = 0;
        if (!net.is_up(v)) return 0;  // fail-pause: no sends, no pulls
        rng rv = net.round_rng(v);
        while (!st[v].seed_queue.empty() && net.global_budget(v) > 0) {
          auto& [idx, left] = st[v].seed_queue.back();
          const u32 dst = static_cast<u32>(rv.next_below(n));
          const token2& t = tokens[idx];
          net.try_send_global(
              global_msg::make(v, dst, kTokenTag, {t.a, t.b, idx}));
          if (--left == 0) st[v].seed_queue.pop_back();
        }
        while (!st[v].known.empty() && net.global_budget(v) > 0) {
          const u32 idx = st[v].known[rv.next_below(st[v].known.size())];
          const u32 dst = static_cast<u32>(rv.next_below(n));
          const token2& t = tokens[idx];
          net.try_send_global(
              global_msg::make(v, dst, kTokenTag, {t.a, t.b, idx}));
        }
        // Local flooding, pull side: read neighbors' fresh-lists (frozen
        // this round; cleared only after the barrier below).
        u64 mine = 0;
        for (const edge& e : g.neighbors(v)) {
          const std::vector<u32>& from = st[e.to].fresh;
          const u32 cnt = static_cast<u32>(from.size());
          mine += cnt;
          const hybrid_net::local_drops link =
              lf ? net.local_link(e.to, v, cnt) : hybrid_net::local_drops{};
          for (u32 j = 0; j < cnt; ++j) {
            if (link.drop(j)) {
              ++dropped[v];
              continue;
            }
            const u32 idx = from[j];
            if (!st[v].knows(idx)) inject[v].push_back(idx);
          }
        }
        return mine;
      });
      // Fresh lists of down nodes are preserved: when the node recovers it
      // re-offers them, so a crash can't permanently strand a token that
      // exists nowhere else locally.
      exec.for_nodes(n, [&](u32 v) {
        if (net.is_up(v)) st[v].fresh.clear();
      });
      u64 lost = 0;
      if (lf) {
        for (u32 v = 0; v < n; ++v) lost += dropped[v];
        net.note_local_dropped(lost);
      }
      net.charge_local(items);
      net.note_local_delivered(items - lost);
      net.advance_round();
      exec.for_nodes(n, [&](u32 v) {
        for (u32 idx : inject[v])
          if (!st[v].knows(idx)) st[v].learn(idx);
        for (const global_msg& m : net.global_inbox(v)) {
          if (m.tag != kTokenTag) continue;
          const u32 idx = static_cast<u32>(m.w[2]);
          if (!st[v].knows(idx)) st[v].learn(idx);
        }
      });
      // Termination check at fixed cadence (aggregation rounds are charged
      // by global_aggregate itself).
      if ((r + 1) % cadence == 0) done = everyone_done();
    }
    if (!done) {
      done = everyone_done();
      if (!done && faulty && spent >= fail_budget)
        throw fault_failure("dissemination healing budget exhausted");
      budget *= 2;
    }
  }
  // Gossip rounds beyond the initial budget count as healing overhead (the
  // fault-free run fits the first budget on every workload we bench; the
  // doubling loop exists for adversarial token distributions).
  if (faulty && spent > budget0) net.note_extra_rounds(spent - budget0);
  HYB_INVARIANT(all_done(), "dissemination terminated before completion");
  out.rounds_used = net.round() - start_round;
  return out;
}

dissemination_result disseminate_charged(
    hybrid_net& net, std::vector<std::vector<token2>> initial) {
  if (net.faults_active())
    throw fault_unsupported(
        "charged dissemination is a closed-form stand-in and cannot heal "
        "message loss; use disseminate() under active faults");
  const graph& g = net.g();
  const u32 n = g.num_nodes();
  HYB_REQUIRE(initial.size() == n, "initial tokens must cover every node");

  // Token enumeration identical to disseminate(): the shared vector is the
  // exact content every node converges to on the simulated path.
  std::vector<token2> tokens;
  std::vector<u64> counts(n);
  u64 ell = 0;
  for (u32 v = 0; v < n; ++v) {
    counts[v] = initial[v].size();
    for (const token2& t : initial[v]) tokens.push_back(t);
    ell = std::max<u64>(ell, initial[v].size());
  }
  const u32 k = static_cast<u32>(tokens.size());

  const u64 start_round = net.round();
  const u64 k_agg = global_aggregate(net, agg_op::sum, counts);
  HYB_INVARIANT(k_agg == k, "token count aggregation mismatch");

  dissemination_result out;
  out.tokens = std::move(tokens);
  if (k == 0) {
    out.rounds_used = net.round() - start_round;
    return out;
  }

  // The simulated path's guaranteed first budget (it fits every fault-free
  // benched workload; the doubling loop exists for adversarial token
  // distributions), charged as silent rounds.
  const u32 logn = id_bits(n);
  const u32 seed_copies = std::max<u32>(
      1, static_cast<u32>(
             std::ceil(net.config().dissemination_seed_mult * logn)));
  const u32 cadence = 16;
  const u64 budget =
      4 * (isqrt(k) + ceil_div(ell * seed_copies, net.global_cap())) + cadence;
  net.charge_rounds(budget);
  // Gossip pushes: every node spends its γ budget each gossip round, three
  // payload words per push (the {a, b, idx} token message).
  net.charge_global(budget * u64{n} * net.global_cap(),
                    3 * budget * u64{n} * net.global_cap());
  // Local flooding: each token enters each node's fresh-list once and is
  // read once per incident edge side — exactly 2|E|·k items on any run
  // that converges, charged as delivered (closed-form budgets are
  // reliability-abstracted, see run_metrics::local_delivered).
  const u64 items = 2 * g.num_edges() * u64{k};
  net.charge_local(items);
  net.note_local_delivered(items);
  // Termination AND-aggregations at the fixed cadence, plus the final one.
  const u64 checks = budget / cadence + 1;
  net.charge_rounds(checks * aggregation_rounds(n));
  net.charge_global(checks * 2 * u64{n}, checks * 2 * u64{n});
  out.rounds_used = net.round() - start_round;
  return out;
}

}  // namespace hybrid
