#include "proto/dissemination.hpp"

#include <algorithm>

#include "proto/aggregation.hpp"
#include "util/assert.hpp"

namespace hybrid {

namespace {
constexpr u32 kTokenTag = 0xD155;

/// Every node's gossip state in flat per-node arrays (a handful of
/// allocations per call, none per round). Node v's known tokens sit in
/// arrival order at known[v·k, v·k + count[v]); its fresh list — the tokens
/// learned since its last local flood — is the suffix
/// known[v·k + fresh_begin[v], v·k + fresh_end[v]), so it needs no storage
/// of its own. A node's own tokens go out first, `seed_copies` pushes each,
/// last token first: seed_left[v] pushes remain.
struct gossip_state {
  u32 k, words;  // tokens; bitset words per node
  std::vector<u32> known, count, fresh_begin, fresh_end, seed_left;
  std::vector<u64> known_bit;

  gossip_state(u32 n, u32 k)
      : k(k),
        words((k + 63) / 64),
        known(u64{n} * k),
        count(n),
        fresh_begin(n),
        fresh_end(n),
        seed_left(n),
        known_bit(u64{n} * words) {}

  const u32* tokens_of(u32 v) const { return known.data() + u64{v} * k; }
  bool knows(u32 v, u32 idx) const {
    return (known_bit[u64{v} * words + idx / 64] >> (idx % 64)) & 1;
  }
  void learn(u32 v, u32 idx) {
    known_bit[u64{v} * words + idx / 64] |= u64{1} << (idx % 64);
    known[u64{v} * k + count[v]++] = idx;
  }
};

/// The gossip schedule both paths share: copies seeded per token (Θ(log n)
/// in the analysis), gossip rounds between termination checks, and the
/// first gossip budget — it fits every fault-free benched workload; the
/// simulated path's doubling loop exists for adversarial token
/// distributions.
struct gossip_plan {
  u32 seed_copies;
  u32 cadence;
  u64 budget;
};

/// The enumerated token set: node v owns tokens[first[v] .. first[v+1]),
/// and a token's index rides inside its O(log n)-bit message.
struct token_set {
  const std::vector<token2>& tokens;
  const std::vector<u32>& first;
  gossip_plan plan;
};

/// The opening and closing both paths share: enumerate the tokens node by
/// node (simulator bookkeeping), make k known by a charged sum-aggregation
/// (the protocols downstream need it for termination checks), run
/// `gossip` unless k = 0, and report the rounds spent.
dissemination_result run_dissemination(
    hybrid_net& net, const std::vector<std::vector<token2>>& initial,
    void (*gossip)(hybrid_net&, const token_set&)) {
  const u32 n = net.n();
  HYB_REQUIRE(initial.size() == n, "initial tokens must cover every node");
  dissemination_result out;
  std::vector<u32> first(u64{n} + 1, 0);
  std::vector<u64> counts(n);
  u64 ell = 0;
  for (u32 v = 0; v < n; ++v) {
    out.tokens.insert(out.tokens.end(), initial[v].begin(), initial[v].end());
    first[v + 1] = static_cast<u32>(out.tokens.size());
    counts[v] = initial[v].size();
    ell = std::max<u64>(ell, initial[v].size());
  }
  const u32 k = static_cast<u32>(out.tokens.size());

  const u64 start_round = net.round();
  const u64 k_agg = global_aggregate(net, agg_op::sum, counts);
  HYB_INVARIANT(k_agg == k, "token count aggregation mismatch");
  if (k != 0) {
    const u32 seed_copies = id_bits(n);
    const u32 cadence = 16;
    const u64 budget =
        4 * (isqrt(k) + ceil_div(ell * seed_copies, net.global_cap())) +
        cadence;
    gossip(net, {out.tokens, first, {seed_copies, cadence, budget}});
  }
  out.rounds_used = net.round() - start_round;
  return out;
}

/// The simulated gossip: seeding, random pushes, the local fresh-list flood
/// and the cadence termination checks, until every node knows all k tokens.
void simulate_gossip(hybrid_net& net, const token_set& ts) {
  const graph& g = net.g();
  const u32 n = g.num_nodes();
  const std::vector<token2>& tokens = ts.tokens;
  const gossip_plan& plan = ts.plan;
  const u32 k = static_cast<u32>(tokens.size());

  gossip_state st(n, k);
  for (u32 v = 0; v < n; ++v) {
    for (u32 idx = ts.first[v]; idx < ts.first[v + 1]; ++idx) st.learn(v, idx);
    st.fresh_end[v] = st.count[v];
    st.seed_left[v] = st.count[v] * plan.seed_copies;
  }

  // v knows all k tokens and has nothing left to seed.
  const auto node_done = [&](u32 v) {
    return st.count[v] == k && st.seed_left[v] == 0;
  };
  auto all_done = [&]() {
    for (u32 v = 0; v < n; ++v)
      if (!node_done(v)) return false;
    return true;
  };

  u64 budget = plan.budget;
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
  std::vector<u64> flags(n);
  // The termination check: one charged AND-aggregation of node_done.
  const auto everyone_done = [&] {
    for (u32 v = 0; v < n; ++v) flags[v] = node_done(v) ? 1 : 0;
    return global_aggregate(net, agg_op::logical_and, flags) == 1;
  };
  // Global pushes (seeding first, then uniform random gossip) and the pull
  // side of the local flood run node-parallel: node v draws from its
  // (seed, v, round) stream, spends its own γ budget, and learns the
  // tokens it lacks from its neighbors' fresh lists. Those lists are frozen
  // for the round: they end at fresh_end, below every position a learning
  // node appends at.
  const auto send_and_pull = [&](u32 v) -> u64 {
    if (lf) dropped[v] = 0;
    if (!net.is_up(v)) return 0;  // fail-pause: no sends, no pulls
    rng rv = net.round_rng(v);
    while (st.seed_left[v] != 0 && net.global_budget(v) > 0) {
      const u32 idx = ts.first[v] + (st.seed_left[v] - 1) / plan.seed_copies;
      const u32 dst = static_cast<u32>(rv.next_below(n));
      const token2& t = tokens[idx];
      net.try_send_global(global_msg::make(v, dst, kTokenTag, {t.a, t.b, idx}));
      --st.seed_left[v];
    }
    const u32 held = st.count[v];
    while (held != 0 && net.global_budget(v) > 0) {
      const u32 idx = st.tokens_of(v)[rv.next_below(held)];
      const u32 dst = static_cast<u32>(rv.next_below(n));
      const token2& t = tokens[idx];
      net.try_send_global(global_msg::make(v, dst, kTokenTag, {t.a, t.b, idx}));
    }
    // Local flooding, pull side.
    u64 mine = 0;
    for (const edge& e : g.neighbors(v)) {
      const u32* from = st.tokens_of(e.to) + st.fresh_begin[e.to];
      const u32 cnt = st.fresh_end[e.to] - st.fresh_begin[e.to];
      mine += cnt;
      const local_drops link =
          lf ? net.local_link(e.to, v, cnt) : local_drops{};
      for (u32 j = 0; j < cnt; ++j) {
        if (link.drop(j)) {
          ++dropped[v];
          continue;
        }
        if (!st.knows(v, from[j])) st.learn(v, from[j]);
      }
    }
    return mine;
  };
  // Fresh lists of down nodes are preserved: when the node recovers it
  // re-offers them, so a crash can't permanently strand a token that exists
  // nowhere else locally.
  const auto clear_fresh = [&](u32 v) {
    if (net.is_up(v)) st.fresh_begin[v] = st.fresh_end[v];
  };
  // A node that knows all k tokens can learn nothing from its inbox.
  const auto receive = [&](u32 v) {
    if (st.count[v] != k)
      for (const global_msg& m : net.global_inbox(v)) {
        if (m.tag != kTokenTag) continue;
        const u32 idx = static_cast<u32>(m.w[2]);
        if (!st.knows(v, idx)) st.learn(v, idx);
      }
    st.fresh_end[v] = st.count[v];
  };
  round_executor& exec = net.executor();
  bool done = false;
  while (!done) {
    for (u64 r = 0; r < budget && !done; ++r, ++spent) {
      const u64 items = exec.sum_nodes(n, send_and_pull);
      exec.for_nodes(n, clear_fresh);
      u64 lost = 0;
      if (lf) {
        for (u32 v = 0; v < n; ++v) lost += dropped[v];
        net.note_local_dropped(lost);
      }
      net.charge_local(items);
      net.note_local_delivered(items - lost);
      net.advance_round();
      exec.for_nodes(n, receive);
      // Termination check at fixed cadence (aggregation rounds are charged
      // by global_aggregate itself).
      if ((r + 1) % plan.cadence == 0) done = everyone_done();
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
}

/// The closed-form gossip: the simulated path's first budget and traffic,
/// charged without moving a message.
void charge_gossip(hybrid_net& net, const token_set& ts) {
  const u32 n = net.n();
  const u32 k = static_cast<u32>(ts.tokens.size());
  // The simulated path's first budget, charged as silent rounds.
  const u64 budget = ts.plan.budget;
  net.charge_rounds(budget);
  // Gossip pushes: every node spends its γ budget each gossip round, three
  // payload words per push (the {a, b, idx} token message).
  net.charge_global(budget * u64{n} * net.global_cap(),
                    3 * budget * u64{n} * net.global_cap());
  // Local flooding: each token enters each node's fresh-list once and is
  // read once per incident edge side — exactly 2|E|·k items on any run
  // that converges, charged as delivered (closed-form budgets are
  // reliability-abstracted, see run_metrics::local_delivered).
  const u64 items = 2 * net.g().num_edges() * u64{k};
  net.charge_local(items);
  net.note_local_delivered(items);
  // Termination AND-aggregations at the fixed cadence, plus the final one.
  const u64 checks = budget / ts.plan.cadence + 1;
  net.charge_rounds(checks * aggregation_rounds(n));
  net.charge_global(checks * 2 * u64{n}, checks * 2 * u64{n});
}

}  // namespace

dissemination_result disseminate(hybrid_net& net,
                                 std::vector<std::vector<token2>> initial) {
  return run_dissemination(net, initial, simulate_gossip);
}

dissemination_result disseminate_charged(
    hybrid_net& net, std::vector<std::vector<token2>> initial) {
  if (net.faults_active())
    throw fault_unsupported(
        "charged dissemination is a closed-form stand-in and cannot heal "
        "message loss; use disseminate() under active faults");
  // The token set is the one the simulated path enumerates: the exact
  // content every node converges to there.
  return run_dissemination(net, initial, charge_gossip);
}

}  // namespace hybrid
