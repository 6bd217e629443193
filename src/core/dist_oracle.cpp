// The oracle's query paths are the dense assembly loops of core/apsp.cpp,
// core/apsp_baseline.cpp, and core/kssp_framework.cpp (as they stood before
// PR 5), restricted to one pair or one row. Keeping the iteration order, the
// relaxation arithmetic, and the kInfDist edge handling line-for-line
// identical to those loops is what makes query()/materialize() bit-identical
// to the retired eager matrices — the differential suite asserts it.
//
// Everything is implemented on label_view — spans, not vectors — so the
// owning dist_labels and core/oracle_store's mmap-ed labels run the same
// machine code over either storage (the round-trip suite asserts the
// bit-identity that design makes structural).
#include "core/dist_oracle.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace hybrid {

namespace {

/// Binary search one node's ball slice (sorted by source id).
u64 ball_lookup(std::span<const exploration_entry> slice, u32 target) {
  const auto it = std::lower_bound(
      slice.begin(), slice.end(), target,
      [](const exploration_entry& e, u32 v) { return e.source < v; });
  if (it == slice.end() || it->source != target) return kInfDist;
  return it->dist;
}

/// Per-index minima over [0, size) with the touched indices listed: `at`
/// is kInfDist everywhere between uses, so a fold costs only the indices it
/// touches to set up and to reset.
struct sparse_min {
  std::vector<u64> at;
  std::vector<u32> touched;

  void fit(u32 size) {
    if (at.size() >= size) return;
    at.resize(size, kInfDist);
    touched.reserve(size);
  }
  /// at[i] ⊓= d. A leg ≥ kInfDist is skipped, never stored: it could not
  /// win a min against a finite best, and stored as kInfDist it would pass
  /// for untouched.
  void relax(u32 i, u64 d) {
    if (d >= kInfDist) return;
    if (at[i] == kInfDist) touched.push_back(i);
    at[i] = std::min(at[i], d);
  }
  void clear() {
    for (const u32 i : touched) at[i] = kInfDist;
    touched.clear();
  }
};

/// The composition's working memory, one per thread: query() and
/// row_into() run concurrently on shared read-only views (the mapped
/// oracle's readers, materialize()'s workers), so each thread composes in
/// its own scratch, grown to the largest n_s / n_s2 it has served. After
/// the first call at a given size neither path allocates (row_into() only
/// fills the caller's `out`).
struct compose_scratch {
  sparse_min skel_min;  ///< v's best gateway leg per skeleton index t1
  sparse_min super_u;   ///< P: u's best leg per super index s2
  sparse_min super_v;   ///< Q: v's best leg per super index t2
  std::vector<u64> p, b, a;  ///< row_into()'s dense per-row arrays

  static compose_scratch& local() {
    thread_local compose_scratch s;
    return s;
  }
  void fit(u32 n_s, u32 n_s2) {
    skel_min.fit(n_s);
    super_u.fit(n_s2);
    super_v.fit(n_s2);
  }
};

}  // namespace

void flatten_gateways(round_executor& ex,
                      const std::vector<std::vector<source_distance>>& near,
                      std::vector<u64>& offsets,
                      std::vector<source_distance>& gateways) {
  const u32 n = static_cast<u32>(near.size());
  offsets.assign(u64{n} + 1, 0);
  for (u32 v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + near[v].size();
  gateways.resize(offsets[n]);
  ex.for_nodes(n, [&](u32 v) {
    std::copy(near[v].begin(), near[v].end(),
              gateways.begin() + static_cast<std::ptrdiff_t>(offsets[v]));
  });
}

u64 label_view::ball_dist(u32 u, u32 v) const { return ball_lookup(ball_of(u), v); }

u64 label_view::query(u32 u, u32 v) const {
  u64 best = ball_dist(u, v);
  if (scheme == label_scheme::kSkeletonRows) {
    // min_{s near u} d_h(u, s) + d(s, v) — the Theorem 1.1 assembly. ∞ rows
    // entries are skipped explicitly: with multi-level composition in the
    // codebase the kInfDist = ~u64/4 headroom argument only covers sums of
    // ≤ 3 addends, so no ∞ may ever enter an addition. (Skipping is
    // result-identical: best starts ≤ kInfDist, and a skipped candidate was
    // ≥ kInfDist.)
    for (const source_distance& sd : gateways_of(u)) {
      const u64 mid = skel[u64{sd.source} * n + v];
      if (mid >= kInfDist) continue;
      best = std::min(best, sd.dist + mid);
    }
  } else if (scheme == label_scheme::kSkeletonPairs) {
    // min_{s1 near u, s2 near v} d_h(u,s1) + d_S(s1,s2) + d_h(v,s2) — the
    // baseline assembly with A[s2] = min_{s1} d_h(u,s1) + d_S(s1,s2)
    // evaluated per s2; ∞ pair entries skipped before the addition so the
    // A[s2] == kInfDist filter is exact rather than headroom-dependent.
    for (const source_distance& to : gateways_of(v)) {
      u64 a = kInfDist;
      for (const source_distance& from : gateways_of(u)) {
        const u64 mid = skel[u64{from.source} * n_s + to.source];
        if (mid >= kInfDist) continue;
        a = std::min(a, from.dist + mid);
      }
      if (a == kInfDist) continue;
      best = std::min(best, a + to.dist);
    }
  } else {
    // kTwoLevel: d(u,v) = ball ⊓ min_{s1 near u, t1 near v} gw + d_S1 + gw,
    // where d_S1(s1,t1) itself composes ball1 with the super-pair table.
    // Every table lookup that can be ∞ is skipped before it is added — all
    // four addends of the deepest term (gw, gw1, d_S2, gw1) are finite, so
    // the u64 sums cannot wrap. Both terms fold one side into per-index
    // minima first; min is associative, so the answer is the one of the
    // plain |gu|×|gv| and |P|×|Q| loops.
    const auto gu = gateways_of(u);
    const auto gv = gateways_of(v);
    if (gu.empty() || gv.empty()) return best;
    compose_scratch& s = compose_scratch::local();
    s.fit(n_s, n_s2);
    // (a) the ball1 cross term: gw(u,s1) + ball1(s1,t1) + gw(v,t1). v's
    // gateways are marked by t1, then each of u's ball1 slices is scanned
    // sequentially against the marks.
    for (const source_distance& to : gv) s.skel_min.relax(to.source, to.dist);
    for (const source_distance& from : gu)
      for (const exploration_entry& e : ball1_of(from.source)) {
        const u64 to_leg = s.skel_min.at[e.source];
        if (to_leg == kInfDist || e.dist >= kInfDist) continue;
        best = std::min(best, from.dist + e.dist + to_leg);
      }
    s.skel_min.clear();
    // (b) the super-pair term, factored through level 2: P[s2] = the best
    // u-side leg gw + gw1 into super node s2, Q[t2] the same from v's side;
    // then min over the distinct P × Q of P + d_S2 + Q. A row whose P leg
    // plus the smallest Q leg already reaches best cannot improve it
    // (d_S2 ≥ 0) and is skipped whole.
    for (const source_distance& from : gu)
      for (const source_distance& g2 : gw1_of(from.source))
        s.super_u.relax(g2.source, from.dist + g2.dist);
    for (const source_distance& to : gv)
      for (const source_distance& g2 : gw1_of(to.source))
        s.super_v.relax(g2.source, to.dist + g2.dist);
    u64 min_to_leg = kInfDist;
    for (const u32 t2 : s.super_v.touched)
      min_to_leg = std::min(min_to_leg, s.super_v.at[t2]);
    for (const u32 s2 : s.super_u.touched) {
      const u64 from_leg = s.super_u.at[s2];
      if (min_to_leg == kInfDist || from_leg + min_to_leg >= best) continue;
      const u64* row = skel.data() + u64{s2} * n_s2;
      for (const u32 t2 : s.super_v.touched) {
        const u64 mid = row[t2];
        if (mid >= kInfDist) continue;
        best = std::min(best, from_leg + mid + s.super_v.at[t2]);
      }
    }
    s.super_u.clear();
    s.super_v.clear();
  }
  return best;
}

u32 label_view::next_hop(u32 u, u32 v) const {
  HYB_REQUIRE(routes, "next_hop requires labels built with build_routes");
  HYB_REQUIRE(topo != nullptr, "next_hop requires the local graph");
  if (u == v) return u;
  const u64 du = query(u, v);
  // The dense loop: among neighbors w with w(u,w) + d(w,v) == d(u,v), the
  // smallest ID wins; unreachable targets keep ~0.
  u32 best = ~u32{0};
  for (const edge& e : topo->neighbors(u)) {
    const u64 dn = query(e.to, v);
    if (dn == kInfDist) continue;
    if (e.weight + dn == du && (best == ~u32{0} || e.to < best)) best = e.to;
  }
  return best;
}

void label_view::row_into(u32 u, std::vector<u64>& out) const {
  out.assign(n, kInfDist);
  for (const exploration_entry& e : ball_of(u)) out[e.source] = e.dist;
  if (scheme == label_scheme::kSkeletonRows) {
    // ∞ row entries skipped before the addition (same invariant as query():
    // no ∞ ever enters a sum); result-identical to the old headroom-reliant
    // loop because out[v] ≤ kInfDist throughout.
    for (const source_distance& sd : gateways_of(u)) {
      const u64* lbl = skel.data() + u64{sd.source} * n;
      for (u32 v = 0; v < n; ++v) {
        if (lbl[v] >= kInfDist) continue;
        out[v] = std::min(out[v], sd.dist + lbl[v]);
      }
    }
  } else if (scheme == label_scheme::kSkeletonPairs) {
    // A[s2] = min_{s1 near u} d_h(u, s1) + d_S(s1, s2), then one gateway
    // scan per target — the baseline loop with its token scan replaced by
    // the equivalent per-target gateway lists. ∞ pair entries skipped so
    // the A[s2] filter is exact.
    std::vector<u64>& a = compose_scratch::local().a;
    a.assign(n_s, kInfDist);
    for (const source_distance& from : gateways_of(u))
      for (u32 s2 = 0; s2 < n_s; ++s2) {
        const u64 mid = skel[u64{from.source} * n_s + s2];
        if (mid >= kInfDist) continue;
        a[s2] = std::min(a[s2], from.dist + mid);
      }
    for (u32 v = 0; v < n; ++v)
      for (const source_distance& to : gateways_of(v)) {
        if (a[to.source] == kInfDist) continue;
        out[v] = std::min(out[v], a[to.source] + to.dist);
      }
  } else {
    // kTwoLevel, the row variant of query()'s composition with the shared
    // legs hoisted. P[s2] = best u → super-node-s2 leg; B[t2] folds the
    // super-pair table over P; A[t1] = best u → skeleton-node-t1 distance
    // (ball1 cross term ⊓ B pulled back through t1's level-2 gateways);
    // the final scan composes A with each target's level-1 gateways. Every
    // ∞ is skipped before addition, and A/B/P stay exactly kInfDist when
    // unreachable, so the filters are exact.
    compose_scratch& s = compose_scratch::local();
    std::vector<u64>& p = s.p;
    p.assign(n_s2, kInfDist);
    for (const source_distance& from : gateways_of(u))
      for (const source_distance& g2 : gw1_of(from.source))
        p[g2.source] = std::min(p[g2.source], from.dist + g2.dist);
    std::vector<u64>& b = s.b;
    b.assign(n_s2, kInfDist);
    for (u32 s2 = 0; s2 < n_s2; ++s2) {
      if (p[s2] == kInfDist) continue;
      const u64* row = skel.data() + u64{s2} * n_s2;
      for (u32 t2 = 0; t2 < n_s2; ++t2) {
        if (row[t2] >= kInfDist) continue;
        b[t2] = std::min(b[t2], p[s2] + row[t2]);
      }
    }
    std::vector<u64>& a = s.a;
    a.assign(n_s, kInfDist);
    for (const source_distance& from : gateways_of(u))
      for (const exploration_entry& e : ball1_of(from.source))
        a[e.source] = std::min(a[e.source], from.dist + e.dist);
    for (u32 t1 = 0; t1 < n_s; ++t1)
      for (const source_distance& g2 : gw1_of(t1)) {
        if (b[g2.source] == kInfDist) continue;
        a[t1] = std::min(a[t1], b[g2.source] + g2.dist);
      }
    for (u32 v = 0; v < n; ++v)
      for (const source_distance& to : gateways_of(v)) {
        if (a[to.source] == kInfDist) continue;
        out[v] = std::min(out[v], a[to.source] + to.dist);
      }
  }
}

std::vector<u64> label_view::row(u32 u) const {
  std::vector<u64> out;
  row_into(u, out);
  return out;
}

std::vector<std::vector<u64>> dist_labels::materialize(round_executor& ex) const {
  const label_view v = view();
  std::vector<std::vector<u64>> dist(n);
  ex.for_nodes(n, [&](u32 u) { v.row_into(u, dist[u]); });
  return dist;
}

std::vector<std::vector<u64>> dist_labels::materialize(sim_options opts) const {
  round_executor ex(opts);
  return materialize(ex);
}

std::vector<std::vector<u32>> dist_labels::materialize_next_hops(
    const std::vector<std::vector<u64>>& dist, round_executor& ex) const {
  HYB_REQUIRE(routes, "next-hop tables require labels built with build_routes");
  HYB_REQUIRE(topo != nullptr, "next-hop tables require the local graph");
  std::vector<std::vector<u32>> hops(n, std::vector<u32>(n, ~u32{0}));
  ex.for_nodes(n, [&](u32 u) {
    hops[u][u] = u;
    for (const edge& e : topo->neighbors(u)) {
      const std::vector<u64>& nbr = dist[e.to];
      for (u32 v = 0; v < n; ++v) {
        if (v == u || nbr[v] == kInfDist) continue;
        const u64 through = e.weight + nbr[v];
        if (through == dist[u][v] &&
            (hops[u][v] == ~u32{0} || e.to < hops[u][v]))
          hops[u][v] = e.to;
      }
    }
  });
  return hops;
}

// ---- kssp_labels -----------------------------------------------------------

u64 kssp_labels::query(u32 j, u32 v) const {
  u64 best = ball_lookup(ball.reached(v), sources[j]);
  const u64 leg = rep_leg[j];
  const u64* est_row = est.data() + u64{rep_slot[j]} * n_s;
  for (const source_distance& sd : gateways_of(v)) {
    const u64 mid = est_row[sd.source];
    if (mid == kInfDist) continue;
    best = std::min(best, sd.dist + mid + leg);
  }
  return best;
}

void kssp_labels::row_into(u32 j, std::vector<u64>& out) const {
  out.resize(n);
  for (u32 v = 0; v < n; ++v) out[v] = query(j, v);
}

std::vector<u64> kssp_labels::row(u32 j) const {
  std::vector<u64> out;
  row_into(j, out);
  return out;
}

std::vector<std::vector<u64>> kssp_labels::materialize(round_executor& ex) const {
  std::vector<std::vector<u64>> dist(sources.size(), std::vector<u64>(n));
  for (u32 j = 0; j < sources.size(); ++j)
    ex.for_nodes(n, [&](u32 v) { dist[j][v] = query(j, v); });
  return dist;
}

}  // namespace hybrid
