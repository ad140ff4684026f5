"""Shared fixtures, generators, and independent oracles.

The oracles here deliberately avoid the library's code paths: the interval
partition oracle is a dynamic program over prefixes, the latency oracle
works on densely sampled traces with naive linear scans, and the brute
shortest-path oracle enumerates simple paths.  They exist to pin expected
values independently of the implementations under test.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from patrolsim.partition import Partition, partition_from_clusters
from patrolsim.roadmap import ChainRoadmap, Roadmap
from patrolsim.trajectories import PiecewisePath, TeamTrajectory


# ---------------------------------------------------------------------------
# partition oracle


def min_dimension_dp(coords, m: int) -> float:
    """Minimum max-span over all interval m-partitions, by prefix DP."""
    n = len(coords)
    inf = math.inf
    # dp[j]: best max-span covering the first j viewpoints with the clusters
    # spent so far; zero clusters cover only the empty prefix
    dp = [0.0 if j == 0 else inf for j in range(n + 1)]
    for _ in range(m):
        ndp = [inf] * (n + 1)
        ndp[0] = 0.0
        for j in range(1, n + 1):
            best = dp[j]  # leave this cluster empty
            for s in range(j):
                cand = max(dp[s], coords[j - 1] - coords[s])
                if cand < best:
                    best = cand
            ndp[j] = best
        dp = ndp
    return dp[n]


# ---------------------------------------------------------------------------
# random instance generators


def random_chain(rng: random.Random, n_max: int = 60, lo: float = 0.1, hi: float = 10.0):
    n = rng.randint(4, n_max)
    coords = [0.0]
    for _ in range(n - 1):
        coords.append(coords[-1] + rng.uniform(lo, hi))
    return ChainRoadmap(coords)


def singleton_group_instance(rng: random.Random, m: int | None = None):
    """Chain + m-partition whose consecutive cluster lengths always exceed
    the dimension when summed, so every aggregated group is a single
    cluster (the regime where the periodic latency bound is attained)."""
    m = m if m is not None else rng.randint(3, 10)
    scale = rng.uniform(0.5, 5.0)
    d = [rng.uniform(0.55, 1.0) * scale for _ in range(m)]
    gaps = [rng.uniform(0.1, 1.0) * scale for _ in range(m - 1)]
    coords, x = [], 0.0
    for i in range(m):
        coords += [x, x + d[i]]
        x += d[i] + (gaps[i] if i < m - 1 else 0.0)
    chain = ChainRoadmap(coords)
    part = partition_from_clusters(chain, tuple((2 * i, 2 * i + 1) for i in range(m)))
    return chain, part


def fig_style_instance(c: float = 2.0):
    """Three clusters with a stationary first robot: the aggregated groups
    are {1,2} and {3} and the periodic latency bound reduces to the middle
    cluster's length."""
    chain = ChainRoadmap([0.0, 1.0, 1.0 + c, 2.0 + c, 2.0 + 2 * c])
    part = partition_from_clusters(chain, ((0,), (1, 2), (3, 4)))
    return chain, part


def random_metric_roadmap(rng: random.Random, n_lo=4, n_hi=8, extra_hi=None) -> Roadmap:
    """Random connected planar-point roadmap; Euclidean lengths make every
    edge a shortest route, so the metric invariant holds by construction."""
    n = rng.randint(n_lo, n_hi)
    pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
    ids = [f"v{i}" for i in range(n)]

    def dist(i, j):
        return math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1]) + 1e-9

    edges = []
    have = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((ids[i], ids[j], dist(i, j)))
        have.add(frozenset((i, j)))
    extra = rng.randint(0, n if extra_hi is None else extra_hi)
    for _ in range(extra):
        i, j = rng.sample(range(n), 2)
        if frozenset((i, j)) not in have:
            have.add(frozenset((i, j)))
            edges.append((ids[i], ids[j], dist(i, j)))
    return Roadmap(ids, edges)


def random_tree(rng: random.Random, n_lo=3, n_hi=10):
    n = rng.randint(n_lo, n_hi)
    ids = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((ids[i], ids[j], rng.uniform(0.2, 3.0)))
    from patrolsim.roadmap import TreeRoadmap

    return TreeRoadmap(ids, edges)


# ---------------------------------------------------------------------------
# latency oracles


def naive_propagation(phis, horizon):
    """Reference max-min relay computation with plain linear scans."""

    def chase(sources, hops):
        worst = 0.0
        for t0 in sources:
            t = t0
            for hop in hops:
                nxt = None
                for cand in hop:  # hop lists are sorted
                    if cand >= t:
                        nxt = cand
                        break
                t = horizon if nxt is None else nxt
                if nxt is None:
                    break
            worst = max(worst, t - t0)
        return worst

    up = chase(phis[0], phis[1:])
    down = chase(phis[-1], list(reversed(phis[:-1])))
    return up, down, max(up, down)


def sampled_latency_oracle(traj: TeamTrajectory, chain: ChainRoadmap, dt: float = 1e-3):
    """Latency measured from a densely sampled trace, independent of the
    exact occupancy machinery: communication instants are detected by
    spatial proximity to adjacent viewpoints and relayed by linear scans.
    """
    times, pos = traj.sample(dt)
    coords = chain.coordinates
    relay = traj.relay
    eta = 1.5 * dt
    phis = []
    for q in range(len(relay) - 1):
        xa, xb = pos[:, relay[q]], pos[:, relay[q + 1]]
        co = np.zeros(len(times), dtype=bool)
        for k in range(len(coords) - 1):
            u, v = coords[k], coords[k + 1]
            co |= (np.abs(xa - u) <= eta) & (np.abs(xb - v) <= eta)
            co |= (np.abs(xa - v) <= eta) & (np.abs(xb - u) <= eta)
        starts = np.flatnonzero(co & ~np.concatenate(([False], co[:-1])))
        phis.append([0.0] + [float(times[s]) for s in starts])
    return naive_propagation(phis, float(times[-1]))


def random_image_trajectory(
    rng: random.Random, part: Partition, horizon: float
) -> TeamTrajectory:
    """A random team trajectory whose image matches the partition: each
    robot sweeps its whole cluster with random dwells, at unit speed."""
    horizon_f = Fraction(horizon)
    paths = []
    for i in part.active:
        l, r = Fraction(part.left(i)), Fraction(part.right(i))
        d = r - l
        pts = [(Fraction(0), l)]
        t = Fraction(0)
        at_left = True
        while t < horizon_f:
            dwell = Fraction(rng.uniform(0.0, float(d)) if d else 1.0).limit_denominator(64)
            if dwell > 0:
                t = min(horizon_f, t + dwell)
                pts.append((t, pts[-1][1]))
            if t >= horizon_f:
                break
            t = min(horizon_f, t + d)
            target = r if at_left else l
            if t == horizon_f:
                # partial sweep to fill the horizon exactly
                frac = (horizon_f - pts[-1][0]) / d if d else 0
                target = pts[-1][1] + (target - pts[-1][1]) * frac
            pts.append((t, target))
            at_left = not at_left
        if pts[-1][0] < horizon_f:
            pts.append((horizon_f, pts[-1][1]))
        paths.append(PiecewisePath(horizon_f, prefix=pts))
    return TeamTrajectory(
        robots=tuple(paths),
        horizon=horizon_f,
        relay=tuple(range(len(paths))),
        chain=part.chain,
        partition=part,
    )


def unrolled(traj: TeamTrajectory) -> TeamTrajectory:
    """Exact acyclic copy of a team trajectory: each robot's prefix, then its
    cycle repeated up to the horizon, as explicit ``Fraction`` breakpoints.

    No path of the copy has a period, so the exact evaluators see the whole
    horizon instead of folding periods; the declared team period keeps the
    original's boundary-gap cap.
    """
    robots = []
    for path in traj.robots:
        if path.cycle is None:
            robots.append(path)
            continue
        h = path.horizon
        pts = list(path.prefix) or [(Fraction(0), path.cycle[0][1])]
        offset = path.anchor
        while pts[-1][0] < h:
            for phase, x in path.cycle[1:]:
                if offset + phase >= h:
                    pts.append((h, path.position(h)))
                    break
                pts.append((offset + phase, x))
            offset += path.period
        robots.append(PiecewisePath.from_breakpoints(pts, h))
    return TeamTrajectory(
        robots=tuple(robots),
        horizon=traj.horizon,
        period=traj.max_robot_period(),
        relay=traj.relay,
        chain=traj.chain,
        partition=traj.partition,
    )


# ---------------------------------------------------------------------------
# subtree search oracle


def subtree_search_oracle(tree, m: int):
    """The exhaustive subtree-collection search in plain ``Fraction``
    arithmetic, with edge subsets as sets of vertex pairs: every removable
    edge subset, every positive allocation, and the smallest key
    ``(objective, r, removed_idx, alloc)``.  Returns ``(removed_edges,
    subtrees, allocation, objective_exact)``."""
    edges = list(tree.edges)

    def components(kept):
        comp = {v: {v} for v in tree.ids}
        for u, v, _ in kept:
            if comp[u] is not comp[v]:
                merged = comp[u] | comp[v]
                for x in merged:
                    comp[x] = merged
        seen, out = set(), []
        for v in tree.ids:  # each component listed from its first vertex
            if v not in seen:
                out.append(tuple(x for x in tree.ids if x in comp[v]))
                seen |= comp[v]
        return out

    def compositions(total, parts):  # lexicographic order
        if parts == 1:
            return [(total,)]
        return [
            (first,) + rest
            for first in range(1, total - parts + 2)
            for rest in compositions(total - first, parts - 1)
        ]

    best = None
    for r in range(min(m, len(edges) + 1)):
        for removed_idx in itertools.combinations(range(len(edges)), r):
            removed = {frozenset(edges[i][:2]) for i in removed_idx}
            kept = [e for e in edges if frozenset(e[:2]) not in removed]
            comps = components(kept)
            weights = [
                sum((Fraction(w) for u, v, w in kept if u in comp and v in comp), Fraction(0))
                for comp in comps
            ]
            for alloc in compositions(m, len(comps)):
                obj = max(2 * wj / mj for wj, mj in zip(weights, alloc))
                key = (obj, r, removed_idx, alloc, comps)
                if best is None or key[:4] < best[:4]:
                    best = key
    obj, _, removed_idx, alloc, comps = best
    return tuple(edges[i][:2] for i in removed_idx), tuple(comps), alloc, obj


# ---------------------------------------------------------------------------
# graph oracle


def brute_shortest_path(g: Roadmap, u: str, v: str) -> float:
    """Shortest path by exhaustive simple-path enumeration (tiny graphs)."""
    adj: dict[str, list[tuple[str, float]]] = {vid: [] for vid in g.ids}
    for a, b, w in g.edges:
        adj[a].append((b, w))
        adj[b].append((a, w))
    best = math.inf

    def walk(node, seen, cost):
        nonlocal best
        if cost >= best:
            return
        if node == v:
            best = cost
            return
        for nxt, w in adj[node]:
            if nxt not in seen:
                walk(nxt, seen | {nxt}, cost + w)

    walk(u, {u}, 0.0)
    return best


@pytest.fixture
def rng():
    return random.Random(20240817)
