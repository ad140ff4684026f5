"""Shared fixtures, generators, and independent oracles.

The oracles here deliberately avoid the library's code paths: the interval
partition oracle is a dynamic program over prefixes, the latency oracle
works on densely sampled traces with naive linear scans, the brute
shortest-path oracle enumerates simple paths, and the exact distance
oracle runs Floyd-Warshall in ``Fraction`` arithmetic.  The tour-check
and path-cover oracles keep the library's earlier ``Fraction`` and list
loops, which the grid and array versions must equal, and the bisection
oracle keeps its earlier loop, which counts clusters at every midpoint.  They exist to pin
expected values independently of the implementations under test.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import patrolsim
from patrolsim.partition import (
    InfeasibleError,
    Partition,
    left_induced_cardinality,
    left_induced_partition,
    partition_from_clusters,
)
from patrolsim.roadmap import ChainRoadmap, Roadmap
from patrolsim.cover import PathCover
from patrolsim.trajectories import PiecewisePath, TeamTrajectory, _circular_gap


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


def min_span_dp_grid(xs, m: int) -> int:
    """``min_dimension_dp`` on a chain's grid ints (``chain.grid[1]``): the
    minimum max-span, times the grid unit, in exact int arithmetic."""
    n = len(xs)
    inf = xs[-1] - xs[0] + 1  # above every span
    dp = [0] + [inf] * n
    for _ in range(m):
        ndp = [0] + [inf] * n
        for j in range(1, n + 1):
            best = dp[j]  # leave this cluster empty
            for s in range(j):
                cand = max(dp[s], xs[j - 1] - xs[s])
                if cand < best:
                    best = cand
            ndp[j] = best
        dp = ndp
    return dp[n]


def bisect_every_midpoint(chain: ChainRoadmap, m: int, eps: float):
    """``optimal_partition_bisect`` with a full greedy count at every
    midpoint, as the library ran it before one pass decided an interval of
    spans.  Returns ``(a, b, iterations, partition)``.

    That loop only ended once the bracket was within ``eps``, so it never
    ended when ``eps`` is below the float spacing at the optimal span: there
    a midpoint equals a or b and the bracket stops shrinking.  This copy
    stops at that midpoint instead, uncounted, with ``b - a > eps``."""
    v_n = chain.length
    a, b = 0.0, 2.0 * v_n / m
    iterations = 0
    while (b - a) > eps:
        rho = (a + b) / 2.0
        if rho == a or rho == b:
            break
        iterations += 1
        if left_induced_cardinality(chain, rho) > m:
            a = rho
        else:
            b = rho
    return a, b, iterations, left_induced_partition(chain, b).padded(m)


def grid_greedy_clusters(xs, span: int) -> tuple[tuple[int, ...], ...]:
    """Left-to-right greedy clusters of grid span at most ``span``, by a
    linear scan: a viewpoint joins the open cluster while it lies within
    ``span`` of the cluster's first viewpoint."""
    clusters = [[0]]
    for i in range(1, len(xs)):
        if xs[i] - xs[clusters[-1][0]] <= span:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return tuple(tuple(c) for c in clusters)


# ---------------------------------------------------------------------------
# fresh interpreters


def run_python(args, timeout: float) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports this checkout's
    package, killed after ``timeout`` seconds: a call that never returns
    fails its test on ``subprocess.TimeoutExpired`` instead of stalling the
    suite."""
    env = dict(os.environ, PYTHONPATH=str(Path(patrolsim.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


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
# tour-check oracle


def fraction_tour_refresh_time(traj) -> float:
    """``TourTeamTrajectory.refresh_time`` in plain ``Fraction`` arithmetic:
    every robot's visits to every vertex, one tour length apart, and the
    largest circular gap among them, whatever the robots' offsets."""
    worst = Fraction(0)
    by_tree: dict[int, list[Fraction]] = {}
    for j, off in traj.robots:
        by_tree.setdefault(j, []).append(off)
    for j, offsets in by_tree.items():
        if traj.stationary[j] is not None:
            continue
        tour = traj.tours[j]
        L = tour.length
        for positions in tour.vertex_positions().values():
            visits = [((p - off) % L,) * 2 for off in offsets for p in positions]
            worst = max(worst, _circular_gap(visits, L))
    return float(worst)


# ---------------------------------------------------------------------------
# path-cover oracle


def list_dp_path_cover(g: Roadmap, m: int) -> PathCover:
    """``exact_path_cover`` with its Hamiltonian-path DP over plain lists:
    subsets in increasing order, and for each the end vertices v and the
    next vertices u in increasing order, kept on a strict ``<``.  The
    partition search and the path rebuild are the library's."""
    n = g.n
    dist = g.distance_matrix().tolist()
    full = 1 << n
    inf = math.inf
    best = [[inf] * n for _ in range(full)]
    choice = [[-1] * n for _ in range(full)]
    for v in range(n):
        best[1 << v][v] = 0.0
    for s in range(1, full):
        best_s = best[s]
        for v in range(n):
            if not s & (1 << v) or best_s[v] == inf:
                continue
            cost, dist_v = best_s[v], dist[v]
            for u in range(n):
                if s & (1 << u):
                    continue
                ns = s | (1 << u)
                c = cost + dist_v[u]
                if c < best[ns][u]:
                    best[ns][u] = c
                    choice[ns][u] = v
    min_path = [min(row) for row in best]

    @functools.lru_cache(maxsize=None)
    def solve(remaining: int, parts: int):
        if remaining == 0:
            return 0.0, ()
        if parts == 0:
            return inf, ()
        low = remaining & -remaining
        rest = remaining ^ low
        best_val, best_split = inf, ()
        sub = rest
        while True:
            s = sub | low
            head = min_path[s]
            if head < best_val:
                tail_val, tail = solve(remaining ^ s, parts - 1)
                total = max(head, tail_val)
                if total < best_val:
                    best_val, best_split = total, (s,) + tail
            if sub == 0:
                break
            sub = (sub - 1) & rest
        return best_val, best_split

    _, split = solve(full - 1, m)
    paths = []
    for s in split:
        members = [v for v in range(n) if s & (1 << v)]
        v = min(members, key=lambda vv: best[s][vv])
        seq = [v]
        cur = s
        while choice[cur][v] >= 0:
            prev = choice[cur][v]
            cur ^= 1 << v
            seq.append(prev)
            v = prev
        paths.append(tuple(g.ids[i] for i in reversed(seq)))
    return PathCover(roadmap=g, paths=tuple(paths))


# ---------------------------------------------------------------------------
# synthesis oracle
#
# The four sweep synthesizers in plain ``Fraction`` arithmetic, as they were
# written before synthesis moved onto the chain's integer grid.  Cluster
# bounds come straight from ``coords_exact`` and the aggregated groups from
# a ``Fraction`` copy of the greedy, so nothing here reads the grid.  One
# line differs from that code: parked robots sit on the last active
# cluster's right extreme exactly, where the old code parked them at its
# float rounding (the same value on any chain of float coordinates).


def _oracle_bounds(partition: Partition) -> list[tuple[Fraction, Fraction]]:
    coords = partition.chain.coords_exact
    return [(coords[cl[0]], coords[cl[-1]]) for cl in partition.clusters if cl]


def _oracle_dimension(partition: Partition) -> Fraction:
    return max((r - l for l, r in _oracle_bounds(partition)), default=Fraction(0))


def _oracle_parked(partition: Partition, horizon: Fraction) -> list[PiecewisePath]:
    park = _oracle_bounds(partition)[-1][1]
    return [
        PiecewisePath.constant(park, horizon)
        for _ in range(partition.m - partition.cardinality)
    ]


def _oracle_team(partition, paths, horizon, period) -> TeamTrajectory:
    return TeamTrajectory(
        robots=tuple(paths) + tuple(_oracle_parked(partition, horizon)),
        horizon=horizon,
        period=period,
        relay=tuple(range(partition.cardinality)),
        chain=partition.chain,
        partition=partition,
    )


def oracle_min_refresh(partition: Partition, horizon) -> TeamTrajectory:
    horizon = Fraction(horizon)
    if horizon < 2 * _oracle_dimension(partition):
        raise ValueError("horizon shorter than one sweep period")
    paths = []
    for l, r in _oracle_bounds(partition):
        d = r - l
        if d == 0:
            paths.append(PiecewisePath.constant(l, horizon))
        else:
            paths.append(PiecewisePath(horizon, cycle=[(Fraction(0), l), (d, r), (2 * d, l)]))
    return _oracle_team(partition, paths, horizon, None)


def oracle_min_up_latency(partition: Partition, horizon) -> TeamTrajectory:
    horizon = Fraction(horizon)
    bounds = _oracle_bounds(partition)
    if len(bounds) < 2:
        raise InfeasibleError("latency needs at least two active clusters")
    dmax = _oracle_dimension(partition)
    if horizon < 2 * dmax:
        raise ValueError("horizon shorter than one team period")
    paths = []
    prefix_len = Fraction(0)
    for l, r in bounds:
        d = r - l
        if d == 0:
            paths.append(PiecewisePath.constant(l, horizon))
        else:
            cycle = [(Fraction(0), l), (d, r), (2 * d, l), (2 * dmax, l)]
            anchor = prefix_len
            prefix = [(Fraction(0), l), (anchor, l)] if anchor > 0 else []
            paths.append(PiecewisePath(horizon, prefix=prefix, cycle=cycle, anchor=anchor))
        prefix_len += d
    return _oracle_team(partition, paths, horizon, 2 * dmax)


def _oracle_groups(d: list[Fraction], dmax: Fraction) -> list[tuple[int, ...]]:
    if dmax <= 0:
        raise ValueError("aggregation needs a positive dimension")
    groups, start = [], 0
    while start < len(d):
        total, end = d[start], start
        while end + 1 < len(d) and total + d[end + 1] <= dmax:
            end += 1
            total += d[end]
        groups.append(tuple(range(start, end + 1)))
        start = end + 1
    return groups


def oracle_min_latency(partition: Partition, horizon) -> TeamTrajectory:
    horizon = Fraction(horizon)
    bounds = _oracle_bounds(partition)
    if len(bounds) < 2:
        raise InfeasibleError("latency needs at least two active clusters")
    dmax = _oracle_dimension(partition)
    if horizon < 2 * dmax:
        raise ValueError("horizon shorter than one team period")
    paths = [None] * len(bounds)
    for gi, group in enumerate(_oracle_groups([r - l for l, r in bounds], dmax)):
        prefix = Fraction(0)
        for i in group:
            l, r = bounds[i]
            d = r - l
            delta_l = prefix
            delta_r = dmax - (prefix + d)
            if d == 0:
                paths[i] = PiecewisePath.constant(l, horizon)
            elif gi % 2 == 0:
                paths[i] = PiecewisePath(horizon, cycle=[
                    (Fraction(0), l), (delta_l, l), (delta_l + d, r),
                    (dmax + delta_r, r), (2 * dmax - delta_l, l), (2 * dmax, l),
                ])
            else:
                paths[i] = PiecewisePath(horizon, cycle=[
                    (Fraction(0), r), (delta_r, r), (dmax - delta_l, l),
                    (dmax + delta_l, l), (2 * dmax - delta_r, r), (2 * dmax, r),
                ])
            prefix += d
    return _oracle_team(partition, paths, horizon, 2 * dmax)


def oracle_opposite_phase(partition: Partition, horizon) -> TeamTrajectory:
    horizon = Fraction(horizon)
    bounds = _oracle_bounds(partition)
    if len(bounds) < 2:
        raise InfeasibleError("opposite-phase schedule needs at least two clusters")
    lengths = {r - l for l, r in bounds}
    if len(lengths) != 1:
        raise ValueError("opposite-phase schedule requires equal cluster lengths")
    d = lengths.pop()
    if d == 0:
        raise ValueError("cluster lengths must be positive")
    if horizon < 2 * d:
        raise ValueError("horizon shorter than one sweep period")
    paths = []
    for i, (l, r) in enumerate(bounds):
        if i % 2 == 0:
            cycle = [(Fraction(0), l), (d, r), (2 * d, l)]
        else:
            cycle = [(Fraction(0), r), (d, l), (2 * d, r)]
        paths.append(PiecewisePath(horizon, cycle=cycle))
    return _oracle_team(partition, paths, horizon, 2 * d)


ORACLE_SYNTHESIZERS = {
    "min_refresh": oracle_min_refresh,
    "min_up_latency": oracle_min_up_latency,
    "min_latency": oracle_min_latency,
    "opposite_phase": oracle_opposite_phase,
}


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


def exact_distances(g: Roadmap) -> list[list[Fraction]]:
    """All-pairs shortest-path lengths by Floyd-Warshall on the ``Fraction``
    values of the edge lengths, indexed like ``g.ids``."""
    n = g.n
    d = [[Fraction(0) if i == j else math.inf for j in range(n)] for i in range(n)]
    for a, b, w in g.edges:
        i, j = g.index(a), g.index(b)
        d[i][j] = d[j][i] = Fraction(w)
    for k in range(n):
        dk = d[k]
        for di in d:
            dik = di[k]
            if dik == math.inf:
                continue
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return d


@pytest.fixture
def rng():
    return random.Random(20240817)
