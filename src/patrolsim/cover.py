"""Approximations for patrolling cyclic roadmaps.

Two routes around the NP-hardness of the general problem.  The first opens
the roadmap into a chain: walk a spanning tree depth-first from a leaf,
duplicate revisited vertices, and reuse the whole chain pipeline; the
refresh time achieved this way is within a factor of (n-2)/n * 8 * gamma
of optimal, where gamma is the longest-to-shortest edge ratio.  The second
covers the vertices with at most m paths on the metric closure, minimizing
the longest path by binary search over candidate budgets, and sweeps one
robot per path; its refresh time is within a constant factor 8 of optimal.
Both routes walk trees with ``tree._closed_walk``, and a robot sweeping its
path back and forth rides the closed walk of that path as a tree tour.
A brute-force minimum path cover is included as the verification oracle
for the cover costs at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from .partition import InfeasibleError, optimal_partition_bisect
from .roadmap import ChainRoadmap, Roadmap
from .trajectories import TeamTrajectory, min_refresh_trajectory
from .tree import TourTeamTrajectory, _closed_walk, _euler_tour

# minmax_path_cover splits walks into segments of at most this many budgets
SPLIT_FACTOR = 4.0
# exact_path_cover enumerates vertex subsets and partitions up to this size
EXACT_MAX_N, EXACT_MAX_M = 8, 3


@dataclass(frozen=True)
class ChainifyResult:
    """Open spanning-tree walk of a roadmap and the chain built from it.

    ``tour`` is the walked vertex sequence (repeats included); ``chain``
    carries one vertex per tour entry at the exact cumulative walk length;
    ``back_map`` sends each chain vertex to the roadmap vertex it copies.
    """

    roadmap: Roadmap
    tour: tuple[str, ...]
    chain: ChainRoadmap
    back_map: tuple[str, ...]
    edge_lengths: tuple[Fraction, ...]


def _graph_mst_edges(g: Roadmap) -> list[tuple[int, int, float]]:
    n = g.n
    rows, cols, data = [], [], []
    for u, v, w in g.edges:
        i, j = g.index(u), g.index(v)
        rows.append(min(i, j))
        cols.append(max(i, j))
        data.append(w)
    mat = csr_matrix((data, (rows, cols)), shape=(n, n))
    mst = minimum_spanning_tree(mat).tocoo()
    return [(int(i), int(j), float(w)) for i, j, w in zip(mst.row, mst.col, mst.data)]


def chainify(g: Roadmap) -> ChainifyResult:
    """Open a roadmap into a chain via a leaf-rooted spanning-tree walk.

    The walk starts at a leaf of a minimum spanning tree and ends at the
    last newly discovered vertex, so at most 2n-4 edges are used and the
    chain has at most 2n-3 vertices; the i-th chain edge keeps the exact
    length of the i-th walked edge.
    """
    if g.n < 3:
        raise InfeasibleError("roadmaps with fewer than 3 vertices are chains already")
    mst = _graph_mst_edges(g)
    adj: dict[int, list[tuple[int, Fraction]]] = {i: [] for i in range(g.n)}
    for i, j, w in mst:
        adj[i].append((j, Fraction(w)))
        adj[j].append((i, Fraction(w)))
    for i in adj:
        adj[i].sort()
    root = min(i for i in adj if len(adj[i]) == 1)
    walk, lengths = _closed_walk(adj, root)
    # drop the trailing walk back from the last newly discovered vertex
    seen: set[int] = set()
    last_new = 0
    for k, v in enumerate(walk):
        if v not in seen:
            seen.add(v)
            last_new = k
    walk = walk[: last_new + 1]
    lengths = lengths[:last_new]
    assert len(lengths) <= 2 * g.n - 4
    assert len(walk) <= 2 * g.n - 3

    cum = list(accumulate(lengths, initial=Fraction(0)))
    tour_ids = tuple(g.ids[v] for v in walk)
    chain = ChainRoadmap(cum, ids=tuple(f"c{k}" for k in range(len(cum))))
    return ChainifyResult(
        roadmap=g,
        tour=tour_ids,
        chain=chain,
        back_map=tour_ids,
        edge_lengths=tuple(lengths),
    )


@dataclass(frozen=True)
class ApproximationCertificate:
    """Achieved refresh time on the opened chain with its guarantee."""

    rt_gamma: float
    rt_lower_bound: float
    gamma: float
    ratio_bound: float

    @property
    def ratio(self) -> float:
        return self.rt_gamma / self.rt_lower_bound


def chain_tour_approximation(
    g: Roadmap, m: int, eps: float, horizon
) -> tuple[TeamTrajectory, ChainifyResult, ApproximationCertificate]:
    """Patrol a cyclic roadmap by optimally partitioning its opened chain.

    Returns the sweep trajectory on the opened chain (positions map back to
    the roadmap through the chainify result) plus a certificate holding the
    achieved refresh time, the coarse lower bound ceil(n/m - 1) * w_min on
    the optimum, and the guaranteed ratio bound (n-2)/n * 8 * gamma.
    """
    if m >= g.n:
        raise InfeasibleError(f"m={m} robots on n={g.n} viewpoints")
    res = chainify(g)
    part, _ = optimal_partition_bisect(res.chain, m, eps)
    traj = min_refresh_trajectory(part, horizon)
    w_min = min(w for _, _, w in g.edges)
    rt_gamma = 2.0 * part.dimension
    lb = math.ceil(g.n / m - 1) * w_min
    gamma = g.edge_length_ratio()
    cert = ApproximationCertificate(
        rt_gamma=rt_gamma,
        rt_lower_bound=lb,
        gamma=gamma,
        ratio_bound=(g.n - 2) / g.n * 8.0 * gamma,
    )
    return traj, res, cert


# ---------------------------------------------------------------------------
# min-max path cover


@dataclass(frozen=True)
class PathCover:
    """Paths on the metric closure jointly containing every vertex."""

    roadmap: Roadmap
    paths: tuple[tuple[str, ...], ...]

    def path_cost_exact(self, k: int) -> Fraction:
        d = self.roadmap.distance
        p = self.paths[k]
        return sum(
            (Fraction(d(a, b)) for a, b in zip(p, p[1:])),
            Fraction(0),
        )

    def path_cost(self, k: int) -> float:
        return float(self.path_cost_exact(k))

    @property
    def cost_exact(self) -> Fraction:
        return max(self.path_cost_exact(k) for k in range(len(self.paths)))

    @property
    def cost(self) -> float:
        return float(self.cost_exact)

    def __post_init__(self):
        if not all(self.paths):
            raise ValueError("cover paths must not be empty")
        covered = [v for p in self.paths for v in p]
        if sorted(covered) != sorted(self.roadmap.ids):
            raise ValueError("cover paths must partition the vertex set")

    def to_document(self, certificate: dict | None = None) -> dict:
        doc = {
            "paths": [list(p) for p in self.paths],
            "costs": [self.path_cost(k) for k in range(len(self.paths))],
            "cover_cost": self.cost,
        }
        if certificate:
            doc["certificate"] = certificate
        return doc


def _closure_mst(dist: np.ndarray) -> list[tuple[int, int, float]]:
    mst = minimum_spanning_tree(csr_matrix(np.triu(dist))).tocoo()
    return [(int(i), int(j), float(w)) for i, j, w in zip(mst.row, mst.col, mst.data)]


def _split_cover(dist, mst_edges, budget: float, split_factor: float):
    """Components of the budget-thresholded closure MST, their preorder
    walks split greedily into segments of cost at most split_factor*budget.

    Components come in order of their lowest vertex, each walked from it."""
    n = dist.shape[0]
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i, j, w in mst_edges:
        if w <= budget:
            adj[i].append((j, w))
            adj[j].append((i, w))
    for nbrs in adj:
        nbrs.sort()
    seen: set[int] = set()
    segments: list[list[int]] = []
    for root in range(n):
        if root in seen:
            continue
        order = list(dict.fromkeys(_closed_walk(adj, root)[0]))
        seen.update(order)
        seg = [order[0]]
        cost = 0.0
        for v in order[1:]:
            hop = dist[seg[-1], v]
            if cost + hop <= split_factor * budget:
                seg.append(v)
                cost += hop
            else:
                segments.append(seg)
                seg, cost = [v], 0.0
        segments.append(seg)
    return segments


def minmax_path_cover(g: Roadmap, m: int) -> PathCover:
    """Heuristic min-max path cover with an empirically enforced 4-factor.

    Binary search over candidate budgets (all pairwise distances and their
    doublings): a budget is feasible when the thresholded closure MST
    components, walked in shortcut depth-first order and split greedily
    into segments of cost at most SPLIT_FACTOR*budget, need at most m
    segments.  When even the largest candidate is infeasible, the budget
    at which the whole shortcut walk is one segment joins the candidates.
    Feasibility is monotone in the budget, which the search asserts as it
    probes.  A final polish shrinks the actual split limit to the smallest
    feasible value at the chosen budget, which never exceeds
    SPLIT_FACTOR*budget and recovers minimal covers on easy instances.
    """
    if m < 1:
        raise InfeasibleError("need at least one robot")
    dist = g.distance_matrix()
    mst_edges = _closure_mst(dist)
    cand = {0.0}
    for i in range(g.n):
        for j in range(i + 1, g.n):
            cand.add(float(dist[i, j]))
            cand.add(2.0 * float(dist[i, j]))
    candidates = sorted(cand)
    probes: list[tuple[float, bool]] = []

    def count_segments(budget: float, limit: float) -> int:
        return len(_split_cover(dist, mst_edges, budget, limit / max(budget, 1e-300)))

    def feasible(budget: float) -> bool:
        ok = count_segments(budget, SPLIT_FACTOR * budget) <= m
        probes.append((budget, ok))
        return ok

    lo, hi = 0, len(candidates) - 1
    if not feasible(candidates[hi]):
        # the shortcut walk can cost more than SPLIT_FACTOR times the top
        # candidate, twice the diameter; its cost summed in split order is
        # exactly the limit that keeps it one segment
        (walk,) = _split_cover(dist, mst_edges, candidates[hi], math.inf)
        cost = float(sum(dist[a, b] for a, b in zip(walk, walk[1:])))
        candidates.append(cost / SPLIT_FACTOR)
        hi += 1
        assert feasible(candidates[hi]), "one segment always fits the whole walk"
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    for (b1, ok1), (b2, ok2) in combinations(sorted(probes), 2):
        assert not (ok1 and not ok2), "feasibility must be monotone in the budget"
    budget = candidates[lo]
    # shrink the split limit below SPLIT_FACTOR*budget while m paths suffice
    limits = sorted({c for c in candidates if c <= SPLIT_FACTOR * budget})
    llo, lhi = 0, len(limits) - 1
    while llo < lhi:
        mid = (llo + lhi) // 2
        if count_segments(budget, limits[mid]) <= m:
            lhi = mid
        else:
            llo = mid + 1
    limit = limits[llo]
    if count_segments(budget, limit) > m:
        limit = SPLIT_FACTOR * budget
    segments = _split_cover(dist, mst_edges, budget, limit / max(budget, 1e-300))
    assert len(segments) <= m
    return PathCover(
        roadmap=g,
        paths=tuple(tuple(g.ids[v] for v in seg) for seg in segments),
    )


def path_cover_trajectory(cover: PathCover, m: int, horizon) -> TourTeamTrajectory:
    """Sweep one robot per cover path back and forth at unit speed: each
    robot rides the closed walk of its path from the path's first vertex."""
    if len(cover.paths) > m:
        raise InfeasibleError(
            f"cover has {len(cover.paths)} paths but only m={m} robots"
        )
    d = cover.roadmap.distance
    return TourTeamTrajectory(
        tours=tuple(
            _euler_tour(p, [(a, b, d(a, b)) for a, b in zip(p, p[1:])], p[0])
            for p in cover.paths
        ),
        stationary=tuple(p[0] if len(p) == 1 else None for p in cover.paths),
        robots=tuple((j, Fraction(0)) for j in range(len(cover.paths))),
        horizon=Fraction(horizon),
    )


def exact_path_cover(g: Roadmap, m: int) -> PathCover:
    """Optimal min-max path cover by exhaustive search (the oracle).

    Computes minimum Hamiltonian-path costs for every vertex subset by
    dynamic programming, then searches all partitions into at most m parts
    for the one minimizing the largest part cost.
    """
    if g.n > EXACT_MAX_N or m > EXACT_MAX_M:
        raise InfeasibleError(
            f"exact cover limited to n <= {EXACT_MAX_N}, m <= {EXACT_MAX_M}"
        )
    if m < 1:
        raise InfeasibleError("need at least one robot")
    n = g.n
    dist = g.distance_matrix()
    full = 1 << n
    inf = math.inf
    # best[S][v]: cheapest path visiting exactly S, ending at v
    best = np.full((full, n), inf)
    choice = np.full((full, n), -1, dtype=np.int64)
    for v in range(n):
        best[1 << v, v] = 0.0
    for s in range(1, full):
        for v in range(n):
            if not s & (1 << v) or best[s, v] == inf:
                continue
            for u in range(n):
                if s & (1 << u):
                    continue
                ns = s | (1 << u)
                c = best[s, v] + dist[v, u]
                if c < best[ns, u]:
                    best[ns, u] = c
                    choice[ns, u] = v
    min_path = best.min(axis=1)

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def solve(remaining: int, parts: int) -> tuple[float, tuple[int, ...]]:
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
        v = min(members, key=lambda vv: best[s, vv])
        seq = [v]
        cur = s
        while choice[cur, v] >= 0:
            prev = int(choice[cur, v])
            cur ^= 1 << v
            seq.append(prev)
            v = prev
        paths.append(tuple(g.ids[i] for i in reversed(seq)))
    return PathCover(roadmap=g, paths=tuple(paths))
