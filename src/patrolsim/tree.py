"""Minimum refresh time patrolling on tree roadmaps.

A closed depth-first tour of a tree walks every edge exactly twice, so its
length is twice the total edge weight and it is a shortest tour through all
vertices.  The planner searches over *subtree collections*: remove a set of
edges, patrol each resulting component with one or more robots equally
spaced along its tour, and judge the plan by the worst per-component tour
length divided by its robot count.  At desk scale the search is exhaustive
over removable edge subsets and robot allocations, which is exact.

``_closed_walk`` is the package's one tree walk: tours, chainification
and the path cover's preorder walks all take it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations

import numpy as np

from .partition import InfeasibleError
from .roadmap import TreeRoadmap
from .trajectories import sample_times


@dataclass(frozen=True)
class Tour:
    """Closed depth-first walk: vertex ids with exact cumulative positions."""

    vertices: tuple[str, ...]
    cum: tuple[Fraction, ...]

    @property
    def length(self) -> Fraction:
        return self.cum[-1]

    def vertex_positions(self) -> dict[str, list[Fraction]]:
        occ: dict[str, list[Fraction]] = {}
        for vid, p in zip(self.vertices[:-1], self.cum[:-1]):
            occ.setdefault(vid, []).append(p)
        return occ


def _closed_walk(adj, root):
    """Closed depth-first walk of a tree: its vertices, ``root`` first and
    last, and the weight of each step.

    ``adj[v]`` lists ``(neighbour, weight)`` pairs in the order the walk
    visits v's children; weights are passed through untouched, whatever
    their type.  The walk keeps its own stack, so a tree of any depth
    walks.
    """
    walk, steps = [root], []
    stack = [(root, None, None, iter(adj[root]))]
    while stack:
        v, parent, w_up, children = stack[-1]
        for u, w in children:
            if u != parent:
                walk.append(u)
                steps.append(w)
                stack.append((u, v, w, iter(adj[u])))
                break
        else:
            stack.pop()
            if stack:
                walk.append(parent)
                steps.append(w_up)
    return walk, steps


def _euler_tour(vertices, edges, root) -> Tour:
    index = {v: i for i, v in enumerate(vertices)}
    adj: dict[str, list[tuple[str, Fraction]]] = {v: [] for v in vertices}
    for u, v, w in edges:
        adj[u].append((v, Fraction(w)))
        adj[v].append((u, Fraction(w)))
    for v in adj:
        adj[v].sort(key=lambda e: index[e[0]])
    walk, steps = _closed_walk(adj, root)
    return Tour(vertices=tuple(walk), cum=tuple(accumulate(steps, initial=Fraction(0))))


def depth_first_tour(tree: TreeRoadmap) -> Tour:
    """Closed depth-first tour rooted at the lowest-index vertex.

    Children are visited in vertex-index order for determinism; the tour
    length equals twice the summed edge weights exactly.
    """
    tour = _euler_tour(tree.ids, tree.edges, tree.ids[0])
    total = sum((Fraction(w) for _, _, w in tree.edges), Fraction(0))
    assert tour.length == 2 * total
    return tour


@dataclass(frozen=True)
class SubtreeCollection:
    """Vertex-disjoint subtrees covering the tree plus a robot allocation."""

    tree: TreeRoadmap
    removed_edges: tuple[tuple[str, str], ...]
    subtrees: tuple[tuple[str, ...], ...]
    allocation: tuple[int, ...]

    def __post_init__(self):
        if len(self.subtrees) != len(self.allocation):
            raise ValueError("one robot count per subtree is required")
        if any(mj < 1 for mj in self.allocation):
            raise InfeasibleError(
                "every subtree needs at least one robot for a finite refresh time"
            )
        covered = [v for sub in self.subtrees for v in sub]
        if sorted(covered) != sorted(self.tree.ids):
            raise ValueError("subtrees must partition the vertex set")

    @property
    def m(self) -> int:
        return sum(self.allocation)

    def subtree_edges(self, j: int):
        vs = set(self.subtrees[j])
        removed = {frozenset(e) for e in self.removed_edges}
        return [
            (u, v, w)
            for u, v, w in self.tree.edges
            if u in vs and v in vs and frozenset((u, v)) not in removed
        ]

    def tour_lengths(self) -> tuple[Fraction, ...]:
        return tuple(
            2 * sum((Fraction(w) for _, _, w in self.subtree_edges(j)), Fraction(0))
            for j in range(len(self.subtrees))
        )

    @property
    def objective_exact(self) -> Fraction:
        return max(
            dft / mj for dft, mj in zip(self.tour_lengths(), self.allocation)
        )

    @property
    def objective(self) -> float:
        return float(self.objective_exact)

    def to_document(self) -> dict:
        tours = []
        for j, sub in enumerate(self.subtrees):
            tour = _euler_tour(sub, self.subtree_edges(j), sub[0])
            tours.append({"vertices": list(tour.vertices), "length": float(tour.length)})
        return {
            "removed_edges": [list(e) for e in self.removed_edges],
            "subtrees": [list(s) for s in self.subtrees],
            "allocation": list(self.allocation),
            "objective": self.objective,
            "tours": tours,
        }


def _label_components(links, n: int, kept, edge_w):
    """Label every vertex by the top vertex of its component in the forest
    of ``kept`` edges, and total each component's scaled edge weight.

    ``links`` lists ``(vertex, parent, edge index)`` parents first, so one
    pass labels every vertex.  Listing the distinct labels in vertex order
    gives the components in order of their lowest vertex index.
    """
    label = list(range(n))
    total = [0] * n
    for v, p, i in links:
        if kept[i]:
            label[v] = label[p]
            total[label[p]] += edge_w[i]
    return label, total


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def optimal_subtree_collection(
    tree: TreeRoadmap, m: int, max_n: int = 15, max_m: int = 6
) -> SubtreeCollection:
    """Exhaustively optimal subtree collection for m robots.

    Enumerates all removable edge subsets yielding at most m components and
    all positive robot allocations onto them, minimizing the worst tour
    length per robot.  Ties break toward fewer removed edges, then toward
    the lexicographically first edge subset and allocation.

    The search runs in exact integer arithmetic: edge weights are scaled by
    their common denominator, and the objective 2 W_j / m_j is compared by
    cross-multiplication.
    """
    if m < 1:
        raise InfeasibleError("need at least one robot")
    if tree.n > max_n or m > max_m:
        raise InfeasibleError(
            f"exhaustive search is limited to n <= {max_n}, m <= {max_m}; "
            "use the chain or path-cover approximations for larger instances"
        )
    edges = list(tree.edges)
    n = tree.n
    exact = [Fraction(w) for _, _, w in edges]
    scale = math.lcm(*(w.denominator for w in exact))
    edge_w = [int(w * scale) for w in exact]
    # root the tree at vertex 0: ``order`` lists every vertex after its
    # parent, and up[v] holds v's parent and the index of the edge to it
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v, _) in enumerate(edges):
        adj[tree.index(u)].append((tree.index(v), i))
        adj[tree.index(v)].append((tree.index(u), i))
    order, up = [0], {0: None}
    for v in order:
        for u, i in adj[v]:
            if u not in up:
                up[u] = (v, i)
                order.append(u)
    links = [(v,) + up[v] for v in order[1:]]
    # removing r edges from a tree leaves exactly r + 1 components
    allocs = {k: tuple(_compositions(m, k)) for k in range(2, m + 1)}

    # the whole tree ridden by all m robots is the first candidate; the
    # enumeration runs in (r, removed_idx, alloc) order, so keeping only a
    # strictly smaller objective keeps the documented tie-breaking
    best_w, best_m = sum(edge_w), m
    best = ((), (m,))
    for r in range(1, min(m, len(edges) + 1)):
        for removed_idx in combinations(range(len(edges)), r):
            kept = [True] * len(edges)
            for i in removed_idx:
                kept[i] = False
            label, total = _label_components(links, n, kept, edge_w)
            weights = [total[c] for c in dict.fromkeys(label)]
            # a component of weight w beats the best ratio only with more than
            # w * best_m / best_w robots; skip subsets that need more than m
            if best_w == 0 or sum(wj * best_m // best_w + 1 for wj in weights) > m:
                continue
            for alloc in allocs[r + 1]:
                # strictly better only when every ratio w/a beats the best
                for wj, mj in zip(weights, alloc):
                    if wj * best_m >= best_w * mj:
                        break
                else:
                    best_w, best_m = weights[0], alloc[0]
                    for wj, mj in zip(weights, alloc):
                        if wj * best_m > best_w * mj:
                            best_w, best_m = wj, mj
                    best = (removed_idx, alloc)
    removed_idx, alloc = best
    removed = tuple((edges[i][0], edges[i][1]) for i in removed_idx)
    kept = [i not in removed_idx for i in range(len(edges))]
    label, _ = _label_components(links, n, kept, edge_w)
    comps: dict[int, list[str]] = {}
    for v, c in enumerate(label):
        comps.setdefault(c, []).append(tree.ids[v])
    return SubtreeCollection(
        tree=tree,
        removed_edges=removed,
        subtrees=tuple(tuple(c) for c in comps.values()),
        allocation=tuple(alloc),
    )


@dataclass(frozen=True)
class TourTeamTrajectory:
    """Robots riding closed depth-first tours at unit speed.

    Each robot's position is its arc coordinate on its own tour; all robots
    of one subtree share the tour and differ by phase offsets of one
    tour-length fraction.  A path-cover robot sweeping its path back and
    forth rides the closed walk of that path the same way.
    """

    tours: tuple[Tour, ...]
    stationary: tuple[str | None, ...]  # a single-vertex tour's robots stay put
    robots: tuple[tuple[int, Fraction], ...]  # (subtree index, phase offset)
    horizon: Fraction

    @property
    def m(self) -> int:
        return len(self.robots)

    def refresh_time(self) -> float:
        """Largest revisit gap over all vertices (exact, steady state)."""
        worst = Fraction(0)
        by_tree: dict[int, list[Fraction]] = {}
        for j, off in self.robots:
            by_tree.setdefault(j, []).append(off)
        for j, offsets in by_tree.items():
            if self.stationary[j] is not None:
                continue
            tour = self.tours[j]
            L = tour.length
            for positions in tour.vertex_positions().values():
                phases = sorted({(p - off) % L for off in offsets for p in positions})
                gaps = [b - a for a, b in zip(phases, phases[1:])]
                gaps.append(phases[0] + L - phases[-1])
                worst = max(worst, max(gaps))
        return float(worst)

    def sample(self, dt: float):
        times = sample_times(self.horizon, dt)
        pos = np.empty((len(times), self.m))
        for i, (j, off) in enumerate(self.robots):
            if self.stationary[j] is not None:
                pos[:, i] = 0.0
            else:
                L = float(self.tours[j].length)
                pos[:, i] = (float(off) + times) % L
        return times, pos

    def sampled_visit_times(self, dt: float) -> dict[str, list[float]]:
        """Vertex visit times recovered from the sampled trace.

        Arc positions are unwrapped (motion is uniformly forward), then
        visit times come from linear interpolation of the occurrence
        positions between samples.
        """
        times, pos = self.sample(dt)
        visits: dict[str, list[float]] = {}
        for j, stat in enumerate(self.stationary):
            if stat is not None:
                visits.setdefault(stat, []).extend(times.tolist())
        for i, (j, off) in enumerate(self.robots):
            if self.stationary[j] is not None:
                continue
            tour = self.tours[j]
            L = float(tour.length)
            wrapped = pos[:, i]
            # forward motion only, so unwrap by accumulating modular steps
            steps = np.mod(np.diff(wrapped), L)
            unwrapped = wrapped[0] + np.concatenate(([0.0], np.cumsum(steps)))
            for vid, occs in tour.vertex_positions().items():
                for p in occs:
                    pf = float(p)
                    target = pf + math.ceil((unwrapped[0] - pf) / L) * L
                    while target <= unwrapped[-1]:
                        idx = int(np.searchsorted(unwrapped, target))
                        if idx == 0:
                            t = times[0]
                        else:
                            t0, t1 = times[idx - 1], times[idx]
                            x0, x1 = unwrapped[idx - 1], unwrapped[idx]
                            t = t0 if x1 == x0 else t0 + (target - x0) / (x1 - x0) * (t1 - t0)
                        visits.setdefault(vid, []).append(float(t))
                        target += L
        return {vid: sorted(ts) for vid, ts in visits.items()}


def efficient_trajectory(coll: SubtreeCollection, horizon) -> TourTeamTrajectory:
    """Equally space each subtree's robots along its depth-first tour.

    All robots move forward at unit speed with phase gaps of one m_j-th of
    the tour, so every vertex is revisited within DFT(T_j)/m_j.
    """
    horizon = Fraction(horizon)
    tours: list[Tour] = []
    stationary: list[str | None] = []
    robots: list[tuple[int, Fraction]] = []
    for j, sub in enumerate(coll.subtrees):
        mj = coll.allocation[j]
        tour = _euler_tour(sub, coll.subtree_edges(j), sub[0])
        tours.append(tour)
        stationary.append(sub[0] if len(sub) == 1 else None)
        robots.extend((j, k * tour.length / mj) for k in range(mj))
    traj = TourTeamTrajectory(
        tours=tuple(tours),
        stationary=tuple(stationary),
        robots=tuple(robots),
        horizon=horizon,
    )
    analytic = max(
        (dft / mj for dft, mj in zip(coll.tour_lengths(), coll.allocation)),
        default=Fraction(0),
    )
    assert traj.refresh_time() == float(analytic)
    return traj
