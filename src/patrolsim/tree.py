"""Minimum refresh time patrolling on tree roadmaps.

A closed depth-first tour of a tree walks every edge exactly twice, so its
length is twice the total edge weight and it is a shortest tour through all
vertices.  The planner searches over *subtree collections*: remove a set of
edges, patrol each resulting component with one or more robots equally
spaced along its tour, and judge the plan by the worst per-component tour
length divided by its robot count.  A parametric DP over the tree finds
the optimal plan exactly in time polynomial in n and m
(``optimal_subtree_collection``).  It reads only the tree's edges and
their integer grid, so a tree of any size plans without a distance table.

A tour holds its positions as ints on the tree's grid, and a plan walks
each tour once (``SubtreeCollection.tours``).  ``efficient_trajectory``
checks the plan's objective, summed from its edges, against the refresh
time of its tours (``TourTeamTrajectory.refresh_time``): a tour's
equally spaced robots fold onto one of them, and each vertex's largest
revisit gap is read on the tour's ints.

``_closed_walk`` is the package's one tree walk: tours, chainification
and the path cover's preorder walks all take it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .partition import InfeasibleError
from .roadmap import TreeRoadmap
from .trajectories import sample_times


@dataclass(frozen=True)
class Tour:
    """Closed depth-first walk on an integer grid: ``xs[k]`` is the position
    of ``vertices[k]`` along the walk times ``unit``."""

    vertices: tuple[str, ...]
    unit: int
    xs: tuple[int, ...]

    @property
    def length(self) -> Fraction:
        return Fraction(self.xs[-1], self.unit)


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


def _euler_tour(vertices, edges, root, unit: int) -> Tour:
    """Closed depth-first walk from ``root`` over ``(u, v, w)`` edges, whose
    int weights w count steps of 1 / ``unit``; each vertex's children are
    walked in the order of ``vertices``."""
    index = {v: i for i, v in enumerate(vertices)}
    adj: dict[str, list[tuple[str, int]]] = {v: [] for v in vertices}
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    for v in adj:
        adj[v].sort(key=lambda e: index[e[0]])
    walk, steps = _closed_walk(adj, root)
    return Tour(vertices=tuple(walk), unit=unit, xs=tuple(accumulate(steps, initial=0)))


def depth_first_tour(tree: TreeRoadmap) -> Tour:
    """Closed depth-first tour rooted at the lowest-index vertex.

    Children are visited in vertex-index order for determinism; the tour
    length equals twice the summed edge weights exactly.
    """
    unit, lengths = tree.grid
    edges = [(u, v, w) for (u, v, _), w in zip(tree.edges, lengths)]
    tour = _euler_tour(tree.ids, edges, tree.ids[0], unit)
    assert tour.xs[-1] == 2 * sum(lengths)
    return tour


@dataclass(frozen=True)
class SubtreeCollection:
    """Vertex-disjoint subtrees covering the tree plus a robot allocation.

    The subtrees must be the components left by removing ``removed_edges``.
    The constructor checks that in one pass over the tree's edges, which
    also hands each subtree its kept edges, with their int weights on the
    tree's grid, for its tour and for ``objective_exact``.
    """

    tree: TreeRoadmap
    removed_edges: tuple[tuple[str, str], ...]
    subtrees: tuple[tuple[str, ...], ...]
    allocation: tuple[int, ...]
    _kept: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.subtrees) != len(self.allocation):
            raise ValueError("one robot count per subtree is required")
        if any(mj < 1 for mj in self.allocation):
            raise InfeasibleError(
                "every subtree needs at least one robot for a finite refresh time"
            )
        where = {v: j for j, sub in enumerate(self.subtrees) for v in sub}
        if sum(map(len, self.subtrees)) != len(where) or where.keys() != set(self.tree.ids):
            raise ValueError("subtrees must partition the vertex set")
        removed = {frozenset(e) for e in self.removed_edges}
        kept: list[list[tuple[str, str, int]]] = [[] for _ in self.subtrees]
        cuts = 0
        for (u, v, _), w in zip(self.tree.edges, self.tree.grid[1]):
            j = where[u]
            if frozenset((u, v)) in removed:
                if where[v] == j:
                    raise ValueError(f"removed edge ({u}, {v}) lies inside subtree {j}")
                cuts += 1
            elif where[v] != j:
                raise ValueError(f"kept edge ({u}, {v}) joins subtrees {j} and {where[v]}")
            else:
                kept[j].append((u, v, w))
        if cuts != len(self.removed_edges):
            raise ValueError("removed edges must be distinct edges of the tree")
        for j, (sub, es) in enumerate(zip(self.subtrees, kept)):
            if len(es) != len(sub) - 1:
                raise ValueError(f"subtree {j} is not connected by its kept edges")
        object.__setattr__(self, "_kept", tuple(map(tuple, kept)))

    @property
    def m(self) -> int:
        return sum(self.allocation)

    @cached_property
    def tours(self) -> tuple[Tour, ...]:
        unit = self.tree.grid[0]
        return tuple(
            _euler_tour(sub, es, sub[0], unit) for sub, es in zip(self.subtrees, self._kept)
        )

    @property
    def objective_exact(self) -> Fraction:
        unit = self.tree.grid[0]
        return max(
            Fraction(2 * sum(w for _, _, w in es), mj * unit)
            for es, mj in zip(self._kept, self.allocation)
        )

    @property
    def objective(self) -> float:
        return float(self.objective_exact)

    def to_document(self) -> dict:
        return {
            "removed_edges": [list(e) for e in self.removed_edges],
            "subtrees": [list(s) for s in self.subtrees],
            "allocation": list(self.allocation),
            "objective": self.objective,
            "tours": [
                {"vertices": list(t.vertices), "length": float(t.length)} for t in self.tours
            ],
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


def _need_at(m: int, lam: Fraction, seen: dict[int, int]):
    """need(w): the robots a component of scaled weight w takes at the bound
    ``lam`` on weight per robot, max(1, ceil(w / lam)), capped at m + 1.

    Every weight asked about is recorded in ``seen`` with its answer, which
    is all a DP pass at ``lam`` depends on.
    """
    P, Q = lam.numerator, lam.denominator
    mP = m * P

    def need(w: int) -> int:
        wq = w * Q
        a = 1 if wq <= P else m + 1 if wq > mP else -(-wq // P)
        seen[w] = a
        return a

    return need


def _vertex_table(kids, tables, edge_w, cut, need, m: int):
    """The DP table of one vertex, merged from its children's tables.

    An entry (k, c, w) is a plan of the vertex's subtree: k robots on the
    closed components below it, c cut edges, and w the weight of the open
    component that holds the vertex.  A kept child edge adds the child's
    open weight plus the edge to w; a cut one closes the child's component
    with need of its weight robots, and an edge marked in ``cut`` must be
    cut.  An entry stays only while no other is as good in k, c and w at
    once, and while k + need(w) <= m: an open component never gets lighter.
    """
    table = [(0, 0, 0)]
    for u, i in kids:
        sub, we = tables[u], edge_w[i]
        out = []
        if not cut[i]:
            for k2, c2, w2 in sub:
                w2 += we
                out += [(k1 + k2, c1 + c2, w1 + w2) for k1, c1, w1 in table]
        closed: dict[int, int] = {}  # cuts -> fewest robots closing the child
        for k2, c2, w2 in sub:
            k2 += need(w2)
            if k2 < closed.get(c2 + 1, m):
                closed[c2 + 1] = k2
        for c2, k2 in closed.items():
            out += [(k1 + k2, c1 + c2, w1) for k1, c1, w1 in table]
        out.sort()
        table = []
        low = [math.inf] * m  # low[c]: least w kept with at most c cuts
        for k, c, w in out:
            if k >= m or low[c] <= w or k + need(w) > m:
                continue
            table.append((k, c, w))
            while c < m and low[c] > w:
                low[c] = w
                c += 1
    return table


def optimal_subtree_collection(tree: TreeRoadmap, m: int) -> SubtreeCollection:
    """Optimal subtree collection for m robots.

    Removing r < m edges leaves r + 1 components; component j of edge
    weight W_j ridden by a_j robots refreshes in 2 W_j / a_j.  The plan
    minimizes the worst of these over every edge subset and every positive
    allocation.  Ties break toward fewer removed edges, then toward the
    lexicographically first edge subset and allocation.

    The search is a parametric tree DP in exact integer arithmetic on the
    tree's grid (``Roadmap.grid``).  A bound lam on W_j / a_j is feasible
    when some plan needs at most m robots, a component of weight W needing
    need(W) = max(1, ceil(W / lam)).  One post-order pass decides it; each
    vertex keeps at most one entry per robot count and cut count below m,
    so a pass merges at most O(n m^4) pairs of entries.

    The optimum lam* is some W / a with a <= m, and two such values differ
    by at least 1/m^2.  It is bracketed from above by W_total / m, which
    all m robots riding the whole tree achieve, and from below by the
    weight left after the m - 1 heaviest edges, over m.  A pass depends on
    lam only through the needs it evaluates, and need(W) = a holds for lam
    in [W / a, W / (a - 1)); needs above m are all alike, as no plan
    affords them.  So a feasible midpoint lowers the top to the largest
    W / a it evaluated with a <= m, and an infeasible one raises the bottom
    to the least W / (a - 1), which is W / m for a need past m: both ends
    stay values W / a with a <= m.  Once the bracket is narrower than
    1/m^2, its top is lam*.

    At lam*, the pass gives the fewest cuts r, and each edge in index order
    is cut if a feasible r-cut plan still exists with it cut.  Each component then takes its need and the last one the
    robots left over, the first allocation in order.
    """
    if m < 1:
        raise InfeasibleError("need at least one robot")
    edges = tree.edges
    n = tree.n
    edge_w = tree.grid[1]
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
    kids: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    parent: list[int | None] = [None] * n
    upper = [0] * len(edges)  # the parent end of each edge
    for v, p, i in links:
        kids[p].append((v, i))
        parent[v] = upper[i] = p
    cut = [False] * len(edges)

    def tables_at(lam, seen):
        need = _need_at(m, lam, seen)
        tables: list = [None] * n
        for v in reversed(order):
            tables[v] = _vertex_table(kids[v], tables, edge_w, cut, need, m)
        return tables, need

    total = sum(edge_w)
    lo = Fraction(total - sum(sorted(edge_w, reverse=True)[: m - 1]), m)
    hi = Fraction(total, m)
    while (hi - lo) * m * m >= 1:
        mid = (lo + hi) / 2
        seen: dict[int, int] = {}
        tables, _ = tables_at(mid, seen)
        feasible = bool(tables[0])  # a root entry is a plan within m robots
        # snap to where the outcome can first change: down to the largest
        # w / a with a <= m, or up to the least w / (a - 1); the ratios are
        # compared by cross-multiplication, starting from 0 or infinity
        bw, ba = (0, 1) if feasible else (1, 0)
        for w, a in seen.items():
            if not feasible:
                a -= 1
            if 0 < a <= m and (w * ba > bw * a) == feasible:
                bw, ba = w, a
        if feasible:
            hi = Fraction(bw, ba)
        else:
            lo = Fraction(bw, ba)

    tables, need = tables_at(hi, {})
    r = min(c for _, c, _ in tables[0])
    # forcing an edge cut changes only the tables on its way to the root;
    # an edge left uncut here is cut by no remaining r-cut plan, so it
    # needs no forcing of its own
    removed_idx = []
    for i in range(len(edges)):
        if len(removed_idx) == r:
            break
        cut[i] = True
        trial = tables[:]
        v = upper[i]
        while v is not None:
            trial[v] = _vertex_table(kids[v], trial, edge_w, cut, need, m)
            v = parent[v]
        if any(c <= r for _, c, _ in trial[0]):
            tables = trial
            removed_idx.append(i)
        else:
            cut[i] = False
    label, weight = _label_components(links, n, [not c for c in cut], edge_w)
    comps: dict[int, list[str]] = {}
    for v, c in enumerate(label):
        comps.setdefault(c, []).append(tree.ids[v])
    alloc = [need(weight[c]) for c in comps]
    alloc[-1] += m - sum(alloc)
    return SubtreeCollection(
        tree=tree,
        removed_edges=tuple((edges[i][0], edges[i][1]) for i in removed_idx),
        subtrees=tuple(tuple(c) for c in comps.values()),
        allocation=tuple(alloc),
    )


@dataclass(frozen=True)
class TourTeamTrajectory:
    """Robots riding closed depth-first tours at unit speed.

    Each robot's position is its arc coordinate on its own tour.  The m_j
    robots of tour j ride it equally spaced: robot k of the tour, in robot
    order, starts at phase offset k * L_j / m_j, where L_j is the tour's
    length.  A path-cover robot sweeping its path back and forth rides the
    closed walk of that path the same way, alone on it.
    """

    tours: tuple[Tour, ...]
    stationary: tuple[str | None, ...]  # a single-vertex tour's robots stay put
    robots: tuple[tuple[int, Fraction], ...]  # (subtree index, phase offset)
    horizon: Fraction

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")
        object.__setattr__(self, "horizon", Fraction(self.horizon))
        for j, offsets in self._offsets().items():
            L, mj = self.tours[j].length, len(offsets)
            if offsets != [k * L / mj for k in range(mj)]:
                raise ValueError(
                    f"the {mj} robots of tour {j} must start at offsets k * {L} / {mj}"
                )

    def _offsets(self) -> dict[int, list[Fraction]]:
        by_tour: dict[int, list[Fraction]] = {}
        for j, off in self.robots:
            by_tour.setdefault(j, []).append(off)
        return by_tour

    @property
    def m(self) -> int:
        return len(self.robots)

    def refresh_time(self) -> float:
        """Largest revisit gap over all vertices (exact, steady state).

        A vertex at arc position p of tour j is visited whenever some robot
        reaches p, at the instants p - k L / m_j modulo L.  That set repeats
        every L / m_j, so scaled by m_j it is the single point p m_j modulo
        L, and the vertex's gap is the largest circular gap, on a circle of
        length L, of p m_j mod L over its positions p, divided by m_j.  All
        of it runs on the tour's integer grid, and the worst gap over every
        tour is divided out once, which rounds correctly.
        """
        worst, scale = 0, 1  # the worst gap is worst / scale
        for j, offsets in self._offsets().items():
            if self.stationary[j] is not None:
                continue
            tour, mj = self.tours[j], len(offsets)
            L = tour.xs[-1]
            folded: dict[str, list[int]] = {}
            for vid, x in zip(tour.vertices, tour.xs[:-1]):
                folded.setdefault(vid, []).append(x * mj % L)
            gap = 0
            for ps in folded.values():
                ps.sort()
                gap = max(gap, ps[0] + L - ps[-1], *(b - a for a, b in zip(ps, ps[1:])))
            if gap * scale > worst * mj * tour.unit:
                worst, scale = gap, mj * tour.unit
        return worst / scale

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


def efficient_trajectory(coll: SubtreeCollection, horizon) -> TourTeamTrajectory:
    """Equally space each subtree's robots along its depth-first tour.

    All robots move forward at unit speed with phase gaps of one m_j-th of
    the tour, so every vertex is revisited within DFT(T_j)/m_j.
    """
    traj = TourTeamTrajectory(
        tours=coll.tours,
        stationary=tuple(sub[0] if len(sub) == 1 else None for sub in coll.subtrees),
        robots=tuple(
            (j, k * tour.length / mj)
            for j, (tour, mj) in enumerate(zip(coll.tours, coll.allocation))
            for k in range(mj)
        ),
        horizon=horizon,
    )
    assert traj.refresh_time() == coll.objective
    return traj
