"""Roadmap data model: weighted metric graphs, chains, and trees.

A roadmap is an undirected connected graph over viewpoints whose edge
lengths form a metric (every edge is itself a shortest route between its
endpoints).  Chains carry an explicit arc-length coordinate per viewpoint
and are the substrate for the partitioning and trajectory machinery; trees
get their own patrolling planner; everything else goes through the cyclic
approximations.  Both kinds keep an integer grid: a unit U and their
lengths times U as ints, on which exact computations run.
"""

from __future__ import annotations

import heapq
import json
import math
import operator
import warnings
from fractions import Fraction
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


class RoadmapError(ValueError):
    """A roadmap document or structure violates an invariant."""


class MetricViolation(RoadmapError):
    """An edge is longer than an alternative route between its endpoints."""

    def __init__(self, u: str, v: str, length: float, alternative: float, shortfall: float):
        self.triple = (u, v, length)
        self.alternative = alternative
        # the shortfall is exact: the rounded alternative can equal the length
        super().__init__(
            f"edge ({u}, {v}) of length {length!r} violates the triangle "
            f"inequality: an alternative route of length {alternative!r} exists "
            f"(shorter by {shortfall!r})"
        )


def _check_lengths(pairs: Iterable[tuple[str, str, float]]) -> None:
    seen: set[frozenset[str]] = set()
    for u, v, w in pairs:
        if u == v:
            raise RoadmapError(f"self-loop at vertex {u!r}")
        key = frozenset((u, v))
        if key in seen:
            raise RoadmapError(f"duplicate edge ({u!r}, {v!r})")
        seen.add(key)
        if not (w > 0.0) or not math.isfinite(w):
            raise RoadmapError(f"edge ({u!r}, {v!r}) has non-positive length {w!r}")


def _on_grid(values: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(U, ints): U is the least common denominator of the rationals
    ``values`` and each int is the value times U."""
    unit = math.lcm(*(x.denominator for x in values))
    return unit, tuple(x.numerator * (unit // x.denominator) for x in values)


def _spanning_tree(n: int, edges) -> list[tuple[int, int, int]]:
    """Minimum spanning forest of ``(i, j, w)`` edges over vertices 0..n-1
    with exact int lengths ``w``, by Kruskal's algorithm.

    Edges are taken in order of (w, min(i, j), max(i, j)), so among equal
    lengths the edge with the lower endpoint indices wins and the result is
    unique.  Returns the kept edges as (min index, max index, w) in that
    order.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for w, i, j in sorted((w, min(i, j), max(i, j)) for i, j, w in edges):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            tree.append((i, j, w))
    return tree


def _shortest_from(adj: list[list[tuple[int, int]]], s: int) -> dict[int, int]:
    """Dijkstra from ``s`` over int edge lengths: {reached vertex: distance}."""
    done: dict[int, int] = {}
    heap = [(0, s)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done[u] = d
        for v, w in adj[u]:
            if v not in done:
                heapq.heappush(heap, (d + w, v))
    return done


class Roadmap:
    """Undirected connected metric graph over named viewpoints.

    Distances are exact on the roadmap's integer grid: ``grid`` is (U,
    lengths), where the unit U is the least common denominator of the edge
    lengths and ``lengths[k] = Fraction(edges[k][2]) * U`` is an int.
    ``grid_distances[i][j]`` is the exact shortest-path length between
    vertices i and j times U, found by one Dijkstra per source on those
    ints.  ``distance`` and ``distance_matrix`` return it rounded once to
    the nearest float, which makes them symmetric, and the metric check
    compares ints.

    The constructor checks connectivity with one union-find pass (the
    spanning forest of ``_spanning_tree``).  A
    connected graph with n - 1 edges is a tree, whose only route between an
    edge's ends is that edge, so it passes the metric check without one;
    any other roadmap runs the check, and with it the all-pairs table, at
    construction.  A tree builds the table and the float matrix on first
    use, which the tree planner never makes.  Nothing changes afterwards.
    """

    kind = "general"

    def __init__(
        self,
        vertices: Sequence[str],
        edges: Sequence[tuple[str, str, float]],
        xy: dict[str, tuple[float, float]] | None = None,
        strict_metric: bool = True,
    ):
        if len(set(vertices)) != len(vertices):
            raise RoadmapError("duplicate vertex ids")
        if len(vertices) < 1:
            raise RoadmapError("empty vertex set")
        _check_lengths(edges)
        self.ids: tuple[str, ...] = tuple(vertices)
        self._index = {vid: i for i, vid in enumerate(self.ids)}
        for u, v, _ in edges:
            if u not in self._index or v not in self._index:
                raise RoadmapError(f"edge references unknown vertex: ({u!r}, {v!r})")
        self.edges: tuple[tuple[str, str, float], ...] = tuple(
            (u, v, float(w)) for u, v, w in edges
        )
        self.xy = dict(xy) if xy else {}

        self.grid = _on_grid([Fraction(w) for _, _, w in self.edges])
        ends = [
            (self._index[u], self._index[v], w) for (u, v, _), w in zip(self.edges, self.grid[1])
        ]
        # a spanning forest has one edge fewer than vertices per component
        ncomp = self.n - len(_spanning_tree(self.n, ends))
        if ncomp != 1:
            raise RoadmapError(f"roadmap is disconnected ({ncomp} components)")
        if len(self.edges) != self.n - 1:
            self._validate_metric(strict=strict_metric)

    @cached_property
    def grid_distances(self) -> tuple[tuple[int, ...], ...]:
        unit, lengths = self.grid
        n = self.n
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (u, v, _), w in zip(self.edges, lengths):
            i, j = self._index[u], self._index[v]
            adj[i].append((j, w))
            adj[j].append((i, w))
        reached = [_shortest_from(adj, s) for s in range(n)]
        return tuple(tuple(row[j] for j in range(n)) for row in reached)

    @cached_property
    def _dist(self) -> np.ndarray:
        # int true division rounds correctly, so the matrix is symmetric
        unit = self.grid[0]
        return np.array([[d / unit for d in row] for row in self.grid_distances])

    def _validate_metric(self, strict: bool) -> None:
        unit, lengths = self.grid
        for (u, v, w), wi in zip(self.edges, lengths):
            d = self.grid_distances[self._index[u]][self._index[v]]
            if d < wi:
                err = MetricViolation(u, v, w, d / unit, (wi - d) / unit)
                if strict:
                    raise err
                warnings.warn(str(err), stacklevel=3)

    @property
    def n(self) -> int:
        return len(self.ids)

    def index(self, vid: str) -> int:
        try:
            return self._index[vid]
        except KeyError:
            raise RoadmapError(f"unknown vertex id {vid!r}") from None

    def distance(self, u: str, v: str) -> float:
        return float(self._dist[self.index(u), self.index(v)])

    def distance_matrix(self) -> np.ndarray:
        return self._dist.copy()

    def edge_length_ratio(self) -> float:
        """Longest-to-shortest edge length ratio (>= 1)."""
        if not self.edges:
            raise RoadmapError("roadmap has no edges")
        lengths = [w for _, _, w in self.edges]
        return max(lengths) / min(lengths)

    def to_document(self) -> dict:
        doc: dict = {
            "kind": self.kind,
            "vertices": [
                {"id": vid, **({"xy": list(self.xy[vid])} if vid in self.xy else {})}
                for vid in self.ids
            ],
            "edges": [{"u": u, "v": v, "length": w} for u, v, w in self.edges],
        }
        return doc


class TreeRoadmap(Roadmap):
    """Connected acyclic roadmap: exactly n - 1 edges."""

    kind = "tree"

    def __init__(self, vertices, edges, xy=None, strict_metric=True):
        super().__init__(vertices, edges, xy=xy, strict_metric=strict_metric)
        if len(self.edges) != self.n - 1:
            raise RoadmapError(
                f"tree roadmap must have n-1 edges, got {len(self.edges)} for n={self.n}"
            )


def _raise_coordinate_fault(given: Sequence) -> None:
    """Raise a RoadmapError naming the first fault of chain coordinates:
    a value that is not a finite number, a first coordinate other than 0,
    or a pair out of strictly increasing order."""
    for i, c in enumerate(given):
        if c != c or c in (math.inf, -math.inf):
            raise RoadmapError(f"chain coordinate {i} is not a finite number: {c!r}")
    # the messages print rationals as floats, so -0.0 prints as 0.0
    exact = [Fraction(c) for c in given]
    if exact[0] != 0:
        raise RoadmapError(f"first chain coordinate must be 0, got {float(exact[0])!r}")
    for a, b in zip(exact, exact[1:]):
        if not b > a:
            raise RoadmapError(
                f"chain coordinates must be strictly increasing "
                f"({float(a)!r} !< {float(b)!r})"
            )


class ChainRoadmap:
    """Chain of viewpoints given by strictly increasing arc-length coordinates.

    The first coordinate is pinned to zero; consecutive coordinate gaps are
    the (implicit) edge lengths.  Coordinates are kept exactly as loaded:
    they are validated as given (comparisons between ints, floats and
    ``Fraction``s are exact), ``coordinates`` holds them as floats, and
    ``coords_exact`` exposes them as rationals.  The exact trajectory and
    metric computations read them on the chain's integer grid instead:
    ``grid`` is (U, xs), where the unit U is the least common denominator of
    the coordinates and each ``xs[i] = coords_exact[i] * U`` is an int.
    ``coords_exact`` and ``grid`` are computed on first use, so building a
    chain that is never synthesized on (the planners build them with 1e5
    viewpoints) costs one float conversion per viewpoint.  ``indices`` is
    ``tuple(range(n))``, also built on first use: every partition cluster
    the library builds is a slice of it, so its ints are made once per
    chain.
    """

    kind = "chain"

    def __init__(self, coordinates: Sequence, ids: Sequence[str] | None = None):
        # rational inputs (e.g. exact cumulative tour lengths) are kept exact;
        # plain floats are rationals already, so nothing is ever approximated
        given = tuple(coordinates)
        if len(given) < 2:
            raise RoadmapError("chain roadmap needs at least 2 viewpoints")
        # NaN fails every comparison and an infinity can only end a strictly
        # increasing run from 0, so these three checks pass only valid chains
        if not (
            given[0] == 0
            and all(map(operator.lt, given, islice(given, 1, None)))
            and math.isfinite(given[-1])
        ):
            _raise_coordinate_fault(given)
        self._given = given
        # the first coordinate equals 0 and may be -0.0; it is stored as 0.0
        self.coordinates = (0.0,) + tuple(map(float, islice(given, 1, None)))
        if ids is None:
            ids = tuple(f"v{i+1}" for i in range(len(given)))
        else:
            ids = tuple(ids)
            if len(ids) != len(given):
                raise RoadmapError("ids and coordinates length mismatch")
            if len(set(ids)) != len(ids):
                raise RoadmapError("duplicate vertex ids")
        self.ids = ids
        self._index = {vid: i for i, vid in enumerate(ids)}

    @cached_property
    def coords_exact(self) -> tuple[Fraction, ...]:
        return tuple(c if isinstance(c, Fraction) else Fraction(c) for c in self._given)

    @cached_property
    def grid(self) -> tuple[int, tuple[int, ...]]:
        return _on_grid(self.coords_exact)

    @cached_property
    def indices(self) -> tuple[int, ...]:
        return tuple(range(self.n))

    @property
    def n(self) -> int:
        return len(self.coordinates)

    @property
    def length(self) -> float:
        return self.coordinates[-1]

    def index(self, vid: str) -> int:
        try:
            return self._index[vid]
        except KeyError:
            raise RoadmapError(f"unknown vertex id {vid!r}") from None

    def edge_lengths(self) -> tuple[float, ...]:
        c = self.coordinates
        return tuple(b - a for a, b in zip(c, c[1:]))

    def edge_length_ratio(self) -> float:
        lengths = self.edge_lengths()
        return max(lengths) / min(lengths)

    def distance(self, u: str, v: str) -> float:
        return abs(self.coordinates[self.index(u)] - self.coordinates[self.index(v)])

    def as_roadmap(self) -> Roadmap:
        """Equivalent general-graph representation (for cross checks)."""
        edges = [
            (self.ids[i], self.ids[i + 1], self.coordinates[i + 1] - self.coordinates[i])
            for i in range(self.n - 1)
        ]
        return Roadmap(self.ids, edges)

    def to_document(self) -> dict:
        return {
            "kind": "chain",
            "vertices": [{"id": vid} for vid in self.ids],
            "coordinates": list(self.coordinates),
        }


AnyRoadmap = Roadmap | ChainRoadmap


def load_roadmap(source, strict_metric: bool = True) -> AnyRoadmap:
    """Load a roadmap document and return the most specific kind it declares.

    ``source`` may be a dict, a JSON string, or a path to a JSON file.
    """
    if isinstance(source, dict):
        doc = source
    elif isinstance(source, (str, Path)) and str(source).lstrip().startswith("{"):
        doc = json.loads(str(source))
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)

    try:
        kind = doc["kind"]
    except KeyError:
        raise RoadmapError("document missing 'kind'") from None
    if kind == "chain":
        if "edges" in doc and doc["edges"]:
            raise RoadmapError("chain documents carry coordinates, not edges")
        if "coordinates" not in doc:
            raise RoadmapError("chain document missing 'coordinates'")
        ids = [v["id"] for v in doc["vertices"]] if doc.get("vertices") else None
        return ChainRoadmap(doc["coordinates"], ids=ids)
    if kind not in ("general", "tree"):
        raise RoadmapError(f"unknown roadmap kind {kind!r}")
    if "coordinates" in doc:
        raise RoadmapError("'coordinates' is only valid for kind=chain")
    try:
        vertices = [v["id"] for v in doc["vertices"]]
        xy = {v["id"]: tuple(v["xy"]) for v in doc["vertices"] if "xy" in v}
        edges = [(e["u"], e["v"], float(e["length"])) for e in doc["edges"]]
    except (KeyError, TypeError) as exc:
        raise RoadmapError(f"malformed roadmap document: {exc}") from None
    cls = TreeRoadmap if kind == "tree" else Roadmap
    return cls(vertices, edges, xy=xy or None, strict_metric=strict_metric)


def dump_roadmap(g: AnyRoadmap, path=None) -> str:
    """Serialize a roadmap to its JSON document (bit-exact on reload)."""
    text = json.dumps(g.to_document(), indent=2)
    if path is not None:
        Path(path).write_text(text + "\n", encoding="utf-8")
    return text
