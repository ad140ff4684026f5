"""Roadmap data model: weighted metric graphs, chains, and trees.

A roadmap is an undirected connected graph over viewpoints whose edge
lengths form a metric (every edge is itself a shortest route between its
endpoints).  Chains carry an explicit arc-length coordinate per viewpoint
and are the substrate for the partitioning and trajectory machinery; trees
get their own patrolling planner; everything else goes through the cyclic
approximations.
"""

from __future__ import annotations

import json
import math
import warnings
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path


class RoadmapError(ValueError):
    """A roadmap document or structure violates an invariant."""


class MetricViolation(RoadmapError):
    """An edge is longer than an alternative route between its endpoints."""

    def __init__(self, u: str, v: str, length: float, alternative: float):
        self.triple = (u, v, length)
        self.alternative = alternative
        super().__init__(
            f"edge ({u}, {v}) of length {length!r} violates the triangle "
            f"inequality: an alternative route of length {alternative!r} exists"
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


class Roadmap:
    """Undirected connected metric graph over named viewpoints.

    Immutable after construction; all-pairs shortest path distances are
    computed eagerly (instances stay small) and shared freely across
    threads.
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

        n = len(self.ids)
        rows, cols, data = [], [], []
        for u, v, w in self.edges:
            i, j = self._index[u], self._index[v]
            rows += [i, j]
            cols += [j, i]
            data += [w, w]
        graph = csr_matrix((data, (rows, cols)), shape=(n, n))
        ncomp, _ = connected_components(graph, directed=False)
        if ncomp != 1:
            raise RoadmapError(f"roadmap is disconnected ({ncomp} components)")
        dist = shortest_path(graph, method="D", directed=False)
        # summation order differs per direction at the last ulp; symmetrize
        self._dist = np.minimum(dist, dist.T)
        self._validate_metric(strict=strict_metric)

    def _validate_metric(self, strict: bool) -> None:
        for u, v, w in self.edges:
            d = self._dist[self._index[u], self._index[v]]
            if d < w:
                err = MetricViolation(u, v, w, float(d))
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


class ChainRoadmap:
    """Chain of viewpoints given by strictly increasing arc-length coordinates.

    The first coordinate is pinned to zero; consecutive coordinate gaps are
    the (implicit) edge lengths.  Coordinates are kept exactly as loaded;
    ``coords_exact`` exposes them as rationals.  The exact trajectory and
    metric computations read them on the chain's integer grid instead:
    ``grid`` is (U, xs), where the unit U is the least common denominator of
    the coordinates and each ``xs[i] = coords_exact[i] * U`` is an int.  It
    is computed on first use, so building a chain that is never synthesized
    on (the planners build them with 1e5 viewpoints) costs nothing more.
    """

    kind = "chain"

    def __init__(self, coordinates: Sequence, ids: Sequence[str] | None = None):
        # rational inputs (e.g. exact cumulative tour lengths) are kept exact;
        # plain floats are rationals already, so nothing is ever approximated
        exact = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coordinates)
        if len(exact) < 2:
            raise RoadmapError("chain roadmap needs at least 2 viewpoints")
        if exact[0] != 0:
            raise RoadmapError(f"first chain coordinate must be 0, got {float(exact[0])!r}")
        for a, b in zip(exact, exact[1:]):
            if not b > a:
                raise RoadmapError(
                    f"chain coordinates must be strictly increasing "
                    f"({float(a)!r} !< {float(b)!r})"
                )
        self.coords_exact = exact
        self.coordinates = tuple(float(c) for c in exact)
        if ids is None:
            ids = tuple(f"v{i+1}" for i in range(len(exact)))
        else:
            ids = tuple(ids)
            if len(ids) != len(exact):
                raise RoadmapError("ids and coordinates length mismatch")
            if len(set(ids)) != len(ids):
                raise RoadmapError("duplicate vertex ids")
        self.ids = ids
        self._index = {vid: i for i, vid in enumerate(ids)}

    @cached_property
    def grid(self) -> tuple[int, tuple[int, ...]]:
        unit = math.lcm(*(c.denominator for c in self.coords_exact))
        return unit, tuple(c.numerator * (unit // c.denominator) for c in self.coords_exact)

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
