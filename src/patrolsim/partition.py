"""Min-max interval partitions of a chain roadmap.

The core objects are interval partitions of the chain's viewpoints into m
ordered clusters, judged by their *dimension*: the longest coordinate span
of any single cluster.  Twice the minimum dimension is the best achievable
refresh time for m sweeping robots, so everything downstream keys off the
two optimizers here: a bisection to tolerance ``eps`` over greedy covers
and an exact quadratic-candidate search used as its oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .roadmap import ChainRoadmap


class InfeasibleError(ValueError):
    """The request cannot be satisfied (e.g. as many robots as viewpoints)."""


@dataclass(frozen=True)
class Partition:
    """Ordered interval clusters of chain viewpoints, padded to m slots.

    ``clusters`` holds viewpoint indices; trailing entries may be empty.
    Cluster extremes and lengths are exposed both as floats and as exact
    rationals (floats are views of the same coordinate values, so the two
    never disagree after rounding); the exact lengths are read off the
    chain's integer grid (``ChainRoadmap.grid``).
    """

    chain: ChainRoadmap
    clusters: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if [idx for cluster in self.clusters for idx in cluster] == list(range(self.chain.n)):
            return
        seen: set[int] = set()
        last = -1
        for cluster in self.clusters:
            for idx in cluster:
                if idx in seen:
                    raise ValueError(f"viewpoint {idx} appears in two clusters")
                seen.add(idx)
                if idx <= last:
                    raise ValueError("clusters are not interval-ordered")
                last = idx
        if seen != set(range(self.chain.n)):
            raise ValueError("clusters do not cover all viewpoints")

    @property
    def m(self) -> int:
        return len(self.clusters)

    @property
    def active(self) -> tuple[int, ...]:
        """Indices of nonempty clusters (always a prefix here)."""
        return tuple(i for i, c in enumerate(self.clusters) if c)

    @property
    def cardinality(self) -> int:
        return len(self.active)

    def left(self, i: int) -> float:
        return self.chain.coordinates[self.clusters[i][0]]

    def right(self, i: int) -> float:
        return self.chain.coordinates[self.clusters[i][-1]]

    def length(self, i: int) -> float:
        if not self.clusters[i]:
            return 0.0
        return self.right(i) - self.left(i)

    def grid_length(self, i: int) -> int:
        """Length of cluster i on the chain's grid: times its unit U."""
        cluster = self.clusters[i]
        if not cluster:
            return 0
        xs = self.chain.grid[1]
        return xs[cluster[-1]] - xs[cluster[0]]

    def length_exact(self, i: int) -> Fraction:
        return Fraction(self.grid_length(i), self.chain.grid[0])

    @property
    def dimension(self) -> float:
        return float(self.dimension_exact)

    @property
    def dimension_exact(self) -> Fraction:
        span = max((self.grid_length(i) for i in range(self.m)), default=0)
        return Fraction(span, self.chain.grid[0])

    def parking_coordinate(self) -> float:
        """Where robots assigned to empty clusters idle."""
        act = self.active
        return self.right(act[-1]) if act else 0.0

    def padded(self, m: int) -> "Partition":
        if m < self.cardinality:
            raise ValueError("cannot pad below current cardinality")
        clusters = tuple(c for c in self.clusters if c) + ((),) * (m - self.cardinality)
        return Partition(self.chain, clusters)

    def to_document(self, rho_interval: tuple[float, float] | None = None) -> dict:
        doc = {
            "clusters": [[self.chain.ids[i] for i in c] for c in self.clusters],
            "dimension": self.dimension,
        }
        if rho_interval is not None:
            doc["rho_interval"] = [rho_interval[0], rho_interval[1]]
        return doc


@dataclass(frozen=True)
class BisectionReport:
    """Final bracket and iteration count of the bisection search."""

    a: float
    b: float
    iterations: int
    eps: float
    partition: Partition = field(repr=False)


def _check_rho(rho) -> None:
    # written so that NaN fails too; -0.0 passes like 0
    if not rho >= 0:
        raise ValueError(f"rho must be >= 0, got {rho!r}")


def left_induced_cardinality(chain: ChainRoadmap, rho: float) -> int:
    """Number of clusters the greedy left-to-right cover of span rho uses."""
    _check_rho(rho)
    coords = chain.coordinates
    i, k, n = 0, 0, len(coords)
    while i < n:
        k += 1
        # first viewpoint strictly beyond the current cluster's reach
        i = bisect_right(coords, coords[i] + rho, i)
    return k


def left_induced_partition(chain: ChainRoadmap, rho: float) -> Partition:
    """Greedy partition from the left end: each cluster spans at most rho.

    Starting at the first viewpoint, a cluster takes every viewpoint within
    ``rho`` of its anchor; the next cluster anchors at the first viewpoint
    beyond that reach.  Each cluster costs one binary search.
    """
    _check_rho(rho)
    coords = chain.coordinates
    n = len(coords)
    clusters: list[tuple[int, ...]] = []
    i = 0
    while i < n:
        j = bisect_right(coords, coords[i] + rho, i)
        clusters.append(tuple(range(i, j)))
        i = j
    return Partition(chain, tuple(clusters))


def _validate_m(chain: ChainRoadmap, m: int) -> None:
    if m < 1:
        raise InfeasibleError(f"need at least one robot, got m={m}")
    if m >= chain.n:
        raise InfeasibleError(
            f"m={m} robots on n={chain.n} viewpoints: place robots statically "
            "instead of partitioning"
        )


def optimal_partition_bisect(
    chain: ChainRoadmap, m: int, eps: float
) -> tuple[Partition, BisectionReport]:
    """Bisection search for a minimum-dimension m-partition.

    Brackets the optimal span in [0, 2 v_n / m] and keeps the smallest
    tested span whose greedy partition fits in m clusters.  The loop runs
    until the bracket is within ``eps``, which guarantees the returned
    dimension is at most eps above optimal and caps the iteration count at
    ceil(log2(2 v_n / (eps m))).
    """
    _validate_m(chain, m)
    v_n = chain.length
    if not (0.0 < eps < v_n / m):
        raise ValueError(f"eps must lie in (0, v_n/m) = (0, {v_n / m!r}), got {eps!r}")
    a = 0.0
    b = 2.0 * v_n / m
    iterations = 0
    while (b - a) > eps:
        rho = (a + b) / 2.0
        iterations += 1
        if left_induced_cardinality(chain, rho) > m:
            a = rho
        else:
            b = rho
    best = left_induced_partition(chain, b)
    # b is the last span tested feasible, or the initial 2 v_n / m, which
    # admits m clusters as well
    assert best.cardinality <= m
    assert best.dimension < 2.0 * v_n / m
    padded = best.padded(m)
    return padded, BisectionReport(a=a, b=b, iterations=iterations, eps=eps, partition=padded)


def optimal_partition_exact(chain: ChainRoadmap, m: int) -> Partition:
    """Exact minimum-dimension m-partition via candidate span enumeration.

    Every optimal span equals some pairwise coordinate difference, so it
    suffices to test those n(n-1)/2 values (plus zero).  Feasibility of a
    span is monotone, which lets a binary search pick the smallest feasible
    candidate; ties break toward the smaller span by construction.
    """
    _validate_m(chain, m)
    coords = np.asarray(chain.coordinates)
    diffs = (coords[None, :] - coords[:, None])[np.triu_indices(len(coords), k=1)]
    candidates = np.unique(np.concatenate(([0.0], diffs)))
    lo, hi = 0, len(candidates) - 1
    # candidates[-1] spans the whole chain and is always feasible
    while lo < hi:
        mid = (lo + hi) // 2
        if left_induced_cardinality(chain, float(candidates[mid])) <= m:
            hi = mid
        else:
            lo = mid + 1
    rho = float(candidates[lo])
    assert left_induced_cardinality(chain, rho) <= m
    if lo > 0:
        assert left_induced_cardinality(chain, float(candidates[lo - 1])) > m
    return left_induced_partition(chain, rho).padded(m)


def partition_from_clusters(chain: ChainRoadmap, clusters) -> Partition:
    """Build a partition from explicit index clusters (validated)."""
    return Partition(chain, tuple(tuple(c) for c in clusters))
