"""Min-max interval partitions of a chain roadmap.

The core objects are interval partitions of the chain's viewpoints into m
ordered clusters, judged by their *dimension*: the longest coordinate span
of any single cluster.  Twice the minimum dimension is the best achievable
refresh time for m sweeping robots, so everything downstream keys off the
two optimizers here: a bisection to tolerance ``eps`` over greedy covers
and an exact search on the chain's integer grid used as its oracle.  Every
cluster they build is a slice of the chain's index tuple
(``ChainRoadmap.indices``), and each call validates one ``Partition``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .roadmap import ChainRoadmap


class InfeasibleError(ValueError):
    """The request cannot be satisfied (e.g. as many robots as viewpoints)."""


@dataclass(frozen=True)
class Partition:
    """Ordered interval clusters of chain viewpoints, padded to m slots.

    ``clusters`` holds viewpoint indices; only trailing entries may be empty.
    Construction accepts consecutive clusters by comparing each with the
    matching slice of ``chain.indices``, and walks every index to name the
    fault only when one differs.
    Cluster extremes and lengths are exposed both as floats and as exact
    rationals (floats are views of the same coordinate values, so the two
    never disagree after rounding); the exact lengths are read off the
    chain's integer grid (``ChainRoadmap.grid``).
    """

    chain: ChainRoadmap
    clusters: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # fast path: the nonempty clusters are consecutive index ranges from
        # 0 to n-1, followed only by empty slots
        indices = self.chain.indices
        n = len(indices)
        start = 0
        for cluster in self.clusters:
            end = start + len(cluster)
            if (not cluster and start < n) or cluster != indices[start:end]:
                break
            start = end
        else:
            if start == n:
                return
        self._check_each_index()

    def _check_each_index(self) -> None:
        """The fallback of ``__post_init__``: walks every index and raises a
        ValueError naming the first fault it finds."""
        seen: set[int] = set()
        last = -1
        empty = None
        for k, cluster in enumerate(self.clusters):
            if not cluster:
                if empty is None:
                    empty = k
                continue
            if empty is not None:
                raise ValueError(
                    f"cluster {empty} is empty but cluster {k} is not: "
                    "only trailing clusters may be empty"
                )
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


def _greedy_clusters(chain: ChainRoadmap, rho: float) -> tuple[tuple[int, ...], ...]:
    """The clusters of ``left_induced_partition``, as slices of
    ``chain.indices``, before any padding or validation."""
    _check_rho(rho)
    coords = chain.coordinates
    indices = chain.indices
    n = len(coords)
    clusters: list[tuple[int, ...]] = []
    i = 0
    while i < n:
        j = bisect_right(coords, coords[i] + rho, i)
        clusters.append(indices[i:j])
        i = j
    return tuple(clusters)


def left_induced_partition(chain: ChainRoadmap, rho: float) -> Partition:
    """Greedy partition from the left end: each cluster spans at most rho.

    Starting at the first viewpoint, a cluster takes every viewpoint within
    ``rho`` of its anchor; the next cluster anchors at the first viewpoint
    beyond that reach.  Each cluster costs one binary search.
    """
    return Partition(chain, _greedy_clusters(chain, rho))


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
    ceil(log2(2 v_n / (eps m))).  The loop only counts clusters; the greedy
    clusters at the final span are padded and validated as one partition.
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
    clusters = _greedy_clusters(chain, b)
    # b is the last span tested feasible, or the initial 2 v_n / m, which
    # admits m clusters as well
    assert len(clusters) <= m
    best = Partition(chain, clusters + ((),) * (m - len(clusters)))
    # the widest cluster in floats: the exact dimension builds the grid
    assert max(best.length(i) for i in range(m)) < 2.0 * v_n / m
    return best, BisectionReport(a=a, b=b, iterations=iterations, eps=eps, partition=best)


def _grid_greedy(xs: tuple[int, ...], rho: int, m: int) -> tuple[bool, int, list[int]]:
    """One greedy pass over the grid ints ``xs`` with clusters of span at
    most ``rho``, stopped once m clusters leave viewpoints over.

    Returns (fits, bound, starts), where ``starts`` lists the first index of
    each cluster built.  If the clusters fit in m, ``bound`` is the widest
    span among them; otherwise it is the least reach xs[j] - xs[start] of
    the m clusters, j being the first viewpoint past a cluster.
    """
    n = len(xs)
    starts: list[int] = []
    widest = 0
    reach = None
    i = 0
    while i < n:
        if len(starts) == m:
            return False, reach, starts
        starts.append(i)
        x = xs[i]
        j = bisect_right(xs, x + rho, i)
        if xs[j - 1] - x > widest:
            widest = xs[j - 1] - x
        if j < n and (reach is None or xs[j] - x < reach):
            reach = xs[j] - x
        i = j
    return True, widest, starts


def optimal_partition_exact(chain: ChainRoadmap, m: int) -> Partition:
    """Exact minimum-dimension m-partition, searched on the chain's grid.

    The optimal span rho* is a difference of two grid ints
    (``ChainRoadmap.grid``), and the greedy cover fits in m clusters
    exactly when its span is at least rho*.  The search keeps a bracket
    lo <= rho* <= hi, from [0, xs[-1] - xs[0]], and runs one int greedy per
    round at mid = (lo + hi) // 2, stopped after m clusters:

    - if it fits, every cluster spans at most its widest span w <= mid and
      every reach exceeds mid, so the greedy is the same at any span in
      [w, mid]: hi snaps down to w;
    - if not, its first m clusters are the same, and leave viewpoints over,
      at any span below their least reach r > mid: lo snaps up to r.

    Both snaps land on grid differences and leave at most half the
    bracket, so after at most (xs[-1] - xs[0]).bit_length() passes
    lo == hi == rho*, and the greedy partition last found to fit is the one
    at rho*.  Spans are compared as ints, so the result is exact on float
    chains too.  The search shares no code with the bisection, which
    criterion 1 checks against it.
    """
    _validate_m(chain, m)
    xs = chain.grid[1]
    n = len(xs)
    lo, hi = 0, xs[-1] - xs[0]
    best = [0]  # the greedy at the whole span is one cluster
    while lo < hi:
        fits, bound, starts = _grid_greedy(xs, (lo + hi) // 2, m)
        if fits:
            hi, best = bound, starts
        else:
            lo = bound
    indices = chain.indices
    ends = best[1:] + [n]
    clusters = tuple(indices[a:b] for a, b in zip(best, ends))
    return Partition(chain, clusters + ((),) * (m - len(clusters)))


def partition_from_clusters(chain: ChainRoadmap, clusters) -> Partition:
    """Build a partition from explicit index clusters (validated)."""
    return Partition(chain, tuple(tuple(c) for c in clusters))
