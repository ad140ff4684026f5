"""Synthesis of synchronized sweep trajectories on a partitioned chain.

Trajectories are piecewise-linear position-vs-time curves held exactly, on
integer grids.  A ``PiecewisePath`` keeps its breakpoint times and
positions, anchor and horizon as ints counting steps of 1 / ``unit``; its
views return them as exact rationals.  That makes the closed form
performance identities downstream checkable with ``==`` instead of
tolerances.  Sampling to a fixed-step float trace is a separate, lossy
operation.

The synthesizers read the chain's grid (``ChainRoadmap.grid``: a unit U,
the least common denominator of the coordinates, and each coordinate
times U as an int) and build every path on D, the least common multiple
of U and the horizon's denominator, in int arithmetic: no ``Fraction``
arithmetic runs between the chain coordinates and the metrics.

The exact evaluators compute on one integer time grid per call too.
``to_grid`` takes the least common multiple D of the paths' units, of the
denominators of the evaluator's own values (window ends) and of the
chain's unit, and puts each path on it once: a path already on D keeps
its ints, any other path multiplies them by D // unit.  On such a path a
unit-speed crossing of a viewpoint lands on the grid without a division;
a crossing on a segment of any other speed (only paths loaded from float
breakpoints have one) stays an exact ``Fraction``, which compares exactly
with the ints, so no result depends on D.  ``from_grid`` turns a result
back into a float once, through ``Fraction``: D can exceed the float range.

Three synthesizers are provided: the per-cluster sweep that minimizes the
refresh time, the staggered sweep that additionally minimizes the one-way
up-latency, and the group-synchronized sweep that minimizes the two-way
latency.  The last one needs the aggregated-cluster structure (maximal runs
of consecutive clusters whose lengths fit within the partition dimension).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .partition import InfeasibleError, Partition
from .roadmap import ChainRoadmap

Interval = tuple[Fraction, Fraction]


def _exact(v):
    """``v`` as an exact rational: ints and ``Fraction``s pass unchanged."""
    return v if type(v) is int or type(v) is Fraction else Fraction(v)


def _merge_intervals(items: list[Interval]) -> list[Interval]:
    if not items:
        return []
    items.sort()
    out = [items[0]]
    for s, e in items[1:]:
        ps, pe = out[-1]
        if s <= pe:
            if e > pe:
                out[-1] = (ps, e)
        else:
            out.append((s, e))
    return out


def _circular_gap(eps: list[Interval], period):
    """Largest gap between the episodes ``eps`` on a circle of length
    ``period``.  Each episode starts in [0, period) and lasts at most a
    period; one that runs past the period also covers the circle's start.
    The episodes are merged once, and the gap across the seam runs from
    the last one's end to the first one's start a period later."""
    eps += [(0, e - period) for s, e in eps if e > period]
    merged = _merge_intervals(eps)
    gaps = [b[0] - a[1] for a, b in zip(merged, merged[1:])]
    gaps.append(merged[0][0] + period - min(merged[-1][1], period))
    return max(gaps)


def _walk(pts, coords) -> dict:
    """Unmerged episodes at each of the sorted ``coords`` along breakpoints
    ``pts``, in time order: one per dwell at a coordinate and one instant
    per crossing of it.  Each segment bisects ``coords`` for the ones in
    its range.  A segment that leaves a coordinate, other than the first,
    reports nothing there: the segment before it ends there and has
    reported it."""
    eps: dict = {}
    for k, ((t0, x0), (t1, x1)) in enumerate(zip(pts, pts[1:])):
        if x0 == x1:
            i = bisect_left(coords, x0)
            if i < len(coords) and coords[i] == x0:
                eps.setdefault(x0, []).append((t0, t1))
            continue
        lo, hi = (x0, x1) if x0 < x1 else (x1, x0)
        unit_speed = hi - lo == t1 - t0  # no division
        for c in coords[bisect_left(coords, lo) : bisect_right(coords, hi)]:
            if c == x0 and k:
                continue
            if unit_speed:
                tc = t0 + abs(c - x0)
            else:
                tc = t0 + Fraction(c - x0) * (t1 - t0) / (x1 - x0)
            eps.setdefault(c, []).append((tc, tc))
    return eps


class PiecewisePath:
    """Exact piecewise-linear path of one robot on a 1-D coordinate.

    The path is an optional explicit prefix over [0, anchor] followed by a
    repeated cycle of ``period`` starting at ``anchor`` (either part may be
    absent).  Speed never exceeds one; continuity is enforced at every
    joint.

    The path is held on an integer grid: every breakpoint time and
    position, the anchor and the horizon are ints counting steps of
    1 / ``unit``.  The constructor takes ints, ``Fraction``s and floats
    (floats are exact rationals) and finds the least unit that holds them
    all; ``on_grid`` takes a unit and the ints as they are.  Either way the
    path is validated once, on the ints.  The views (``horizon``, ``prefix``,
    ``position``, ``occupancy``, ...) return exact rationals: ``Fraction``s,
    or ints on a path of unit 1.
    """

    def __init__(self, horizon, prefix=(), cycle=None, anchor=0):
        horizon, anchor = _exact(horizon), _exact(anchor)
        prefix = [(_exact(t), _exact(x)) for t, x in prefix]
        cycle = None if cycle is None else [(_exact(t), _exact(x)) for t, x in cycle]
        unit = math.lcm(
            horizon.denominator,
            anchor.denominator,
            *(v.denominator for pt in prefix + (cycle or []) for v in pt),
        )

        def up(pts):
            return [(t.numerator * (unit // t.denominator), x.numerator * (unit // x.denominator))
                    for t, x in pts]

        self._build(
            unit,
            horizon.numerator * (unit // horizon.denominator),
            up(prefix),
            None if cycle is None else up(cycle),
            anchor.numerator * (unit // anchor.denominator),
        )

    @classmethod
    def on_grid(cls, unit: int, horizon: int, prefix=(), cycle=None, anchor: int = 0):
        """The path whose breakpoint times and positions, anchor and horizon
        are the given ints, in steps of 1 / ``unit``."""
        path = cls.__new__(cls)
        path._build(unit, horizon, list(prefix), None if cycle is None else list(cycle), anchor)
        return path

    def _build(self, unit, horizon, prefix, cycle, anchor):
        self.unit = unit
        self._horizon, self._prefix, self._anchor = horizon, prefix, anchor
        self._cycle = self._period = None
        if cycle is not None:
            cyc = cycle[:1] + [p for q, p in zip(cycle, cycle[1:]) if p[0] != q[0]]
            if len(cyc) < 2:
                raise ValueError("cycle needs at least two distinct breakpoints")
            if cyc[0][0] != 0:
                raise ValueError("cycle must start at phase 0")
            if cyc[0][1] != cyc[-1][1]:
                raise ValueError("cycle endpoints must match for periodicity")
            self._cycle, self._period = cyc, cyc[-1][0]
        self._validate()

    def _validate(self):
        if self._horizon <= 0:
            raise ValueError("horizon must be positive")
        for pts in (self._prefix, self._cycle or ()):
            for (t0, x0), (t1, x1) in zip(pts, pts[1:]):
                if t1 <= t0:
                    raise ValueError("breakpoint times must be strictly increasing")
                if abs(x1 - x0) > t1 - t0:
                    raise ValueError(
                        f"segment from {t0 / self.unit} to {t1 / self.unit} exceeds unit speed"
                    )
        if self._prefix and self._prefix[0][0] != 0:
            raise ValueError("prefix must start at time 0")
        if self._cycle is not None:
            if self._prefix:
                if self._prefix[-1][0] != self._anchor:
                    raise ValueError("prefix must end exactly at the cycle anchor")
                if self._prefix[-1][1] != self._cycle[0][1]:
                    raise ValueError("prefix and cycle disagree at the anchor")
            elif self._anchor != 0:
                raise ValueError("nonzero anchor requires a prefix")
        else:
            if not self._prefix or self._prefix[-1][0] < self._horizon:
                raise ValueError("acyclic path must cover the whole horizon")

    @classmethod
    def constant(cls, x, horizon) -> "PiecewisePath":
        return cls(horizon, prefix=[(0, x), (horizon, x)])

    @classmethod
    def from_breakpoints(cls, breakpoints, horizon) -> "PiecewisePath":
        pts = [(_exact(t), _exact(x)) for t, x in breakpoints]
        return cls(horizon, prefix=pts, anchor=pts[-1][0])

    def _scaled(self, k: int) -> "PiecewisePath":
        """This path with every int multiplied by ``k``, on unit 1: the same
        path on the grid of denominator ``k * unit``.  Scaling keeps a valid
        path valid, and with k = 1 the ints are shared, not copied."""

        def up(pts):
            return pts if k == 1 else [(t * k, x * k) for t, x in pts]

        path = PiecewisePath.__new__(PiecewisePath)
        path.unit = 1
        path._horizon, path._anchor = self._horizon * k, self._anchor * k
        path._prefix = up(self._prefix)
        path._cycle = None if self._cycle is None else up(self._cycle)
        path._period = None if self._period is None else self._period * k
        return path

    # views: grid values back as exact rationals

    def _value(self, v):
        return v if self.unit == 1 else Fraction(v, self.unit)

    def _points(self, pts) -> list:
        if self.unit == 1:
            return list(pts)
        u = self.unit
        return [(Fraction(t, u), Fraction(x, u)) for t, x in pts]

    @property
    def horizon(self):
        return self._value(self._horizon)

    @property
    def anchor(self):
        return self._value(self._anchor)

    @property
    def period(self):
        return None if self._period is None else self._value(self._period)

    @property
    def prefix(self) -> list:
        return self._points(self._prefix)

    @property
    def cycle(self) -> list | None:
        return None if self._cycle is None else self._points(self._cycle)

    def position(self, t):
        t = Fraction(t)
        if t < 0 or t > self.horizon:
            raise ValueError(f"time {float(t)} outside [0, {float(self.horizon)}]")
        return self._value(self._position(t * self.unit))

    def _position(self, t):
        """Position at grid time t, on the grid (an int, or a ``Fraction``
        between grid points)."""
        if t <= self._anchor and self._prefix:
            pts = self._prefix
        elif self._cycle is not None:
            t = (t - self._anchor) % self._period
            pts = self._cycle
        else:
            pts = self._prefix
        for (t0, x0), (t1, x1) in zip(pts, pts[1:]):
            if t0 <= t <= t1:
                if t == t0:
                    return x0
                return x0 + Fraction((x1 - x0) * (t - t0), t1 - t0)
        return pts[-1][1]

    def value_range(self) -> tuple:
        xs = [x for _, x in self._prefix]
        if self._cycle:
            xs += [x for _, x in self._cycle]
        return self._value(min(xs)), self._value(max(xs))

    def _visits(self, coords) -> tuple[dict, dict]:
        """Unmerged visit episodes at the sorted grid ``coords``: one walk
        over the prefix's breakpoints and one over a single cycle's (phases
        from 0), each a dict from a coordinate the walk reaches to its
        episodes in time order.  An acyclic path's cycle dict is empty."""
        return _walk(self._prefix, coords), _walk(self._cycle or (), coords)

    def _unrolled(self, pre, cyc, t_end) -> list[Interval]:
        """The prefix episodes ``pre`` and the cycle episodes ``cyc`` of one
        coordinate over [0, t_end], clipped to t_end: the prefix's, then
        the cycle's unrolled copy by copy.  Episodes of neighboring copies
        may touch at the seam; the caller's merge joins them."""
        out = [(s, min(e, t_end)) for s, e in pre if s <= t_end]
        if cyc and t_end >= self._anchor:
            anchor, period = self._anchor, self._period
            last = (t_end - anchor) // period  # the copy that t_end cuts
            for k in range(last):
                off = anchor + k * period
                out += [(off + s, off + e) for s, e in cyc]
            off = anchor + last * period
            out += [(off + s, min(off + e, t_end)) for s, e in cyc if off + s <= t_end]
        return out

    def occupancy(self, value, t_end=None) -> list[Interval]:
        """Merged closed time intervals (possibly instants) where the path
        sits exactly at ``value``, over [0, t_end] within the horizon."""
        u = self.unit
        end = self._horizon if t_end is None else _exact(t_end) * u
        if not 0 <= end <= self._horizon:
            raise ValueError(f"t_end {float(t_end)} outside [0, {float(self.horizon)}]")
        v = _exact(value) * u
        pre, cyc = self._visits([v])
        eps = _merge_intervals(self._unrolled(pre.get(v, ()), cyc.get(v, ()), end))
        return eps if u == 1 else [(Fraction(s, u), Fraction(e, u)) for s, e in eps]

    def flatten(self) -> list[tuple[float, float]]:
        """Explicit float breakpoints covering [0, horizon] (for export)."""
        pts = list(self._prefix)
        if self._cycle is not None:
            t = self._anchor
            if not pts:
                pts.append((0, self._cycle[0][1]))
            while t < self._horizon:
                for phi, x in self._cycle[1:]:
                    tt = t + phi
                    if tt >= self._horizon:
                        pts.append((self._horizon, self._position(self._horizon)))
                        break
                    pts.append((tt, x))
                t += self._period
        # int / int and Fraction / int round once, as float(Fraction) does
        u = self.unit
        out = [(t / u, float(x / u)) for t, x in pts]
        dedup = [out[0]]
        for p in out[1:]:
            if p[0] > dedup[-1][0]:
                dedup.append(p)
        return dedup


def to_grid(paths, values, chain: ChainRoadmap | None = None) -> tuple[int, list, list]:
    """The paths, rational ``values`` and chain coordinates on one integer
    grid.

    D is the least common multiple of the paths' units, of the denominators
    of ``values`` (a ``None`` among them passes through) and, with a
    ``chain``, of the unit U of its grid.  Returns D, each path on unit 1
    with its ints times D // unit (a path already on D keeps its ints),
    then each value times D followed by the chain's grid coordinates times
    D // U, all ints.
    """
    values = [None if v is None else _exact(v) for v in values]
    units = [p.unit for p in paths] + [v.denominator for v in values if v is not None]
    if chain is not None:
        unit, xs = chain.grid
        units.append(unit)
    D = math.lcm(*units)
    out = [None if v is None else v.numerator * (D // v.denominator) for v in values]
    if chain is not None:
        k = D // unit
        out += xs if k == 1 else [x * k for x in xs]
    return D, [p._scaled(D // p.unit) for p in paths], out


def from_grid(x, D: int) -> float:
    """A time or length x on the grid of denominator D as a float, rounded
    once; through ``Fraction`` so that neither x nor D, which can exceed the
    float range, is ever converted on its own."""
    return math.inf if x == math.inf else float(Fraction(x, D))


def sample_times(horizon, dt: float) -> np.ndarray:
    """The sampling instants k * dt for k = 0..K, K = floor(horizon / dt +
    1e-9): a horizon a rounding error short of a whole step keeps it."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"sample step must be positive and finite, got {dt!r}")
    k = int(np.floor(float(horizon) / dt + 1e-9))
    return np.arange(k + 1) * dt


_BLOCK_ROWS = 1 << 15  # CSV rows formatted and written per block


def _format_each(values: np.ndarray, template: str = "{!r}") -> np.ndarray:
    """``template.format(v)`` of every element, as an object array of the
    same shape, formatting each distinct value once.  Floats are keyed on
    their bit patterns, so -0.0 and NaN never borrow the text of 0.0."""
    flat = np.ascontiguousarray(values).reshape(-1)
    keys = flat.view(np.uint64) if flat.dtype == np.float64 else flat
    distinct, inverse = np.unique(keys, return_inverse=True)
    text = np.array(
        [template.format(v) for v in distinct.view(flat.dtype).tolist()], dtype=object
    )
    return text[inverse].reshape(values.shape)


def write_trace_rows(path, times, positions, dirs=None, tags=None) -> None:
    """Write a step-major trace CSV: per step, one row per robot ``0..m-1``.

    Rows are ``time,robot,position`` or, when ``dirs`` (K, m) is given,
    ``time,robot,position,dir,event`` with the event column taken from
    ``tags`` ((step, robot) -> text; rows without one leave it empty).  The bytes are those of
    ``csv.writer``: ``\\r\\n`` line ends and floats printed with ``repr``.
    Steps are formatted in blocks of about ``_BLOCK_ROWS`` rows, so memory
    stays bounded however long the trace.
    """
    k_all, m = positions.shape
    tags = tags or {}
    header = "time,robot,position" + (",dir,event" if dirs is not None else "")
    robot = np.array([f",{i}," for i in range(m)], dtype=object)
    block = max(1, _BLOCK_ROWS // m)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\r\n")
        for k0 in range(0, k_all, block):
            k1 = min(k0 + block, k_all)
            cells = np.empty((k1 - k0, m, 4), dtype=object)
            cells[:, :, 0] = _format_each(times[k0:k1])[:, None]
            cells[:, :, 1] = robot
            cells[:, :, 2] = _format_each(positions[k0:k1])
            if dirs is None:
                cells[:, :, 3] = "\r\n"
            else:
                cells[:, :, 3] = _format_each(dirs[k0:k1], ",{!r},\r\n")
                for (k, i), tag in tags.items():
                    if k0 <= k < k1:
                        cells[k - k0, i, 3] = f",{int(dirs[k, i])},{tag}\r\n"
            fh.write("".join(cells.reshape(-1).tolist()))


@dataclass(frozen=True)
class TeamTrajectory:
    """Per-robot paths over a common horizon plus relay metadata.

    ``relay`` lists the robots that form the message relay chain in chain
    order (robots parked on empty clusters are excluded: they never occupy
    a viewpoint adjacent to a neighbor's boundary).  ``period`` is the
    declared team period when one exists.
    """

    robots: tuple[PiecewisePath, ...]
    horizon: Fraction
    period: Fraction | None = None
    relay: tuple[int, ...] = ()
    chain: ChainRoadmap | None = None
    partition: Partition | None = field(default=None, repr=False)

    def __post_init__(self):
        if not self.robots:
            raise ValueError("empty team trajectory")
        if not self.relay:
            object.__setattr__(self, "relay", tuple(range(len(self.robots))))

    @property
    def m(self) -> int:
        return len(self.robots)

    def max_robot_period(self) -> Fraction | None:
        periods = [p.period for p in self.robots if p.period is not None]
        if self.period is not None:
            periods.append(self.period)
        return max(periods) if periods else None

    def sample(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """Fixed-step float samples: times (K,), positions (K, m)."""
        times = sample_times(self.horizon, dt)
        pos = np.empty((len(times), self.m))
        for i, path in enumerate(self.robots):
            pts = path.flatten()
            ts = np.array([t for t, _ in pts])
            xs = np.array([x for _, x in pts])
            pos[:, i] = np.interp(times, ts, xs)
        return times, pos

    def to_document(self) -> dict:
        return {
            "period": float(self.period) if self.period is not None else None,
            "robots": [
                {"id": i, "breakpoints": [[t, x] for t, x in path.flatten()]}
                for i, path in enumerate(self.robots)
            ],
        }

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_document(), indent=2) + "\n", "utf-8")

    def write_trace_csv(self, path, dt: float) -> None:
        write_trace_rows(path, *self.sample(dt))

    @classmethod
    def from_document(cls, doc, horizon=None, chain=None) -> "TeamTrajectory":
        robots = []
        hmax = 0.0
        for r in sorted(doc["robots"], key=lambda r: r["id"]):
            hmax = max(hmax, r["breakpoints"][-1][0])
        horizon = Fraction(hmax if horizon is None else horizon)
        for r in sorted(doc["robots"], key=lambda r: r["id"]):
            robots.append(PiecewisePath.from_breakpoints(r["breakpoints"], horizon))
        period = doc.get("period")
        return cls(
            robots=tuple(robots),
            horizon=horizon,
            period=Fraction(period) if period else None,
            chain=chain,
        )


@dataclass(frozen=True)
class AggregatedClusters:
    """Maximal runs of consecutive clusters whose lengths sum within d_max.

    ``groups`` holds runs of *active robot* indices; the extreme viewpoint
    of each run (its outermost left/right coordinates) governs how often a
    message can hop between neighboring runs in a d_max-periodic sweep.
    """

    groups: tuple[tuple[int, ...], ...]
    lengths: tuple[Fraction, ...]
    d_max: Fraction

    @property
    def count(self) -> int:
        return len(self.groups)


def aggregate_clusters(partition: Partition) -> AggregatedClusters:
    """Group consecutive clusters greedily while their lengths fit in d_max,
    the largest cluster length.

    Follows the recursion on right-extreme viewpoints: each group extends as
    far right as the running length sum allows, and the next group starts at
    the following cluster.  By maximality the summed lengths of any two
    consecutive groups exceed d_max.  The sums run on the chain's grid.
    """
    active = partition.active
    if not active:
        raise ValueError("cannot aggregate an all-empty partition")
    unit = partition.chain.grid[0]
    d = [partition.grid_length(i) for i in active]
    limit = max(d)  # empty clusters have length 0
    if limit <= 0:
        raise ValueError("aggregation needs a positive dimension")

    groups, sums = _groups(d, limit)
    return AggregatedClusters(
        groups=groups, lengths=tuple(Fraction(x, unit) for x in sums), d_max=Fraction(limit, unit)
    )


def _groups(d: list[int], limit) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """Maximal runs of consecutive indices of ``d`` whose lengths sum within
    ``limit``, grown greedily from the left, and their sums."""
    groups: list[tuple[int, ...]] = []
    sums: list[int] = []
    start = 0
    while start < len(d):
        total = d[start]
        end = start
        while end + 1 < len(d) and total + d[end + 1] <= limit:
            end += 1
            total += d[end]
        groups.append(tuple(range(start, end + 1)))
        sums.append(total)
        start = end + 1
    for a, b in zip(sums, sums[1:]):
        assert a + b > limit, "maximality guarantees consecutive sums exceed d_max"
    return tuple(groups), sums


def _team_grid(partition: Partition, horizon: Fraction):
    """The grid a team is synthesized on: D, the least common multiple of
    the chain's unit U and the horizon's denominator, then the horizon,
    the active clusters' (left, right) extremes and the dimension, as ints
    on D."""
    unit, xs = partition.chain.grid
    D = math.lcm(unit, horizon.denominator)
    k = D // unit
    bounds = [(xs[c[0]] * k, xs[c[-1]] * k) for c in partition.clusters if c]
    return D, horizon.numerator * (D // horizon.denominator), bounds, max(r - l for l, r in bounds)


def _constant(D: int, H: int, x: int) -> PiecewisePath:
    return PiecewisePath.on_grid(D, H, prefix=[(0, x), (H, x)])


def _team(partition, horizon, D, H, paths, bounds, period) -> TeamTrajectory:
    """The active clusters' ``paths``, then one robot per empty cluster
    parked at the last active cluster's right extreme, relaying in chain
    order; ``period`` is on the grid of D, or None."""
    park = bounds[-1][1]
    paths += [_constant(D, H, park) for _ in range(partition.m - len(bounds))]
    return TeamTrajectory(
        robots=tuple(paths),
        horizon=horizon,
        period=None if period is None else Fraction(period, D),
        relay=tuple(range(len(bounds))),
        chain=partition.chain,
        partition=partition,
    )


def min_refresh_trajectory(partition: Partition, horizon) -> TeamTrajectory:
    """Each robot sweeps its own cluster end to end at full speed.

    Robot i touches its left extreme at even multiples of its cluster
    length and the right extreme at odd multiples, so every viewpoint is
    revisited within twice the partition dimension.
    """
    horizon = Fraction(horizon)
    D, H, bounds, dmax = _team_grid(partition, horizon)
    if H < 2 * dmax:
        raise ValueError("horizon shorter than one sweep period")
    paths: list[PiecewisePath] = []
    for l, r in bounds:
        d = r - l
        if d == 0:
            paths.append(_constant(D, H, l))
        else:
            paths.append(PiecewisePath.on_grid(D, H, cycle=[(0, l), (d, r), (2 * d, l)]))
    return _team(partition, horizon, D, H, paths, bounds, None)


def min_up_latency_trajectory(partition: Partition, horizon) -> TeamTrajectory:
    """Staggered sweeps: robot i+1 leaves its left end the instant robot i
    arrives next door, so an upstream message rides the wave without waiting.

    The start of robot i's first sweep is delayed by the summed lengths of
    the clusters before it; all robots share the 2*d_max period.
    """
    horizon = Fraction(horizon)
    D, H, bounds, dmax = _team_grid(partition, horizon)
    if len(bounds) < 2:
        raise InfeasibleError("latency needs at least two active clusters")
    if H < 2 * dmax:
        raise ValueError("horizon shorter than one team period")
    paths: list[PiecewisePath] = []
    anchor = 0
    for l, r in bounds:
        d = r - l
        if d == 0:
            paths.append(_constant(D, H, l))
        else:
            cycle = [(0, l), (d, r), (2 * d, l), (2 * dmax, l)]
            prefix = [(0, l), (anchor, l)] if anchor > 0 else []
            paths.append(PiecewisePath.on_grid(D, H, prefix, cycle, anchor))
        anchor += d
    return _team(partition, horizon, D, H, paths, bounds, 2 * dmax)


def min_latency_trajectory(partition: Partition, horizon) -> TeamTrajectory:
    """Group-synchronized sweeps minimizing the two-way latency.

    Robots inside one aggregated group hand motion off like a token (the
    next robot leaves its left end exactly when its lower neighbor arrives
    at the shared boundary), so the group behaves as one virtual sweeper.
    Groups alternate phase by parity so neighboring groups exchange at
    every odd/even multiple of d_max; slack is spent waiting at the group's
    right extreme.
    """
    horizon = Fraction(horizon)
    D, H, bounds, dmax = _team_grid(partition, horizon)
    if len(bounds) < 2:
        raise InfeasibleError("latency needs at least two active clusters")
    if H < 2 * dmax:
        raise ValueError("horizon shorter than one team period")
    if dmax == 0:
        raise ValueError("aggregation needs a positive dimension")
    groups, _ = _groups([r - l for l, r in bounds], dmax)
    paths: list[PiecewisePath] = [None] * len(bounds)  # type: ignore[list-item]
    for gi, group in enumerate(groups):
        odd = gi % 2 == 0  # group numbering starts at 1 in chain order
        prefix = 0
        for i in group:
            l, r = bounds[i]
            d = r - l
            delta_l = prefix  # wait half-window at the left end
            delta_r = dmax - (prefix + d)  # and the remainder at the right end
            if d == 0:
                paths[i] = _constant(D, H, l)
            elif odd:
                cycle = [
                    (0, l),
                    (delta_l, l),
                    (delta_l + d, r),
                    (dmax + delta_r, r),
                    (2 * dmax - delta_l, l),
                    (2 * dmax, l),
                ]
                paths[i] = PiecewisePath.on_grid(D, H, cycle=cycle)
            else:
                cycle = [
                    (0, r),
                    (delta_r, r),
                    (dmax - delta_l, l),
                    (dmax + delta_l, l),
                    (2 * dmax - delta_r, r),
                    (2 * dmax, r),
                ]
                paths[i] = PiecewisePath.on_grid(D, H, cycle=cycle)
            prefix += d
    return _team(partition, horizon, D, H, paths, bounds, 2 * dmax)


def opposite_phase_trajectory(partition: Partition, horizon) -> TeamTrajectory:
    """Equal-length clusters swept in alternating phase.

    Odd robots start at their left end, even robots at their right end, so
    every adjacent pair meets once per half period.  Only valid when all
    active cluster lengths are equal.
    """
    horizon = Fraction(horizon)
    D, H, bounds, _ = _team_grid(partition, horizon)
    if len(bounds) < 2:
        raise InfeasibleError("opposite-phase schedule needs at least two clusters")
    lengths = {r - l for l, r in bounds}
    if len(lengths) != 1:
        raise ValueError("opposite-phase schedule requires equal cluster lengths")
    d = lengths.pop()
    if d == 0:
        raise ValueError("cluster lengths must be positive")
    if H < 2 * d:
        raise ValueError("horizon shorter than one sweep period")
    paths = []
    for i, (l, r) in enumerate(bounds):
        if i % 2 == 0:
            cycle = [(0, l), (d, r), (2 * d, l)]
        else:
            cycle = [(0, r), (d, l), (2 * d, r)]
        paths.append(PiecewisePath.on_grid(D, H, cycle=cycle))
    return _team(partition, horizon, D, H, paths, bounds, 2 * d)
