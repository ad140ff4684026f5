"""Synthesis of synchronized sweep trajectories on a partitioned chain.

Trajectories are piecewise-linear position-vs-time curves held in exact
rational arithmetic: breakpoint times and positions are ``Fraction``s built
from the (float, hence rational) chain coordinates, or ints.  That makes
the closed form performance identities downstream checkable with ``==``
instead of tolerances.  Sampling to a fixed-step float trace is a separate,
lossy operation.

The exact evaluators compute on one integer time grid per call rather than
on ``Fraction``s.  ``to_grid`` takes the least common denominator D of every
breakpoint time and position, anchor and horizon of the paths and of the
evaluator's own values (viewpoints, window ends), and rescales each path
once to integer numerators (``PiecewisePath.scaled``).  On such a path a
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
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

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


class PiecewisePath:
    """Exact piecewise-linear path of one robot on a 1-D coordinate.

    The path is an optional explicit prefix over [0, anchor] followed by a
    repeated cycle of ``period`` starting at ``anchor`` (either part may be
    absent).  Speed never exceeds one; continuity is enforced at every
    joint.  Times and positions are kept as given when they are ints or
    ``Fraction``s and converted to ``Fraction`` otherwise.
    """

    def __init__(
        self,
        horizon: Fraction,
        prefix: Sequence[tuple[Fraction, Fraction]] = (),
        cycle: Sequence[tuple[Fraction, Fraction]] | None = None,
        anchor: Fraction = Fraction(0),
    ):
        self.horizon = _exact(horizon)
        self.prefix = [(_exact(t), _exact(x)) for t, x in prefix]
        self.anchor = _exact(anchor)
        if cycle is not None:
            cyc = [(_exact(t), _exact(x)) for t, x in cycle]
            cyc = [p for i, p in enumerate(cyc) if i == 0 or p[0] != cyc[i - 1][0]]
            if len(cyc) < 2:
                raise ValueError("cycle needs at least two distinct breakpoints")
            if cyc[0][0] != 0:
                raise ValueError("cycle must start at phase 0")
            if cyc[0][1] != cyc[-1][1]:
                raise ValueError("cycle endpoints must match for periodicity")
            self.cycle = cyc
            self.period: Fraction | None = cyc[-1][0]
        else:
            self.cycle = None
            self.period = None
        self._validate()

    def _validate(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        segs = list(zip(self.prefix, self.prefix[1:]))
        if self.cycle:
            segs += list(zip(self.cycle, self.cycle[1:]))
        for (t0, x0), (t1, x1) in segs:
            if t1 <= t0:
                raise ValueError("breakpoint times must be strictly increasing")
            if abs(x1 - x0) > (t1 - t0):
                raise ValueError(
                    f"segment from {float(t0)} to {float(t1)} exceeds unit speed"
                )
        if self.prefix and self.prefix[0][0] != 0:
            raise ValueError("prefix must start at time 0")
        if self.cycle is not None:
            if self.prefix:
                if self.prefix[-1][0] != self.anchor:
                    raise ValueError("prefix must end exactly at the cycle anchor")
                if self.prefix[-1][1] != self.cycle[0][1]:
                    raise ValueError("prefix and cycle disagree at the anchor")
            elif self.anchor != 0:
                raise ValueError("nonzero anchor requires a prefix")
        else:
            if not self.prefix or self.prefix[-1][0] < self.horizon:
                raise ValueError("acyclic path must cover the whole horizon")

    @classmethod
    def constant(cls, x, horizon) -> "PiecewisePath":
        return cls(horizon, prefix=[(0, x), (horizon, x)])

    @classmethod
    def from_breakpoints(cls, breakpoints, horizon) -> "PiecewisePath":
        pts = [(_exact(t), _exact(x)) for t, x in breakpoints]
        return cls(horizon, prefix=pts, anchor=pts[-1][0])

    def scaled(self, D: int) -> "PiecewisePath":
        """This path with every time and position multiplied by ``D``, a
        multiple of all their denominators: the same path in integers."""

        def up(pts):
            return [(t.numerator * (D // t.denominator), x.numerator * (D // x.denominator))
                    for t, x in pts]

        return PiecewisePath(
            self.horizon.numerator * (D // self.horizon.denominator),
            prefix=up(self.prefix),
            cycle=None if self.cycle is None else up(self.cycle),
            anchor=self.anchor.numerator * (D // self.anchor.denominator),
        )

    def position(self, t) -> Fraction:
        t = Fraction(t)
        if t < 0 or t > self.horizon:
            raise ValueError(f"time {float(t)} outside [0, {float(self.horizon)}]")
        pts = None
        if t <= self.anchor and self.prefix:
            pts = self.prefix
        elif self.cycle is not None:
            k = (t - self.anchor) // self.period
            t = t - self.anchor - k * self.period
            pts = self.cycle
        else:
            pts = self.prefix
        for (t0, x0), (t1, x1) in zip(pts, pts[1:]):
            if t0 <= t <= t1:
                if t == t0:
                    return x0
                return x0 + (x1 - x0) * (t - t0) / (t1 - t0)
        return pts[-1][1]

    def value_range(self) -> tuple[Fraction, Fraction]:
        xs = [x for _, x in self.prefix]
        if self.cycle:
            xs += [x for _, x in self.cycle]
        return min(xs), max(xs)

    @staticmethod
    def _episodes_in(pts, value) -> list[Interval]:
        eps: list[Interval] = []
        for (t0, x0), (t1, x1) in zip(pts, pts[1:]):
            if x0 == x1:
                if x0 == value:
                    eps.append((t0, t1))
            else:
                lo, hi = (x0, x1) if x0 < x1 else (x1, x0)
                if lo <= value <= hi:
                    if hi - lo == t1 - t0:  # unit speed: no division
                        tc = t0 + abs(value - x0)
                    else:
                        tc = t0 + Fraction(value - x0) * (t1 - t0) / (x1 - x0)
                    eps.append((tc, tc))
        return _merge_intervals(eps)

    def occupancy(self, value, t_end: Fraction | None = None) -> list[Interval]:
        """Merged closed time intervals (possibly instants) where the path
        sits exactly at ``value``, over [0, t_end] within the horizon."""
        value = _exact(value)
        t_end = self.horizon if t_end is None else _exact(t_end)
        if not 0 <= t_end <= self.horizon:
            raise ValueError(f"t_end {float(t_end)} outside [0, {float(self.horizon)}]")
        out: list[Interval] = []
        if self.prefix:
            out += [
                (s, min(e, t_end))
                for s, e in self._episodes_in(self.prefix, value)
                if s <= t_end
            ]
        if self.cycle is not None and t_end >= self.anchor:
            base = self._episodes_in(self.cycle, value)
            # an episode touching both ends of the cycle wraps around into
            # the next copy; the first copy's head has no copy before it
            if len(base) >= 2 and base[0][0] == 0 and base[-1][1] == self.period:
                head = base.pop(0)
                base[-1] = (base[-1][0], self.period + head[1])
                out.append((self.anchor, min(self.anchor + head[1], t_end)))
            kmax = (t_end - self.anchor) // self.period
            for k in range(int(kmax) + 1):
                off = self.anchor + k * self.period
                for s, e in base:
                    if off + s <= t_end:
                        out.append((off + s, min(off + e, t_end)))
        return _merge_intervals(out)

    def flatten(self) -> list[tuple[float, float]]:
        """Explicit float breakpoints covering [0, horizon] (for export)."""
        pts: list[tuple[Fraction, Fraction]] = list(self.prefix)
        if self.cycle is not None:
            t = self.anchor
            if not pts:
                pts.append((Fraction(0), self.cycle[0][1]))
            while t < self.horizon:
                for phi, x in self.cycle[1:]:
                    tt = t + phi
                    if tt >= self.horizon:
                        pts.append((self.horizon, self.position(self.horizon)))
                        break
                    pts.append((tt, x))
                t = t + self.period
        out = [(float(t), float(x)) for t, x in pts]
        dedup = [out[0]]
        for p in out[1:]:
            if p[0] > dedup[-1][0]:
                dedup.append(p)
        return dedup


def to_grid(paths, values) -> tuple[int, list[PiecewisePath], list]:
    """The paths and rational ``values`` on one integer time grid.

    Returns D, the least common denominator of every breakpoint time and
    position, anchor and horizon of ``paths`` and of ``values`` (a ``None``
    among them passes through), then each path scaled by D and each value
    times D, all ints.
    """
    values = [None if v is None else _exact(v) for v in values]
    dens = {v.denominator for v in values if v is not None}
    for p in paths:
        dens.add(p.horizon.denominator)
        dens.add(p.anchor.denominator)
        for t, x in p.prefix + (p.cycle or []):
            dens.add(t.denominator)
            dens.add(x.denominator)
    D = math.lcm(*dens)
    return (
        D,
        [p.scaled(D) for p in paths],
        [None if v is None else v.numerator * (D // v.denominator) for v in values],
    )


def from_grid(x, D: int) -> float:
    """A time or length x on the grid of denominator D as a float, rounded
    once; through ``Fraction`` so that neither x nor D, which can exceed the
    float range, is ever converted on its own."""
    return math.inf if x == math.inf else float(Fraction(x, D))


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
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"sample step must be positive and finite, got {dt!r}")
        h = float(self.horizon)
        k = int(np.floor(h / dt + 1e-9))
        times = np.arange(k + 1) * dt
        pos = np.empty((k + 1, self.m))
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


def aggregate_clusters(partition: Partition, d_max=None) -> AggregatedClusters:
    """Group consecutive clusters greedily while their lengths fit in d_max.

    Follows the recursion on right-extreme viewpoints: each group extends as
    far right as the running length sum allows, and the next group starts at
    the following cluster.  By maximality the summed lengths of any two
    consecutive groups exceed d_max.
    """
    active = partition.active
    if not active:
        raise ValueError("cannot aggregate an all-empty partition")
    d = [partition.length_exact(i) for i in active]
    dmax = partition.dimension_exact if d_max is None else Fraction(d_max)
    if dmax <= 0:
        raise ValueError("aggregation needs a positive dimension")
    if max(d) > dmax:
        raise ValueError("d_max override below the largest cluster length")

    groups: list[tuple[int, ...]] = []
    start = 0
    while start < len(active):
        total = d[start]
        end = start
        while end + 1 < len(active) and total + d[end + 1] <= dmax:
            end += 1
            total += d[end]
        groups.append(tuple(range(start, end + 1)))
        start = end + 1

    lengths = tuple(sum(d[i] for i in g) for g in groups)
    for a, b in zip(lengths, lengths[1:]):
        assert a + b > dmax, "maximality guarantees consecutive sums exceed d_max"
    return AggregatedClusters(groups=tuple(groups), lengths=lengths, d_max=dmax)


def _cluster_bounds(partition: Partition) -> list[tuple[Fraction, Fraction]]:
    coords = partition.chain.coords_exact
    out = []
    for i in partition.active:
        cl = partition.clusters[i]
        out.append((coords[cl[0]], coords[cl[-1]]))
    return out


def _parked_paths(partition: Partition, horizon: Fraction) -> list[PiecewisePath]:
    park = Fraction(partition.parking_coordinate())
    return [
        PiecewisePath.constant(park, horizon)
        for _ in range(partition.m - partition.cardinality)
    ]


def min_refresh_trajectory(partition: Partition, horizon) -> TeamTrajectory:
    """Each robot sweeps its own cluster end to end at full speed.

    Robot i touches its left extreme at even multiples of its cluster
    length and the right extreme at odd multiples, so every viewpoint is
    revisited within twice the partition dimension.
    """
    horizon = Fraction(horizon)
    dim = partition.dimension_exact
    if horizon < 2 * dim:
        raise ValueError("horizon shorter than one sweep period")
    paths: list[PiecewisePath] = []
    for l, r in _cluster_bounds(partition):
        d = r - l
        if d == 0:
            paths.append(PiecewisePath.constant(l, horizon))
        else:
            paths.append(
                PiecewisePath(horizon, cycle=[(Fraction(0), l), (d, r), (2 * d, l)])
            )
    relay = tuple(range(partition.cardinality))
    paths += _parked_paths(partition, horizon)
    return TeamTrajectory(
        robots=tuple(paths),
        horizon=horizon,
        period=None,
        relay=relay,
        chain=partition.chain,
        partition=partition,
    )


def min_up_latency_trajectory(partition: Partition, horizon) -> TeamTrajectory:
    """Staggered sweeps: robot i+1 leaves its left end the instant robot i
    arrives next door, so an upstream message rides the wave without waiting.

    The start of robot i's first sweep is delayed by the summed lengths of
    the clusters before it; all robots share the 2*d_max period.
    """
    horizon = Fraction(horizon)
    bounds = _cluster_bounds(partition)
    if len(bounds) < 2:
        raise InfeasibleError("latency needs at least two active clusters")
    dmax = partition.dimension_exact
    if horizon < 2 * dmax:
        raise ValueError("horizon shorter than one team period")
    paths: list[PiecewisePath] = []
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
    relay = tuple(range(partition.cardinality))
    paths += _parked_paths(partition, horizon)
    return TeamTrajectory(
        robots=tuple(paths),
        horizon=horizon,
        period=2 * dmax,
        relay=relay,
        chain=partition.chain,
        partition=partition,
    )


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
    bounds = _cluster_bounds(partition)
    if len(bounds) < 2:
        raise InfeasibleError("latency needs at least two active clusters")
    dmax = partition.dimension_exact
    if horizon < 2 * dmax:
        raise ValueError("horizon shorter than one team period")
    agg = aggregate_clusters(partition)
    paths: list[PiecewisePath] = [None] * len(bounds)  # type: ignore[list-item]
    for gi, group in enumerate(agg.groups):
        odd = gi % 2 == 0  # group numbering starts at 1 in chain order
        prefix = Fraction(0)
        for i in group:
            l, r = bounds[i]
            d = r - l
            delta_l = prefix  # wait half-window at the left end
            delta_r = dmax - (prefix + d)  # and the remainder at the right end
            if d == 0:
                paths[i] = PiecewisePath.constant(l, horizon)
            elif odd:
                cycle = [
                    (Fraction(0), l),
                    (delta_l, l),
                    (delta_l + d, r),
                    (dmax + delta_r, r),
                    (2 * dmax - delta_l, l),
                    (2 * dmax, l),
                ]
                paths[i] = PiecewisePath(horizon, cycle=cycle)
            else:
                cycle = [
                    (Fraction(0), r),
                    (delta_r, r),
                    (dmax - delta_l, l),
                    (dmax + delta_l, l),
                    (2 * dmax - delta_r, r),
                    (2 * dmax, r),
                ]
                paths[i] = PiecewisePath(horizon, cycle=cycle)
            prefix += d
    relay = tuple(range(partition.cardinality))
    all_paths = list(paths) + _parked_paths(partition, horizon)
    return TeamTrajectory(
        robots=tuple(all_paths),
        horizon=horizon,
        period=2 * dmax,
        relay=relay,
        chain=partition.chain,
        partition=partition,
    )


def opposite_phase_trajectory(partition: Partition, horizon) -> TeamTrajectory:
    """Equal-length clusters swept in alternating phase.

    Odd robots start at their left end, even robots at their right end, so
    every adjacent pair meets once per half period.  Only valid when all
    active cluster lengths are equal.
    """
    horizon = Fraction(horizon)
    bounds = _cluster_bounds(partition)
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
    relay = tuple(range(partition.cardinality))
    paths += _parked_paths(partition, horizon)
    return TeamTrajectory(
        robots=tuple(paths),
        horizon=horizon,
        period=2 * d,
        relay=relay,
        chain=partition.chain,
        partition=partition,
    )
