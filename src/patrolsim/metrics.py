"""Refresh time and latency evaluation for team trajectories.

Two evaluation paths exist side by side.  The analytic path works on the
exact piecewise-linear trajectories and produces rationally exact results,
which the closed-form identities are asserted against with equality.  The
sampled path works on fixed-step traces (synthesized or simulated), detects
viewpoint visits by interpolation between samples, and is accurate to one
or two steps.

Refresh time is the longest interval during which some viewpoint goes
unvisited.  Every refresh-time evaluator of chain trajectories, exact or
sampled, gathers one viewpoint's unmerged visit episodes (exact: each
holder's ``PiecewisePath._occupancy``) and hands them to
``max_revisit_gap``: the one interval merge (``_merge_intervals``) of that
viewpoint's visits and one rule for the gaps at the window's ends, in
whichever arithmetic the episodes use.  Latency merges each robot's
episodes at a viewpoint once (``PiecewisePath.occupancy``), because the
pairwise intersections need sorted, disjoint lists, and merges a pair's
joint dwells once more.  Tree tours and path-cover sweeps are rides on
closed walks; their steady refresh time is the largest circular gap
between a vertex's positions on the walk
(``tree.TourTeamTrajectory.refresh_time``).
Latency is evaluated by message propagation over the per-pair
communication instants: a message injected at a meeting of the first robot
pair must relay through meetings of every subsequent pair in time order,
and the horizon end substitutes when no chain completes.

Exact evaluation runs on one integer time grid per call: ``to_grid``
takes D, the least common multiple of the paths' units, the window ends'
denominators and the unit of the chain's grid (``ChainRoadmap.grid``), and
puts the paths, window ends and the chain's grid coordinates on it as
ints, without rescaling the rational coordinates on every call.  The
evaluation below computes on ints, and each result is turned back into a
float (or, for meeting instants, a ``Fraction``) once.  A crossing on a segment that is not unit speed, which
only paths loaded from float breakpoints have, stays an exact ``Fraction``
between the ints.

Exact evaluation also folds periods, so its cost does not grow with the
horizon.  Cyclic paths repeat together after their latest anchor A with
the least common period P (``_common_cycle``).  Refresh time: when every
path ranging over a viewpoint is cyclic and one cycle reaches it, the
viewpoint is visited in every period after S = max(warmup, A), so every
gap after S has a copy in [S, S + 2P] and the tail gap moves by whole
periods; the window end moves back by whole periods into [S + 2P,
S + 3P).  Latency: when every relay pair meets in (A, A + P], each hop
waits less than P, so every relay from a source up to A + P completes
before A + (m - 1) P; later sources repeat one of them or are cut short
by the horizon, and the instants are only gathered up to that time.
Viewpoints and relays that fail a condition use the whole horizon.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .partition import Partition
from .roadmap import ChainRoadmap
from .trajectories import (
    TeamTrajectory,
    _merge_intervals,
    aggregate_clusters,
    from_grid,
    to_grid,
)

Interval = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class LatencyResult:
    up: float
    down: float
    overall: float


def max_revisit_gap(eps: list, t0, t1, cap=None, strict: bool = False):
    """Longest gap between the visit episodes ``eps`` of one viewpoint
    within [t0, t1], in the arithmetic of its inputs (``Fraction`` or float).

    The episodes need not be sorted or disjoint: this is where they are
    merged, once, and then clipped to the window.  The gaps before the
    first visit and after the last one count in full when ``strict``, up to
    ``cap`` when one is given, and not at all otherwise (steady evaluation
    of an aperiodic path).  Returns ``inf`` when no visit lies in the window.
    """
    inside = [(max(s, t0), min(e, t1)) for s, e in _merge_intervals(eps) if e >= t0 and s <= t1]
    if not inside:
        return math.inf
    gaps = [b[0] - a[1] for a, b in zip(inside, inside[1:])]
    head = inside[0][0] - t0
    tail = t1 - inside[-1][1]
    if strict:
        gaps += [head, tail]
    elif cap is not None:
        gaps += [min(head, cap), min(tail, cap)]
    return max(gaps, default=t0 - t0)


def _common_cycle(paths) -> tuple[int, int] | None:
    """Latest anchor and least common period of cyclic paths on an integer
    grid, after which all of them repeat together; ``None`` when any path
    is acyclic."""
    periods = [p.period for p in paths]
    if not periods or any(q is None for q in periods):
        return None
    return max(p.anchor for p in paths), math.lcm(*periods)


def refresh_time(
    traj: TeamTrajectory,
    chain: ChainRoadmap | None = None,
    warmup=0,
    strict: bool = False,
) -> float:
    """Longest unvisited interval over any viewpoint within [warmup, T_f].

    By default boundary gaps (warmup to first visit, last visit to horizon)
    are capped at the declared team period, which evaluates a periodic
    trajectory by its steady state; ``strict=True`` reproduces the raw
    definition including uncapped boundary gaps.  Returns ``inf`` when some
    viewpoint is never visited.  Raises ``ValueError`` unless
    ``0 <= warmup < T_f``.
    """
    chain = chain or traj.chain
    if chain is None:
        raise ValueError("a chain roadmap is required to locate viewpoints")
    t0, t1 = Fraction(warmup), traj.horizon
    if not 0 <= t0 < t1:
        raise ValueError(f"warmup {float(t0)} outside [0, horizon {float(t1)})")
    cap = traj.max_robot_period()
    if cap is not None and not strict:
        if t1 - t0 < 2 * cap:
            raise ValueError("evaluation window shorter than two team periods")
    D, robots, (t0, t1, cap, *coords) = to_grid(traj.robots, (t0, t1, cap), chain)
    ranges = [p.value_range() for p in robots]
    swept = [
        (min(x for _, x in p.cycle), max(x for _, x in p.cycle)) if p.cycle else None
        for p in robots
    ]
    worst = 0
    for c in coords:
        holders = [i for i, (lo, hi) in enumerate(ranges) if lo <= c <= hi]
        end = t1
        common = _common_cycle([robots[i] for i in holders])
        if common is not None and any(
            swept[i][0] <= c <= swept[i][1] for i in holders
        ):
            # a cycle visits c every period, so every later gap has a copy
            # in [start, start + 2P] and the tail moves by whole periods
            anchor, period = common
            start = max(t0, anchor)
            end = t1 - max(0, (t1 - start - 2 * period) // period) * period
        eps: list[Interval] = []
        for i in holders:
            eps.extend(robots[i]._occupancy(c, end))
        worst = max(worst, max_revisit_gap(eps, t0, end, cap, strict))
        if worst == math.inf:
            break
    return from_grid(worst, D)


def _intersections(ea: list[Interval], eb: list[Interval]) -> list[Interval]:
    """Nonempty intersections of two sorted lists of disjoint intervals."""
    out: list[Interval] = []
    i = j = 0
    while i < len(ea) and j < len(eb):
        (s1, e1), (s2, e2) = ea[i], eb[j]
        s, e = max(s1, s2), min(e1, e2)
        if s <= e:
            out.append((s, e))
        if e1 < e2:
            i += 1
        else:
            j += 1
    return out


def _meeting_instants(robots, relay, coords, t_end) -> list[list]:
    """Sorted meeting instants in [0, t_end] of each adjacent relay pair,
    for paths and viewpoints on one integer grid."""
    ranges = [robots[i].value_range() for i in relay]
    phis = []
    for q in range(len(relay) - 1):
        a, b = robots[relay[q]], robots[relay[q + 1]]
        (alo, ahi), (blo, bhi) = ranges[q], ranges[q + 1]
        joint: list[Interval] = []
        for k in range(len(coords) - 1):
            u, v = coords[k], coords[k + 1]
            for pa, pb in ((u, v), (v, u)):
                if not (alo <= pa <= ahi and blo <= pb <= bhi):
                    continue
                ea = a.occupancy(pa, t_end)
                if ea:
                    joint += _intersections(ea, b.occupancy(pb, t_end))
        merged = _merge_intervals(joint)
        phis.append(sorted({0} | {s for s, _ in merged}))
    return phis


def communication_instants(
    traj: TeamTrajectory, chain: ChainRoadmap | None = None, t_end=None
) -> tuple[tuple[Fraction, ...], ...]:
    """Sorted exact meeting instants for each adjacent relay pair.

    Entry q holds the instants in [0, t_end] (default: the horizon) at
    which relay robots q and q+1 occupy chain-adjacent viewpoints, each
    joint dwell collapsed to its start instant, with 0 always present.
    """
    chain = chain or traj.chain
    if chain is None:
        raise ValueError("a chain roadmap is required to locate viewpoints")
    end = traj.horizon if t_end is None else Fraction(t_end)
    if not 0 <= end <= traj.horizon:
        raise ValueError(f"t_end {float(end)} outside [0, {float(traj.horizon)}]")
    D, robots, (end, *coords) = to_grid(traj.robots, (end,), chain)
    return tuple(
        tuple(Fraction(t, D) for t in phi)
        for phi in _meeting_instants(robots, traj.relay, coords, end)
    )


def propagate_latency(phis, horizon) -> tuple:
    """Worst-case relay times over the given per-pair instant lists.

    Works on any sorted numeric sequences (exact or float).  Returns
    (up, down) in the input arithmetic.
    """
    zero = horizon - horizon

    def chain_time(sources, hops):
        worst = zero
        for t_src in sources:
            t = t_src
            for hop in hops:
                i = bisect_left(hop, t)
                if i < len(hop):
                    t = hop[i]
                else:
                    t = horizon
                    break
            if t - t_src > worst:
                worst = t - t_src
        return worst

    up = chain_time(phis[0], phis[1:])
    down = chain_time(phis[-1], list(reversed(phis[:-1])))
    return up, down


def latency(traj: TeamTrajectory, chain: ChainRoadmap | None = None) -> LatencyResult:
    """Up/down/overall latency of a chain trajectory by message propagation."""
    m = len(traj.relay)
    if m < 2:
        raise ValueError("latency is defined for at least two robots")
    if m == 2:
        # a single pair relays nothing, so its meetings need not be found
        return latency_from_phis((), traj.horizon)
    chain = chain or traj.chain
    if chain is None:
        raise ValueError("a chain roadmap is required to locate viewpoints")
    D, robots, (horizon, *coords) = to_grid(traj.robots, (traj.horizon,), chain)
    end = horizon
    common = _common_cycle([robots[i] for i in traj.relay])
    if common is not None:
        anchor, period = common
        end = min(end, anchor + (m - 1) * period)
    phis = _meeting_instants(robots, traj.relay, coords, end)
    if end < horizon and not all(
        any(anchor < t <= anchor + period for t in phi) for phi in phis
    ):
        # some pair skips a period: relays are not bounded by m - 1 periods
        end = horizon
        phis = _meeting_instants(robots, traj.relay, coords, end)
    up, down = (from_grid(t, D) for t in propagate_latency(phis, end))
    return LatencyResult(up=up, down=down, overall=max(up, down))


def latency_lower_bounds(partition: Partition) -> tuple[float, float]:
    """(up_lb, periodic_lb): the travel bound on one-way latency and the
    aggregated-cluster bound on the latency of any d_max-periodic sweep."""
    active = partition.active
    if len(active) < 2:
        raise ValueError("latency bounds are defined for at least two clusters")
    d = [partition.length_exact(i) for i in active]
    up_lb = sum(d[1:-1], Fraction(0))
    if partition.dimension_exact == 0:
        return 0.0, 0.0
    agg = aggregate_clusters(partition)
    periodic = (
        (agg.count - 2) * agg.d_max
        + (agg.lengths[0] - d[0])
        + (agg.lengths[-1] - d[-1])
    )
    periodic = max(Fraction(0), periodic)
    return float(up_lb), float(periodic)


def metrics_report(rt: float, lat: LatencyResult | None, bounds=None) -> dict:
    doc: dict = {"refresh_time": "inf" if math.isinf(rt) else rt}
    if lat is not None:
        doc["latency"] = {"up": lat.up, "down": lat.down, "overall": lat.overall}
    if bounds is not None:
        doc["bounds"] = {"up_lb": bounds[0], "periodic_lb": bounds[1]}
    return doc


# ---------------------------------------------------------------------------
# sampled-trace evaluation


def _visit_episodes_sampled(times, xs, value, eta):
    """Unmerged visit episodes of one robot at one coordinate from samples.

    Dwells are detected by |x - value| <= eta, pass-throughs by sign change
    with linear interpolation for the crossing time.
    """
    eps = []
    near = np.abs(xs - value) <= eta
    if near.any():
        idx = np.flatnonzero(near)
        splits = np.flatnonzero(np.diff(idx) > 1)
        starts = np.concatenate(([0], splits + 1))
        ends = np.concatenate((splits, [len(idx) - 1]))
        for s, e in zip(starts, ends):
            eps.append((times[idx[s]], times[idx[e]]))
    d = xs - value
    cross = np.flatnonzero(d[:-1] * d[1:] < 0)
    for k in cross:
        t = times[k] + (times[k + 1] - times[k]) * d[k] / (d[k] - d[k + 1])
        eps.append((t, t))
    return eps


def refresh_time_from_trace(
    times: np.ndarray,
    positions: np.ndarray,
    coords,
    eta: float = 1e-6,
    warmup: float = 0.0,
    cap: float | None = None,
    strict: bool = False,
) -> float:
    """Refresh time from a sampled trace (rows: times, cols: robots) over
    the window [warmup, T], T the last sample time.

    Boundary gaps follow ``max_revisit_gap``'s rule for ``cap`` and
    ``strict``.  The scan starts at the last sample strictly before the
    warmup: a crossing whose step ends at or after the warmup is kept, a
    dwell that straddles it is clipped to it, and everything earlier ends
    before the window, so the result is that of a scan of the whole trace.
    Raises ``ValueError`` unless ``times[0] <= warmup < T``.
    """
    t0, t1 = warmup, float(times[-1])
    if not times[0] <= t0 < t1:
        raise ValueError(f"warmup {t0} outside the trace [{float(times[0])}, {t1})")
    k0 = max(int(np.searchsorted(times, t0)) - 1, 0)
    times = times[k0:]
    tracks = np.ascontiguousarray(positions[k0:].T)  # one row per robot
    lows = (tracks.min(axis=1) - eta).tolist()
    highs = (tracks.max(axis=1) + eta).tolist()
    worst = 0.0
    for v in coords:
        eps = []
        for xs, lo, hi in zip(tracks, lows, highs):
            if lo <= v <= hi:
                eps.extend(_visit_episodes_sampled(times, xs, v, eta))
        worst = max(worst, max_revisit_gap(eps, t0, t1, cap, strict))
        if worst == math.inf:
            break
    return float(worst)


def comm_instants_from_trace(
    times: np.ndarray,
    positions: np.ndarray,
    chain: ChainRoadmap,
    relay=None,
    eta: float = 1e-6,
) -> list[list[float]]:
    """Pairwise communication instants detected from a sampled trace.

    A pair communicates while both robots sit within eta of chain-adjacent
    viewpoints; each such run of samples collapses to its first time.
    """
    coords = np.asarray(chain.coordinates)
    m = positions.shape[1]
    relay = list(relay) if relay is not None else list(range(m))
    phis = []
    for q in range(len(relay) - 1):
        xa = positions[:, relay[q]]
        xb = positions[:, relay[q + 1]]
        co = np.zeros(len(times), dtype=bool)
        for k in range(len(coords) - 1):
            u, v = coords[k], coords[k + 1]
            co |= (np.abs(xa - u) <= eta) & (np.abs(xb - v) <= eta)
            co |= (np.abs(xa - v) <= eta) & (np.abs(xb - u) <= eta)
        starts = np.flatnonzero(co & ~np.concatenate(([False], co[:-1])))
        phis.append(sorted({0.0} | {float(times[s]) for s in starts}))
    return phis


def latency_from_phis(phis, horizon) -> LatencyResult:
    """Latency from per-pair instant lists; fewer than two pairs relay
    nothing and give zero."""
    if len(phis) < 2:
        return LatencyResult(0.0, 0.0, 0.0)
    up, down = propagate_latency(phis, horizon)
    return LatencyResult(up=float(up), down=float(down), overall=float(max(up, down)))
