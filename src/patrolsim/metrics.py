"""Refresh time and latency evaluation for team trajectories.

Two evaluation paths exist side by side.  The analytic path works on the
exact piecewise-linear trajectories and produces rationally exact results,
which the closed-form identities are asserted against with equality.  The
sampled path works on fixed-step traces (synthesized or simulated), detects
viewpoint visits by interpolation between samples, and is accurate to one
or two steps.

Refresh time is the longest interval during which some viewpoint goes
unvisited.  Every refresh-time evaluator of chain trajectories, exact or
sampled, can hand one viewpoint's unmerged visit episodes to
``max_revisit_gap``: the one interval merge (``_merge_intervals``) of
that viewpoint's visits and one rule for the gaps at the window's ends,
in whichever arithmetic the episodes use.  The exact evaluators find the
episodes with one walk over each robot's prefix and one over its cycle
(``PiecewisePath._visits``), for every viewpoint at once, and unroll a
cycle's episodes over a window only where they need it
(``PiecewisePath._unrolled``).  Latency merges each robot's episodes at
a viewpoint once, because the pairwise intersections need sorted,
disjoint lists, and merges a pair's joint dwells once more.  Tree tours
and path-cover sweeps are rides on closed walks, each walked once per
plan with its positions held as grid ints; their steady refresh time is
the largest circular gap between a vertex's folded positions on those
ints (``tree.TourTeamTrajectory.refresh_time``).
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
horizon: it does one period of work per viewpoint and per relay pair.
Cyclic paths repeat together after their latest anchor A with the least
common period P (``_common_cycle``), so after A the visits V of a
viewpoint and the meetings of a relay pair are P-periodic.

Refresh time.  When every robot ranging over viewpoint c is cyclic, some
cycle reaches c (so V has a visit in every period), the warmup t0 is at
least A and the window [t0, T] spans at least 2P, the result is the
largest gap G of V on the circle of length P, taken from one period's
visits (``_circular_gap``), whatever ``cap`` and ``strict`` are.  Proof:
the window lies after A, where V is periodic, so a gap between two
consecutive visits inside the window is a copy of a gap on the circle and
is at most G.  The head gap (t0 to the first visit) and the tail gap (the
last visit to T) each lie inside such a gap, so neither exceeds G,
capped or not.  And a copy of the largest gap starts in [t0, t0 + P)
and ends at most G <= P later, so before t0 + 2P <= T: it is a gap
inside the window, and ``max_revisit_gap`` returns G.  Where t0 < A but
the other conditions hold, every gap after S = max(t0, A) has a copy in
[S, S + 2P] and the tail gap moves by whole periods, so the window end
moves back by whole periods into [S + 2P, S + 3P) and ``max_revisit_gap``
runs on the shorter window.  Viewpoints with an acyclic robot, or that
no cycle reaches, use the whole horizon.

Latency.  After A every relay pair q meets at its instants in (A, A + P]
shifted by whole periods, so its instants are gathered over [0, A + P]
only, and a hop past A + P finds its next instant by shifting t back
into (A, A + P] by whole periods, or is cut off by the horizon.  A relay
from a source later than A + P repeats one from a source a whole number
of periods earlier, or is cut short by the horizon, so only sources up
to A + P are relayed.  A joint dwell that runs across A + P keeps its one
start: a start is where a merged interval begins, and the shifted copies
of a start in (A, A + P] are the starts of the later copies of its
interval.  A pair that never leaves its joint dwell after A has no start
in (A, A + P].  When some pair has no instant in (A, A + P], or the paths
are not all cyclic, or the horizon ends by A + P, the instants are
gathered over the whole horizon.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .partition import Partition
from .roadmap import ChainRoadmap
from .trajectories import (
    TeamTrajectory,
    _circular_gap,
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
    visits = [p._visits(coords) for p in robots]
    holders_at: dict = {}  # viewpoint -> the robots that reach it
    for i, (pre, cyc) in enumerate(visits):
        for c in pre.keys() | cyc.keys():
            holders_at.setdefault(c, []).append(i)
    cycled = set().union(*(cyc.keys() for _, cyc in visits))  # reached by some cycle
    commons: dict = {}
    worst = 0
    for c in coords:
        holders = holders_at.get(c, [])
        key = tuple(holders)
        if key not in commons:
            commons[key] = _common_cycle([robots[i] for i in holders])
        common = commons[key]
        end = t1
        if common is not None and c in cycled:
            anchor, period = common
            if t0 >= anchor and t1 - t0 >= 2 * period:
                # every gap in the window is a copy of one on the circle
                eps = _one_period(robots, visits, holders, c, common)
                worst = max(worst, _circular_gap(eps, period))
                continue
            # a cycle visits c every period, so every later gap has a copy
            # in [start, start + 2P] and the tail moves by whole periods
            start = max(t0, anchor)
            end = t1 - max(0, (t1 - start - 2 * period) // period) * period
        eps = []
        for i in holders:
            pre, cyc = visits[i]
            eps += robots[i]._unrolled(pre.get(c, ()), cyc.get(c, ()), end)
        worst = max(worst, max_revisit_gap(eps, t0, end, cap, strict))
        if worst == math.inf:
            break
    return from_grid(worst, D)


def _one_period(robots, visits, holders, c, common) -> list[Interval]:
    """The cycle episodes of the ``holders`` at c over one common period
    [A, A + P), as episodes on [0, P): each holder's cycle, shifted to its
    anchor's phase, is repeated P / p times, and a start past P wraps."""
    anchor, period = common
    eps: list[Interval] = []
    for i in holders:
        path = robots[i]
        base = visits[i][1].get(c, ())
        p = path._period
        for off in range((path._anchor - anchor) % p, period, p):
            for s, e in base:
                s, e = s + off, e + off
                if s >= period:
                    s, e = s - period, e - period
                eps.append((s, e))
    return eps


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


def _meeting_instants(robots, relay, coords, t_end, visits) -> list[list]:
    """Sorted meeting instants in [0, t_end] of each adjacent relay pair,
    for paths and viewpoints on one integer grid, from each relay robot's
    ``PiecewisePath._visits`` of ``coords`` in ``visits``; each robot's
    episodes at a viewpoint are merged once."""
    reached = {i: pre.keys() | cyc.keys() for i, (pre, cyc) in visits.items()}
    merged: dict = {}

    def occupancy(i, c):
        if (i, c) not in merged:
            pre, cyc = visits[i]
            merged[i, c] = _merge_intervals(
                robots[i]._unrolled(pre.get(c, ()), cyc.get(c, ()), t_end)
            )
        return merged[i, c]

    index = {c: k for k, c in enumerate(coords)}
    phis = []
    for q in range(len(relay) - 1):
        a, b = relay[q], relay[q + 1]
        joint: list[Interval] = []
        for pa in reached[a]:
            k = index[pa]
            for pb in coords[k - 1 : k] + coords[k + 1 : k + 2]:  # chain neighbors
                if pb in reached[b]:
                    ea = occupancy(a, pa)
                    if ea:
                        joint += _intersections(ea, occupancy(b, pb))
        phis.append(sorted({0} | {s for s, _ in _merge_intervals(joint)}))
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
    visits = {i: robots[i]._visits(coords) for i in traj.relay}
    return tuple(
        tuple(Fraction(t, D) for t in phi)
        for phi in _meeting_instants(robots, traj.relay, coords, end, visits)
    )


def _first_at_or_after(hop, t):
    """The first instant of the sorted list ``hop`` at or after t, or None."""
    i = bisect_left(hop, t)
    return hop[i] if i < len(hop) else None


def _worst_relay(sources, hops, horizon, first=_first_at_or_after):
    """Longest time from an instant of ``sources`` until a message relayed
    through ``hops`` in order arrives; ``first(hop, t)`` is the hop's first
    instant at or after t, and the horizon stands in when there is none."""
    worst = horizon - horizon
    for t_src in sources:
        t = t_src
        for hop in hops:
            t = first(hop, t)
            if t is None:
                t = horizon
                break
        if t - t_src > worst:
            worst = t - t_src
    return worst


def propagate_latency(phis, horizon) -> tuple:
    """Worst-case relay times over the given per-pair instant lists.

    Works on any sorted numeric sequences (exact or float).  Returns
    (up, down) in the input arithmetic.
    """
    up = _worst_relay(phis[0], phis[1:], horizon)
    down = _worst_relay(phis[-1], phis[-2::-1], horizon)
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
    visits = {i: robots[i]._visits(coords) for i in traj.relay}
    common = _common_cycle([robots[i] for i in traj.relay])
    up = None
    if common is not None and common[0] + common[1] < horizon:
        anchor, period = common
        end = anchor + period
        phis = _meeting_instants(robots, traj.relay, coords, end, visits)
        if all(phi[-1] > anchor for phi in phis):
            # after A every pair meets at its instants in (A, A + P] shifted
            # by whole periods, and a relay from a later source repeats one
            # from a source a whole number of periods earlier, or is cut
            # short by the horizon
            def first(hop, t):
                phi, wrap = hop
                if t <= phi[-1]:
                    return phi[bisect_left(phi, t)]
                k = -((end - t) // period)  # periods that take t into (A, A + P]
                i = bisect_left(phi, t - k * period)
                s = (phi[i] if i < len(phi) else wrap) + k * period
                return s if s <= horizon else None

            # each hop with its first instant after the gathered ones
            hops = [(phi, phi[bisect_right(phi, anchor)] + period) for phi in phis]
            up = _worst_relay(phis[0], hops[1:], horizon, first)
            down = _worst_relay(phis[-1], hops[-2::-1], horizon, first)
    if up is None:
        phis = _meeting_instants(robots, traj.relay, coords, horizon, visits)
        up, down = propagate_latency(phis, horizon)
    up, down = from_grid(up, D), from_grid(down, D)
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
    def num(x):  # bare Infinity is not JSON
        return "inf" if math.isinf(x) else x

    doc: dict = {"refresh_time": num(rt)}
    if lat is not None:
        doc["latency"] = {"up": num(lat.up), "down": num(lat.down), "overall": num(lat.overall)}
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
    eta: float = 1e-6,
) -> list[list[float]]:
    """Meeting instants of each pair of neighboring robots (columns q and
    q + 1) detected from a sampled trace.

    A pair communicates while both robots sit within eta of chain-adjacent
    viewpoints; each such run of samples is one meeting, at its first time.
    """
    coords = np.asarray(chain.coordinates)
    phis = []
    for q in range(positions.shape[1] - 1):
        xa = positions[:, q]
        xb = positions[:, q + 1]
        co = np.zeros(len(times), dtype=bool)
        for k in range(len(coords) - 1):
            u, v = coords[k], coords[k + 1]
            co |= (np.abs(xa - u) <= eta) & (np.abs(xb - v) <= eta)
            co |= (np.abs(xa - v) <= eta) & (np.abs(xb - u) <= eta)
        starts = np.flatnonzero(co & ~np.concatenate(([False], co[:-1])))
        phis.append(times[starts].tolist())
    return phis


def latency_from_phis(phis, horizon) -> LatencyResult:
    """Latency from per-pair instant lists; fewer than two pairs relay
    nothing and give zero."""
    if len(phis) < 2:
        return LatencyResult(0.0, 0.0, 0.0)
    up, down = propagate_latency(phis, horizon)
    return LatencyResult(up=float(up), down=float(down), overall=float(max(up, down)))
