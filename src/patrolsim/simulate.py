"""Discrete-time simulation of the distributed sweep-synchronization law.

Each robot runs the same feedback rule on its own cluster of an optimal
partition: reverse at the outer chain ends, hold at a cluster boundary
until the neighbor shows up at the adjacent viewpoint, and on a meeting
either hand the motion token to the neighbor (robots inside one aggregated
group alternate single-mover turns) or arm a phase timer (robots at group
extremes wait out the slack so inter-group meetings settle into a fixed
cadence).  Measured, not proved: without noise, the refresh time came
within ``2 * dt`` of ``2 * d_max`` on all 167 random chains probed, and the
latency equals its lower bound on the case study and on chains of two
aggregated groups, but stays above it on every probed chain with three or
more.

The stepper is one plain-Python kernel over Python lists: scalar reads
and writes on lists cost a fraction of the same operations on numpy
scalars, and IEEE double arithmetic on Python floats matches numpy float64
bit for bit, so multi-thousand-run noise sweeps stay cheap without an
accelerator.  Integration is fixed-step with exact event correction: a
robot that would overrun a cluster boundary within a step is placed
exactly on it, which keeps meetings grid-exact in the noiseless case, and
a phase timer that expires within a step fires there: the robot waits out
the rest of the timer and moves for the remainder of the step, so a wait
that is not a whole number of steps still ends.
Robots holding position station-keep toward their boundary viewpoint so
actuation noise cannot let them drift away.

Every rule of a step reads the robots' at-boundary flags as they stood at
the step's start.  The kernel computes them once on entry; after that each
live robot computes its next flags from the position it has just written,
into a second pair of lists that is swapped in at the end of the step, so
a neighbor later in the same pass still reads the start-of-step value.

Between boundary events a robot is in free flight: it moves at unit speed
plus noise, and no rule applies to it until it nears a boundary, meets a
neighbor or its timer fires.  Most robot-steps are of that kind, so the
kernel advances a free robot a whole stretch of steps at once.  A stretch
starts at the robot's pass in a step when its timer neither runs nor fired
within that step (so it moves for a full ``dt``), it moves, it is at
neither boundary and it is inside its cluster.  Its positions are one
``np.add.accumulate`` over ``[x, (u + n_k) * dt, ...]``, which adds left to
right, so each is the same IEEE result as the step's ``x + (u + n) * dt``.
The stretch ends before the first position that a snap or a boundary flag
would act on, and the kernel takes that step in the usual way.  Its flags
stay False throughout, so no neighbor and no meeting sees a difference.

A robot holding at a boundary for its neighbor, or waiting out its phase
timer there, is the other common case, and it is advanced a stretch of
steps at once as well: a station-keeping stretch.  It starts at the
robot's pass in a step when it holds (direction 0) at its left or right
boundary, its timer did not fire within the step, it is not at its other
boundary, and the neighbor across the held boundary is mid-stretch.  That
neighbor's flag toward the robot then stays False, so no meeting involves
the robot and its own boundary rule only holds it where it is.  The
stretch runs the step's own arithmetic one step at a time, with no pass
over the team, up to the neighbor's stretch end at most, and stops before
the step whose timer fires and before a position at the other boundary.
A failed robot counts as mid-stretch for the whole segment.  When every
live robot is mid-stretch, the team jumps to the earliest end.
Positions and directions are written straight into the trace's arrays,
a stretch as one column slice.

Failures: a failed robot freezes in place and stops communicating.
Permanent failures are detected by per-pair communication timeouts, after
which the survivors repartition the chain among themselves and resume.
The windows' starts and ends form one step-ordered list of status changes
that drives a table of which robots are down.  There is one detection per
run; fail and resume are logged only for team robots, not for parked or
dead ones; and a robot down at the detection step, changes due then
included, is declared dead and stands where it stopped for the rest of the
run.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .metrics import LatencyResult, latency_from_phis, refresh_time_from_trace
from .partition import InfeasibleError, Partition, optimal_partition_bisect
from .roadmap import ChainRoadmap
from .trajectories import aggregate_clusters, write_trace_rows


@dataclass(frozen=True)
class FailureWindow:
    """Robot ``robot`` stops during [start, end); end=inf is permanent.

    ``simulate`` rejects a start, or a finite end, that is not a whole
    number of steps of its ``dt``.
    """

    robot: int
    start: float
    end: float = math.inf


@dataclass(frozen=True)
class SimConfig:
    dt: float
    horizon: float
    seed: int
    sigma2: float = 0.0
    failures: tuple[FailureWindow, ...] = ()
    detection_theta: float | None = None
    detection_arm_time: float = 0.0
    eta: float = 1e-6

    def __post_init__(self):
        if not math.isfinite(self.dt):
            raise ValueError(f"dt must be finite, got {self.dt!r}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not math.isfinite(self.horizon) or self.horizon <= 0:
            raise ValueError(f"horizon must be finite and positive, got {self.horizon!r}")
        if not math.isfinite(self.sigma2) or self.sigma2 < 0:
            raise ValueError(
                f"noise variance must be finite and nonnegative, got {self.sigma2!r}"
            )
        if math.isnan(self.eta) or self.eta < 0:
            raise ValueError(f"meeting tolerance eta must be nonnegative, got {self.eta!r}")
        theta = self.detection_theta
        if theta is not None and not (math.isfinite(theta) and theta > 0):
            raise ValueError(
                f"detection_theta must be None or finite and positive, got {theta!r}"
            )
        arm = self.detection_arm_time
        if not (math.isfinite(arm) and arm >= 0):
            raise ValueError(f"detection_arm_time must be finite and nonnegative, got {arm!r}")
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("horizon must be an integer number of steps")
        # a window from the horizon on would log nothing, and two windows
        # of one robot that overlap or touch would log a resume while it
        # stays down
        for fw in self.failures:
            if not 0 <= fw.start < self.horizon:
                raise ValueError(
                    f"failure window of robot {fw.robot} must start in [0, {self.horizon}), "
                    f"got {fw.start}"
                )
        windows = sorted(self.failures, key=lambda fw: (fw.robot, fw.start))
        for a, b in zip(windows, windows[1:]):
            if a.robot == b.robot and b.start <= a.end:
                raise ValueError(
                    f"failure windows of robot {a.robot} overlap or touch: "
                    f"[{a.start}, {a.end}) and [{b.start}, {b.end}); give it one window"
                )

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass
class Trace:
    """Sampled record of one simulation run (bit-exact for a given config)."""

    times: np.ndarray
    positions: np.ndarray
    dirs: np.ndarray
    events: list[tuple[float, str, int, int]]
    chain: ChainRoadmap
    partition: Partition
    config: SimConfig
    detect_time: float | None = None
    new_partition: Partition | None = None

    def write_csv(self, path) -> None:
        tags: dict[tuple[int, int], str] = {}  # (step, robot) -> event column
        for t, kind, i, j in self.events:
            if i < 0:  # team-wide events (repartition) have no robot row
                continue
            key = (int(round(t / self.config.dt)), i)
            tag = f"{kind}:{j}" if kind == "comm" else kind
            tags[key] = f"{tags[key]}|{tag}" if key in tags else tag
        write_trace_rows(path, self.times, self.positions, self.dirs, tags)


# the survivors' partition is bisected to this tolerance, the default of
# every ``--eps`` flag
_REPARTITION_EPS = 1e-9

_SPEED = (0.0, 1.0, -1.0)  # float(d) for a direction d in {0, 1, -1}


def _free_run(x, u, noise, dt, li, ri, eta, out, work) -> int:
    """Fly a robot from ``x`` at speed ``u`` on cluster [li, ri] for up to
    ``len(out) - 1`` steps.

    Writes ``x`` to ``out[0]`` and after step ``j`` the position
    ``out[j] + (u + noise[j]) * dt`` to ``out[j + 1]`` (``noise`` None is
    zero noise): the kernel's own IEEE operations in its order, since
    ``np.add.accumulate`` adds strictly left to right.  Returns how many
    leading positions ``p`` are free, ``p - li > eta`` and ``p - ri < -eta``,
    so that the step to ``p`` snaps onto no boundary and the step after it
    sees neither boundary flag; ``out`` beyond them is scratch.  The right
    test is made as ``ri - p > eta``: IEEE subtraction is antisymmetric, so
    ``ri - p`` is exactly ``-(p - ri)``.
    ``work`` is a float and a bool buffer, of at least ``2 * (len(out) - 1)``
    and ``len(out) - 1`` elements.
    """
    w = len(out) - 1
    path = out[1:]
    if noise is None:
        path.fill(u * dt)
    else:
        np.add(noise, u, out=path)
        np.multiply(path, dt, out=path)
    out[0] = x
    np.add.accumulate(out, out=out)
    gaps, near = work
    left, right, near = gaps[:w], gaps[w : 2 * w], near[:w]
    np.subtract(path, li, out=left)
    np.subtract(ri, path, out=right)
    np.minimum(left, right, out=left)
    np.less_equal(left, eta, out=near)
    c = int(near.argmax())
    return c if near[c] else w


def _station_keep(x, h, ti, noise, dt, li, ri, eta, far) -> tuple[list[float], float]:
    """Hold a robot at its boundary ``h`` of cluster [li, ri] from ``x`` in
    ``[li - eta, ri + eta]`` for up to ``len(noise)`` steps.

    ``ti`` is its timer as the kernel holds it after the first step's
    countdown, negative when it is not running.  Each step counts the
    timer down as the kernel does, ``ti - dt``, then moves to
    ``x + (u + n) * dt`` with ``u = (h - x) / dt`` clipped to ±1 and snaps
    onto ``li`` or ``ri``: the kernel's own IEEE operations in its order.
    Returns the positions after each step and the timer after the last.
    Stops before the step whose timer fires and before a position whose
    flag at ``far``, the other boundary, would be up; every position lies in
    [li, ri].
    """
    path = []
    for n in noise:
        t = ti
        if path and t >= 0.0:
            if t < dt:
                break
            t = t - dt
        u = (h - x) / dt
        if u > 1.0:
            u = 1.0
        elif u < -1.0:
            u = -1.0
        y = x + (u + n) * dt
        if y >= ri:
            y = ri
        elif y <= li:
            y = li
        if -eta <= y - far <= eta:
            break
        x = y
        ti = t
        path.append(y)
    return path, ti


def _step_kernel(st, k0, k1, dt, noise, out_pos, out_dir, comm, theta, detect_from):
    """Advance the team from global step ``k0`` for up to ``k1 - k0`` steps.

    Works on the Python lists of ``st`` in place.  ``noise`` holds the
    velocity noise of steps ``k0..k1-1`` as a (steps, robots) array in team
    order, or None for none.  Writes each step's positions and directions
    into rows ``k0 + 1..`` of ``out_pos``/``out_dir`` at the columns
    ``st.robot_ids`` of the live robots, and appends each meeting as
    ``(step, pair)`` to ``comm``.  Returns the number of steps taken and
    the pair whose communication timeout fired (-1 when none did).  The
    noise of a step is converted to floats when the loop visits it, and a
    station-keeping stretch's as one slice.

    A robot in free flight is advanced a stretch of steps at once (see the
    module docstring).  It starts one at its pass in a step when its timer
    is neither running nor fired within the step, it moves, it is at
    neither boundary and it is inside its cluster.  Then no rule acts on it
    until it nears a boundary: no neighbor reads more than its flags, which
    stay False, so no meeting involves it.  ``_free_run`` computes the
    stretch with the step's own arithmetic, up to the segment end at most,
    and cuts it before the first position at which a snap or a boundary flag
    would act; the kernel takes that step in the usual way, without trying
    a stretch that it already knows to be empty.  The robot is skipped
    until its stretch ends, with ``pos`` already at the stretch's last
    position.  When every live robot is mid-stretch, the team jumps to the
    earliest end: every latch opens, and the jump stops short at the first
    step whose communication timeout fires (the pair that last met earliest
    times out first), which is then taken in the usual way.  A timeout cuts
    the stretches that run past it back to its step.

    A robot that holds at its boundary with a neighbor across it is
    station-kept a stretch of steps at once when, at its pass, its timer
    did not fire within the step, its flag at the other boundary is down
    and it is not at the step that cut its last stretch short.  The
    neighbor across the held boundary must be mid-stretch, past the next
    step: a free flier's flags are False, a station keeper's flag at its
    other boundary is False, and a neighbor can only be station-kept
    toward this robot up to this robot's own stretch end, so the two never
    wait on each other in stretches.  A failed robot's flags are False too,
    and it counts as mid-stretch to the segment end.  ``_station_keep``
    then runs the robot's steps up to the neighbor's stretch end, counting
    a running timer down as the step does, and stops before the step whose
    timer fires and before a position whose other flag is up.  The robot's
    flags after the stretch go into both flag lists: its other flag is
    False in both, and its held one changes nothing for anyone in between.
    """
    pos, dirv, hold, timer, pend = st.pos, st.dir, st.hold, st.timer, st.pend
    a_time, nmeet, latch, last_comm = st.a_time, st.nmeet, st.latch, st.last_comm
    l, r, left_ext, right_ext, delta = st.l, st.r, st.left_ext, st.right_ext, st.delta
    failed, eta, cols = st.failed, st.eta, st.robot_ids
    nan = math.nan
    ma = len(pos)
    n = k1 - k0
    live = [i for i in range(ma) if not failed[i]]
    lo = [b - eta for b in l]
    hi = [b + eta for b in r]
    zeros = [0.0] * ma
    # scratch for ``_free_run``, as long as a stretch across the longest
    # cluster: buffers as long as the segment, allocated again on every
    # call, fragment the heap, and the peak RSS of repeated runs creeps up
    span = int(max(b - a for a, b in zip(l, r)) / dt) + 33
    work = (np.empty(2 * span), np.empty(span, dtype=bool))
    # first step after robot i's stretch; a failed robot takes no step in
    # the segment and its flags stay False, as if it were mid-stretch
    until = [n if f else 0 for f in failed]
    cut = [-1] * ma  # step of robot i that ended its last stretch
    # start-of-step boundary flags (-eta <= x - b <= eta is abs(x - b) <= eta);
    # a failed robot is at neither of its boundaries, so its flags stay
    # False in both pairs
    at_l = [False] * ma
    at_r = [False] * ma
    for i in live:
        x = pos[i]
        at_l[i] = -eta <= x - l[i] <= eta
        at_r[i] = -eta <= x - r[i] <= eta
    nx_l = at_l[:]
    nx_r = at_r[:]
    pairs = range(ma - 1)
    done, pair = n, -1
    k = 0
    while k < n:
        step = k0 + k
        t = step * dt
        row = step + 1
        vel_noise = zeros if noise is None else noise[k].tolist()
        # pair meetings: latch once per joint dwell at the shared boundary
        for p in pairs:
            if not (at_r[p] and at_l[p + 1]):
                latch[p] = False
                continue
            if latch[p]:
                continue
            latch[p] = True
            i = p
            j = p + 1
            c = nmeet[p]
            nmeet[p] = c + 1
            last_comm[p] = t
            comm.append((step, p))
            tau = a_time[i] + delta[i] - t
            if tau < 0.0:
                tau = 0.0
            if right_ext[i]:
                if timer[i] < 0.0:
                    timer[i] = delta[i] + tau
                    pend[i] = -1
                    dirv[i] = 0
                    hold[i] = r[i]
            elif c % 2 == 1:
                dirv[i] = -1
                hold[i] = nan
            else:
                dirv[i] = 0
                hold[i] = r[i]
            if left_ext[j]:
                if timer[j] < 0.0:
                    timer[j] = tau
                    pend[j] = 1
                    dirv[j] = 0
                    hold[j] = l[j]
            elif c % 2 == 0:
                dirv[j] = 1
                hold[j] = nan
            else:
                dirv[j] = 0
                hold[j] = l[j]
        # one pass per live robot not mid-stretch: its timer, boundary rule
        # and integration touch only its own state, and it reads its
        # neighbors through the start-of-step flags, so its new flags go to
        # the other pair; ``wake`` is the next step some robot needs a pass
        wake = n
        for i in live:
            e = until[i]
            if e > k:
                if e < wake:
                    wake = e
                continue
            # timers fire before integration so zero-length waits cost nothing
            ti = timer[i]
            step_dt = dt
            if ti >= 0.0:
                if ti < dt:
                    # the timer expires within this step: the robot waits
                    # it out, then moves for the rest of the step
                    if ti > 1e-12:
                        step_dt = dt - ti
                    ti = timer[i] = -1.0
                    dirv[i] = pend[i]
                    hold[i] = nan
                else:
                    ti = timer[i] = ti - dt
            x = pos[i]
            li = l[i]
            ri = r[i]
            # boundary rules: chain ends reverse, others hold for their neighbor
            if ti < 0.0:
                if x < lo[i]:
                    dirv[i] = 1
                    hold[i] = nan
                elif x > hi[i]:
                    dirv[i] = -1
                    hold[i] = nan
                elif at_l[i] and dirv[i] <= 0:
                    if i == 0:
                        dirv[i] = 1
                        hold[i] = nan
                    elif not at_r[i - 1]:
                        dirv[i] = 0
                        hold[i] = li
                elif at_r[i] and dirv[i] >= 0:
                    if i == ma - 1:
                        dirv[i] = -1
                        hold[i] = nan
                    elif not at_l[i + 1]:
                        dirv[i] = 0
                        hold[i] = ri
            # integrate with event correction at cluster boundaries
            d = dirv[i]
            if d != 0:
                u = _SPEED[d]
                if (
                    step_dt == dt
                    and ti < 0.0
                    and cut[i] != k
                    and not (at_l[i] or at_r[i])
                    and lo[i] <= x <= hi[i]
                ):
                    # free flight: a stretch to about the far boundary, with
                    # 32 steps to spare for noise (one that ends free, at
                    # the segment end or the scratch's end, is followed by
                    # another)
                    w = min(n - k, span)
                    reach = (ri - x if d > 0 else x - li) / dt
                    if reach + 32.0 < w:
                        w = int(reach) + 32
                    # rows of ``col`` past the stretch are scratch until the
                    # robot's later steps write them, in this segment or,
                    # after a detection, in the next
                    col = out_pos[step : row + w, cols[i]]
                    c = _free_run(
                        x, u, None if noise is None else noise[k : k + w, i],
                        dt, li, ri, eta, col, work,
                    )
                    if c:
                        e = until[i] = k + c
                        if c < w:
                            cut[i] = e
                        if e < wake:
                            wake = e
                        pos[i] = col[c].item()
                        out_dir[row : row + c, cols[i]] = d
                        nx_l[i] = nx_r[i] = False
                        continue
            else:
                h = hold[i]
                if h != h:  # NaN: nothing to station-keep toward
                    u = 0.0
                else:
                    if step_dt == dt and cut[i] != k and lo[i] <= x <= hi[i]:
                        # station keeping: while the neighbor across the
                        # held boundary is mid-stretch its flags stay False,
                        # so no meeting and no boundary rule changes this
                        # robot until it ends, its timer fires or the robot
                        # nears its other boundary (a hold is li or ri, at
                        # a boundary with a neighbor across it)
                        if h == li:
                            nb, far, clear = i - 1, ri, not at_r[i]
                        else:
                            nb, far, clear = i + 1, li, not at_l[i]
                        e = until[nb]
                        if clear and e > k + 1:
                            w = e - k
                            path, ti = _station_keep(
                                x, h, ti, [0.0] * w if noise is None
                                else noise[k:e, i].tolist(), dt, li, ri, eta, far,
                            )
                            c = len(path)
                            if c:
                                timer[i] = ti
                                e = until[i] = k + c
                                # a stop before a firing timer is no cut: a
                                # robot moving again may start a free flight
                                if c < w and not 0.0 <= ti < dt:
                                    cut[i] = e
                                if e < wake:
                                    wake = e
                                x = pos[i] = path[-1]
                                out_pos[row : row + c, cols[i]] = path
                                out_dir[row : row + c, cols[i]] = 0
                                # the far flag is False in both lists; the
                                # near one is read again only at step e
                                nx_l[i] = at_l[i] = -eta <= x - li <= eta
                                nx_r[i] = at_r[i] = -eta <= x - ri <= eta
                                continue
                    u = (h - x) / dt
                    if u > 1.0:
                        u = 1.0
                    elif u < -1.0:
                        u = -1.0
            newpos = x + (u + vel_noise[i]) * step_dt
            if lo[i] <= x <= hi[i]:
                if newpos >= ri:
                    if d > 0 and x < ri:
                        a_time[i] = t + dt
                    newpos = ri
                elif newpos <= li:
                    newpos = li
            # relocating into a freshly assigned cluster
            elif x < li and newpos >= li:
                newpos = li
            elif x > ri and newpos <= ri:
                newpos = ri
                a_time[i] = t + dt
            pos[i] = newpos
            out_pos[row, cols[i]] = newpos
            out_dir[row, cols[i]] = d
            nx_l[i] = -eta <= newpos - li <= eta
            nx_r[i] = -eta <= newpos - ri <= eta
            wake = k + 1
        at_l, nx_l = nx_l, at_l
        at_r, nx_r = nx_r, at_r
        # communication-timeout failure detection
        if theta > 0.0:
            for p in pairs:
                base = last_comm[p]
                if base < detect_from:
                    base = detect_from
                if (t + dt) - base > theta:
                    done, pair = k + 1, p
                    break
            if pair >= 0:
                break
        if wake > k + 1:
            # every live robot is mid-stretch until ``wake``: no flag is up,
            # so no pair meets and every latch opens; the jump lands early
            # on a step whose communication timeout fires
            for p in pairs:
                latch[p] = False
            if theta > 0.0 and ma > 1:
                base = max(min(last_comm), detect_from)
                for s in range(k + 1, wake):
                    if ((k0 + s) * dt + dt) - base > theta:
                        wake = s
                        break
        k = wake
    # a detection cuts short the stretches that run past it; a station
    # keeper's timer stays counted down past it, as nothing reads it: the
    # repartition that follows a detection builds a new team state
    if done < n:
        for i in live:
            if until[i] > done:
                pos[i] = out_pos[k0 + done, cols[i]].item()
    return done, pair


class _TeamState:
    """Kernel state of the currently active robots as Python lists.

    Entry ``i`` belongs to robot ``robot_ids[i]``; pair ``p`` is the
    neighbors ``i = p`` and ``j = p + 1``; robots past the active clusters
    park.  The team starts at time ``t0`` from positions ``pos`` and
    directions ``dirs`` in team order.
    """

    def __init__(self, partition: Partition, robot_ids, pos, dirs, t0, eta):
        active = partition.active
        ma = len(active)
        self.robot_ids = list(robot_ids[:ma])
        self.parked_ids = list(robot_ids[ma:])
        self.park = partition.parking_coordinate()
        self.l = [partition.left(i) for i in active]
        self.r = [partition.right(i) for i in active]
        if any(r <= l for l, r in zip(self.l, self.r)):
            raise InfeasibleError(
                "zero-length clusters are not simulable: a stationary robot "
                "permanently co-located with its neighbor deadlocks the "
                "meeting latch; use the open-loop trajectories instead"
            )
        agg = aggregate_clusters(partition)
        self.left_ext = [False] * ma
        self.right_ext = [False] * ma
        self.delta = [0.0] * ma
        for g, total in zip(agg.groups, agg.lengths):
            self.left_ext[g[0]] = True
            self.right_ext[g[-1]] = True
            for i in g:
                self.delta[i] = float(agg.d_max - total) / 2.0
        self.pos = list(pos[:ma])
        self.dir = list(dirs[:ma])
        self.hold = [math.nan] * ma
        self.timer = [-1.0] * ma
        self.pend = [0] * ma
        self.a_time = [t0] * ma
        npairs = max(0, ma - 1)
        self.nmeet = [0] * npairs
        self.latch = [False] * npairs
        self.last_comm = [t0] * npairs
        self.failed = [False] * ma
        self.eta = eta


def _validate(chain: ChainRoadmap, partition: Partition, cfg: SimConfig) -> None:
    ours, theirs = chain.coordinates, partition.chain.coordinates
    if theirs != ours:
        raise ValueError(
            f"partition is of a chain of {len(theirs)} viewpoints ending at {theirs[-1]}, "
            f"not of the simulated chain of {len(ours)} viewpoints ending at {ours[-1]}"
        )
    for fw in cfg.failures:
        if not 0 <= fw.robot < partition.m:
            raise ValueError(
                f"failure window names robot {fw.robot}, not one of 0..{partition.m - 1}"
            )
        if not fw.end > fw.start:
            raise ValueError(
                f"failure window of robot {fw.robot} must end after its start {fw.start}, "
                f"got end {fw.end}"
            )
        for what, t in (("start", fw.start), ("end", fw.end)):
            steps = t / cfg.dt
            if math.isfinite(t) and abs(steps - round(steps)) > 1e-9:
                raise ValueError(
                    f"failure window of robot {fw.robot} must {what} on a step of "
                    f"dt={cfg.dt}, got {t}"
                )
    lengths = [partition.length(i) for i in partition.active]
    positive = [d for d in lengths if d > 0]
    if positive and cfg.dt >= min(positive) / 4.0:
        raise ValueError(
            f"dt={cfg.dt} too coarse: must be below min cluster length / 4 "
            f"= {min(positive) / 4.0}"
        )


def simulate(chain: ChainRoadmap, partition: Partition, cfg: SimConfig) -> Trace:
    """Run the synchronization law and return the sampled trace.

    Robots start at seeded uniform positions inside their clusters with
    seeded directions.  The trace (positions, directions, communication
    events) is a deterministic function of (chain, partition, config).
    """
    _validate(chain, partition, cfg)
    rng = np.random.default_rng(cfg.seed)
    m = partition.m
    steps = cfg.steps
    active = partition.active
    pos = rng.uniform([partition.left(i) for i in active], [partition.right(i) for i in active])
    dirs = rng.integers(0, 2, len(active)) * 2 - 1
    state = _TeamState(partition, range(m), pos.tolist(), dirs.tolist(), 0.0, cfg.eta)

    # noise rows are indexed by global step, columns by original robot id,
    # so segmentation and repartition never change which draw a robot sees;
    # ``lanes`` holds the active robots' columns in team order (a view
    # until a repartition drops a robot)
    if cfg.sigma2 > 0.0:
        noise = rng.normal(0.0, math.sqrt(cfg.sigma2), size=(steps, m))
        lanes = noise[:, : len(state.robot_ids)]
    else:
        noise = lanes = None

    out_pos = np.empty((steps + 1, m))
    out_dir = np.zeros((steps + 1, m), dtype=np.int8)
    out_pos[0, state.robot_ids] = state.pos
    out_dir[0, state.robot_ids] = state.dir
    for pid in state.parked_ids:
        out_pos[:, pid] = state.park

    events: list[tuple[float, str, int, int]] = []
    detect_time: float | None = None
    new_partition: Partition | None = None

    # robot status: ``down`` by robot id, driven by the windows' status
    # changes as (step, kind, robot) in step order, read with a cursor;
    # _validate put them on the step grid
    changes = sorted(
        (round(t / cfg.dt), kind, fw.robot)
        for fw in cfg.failures
        for kind, t in (("fail", fw.start), ("resume", fw.end))
        if math.isfinite(t)
    )
    down = [False] * m
    cursor = 0

    theta = cfg.detection_theta if cfg.detection_theta is not None else -1.0
    k, pair = 0, -1
    while True:
        due = []
        while cursor < len(changes) and changes[cursor][0] <= k:
            _, kind, rid = changes[cursor]
            down[rid] = kind == "fail"
            due.append((kind, rid))
            cursor += 1
        team = state.robot_ids
        if pair >= 0:
            # a neighbor timed out at step k: robots down then are dead; the
            # others (parked ones at the tail) repartition and resume
            detect_time = k * cfg.dt
            events.append((detect_time, "detect", team[pair], team[pair + 1]))
            survivors = [rid for rid in team + state.parked_ids if not down[rid]]
            if not survivors:
                raise InfeasibleError("no survivors left to repartition")
            old_pos = dict(zip(team, state.pos)) | dict.fromkeys(state.parked_ids, state.park)
            old_dir = dict(zip(team, state.dir)) | dict.fromkeys(state.parked_ids, 1)
            new_partition, _ = optimal_partition_bisect(chain, len(survivors), _REPARTITION_EPS)
            events.append((detect_time, "repartition", -1, -1))
            state = _TeamState(
                new_partition, survivors, [old_pos[rid] for rid in survivors],
                [old_dir[rid] or 1 for rid in survivors], detect_time, cfg.eta,
            )
            if noise is not None:
                lanes = noise[:, state.robot_ids]
            for rid in team:
                if down[rid]:
                    out_pos[k:, rid] = old_pos[rid]
                    out_dir[k:, rid] = 0
            for rid in state.parked_ids:
                start = old_pos[rid]
                step_moves = np.sign(state.park - start) * np.arange(steps - k + 1) * cfg.dt
                out_pos[k:, rid] = np.clip(
                    start + step_moves, min(start, state.park), max(start, state.park)
                )
                out_dir[k:, rid] = np.int8(np.sign(state.park - start))
            theta = -1.0  # one detection per run
            team = state.robot_ids
        if k == steps:
            break
        # fail and resume are logged for team robots only; a segment runs
        # up to the next status change
        events.extend((k * cfg.dt, kind, rid, -1) for kind, rid in due if rid in team)
        state.failed = [down[rid] for rid in team]
        k_next = min(changes[cursor][0], steps) if cursor < len(changes) else steps
        comm: list[tuple[int, int]] = []
        done, pair = _step_kernel(
            state, k, k_next, cfg.dt, None if lanes is None else lanes[k:k_next],
            out_pos, out_dir, comm, theta, cfg.detection_arm_time,
        )
        for i, rid in enumerate(team):
            if state.failed[i]:  # failed robots stand still
                out_pos[k + 1 : k + done + 1, rid] = state.pos[i]
                out_dir[k + 1 : k + done + 1, rid] = 0
        events.extend((step * cfg.dt, "comm", team[p], team[p + 1]) for step, p in comm)
        k += done

    events.sort(key=lambda e: (e[0], e[1], e[2]))
    times = np.arange(steps + 1) * cfg.dt
    return Trace(
        times=times,
        positions=out_pos,
        dirs=out_dir,
        events=events,
        chain=chain,
        partition=partition,
        config=cfg,
        detect_time=detect_time,
        new_partition=new_partition,
    )


# ---------------------------------------------------------------------------
# trace evaluation and scripted scenarios


@dataclass(frozen=True)
class TraceMetrics:
    refresh: float
    latency_up: float
    latency_down: float
    latency: float
    warmup: float
    converged: bool


def convergence_time(times, positions, period: float, tol: float = 1e-9) -> float | None:
    """Earliest sample time after which evenly spaced samples are
    ``period``-periodic to within ``tol``.

    ``None`` when the period is not a whole number of sample steps, when
    the last samples differ from those one period earlier, or when fewer
    than two steady periods follow.
    """
    if len(times) < 2:
        return None
    pk = period / float(times[1] - times[0])
    if pk < 1 or abs(pk - round(pk)) > 1e-9:
        return None
    pk = int(round(pk))
    if len(positions) <= pk:
        return None
    diff = np.abs(positions[:-pk] - positions[pk:]).max(axis=1)
    ok = diff <= tol
    if not ok[-1]:
        return None
    bad = np.flatnonzero(~ok)
    k0 = 0 if len(bad) == 0 else int(bad[-1]) + 1
    if len(positions) - 1 - k0 < 2 * pk:  # need two steady periods to call it
        return None
    return float(times[k0])


def _relay(pairs) -> list[int] | None:
    """The robots of the distinct (left, right neighbor) ``pairs`` as one
    left-to-right chain, or ``None`` when the pairs do not form one."""
    right = dict(pairs)
    left = {j: i for i, j in pairs}
    heads = [i for i in right if i not in left]
    if len(right) != len(pairs) or len(left) != len(pairs) or len(heads) != 1:
        return None
    relay = heads
    while relay[-1] in right:
        relay.append(right[relay[-1]])
    return relay if len(relay) == len(pairs) + 1 else None


def _relay_latency(comm, detects, team, warmup, horizon) -> LatencyResult:
    """Latency of the relay that ``comm``'s pairs form after the last
    detection, through their meetings at or after ``warmup``; inf when
    they do not form one chain (of ``team`` robots, when that is given) or
    a pair of it does not meet."""
    if team == 1:
        return latency_from_phis((), horizon)
    last = max(detects, default=-math.inf)
    relay = _relay([pair for pair, ts in comm.items() if ts[-1] >= last])
    if relay is not None and team in (None, len(relay)):
        phis = [comm[pair] for pair in zip(relay, relay[1:])]
        phis = [ts[bisect_left(ts, warmup) :] for ts in phis]
        if all(phis):
            return latency_from_phis(phis, horizon)
    return LatencyResult(math.inf, math.inf, math.inf)


def evaluate_samples(
    times: np.ndarray,
    positions: np.ndarray,
    chain: ChainRoadmap,
    comm: dict[tuple[int, int], list[float]],
    detects,
    partition: Partition | None = None,
    warmup: float | None = None,
    eta: float = 1e-6,
    strict: bool = False,
) -> TraceMetrics:
    """Refresh time and latency of a sampled trace over the window [warmup, T].

    ``comm`` maps each pair (robot, its right neighbor) that met to its
    sorted meeting instants, and ``detects`` holds the failure detection
    times.  ``partition`` is the final one, when known: twice its dimension
    is the period convergence is detected at and caps the gaps at the
    window's ends (``strict`` counts them in full instead).

    Without a warmup the window starts at the detected convergence time and
    the run is marked converged; when the trace never settles, or there is
    no partition, the trailing half of the trace is evaluated.  Messages
    relay along the left-to-right chain of the pairs that meet after the
    last detection (over the whole trace when there was none), through
    their meetings inside the window.  Latency is inf when those pairs do
    not form one chain of the partition's team, or when one of them does
    not meet inside the window.
    """
    horizon = float(times[-1])
    period = team = None
    if partition is not None:
        period, team = 2.0 * partition.dimension, partition.cardinality
    converged = False
    if warmup is None:
        t_conv = None if period is None else convergence_time(times, positions, period, eta)
        if t_conv is not None:
            warmup, converged = t_conv, True
        else:
            warmup = horizon / 2.0
    rt = refresh_time_from_trace(
        times, positions, chain.coordinates, eta=eta, warmup=warmup,
        cap=None if strict else period, strict=strict,
    )
    lat = _relay_latency(comm, detects, team, warmup, horizon)
    return TraceMetrics(
        refresh=rt,
        latency_up=lat.up,
        latency_down=lat.down,
        latency=lat.overall,
        warmup=warmup,
        converged=converged,
    )


def evaluate_trace(trace: Trace, warmup: float | None = None) -> TraceMetrics:
    """``evaluate_samples`` of a simulated trace, from its logged meetings
    and detections, its final partition and its meeting tolerance."""
    comm: dict[tuple[int, int], list[float]] = {}
    detects = []
    for t, kind, i, j in trace.events:
        if kind == "comm":
            comm.setdefault((i, j), []).append(t)
        elif kind == "detect":
            detects.append(t)
    return evaluate_samples(
        trace.times, trace.positions, trace.chain, comm, detects,
        trace.new_partition or trace.partition, warmup, trace.config.eta,
    )


@dataclass(frozen=True)
class SweepRow:
    sigma2: float
    rt_mean: float
    rt_min: float
    rt_max: float
    lt_mean: float
    lt_min: float
    lt_max: float


def run_seed(master_seed: int, index: int) -> int:
    """Independent child seed for run ``index`` of a batch."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])


def noise_sweep(
    chain: ChainRoadmap,
    partition: Partition,
    variances,
    runs: int,
    master_seed: int,
    dt: float,
    horizon: float,
) -> list[SweepRow]:
    """Seeded batch of simulations per noise variance with RT/LT statistics.

    Every run owns an independent RNG stream derived from (master seed,
    run index), so results do not depend on execution order.  Metrics are
    evaluated on the post-convergence window (or the trailing half of the
    horizon when noise prevents convergence).
    """
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    rows: list[SweepRow] = []
    idx = 0
    for sigma2 in variances:
        metrics = []
        for _ in range(runs):
            cfg = SimConfig(
                dt=dt, horizon=horizon, seed=run_seed(master_seed, idx), sigma2=sigma2
            )
            metrics.append(evaluate_trace(simulate(chain, partition, cfg)))
            idx += 1
        rts = [mt.refresh for mt in metrics]
        lts = [mt.latency for mt in metrics]
        rows.append(
            SweepRow(
                sigma2=float(sigma2),
                rt_mean=float(np.mean(rts)),
                rt_min=float(np.min(rts)),
                rt_max=float(np.max(rts)),
                lt_mean=float(np.mean(lts)),
                lt_min=float(np.min(lts)),
                lt_max=float(np.max(lts)),
            )
        )
    return rows


def write_sweep_csv(rows, path) -> None:
    import csv as _csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = _csv.writer(fh)
        w.writerow(["sigma2", "rt_mean", "rt_min", "rt_max", "lt_mean", "lt_min", "lt_max"])
        for row in rows:
            w.writerow(
                [
                    repr(row.sigma2),
                    repr(row.rt_mean),
                    repr(row.rt_min),
                    repr(row.rt_max),
                    repr(row.lt_mean),
                    repr(row.lt_min),
                    repr(row.lt_max),
                ]
            )


def case_study_chain(n: int = 30, spacing: float = 1.0) -> ChainRoadmap:
    """Uniformly spaced chain used by the case-study scenarios.

    With 10 robots its optimal partition splits into equal clusters, for
    which the synchronized sweep attains both performance optima exactly.
    """
    return ChainRoadmap([i * spacing for i in range(n)])
