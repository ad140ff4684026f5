"""Discrete-time simulation of the distributed sweep-synchronization law.

Each robot runs the same feedback rule on its own cluster of an optimal
partition: reverse at the outer chain ends, hold at a cluster boundary
until the neighbor shows up at the adjacent viewpoint, and on a meeting
either hand the motion token to the neighbor (robots inside one aggregated
group alternate single-mover turns) or arm a phase timer (robots at group
extremes wait out the slack so inter-group meetings settle into a fixed
cadence).  The team provably synchronizes onto the optimal sweep pattern
after a finite transient.

The stepper is one plain-Python kernel over Python lists: scalar reads
and writes on lists cost a fraction of the same operations on numpy
scalars, and IEEE double arithmetic on Python floats matches numpy float64
bit for bit, so multi-thousand-run noise sweeps stay cheap without an
accelerator.  Integration is fixed-step with exact event correction: a
robot that would overrun a cluster boundary within a step is placed
exactly on it, which keeps meetings grid-exact in the noiseless case.
Robots holding position station-keep toward their boundary viewpoint so
actuation noise cannot let them drift away.

Failures: a failed robot freezes in place and stops communicating.
Permanent failures are detected by per-pair communication timeouts, after
which the survivors repartition the chain among themselves and resume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import latency_from_phis, refresh_time_from_trace
from .partition import InfeasibleError, Partition, optimal_partition_bisect
from .roadmap import ChainRoadmap
from .trajectories import aggregate_clusters, write_trace_rows


@dataclass(frozen=True)
class FailureWindow:
    """Robot ``robot`` stops during [start, end); end=inf is permanent."""

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
    repartition_eps: float = 1e-9
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
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("horizon must be an integer number of steps")
        for fw in self.failures:
            if not 0 <= fw.start <= self.horizon:
                raise ValueError("failure window outside horizon")

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
    final_relay: tuple[int, ...] = ()

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def comm_phis(self, relay: list[int], t_min: float = 0.0, t_max: float | None = None):
        """Per-pair communication instant lists from logged events."""
        t_max = self.horizon if t_max is None else t_max
        pairs = {(relay[q], relay[q + 1]): q for q in range(len(relay) - 1)}
        phis: list[list[float]] = [[] for _ in range(len(relay) - 1)]
        for t, kind, i, j in self.events:
            if kind != "comm" or not t_min <= t <= t_max:
                continue
            q = pairs.get((i, j))
            if q is not None:
                phis[q].append(t)
        return [sorted(p) for p in phis]

    def convergence_time(self, period: float, tol: float = 1e-9) -> float | None:
        """Earliest time after which the trace is ``period``-periodic."""
        pk = period / self.config.dt
        if abs(pk - round(pk)) > 1e-9:
            raise ValueError("period must be an integer number of steps")
        pk = int(round(pk))
        pos = self.positions
        if len(pos) <= pk:
            return None
        diff = np.abs(pos[:-pk] - pos[pk:]).max(axis=1)
        ok = diff <= tol
        if not ok[-1]:
            return None
        bad = np.flatnonzero(~ok)
        k0 = 0 if len(bad) == 0 else int(bad[-1]) + 1
        if len(pos) - 1 - k0 < 2 * pk:  # need two steady periods to call it
            return None
        return k0 * self.config.dt

    def write_csv(self, path) -> None:
        tags: dict[tuple[int, int], str] = {}  # (step, robot) -> event column
        for t, kind, i, j in self.events:
            if i < 0:  # team-wide events (repartition) have no robot row
                continue
            key = (int(round(t / self.config.dt)), i)
            tag = f"{kind}:{j}" if kind == "comm" else kind
            tags[key] = f"{tags[key]}|{tag}" if key in tags else tag
        write_trace_rows(path, self.times, self.positions, self.dirs, tags)


def _step_kernel(st, k0, dt, noise, out_pos, out_dir, comm, theta, detect_from):
    """Advance the team one step per row of ``noise``, from global step ``k0``.

    Works on the Python lists of ``st`` in place.  Appends each step's
    positions and directions to ``out_pos``/``out_dir`` and each meeting as
    ``(step, pair)`` to ``comm``.  Returns the number of steps taken and the
    pair whose communication timeout fired (-1 when none did).
    """
    pos, dirv, hold, timer, pend = st.pos, st.dir, st.hold, st.timer, st.pend
    a_time, nmeet, latch, last_comm = st.a_time, st.nmeet, st.latch, st.last_comm
    l, r, left_ext, right_ext, delta = st.l, st.r, st.left_ext, st.right_ext, st.delta
    failed, eta = st.failed, st.eta
    nan = math.nan
    live = [not f for f in failed]
    any_failed = not all(live)
    # a failed robot is at neither of its boundaries: comparisons with NaN fail
    l_live = [b if lv else nan for b, lv in zip(l, live)]
    r_live = [b if lv else nan for b, lv in zip(r, live)]
    ma = len(pos)
    robots = range(ma)
    pairs = range(ma - 1)
    for k, vel_noise in enumerate(noise):
        step = k0 + k
        t = step * dt
        # positions only change in the integration below, so every boundary
        # test of this step reads the same start-of-step flags
        at_l = [abs(x - b) <= eta for x, b in zip(pos, l_live)]
        at_r = [abs(x - b) <= eta for x, b in zip(pos, r_live)]
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
        # one pass per robot: its timer, boundary rule and integration touch
        # only its own state, and it reads its neighbors through the flags
        for i in robots:
            if failed[i]:
                continue
            # timers fire before integration so zero-length waits cost nothing
            ti = timer[i]
            if ti >= 0.0:
                if ti <= 1e-12:
                    timer[i] = -1.0
                    dirv[i] = pend[i]
                    hold[i] = nan
                else:
                    timer[i] = ti - dt
            x = pos[i]
            li = l[i]
            ri = r[i]
            # boundary rules: chain ends reverse, others hold for their neighbor
            if timer[i] < 0.0:
                if x < li - eta:
                    dirv[i] = 1
                    hold[i] = nan
                elif x > ri + eta:
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
                u = float(d)
            else:
                h = hold[i]
                if h != h:  # NaN: nothing to station-keep toward
                    u = 0.0
                else:
                    u = (h - x) / dt
                    if u > 1.0:
                        u = 1.0
                    elif u < -1.0:
                        u = -1.0
            newpos = x + (u + vel_noise[i]) * dt
            if li - eta <= x <= ri + eta:
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
        out_pos.append(pos[:])
        if any_failed:
            out_dir.append([d if lv else 0 for d, lv in zip(dirv, live)])
        else:
            out_dir.append(dirv[:])
        # communication-timeout failure detection
        if theta > 0.0:
            for p in pairs:
                base = last_comm[p]
                if base < detect_from:
                    base = detect_from
                if (t + dt) - base > theta:
                    return k + 1, p
    return len(noise), -1


class _TeamState:
    """Kernel state of the currently active robots as Python lists.

    Entry ``i`` belongs to robot ``robot_ids[i]``; pair ``p`` is the
    neighbors ``i = p`` and ``j = p + 1``.
    """

    def __init__(self, chain: ChainRoadmap, partition: Partition, robot_ids, rng, eta):
        active = partition.active
        self.robot_ids = list(robot_ids[: len(active)])
        self.parked_ids = list(robot_ids[len(active) :])
        self.park = partition.parking_coordinate()
        bounds = [(partition.left(i), partition.right(i)) for i in active]
        lengths = [r - l for l, r in bounds]
        if any(d <= 0 for d in lengths):
            raise InfeasibleError(
                "zero-length clusters are not simulable: a stationary robot "
                "permanently co-located with its neighbor deadlocks the "
                "meeting latch; use the open-loop trajectories instead"
            )
        agg = aggregate_clusters(partition)
        ma = len(active)
        self.l = [b[0] for b in bounds]
        self.r = [b[1] for b in bounds]
        self.left_ext = [False] * ma
        self.right_ext = [False] * ma
        self.delta = [0.0] * ma
        for g, total in zip(agg.groups, agg.lengths):
            self.left_ext[g[0]] = True
            self.right_ext[g[-1]] = True
            for i in g:
                self.delta[i] = float(agg.d_max - total) / 2.0
        if rng is not None:
            self.pos = rng.uniform(self.l, self.r).tolist()
            self.dir = (rng.integers(0, 2, ma) * 2 - 1).tolist()
        else:
            self.pos = None
            self.dir = None
        self.hold = [math.nan] * ma
        self.timer = [-1.0] * ma
        self.pend = [0] * ma
        self.a_time = [0.0] * ma
        npairs = max(0, ma - 1)
        self.nmeet = [0] * npairs
        self.latch = [False] * npairs
        self.last_comm = [0.0] * npairs
        self.failed = [False] * ma
        self.eta = eta


def _validate(chain: ChainRoadmap, partition: Partition, cfg: SimConfig) -> None:
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
    state = _TeamState(chain, partition, list(range(m)), rng, cfg.eta)

    # noise rows are indexed by global step, columns by original robot id,
    # so segmentation and repartition never change which draw a robot sees
    if cfg.sigma2 > 0.0:
        noise = rng.normal(0.0, math.sqrt(cfg.sigma2), size=(steps, m))
    else:
        noise = None

    out_pos = np.empty((steps + 1, m))
    out_dir = np.zeros((steps + 1, m), dtype=np.int8)
    out_pos[0, state.robot_ids] = state.pos
    out_dir[0, state.robot_ids] = state.dir
    for pid in state.parked_ids:
        out_pos[:, pid] = state.park

    events: list[tuple[float, str, int, int]] = []
    detect_time: float | None = None
    new_partition: Partition | None = None

    toggles = sorted(
        {steps}
        | {int(round(fw.start / cfg.dt)) for fw in cfg.failures}
        | {
            int(round(fw.end / cfg.dt))
            for fw in cfg.failures
            if math.isfinite(fw.end) and fw.end <= cfg.horizon
        }
    )

    theta = cfg.detection_theta if cfg.detection_theta is not None else -1.0
    detect_from = cfg.detection_arm_time

    def run_segment(st: _TeamState, k0: int, k1: int) -> tuple[int, int]:
        cols = st.robot_ids
        if noise is None:
            seg_noise = [[0.0] * len(cols)] * (k1 - k0)
        else:
            seg_noise = noise[k0:k1, cols].tolist()
        seg_pos: list[list[float]] = []
        seg_dir: list[list[int]] = []
        comm: list[tuple[int, int]] = []
        done, pair = _step_kernel(
            st, k0, cfg.dt, seg_noise, seg_pos, seg_dir, comm, theta, detect_from
        )
        out_pos[k0 + 1 : k0 + done + 1, cols] = seg_pos
        out_dir[k0 + 1 : k0 + done + 1, cols] = seg_dir
        events.extend((step * cfg.dt, "comm", cols[p], cols[p + 1]) for step, p in comm)
        return done, pair

    k = 0
    while k < steps:
        k_next = steps
        for tg in toggles:
            if tg > k:
                k_next = tg
                break
        t_now = k * cfg.dt
        failed = [False] * len(state.robot_ids)
        for fw in cfg.failures:
            if int(round(fw.start / cfg.dt)) == k and fw.robot in state.robot_ids:
                events.append((t_now, "fail", fw.robot, -1))
            if (
                math.isfinite(fw.end)
                and int(round(fw.end / cfg.dt)) == k
                and fw.robot in state.robot_ids
            ):
                events.append((t_now, "resume", fw.robot, -1))
            if fw.start <= t_now < fw.end and fw.robot in state.robot_ids:
                failed[state.robot_ids.index(fw.robot)] = True
        state.failed = failed
        done, pair = run_segment(state, k, k_next)
        k += done
        if pair >= 0:
            # a neighbor timed out: declare the failure, repartition among
            # the survivors (previously parked robots rejoin at the tail),
            # and resume the law on the new clusters
            detect_time = k * cfg.dt
            cols = state.robot_ids
            events.append((detect_time, "detect", cols[pair], cols[pair + 1]))
            alive = lambda rid: not any(
                fw.robot == rid and fw.start <= detect_time < fw.end
                for fw in cfg.failures
            )
            survivors = [rid for rid in cols if alive(rid)]
            survivors += [rid for rid in state.parked_ids if alive(rid)]
            if not survivors:
                raise InfeasibleError("no survivors left to repartition")
            dead = [rid for rid in cols if not alive(rid)]
            old_pos = dict(zip(cols, state.pos))
            old_dir = dict(zip(cols, state.dir))
            for rid in state.parked_ids:
                old_pos[rid] = state.park
                old_dir[rid] = 1
            new_partition, _ = optimal_partition_bisect(
                chain, len(survivors), cfg.repartition_eps
            )
            events.append((detect_time, "repartition", -1, -1))
            state = _TeamState(chain, new_partition, survivors, None, cfg.eta)
            state.pos = [old_pos[rid] for rid in state.robot_ids]
            state.dir = [old_dir[rid] or 1 for rid in state.robot_ids]
            state.a_time = [detect_time] * len(state.robot_ids)
            state.last_comm = [detect_time] * max(0, len(state.robot_ids) - 1)
            for rid in dead:
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
        final_relay=tuple(state.robot_ids),
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


def evaluate_trace(
    trace: Trace,
    warmup: float | None = None,
    relay: list[int] | None = None,
    partition: Partition | None = None,
) -> TraceMetrics:
    """Refresh time and latency of a trace over its steady window.

    When no warmup is given, the detected convergence time is used and the
    run is marked converged; if the trace never settles (noisy runs), the
    second half of the horizon is evaluated instead.
    """
    part = partition or trace.partition
    dmax = part.dimension
    period = 2.0 * dmax
    converged = False
    if warmup is None:
        t_conv = trace.convergence_time(period, tol=trace.config.eta)
        if t_conv is not None:
            warmup, converged = t_conv, True
        else:
            warmup = trace.horizon / 2.0
    if relay is None:
        if part is trace.new_partition:
            relay = list(trace.final_relay)
        else:
            relay = list(range(part.cardinality))
    rt = refresh_time_from_trace(
        trace.times,
        trace.positions,
        trace.chain.coordinates,
        eta=trace.config.eta,
        warmup=warmup,
        cap=period,
    )
    phis = trace.comm_phis(relay, t_min=warmup)
    if any(not p for p in phis):
        lat_up = lat_down = lat_all = math.inf
    else:
        res = latency_from_phis(phis, trace.horizon)
        lat_up, lat_down, lat_all = res.up, res.down, res.overall
    return TraceMetrics(
        refresh=rt,
        latency_up=lat_up,
        latency_down=lat_down,
        latency=lat_all,
        warmup=warmup,
        converged=converged,
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
