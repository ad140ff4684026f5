"""The four seeded workloads and the checks on their outputs.

Every workload builds its inputs from the workload seed alone and hands
patrolsim only those inputs.  Work is cut into *rounds*: a fixed list of
timed calls (``Task``) whose mix is the same in every round, so a run of
any length measures the same blend of operations.  Round ``r`` of a seed is
always the same inputs, which lets the traced run replay exactly the calls
the untraced run timed.

patrolsim is always reached through module attributes at call time
(``sim.noise_sweep``), never through names bound at import, so the traced
run sees every call.

Instances named ``general_chain`` are arbitrary chains: 40 viewpoints with
gaps uniform in [0.3, 2], whose waits are not whole numbers of steps.  At
the commit that introduced this benchmark the simulator's phase timers
misfire on them, so the team freezes or stalls, and ``evaluate_trace``
raises ``ValueError`` because twice their dimension is not a whole number
of steps; their operations are run, checked and counted as failed
like any other, and reported separately from the reference instances
(case study, closed-form identities, planners), whose failure makes the run
incorrect.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Callable

import numpy as np

sim = importlib.import_module("patrolsim.simulate")
met = importlib.import_module("patrolsim.metrics")
trj = importlib.import_module("patrolsim.trajectories")
prt = importlib.import_module("patrolsim.partition")
cov = importlib.import_module("patrolsim.cover")
tre = importlib.import_module("patrolsim.tree")
rdm = importlib.import_module("patrolsim.roadmap")
cli = importlib.import_module("patrolsim.cli")

EPS = 1e-9
DT = 1.0 / 32.0


@dataclass
class Task:
    """One timed call.  ``check`` maps its result to the number of failed
    operations among ``ops``; a call that raises fails all of them."""

    name: str
    ops: int
    call: Callable[[], Any]
    check: Callable[[Any], int]
    general: bool = False


class Workload:
    """Base of the workloads: ``round(r)`` lists the timed calls of round r.

    ``stats`` receives counts the checks measure (cover factor, CLI bytes);
    the harness points it at the tracer's counters during traced rounds."""

    def __init__(self):
        self.stats: dict = defaultdict(float)

    def warm_up(self) -> None:
        raise NotImplementedError

    def round(self, r: int) -> list[Task]:
        raise NotImplementedError


def _seed(*words: int) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def general_chain(rng: np.random.Generator, n: int = 40):
    """A non-dyadic chain: gaps uniform in [0.3, 2]."""
    gaps = rng.uniform(0.3, 2.0, n - 1)
    return rdm.ChainRoadmap([0.0] + np.cumsum(gaps).tolist())


def _finite(*xs) -> bool:
    return all(math.isfinite(x) for x in xs)


def _within(x: float, target: float, tol: float) -> bool:
    return math.isfinite(x) and abs(x - target) <= tol


# ---------------------------------------------------------------------------
# sweep: seeded noise-sweep batches, alternating two chains


class Sweep(Workload):
    """``noise_sweep`` batches over variances 0..0.5 on the case-study chain
    (30 viewpoints, m=10) and on a seeded general chain (40 viewpoints,
    m=8), alternating.  An operation is one simulated and evaluated run."""

    def __init__(self, seed: int, tiny: bool, workdir: str):
        super().__init__()
        self.seed = seed
        self.horizon = 20.0 if tiny else 140.0
        self.variances = [0.0, 0.5] if tiny else [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        self.runs = 1
        rng = np.random.default_rng(_seed(seed, 1))
        self.chains = []
        for name, chain, m in (
            ("sweep.case_study", sim.case_study_chain(30), 10),
            ("sweep.general_chain", general_chain(rng), 8),
        ):
            part, _ = prt.optimal_partition_bisect(chain, m, EPS)
            self.chains.append((name, chain, part, met.latency_lower_bounds(part)[1]))
        self.sweep_kwargs = (
            {"workers": 1} if "workers" in inspect.signature(sim.noise_sweep).parameters else {}
        )

    def warm_up(self) -> None:
        for _, chain, part, _ in self.chains:
            sim.simulate(chain, part, sim.SimConfig(dt=DT, horizon=4.0, seed=0))

    def round(self, r: int) -> list[Task]:
        return [self._batch(k, r) for k in range(len(self.chains))]

    def _batch(self, k: int, r: int) -> Task:
        name, chain, part, lat_lb = self.chains[k]
        master = _seed(self.seed, 2, r, k)
        general = name.endswith("general_chain")

        def call():
            return sim.noise_sweep(chain, part, self.variances, self.runs, master,
                                   DT, self.horizon, **self.sweep_kwargs)

        def check(rows) -> int:
            if len(rows) != len(self.variances):
                return self.runs * len(self.variances)
            return sum(self.runs for row in rows if not self._row_ok(row, part, lat_lb, general))

        return Task(name, self.runs * len(self.variances), call, check, general)

    @staticmethod
    def _row_ok(row, part, lat_lb: float, general: bool) -> bool:
        if not _finite(row.rt_max, row.lt_max):
            return False
        if row.sigma2 != 0.0:
            return True
        rt = 2 * part.dimension
        if not general:
            # the dyadic case study is exact (criterion 8)
            return row.rt_min == row.rt_max == row.rt_mean == rt and row.lt_mean == lat_lb
        # a general chain's instants are quantized to the step: refresh
        # within 2*dt of 2*d_max, and each of the m-1 relay hops may lose one
        # step to the boundary snap plus one to meeting detection
        lt_tol = 2 * DT * (part.cardinality - 1)
        return (
            _within(row.rt_min, rt, 2 * DT) and _within(row.rt_max, rt, 2 * DT)
            and _within(row.lt_min, lat_lb, lt_tol) and _within(row.lt_max, lat_lb, lt_tol)
        )


# ---------------------------------------------------------------------------
# scenario: one run at a time through the CLI


class Scenario(Workload):
    """CLI ``simulate`` to a CSV, ``rerun`` of its manifest, ``eval --trace``
    for three scenarios: the criterion-6 temporary failure, the criterion-7
    permanent failure with detection and repartition, and a general chain.
    An operation is one CLI command."""

    def __init__(self, seed: int, tiny: bool, workdir: str):
        super().__init__()
        self.workdir = workdir
        rng = np.random.default_rng(_seed(seed, 3))
        case = sim.case_study_chain(30)
        gen = general_chain(rng)
        case_path = self._write_roadmap("case_study", case)
        gen_path = self._write_roadmap("general_chain", gen)
        div = 10 if tiny else 1  # tiny runs shrink every time by 10
        p10 = 2 * prt.optimal_partition_bisect(case, 10, EPS)[0].dimension
        part9, _ = prt.optimal_partition_bisect(case, 9, EPS)
        gen8, _ = prt.optimal_partition_bisect(gen, 8, EPS)
        robot6, robot7 = (int(x) for x in rng.integers(1, 9, 2))
        sim_seeds = [int(x) for x in rng.integers(0, 2**31, 3)]
        # (name, roadmap, m, horizon, extra simulate flags, robots in the
        #  final partition, its period, robots expected to idle at the end)
        self.scenarios = [
            ("scenario.temporary_failure", case_path, 10, 520.0 / div,
             ["--fail", f"{robot6}:{300 / div}:{400 / div}"], 10, p10, 0),
            ("scenario.permanent_failure", case_path, 10, 440.0 / div,
             ["--fail", f"{robot7}:{300 / div}:inf", "--theta", repr(2 * p10),
              "--arm", repr(200 / div)],
             9, 2 * part9.dimension, 1 + (9 - part9.cardinality)),
            ("scenario.general_chain", gen_path, 8, 140.0 / div, [], 8,
             2 * gen8.dimension, 0),
        ]
        self.sim_seeds = sim_seeds
        self.snapshots: dict[str, bytes] = {}

    def _write_roadmap(self, name, chain) -> str:
        path = os.path.join(self.workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"kind": "chain", "coordinates": list(chain.coordinates)}, fh)
        return path

    def warm_up(self) -> None:
        out = os.path.join(self.workdir, "warm_up.csv")
        argv = ["simulate", "--roadmap", self.scenarios[0][1], "-m", "10",
                "--horizon", "4", "--out", out]
        if cli.dispatch(argv) != 0:
            raise RuntimeError("warm-up simulate failed")

    def _bytes_written(self, *paths) -> None:
        for p in paths:
            if os.path.exists(p):
                self.stats["cli.bytes_written"] += os.path.getsize(p)

    def round(self, r: int) -> list[Task]:
        tasks = []
        for k, (name, roadmap, m, horizon, flags, m_end, period, idle) in enumerate(self.scenarios):
            csv_path = os.path.join(self.workdir, f"{name}.csv")
            manifest = csv_path + ".manifest.json"
            eval_out = os.path.join(self.workdir, f"{name}.eval.json")
            general = name.endswith("general_chain")
            sim_argv = ["simulate", "--roadmap", roadmap, "-m", str(m), "--dt", repr(DT),
                        "--seed", str(self.sim_seeds[k] + r), "--horizon", repr(horizon),
                        *flags, "--out", csv_path]
            eval_argv = ["eval", "--roadmap", roadmap, "--trace", csv_path, "-m", str(m_end),
                         "--warmup", repr(horizon / 2 if general else horizon - 5 * period),
                         "--out", eval_out]
            rerun_argv = ["rerun", "--manifest", manifest]
            tasks += [
                Task(f"{name}.simulate", 1, lambda a=sim_argv: cli.dispatch(a),
                     partial(self._check_simulate, csv_path=csv_path, m=m, period=period,
                             idle=idle), general),
                Task(f"{name}.rerun", 1, lambda a=rerun_argv: cli.dispatch(a),
                     partial(self._check_rerun, csv_path=csv_path), general),
                Task(f"{name}.eval", 1, lambda a=eval_argv: cli.dispatch(a),
                     partial(self._check_eval, out=eval_out, period=period), general),
            ]
        return tasks

    def _check_simulate(self, rc, csv_path, m, period, idle) -> int:
        self._bytes_written(csv_path, csv_path + ".manifest.json")
        if rc != 0:
            return 1
        with open(csv_path, "rb") as fh:
            data = fh.read()
        self.snapshots[csv_path] = data
        # no stalled team: over the final two periods every robot moves,
        # except those permanently failed or parked on an empty cluster
        window = int(round(2 * period / DT))
        lines = data.rstrip(b"\n").split(b"\n")[-(window + 1) * m :]
        still = 0
        for robot in range(m):
            xs = {ln.split(b",")[2] for ln in lines[robot::m]}
            still += len(xs) == 1
        return int(still > idle)

    def _check_rerun(self, rc, csv_path) -> int:
        self._bytes_written(csv_path, csv_path + ".manifest.json")
        if rc != 0:
            return 1
        with open(csv_path, "rb") as fh:
            return int(fh.read() != self.snapshots.get(csv_path))

    def _check_eval(self, rc, out, period) -> int:
        self._bytes_written(out, out + ".manifest.json")
        if rc != 0:
            return 1
        with open(out, encoding="utf-8") as fh:
            rt = float(json.load(fh)["refresh_time"])
        return int(not _within(rt, period, 2 * DT))


# ---------------------------------------------------------------------------
# exact: closed-form synthesis certified in rational arithmetic


class Exact(Workload):
    """Synthesize with each closed-form synthesizer and certify its identity
    with ``==`` on the criterion 2-4 instance families, with horizons from 4
    to 64 periods.  An operation is one trajectory synthesized and
    certified."""

    HORIZONS = (4, 8, 16, 32, 64)
    # a latency identity needs the horizon to hold a complete relay; with
    # ten clusters that takes up to five periods, so latency ops start at
    # criterion 4's six periods
    MIN_LATENCY_PERIODS = 6

    def __init__(self, seed: int, tiny: bool, workdir: str):
        super().__init__()
        rng = random.Random(_seed(seed, 4))
        pool = 4 if tiny else 128
        n, m = (12, 3) if tiny else (60, 10)
        self.horizons = (4, 8) if tiny else self.HORIZONS
        self.refresh = []
        for _ in range(pool):
            # criterion 2's family (random_chain, gaps in [0.1, 10]) at its largest n
            coords = [0.0]
            for _ in range(n - 1):
                coords.append(coords[-1] + rng.uniform(0.1, 10.0))
            part, _ = prt.optimal_partition_bisect(rdm.ChainRoadmap(coords), m, EPS)
            self.refresh.append(part)
        self.latency = []
        for _ in range(pool):
            chain, part = self._singleton_group_instance(rng, m)
            self.latency.append((chain, part, met.latency_lower_bounds(part)))

    @staticmethod
    def _singleton_group_instance(rng: random.Random, m: int):
        """Criteria 3 and 4's family: cluster lengths in [0.55, 1] of a scale
        and gaps below it, so every aggregated group is one cluster."""
        scale = rng.uniform(0.5, 5.0)
        d = [rng.uniform(0.55, 1.0) * scale for _ in range(m)]
        gaps = [rng.uniform(0.1, 1.0) * scale for _ in range(m - 1)]
        coords, x = [], 0.0
        for i in range(m):
            coords += [x, x + d[i]]
            x += d[i] + (gaps[i] if i < m - 1 else 0.0)
        chain = rdm.ChainRoadmap(coords)
        part = prt.partition_from_clusters(chain, tuple((2 * i, 2 * i + 1) for i in range(m)))
        return chain, part

    def warm_up(self) -> None:
        part = self.refresh[0]
        met.refresh_time(trj.min_refresh_trajectory(part, 4 * part.dimension_exact))

    def round(self, r: int) -> list[Task]:
        tasks = []
        for j, k in enumerate(self.horizons):
            slot = r * len(self.horizons) + j
            part = self.refresh[slot % len(self.refresh)]
            chain, lpart, (up_lb, per_lb) = self.latency[slot % len(self.latency)]
            kl = max(k, self.MIN_LATENCY_PERIODS)
            tasks += [
                Task(f"exact.refresh.{k}", 1,
                     lambda p=part, k=k: met.refresh_time(
                         trj.min_refresh_trajectory(p, k * 2 * p.dimension_exact)),
                     lambda rt, p=part: int(rt != 2 * p.dimension)),
                Task(f"exact.up_latency.{kl}", 1,
                     lambda c=chain, p=lpart, k=kl: met.latency(
                         trj.min_up_latency_trajectory(p, k * 2 * p.dimension_exact), c),
                     lambda res, lb=up_lb: int(res.up != lb)),
                Task(f"exact.latency.{kl}", 1,
                     lambda c=chain, p=lpart, k=kl: met.latency(
                         trj.min_latency_trajectory(p, k * 2 * p.dimension_exact), c),
                     lambda res, lb=per_lb: int(res.overall != lb)),
            ]
        return tasks


# ---------------------------------------------------------------------------
# planners: partition, path cover, chainification and tree search


def greedy_count(coords: np.ndarray, rho: float) -> int:
    """Clusters of span at most rho that a left-to-right greedy cover needs
    (the harness's own copy, used to certify bisection results)."""
    i = k = 0
    while i < len(coords):
        k += 1
        i = int(np.searchsorted(coords, coords[i] + rho, side="right"))
    return k


def random_metric_roadmap(rng: random.Random, n: int):
    """Random connected roadmap on planar points with Euclidean edge lengths,
    so every edge is a shortest route (criterion 10's generator at fixed n)."""
    pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
    ids = [f"v{i}" for i in range(n)]

    def dist(i, j):
        return math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1]) + 1e-9

    edges, have = [], set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((ids[i], ids[j], dist(i, j)))
        have.add(frozenset((i, j)))
    for _ in range(rng.randint(0, n)):
        i, j = rng.sample(range(n), 2)
        if frozenset((i, j)) not in have:
            have.add(frozenset((i, j)))
            edges.append((ids[i], ids[j], dist(i, j)))
    return rdm.Roadmap(ids, edges)


def random_tree(rng: random.Random, n: int):
    ids = [f"v{i}" for i in range(n)]
    edges = [(ids[i], ids[rng.randrange(i)], rng.uniform(0.2, 3.0)) for i in range(1, n)]
    return rdm.TreeRoadmap(ids, edges)


class Planners(Workload):
    """Chain partition at n = 1e3, 1e4, 1e5 (exact search at 1e3), min-max
    path cover against its exhaustive oracle at n=8, chainification of
    random metric roadmaps, and the exhaustive subtree search at n=15 with
    m = 4 and 6.  An operation is one planner call."""

    def __init__(self, seed: int, tiny: bool, workdir: str):
        super().__init__()
        nrng = np.random.default_rng(_seed(seed, 5))
        rng = random.Random(_seed(seed, 6))
        sizes = ((200, 5), (500, 10), (1000, 20)) if tiny else (
            (1000, 10), (10000, 50), (100000, 200))
        self.chains = []
        for n, m in sizes:
            coords = np.concatenate(([0.0], np.cumsum(nrng.uniform(0.1, 10.0, n - 1))))
            self.chains.append((rdm.ChainRoadmap(coords.tolist()), coords, m))
        pool = 2 if tiny else 16
        n_cover, n_chain, n_tree = (5, 6, 6) if tiny else (8, 12, 15)
        self.cover_m = (1, 2) if tiny else (1, 2, 3)
        self.tree_m = (2, 3) if tiny else (4, 6)
        self.covers = [random_metric_roadmap(rng, n_cover) for _ in range(pool)]
        self.chainify = [(g, rng.randint(1, g.n - 1)) for g in
                         (random_metric_roadmap(rng, n_chain) for _ in range(pool))]
        self.trees = [random_tree(rng, n_tree) for _ in range(pool)]
        self.shared: dict[str, Any] = {}

    def warm_up(self) -> None:
        g = self.covers[0]
        cov.exact_path_cover(g, 1)
        cov.minmax_path_cover(g, 1)

    def round(self, r: int) -> list[Task]:
        # the bisection path, and with it the cost, depends on m: cycling m
        # over rounds keeps one seed's chains from setting the run's rate
        shift = r % 10
        chain0, _, m_exact = self.chains[0]
        m_exact += shift
        tasks = [Task("planners.partition_exact", 1,
                      lambda: prt.optimal_partition_exact(chain0, m_exact),
                      lambda part: self._keep("exact", part, part.cardinality > m_exact))]
        for k, (chain, coords, m0) in enumerate(self.chains):
            m = m0 + shift
            tasks.append(Task(
                f"planners.partition_bisect.{chain.n}", 1,
                lambda c=chain, m=m: prt.optimal_partition_bisect(c, m, EPS),
                lambda out, c=coords, m=m, first=k == 0: self._check_bisect(out, c, m, first)))
        for j, m in enumerate(self.cover_m):
            g = self.covers[(r * len(self.cover_m) + j) % len(self.covers)]
            tasks += [
                Task(f"planners.exact_path_cover.m{m}", 1,
                     lambda g=g, m=m: cov.exact_path_cover(g, m),
                     lambda out, m=m: self._keep("oracle", out, len(out.paths) > m)),
                Task(f"planners.minmax_path_cover.m{m}", 1,
                     lambda g=g, m=m: self._cover(g, m), self._check_cover),
            ]
        # one chainification per round keeps the pooled median call time in
        # the middle of the oracle calls, away from the gap between call kinds
        g, m = self.chainify[r % len(self.chainify)]
        tasks.append(Task(
            "planners.chain_tour_approximation", 1,
            lambda: cov.chain_tour_approximation(g, m, EPS, horizon=1000.0),
            lambda out: int(not out[2].ratio <= out[2].ratio_bound + 1e-9)))
        for j, m in enumerate(self.tree_m):
            tree = self.trees[(r * len(self.tree_m) + j) % len(self.trees)]
            total = sum(Fraction(w) for _, _, w in tree.edges)
            tasks += [
                Task(f"planners.optimal_subtree_collection.m{m}", 1,
                     lambda t=tree, m=m: tre.optimal_subtree_collection(t, m),
                     # riding the whole tour with m equally spaced robots is
                     # one candidate, so the optimum is at most 2*W/m
                     lambda out, m=m, w=total: self._keep(
                         "subtree", out, out.m != m or out.objective_exact > 2 * w / m)),
                Task(f"planners.efficient_trajectory.m{m}", 1, self._efficient,
                     lambda traj: int(traj.refresh_time() != self.shared["subtree"].objective)),
            ]
        return tasks

    def _keep(self, key, out, bad) -> int:
        self.shared[key] = out
        return int(bool(bad))

    def _efficient(self):
        coll = self.shared["subtree"]
        return tre.efficient_trajectory(coll, horizon=max(1.0, 2.0 * coll.objective))

    def _check_bisect(self, out, coords, m, against_exact) -> int:
        part, _ = out
        if part.cardinality > m:
            return 1
        if against_exact:
            # criterion 1: within eps of the exact optimum
            gap = part.dimension_exact - self.shared["exact"].dimension_exact
            return int(not 0 <= gap <= EPS)
        # any span eps below the result needs more than m clusters (plus a
        # few ulps of the largest coordinate for rounding in the greedy)
        rho = part.dimension - EPS - 4 * float(np.spacing(coords[-1]))
        return int(greedy_count(coords, rho) <= m)

    @staticmethod
    def _cover(g, m):
        cover = cov.minmax_path_cover(g, m)
        traj = cov.path_cover_trajectory(cover, m, horizon=max(4 * cover.cost, 1.0))
        return cover, traj.refresh_time()

    def _check_cover(self, out) -> int:
        cover, rt = out
        if rt != 2 * cover.cost:  # criterion 10: the sweep refreshes in twice the cost
            return 1
        opt = self.shared["oracle"].cost_exact
        if opt == 0:
            return int(cover.cost_exact != 0)
        factor = cover.cost_exact / opt
        self.stats["cover.factor_max"] = max(self.stats["cover.factor_max"], float(factor))
        # the heuristic stays within 4x (criterion 10) and the oracle never
        # loses to it, beyond the last bits: the oracle minimizes float path
        # sums, whose exact values can differ by a few ulps
        return int(not 1 - 1e-9 <= factor <= 4)


WORKLOADS = {"sweep": Sweep, "scenario": Scenario, "exact": Exact, "planners": Planners}
