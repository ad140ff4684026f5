"""Acceptance suite: one test per team-level performance criterion.

Each test exercises its criterion at the stated tolerance and prints a
single pass line on success (run with ``pytest -s`` or ``-rA`` to see
them).  Random instances are generated from fixed seeds so the suite is
deterministic end to end.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time

import pytest
from scipy.stats import spearmanr

from patrolsim.cli import dispatch
from patrolsim.cover import (
    chain_tour_approximation,
    exact_path_cover,
    minmax_path_cover,
    path_cover_trajectory,
)
from patrolsim.metrics import (
    latency,
    latency_lower_bounds,
    refresh_time,
    refresh_time_from_trace,
)
from patrolsim.partition import (
    optimal_partition_bisect,
    optimal_partition_exact,
)
from patrolsim.roadmap import Roadmap, TreeRoadmap
from patrolsim.simulate import (
    FailureWindow,
    SimConfig,
    case_study_chain,
    evaluate_trace,
    noise_sweep,
    simulate,
)
from patrolsim.trajectories import (
    min_latency_trajectory,
    min_refresh_trajectory,
    min_up_latency_trajectory,
)
from patrolsim.tree import depth_first_tour, efficient_trajectory, optimal_subtree_collection

from conftest import (
    fig_style_instance,
    random_chain,
    random_metric_roadmap,
    sampled_latency_oracle,
    singleton_group_instance,
)
from test_tree import best_partition_based, unit_star


EPS = 1e-9
DT = 1.0 / 32.0


def announce(num: int, message: str) -> None:
    print(f"\n[criterion {num:02d}] PASS: {message}")


@pytest.fixture(scope="module")
def chain_instances():
    rng = random.Random(0xC1)
    out = []
    for _ in range(200):
        chain = random_chain(rng, n_max=60, lo=0.1, hi=10.0)
        m = rng.randint(1, chain.n - 1)
        out.append((chain, m))
    return out


@pytest.fixture(scope="module")
def latency_instances():
    rng = random.Random(0xC3)
    out = [singleton_group_instance(rng) for _ in range(99)]
    out.append(fig_style_instance(c=2.0))
    return out


def test_criterion_01_partition_optimality(chain_instances):
    t0 = time.perf_counter()
    for chain, m in chain_instances:
        part, report = optimal_partition_bisect(chain, m, EPS)
        exact = optimal_partition_exact(chain, m)
        gap = part.dimension_exact - exact.dimension_exact
        assert 0 <= gap <= EPS
        bound = math.ceil(math.log2(2 * chain.length / (EPS * m)))
        assert report.iterations <= bound
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    announce(
        1,
        f"200 random chains: bisection within {EPS} of the exact optimum, "
        f"iteration bound respected, {elapsed:.2f}s total",
    )


def test_criterion_02_refresh_time_theorem(chain_instances):
    for chain, m in chain_instances:
        part, _ = optimal_partition_bisect(chain, m, EPS)
        traj = min_refresh_trajectory(part, horizon=6 * part.dimension)
        assert refresh_time(traj) == 2 * part.dimension
    # sampled verification on a bounded subset at the stated step
    dt = 1e-3
    rng = random.Random(0xC2)
    for _ in range(12):
        chain = random_chain(rng, n_max=12, lo=0.1, hi=1.0)
        m = rng.randint(1, chain.n - 1)
        part, _ = optimal_partition_bisect(chain, m, EPS)
        traj = min_refresh_trajectory(part, horizon=6 * part.dimension)
        times, pos = traj.sample(dt)
        sampled = refresh_time_from_trace(
            times, pos, chain.coordinates, eta=dt, warmup=0.0, cap=2 * part.dimension
        )
        assert abs(sampled - 2 * part.dimension) <= 2 * dt
    announce(
        2,
        "analytic refresh time equals twice the dimension on all 200 "
        "instances; sampled evaluation within 2*dt at dt=1e-3",
    )


def test_criterion_03_up_latency_theorem(latency_instances):
    for k, (chain, part) in enumerate(latency_instances):
        up_lb, _ = latency_lower_bounds(part)
        traj = min_up_latency_trajectory(part, horizon=12 * part.dimension)
        res = latency(traj, chain)
        assert res.up == up_lb
        if k % 20 == 0:  # independent sampled propagation oracle spot checks
            oracle_up, _, _ = sampled_latency_oracle(traj, chain, dt=1e-3)
            assert abs(oracle_up - up_lb) <= 5e-3
    announce(
        3,
        "staggered sweep attains the interior-length up-latency bound "
        "exactly on all 100 instances (oracle-confirmed)",
    )


def test_criterion_04_latency_theorem(latency_instances):
    for k, (chain, part) in enumerate(latency_instances):
        _, per_lb = latency_lower_bounds(part)
        traj = min_latency_trajectory(part, horizon=12 * part.dimension)
        res = latency(traj, chain)
        assert res.overall == per_lb
        if k % 20 == 0:
            _, _, oracle = sampled_latency_oracle(traj, chain, dt=1e-3)
            assert abs(oracle - per_lb) <= 5e-3
    # the worked reduction: aggregated groups {1,2},{3} leave exactly the
    # middle cluster's length
    chain, part = fig_style_instance(c=2.0)
    assert latency_lower_bounds(part)[1] == part.length(1) == 2.0
    announce(
        4,
        "group-synchronized sweep attains the periodic latency bound on all "
        "100 instances, including the aggregated case reducing to d_2",
    )


def test_criterion_05_distributed_convergence():
    chain = case_study_chain(30)
    part, _ = optimal_partition_bisect(chain, 10, EPS)
    per_lb = latency_lower_bounds(part)[1]
    tol = 2 * DT
    for seed in range(100):
        trace = simulate(chain, part, SimConfig(dt=DT, horizon=160.0, seed=seed))
        tm = evaluate_trace(trace)
        assert tm.converged, f"seed {seed} never settled"
        assert abs(tm.refresh - 2 * part.dimension) <= tol
        assert abs(tm.latency - per_lb) <= tol
    announce(
        5,
        "30-viewpoint chain, 10 robots, 100 seeds: every run converges to "
        "the optimal sweep (RT=4, LT=16, tolerance 2*dt)",
    )


def test_criterion_06_temporary_failure():
    chain = case_study_chain(30)
    part, _ = optimal_partition_bisect(chain, 10, EPS)
    tol = 2 * DT
    cfg = SimConfig(dt=DT, horizon=520.0, seed=5, failures=(FailureWindow(6, 300.0, 400.0),))
    trace = simulate(chain, part, cfg)
    k = lambda t: int(round(t / DT))
    rt_pre = refresh_time_from_trace(
        trace.times[: k(300)], trace.positions[: k(300)], chain.coordinates,
        warmup=100.0, cap=2 * part.dimension,
    )
    assert abs(rt_pre - 2 * part.dimension) <= tol
    rt_during = refresh_time_from_trace(
        trace.times[k(300) : k(400)], trace.positions[k(300) : k(400)],
        chain.coordinates, warmup=300.0, strict=True,
    )
    assert rt_during > 2 * part.dimension  # performance lost while stopped
    tm = evaluate_trace(trace)
    assert tm.converged and 400.0 <= tm.warmup <= 520.0 - 4 * part.dimension
    assert abs(tm.refresh - 2 * part.dimension) <= tol
    assert abs(tm.latency - latency_lower_bounds(part)[1]) <= tol
    announce(
        6,
        "temporary stop of robot 6 in [300,400]: optimal before, degraded "
        "during, resynchronized after the resume",
    )


def test_criterion_07_permanent_failure():
    chain = case_study_chain(30)
    part, _ = optimal_partition_bisect(chain, 10, EPS)
    theta = 2 * (2 * part.dimension)
    cfg = SimConfig(
        dt=DT, horizon=440.0, seed=5, failures=(FailureWindow(6, 300.0),),
        detection_theta=theta, detection_arm_time=200.0,
    )
    trace = simulate(chain, part, cfg)
    assert trace.detect_time is not None
    expected = min(
        max(t for t, kind, i, j in trace.events
            if kind == "comm" and (i, j) == pair and t <= 300.0) + theta
        for pair in ((5, 6), (6, 7))
    )
    assert abs(trace.detect_time - expected) <= 2 * DT
    new = trace.new_partition
    assert new is not None and new.m == 9
    exact9 = optimal_partition_exact(chain, 9)
    assert abs(new.dimension - exact9.dimension) <= EPS
    assert new.dimension >= part.dimension
    tm = evaluate_trace(trace)
    assert tm.converged
    assert abs(tm.refresh - 2 * exact9.dimension) <= 2 * DT
    announce(
        7,
        f"permanent failure detected {theta}s after the last neighbor "
        f"contact; survivors repartition to dimension {new.dimension} "
        f">= {part.dimension} and refresh settles at twice that",
    )


@pytest.mark.slow
def test_criterion_08_noise_sweep_trend():
    chain = case_study_chain(30)
    part, _ = optimal_partition_bisect(chain, 10, EPS)
    variances = [round(0.02 * k, 2) for k in range(26)]  # 0, 0.02, ..., 0.5
    rows = noise_sweep(
        chain, part, variances, runs=100, master_seed=0xF18, dt=DT, horizon=140.0
    )
    assert rows[0].rt_mean == 2 * part.dimension
    assert rows[0].lt_mean == latency_lower_bounds(part)[1]
    assert rows[0].rt_min == rows[0].rt_max == rows[0].rt_mean
    rt_corr = spearmanr(variances, [r.rt_mean for r in rows]).statistic
    lt_corr = spearmanr(variances, [r.lt_mean for r in rows]).statistic
    assert rt_corr >= 0.9
    assert lt_corr >= 0.9
    announce(
        8,
        f"noise sweep over 26 variances x 100 runs: zero-noise row exact, "
        f"Spearman trend RT={rt_corr:.3f}, LT={lt_corr:.3f}",
    )


def test_criterion_09_tree_counterexamples():
    star = unit_star()
    coll = optimal_subtree_collection(star, 2)
    assert coll.objective == 3.0
    assert best_partition_based(star, 2) == 4.0
    assert coll.objective < 4.0
    traj = efficient_trajectory(coll, horizon=30)
    assert traj.refresh_time() == 3.0
    # schedule period matches the whole-tour length with two equally
    # spaced robots
    assert float(depth_first_tour(star).length) == 6.0
    for eps in (0.1, 0.01):
        t = TreeRoadmap(["v1", "v2", "v3"], [("v1", "v2", eps), ("v2", "v3", 1.0)])
        c = optimal_subtree_collection(t, 2)
        cyclic = float(depth_first_tour(t).length) / 2
        assert math.isclose(c.objective, 2 * eps)
        assert c.objective < cyclic
    announce(
        9,
        "unit star: exhaustive optimum 3 beats the best partition strategy "
        "(4); short-branch tree: optimum 2*eps beats the whole-tour sweep",
    )


def test_criterion_10_path_cover_factor():
    t0 = time.perf_counter()
    rng = random.Random(0xC10)
    for _ in range(100):
        g = random_metric_roadmap(rng, n_lo=4, n_hi=8)
        m = rng.randint(1, 3)
        cover = minmax_path_cover(g, m)
        opt = exact_path_cover(g, m)
        if opt.cost_exact == 0:
            assert cover.cost_exact == 0
        else:
            assert cover.cost_exact <= 4 * opt.cost_exact
        traj = path_cover_trajectory(cover, m, horizon=max(4 * cover.cost, 1.0))
        assert traj.refresh_time() == 2 * cover.cost
        assert traj.refresh_time() <= 8 * opt.cost + 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    announce(
        10,
        f"100 random roadmaps: heuristic cover within 4x of the exact "
        f"oracle, sweep refresh exactly twice the cover cost, {elapsed:.1f}s",
    )


def test_criterion_11_chainification_bound():
    rng = random.Random(0xC11)
    for _ in range(100):
        g = random_metric_roadmap(rng, n_lo=4, n_hi=12)
        m = rng.randint(1, g.n - 1)
        _, _, cert = chain_tour_approximation(g, m, EPS, horizon=1000.0)
        assert cert.ratio <= cert.ratio_bound + 1e-9
    ratios = []
    for eps in (1.0, 0.5, 0.1, 0.01):
        ids = ["a", "x", "b", "c", "d", "e"]
        edges = [("a", "x", eps / 2), ("x", "b", eps / 2),
                 ("x", "c", 1.0), ("x", "d", 1.0), ("x", "e", 1.0)]
        g = Roadmap(ids, edges)
        _, _, cert = chain_tour_approximation(g, 4, EPS, horizon=40.0)
        ratios.append(cert.rt_gamma / (2 * eps))  # true optimum is 2*eps
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    announce(
        11,
        "chainified refresh within ((n-2)/n)*8*gamma of the lower bound on "
        "100 roadmaps; ratio grows monotonically as the short edge shrinks",
    )


def test_criterion_12_manifest_determinism(tmp_path):
    chain_doc = {"kind": "chain", "coordinates": [float(i) for i in range(12)]}
    roadmap = tmp_path / "chain.json"
    roadmap.write_text(json.dumps(chain_doc))

    def digest(p):
        return hashlib.sha256(p.read_bytes()).hexdigest()

    checked = []
    for argv, out in (
        (["simulate", "--roadmap", str(roadmap), "-m", "4", "--sigma2", "0.1",
          "--seed", "9", "--horizon", "40"], tmp_path / "trace.csv"),
        (["partition", "--roadmap", str(roadmap), "-m", "4"], tmp_path / "part.json"),
        (["sweep", "--roadmap", str(roadmap), "-m", "4", "--sigmas", "0,0.1",
          "--runs", "2", "--seed", "3", "--horizon", "40"], tmp_path / "sweep.csv"),
    ):
        assert dispatch(argv + ["--out", str(out)]) == 0
        before = digest(out)
        manifest = out.parent / (out.name + ".manifest.json")
        assert dispatch(["rerun", "--manifest", str(manifest)]) == 0
        assert digest(out) == before
        checked.append(out.name)
    announce(12, f"manifest reruns reproduced {', '.join(checked)} bit-exactly")
