from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from patrolsim.metrics import communication_instants, latency_lower_bounds
from patrolsim.partition import (
    InfeasibleError,
    optimal_partition_bisect,
    partition_from_clusters,
)
from patrolsim.roadmap import ChainRoadmap
from patrolsim.simulate import (
    FailureWindow,
    SimConfig,
    _free_run,
    _station_keep,
    case_study_chain,
    convergence_time,
    evaluate_trace,
    noise_sweep,
    run_seed,
    simulate,
)
from patrolsim.trajectories import min_latency_trajectory

DT = 1.0 / 32.0


def uniform_case(m=10):
    chain = case_study_chain()
    part, _ = optimal_partition_bisect(chain, m, 1e-9)
    return chain, part


class TestBasics:
    def test_determinism(self):
        chain, part = uniform_case()
        cfg = SimConfig(dt=DT, horizon=80.0, seed=11, sigma2=0.2)
        a = simulate(chain, part, cfg)
        b = simulate(chain, part, cfg)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.dirs, b.dirs)
        assert a.events == b.events

    def test_single_robot_sweeps_forever(self):
        chain = ChainRoadmap([0.0, 1.0, 2.0])
        part = partition_from_clusters(chain, ((0, 1, 2),))
        cfg = SimConfig(dt=DT, horizon=40.0, seed=3)
        trace = simulate(chain, part, cfg)
        tm = evaluate_trace(trace)
        assert tm.converged
        assert tm.refresh == 2 * part.dimension == 4.0
        assert not [e for e in trace.events if e[1] == "comm"]

    def test_speed_and_containment(self):
        chain, part = uniform_case()
        trace = simulate(chain, part, SimConfig(dt=DT, horizon=60.0, seed=9))
        steps = np.abs(np.diff(trace.positions, axis=0))
        assert steps.max() <= DT + 1e-12
        for i in range(10):
            xs = trace.positions[:, i]
            assert xs.min() >= part.left(i) - 1e-9
            assert xs.max() <= part.right(i) + 1e-9

    def test_order_invariance(self):
        chain, part = uniform_case()
        trace = simulate(chain, part, SimConfig(dt=DT, horizon=60.0, seed=13))
        pos = trace.positions
        assert (pos[:, :-1] <= pos[:, 1:] + 1e-9).all()

    def test_zero_length_cluster_rejected(self):
        chain = ChainRoadmap([0.0, 1.0, 3.0, 6.0])
        part = partition_from_clusters(chain, ((0, 1), (2,), (3,)))
        with pytest.raises(InfeasibleError, match="zero-length"):
            simulate(chain, part, SimConfig(dt=DT, horizon=20.0, seed=0))

    def test_dt_too_coarse_rejected(self):
        chain, part = uniform_case()
        with pytest.raises(ValueError, match="too coarse"):
            simulate(chain, part, SimConfig(dt=0.5, horizon=20.0, seed=0))

    def test_intermediate_horizon_must_align(self):
        with pytest.raises(ValueError, match="integer number of steps"):
            SimConfig(dt=DT, horizon=10.01, seed=0)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            SimConfig(dt=DT, horizon=horizon, seed=0)

    @pytest.mark.parametrize("dt", [float("inf"), float("nan")])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be finite"):
            SimConfig(dt=dt, horizon=10.0, seed=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sigma2", float("nan")),
            ("sigma2", float("inf")),
            ("sigma2", -0.1),
            ("eta", float("nan")),
            ("eta", -1e-6),
            ("detection_theta", 0.0),
            ("detection_theta", -5.0),
            ("detection_theta", float("nan")),
            ("detection_theta", float("inf")),
            ("detection_arm_time", float("nan")),
            ("detection_arm_time", -100.0),
            ("detection_arm_time", float("inf")),
        ],
    )
    def test_bad_noise_or_tolerance_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be"):
            SimConfig(dt=DT, horizon=10.0, seed=0, **{field: value})

    @pytest.mark.parametrize(
        "window, match",
        [
            (FailureWindow(12, 5.0, 10.0), "not one of 0..9"),
            (FailureWindow(-1, 5.0, 10.0), "not one of 0..9"),
            (FailureWindow(3, 10.0, 5.0), "must end after its start"),
            (FailureWindow(3, 5.0, 5.0), "must end after its start"),
            # off the step grid: the toggle would round to a step whose time
            # the window test misses, so the robot would not stop (or resume)
            (FailureWindow(3, 5.01, 10.0), r"robot 3 must start on a step .*got 5\.01"),
            (FailureWindow(3, 5.0, 10.01), r"robot 3 must end on a step .*got 10\.01"),
            # the event log would report a resume at 10 while robot 3 stays
            # down until 15, or nothing at all
            (
                (FailureWindow(3, 5.0, 10.0), FailureWindow(3, 8.0, 15.0)),
                r"robot 3 overlap or touch: \[5\.0, 10\.0\) and \[8\.0, 15\.0\)",
            ),
            (
                (FailureWindow(3, 10.0, 15.0), FailureWindow(3, 5.0, 10.0)),
                r"robot 3 overlap or touch: \[5\.0, 10\.0\) and \[10\.0, 15\.0\)",
            ),
            (FailureWindow(3, 20.0, 30.0), r"robot 3 must start in \[0, 20\.0\), got 20\.0"),
        ],
    )
    def test_bad_failure_window_rejected(self, window, match):
        chain, part = uniform_case()
        windows = window if isinstance(window, tuple) else (window,)
        with pytest.raises(ValueError, match=match):
            simulate(chain, part, SimConfig(dt=DT, horizon=20.0, seed=0, failures=windows))

    def test_windows_of_different_robots_may_overlap(self):
        chain, part = uniform_case()
        windows = (FailureWindow(3, 5.0, 10.0), FailureWindow(4, 8.0, 15.0))
        trace = simulate(chain, part, SimConfig(dt=DT, horizon=20.0, seed=0, failures=windows))
        assert [e for e in trace.events if e[1] in ("fail", "resume")] == [
            (5.0, "fail", 3, -1), (8.0, "fail", 4, -1), (10.0, "resume", 3, -1),
            (15.0, "resume", 4, -1),
        ]

    def test_every_meeting_is_logged(self):
        # a pair meets on each rising edge of "left robot at its right end
        # and right robot at its left end"; every such edge must be a comm
        # event, however many there are
        chain, part = uniform_case()
        cfg = SimConfig(dt=DT, horizon=160.0, seed=4)
        trace = simulate(chain, part, cfg)
        pos = trace.positions[:-1]  # the kernel tests meetings at step starts
        for p in range(part.m - 1):
            together = (np.abs(pos[:, p] - part.right(p)) <= cfg.eta) & (
                np.abs(pos[:, p + 1] - part.left(p + 1)) <= cfg.eta
            )
            rising = np.flatnonzero(together & ~np.concatenate(([False], together[:-1])))
            logged = [t for t, kind, i, j in trace.events if kind == "comm" and i == p]
            assert len(rising) > 0
            assert len(logged) == len(rising)
            assert logged == [k * cfg.dt for k in rising.tolist()]

    def test_window_within_the_grid_tolerance_stops_the_robot(self):
        chain, part = uniform_case()
        window = FailureWindow(3, 20.0 + 1e-12, 30.0)
        cfg = SimConfig(dt=DT, horizon=40.0, seed=0, failures=(window,))
        frozen = simulate(chain, part, cfg).positions[640:961, 3]  # t = 20 .. 30
        assert (frozen == frozen[0]).all()

    def test_short_runs_on_general_chains_do_not_raise(self):
        # a short run on each of 100 non-dyadic chains (40 viewpoints, gaps
        # U[0.3, 2], 8 robots), whose waits are not whole numbers of steps
        for seed in range(100):
            gaps = np.random.default_rng(seed).uniform(0.3, 2.0, 39)
            chain = ChainRoadmap([0.0] + np.cumsum(gaps).tolist())
            part, _ = optimal_partition_bisect(chain, 8, 1e-9)
            trace = simulate(chain, part, SimConfig(dt=DT, horizon=4.0, seed=0))
            assert trace.positions.shape == (129, 8)

    @pytest.mark.parametrize("warmup", [80.0, 100.0, -5.0, float("nan")])
    def test_warmup_outside_the_trace_rejected(self, warmup):
        chain, part = uniform_case()
        trace = simulate(chain, part, SimConfig(dt=DT, horizon=80.0, seed=0))
        with pytest.raises(ValueError, match="outside the trace"):
            evaluate_trace(trace, warmup=warmup)

    def test_partition_of_another_chain_is_rejected(self):
        # the same viewpoint count twice as far apart: before this check the
        # robots swept the partition's chain, out to 58 on a chain ending at
        # 29, and evaluation reported an infinite refresh time as converged
        chain = case_study_chain(30)
        part, _ = optimal_partition_bisect(case_study_chain(30, 2.0), 10, 1e-9)
        match = "30 viewpoints ending at 58.0, not .* 30 viewpoints ending at 29.0"
        with pytest.raises(ValueError, match=match):
            simulate(chain, part, SimConfig(dt=DT, horizon=10.0, seed=0))

    def test_partition_of_an_equal_chain_is_accepted(self):
        chain, part = uniform_case()
        trace = simulate(case_study_chain(30), part, SimConfig(dt=DT, horizon=60.0, seed=9))
        assert np.array_equal(
            trace.positions, simulate(chain, part, SimConfig(dt=DT, horizon=60.0, seed=9)).positions
        )


def _stepped(x, u, noise, dt, li, ri, eta):
    """The kernel's integration of a free robot, one step at a time, up to
    the first position that a snap or a boundary flag would act on."""
    path = []
    for n in noise:
        x = x + (u + n) * dt
        if x >= ri or x <= li or -eta <= x - li <= eta or -eta <= x - ri <= eta:
            break
        path.append(x)
    return path


def _flown(x, u, noise, dt, li, ri, eta):
    """``_free_run``'s path over all of ``noise``, passed as None, the
    kernel's form of zero noise, when it is all zeros."""
    out = np.empty(len(noise) + 1)
    work = (np.empty(2 * len(noise)), np.empty(len(noise), bool))
    c = _free_run(x, u, noise if noise.any() else None, dt, li, ri, eta, out, work)
    assert out[0] == x
    return out[1 : c + 1].tolist()


class TestFreeFlight:
    """``_free_run`` against the per-step loop it stands in for."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_stretch_equals_the_step_loop(self, data):
        li = data.draw(st.floats(-40.0, 40.0), label="li")
        ri = li + data.draw(st.floats(0.1, 12.0), label="length")
        eta = data.draw(st.sampled_from([0.0, 1e-6]), label="eta")
        dt = data.draw(st.sampled_from([1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0]), label="dt")
        u = data.draw(st.sampled_from([1.0, -1.0]), label="u")
        # start within a few steps of the boundary behind the robot or ahead
        # of it, on a boundary, or halfway
        near = data.draw(st.floats(-1e-6, 4 * dt), label="offset")
        rear, front = (li + near, ri - near) if u > 0 else (ri - near, li + near)
        x = data.draw(st.sampled_from([rear, front, li, ri, (li + ri) / 2.0]), label="x")
        # sigma 0.71 makes u + n < 0 in about one step in twelve
        sigma = data.draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.71]), label="sigma")
        steps = data.draw(st.integers(1, 1500), label="steps")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        noise = np.random.default_rng(seed).normal(0.0, sigma, steps)
        assert _flown(x, u, noise, dt, li, ri, eta) == _stepped(
            x, u, noise.tolist(), dt, li, ri, eta
        )

    @pytest.mark.parametrize("eta", [0.0, 1e-6])
    @pytest.mark.parametrize("u", [1.0, -1.0])
    def test_stretch_ends_at_either_boundary(self, u, eta):
        # a step forward, then noise turns the robot back past the boundary
        # it left; and a plain run to the boundary ahead
        dt, li, ri = 1.0 / 32.0, 2.0, 5.0
        rear = li + dt / 2 if u > 0 else ri - dt / 2
        back = np.array([0.0, -2.0 * u, -2.0 * u, 0.0])
        path = _flown(rear, u, back, dt, li, ri, eta)
        assert path == _stepped(rear, u, back.tolist(), dt, li, ri, eta)
        assert path == [rear + dt * u, rear]
        ahead = np.zeros(200)
        path = _flown(rear, u, ahead, dt, li, ri, eta)
        assert path == _stepped(rear, u, ahead.tolist(), dt, li, ri, eta)
        assert len(path) == 95 and abs(path[-1] - (ri if u > 0 else li)) == dt / 2


def _held(x, h, ti, noise, dt, li, ri, eta):
    """The kernel's steps of a robot holding at ``h``, its timer at ``ti``
    after the first step's countdown, one step at a time: up to the step
    whose timer fires or the first position whose flag at the other
    boundary is up.  Returns the positions and the timer after the last."""
    far = ri if h == li else li
    path = []
    for n in noise:
        t = ti
        if path and t >= 0.0:  # the countdown before each later step
            if t < dt:
                break
            t = t - dt
        assert li - eta <= x <= ri + eta  # the step snaps onto li and ri
        u = max(-1.0, min(1.0, (h - x) / dt))
        y = x + (u + n) * dt
        if y >= ri:
            y = ri
        elif y <= li:
            y = li
        if -eta <= y - far <= eta:
            break
        x, ti = y, t
        path.append(y)
    return path, ti


class TestStationKeeping:
    """``_station_keep`` against the per-step loop it stands in for."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_stretch_equals_the_step_loop(self, data):
        li = data.draw(st.floats(-40.0, 40.0), label="li")
        ri = li + data.draw(st.floats(0.1, 12.0), label="length")
        eta = data.draw(st.sampled_from([0.0, 1e-6]), label="eta")
        dt = data.draw(st.sampled_from([1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0]), label="dt")
        h = data.draw(st.sampled_from([li, ri]), label="hold")
        # on the boundary, or off it by up to a step inward or eta outward
        off = data.draw(st.sampled_from([0.0, -eta, dt]) | st.floats(-eta, dt), label="off")
        x = li + off if h == li else ri - off
        sigma = data.draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.71]), label="sigma")
        steps = data.draw(st.integers(1, 400), label="steps")
        # no timer, or one that fires inside the stretch, at its end or
        # after it, on a step or between two
        fires = data.draw(st.integers(0, steps + 2), label="fires")
        frac = data.draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0), label="frac")
        ti = data.draw(st.sampled_from([-1.0, (fires + frac) * dt]), label="timer")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        noise = np.random.default_rng(seed).normal(0.0, sigma, steps).tolist()
        far = ri if h == li else li
        assert _station_keep(x, h, ti, noise, dt, li, ri, eta, far) == _held(
            x, h, ti, noise, dt, li, ri, eta
        )

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("fires, length", [(3, 4), (9, 10), (12, 10), (None, 10)])
    def test_timer_ends_the_stretch(self, side, fires, length):
        # a timer at 3 steps fires at the fifth step: the stretch stops
        # before it, inside the ten steps, at their end or not at all
        dt, li, ri = 1.0 / 32.0, 2.0, 5.0
        h = li if side == "left" else ri
        ti = -1.0 if fires is None else fires * dt
        path, left = _station_keep(h, h, ti, [0.0] * 10, dt, li, ri, 1e-6, li + ri - h)
        assert path == [h] * length
        assert left == (-1.0 if fires is None else (fires - length + 1) * dt)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_stretch_stops_before_the_far_boundary(self, side):
        # a cluster four steps long: a noise burst toward the far boundary
        # snaps onto it in the third step
        dt, li, ri = 1.0 / 32.0, 2.0, 2.125
        h, toward = (li, 1.0) if side == "left" else (ri, -1.0)
        noise = [0.0, 2.0 * toward, 4.0 * toward, 0.0]
        path, _ = _station_keep(h, h, -1.0, noise, dt, li, ri, 1e-6, li + ri - h)
        assert path == _held(h, h, -1.0, noise, dt, li, ri, 1e-6)[0]
        assert len(path) == 2 and path[0] == h and path[1] == h + 2.0 * toward * dt


class TestConvergence:
    def test_many_seeds_reach_optimum(self):
        chain, part = uniform_case()
        per_lb = latency_lower_bounds(part)[1]
        for seed in range(25):
            trace = simulate(chain, part, SimConfig(dt=DT, horizon=160.0, seed=seed))
            tm = evaluate_trace(trace)
            assert tm.converged, f"seed {seed} did not settle"
            assert tm.refresh == 2 * part.dimension
            assert tm.latency == per_lb

    def test_waits_off_the_step_grid_end(self):
        # 40 viewpoints with gaps U[0.3, 2]: the phase timers' waits are not
        # whole numbers of steps, so they expire within a step.  When such a
        # timer skipped past zero without firing, every one of these runs
        # stalled and left some viewpoint unvisited over [70, 140]
        gaps = np.random.default_rng(1).uniform(0.3, 2.0, 39)
        chain = ChainRoadmap([0.0] + np.cumsum(gaps).tolist())
        part, _ = optimal_partition_bisect(chain, 8, 1e-9)
        for seed in range(20):
            tm = evaluate_trace(simulate(chain, part, SimConfig(dt=DT, horizon=140.0, seed=seed)))
            assert abs(tm.refresh - 2 * part.dimension) <= 2 * DT, f"seed {seed}"
            assert math.isfinite(tm.latency), f"seed {seed}"

    def test_multi_robot_group_token_alternation(self):
        # clusters [1, 1, 3]: the first two clusters form one group and the
        # interior pair must alternate single-mover turns
        chain = ChainRoadmap([0.0, 1.0, 2.0, 3.0, 4.0, 7.0])
        part = partition_from_clusters(chain, ((0, 1), (2, 3), (4, 5)))
        cfg = SimConfig(dt=DT, horizon=120.0, seed=21)
        trace = simulate(chain, part, cfg)
        tm = evaluate_trace(trace)
        assert tm.converged
        assert tm.refresh == 2 * part.dimension == 6.0
        comms = [e for e in trace.events if e[1] == "comm" and (e[2], e[3]) == (0, 1)]
        assert len(comms) >= 4
        # between consecutive meetings of the pair exactly one of the two
        # robots moved away from the shared boundary
        boundary_r = part.right(0)
        boundary_l = part.left(1)
        for (t1, _, _, _), (t2, _, _, _) in zip(comms, comms[1:]):
            k1, k2 = int(round(t1 / DT)), int(round(t2 / DT))
            seg = trace.positions[k1 : k2 + 1]
            moved0 = np.abs(seg[:, 0] - boundary_r).max() > 1e-9
            moved1 = np.abs(seg[:, 1] - boundary_l).max() > 1e-9
            assert moved0 != moved1

    def test_converged_pattern_is_periodic(self):
        chain, part = uniform_case()
        trace = simulate(chain, part, SimConfig(dt=DT, horizon=120.0, seed=2))
        t0 = convergence_time(trace.times, trace.positions, 2 * part.dimension)
        assert t0 is not None
        k0 = int(round(t0 / DT))
        pk = int(round(2 * part.dimension / DT))
        assert np.array_equal(
            trace.positions[k0 : -pk or None], trace.positions[k0 + pk :]
        )


class TestFrequencyOfExchange:
    def test_no_two_relays_per_window(self, rng):
        # on the synthesized min-latency sweep with pairwise cluster sums
        # above the dimension, no 2*d_max window admits two interleaved
        # three-hop relay sequences
        from conftest import singleton_group_instance

        for _ in range(5):
            chain, part = singleton_group_instance(rng, m=6)
            traj = min_latency_trajectory(part, 14 * part.dimension)
            comm = communication_instants(traj, chain)
            phis = [[float(t) for t in p if t > 0] for p in comm]
            window = 2 * part.dimension
            for q in range(len(phis) - 2):
                a, b, c = phis[q], phis[q + 1], phis[q + 2]
                for t1 in a:
                    t2 = next((x for x in b if x >= t1), None)
                    if t2 is None:
                        continue
                    t3 = next((x for x in c if x >= t2), None)
                    if t3 is None or t3 > t1 + window:
                        continue
                    # second sequence interleaved after the first
                    s1 = next((x for x in a if x >= t2), None)
                    if s1 is None or s1 > t1 + window:
                        continue
                    s2 = next((x for x in b if x >= max(s1, t3)), None)
                    if s2 is None or s2 > t1 + window:
                        continue
                    s3 = next((x for x in c if x >= s2), None)
                    assert s3 is None or s3 > t1 + window


class TestFailures:
    def test_temporary_stop_and_resync(self):
        chain, part = uniform_case()
        cfg = SimConfig(
            dt=DT, horizon=520.0, seed=5, failures=(FailureWindow(6, 300.0, 400.0),)
        )
        trace = simulate(chain, part, cfg)
        # converged before the stop
        k0, k1 = int(100 / DT), int(300 / DT)
        pk = int(round(2 * part.dimension / DT))
        assert np.array_equal(trace.positions[k0 : k1 - pk], trace.positions[k0 + pk : k1])
        # neighbors gather at their facing extremes while robot 6 is down
        k = int(399.0 / DT)
        for j in range(6):
            assert trace.positions[k, j] == part.right(j)
        for j in range(7, 10):
            assert trace.positions[k, j] == part.left(j)
        # resynchronizes after the resume
        tm = evaluate_trace(trace)
        assert tm.converged and tm.warmup >= 400.0
        assert tm.refresh == 2 * part.dimension
        assert tm.latency == latency_lower_bounds(part)[1]

    @pytest.mark.parametrize("seed", range(4))
    def test_timeout_fires_at_its_own_step_in_free_flight(self, seed):
        # two clusters 14.5 long: the pair's timeout of 3 expires while both
        # robots fly between their boundaries, and it must fire at the first
        # step that ends more than theta after the pair's last meeting
        chain, part = uniform_case(m=2)
        theta = 3.0
        cfg = SimConfig(dt=DT, horizon=20.0, seed=seed, detection_theta=theta)
        trace = simulate(chain, part, cfg)
        met = [t for t, kind, _, _ in trace.events if kind == "comm" and t < trace.detect_time]
        base = max([0.0] + met)
        s = 0
        while not (s * DT + DT) - base > theta:
            s += 1
        assert trace.detect_time == (s + 1) * DT

    @pytest.mark.parametrize(
        "seed, sigma2, detect, digest",
        [
            (4, 0.2, 86.34375, "c38c99015a1ea46782d5ec96bfb8aa3fa401d5249c8db090d7bd8417602f166c"),
            (2, 0.0, 88.96875, "b665ac2551c4f6d35189346da908a142c5259d683bac85b1f7fce52e2e57863f"),
        ],
    )
    def test_detection_during_a_timer_wait(self, seed, sigma2, detect, digest):
        # robot 5 fails for good on the default_rng(1) chain of 40
        # viewpoints; the timeout of pair (5, 6) fires while robot 0 waits
        # out its phase timer in a station-keeping stretch that runs past
        # the detection.  The digests of positions, directions and events
        # were recorded before the kernel took such stretches
        gaps = np.random.default_rng(1).uniform(0.3, 2.0, 39)
        chain = ChainRoadmap([0.0] + np.cumsum(gaps).tolist())
        part, _ = optimal_partition_bisect(chain, 8, 1e-9)
        cfg = SimConfig(
            dt=DT, horizon=160.0, seed=seed, sigma2=sigma2,
            failures=(FailureWindow(5, 80.0),), detection_theta=15.0, detection_arm_time=60.0,
        )
        trace = simulate(chain, part, cfg)
        assert [e for e in trace.events if e[1] == "detect"] == [(detect, "detect", 5, 6)]
        data = trace.positions.tobytes() + trace.dirs.tobytes() + repr(trace.events).encode()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_permanent_failure_detection_and_repartition(self):
        chain, part = uniform_case()
        theta = 8.0
        cfg = SimConfig(
            dt=DT,
            horizon=440.0,
            seed=5,
            failures=(FailureWindow(6, 300.0),),
            detection_theta=theta,
            detection_arm_time=200.0,
        )
        trace = simulate(chain, part, cfg)
        assert trace.detect_time is not None
        # the first neighbor timeout fires: earliest (last comm + theta)
        # over the two pairs that involve the dead robot
        expected = min(
            max(
                t
                for t, kind, i, j in trace.events
                if kind == "comm" and (i, j) == pair and t <= 300.0
            )
            + theta
            for pair in ((5, 6), (6, 7))
        )
        assert abs(trace.detect_time - expected) <= 2 * DT
        new = trace.new_partition
        assert new is not None
        assert new.dimension >= part.dimension
        # survivors adopt the 9-robot optimal partition and settle on its
        # steady sweep (detected as periodicity at the new period)
        tm = evaluate_trace(trace)
        assert tm.converged and tm.warmup > trace.detect_time
        assert tm.refresh == 2 * new.dimension

    def test_end_robot_failure_shifts_roles(self):
        chain, part = uniform_case(m=4)
        theta = 2 * (2 * part.dimension)  # above the normal meeting period
        cfg = SimConfig(
            dt=DT,
            horizon=320.0,
            seed=1,
            failures=(FailureWindow(0, 100.0),),
            detection_theta=theta,
            detection_arm_time=60.0,
        )
        trace = simulate(chain, part, cfg)
        assert trace.detect_time is not None and trace.detect_time > 100.0
        new = trace.new_partition
        tm = evaluate_trace(trace)
        assert tm.converged
        assert tm.refresh == 2 * new.dimension
        # the failed end robot froze; robot 1 now patrols down to coordinate 0
        k = trace.positions.shape[0] - 1
        assert trace.positions[int(100 / DT) :, 0].std() == 0.0
        assert trace.positions[int(trace.detect_time / DT) : k, 1].min() == 0.0

    def test_detection_never_fires_when_theta_exceeds_horizon(self):
        chain, part = uniform_case()
        cfg = SimConfig(
            dt=DT,
            horizon=400.0,
            seed=5,
            failures=(FailureWindow(6, 300.0),),
            detection_theta=1000.0,
            detection_arm_time=200.0,
        )
        trace = simulate(chain, part, cfg)
        assert trace.detect_time is None
        # the dead robot's viewpoints go stale: strict refresh diverges
        from patrolsim.metrics import refresh_time_from_trace

        rt = refresh_time_from_trace(
            trace.times,
            trace.positions,
            chain.coordinates,
            warmup=300.0,
            strict=True,
        )
        assert rt >= 90.0


@st.composite
def failure_runs(draw):
    """A random chain whose partition has no single-viewpoint cluster, and
    a run on it with 0-3 failure windows on distinct robots: temporary,
    ending past the horizon or permanent, with detection on or off."""
    n = draw(st.integers(8, 30), label="n")
    m = draw(st.integers(2, min(8, n // 2)), label="m")
    gaps = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="chain")).uniform(
        0.3, 2.0, n - 1
    )
    chain = ChainRoadmap([0.0] + np.cumsum(gaps).tolist())
    part, _ = optimal_partition_bisect(chain, m, 1e-9)
    assume(all(part.length(i) > 0 for i in part.active))
    horizon = float(draw(st.integers(20, 60), label="horizon"))
    steps = int(horizon / DT)
    windows = []
    for robot in draw(st.lists(st.integers(0, m - 1), max_size=3, unique=True), label="robots"):
        start = draw(st.integers(0, steps - 1), label="start")
        end = draw(st.none() | st.integers(start + 1, steps + 100), label="end")
        windows.append(FailureWindow(robot, start * DT, math.inf if end is None else end * DT))
    cfg = SimConfig(
        dt=DT, horizon=horizon, seed=draw(st.integers(0, 2**32 - 1), label="seed"),
        sigma2=draw(st.sampled_from([0.0, 0.2]), label="sigma2"), failures=tuple(windows),
        detection_theta=draw(st.sampled_from([None, 5.0, 10.0]), label="theta"),
        detection_arm_time=draw(st.sampled_from([0.0, 5.0]), label="arm"),
    )
    return chain, part, cfg


class TestFailureSchedules:
    """Failure rules on random chains and schedules: one detection at most;
    fail and resume logged for the robots in the team, before the detection
    the first robots, after it the survivors that get a cluster; a robot
    down at the detection is dead for good."""

    @settings(max_examples=150, deadline=None)
    @given(run=failure_runs())
    def test_failure_rules_hold(self, run):
        chain, part, cfg = run
        try:
            trace = simulate(chain, part, cfg)
        except InfeasibleError:
            # every robot is down at the detection, or the survivors'
            # partition has a single-viewpoint cluster
            assume(False)
        spans = [
            (fw.robot, round(fw.start / DT), math.inf if fw.end == math.inf else round(fw.end / DT))
            for fw in cfg.failures
        ]
        detects = [e for e in trace.events if e[1] == "detect"]
        assert len(detects) <= 1
        assert [e for e in trace.events if e[1] == "repartition"] == [
            (t, "repartition", -1, -1) for t, _, _, _ in detects
        ]
        team = list(part.active)
        kd = math.inf
        if detects:
            kd = round(trace.detect_time / DT)
            up = [r for r in range(part.m) if not any(a == r and s <= kd < e for a, s, e in spans)]
            after = up[: trace.new_partition.cardinality]
        # every window start and end inside the run is logged for the team
        # robots at that step, and nothing else
        logged = []
        for robot, s, e in spans:
            for kind, k in (("fail", s), ("resume", e)):
                if k < cfg.steps and robot in (team if k < kd else after):
                    logged.append((k * DT, kind, robot, -1))
        got = [e for e in trace.events if e[1] in ("fail", "resume")]
        assert sorted(got) == sorted(logged)
        # a team robot stands still while down, and to the end once dead
        for robot, s, e in spans:
            dead = robot in team and s <= kd < e
            if dead or robot in (team if s < kd else after):
                stop = cfg.steps if dead else min(e, cfg.steps)
                assert (trace.positions[s : stop + 1, robot] == trace.positions[s, robot]).all()
        if cfg.sigma2 == 0.0:
            # one rounding of a unit-speed step, at the chain's far end
            tol = DT + math.ulp(chain.coordinates[-1])
            assert np.abs(np.diff(trace.positions, axis=0)).max() <= tol


class TestNoise:
    def test_sweep_rows_and_exact_zero_row(self):
        chain, part = uniform_case()
        rows = noise_sweep(
            chain, part, [0.0, 0.1, 0.3], runs=5, master_seed=3, dt=DT, horizon=120.0
        )
        assert rows[0].rt_mean == 2 * part.dimension
        assert rows[0].lt_mean == latency_lower_bounds(part)[1]
        assert rows[0].rt_min == rows[0].rt_max
        assert rows[-1].rt_mean > rows[0].rt_mean

    @pytest.mark.parametrize("runs", [0, -1])
    def test_sweep_needs_a_run(self, runs):
        chain, part = uniform_case()
        with pytest.raises(ValueError, match="runs must be at least 1"):
            noise_sweep(chain, part, [0.0], runs=runs, master_seed=3, dt=DT, horizon=20.0)

    def test_identical_seeds_identical_traces(self):
        chain, part = uniform_case()
        s = run_seed(99, 4)
        cfg = SimConfig(dt=DT, horizon=60.0, seed=s, sigma2=0.25)
        a = simulate(chain, part, cfg)
        b = simulate(chain, part, cfg)
        assert np.array_equal(a.positions, b.positions)

    def test_noise_keeps_robots_clamped(self):
        chain, part = uniform_case()
        trace = simulate(chain, part, SimConfig(dt=DT, horizon=60.0, seed=8, sigma2=0.5))
        for i in range(10):
            xs = trace.positions[:, i]
            assert xs.min() >= part.left(i) - 1e-9
            assert xs.max() <= part.right(i) + 1e-9


class TestTraceExport:
    def test_csv_round_trip_columns(self, tmp_path):
        chain, part = uniform_case(m=4)
        trace = simulate(chain, part, SimConfig(dt=DT, horizon=20.0, seed=0))
        out = tmp_path / "trace.csv"
        trace.write_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "time,robot,position,dir,event"
