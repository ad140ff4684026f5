from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patrolsim.metrics import (
    _visit_episodes_sampled,
    communication_instants,
    latency,
    latency_from_phis,
    latency_lower_bounds,
    max_revisit_gap,
    metrics_report,
    propagate_latency,
    refresh_time,
    refresh_time_from_trace,
)
from patrolsim.partition import (
    optimal_partition_bisect,
    optimal_partition_exact,
    partition_from_clusters,
)
from patrolsim.roadmap import ChainRoadmap
from patrolsim.trajectories import (
    PiecewisePath,
    TeamTrajectory,
    min_latency_trajectory,
    min_refresh_trajectory,
    min_up_latency_trajectory,
    opposite_phase_trajectory,
)

from conftest import (
    fig_style_instance,
    naive_propagation,
    random_image_trajectory,
    sampled_latency_oracle,
    singleton_group_instance,
    unrolled,
)
from test_trajectories import chain_with_lengths


class TestRefreshTime:
    def test_equals_twice_dimension(self):
        chain = ChainRoadmap([0, 1, 3, 6])
        part = optimal_partition_exact(chain, 2)
        traj = min_refresh_trajectory(part, horizon=30)
        assert refresh_time(traj) == 2 * part.dimension == 6.0

    def test_static_full_coverage_is_zero(self):
        chain = ChainRoadmap([0, 1, 2])
        part = partition_from_clusters(chain, ((0,), (1,), (2,)))
        robots = tuple(
            PiecewisePath.constant(c, Fraction(10)) for c in chain.coords_exact
        )
        traj = TeamTrajectory(robots=robots, horizon=Fraction(10), chain=chain)
        assert refresh_time(traj) == 0.0

    def test_unvisited_viewpoint_is_infinite(self):
        chain = ChainRoadmap([0, 1])
        robots = (PiecewisePath.constant(0, Fraction(10)),)
        traj = TeamTrajectory(robots=robots, horizon=Fraction(10), chain=chain)
        assert refresh_time(traj) == math.inf

    def test_strict_mode_counts_boundary_gaps(self):
        chain = ChainRoadmap([0, 2])
        # one robot sweeping [0, 2]: strict evaluation sees the lead-in gap
        robots = (
            PiecewisePath(
                Fraction(20),
                cycle=[(Fraction(0), Fraction(0)), (Fraction(2), Fraction(2)), (Fraction(4), Fraction(0))],
            ),
        )
        traj = TeamTrajectory(robots=robots, horizon=Fraction(20), chain=chain)
        assert refresh_time(traj) == 4.0
        assert refresh_time(traj, strict=True) == 4.0  # horizon covers full periods

    def test_time_shift_invariance(self, rng):
        chain, part = singleton_group_instance(rng, m=4)
        h = Fraction(12) * part.dimension_exact
        traj = min_up_latency_trajectory(part, h)
        shift = Fraction(7, 8) * part.dimension_exact
        shifted = []
        for p in traj.robots:
            x0 = p.position(0)
            prefix = [(Fraction(0), x0), (shift, x0)] + [
                (t + shift, x) for t, x in p.prefix[1:]
            ]
            shifted.append(
                PiecewisePath(h + shift, prefix=prefix, cycle=p.cycle, anchor=p.anchor + shift)
            )
        traj_s = TeamTrajectory(
            robots=tuple(shifted), horizon=h + shift, period=traj.period,
            relay=traj.relay, chain=chain, partition=part,
        )
        assert refresh_time(traj_s, warmup=float(shift)) == refresh_time(traj)
        assert latency(traj_s, chain).up == latency(traj, chain).up

    def test_robot_permutation_invariance(self, rng):
        chain, part = singleton_group_instance(rng, m=4)
        traj = min_refresh_trajectory(part, 10 * part.dimension)
        perm = TeamTrajectory(
            robots=tuple(reversed(traj.robots)), horizon=traj.horizon, chain=chain
        )
        assert refresh_time(perm) == refresh_time(traj)

    def test_window_outside_horizon_rejected(self):
        chain = ChainRoadmap([0, 1, 3, 6])
        traj = min_refresh_trajectory(optimal_partition_exact(chain, 2), horizon=40)
        for warmup in (-10, 40, 50):
            with pytest.raises(ValueError, match="outside"):
                refresh_time(traj, warmup=warmup, strict=True)
        assert refresh_time(traj, warmup=10, strict=True) == 6.0

    def test_sampled_converges_to_analytic(self, rng):
        chain, part = singleton_group_instance(rng, m=4)
        traj = min_refresh_trajectory(part, 10 * part.dimension)
        exact = refresh_time(traj)
        for dt in (0.01, 0.002):
            times, pos = traj.sample(dt)
            # sweep turnarounds only come within one step of the extreme
            # viewpoints, so the spatial tolerance scales with dt
            sampled = refresh_time_from_trace(
                times, pos, chain.coordinates, eta=dt, warmup=0.0,
                cap=2 * part.dimension,
            )
            assert abs(sampled - exact) <= 2 * dt


class TestMaxRevisitGap:
    # window [4, 20]: the episodes merge and clip to (4, 5), (9, 12), (15, 15),
    # so the interior gaps are 4 and 3, the head 0 and the tail 5; a lone
    # visit (5, 6) leaves a head of 5, a tail of 4 and no interior gap
    EPISODES = [
        (Fraction(15), Fraction(15)),
        (Fraction(9), Fraction(12)),
        (Fraction(-2), Fraction(-1)),
        (Fraction(19, 2), Fraction(10)),
        (Fraction(3), Fraction(5)),
    ]

    @pytest.mark.parametrize(
        "strict, cap, expected, lone",
        [
            (True, None, Fraction(5), Fraction(5)),
            (False, Fraction(9, 2), Fraction(9, 2), Fraction(9, 2)),
            (False, None, Fraction(4), Fraction(0)),
        ],
        ids=["strict", "capped", "interior-only"],
    )
    def test_fraction_and_float_agree(self, strict, cap, expected, lone):
        def both(eps, t0, t1):
            exact = max_revisit_gap(list(eps), Fraction(t0), Fraction(t1), cap, strict)
            flt = max_revisit_gap(
                [(float(s), float(e)) for s, e in eps], float(t0), float(t1),
                None if cap is None else float(cap), strict,
            )
            return exact, flt

        exact, flt = both(self.EPISODES, 4, 20)
        assert exact == expected and type(exact) is Fraction
        assert flt == float(expected) and type(flt) is float
        exact, flt = both([(Fraction(5), Fraction(6))], 0, 10)
        assert exact == lone and type(exact) is Fraction
        assert flt == float(lone) and type(flt) is float
        # no visit in the window
        assert both(self.EPISODES, 21, 30) == (math.inf, math.inf)
        assert both([], 0, 10) == (math.inf, math.inf)


class TestSampledRefreshWindow:
    COORDS = [0.0, 1.0, 1.5, 3.0]
    # exact hits dwell on a viewpoint, 1.0 + 5e-7 dwells within eta=1e-6,
    # and successive samples on either side of a viewpoint cross it
    VALUES = [-0.5, 0.0, 0.4, 1.0, 1.0 + 5e-7, 1.7, 1.5, 2.5, 3.0, 3.2]

    @staticmethod
    def whole_trace(times, positions, coords, eta, warmup, cap, strict):
        """Every robot's episodes over all samples, then clipped to the window."""
        worst = 0.0
        for v in coords:
            eps = []
            for i in range(positions.shape[1]):
                eps += _visit_episodes_sampled(times, positions[:, i], v, eta)
            worst = max(worst, max_revisit_gap(eps, warmup, float(times[-1]), cap, strict))
        return float(worst)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_window_equals_whole_trace(self, data):
        # short traces and few viewpoints, so the gap at the window's start
        # is often the longest one
        k = data.draw(st.integers(2, 16))
        coords = data.draw(st.lists(st.sampled_from(self.COORDS), min_size=1, max_size=2))
        m = data.draw(st.integers(1, 3))
        gaps = data.draw(
            st.lists(st.sampled_from([0.1, 0.25, 0.5]), min_size=k - 1, max_size=k - 1)
        )
        times = np.cumsum([data.draw(st.sampled_from([0.0, 3.0, 300.0]))] + gaps)
        rows = st.lists(st.sampled_from(self.VALUES), min_size=k, max_size=k)
        positions = np.array([data.draw(rows) for _ in range(m)]).T
        j = data.draw(st.integers(0, k - 2))
        where = data.draw(st.sampled_from(["first", "sample", "between"]))
        if where == "first":
            warmup = float(times[0])
        elif where == "sample":
            warmup = float(times[j])
        else:
            frac = data.draw(st.floats(0.01, 0.99))
            warmup = float(times[j] + frac * (times[j + 1] - times[j]))
        cap, strict = data.draw(
            st.sampled_from([(None, False), (None, True), (0.3, False), (2.0, False)])
        )
        eta = data.draw(st.sampled_from([1e-6, 0.0]))
        got = refresh_time_from_trace(
            times, positions, coords, eta=eta, warmup=warmup, cap=cap, strict=strict
        )
        assert got == self.whole_trace(times, positions, coords, eta, warmup, cap, strict)

    @pytest.mark.parametrize("warmup", [-5.0, 2.99, 43.0, 100.0, math.nan])
    def test_warmup_outside_the_trace_rejected(self, warmup):
        # a 40-unit trace that starts at 3, as a slice of a longer run does
        times = 3.0 + np.arange(161) * 0.25
        positions = np.abs(np.sin(times))[:, None]
        with pytest.raises(ValueError, match="outside the trace"):
            refresh_time_from_trace(times, positions, [0.0, 1.0], warmup=warmup)
        assert refresh_time_from_trace(times, positions, [0.0, 1.0], warmup=3.0) >= 0.0


class TestCommInstants:
    def test_staggered_sweeps_form_arithmetic_progression(self):
        chain, part = chain_with_lengths([2.0, 3.0, 3.0, 2.0])
        traj = min_up_latency_trajectory(part, 60)
        comm = communication_instants(traj, chain)
        dmax = Fraction(3)
        for phi in comm:
            diffs = {b - a for a, b in zip(phi[1:], phi[2:])}
            assert diffs == {2 * dmax}

    def test_parked_neighbors_collapse_to_interval_start(self):
        chain = ChainRoadmap([0, 1])
        robots = (
            PiecewisePath.constant(0, Fraction(10)),
            PiecewisePath.constant(1, Fraction(10)),
        )
        traj = TeamTrajectory(robots=robots, horizon=Fraction(10), chain=chain)
        comm = communication_instants(traj, chain)
        assert comm[0] == (Fraction(0),)

    def test_never_adjacent_keeps_only_zero(self):
        chain = ChainRoadmap([0, 1, 2, 3])
        robots = (
            PiecewisePath.constant(0, Fraction(10)),
            PiecewisePath.constant(3, Fraction(10)),
        )
        traj = TeamTrajectory(robots=robots, horizon=Fraction(10), chain=chain)
        comm = communication_instants(traj, chain)
        assert comm[0] == (Fraction(0),)

    def test_interval_interior_equivalence(self, rng):
        # relaying from dwell-interval interiors instead of collapsed starts
        # changes nothing on the synthesized trajectories: every transfer is
        # already possible at an interval start
        def interior_latency(traj, chain):
            coords = chain.coords_exact
            relay = traj.relay
            spans = []
            for q in range(len(relay) - 1):
                a, b = traj.robots[relay[q]], traj.robots[relay[q + 1]]
                joint = []
                for k in range(len(coords) - 1):
                    for pa, pb in ((coords[k], coords[k + 1]), (coords[k + 1], coords[k])):
                        for s1, e1 in a.occupancy(pa):
                            for s2, e2 in b.occupancy(pb):
                                s, e = max(s1, s2), min(e1, e2)
                                if s <= e:
                                    joint.append((s, e))
                joint.sort()
                spans.append([(Fraction(0), Fraction(0))] + joint)

            def chase(sources, hops):
                worst = Fraction(0)
                for s0, _ in sources:
                    t = s0
                    for hop in hops:
                        nxt = None
                        for s, e in hop:
                            if e >= t:  # may transfer anywhere inside [s, e]
                                nxt = max(s, t)
                                break
                        t = traj.horizon if nxt is None else nxt
                        if nxt is None:
                            break
                    worst = max(worst, t - s0)
                return worst

            up = chase(spans[0], spans[1:])
            down = chase(spans[-1], list(reversed(spans[:-1])))
            return float(up), float(down)

        chain, part = singleton_group_instance(rng, m=5)
        h = Fraction(12) * part.dimension_exact
        for synth in (min_up_latency_trajectory, min_latency_trajectory):
            traj = synth(part, h)
            res = latency(traj, chain)
            up_i, down_i = interior_latency(traj, chain)
            assert res.up == up_i
            assert res.down == down_i

    def test_sampled_oracle_agrees_with_analytic(self, rng):
        chain, part = singleton_group_instance(rng, m=5)
        h = Fraction(12) * part.dimension_exact
        for synth in (min_up_latency_trajectory, min_latency_trajectory):
            traj = synth(part, h)
            res = latency(traj, chain)
            up, down, overall = sampled_latency_oracle(traj, chain, dt=2e-3)
            assert abs(res.up - up) <= 1e-2
            assert abs(res.overall - overall) <= 1e-2


class TestLatency:
    def test_m2_always_zero(self):
        chain, part = chain_with_lengths([2.0, 5.0])
        traj = min_up_latency_trajectory(part, 60)
        assert latency(traj, chain) == latency(traj, chain)
        assert latency(traj, chain).overall == 0.0

    def test_up_latency_matches_interior_sum(self):
        chain, part = chain_with_lengths([2.0, 3.0, 3.0, 2.0])
        traj = min_up_latency_trajectory(part, 60)
        res = latency(traj, chain)
        assert res.up == 6.0
        assert refresh_time(traj) == 6.0

    def test_min_latency_aggregated_case_frozen_values(self):
        # closed-form bound is 4; honest worst-injection propagation over
        # the synthesized schedule measures 7 (the bound is not attained
        # when groups aggregate, see the up/down wave analysis)
        chain, part = chain_with_lengths([1.0, 1.0, 3.0, 1.0])
        assert latency_lower_bounds(part) == (4.0, 4.0)
        traj = min_latency_trajectory(part, 60)
        res = latency(traj, chain)
        oracle = sampled_latency_oracle(traj, chain, dt=1e-3)
        assert abs(res.overall - oracle[2]) <= 5e-3
        assert res.up == 7.0
        assert res.down == 5.0
        assert res.overall >= 4.0  # the bound still holds

    def test_min_latency_singleton_groups_attains_bound(self, rng):
        for _ in range(10):
            chain, part = singleton_group_instance(rng)
            traj = min_latency_trajectory(part, 12 * part.dimension)
            res = latency(traj, chain)
            up_lb, per_lb = latency_lower_bounds(part)
            assert res.overall == per_lb

    def test_fig_style_case_reduces_to_middle_length(self):
        chain, part = fig_style_instance(c=2.0)
        traj = min_latency_trajectory(part, 40)
        res = latency(traj, chain)
        up_lb, per_lb = latency_lower_bounds(part)
        assert per_lb == 2.0  # the middle cluster's length
        assert res.overall == per_lb

    def test_incomplete_chain_substitutes_horizon(self):
        phis = [[0.0, 1.0], [0.0], [0.0]]
        up, down = propagate_latency(phis, 10.0)
        assert up == 9.0  # injection at 1 never completes

    def test_matches_naive_propagation(self, rng):
        for _ in range(5):
            chain, part = singleton_group_instance(rng, m=5)
            traj = min_latency_trajectory(part, 12 * part.dimension)
            comm = communication_instants(traj, chain)
            phis = [[float(t) for t in p] for p in comm]
            res = latency(traj, chain)
            up, down, overall = naive_propagation(phis, float(traj.horizon))
            assert math.isclose(res.up, up, abs_tol=1e-12)
            assert math.isclose(res.down, down, abs_tol=1e-12)


class TestPeriodFolding:
    """Exact refresh time and latency evaluate a prefix plus a few periods;
    the oracle is the same trajectory unrolled into explicit breakpoints,
    which the evaluators cannot fold."""

    @staticmethod
    def instances():
        chain = ChainRoadmap([0, 1, 5, 6, 7])
        parked, _ = optimal_partition_bisect(chain, 4, 1e-9)  # zero-length cluster, parked robot
        return [
            chain_with_lengths([2.0, 3.0, 3.0, 2.0]),
            chain_with_lengths([1.0, 0.0, 3.0, 1.0]),  # zero-length cluster, aggregated group
            chain_with_lengths([1.5, 1.5, 1.5]),
            # sweep periods 4, 6 and 3: the relay repeats every 12, not 6
            chain_with_lengths([2.0, 3.0, 1.5]),
            (chain, parked),
            singleton_group_instance(random.Random(7), m=5),
        ]

    @pytest.mark.parametrize(
        "synth",
        [min_refresh_trajectory, min_up_latency_trajectory, min_latency_trajectory,
         opposite_phase_trajectory],
    )
    def test_folded_equals_unrolled(self, synth):
        checked = 0
        for chain, part in self.instances():
            dim = part.dimension_exact
            for periods in (Fraction(6), Fraction(22, 3), Fraction(96, 7), Fraction(14)):
                try:
                    traj = synth(part, periods * 2 * dim)
                except ValueError:
                    continue  # opposite phase needs equal, positive lengths
                flat = unrolled(traj)
                for warmup in (0, dim, Fraction(5, 7) * dim):
                    for strict in (False, True):
                        assert refresh_time(traj, warmup=warmup, strict=strict) == refresh_time(
                            flat, warmup=warmup, strict=strict
                        )
                if len(traj.relay) >= 2:
                    assert latency(traj, chain) == latency(flat, chain)
                    assert communication_instants(traj, chain) == communication_instants(
                        flat, chain
                    )
                checked += 1
        assert checked >= 4  # opposite phase fits only the equal-length instance

    def test_uneven_revisits_at_every_horizon_residue(self):
        # robot 0 passes viewpoint 0 at phases 1 and 4 of a period of 10, so
        # the gaps there alternate 3 and 7 and a window cut short by one
        # period can miss the 7; robot 1 parks on viewpoint 4
        chain = ChainRoadmap([0, 4])
        cycle = [(Fraction(t), Fraction(x)) for t, x in ((0, -1), (2, 1), (3, 1), (5, -1), (10, -1))]
        for quarters in range(0, 40, 3):
            h = Fraction(40) + Fraction(quarters, 4)
            traj = TeamTrajectory(
                robots=(PiecewisePath(h, cycle=cycle), PiecewisePath.constant(4, h)),
                horizon=h, chain=chain,
            )
            flat = unrolled(traj)
            for warmup in (0, Fraction(7, 2), 6):
                for strict in (False, True):
                    assert refresh_time(traj, warmup=warmup, strict=strict) == refresh_time(
                        flat, warmup=warmup, strict=strict
                    )

    def test_pair_that_never_meets_uses_whole_horizon(self):
        # robots 0 and 1 sit on the shared boundary 1|2 in opposite half
        # periods, so a downward relay never completes
        chain = ChainRoadmap([0, 1, 2, 3, 4, 5])
        h = Fraction(20)

        def sweep(a, b):
            return PiecewisePath(h, cycle=[(Fraction(0), Fraction(a)), (Fraction(1), Fraction(b)),
                                           (Fraction(2), Fraction(a))])

        traj = TeamTrajectory(
            robots=(sweep(0, 1), sweep(2, 3), sweep(5, 4)), horizon=h, chain=chain
        )
        assert communication_instants(traj, chain)[0] == (Fraction(0),)
        res = latency(traj, chain)
        assert res == latency(unrolled(traj), chain)
        assert res.down == 19.0  # sourced at t=1, cut off by the horizon

    def test_viewpoint_seen_only_in_prefix_uses_whole_horizon(self):
        chain = ChainRoadmap([0, 1, 2])
        h = Fraction(20)
        path = PiecewisePath(
            h,
            prefix=[(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))],
            cycle=[(Fraction(0), Fraction(1)), (Fraction(1), Fraction(2)), (Fraction(2), Fraction(1))],
            anchor=Fraction(1),
        )
        traj = TeamTrajectory(robots=(path,), horizon=h, chain=chain)
        # viewpoint 0 is visited once, at time 0
        assert refresh_time(traj, strict=True) == 20.0
        for strict in (False, True):
            assert refresh_time(traj, strict=strict) == refresh_time(unrolled(traj), strict=strict)

    def test_first_period_keeps_its_head(self):
        # an episode at a viewpoint that touches both ends of the cycle: the
        # first copy still starts at the anchor (here time 0)
        h = Fraction(24)
        seam = [(Fraction(t), Fraction(x)) for t, x in ((0, 0), (1, 0), (3, 2), (5, 0), (6, 0))]
        no_prefix = TeamTrajectory(
            robots=(PiecewisePath(h, cycle=seam), PiecewisePath.constant(2, h)),
            horizon=h, chain=ChainRoadmap([0, 2]),
        )
        # min-latency robots start with a dwell at the cycle's first position
        chain, part = chain_with_lengths([1.0, 3.0, 1.0, 3.0])
        for traj in (no_prefix, min_latency_trajectory(part, 48)):
            flat = unrolled(traj)
            for path, flat_path in zip(traj.robots, flat.robots):
                for value in traj.chain.coords_exact:
                    assert path.occupancy(value) == flat_path.occupancy(value)
                    for t_end in (0, 6, 6.5, 12, 12.5):
                        assert path.occupancy(value, t_end) == flat_path.occupancy(value, t_end)
            for strict in (False, True):
                assert refresh_time(traj, warmup=0, strict=strict) == refresh_time(
                    flat, warmup=0, strict=strict
                )
        # viewpoint 0 is left at 1 and reached again at 5
        assert refresh_time(no_prefix, warmup=0, strict=True) == 4.0

    @staticmethod
    def outcome(evaluate, *args, **kwargs):
        """The value of an evaluation, or the message it was rejected with."""
        try:
            return evaluate(*args, **kwargs)
        except ValueError as exc:
            return f"ValueError: {exc}"

    @settings(max_examples=250, deadline=None)
    @given(data=st.data())
    def test_random_teams_equal_unrolled(self, data):
        # small chains and short moves, so robots visit the viewpoints often,
        # pairs meet, and common periods stay short enough to fold
        coords = [0] + sorted(data.draw(st.sets(st.integers(1, 5), min_size=1, max_size=3)))
        chain = ChainRoadmap(coords)
        speeds = [0, 1, Fraction(1, 2), Fraction(1, 3)]

        def walk(x, t, moves):
            pts = [(t, x)]
            for _ in range(moves):
                dur = Fraction(data.draw(st.integers(1, 2)))
                x += data.draw(st.sampled_from([-1, 1])) * data.draw(st.sampled_from(speeds)) * dur
                t += dur
                pts.append((t, x))
            return pts

        def periodic(prefix, cyc):
            # a dwell at the cycle's start, before or after its moves, pads
            # it to a period dividing 24, so common periods stay short
            # enough to fold; episodes then touch both ends of the cycle
            xa = cyc[0][1]
            period = min(p for p in (2, 3, 4, 6, 8, 12, 24) if p >= cyc[-1][0])
            if period > cyc[-1][0]:
                if data.draw(st.booleans()):
                    cyc.append((Fraction(period), xa))
                else:
                    pad = period - cyc[-1][0]
                    cyc = [(Fraction(0), xa)] + [(t + pad, x) for t, x in cyc]
            anchor = prefix[-1][0]
            return PiecewisePath(h, prefix=prefix if anchor else [], cycle=cyc, anchor=anchor)

        h = Fraction(data.draw(st.integers(8, 240)), 4)
        # teams of sweeps alone are the ones whose relays fold
        kinds = data.draw(st.sampled_from([["parked", "acyclic", "cyclic", "sweep"], ["sweep"]]))
        robots = []
        for i in range(data.draw(st.sampled_from([1, 2, 3, 3, 4, 4]))):
            x0 = Fraction(data.draw(st.sampled_from(coords)))
            kind = data.draw(st.sampled_from(kinds))
            if kind == "parked":
                robots.append(PiecewisePath.constant(x0, h))
            elif kind == "acyclic":
                pts = walk(x0, Fraction(0), 1)
                while pts[-1][0] < h:
                    pts += walk(pts[-1][1], pts[-1][0], 1)[1:]
                robots.append(PiecewisePath.from_breakpoints(pts, h))
            elif kind == "cyclic":
                # a random walk that returns at unit, half or third speed
                prefix = walk(x0, Fraction(0), data.draw(st.integers(0, 2)))
                xa = prefix[-1][1]
                cyc = walk(xa, Fraction(0), data.draw(st.integers(0, 3)))
                if cyc[-1][1] != xa:
                    slow = data.draw(st.integers(1, 3))
                    cyc.append((cyc[-1][0] + abs(xa - cyc[-1][1]) * slow, xa))
                robots.append(periodic(prefix, cyc))
            else:
                # robot i sweeps between viewpoints i and i + 1 with dwells
                # at both ends, so neighbors in the relay meet
                k = min(i, len(coords) - 2)
                lo, hi = Fraction(coords[k]), Fraction(coords[k + 1])
                slow = data.draw(st.sampled_from([1, 1, 2, 3]))
                move = (hi - lo) * (slow if (hi - lo) * slow <= 10 else 1)
                t = [Fraction(data.draw(st.integers(0, 2))) for _ in range(2)]
                cyc = [(Fraction(0), lo), (t[0], lo), (t[0] + move, hi),
                       (t[0] + t[1] + move, hi), (t[0] + t[1] + 2 * move, lo)]
                cyc = [p for p, q in zip(cyc, [(None, None)] + cyc) if p[0] != q[0]]
                delay = Fraction(data.draw(st.integers(0, 3)))
                robots.append(periodic([(Fraction(0), lo), (delay, lo)], cyc))
        traj = TeamTrajectory(robots=tuple(robots), horizon=h, chain=chain)
        flat = unrolled(traj)
        for path, flat_path in zip(traj.robots, flat.robots):
            for value in coords:
                assert path.occupancy(value) == flat_path.occupancy(value)
        for _ in range(3):
            warmup = Fraction(data.draw(st.integers(0, int(4 * h) - 1)), 4)
            strict = data.draw(st.booleans())
            assert self.outcome(refresh_time, traj, warmup=warmup, strict=strict) == self.outcome(
                refresh_time, flat, warmup=warmup, strict=strict
            )
        if traj.m >= 2:
            assert communication_instants(traj) == communication_instants(flat)
            assert latency(traj) == latency(flat)

    def test_dwell_across_the_common_period_start(self):
        # on viewpoint 0 robot 0 dwells over [3, 7] of every 10 and robot 1,
        # anchored at 5, passes at 5, 15, ...: one period after A = 5 holds
        # robot 0's dwell as [8, 12], which wraps onto [0, 2], so the gap
        # there is 6 (17 to 23), not 8
        h = Fraction(40)
        pts = ((0, 2), (1, 2), (3, 0), (7, 0), (9, 2), (10, 2))
        dwell = PiecewisePath(h, cycle=[(Fraction(t), Fraction(x)) for t, x in pts])
        late = PiecewisePath(
            h,
            prefix=[(Fraction(t), Fraction(x)) for t, x in ((0, 2), (3, 2), (5, 0))],
            cycle=[(Fraction(t), Fraction(x)) for t, x in ((0, 0), (2, 2), (8, 2), (10, 0))],
            anchor=Fraction(5),
        )
        traj = TeamTrajectory(robots=(dwell, late), horizon=h, chain=ChainRoadmap([0, 2]))
        flat = unrolled(traj)
        for warmup in (5, 6, 12, 20):
            for strict in (False, True):
                got = refresh_time(traj, warmup=warmup, strict=strict)
                assert got == refresh_time(flat, warmup=warmup, strict=strict) == 6.0

    def test_joint_dwell_through_the_seam(self):
        # robot 1 dwells on viewpoint 1 at the end of its cycle and on into
        # the next one, next to robot 0 parked on viewpoint 0: each joint
        # dwell runs across a cycle boundary and has one start
        h = Fraction(60)
        chain = ChainRoadmap([0, 1, 2, 3])
        pts = ((0, 1), (1, 1), (2, 2), (3, 2), (4, 1), (5, 1))
        cycle = [(Fraction(t), Fraction(x)) for t, x in pts]
        seam = PiecewisePath(
            h, prefix=[(Fraction(0), Fraction(1)), (Fraction(2), Fraction(1))],
            cycle=cycle, anchor=Fraction(2),
        )
        beacon = PiecewisePath(h, cycle=[(Fraction(0), Fraction(3)), (Fraction(1), Fraction(3))])
        for parked in (
            PiecewisePath.constant(0, h),
            PiecewisePath(h, cycle=[(Fraction(0), Fraction(0)), (Fraction(5), Fraction(0))]),
        ):
            traj = TeamTrajectory(robots=(parked, seam, beacon), horizon=h, chain=chain)
            phis = communication_instants(traj)
            assert phis[0][:4] == (0, 6, 11, 16)
            assert latency(traj) == latency(unrolled(traj))
        # two robots parked next to each other on constant cycles: their joint
        # dwell never ends, so it starts only at 0 and the relay falls back
        # to the whole horizon
        still = TeamTrajectory(
            robots=(
                PiecewisePath(h, cycle=[(Fraction(0), Fraction(1)), (Fraction(3), Fraction(1))]),
                PiecewisePath(h, cycle=[(Fraction(0), Fraction(2)), (Fraction(2), Fraction(2))]),
                seam,
            ),
            horizon=h, chain=chain,
        )
        assert communication_instants(still)[0] == (0,)
        assert latency(still) == latency(unrolled(still))

    def test_work_does_not_grow_with_horizon(self, monkeypatch):
        # the episodes the finder reports and those unrolled from them
        chain, part = singleton_group_instance(random.Random(3), m=5)
        visits, unrolled_eps = PiecewisePath._visits, PiecewisePath._unrolled
        total = [0]

        def counted_visits(self, coords):
            out = visits(self, coords)
            total[0] += sum(len(eps) for found in out for eps in found.values())
            return out

        def counted_unrolled(self, pre, cyc, t_end):
            out = unrolled_eps(self, pre, cyc, t_end)
            total[0] += len(out)
            return out

        monkeypatch.setattr(PiecewisePath, "_visits", counted_visits)
        monkeypatch.setattr(PiecewisePath, "_unrolled", counted_unrolled)
        counts = {}
        for synth in (min_latency_trajectory, min_up_latency_trajectory):
            for periods in (16, 64):
                traj = synth(part, periods * 2 * part.dimension_exact)
                for name, evaluate in (("refresh", refresh_time), ("latency", latency)):
                    total[0] = 0
                    evaluate(traj, chain)
                    counts[synth, name, periods] = total[0]
            assert counts[synth, "refresh", 16] == counts[synth, "refresh", 64] > 0
            assert counts[synth, "latency", 16] == counts[synth, "latency", 64] > 0


class TestLowerBounds:
    def test_examples(self):
        _, part = chain_with_lengths([2.0, 3.0, 3.0, 2.0])
        assert latency_lower_bounds(part) == (6.0, 6.0)
        _, part = chain_with_lengths([1.0, 1.0, 3.0, 1.0])
        assert latency_lower_bounds(part) == (4.0, 4.0)
        _, part = chain_with_lengths([2.0, 5.0])
        assert latency_lower_bounds(part) == (0.0, 0.0)

    def test_m2_zero(self):
        _, part = chain_with_lengths([4.0, 4.0])
        assert latency_lower_bounds(part) == (0.0, 0.0)

    def test_single_cluster_rejected(self):
        _, part = chain_with_lengths([4.0])
        with pytest.raises(ValueError):
            latency_lower_bounds(part)

    def test_no_same_image_trajectory_beats_up_bound(self, rng):
        # randomized (not exhaustive) optimality check: whenever the first
        # pair really communicates, the worst relay cannot beat the travel
        # bound; trajectories whose first pair never meets only inject at
        # the definitional time 0 and are skipped
        checked = 0
        for _ in range(30):
            chain, part = singleton_group_instance(rng, m=rng.randint(3, 6))
            up_lb, _ = latency_lower_bounds(part)
            traj = random_image_trajectory(rng, part, horizon=14 * part.dimension)
            comm = communication_instants(traj, chain)
            if len(comm[0]) < 2:
                continue
            checked += 1
            res = latency(traj, chain)
            assert res.up >= up_lb - 1e-9
        assert checked >= 10


class TestReport:
    def test_json_shape(self):
        doc = metrics_report(math.inf, None, None)
        assert doc["refresh_time"] == "inf"
        res = latency_from_phis([[0.0], [0.0], [0.0]], 10.0)
        doc = metrics_report(4.0, res, (1.0, 2.0))
        assert doc["latency"]["overall"] == res.overall
        assert doc["bounds"] == {"up_lb": 1.0, "periodic_lb": 2.0}
