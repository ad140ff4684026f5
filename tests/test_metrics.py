from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from patrolsim.metrics import (
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

    def test_work_does_not_grow_with_horizon(self, monkeypatch):
        chain, part = singleton_group_instance(random.Random(3), m=5)
        occupancy = PiecewisePath._occupancy
        total = [0]

        def counted(self, value, t_end):
            out = occupancy(self, value, t_end)
            total[0] += len(out)
            return out

        monkeypatch.setattr(PiecewisePath, "_occupancy", counted)
        counts = {}
        for periods in (16, 64):
            traj = min_latency_trajectory(part, periods * 2 * part.dimension_exact)
            for name, evaluate in (("refresh", refresh_time), ("latency", latency)):
                total[0] = 0
                evaluate(traj, chain)
                counts[name, periods] = total[0]
        assert counts["refresh", 16] == counts["refresh", 64] > 0
        assert counts["latency", 16] == counts["latency", 64] > 0


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
