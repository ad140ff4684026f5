from __future__ import annotations

import math
from fractions import Fraction

import pytest

from patrolsim.partition import InfeasibleError, optimal_partition_exact, partition_from_clusters
from patrolsim.roadmap import ChainRoadmap
from patrolsim.trajectories import (
    PiecewisePath,
    aggregate_clusters,
    min_latency_trajectory,
    min_refresh_trajectory,
    min_up_latency_trajectory,
    opposite_phase_trajectory,
)

from conftest import fig_style_instance, singleton_group_instance


def chain_with_lengths(d, gap=1.0):
    coords, x = [], 0.0
    for i, di in enumerate(d):
        coords += [x, x + di] if di > 0 else [x]
        x += di + gap
    chain = ChainRoadmap(coords)
    clusters, k = [], 0
    for di in d:
        size = 2 if di > 0 else 1
        clusters.append(tuple(range(k, k + size)))
        k += size
    return chain, partition_from_clusters(chain, clusters)


class TestPiecewisePath:
    def test_speed_limit_enforced(self):
        with pytest.raises(ValueError, match="unit speed"):
            PiecewisePath(Fraction(10), prefix=[(Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))])

    def test_cycle_positions(self):
        p = PiecewisePath(Fraction(10), cycle=[(Fraction(0), Fraction(0)), (Fraction(2), Fraction(2)), (Fraction(4), Fraction(0))])
        assert p.position(0) == 0
        assert p.position(2) == 2
        assert p.position(5) == 1
        assert p.position(9) == 1

    def test_occupancy_wraps_across_periods(self):
        # dwell at the cycle seam merges into one episode per period
        p = PiecewisePath(
            Fraction(12),
            cycle=[
                (Fraction(0), Fraction(0)),
                (Fraction(1), Fraction(0)),
                (Fraction(3), Fraction(2)),
                (Fraction(5), Fraction(0)),
                (Fraction(6), Fraction(0)),
            ],
        )
        eps = p.occupancy(Fraction(0))
        assert (Fraction(5), Fraction(7)) in eps

    def test_occupancy_window_within_horizon(self):
        p = PiecewisePath(Fraction(40), cycle=[(Fraction(0), Fraction(0)), (Fraction(2), Fraction(2)), (Fraction(4), Fraction(0))])
        assert p.occupancy(0, 40) == p.occupancy(0)
        assert p.occupancy(2, 9) == [(Fraction(t), Fraction(t)) for t in (2, 6)]
        for t_end in (60, Fraction(-1)):
            with pytest.raises(ValueError, match="outside"):
                p.occupancy(0, t_end)

    def test_flatten_round_trip(self):
        p = PiecewisePath(Fraction(9), cycle=[(Fraction(0), Fraction(0)), (Fraction(2), Fraction(2)), (Fraction(4), Fraction(0))])
        pts = p.flatten()
        assert pts[0] == (0.0, 0.0)
        assert pts[-1][0] == 9.0
        for (t0, x0), (t1, x1) in zip(pts, pts[1:]):
            assert t1 > t0
            assert abs(x1 - x0) <= (t1 - t0) + 1e-12


class TestAggregation:
    def test_uneven_groups(self):
        _, part = chain_with_lengths([1.0, 1.0, 3.0, 1.0])
        agg = aggregate_clusters(part)
        assert agg.groups == ((0, 1), (2,), (3,))
        assert agg.count == 3
        assert agg.lengths == (Fraction(2), Fraction(3), Fraction(1))

    def test_saturated_clusters(self):
        _, part = chain_with_lengths([3.0, 3.0])
        agg = aggregate_clusters(part)
        assert agg.groups == ((0,), (1,))

    def test_consecutive_group_sums_exceed_dmax(self, rng):
        for _ in range(30):
            m = rng.randint(2, 9)
            _, part = chain_with_lengths([rng.uniform(0.2, 3.0) for _ in range(m)])
            agg = aggregate_clusters(part)
            for a, b in zip(agg.lengths, agg.lengths[1:]):
                assert a + b > agg.d_max

    def test_rejects_empty(self):
        chain = ChainRoadmap([0.0, 1.0])
        part = partition_from_clusters(chain, ((0,), (1,)))
        with pytest.raises(ValueError):
            aggregate_clusters(part)  # dimension zero


class TestMinRefresh:
    def test_sweep_structure(self):
        chain = ChainRoadmap([0, 1, 3, 6])
        part = optimal_partition_exact(chain, 2)
        traj = min_refresh_trajectory(part, horizon=30)
        r0 = traj.robots[0]
        assert r0.position(0) == 0
        assert r0.position(3) == 3  # arrives at its right extreme
        assert r0.position(6) == 0
        assert float(r0.period) == 6.0

    def test_single_viewpoint_cluster_parks_robot(self):
        chain, part = chain_with_lengths([2.0, 0.0])
        traj = min_refresh_trajectory(part, horizon=20)
        assert traj.robots[1].position(0) == traj.robots[1].position(13)

    def test_horizon_too_short(self):
        chain = ChainRoadmap([0, 1, 3, 6])
        part = optimal_partition_exact(chain, 2)
        with pytest.raises(ValueError):
            min_refresh_trajectory(part, horizon=2)

    def test_padded_partition_parks_extra_robots(self):
        chain = ChainRoadmap(list(range(6)))
        part = optimal_partition_exact(chain, 4).padded(5)
        traj = min_refresh_trajectory(part, horizon=20)
        assert traj.m == 5
        assert traj.relay == tuple(range(part.cardinality))
        park = traj.robots[-1]
        assert park.position(0) == park.position(17)

    def test_order_invariance_sampled(self, rng):
        chain, part = singleton_group_instance(rng, m=5)
        traj = min_refresh_trajectory(part, horizon=8 * part.dimension)
        _, pos = traj.sample(0.05)
        for col in range(pos.shape[1] - 1):
            assert (pos[:, col] <= pos[:, col + 1] + 1e-9).all()


class TestPeriodicity:
    def test_team_period(self, rng):
        chain, part = singleton_group_instance(rng, m=4)
        dmax = part.dimension_exact
        horizon = Fraction(20) * dmax
        for synth in (min_up_latency_trajectory, min_latency_trajectory):
            traj = synth(part, horizon)
            assert traj.period == 2 * dmax
            for path in traj.robots:
                for t in (Fraction(5) * dmax, Fraction(13, 2) * dmax):
                    assert path.position(t + 2 * dmax) == path.position(t)

    def test_min_refresh_per_robot_period(self, rng):
        chain, part = singleton_group_instance(rng, m=4)
        traj = min_refresh_trajectory(part, horizon=20 * part.dimension)
        for i, path in enumerate(traj.robots):
            d = part.length_exact(i)
            assert path.period == 2 * d
            t = Fraction(3) * d
            assert path.position(t + 2 * d) == path.position(t)


class TestLatencyTrajectories:
    def test_m2_allowed_and_trivial(self):
        _, part = chain_with_lengths([2.0, 3.0])
        traj = min_up_latency_trajectory(part, 30)
        assert traj.m == 2

    def test_single_cluster_rejected(self):
        chain, part = chain_with_lengths([2.0])
        for synth in (min_up_latency_trajectory, min_latency_trajectory):
            with pytest.raises(InfeasibleError):
                synth(part, 30)

    def test_up_latency_meeting_alignment(self):
        # the next robot leaves its left end the instant its lower neighbor
        # arrives next door
        _, part = chain_with_lengths([2.0, 3.0, 3.0, 2.0])
        traj = min_up_latency_trajectory(part, 60)
        r0, r1 = traj.robots[0], traj.robots[1]
        arrive = Fraction(2)  # robot 0 reaches its right extreme at t = d_1
        assert r0.position(arrive) == Fraction(part.right(0))
        assert r1.position(arrive) == Fraction(part.left(1))
        assert r1.position(arrive + 1) == Fraction(part.left(1)) + 1

    def test_fig_style_group_token(self):
        chain, part = fig_style_instance(c=2.0)
        traj = min_latency_trajectory(part, 40)
        # stationary first robot, second robot sweeps saturated, third in
        # opposite phase
        assert traj.robots[0].position(0) == traj.robots[0].position(10)
        assert traj.robots[1].position(0) == Fraction(part.left(1))
        assert traj.robots[1].position(2) == Fraction(part.right(1))

    def test_opposite_phase_requires_equal_lengths(self):
        _, part = chain_with_lengths([2.0, 3.0])
        with pytest.raises(ValueError):
            opposite_phase_trajectory(part, 30)


class TestExport:
    def test_document_round_trip(self, rng):
        chain, part = singleton_group_instance(rng, m=4)
        traj = min_latency_trajectory(part, 10 * part.dimension)
        doc = traj.to_document()
        assert doc["period"] == 2 * part.dimension
        assert len(doc["robots"]) == traj.m
        from patrolsim.trajectories import TeamTrajectory

        back = TeamTrajectory.from_document(doc, chain=chain)
        for t in (0.0, 1.25, 3.5):
            for i in range(traj.m):
                assert math.isclose(
                    float(back.robots[i].position(Fraction(t))),
                    float(traj.robots[i].position(Fraction(t))),
                    abs_tol=1e-12,
                )

    def test_trace_csv(self, tmp_path, rng):
        chain, part = singleton_group_instance(rng, m=3)
        traj = min_refresh_trajectory(part, 6 * part.dimension)
        out = tmp_path / "trace.csv"
        traj.write_trace_csv(out, dt=0.25)
        header = out.read_text().splitlines()[0]
        assert header == "time,robot,position"

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
    def test_sample_rejects_bad_step(self, rng, dt):
        _, part = singleton_group_instance(rng, m=3)
        traj = min_refresh_trajectory(part, 6 * part.dimension)
        with pytest.raises(ValueError, match="positive and finite"):
            traj.sample(dt)
