from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from patrolsim.cover import chainify
from patrolsim.partition import InfeasibleError
from patrolsim.roadmap import TreeRoadmap
from patrolsim.tree import (
    SubtreeCollection,
    depth_first_tour,
    efficient_trajectory,
    optimal_subtree_collection,
)

from conftest import random_tree, subtree_search_oracle


def unit_star() -> TreeRoadmap:
    # center v2, leaves v1/v3/v4 (the four-viewpoint schedule environment)
    return TreeRoadmap(
        ["v1", "v2", "v3", "v4"],
        [("v1", "v2", 1.0), ("v2", "v3", 1.0), ("v2", "v4", 1.0)],
    )


def unit_path(k: int) -> TreeRoadmap:
    ids = [f"v{i}" for i in range(k + 1)]
    return TreeRoadmap(ids, [(ids[i], ids[i + 1], 1.0) for i in range(k)])


def steiner_weight(tree: TreeRoadmap, subset: set[str]) -> float:
    """Weight of the minimal subtree spanning ``subset`` (prune leaves)."""
    adj = {v: {} for v in tree.ids}
    for u, v, w in tree.edges:
        adj[u][v] = w
        adj[v][u] = w
    keep = {v: dict(nb) for v, nb in adj.items()}
    changed = True
    while changed:
        changed = False
        for v in list(keep):
            if len(keep[v]) <= 1 and v not in subset:
                for u in list(keep[v]):
                    del keep[u][v]
                del keep[v]
                changed = True
    return sum(w for v in keep for u, w in keep[v].items()) / 2.0


def best_partition_based(tree: TreeRoadmap, m: int) -> float:
    """Best vertex-partition strategy: each robot tours its own subset (a
    closed tree walk costs twice the spanning subtree weight)."""
    ids = list(tree.ids)
    best = math.inf

    def rec(idx, parts):
        nonlocal best
        if idx == len(ids):
            if all(parts):
                cost = max(2.0 * steiner_weight(tree, set(p)) for p in parts)
                best = min(best, cost)
            return
        for p in parts:
            p.append(ids[idx])
            rec(idx + 1, parts)
            p.pop()

    rec(0, [[] for _ in range(m)])
    return best


class TestDepthFirstTour:
    def test_star_length(self):
        tour = depth_first_tour(unit_star())
        assert float(tour.length) == 6.0
        assert tour.vertices[0] == tour.vertices[-1] == "v1"
        assert set(tour.vertices) == {"v1", "v2", "v3", "v4"}

    def test_single_edge(self):
        t = TreeRoadmap(["a", "b"], [("a", "b", 2.5)])
        assert float(depth_first_tour(t).length) == 5.0

    def test_unit_path(self):
        assert float(depth_first_tour(unit_path(3)).length) == 6.0

    def test_twice_total_weight_exact(self, rng):
        for _ in range(20):
            t = random_tree(rng, n_hi=50)
            tour = depth_first_tour(t)
            total = sum((Fraction(w) for _, _, w in t.edges), Fraction(0))
            assert tour.length == 2 * total

    def test_deeper_than_the_recursion_limit(self):
        # a path rooted at one end walks as deep as it is long
        k = sys.getrecursionlimit() + 500
        t = unit_path(k)
        tour = depth_first_tour(t)
        assert tour.vertices == t.ids + t.ids[-2::-1]
        assert tour.cum == tuple(range(2 * k + 1))
        coll = SubtreeCollection(tree=t, removed_edges=(), subtrees=(t.ids,), allocation=(2,))
        assert efficient_trajectory(coll, horizon=4 * k).refresh_time() == k
        doc = coll.to_document()["tours"]
        assert doc == [{"vertices": list(tour.vertices), "length": 2.0 * k}]
        res = chainify(t)
        assert res.tour == t.ids
        assert res.chain.coords_exact == tuple(range(k + 1))


class TestEfficientTrajectory:
    def test_star_two_robots(self):
        star = unit_star()
        coll = SubtreeCollection(
            tree=star, removed_edges=(), subtrees=(tuple(star.ids),), allocation=(2,)
        )
        traj = efficient_trajectory(coll, horizon=30)
        assert traj.refresh_time() == 3.0
        # robots a half tour apart, same orientation
        assert traj.robots[1][1] - traj.robots[0][1] == 3
        # the schedule visits center every unit step like the reference table
        times, pos = traj.sample(1.0)
        at_center = np.isin(np.round(pos.T, 9), [1.0, 3.0, 5.0])
        assert (at_center.any(axis=0)[:-1]).all()

    def test_split_path(self):
        p3 = unit_path(3)
        coll = SubtreeCollection(
            tree=p3,
            removed_edges=(("v1", "v2"),),
            subtrees=(("v0", "v1"), ("v2", "v3")),
            allocation=(1, 1),
        )
        traj = efficient_trajectory(coll, horizon=20)
        assert traj.refresh_time() == 2.0

    def test_single_robot_tour(self, rng):
        t = random_tree(rng, n_hi=8)
        coll = SubtreeCollection(
            tree=t, removed_edges=(), subtrees=(tuple(t.ids),), allocation=(1,)
        )
        traj = efficient_trajectory(coll, horizon=10 * float(depth_first_tour(t).length))
        assert traj.refresh_time() == float(depth_first_tour(t).length)

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
    def test_sample_rejects_bad_step(self, dt):
        star = unit_star()
        coll = SubtreeCollection(
            tree=star, removed_edges=(), subtrees=(tuple(star.ids),), allocation=(2,)
        )
        traj = efficient_trajectory(coll, horizon=30)
        with pytest.raises(ValueError, match="sample step must be positive and finite"):
            traj.sample(dt)

    def test_zero_allocation_rejected(self):
        p3 = unit_path(3)
        with pytest.raises(InfeasibleError):
            SubtreeCollection(
                tree=p3,
                removed_edges=(("v1", "v2"),),
                subtrees=(("v0", "v1"), ("v2", "v3")),
                allocation=(2, 0),
            )

    def test_sampled_trace_matches_analytic(self, rng):
        for _ in range(5):
            t = random_tree(rng, n_lo=4, n_hi=8)
            m = rng.randint(1, 3)
            coll = optimal_subtree_collection(t, m)
            horizon = max(4.0 * coll.objective, 2.0)
            traj = efficient_trajectory(coll, horizon=horizon)
            dt = 1e-3
            visits = traj.sampled_visit_times(dt)
            worst = 0.0
            for vid in t.ids:
                ts = [x for x in visits.get(vid, []) if x <= horizon]
                assert ts, f"vertex {vid} never visited"
                gaps = np.diff(ts)
                if len(gaps):
                    worst = max(worst, float(gaps.max()))
            assert abs(worst - traj.refresh_time()) <= 2 * dt


class TestOptimalSubtreeCollection:
    def test_star_keeps_tree_whole(self):
        coll = optimal_subtree_collection(unit_star(), 2)
        assert coll.objective == 3.0
        assert coll.removed_edges == ()
        assert coll.allocation == (2,)
        # strictly better than the best vertex-partition strategy
        assert best_partition_based(unit_star(), 2) == 4.0
        assert coll.objective < 4.0

    def test_path_splits_in_middle(self):
        coll = optimal_subtree_collection(unit_path(3), 2)
        assert coll.objective == 2.0
        assert coll.removed_edges == (("v1", "v2"),)

    def test_single_robot_keeps_all_edges(self, rng):
        t = random_tree(rng, n_hi=8)
        coll = optimal_subtree_collection(t, 1)
        assert coll.removed_edges == ()
        assert coll.objective == float(depth_first_tour(t).length)

    def test_short_branch_beats_cyclic(self):
        # two viewpoints eps apart plus a distant one: splitting wins by a
        # factor that blows up as eps shrinks
        eps = 0.01
        t = TreeRoadmap(
            ["v1", "v2", "v3"], [("v1", "v2", eps), ("v2", "v3", 1.0)]
        )
        coll = optimal_subtree_collection(t, 2)
        assert math.isclose(coll.objective, 2 * eps)
        cyclic = float(depth_first_tour(t).length) / 2
        assert cyclic == 1.0 + eps
        assert coll.objective < cyclic

    def test_dominates_cyclic_and_partition_strategies(self, rng):
        for _ in range(8):
            t = random_tree(rng, n_lo=4, n_hi=7)
            m = rng.randint(2, 3)
            coll = optimal_subtree_collection(t, m)
            cyclic = float(depth_first_tour(t).length) / m
            assert coll.objective <= cyclic + 1e-12
            assert coll.objective <= best_partition_based(t, m) + 1e-12

    def test_monotone_in_m(self, rng):
        for _ in range(6):
            t = random_tree(rng, n_lo=4, n_hi=9)
            objs = [optimal_subtree_collection(t, m).objective for m in (1, 2, 3, 4)]
            assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))

    def test_size_limits(self):
        big = unit_path(20)
        with pytest.raises(InfeasibleError, match="approximation"):
            optimal_subtree_collection(big, 2)
        with pytest.raises(InfeasibleError):
            optimal_subtree_collection(unit_star(), 7)

    @pytest.mark.parametrize("weights", ["integer", "dyadic", "uniform"])
    def test_matches_fraction_oracle(self, weights):
        # few distinct integer or dyadic weights make many plans tie, so the
        # tie-breaking order is compared too; uniform floats have large
        # power-of-two denominators
        rng = random.Random(f"subtree-{weights}")
        draw = {
            "integer": lambda: float(rng.randint(1, 3)),
            "dyadic": lambda: rng.choice([0.25, 0.5, 0.5, 1.5, 2.75]),
            "uniform": lambda: rng.uniform(0.2, 3.0),
        }[weights]
        for _ in range(10):
            n = rng.randint(2, 12)
            ids = [f"v{i}" for i in range(n)]
            t = TreeRoadmap(ids, [(ids[i], ids[rng.randrange(i)], draw()) for i in range(1, n)])
            for m in range(1, 7):
                coll = optimal_subtree_collection(t, m)
                got = (coll.removed_edges, coll.subtrees, coll.allocation, coll.objective_exact)
                assert got == subtree_search_oracle(t, m)

    def test_plan_document(self):
        coll = optimal_subtree_collection(unit_star(), 2)
        doc = coll.to_document()
        assert doc["objective"] == 3.0
        assert doc["allocation"] == [2]
        assert doc["tours"][0]["length"] == 6.0
