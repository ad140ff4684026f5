from __future__ import annotations

import math
import random
from itertools import permutations

import pytest

from patrolsim.cover import (
    PathCover,
    chain_tour_approximation,
    chainify,
    exact_path_cover,
    minmax_path_cover,
    path_cover_trajectory,
)
from patrolsim.partition import InfeasibleError
from patrolsim.roadmap import ChainRoadmap, Roadmap, TreeRoadmap

from conftest import random_metric_roadmap


def unit_triangle():
    return Roadmap(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)])


def unit_square():
    return Roadmap(
        ["a", "b", "c", "d"],
        [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("d", "a", 1.0)],
    )


def brute_cover_cost(g: Roadmap, m: int) -> float:
    """Optimal cover cost by enumerating ordered vertex assignments."""
    ids = list(g.ids)
    best = math.inf

    def path_cost(p):
        return sum(g.distance(a, b) for a, b in zip(p, p[1:]))

    def rec(idx, groups):
        nonlocal best
        if idx == len(ids):
            if all(groups):
                cost = max(
                    min(path_cost(p) for p in permutations(group))
                    for group in groups
                )
                best = min(best, cost)
            return
        for group in groups:
            group.append(ids[idx])
            rec(idx + 1, groups)
            group.pop()

    for k in range(1, m + 1):
        rec(0, [[] for _ in range(k)])
    return best


class TestChainify:
    def test_unit_triangle(self):
        res = chainify(unit_triangle())
        assert len(res.tour) == 3
        assert set(res.tour) == {"a", "b", "c"}
        assert res.chain.coordinates == (0.0, 1.0, 2.0)

    def test_tree_input_walks_itself(self):
        star = TreeRoadmap(
            ["v1", "v2", "v3", "v4"],
            [("v1", "v2", 1.0), ("v2", "v3", 1.0), ("v2", "v4", 1.0)],
        )
        res = chainify(star)
        assert set(res.back_map) == set(star.ids)
        assert len(res.chain.coordinates) <= 2 * star.n - 3

    def test_bounds_and_edge_lengths(self, rng):
        for _ in range(25):
            g = random_metric_roadmap(rng, n_lo=4, n_hi=12)
            res = chainify(g)
            assert len(res.chain.coordinates) <= 2 * g.n - 3
            assert len(res.chain.coordinates) - 1 <= 2 * g.n - 4
            assert set(res.back_map) == set(g.ids)  # surjective onto V
            # the i-th chain edge keeps the i-th walked edge length exactly
            coords = res.chain.coords_exact
            for k, w in enumerate(res.edge_lengths):
                assert coords[k + 1] - coords[k] == w

    def test_twelve_vertex_roadmap_repeats_three_vertices(self):
        # spine of nine vertices with three side branches hung off it, plus
        # longer chords to make it cyclic: the opened walk repeats exactly
        # the three branch points (branches sort before the next spine hop)
        ids = ["s0", "s1", "s2", "b1", "s3", "s4", "b2", "s5", "s6", "b3", "s7", "s8"]
        edges = [(f"s{i}", f"s{i+1}", 1.0) for i in range(8)]
        edges += [("s2", "b1", 1.0), ("s4", "b2", 1.0), ("s6", "b3", 1.0)]
        edges += [("s0", "b1", 2.9), ("b2", "b3", 2.9)]
        g = Roadmap(ids, edges)
        assert g.n == 12
        res = chainify(g)
        from collections import Counter

        counts = Counter(res.back_map)
        assert sorted(counts.values(), reverse=True)[:3] == [2, 2, 2]
        assert sum(v - 1 for v in counts.values()) == 3

    def test_too_small_rejected(self):
        tiny = Roadmap(["a", "b"], [("a", "b", 1.0)])
        with pytest.raises(InfeasibleError):
            chainify(tiny)


class TestChainApproximation:
    def test_unit_triangle_single_robot(self):
        traj, res, cert = chain_tour_approximation(unit_triangle(), 1, 1e-9, horizon=20)
        assert cert.rt_gamma == 4.0
        # the true optimum is the tour: compare against it directly
        rt_star = 3.0
        assert cert.rt_gamma / rt_star <= cert.ratio_bound
        assert cert.ratio <= cert.ratio_bound

    def test_ratio_bound_on_random_roadmaps(self, rng):
        for _ in range(30):
            g = random_metric_roadmap(rng, n_lo=4, n_hi=12)
            m = rng.randint(1, g.n - 1)
            _, _, cert = chain_tour_approximation(g, m, 1e-9, horizon=None or 10 * 60.0)
            assert cert.ratio <= cert.ratio_bound + 1e-9

    def test_epsilon_family_ratio_grows(self):
        ratios = []
        for eps in (1.0, 0.5, 0.1, 0.01):
            ids = ["a", "x", "b", "c", "d", "e"]
            edges = [
                ("a", "x", eps / 2),
                ("x", "b", eps / 2),
                ("x", "c", 1.0),
                ("x", "d", 1.0),
                ("x", "e", 1.0),
            ]
            g = Roadmap(ids, edges)
            _, _, cert = chain_tour_approximation(g, 4, 1e-9, horizon=40)
            rt_star = 2 * eps  # one robot shuttles a-x-b, the rest park
            ratios.append(cert.rt_gamma / rt_star)
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_chain_input_is_idempotent(self):
        chain = ChainRoadmap([0.0, 1.0, 3.0, 6.0])
        g = chain.as_roadmap()
        res = chainify(g)
        assert res.chain.coordinates == chain.coordinates
        assert [res.back_map[i] for i in range(4)] in (
            list(chain.ids),
            list(reversed(chain.ids)),
        )


class TestPathCover:
    def test_unit_square_two_robots(self):
        cover = minmax_path_cover(unit_square(), 2)
        assert cover.cost == 1.0
        assert sorted(tuple(sorted(p)) for p in cover.paths) == [("a", "b"), ("c", "d")]

    def test_singletons_when_robots_cover_all(self):
        cover = minmax_path_cover(unit_square(), 4)
        assert cover.cost == 0.0
        assert all(len(p) == 1 for p in cover.paths)

    def test_single_path_takes_whole_graph(self):
        g = Roadmap(["a", "b", "c"], [("a", "b", 2.0), ("b", "c", 3.0)])
        cover = minmax_path_cover(g, 1)
        assert cover.paths == (("a", "b", "c"),)
        assert cover.cost == 5.0

    def test_factor_against_oracle(self, rng):
        for _ in range(40):
            g = random_metric_roadmap(rng, n_lo=4, n_hi=8)
            m = rng.randint(1, 3)
            cover = minmax_path_cover(g, m)
            opt = exact_path_cover(g, m)
            assert len(cover.paths) <= m
            if opt.cost_exact == 0:
                assert cover.cost_exact == 0
            else:
                assert cover.cost_exact <= 4 * opt.cost_exact

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_walk_longer_than_the_top_candidate(self, m):
        # at n=40 the shortcut walk often costs more than 4 times the
        # largest candidate budget, twice the diameter
        for seed in range(8):
            g = random_metric_roadmap(random.Random(seed), n_lo=40, n_hi=40)
            cover = minmax_path_cover(g, m)
            assert sorted(v for p in cover.paths for v in p) == sorted(g.ids)
            assert len(cover.paths) <= m
            traj = path_cover_trajectory(cover, m, horizon=max(4 * cover.cost, 1.0))
            assert traj.refresh_time() == 2 * cover.cost

    @pytest.mark.parametrize(
        "paths, message",
        [
            ((("a", "b", "x"),), "partition"),
            ((("a", "b"),), "partition"),
            ((("a", "b", "c", "a"),), "partition"),
            ((("a", "b", "c"), ()), "empty"),
        ],
        ids=["unknown_vertex", "missing_vertex", "repeated_vertex", "empty_path"],
    )
    def test_paths_must_partition_the_vertices(self, paths, message):
        with pytest.raises(ValueError, match=message):
            PathCover(roadmap=unit_triangle(), paths=paths)


class TestExactCover:
    def test_examples(self):
        assert exact_path_cover(unit_square(), 2).cost == 1.0
        assert exact_path_cover(unit_triangle(), 1).cost == 2.0
        assert exact_path_cover(unit_triangle(), 3).cost == 0.0

    def test_matches_brute_assignment_enumeration(self, rng):
        for _ in range(10):
            g = random_metric_roadmap(rng, n_lo=4, n_hi=6)
            m = rng.randint(1, 3)
            opt = exact_path_cover(g, m)
            assert math.isclose(opt.cost, brute_cover_cost(g, m), abs_tol=1e-9)

    def test_size_limits(self, rng):
        g = random_metric_roadmap(rng, n_lo=9, n_hi=10)
        with pytest.raises(InfeasibleError):
            exact_path_cover(g, 2)


class TestCoverTrajectory:
    def test_refresh_is_twice_cover_cost(self, rng):
        for _ in range(10):
            g = random_metric_roadmap(rng, n_lo=4, n_hi=8)
            m = rng.randint(1, 3)
            cover = minmax_path_cover(g, m)
            traj = path_cover_trajectory(cover, m, horizon=max(4 * cover.cost, 1.0))
            assert traj.refresh_time() == 2 * cover.cost

    def test_stationary_cover(self):
        cover = minmax_path_cover(unit_square(), 4)
        traj = path_cover_trajectory(cover, 4, horizon=5.0)
        assert traj.refresh_time() == 0.0

    def test_too_few_robots_rejected(self):
        cover = minmax_path_cover(unit_square(), 2)
        with pytest.raises(InfeasibleError):
            path_cover_trajectory(cover, 1, horizon=5.0)
