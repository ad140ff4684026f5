from __future__ import annotations

import itertools
import json
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patrolsim.cli import dispatch
from patrolsim.cover import chainify, minmax_path_cover, path_cover_trajectory
from patrolsim.partition import InfeasibleError
from patrolsim.roadmap import TreeRoadmap
from patrolsim.tree import (
    SubtreeCollection,
    Tour,
    TourTeamTrajectory,
    _euler_tour,
    depth_first_tour,
    efficient_trajectory,
    optimal_subtree_collection,
)

from conftest import (
    fraction_tour_refresh_time,
    random_metric_roadmap,
    random_tree,
    subtree_search_oracle,
)


def sampled_visit_times(traj, dt: float) -> dict[str, list[float]]:
    """Vertex visit times recovered from the sampled trace of a tour team.

    Arc positions are unwrapped (motion is uniformly forward), then visit
    times come from linear interpolation of the occurrence positions
    between samples.
    """
    times, pos = traj.sample(dt)
    visits: dict[str, list[float]] = {}
    for j, stat in enumerate(traj.stationary):
        if stat is not None:
            visits.setdefault(stat, []).extend(times.tolist())
    for i, (j, off) in enumerate(traj.robots):
        if traj.stationary[j] is not None:
            continue
        tour = traj.tours[j]
        L = float(tour.length)
        wrapped = pos[:, i]
        # forward motion only, so unwrap by accumulating modular steps
        steps = np.mod(np.diff(wrapped), L)
        unwrapped = wrapped[0] + np.concatenate(([0.0], np.cumsum(steps)))
        for vid, occs in tour.vertex_positions().items():
            for p in occs:
                pf = float(p)
                target = pf + math.ceil((unwrapped[0] - pf) / L) * L
                while target <= unwrapped[-1]:
                    idx = int(np.searchsorted(unwrapped, target))
                    if idx == 0:
                        t = times[0]
                    else:
                        t0, t1 = times[idx - 1], times[idx]
                        x0, x1 = unwrapped[idx - 1], unwrapped[idx]
                        t = t0 if x1 == x0 else t0 + (target - x0) / (x1 - x0) * (t1 - t0)
                    visits.setdefault(vid, []).append(float(t))
                    target += L
    return {vid: sorted(ts) for vid, ts in visits.items()}


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
            visits = sampled_visit_times(traj, dt)
            worst = 0.0
            for vid in t.ids:
                ts = [x for x in visits.get(vid, []) if x <= horizon]
                assert ts, f"vertex {vid} never visited"
                gaps = np.diff(ts)
                if len(gaps):
                    worst = max(worst, float(gaps.max()))
            assert abs(worst - traj.refresh_time()) <= 2 * dt


def equally_spaced_team(tours, counts, horizon=1) -> TourTeamTrajectory:
    """Tour team with counts[j] robots equally spaced on tours[j]."""
    return TourTeamTrajectory(
        tours=tuple(tours),
        stationary=tuple(
            t.vertices[0] if len(t.vertices) == 1 else None for t in tours
        ),
        robots=tuple(
            (j, k * t.length / mj)
            for j, (t, mj) in enumerate(zip(tours, counts))
            for k in range(mj)
        ),
        horizon=Fraction(horizon),
    )


def cut_components(n: int, edges, cut) -> list[list[int]]:
    """Vertex lists of the forest left after removing the edges indexed in
    ``cut``, each in vertex order, in order of their lowest vertex."""
    label = list(range(n))

    def find(x):
        while label[x] != x:
            x = label[x]
        return x

    for k, (u, v, _) in enumerate(edges):
        if k not in cut:
            label[max(find(u), find(v))] = min(find(u), find(v))
    comps: dict[int, list[int]] = {}
    for v in range(n):
        comps.setdefault(find(v), []).append(v)
    return list(comps.values())


class TestTourCheck:
    """``TourTeamTrajectory.refresh_time`` folds each tour on its integer
    grid; it must equal the plain ``Fraction`` visit loop exactly."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 40),
        m=st.integers(1, 8),
        weights=st.sampled_from(["float", "decimal", "fraction"]),
        data=st.data(),
    )
    def test_equals_fraction_oracle(self, n, m, weights, data):
        # float weights have power-of-two denominators up to 2**55; decimal
        # ones are floats near 1/10ths; Fractions over 3, 7 and 9 put the
        # tour on a grid that no power of two divides
        draw = {
            "float": st.floats(0.05, 5.0),
            "decimal": st.sampled_from([0.1, 0.3, 0.7, 1.1, 2.9]),
            "fraction": st.builds(
                Fraction, st.integers(1, 40), st.sampled_from([3, 7, 9, 21])
            ),
        }[weights]
        edges = [
            (i, data.draw(st.integers(0, i - 1)), data.draw(draw)) for i in range(1, n)
        ]
        cut = data.draw(st.sets(st.integers(0, max(n - 2, 0)), max_size=min(m - 1, n - 1)))
        comps = cut_components(n, edges, cut)
        counts = [1] * len(comps)
        for _ in range(m - len(comps)):
            counts[data.draw(st.integers(0, len(comps) - 1))] += 1
        tours = []
        for comp in comps:
            inside = set(comp)
            sub = [
                (f"v{u}", f"v{v}", w)
                for k, (u, v, w) in enumerate(edges)
                if k not in cut and u in inside and v in inside
            ]
            tours.append(_euler_tour([f"v{v}" for v in comp], sub, f"v{comp[0]}"))
        traj = equally_spaced_team(tours, counts)
        assert traj.refresh_time() == fraction_tour_refresh_time(traj)

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 6),
        weights=st.sampled_from(["float", "fraction"]),
        data=st.data(),
    )
    def test_per_vertex_gaps_equal_fraction_oracle(self, k, weights, data):
        # hand-built closed walks in which every vertex occurs at least twice
        # a lap: in a planned tour some leaf occurs once and sets the worst
        # gap at L / m_j whatever the fold, here the gaps between each
        # vertex's own positions do
        names = [f"v{i}" for i in range(k)]
        extra = data.draw(st.lists(st.sampled_from(names), max_size=10))
        walk = data.draw(st.permutations(names * 2 + extra))
        draw = {
            "float": st.floats(0.05, 5.0).map(Fraction),
            "fraction": st.builds(Fraction, st.integers(1, 40), st.sampled_from([3, 7, 9])),
        }[weights]
        steps = data.draw(st.lists(draw, min_size=len(walk), max_size=len(walk)))
        tour = Tour(
            vertices=tuple(walk) + (walk[0],),
            cum=tuple(itertools.accumulate(steps, initial=Fraction(0))),
        )
        for mj in range(1, 5):
            traj = equally_spaced_team([tour], [mj])
            assert traj.refresh_time() == fraction_tour_refresh_time(traj)

    def test_planned_trees_equal_fraction_oracle(self):
        rng = random.Random("tour-check-trees")
        for _ in range(12):
            t = random_tree(rng, n_lo=2, n_hi=40)
            for m in (1, 3, 8):
                coll = optimal_subtree_collection(t, m)
                traj = efficient_trajectory(coll, horizon=max(1.0, 2.0 * coll.objective))
                assert traj.refresh_time() == fraction_tour_refresh_time(traj)
                assert traj.refresh_time() == coll.objective

    def test_path_cover_sweeps_equal_fraction_oracle(self):
        rng = random.Random("tour-check-covers")
        for _ in range(20):
            g = random_metric_roadmap(rng, n_lo=3, n_hi=30)
            for m in (1, 2, 3, 5):
                cover = minmax_path_cover(g, m)
                traj = path_cover_trajectory(cover, m, horizon=max(4 * cover.cost, 1.0))
                assert traj.refresh_time() == fraction_tour_refresh_time(traj)

    @pytest.mark.parametrize(
        "offsets",
        [(0, 2), (0, 0), (3, 0), (1,)],
        ids=["unequal", "coincident", "reversed", "shifted"],
    )
    def test_unequal_offsets_rejected(self, offsets):
        # the star's tour has length 6: two robots belong at 0 and 3, one at 0
        tour = depth_first_tour(unit_star())
        with pytest.raises(ValueError, match="offsets"):
            TourTeamTrajectory(
                tours=(tour,),
                stationary=(None,),
                robots=tuple((0, Fraction(off)) for off in offsets),
                horizon=Fraction(1),
            )

    def test_equal_offsets_on_each_tour(self):
        star, path = depth_first_tour(unit_star()), depth_first_tour(unit_path(2))
        team = equally_spaced_team([star, path], [3, 2])
        assert team.robots == ((0, 0), (0, 2), (0, 4), (1, 0), (1, 2))
        assert team.refresh_time() == 2.0 == fraction_tour_refresh_time(team)


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

    @pytest.mark.parametrize(
        "tree, m", [(unit_path(20), 2), (unit_star(), 7)], ids=["path21-m2", "star-m7"]
    )
    def test_any_size_matches_oracle(self, tree, m):
        # a 21-vertex path and more robots than vertices: neither size is
        # special to the DP
        coll = optimal_subtree_collection(tree, m)
        got = (coll.removed_edges, coll.subtrees, coll.allocation, coll.objective_exact)
        assert got == subtree_search_oracle(tree, m)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 11),
        weights=st.sampled_from(["integer", "dyadic", "uniform"]),
        m=st.integers(1, 6),
        data=st.data(),
    )
    def test_matches_oracle_property(self, n, weights, m, data):
        draw = {
            "integer": st.integers(1, 3).map(float),
            "dyadic": st.sampled_from([0.25, 0.5, 1.5, 2.75]),
            "uniform": st.floats(0.2, 3.0),
        }[weights]
        ids = [f"v{i}" for i in range(n)]
        edges = [
            (ids[i], ids[data.draw(st.integers(0, i - 1))], data.draw(draw))
            for i in range(1, n)
        ]
        t = TreeRoadmap(ids, edges)
        coll = optimal_subtree_collection(t, m)
        got = (coll.removed_edges, coll.subtrees, coll.allocation, coll.objective_exact)
        assert got == subtree_search_oracle(t, m)

    def test_matches_oracle_on_larger_trees(self):
        # the oracle's cost is exponential in m only, so a few robots reach
        # trees of 20 to 40 vertices
        rng = random.Random("subtree-large")
        for _ in range(4):
            t = random_tree(rng, n_lo=20, n_hi=40)
            for m in (1, 2, 3):
                coll = optimal_subtree_collection(t, m)
                got = (coll.removed_edges, coll.subtrees, coll.allocation, coll.objective_exact)
                assert got == subtree_search_oracle(t, m)

    @pytest.mark.parametrize("k, m", [(29, 5), (299, 10), (1201, 2)])
    def test_unit_path_closed_form(self, k, m):
        # m - 1 cuts leave k - m + 1 edges, at best shared evenly by m
        # components of one robot each; when m divides k - m + 1 that bound
        # is met.  The 1201-edge path is deeper than the recursion limit.
        assert (k - m + 1) % m == 0
        coll = optimal_subtree_collection(unit_path(k), m)
        assert coll.objective_exact == Fraction(2 * (k - m + 1), m)
        assert len(coll.removed_edges) == m - 1
        assert coll.allocation == (1,) * m

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


def plan_and_replay(tmp_path, t: TreeRoadmap, m: int) -> None:
    """Plan ``t`` with the tree command and replay it from its manifest."""
    doc = {
        "kind": "tree",
        "vertices": [{"id": v} for v in t.ids],
        "edges": [{"u": u, "v": v, "length": w} for u, v, w in t.edges],
    }
    roadmap, plan = tmp_path / "tree.json", tmp_path / "plan.json"
    roadmap.write_text(json.dumps(doc))
    assert dispatch(["tree", "--roadmap", str(roadmap), "-m", str(m), "--out", str(plan)]) == 0
    written = plan.read_text()
    assert json.loads(written) == optimal_subtree_collection(t, m).to_document()
    manifest = tmp_path / "plan.json.manifest.json"
    assert dispatch(["rerun", "--manifest", str(manifest)]) == 0
    assert plan.read_text() == written


def test_tree_command_on_a_large_tree(tmp_path):
    # 40 vertices and 8 robots, planned and replayed from the manifest
    plan_and_replay(tmp_path, random_tree(random.Random("tree-cli"), n_lo=40, n_hi=40), 8)


def test_tree_command_on_a_5000_vertex_tree(tmp_path):
    # no all-pairs table: a tree of 5000 vertices loads, plans and replays
    plan_and_replay(tmp_path, random_tree(random.Random("tree-5000"), n_lo=5000, n_hi=5000), 8)
