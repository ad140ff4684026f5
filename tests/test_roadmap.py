from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import patrolsim
from patrolsim.cover import chainify
from patrolsim.roadmap import (
    ChainRoadmap,
    MetricViolation,
    Roadmap,
    RoadmapError,
    TreeRoadmap,
    dump_roadmap,
    load_roadmap,
)

from conftest import brute_shortest_path, exact_distances, random_metric_roadmap, random_tree


def unit_triangle() -> Roadmap:
    return Roadmap(
        ["a", "b", "c"],
        [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)],
    )


class TestLoading:
    def test_chain_document(self):
        g = load_roadmap({"kind": "chain", "coordinates": [0, 1, 3, 6]})
        assert isinstance(g, ChainRoadmap)
        assert g.n == 4
        assert g.coordinates == (0.0, 1.0, 3.0, 6.0)

    def test_triangle_document(self):
        doc = unit_triangle().to_document()
        g = load_roadmap(doc)
        assert isinstance(g, Roadmap) and not isinstance(g, TreeRoadmap)
        assert g.n == 3

    def test_star_is_tree(self):
        doc = {
            "kind": "tree",
            "vertices": [{"id": v} for v in ["c", "a", "b", "d"]],
            "edges": [
                {"u": "c", "v": "a", "length": 1.0},
                {"u": "c", "v": "b", "length": 1.0},
                {"u": "c", "v": "d", "length": 1.0},
            ],
        }
        g = load_roadmap(doc)
        assert isinstance(g, TreeRoadmap)
        assert len(g.edges) == g.n - 1 == 3

    def test_round_trip_bit_exact(self, tmp_path, rng):
        g = random_metric_roadmap(rng)
        path = tmp_path / "g.json"
        dump_roadmap(g, path)
        g2 = load_roadmap(path)
        assert g2.ids == g.ids
        assert g2.edges == g.edges  # lengths compare bit-exactly
        path2 = tmp_path / "g2.json"
        dump_roadmap(g2, path2)
        assert path.read_text() == path2.read_text()

    def test_parse_errors(self):
        with pytest.raises(RoadmapError):
            load_roadmap({"kind": "chain", "coordinates": [0.0]})
        with pytest.raises(RoadmapError):
            load_roadmap({"kind": "blob", "vertices": [], "edges": []})
        with pytest.raises(RoadmapError):
            load_roadmap({"kind": "chain", "coordinates": [0, 1], "edges": [{}]})

    def test_disconnected_rejected(self):
        with pytest.raises(RoadmapError, match="disconnected"):
            Roadmap(["a", "b", "c"], [("a", "b", 1.0)])

    def test_disconnected_reports_component_count(self):
        with pytest.raises(RoadmapError, match=r"disconnected \(3 components\)"):
            Roadmap(["a", "b", "c", "d"], [("c", "d", 1.0)])

    def test_nonpositive_length_rejected(self):
        with pytest.raises(RoadmapError, match="non-positive"):
            Roadmap(["a", "b"], [("a", "b", 0.0)])

    def test_triangle_violation_reported_with_triple(self):
        with pytest.raises(MetricViolation) as err:
            Roadmap(
                ["a", "b", "c"],
                [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 5.0)],
            )
        assert err.value.triple == ("a", "c", 5.0)

    def test_triangle_violation_demotable_to_warning(self):
        with pytest.warns(UserWarning):
            g = Roadmap(
                ["a", "b", "c"],
                [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 5.0)],
                strict_metric=False,
            )
        assert g.n == 3

    def test_metric_check_is_exact(self):
        # 0.1 + 0.2 rounds to 0.30000000000000004, but exactly the route
        # through b is 2.8e-17 shorter than that edge, so the edge is not a
        # shortest route and strict loading rejects it
        edges = [("a", "b", 0.1), ("b", "c", 0.2), ("a", "c", 0.30000000000000004)]
        assert Fraction(0.1) + Fraction(0.2) < Fraction(0.30000000000000004)
        with pytest.raises(MetricViolation) as err:
            Roadmap(["a", "b", "c"], edges)
        assert err.value.triple == ("a", "c", 0.30000000000000004)
        with pytest.warns(UserWarning, match="shorter by 2.7755575615628914e-17"):
            g = Roadmap(["a", "b", "c"], edges, strict_metric=False)
        # the exact route rounds (half to even) onto the edge's own length
        assert g.distance("a", "c") == float(Fraction(0.1) + Fraction(0.2))
        assert g.distance("a", "c") == 0.30000000000000004


def test_import_loads_no_scipy():
    # a fresh interpreter: this test process has scipy loaded already
    code = (
        "import sys, patrolsim, patrolsim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(patrolsim.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"


class TestDistances:
    def test_direct_edge(self):
        assert unit_triangle().distance("a", "b") == 1.0

    def test_chain_end_to_end(self):
        g = ChainRoadmap([0, 1, 3, 6])
        assert g.distance("v1", "v4") == 6.0

    def test_square_diagonal(self):
        g = Roadmap(
            ["a", "b", "c", "d"],
            [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("d", "a", 1.0)],
        )
        # derived independently by brute-force path enumeration
        assert brute_shortest_path(g, "a", "c") == 2.0
        assert g.distance("a", "c") == 2.0

    def test_unknown_vertex(self):
        with pytest.raises(RoadmapError):
            unit_triangle().distance("a", "zz")

    def test_metric_axioms_exhaustive(self, rng):
        for _ in range(5):
            g = random_metric_roadmap(rng, n_lo=5, n_hi=12)
            assert g.n <= 20
            for u in g.ids:
                assert g.distance(u, u) == 0.0
                for v in g.ids:
                    assert g.distance(u, v) == g.distance(v, u)
                    if u != v:
                        assert g.distance(u, v) > 0.0
                    for w in g.ids:
                        assert g.distance(u, v) <= g.distance(u, w) + g.distance(w, v) + 1e-12

    def test_distances_are_exact_shortest_paths_rounded_once(self, rng):
        roadmaps = [random_metric_roadmap(rng, n_lo=3, n_hi=30) for _ in range(200)]
        # dyadic grids with tied routes: every a-by-b cell has two shortest
        # routes between opposite corners, and a diagonal chord ties both
        for a, b in [(0.125, 0.375), (0.5, 0.5), (1.5, 0.25), (0.75, 3.0)]:
            ids = [f"p{r}{c}" for r in range(3) for c in range(4)]
            edges = [(f"p{r}{c}", f"p{r}{c + 1}", a) for r in range(3) for c in range(3)]
            edges += [(f"p{r}{c}", f"p{r + 1}{c}", b) for r in range(2) for c in range(4)]
            edges += [("p00", "p11", a + b), ("p12", "p23", a + b)]
            roadmaps.append(Roadmap(ids, edges))
        for g in roadmaps:
            exact = exact_distances(g)
            for i, u in enumerate(g.ids):
                for j, v in enumerate(g.ids):
                    assert g.distance(u, v) == float(exact[i][j])
                    assert g.distance(u, v) == g.distance(v, u)

    def test_chain_agrees_with_general_representation(self, rng):
        coords = [0.0]
        for _ in range(9):
            coords.append(coords[-1] + rng.uniform(0.1, 5.0))
        chain = ChainRoadmap(coords)
        g = chain.as_roadmap()
        for u in chain.ids:
            for v in chain.ids:
                assert math.isclose(
                    chain.distance(u, v), g.distance(u, v), rel_tol=0, abs_tol=1e-9
                )


class TestTreeRoadmap:
    def test_cyclic_graph_with_n_edges_rejected(self):
        with pytest.raises(RoadmapError, match="n-1 edges, got 3 for n=3"):
            TreeRoadmap(["a", "b", "c"], unit_triangle().edges)

    def test_cycle_checks_its_metric_before_its_edge_count(self):
        edges = [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 5.0)]
        with pytest.raises(MetricViolation):
            TreeRoadmap(["a", "b", "c"], edges)
        with pytest.warns(UserWarning), pytest.raises(RoadmapError, match="n-1 edges"):
            TreeRoadmap(["a", "b", "c"], edges, strict_metric=False)

    def test_disconnected_reports_component_count(self):
        # n - 1 edges, one of them closing a cycle: two components
        edges = [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)]
        with pytest.raises(RoadmapError, match=r"disconnected \(2 components\)"):
            TreeRoadmap(["a", "b", "c", "d"], edges)
        with pytest.raises(RoadmapError, match=r"disconnected \(4 components\)"):
            TreeRoadmap(["a", "b", "c", "d"], [])

    def test_distances_are_exact_path_lengths_rounded_once(self, rng):
        trees = [random_tree(rng, n_lo=1, n_hi=25) for _ in range(40)]
        trees.append(TreeRoadmap(["a"], []))
        for t in trees:
            exact = exact_distances(t)
            for i, u in enumerate(t.ids):
                for j, v in enumerate(t.ids):
                    assert t.distance(u, v) == float(exact[i][j])
            assert (t.distance_matrix() == np.array(exact, dtype=float)).all()
            assert t.grid_distances == tuple(
                tuple(int(d * t.grid[0]) for d in row) for row in exact
            )


class TestEdgeRatio:
    def test_unit_triangle(self):
        assert unit_triangle().edge_length_ratio() == 1.0

    def test_two_edges(self):
        g = Roadmap(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 4.0)])
        assert g.edge_length_ratio() == 4.0

    def test_chain(self):
        assert ChainRoadmap([0, 1, 3, 6]).edge_length_ratio() == 3.0


class TestChainInvariants:
    def test_first_coordinate_pinned(self):
        with pytest.raises(RoadmapError):
            ChainRoadmap([1.0, 2.0])

    def test_strictly_increasing(self):
        with pytest.raises(RoadmapError):
            ChainRoadmap([0.0, 2.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_non_finite_coordinate_named(self, bad, at):
        coords = [0.0, 1.0, 2.5, 4.0, 7.0]
        coords[at] = bad
        with pytest.raises(RoadmapError, match=f"chain coordinate {at} is not a finite number"):
            ChainRoadmap(coords)

    def test_views_and_errors_match_fraction_reference(self, rng):
        # random float, int and Fraction chains, chains from chainify, and
        # the same chains with one fault each
        chains = [[-0.0, 1.5, 2.0], [0, 1, Fraction(1) + Fraction(1, 10**30)]]
        for _ in range(30):
            n = rng.randint(2, 30)
            floats = [0.0]
            for _ in range(n - 1):
                floats.append(floats[-1] + rng.uniform(0.01, 5.0))
            ints = [0] + [rng.randint(1, 2**70) for _ in range(n - 1)]
            ints = [sum(ints[: i + 1]) for i in range(n)]
            tour = list(chainify(random_metric_roadmap(rng)).chain.coords_exact)
            chains += [floats, ints, tour]
        for coords in chains[:]:
            for fault in range(3):
                bad = list(coords)
                i = rng.randrange(1, len(bad))
                if fault == 0:
                    bad[0] = bad[i]
                elif fault == 1:
                    bad[i] = bad[i - 1]
                else:
                    bad[i - 1], bad[i] = bad[i], bad[i - 1]
                chains.append(bad)
        for coords in chains:
            want = fraction_chain_reference(coords)
            try:
                chain = ChainRoadmap(coords)
            except RoadmapError as exc:
                assert str(exc) == want
            else:
                got = (chain.coordinates, chain.coords_exact, chain.grid)
                assert got == want
                assert all(math.copysign(1.0, c) == 1.0 for c in chain.coordinates)


def fraction_chain_reference(coordinates):
    """The chain constructor as it was written in ``Fraction`` arithmetic:
    (coordinates, coords_exact, grid), or the message of the RoadmapError
    it raised."""
    exact = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coordinates)
    if len(exact) < 2:
        return "chain roadmap needs at least 2 viewpoints"
    if exact[0] != 0:
        return f"first chain coordinate must be 0, got {float(exact[0])!r}"
    for a, b in zip(exact, exact[1:]):
        if not b > a:
            return (
                f"chain coordinates must be strictly increasing "
                f"({float(a)!r} !< {float(b)!r})"
            )
    unit = math.lcm(*(x.denominator for x in exact))
    grid = (unit, tuple(x.numerator * (unit // x.denominator) for x in exact))
    return tuple(float(c) for c in exact), exact, grid
