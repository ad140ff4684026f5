from __future__ import annotations

import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from patrolsim import partition as partition_module
from patrolsim.cli import dispatch
from patrolsim.partition import (
    InfeasibleError,
    Partition,
    left_induced_cardinality,
    left_induced_partition,
    optimal_partition_bisect,
    optimal_partition_exact,
    partition_from_clusters,
)
from patrolsim.roadmap import ChainRoadmap

from conftest import grid_greedy_clusters, min_dimension_dp, min_span_dp_grid, random_chain


CHAIN_0136 = ChainRoadmap([0, 1, 3, 6])


def clusters_as_coords(part):
    c = part.chain.coordinates
    return [[c[i] for i in cl] for cl in part.clusters if cl]


class TestLeftInduced:
    def test_rho_two(self):
        # hand-executed recursion: anchor 0 takes {0,1}, then {3}, then {6}
        part = left_induced_partition(CHAIN_0136, 2.0)
        assert clusters_as_coords(part) == [[0.0, 1.0], [3.0], [6.0]]
        assert part.cardinality == 3

    def test_rho_zero_isolates(self):
        part = left_induced_partition(CHAIN_0136, 0.0)
        assert part.cardinality == 4
        assert all(len(c) == 1 for c in part.clusters)

    def test_rho_spans_chain(self):
        part = left_induced_partition(CHAIN_0136, 6.0)
        assert part.cardinality == 1

    def test_dimension_at_most_rho(self, rng):
        for _ in range(30):
            chain = random_chain(rng, n_max=40)
            rho = rng.uniform(0.0, chain.length)
            part = left_induced_partition(chain, rho)
            assert part.dimension <= rho

    def test_cardinality_monotone_in_rho(self, rng):
        for _ in range(30):
            chain = random_chain(rng, n_max=40)
            r1 = rng.uniform(0, chain.length)
            r2 = rng.uniform(0, chain.length)
            r1, r2 = min(r1, r2), max(r1, r2)
            assert left_induced_cardinality(chain, r1) >= left_induced_cardinality(chain, r2)


    @pytest.mark.parametrize("greedy", [left_induced_cardinality, left_induced_partition])
    @pytest.mark.parametrize("rho", [-1.0, math.nan])
    def test_negative_or_nan_rho_rejected(self, greedy, rho):
        with pytest.raises(ValueError, match="rho must be >= 0"):
            greedy(CHAIN_0136, rho)

    def test_negative_zero_rho_acts_as_zero(self):
        assert left_induced_cardinality(CHAIN_0136, -0.0) == 4
        assert left_induced_partition(CHAIN_0136, -0.0) == left_induced_partition(CHAIN_0136, 0.0)


class TestPartitionValidation:
    def test_accepts_padded_cover(self):
        part = partition_from_clusters(CHAIN_0136, ((0, 1), (2, 3), ()))
        assert part.cardinality == 2

    @pytest.mark.parametrize(
        "clusters, message",
        [
            (((0, 1), (1, 2, 3)), "viewpoint 1 appears in two clusters"),
            (((0, 2), (1, 3)), "clusters are not interval-ordered"),
            (((0, 1), (3,)), "clusters do not cover all viewpoints"),
            (((0, 1, 2, 3, 4),), "clusters do not cover all viewpoints"),
            (((0, 1), (), (2, 3)), "cluster 1 is empty but cluster 2 is not"),
            (((), (0, 1, 2, 3)), "cluster 0 is empty but cluster 1 is not"),
            # right lengths, reordered: the fast path's slice compare fails
            (((1, 0), (2, 3)), "clusters are not interval-ordered"),
        ],
    )
    def test_rejections(self, clusters, message):
        with pytest.raises(ValueError, match=message):
            partition_from_clusters(CHAIN_0136, clusters)

    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.integers(0, 3), min_size=1, max_size=6))
    def test_accepts_exactly_ordered_covers(self, sizes):
        # consecutive index ranges of the drawn sizes form a valid partition
        # when they cover all six viewpoints and every empty one is trailing
        chain = ChainRoadmap([0, 1, 2, 3, 4, 5])
        bounds = [sum(sizes[:k]) for k in range(len(sizes) + 1)]
        clusters = [tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])]
        valid = bounds[-1] == 6 and sizes == sorted(sizes, key=lambda k: k == 0)
        if valid:
            assert partition_from_clusters(chain, clusters).cardinality == sum(map(bool, sizes))
        else:
            with pytest.raises(ValueError):
                partition_from_clusters(chain, clusters)


class TestExact:
    def test_m2(self):
        part = optimal_partition_exact(CHAIN_0136, 2)
        assert part.dimension == 3.0
        assert clusters_as_coords(part) == [[0.0, 1.0, 3.0], [6.0]]

    def test_m1(self):
        part = optimal_partition_exact(CHAIN_0136, 1)
        assert part.dimension == 6.0

    def test_m3(self):
        assert optimal_partition_exact(CHAIN_0136, 3).dimension == 1.0

    def test_uneven_chain(self):
        chain = ChainRoadmap([0, 2, 2.5, 3, 10])
        part = optimal_partition_exact(chain, 2)
        assert part.dimension == 3.0
        assert clusters_as_coords(part) == [[0.0, 2.0, 2.5, 3.0], [10.0]]

    def test_matches_dp_oracle(self, rng):
        for _ in range(40):
            chain = random_chain(rng, n_max=15)
            m = rng.randint(1, chain.n - 1)
            part = optimal_partition_exact(chain, m)
            assert part.dimension == min_dimension_dp(chain.coordinates, m)

    def test_m_too_large_rejected(self):
        with pytest.raises(InfeasibleError):
            optimal_partition_exact(CHAIN_0136, 4)


class TestBisect:
    def test_examples(self):
        part, _ = optimal_partition_bisect(CHAIN_0136, 2, 1e-9)
        assert abs(part.dimension - 3.0) <= 1e-9
        part, _ = optimal_partition_bisect(CHAIN_0136, 3, 1e-9)
        assert abs(part.dimension - 1.0) <= 1e-9
        uniform = ChainRoadmap(list(range(10)))
        part, _ = optimal_partition_bisect(uniform, 5, 1e-9)
        assert abs(part.dimension - 1.0) <= 1e-9

    def test_padded_to_m(self):
        chain = ChainRoadmap(list(range(10)))
        part, _ = optimal_partition_bisect(chain, 7, 1e-9)
        assert part.m == 7
        assert part.cardinality <= 7

    def test_report_invariants(self, rng):
        for _ in range(20):
            chain = random_chain(rng, n_max=30)
            m = rng.randint(1, chain.n - 1)
            eps = 10 ** rng.uniform(-9, -3)
            part, rep = optimal_partition_bisect(chain, m, eps)
            assert rep.b - rep.a <= 2 * eps
            assert part.cardinality <= m
            bound = math.ceil(math.log2(2 * chain.length / (eps * m)))
            assert rep.iterations <= bound

    def test_gap_to_exact_within_eps(self, rng):
        for _ in range(40):
            chain = random_chain(rng, n_max=60)
            m = rng.randint(1, chain.n - 1)
            part, _ = optimal_partition_bisect(chain, m, 1e-9)
            exact = optimal_partition_exact(chain, m)
            gap = part.dimension_exact - exact.dimension_exact
            assert 0 <= gap <= 1e-9

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            optimal_partition_bisect(CHAIN_0136, 2, 6.0 / 2)
        with pytest.raises(ValueError):
            optimal_partition_bisect(CHAIN_0136, 2, 0.0)

    def test_m_too_large_rejected(self):
        with pytest.raises(InfeasibleError):
            optimal_partition_bisect(CHAIN_0136, 5, 1e-9)


@settings(max_examples=60, deadline=None)
@given(
    gaps=st.lists(st.floats(0.05, 10.0), min_size=3, max_size=25),
    data=st.data(),
)
def test_bisect_exact_property(gaps, data):
    coords = [0.0]
    for g in gaps:
        coords.append(coords[-1] + g)
    chain = ChainRoadmap(coords)
    m = data.draw(st.integers(1, chain.n - 1))
    part, _ = optimal_partition_bisect(chain, m, 1e-9)
    exact = optimal_partition_exact(chain, m)
    gap = part.dimension_exact - exact.dimension_exact
    assert 0 <= gap <= 1e-9


def test_exact_is_minimal_on_float_chain():
    gaps = [5.301554655979575, 1.301554655979575, 4.0, 5.301554655979575, 6.0,
            1.301554655979575, 9.301554655979576]
    coords = [0.0]
    for g in gaps:
        coords.append(coords[-1] + g)
    chain = ChainRoadmap(coords)
    part, _ = optimal_partition_bisect(chain, 3, 1e-9)
    exact = optimal_partition_exact(chain, 3)
    assert exact.dimension_exact <= part.dimension_exact


@settings(max_examples=100, deadline=None)
@given(
    base=st.floats(0.05, 10.0),
    steps=st.lists(st.sampled_from([0, 1, 4, -1, -2, -6]), min_size=2, max_size=24),
    data=st.data(),
)
def test_exact_on_repeated_fractional_gaps(base, steps, data):
    # gaps base, base+1 and base+4 share a fractional part up to rounding,
    # mixed with whole gaps (a negative step k stands for the gap -k), so
    # many coordinate differences tie or nearly tie in floats
    coords = [0.0]
    for k in steps:
        coords.append(coords[-1] + (base + k if k >= 0 else float(-k)))
    chain = ChainRoadmap(coords)
    m = data.draw(st.integers(1, chain.n - 1))
    unit, xs = chain.grid
    span = min_span_dp_grid(xs, m)
    exact = optimal_partition_exact(chain, m)
    assert exact.dimension_exact == Fraction(span, unit)
    greedy = grid_greedy_clusters(xs, span)
    assert exact.clusters == greedy + ((),) * (m - len(greedy))


def test_exact_at_scale(tmp_path):
    # n = 1e4: the search holds the grid ints and one greedy's cluster
    # starts, so its memory stays far below the n^2/2 candidate spans
    rng = random.Random(12)
    coords = [0.0]
    for _ in range(9999):
        coords.append(coords[-1] + rng.uniform(0.1, 10.0))
    chain = ChainRoadmap(coords)
    tracemalloc.start()
    try:
        exact = optimal_partition_exact(chain, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    part, _ = optimal_partition_bisect(chain, 50, 1e-9)
    assert 0 <= part.dimension_exact - exact.dimension_exact <= 1e-9

    roadmap = tmp_path / "chain.json"
    roadmap.write_text(json.dumps({"kind": "chain", "coordinates": coords}))
    out = tmp_path / "part.json"
    rc = dispatch(["partition", "--roadmap", str(roadmap), "-m", "50", "--exact",
                   "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["dimension"] == exact.dimension
    assert doc["rho_interval"] == [exact.dimension, exact.dimension]


def test_exact_passes_and_partitions_are_bounded(monkeypatch, rng):
    # every greedy pass at least halves the bracket of grid spans, and only
    # the final greedy is turned into a partition
    passes, built = [], []
    greedy = partition_module._grid_greedy
    validate = Partition.__post_init__

    def counting_greedy(*args):
        passes.append(args)
        return greedy(*args)

    def counting(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(partition_module, "_grid_greedy", counting_greedy)
    monkeypatch.setattr(Partition, "__post_init__", counting)
    for _ in range(20):
        chain = random_chain(rng, n_max=200)
        xs = chain.grid[1]
        passes.clear()
        built.clear()
        optimal_partition_exact(chain, rng.randint(1, chain.n - 1))
        assert 0 < len(passes) <= (xs[-1] - xs[0]).bit_length() + 1
        assert len(built) == 1


@settings(max_examples=60, deadline=None)
@given(
    gaps=st.lists(st.floats(0.05, 10.0), min_size=2, max_size=40),
    data=st.data(),
)
def test_bisect_returns_greedy_partition_at_b(gaps, data):
    coords = [0.0]
    for g in gaps:
        coords.append(coords[-1] + g)
    chain = ChainRoadmap(coords)
    m = data.draw(st.integers(1, chain.n - 1))
    eps = data.draw(st.floats(1e-9, 0.5)) * chain.length / m
    part, rep = optimal_partition_bisect(chain, m, eps)
    assert part == rep.partition == left_induced_partition(chain, rep.b).padded(m)
    assert left_induced_cardinality(chain, rep.a) > m


def test_bisect_validates_one_partition(monkeypatch, rng):
    # the loop tests spans with the greedy count alone; only the final span
    # is turned into a partition, padded before it is validated, whatever
    # the iteration count
    built = []
    validate = Partition.__post_init__

    def counting(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(Partition, "__post_init__", counting)
    for _ in range(5):
        chain = random_chain(rng, n_max=200)
        built.clear()
        _, rep = optimal_partition_bisect(chain, rng.randint(1, chain.n - 1), 1e-9)
        assert rep.iterations >= 20
        assert len(built) == 1


def test_bisect_builds_no_exact_view(rng):
    # the search and its closing check read float coordinates only, so a
    # fresh chain builds neither its rationals nor its grid
    for _ in range(5):
        chain = random_chain(rng, n_max=200)
        optimal_partition_bisect(chain, rng.randint(1, chain.n - 1), 1e-9)
        assert "grid" not in chain.__dict__
        assert "coords_exact" not in chain.__dict__


def test_bisect_at_scale():
    # n = 1e5: once the chain has built its grid and index tuple, a call
    # holds m slices of that tuple, not an int object per viewpoint
    rng = random.Random(13)
    coords = [0.0]
    for _ in range(99999):
        coords.append(coords[-1] + rng.uniform(0.1, 10.0))
    chain = ChainRoadmap(coords)
    m, eps = 201, 1e-9
    first, _ = optimal_partition_bisect(chain, m, eps)
    tracemalloc.start()
    try:
        part, _ = optimal_partition_bisect(chain, m, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert part == first
    exact = optimal_partition_exact(chain, m)
    assert 0 <= part.dimension_exact - exact.dimension_exact <= eps


def test_clusters_are_plain_index_ranges(rng):
    for _ in range(30):
        chain = random_chain(rng, n_max=80)
        m = rng.randint(1, chain.n - 1)
        parts = [
            left_induced_partition(chain, rng.uniform(0.0, chain.length)),
            optimal_partition_bisect(chain, m, 1e-9)[0],
            optimal_partition_exact(chain, m),
        ]
        for part in parts:
            start = 0
            for cluster in part.clusters:
                assert type(cluster) is tuple
                assert cluster == tuple(range(start, start + len(cluster)))
                start += len(cluster)
            assert start == chain.n


def test_average_partition_is_not_minmax_optimal():
    # a chain where cutting the three longest edges leaves one long tail
    # cluster: the max-span objective prefers cutting elsewhere
    coords = [0.0, 5.0, 10.0, 15.0, 16.0, 17.0, 18.0, 19.5, 21.0, 22.5]
    chain = ChainRoadmap(coords)
    m = 4
    lengths = [(coords[i + 1] - coords[i], i) for i in range(len(coords) - 1)]
    cut = {i for _, i in sorted(lengths, reverse=True)[: m - 1]}
    spans, start = [], 0
    for i in sorted(cut) + [len(coords) - 1]:
        spans.append(coords[i] - coords[start])
        start = i + 1
    avg_dim = max(spans)
    exact = optimal_partition_exact(chain, m)
    # both dimensions re-derived by enumeration
    assert avg_dim == 7.5
    assert min_dimension_dp(coords, m) == exact.dimension == 5.0
    assert avg_dim > exact.dimension
