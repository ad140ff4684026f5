"""Synthesized sweep trajectories, checked three ways.

- Against ``conftest.ORACLE_SYNTHESIZERS``, the synthesizers in plain
  ``Fraction`` arithmetic: every public view of every path must be ``==``.
  The chains cover float gaps in [0.1, 10], thirds and sevenths, a
  subnormal coordinate, zero-length clusters with parked robots and a
  chainified roadmap (exact cumulative sums); the horizons include ones
  whose denominator divides no chain grid unit (``Fraction(100, 7)``,
  37.3).
- Against SHA-256 digests of ``TeamTrajectory.to_document()`` JSON,
  recorded from the ``Fraction`` synthesizers.
- For ``Fraction`` arithmetic: the synthesizers build their paths on the
  chain's integer grid, so none may run while they work.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from patrolsim.cover import chainify
from patrolsim.partition import optimal_partition_bisect, partition_from_clusters
from patrolsim.roadmap import ChainRoadmap
from patrolsim.trajectories import (
    min_latency_trajectory,
    min_refresh_trajectory,
    min_up_latency_trajectory,
    opposite_phase_trajectory,
)

from conftest import ORACLE_SYNTHESIZERS, random_chain, random_metric_roadmap

SYNTHESIZERS = {
    "min_refresh": min_refresh_trajectory,
    "min_up_latency": min_up_latency_trajectory,
    "min_latency": min_latency_trajectory,
    "opposite_phase": opposite_phase_trajectory,
}


def rational_chain(rng: random.Random, k: int, equal: bool):
    """2k viewpoints in k two-viewpoint clusters: lengths in thirds (all
    equal when ``equal``) and gaps in sevenths."""
    d = [Fraction(rng.randint(4, 12), 3)] * k if equal else [
        Fraction(rng.randint(1, 12), 3) for _ in range(k)
    ]
    coords, x = [], Fraction(0)
    for di in d:
        coords += [x, x + di]
        x += di + Fraction(rng.randint(1, 9), 7)
    chain = ChainRoadmap(coords)
    return chain, partition_from_clusters(chain, tuple((2 * i, 2 * i + 1) for i in range(k)))


def partitions() -> dict[str, object]:
    out = {}
    for seed in (11, 12, 13):
        rng = random.Random(seed)
        chain = random_chain(rng, n_max=60)
        for m in (3, 6):
            out[f"general.{seed}.m{m}"], _ = optimal_partition_bisect(chain, m, 1e-9)
        for equal in (False, True):
            chain, part = rational_chain(rng, 4, equal)
            out[f"rational.{seed}.{'equal' if equal else 'mixed'}"] = part
        # a rational chain with two robots parked past its last cluster
        out[f"rational.{seed}.parked"] = part.padded(6)
        res = chainify(random_metric_roadmap(rng, n_lo=6, n_hi=10))
        out[f"chainified.{seed}"], _ = optimal_partition_bisect(res.chain, 3, 1e-9)
    subnormal = ChainRoadmap([0.0, 5e-324, 1.0, 2.0, 3.0, 3.5, 4.5])
    out["subnormal.lone"] = partition_from_clusters(
        subnormal, ((0,), (1, 2), (3, 4), (5, 6))
    )
    out["subnormal.equal"] = partition_from_clusters(subnormal, ((0, 1, 2), (3, 4), (5, 6)))
    # zero-length clusters among moving ones, then three parked robots
    zeros = ChainRoadmap([0.0, 1.5, 2.0, 2.75, 4.0, 4.25, 6.0])
    out["zero_length"] = partition_from_clusters(
        zeros, ((0,), (1, 2), (3,), (4, 5), (6,), (), (), ())
    )
    # every cluster a single viewpoint: dimension 0
    out["singletons"] = partition_from_clusters(zeros, tuple((i,) for i in range(7)) + ((),))
    return out


def horizons(part) -> list:
    """Horizons of at least one sweep period: whole numbers of periods, and
    multiples of 100/7 and of 37.3, whose denominators divide no grid unit."""
    period = 2 * part.dimension_exact
    out = [3 * period]
    for base in (Fraction(100, 7), 37.3):
        k = math.floor(float(period) / base) + 1
        k += k % 7 == 0
        out.append(base * k)
    return out


def cases():
    for pname, part in partitions().items():
        for h in horizons(part):
            for sname in SYNTHESIZERS:
                yield pytest.param(sname, part, h, id=f"{sname}-{pname}-{h}")


def build(synth, part, horizon):
    """The trajectory, or the type of the exception the synthesizer raised."""
    try:
        return synth(part, horizon)
    except ValueError as exc:
        return type(exc)


def path_views(path, coords) -> tuple:
    h = Fraction(path.horizon)
    times = [Fraction(0), h / 7, h / 3, h / 2 + Fraction(1, 11), h]
    return (
        path.horizon,
        path.anchor,
        path.period,
        path.prefix,
        path.cycle,
        path.value_range(),
        path.flatten(),
        [path.position(t) for t in times],
        [path.occupancy(c) for c in coords],
        [path.occupancy(c, h / 3) for c in coords],
    )


@pytest.mark.parametrize("name, part, horizon", cases())
def test_matches_fraction_oracle(name, part, horizon):
    got = build(SYNTHESIZERS[name], part, horizon)
    want = build(ORACLE_SYNTHESIZERS[name], part, horizon)
    if isinstance(want, type):
        assert got is want
        return
    assert (got.horizon, got.period, got.relay, got.m) == (
        want.horizon, want.period, want.relay, want.m
    )
    assert got.max_robot_period() == want.max_robot_period()
    coords = part.chain.coords_exact
    for p, q in zip(got.robots, want.robots, strict=True):
        assert path_views(p, coords) == path_views(q, coords)


def test_cases_cover_every_synthesizer():
    # agreeing on an error is not enough: most cases must build a team
    built = Counter(
        name
        for name, part, horizon in (param.values for param in cases())
        if not isinstance(build(SYNTHESIZERS[name], part, horizon), type)
    )
    assert min(built[name] for name in SYNTHESIZERS) >= 10, built


# ---------------------------------------------------------------------------
# golden documents

# recorded from the synthesizers in Fraction arithmetic
DIGESTS = {
    "min_latency.general.901": "4d62b58d860783de730c2c15a6f381650d7549a2b485f26233017ec01298a408",
    "min_latency.general.902": "2636964967a114ffbf07fc5297df1315bb9bf7368a8bb46097a9a386b599b34c",
    "min_latency.rational_equal.901": "39486a829b3011c5d046fa57e7e44ff5b6ffd7073215cf150e183406c36e95f0",
    "min_latency.rational_equal.902": "384b35536cf8f72690365f3e37d1a4f763ce10fbaa24375fd98b63c6ea0f5d45",
    "min_latency.rational_mixed.901": "9193d5295d20293d94d59f025a447e5ea00a6c8e85cfcac580e65fc1398c5811",
    "min_latency.rational_mixed.902": "46498ffc18316264dccef42736c7ff9809670a7fe1090ad3b141fadfe73dcbbe",
    "min_refresh.general.901": "d25a814185e1dabeacf688664e73249dcc9e1d428de89c91fb7e4442e5a81474",
    "min_refresh.general.902": "ed389c73ae112aac3e28c8d1a3c778761961b7458b2f218705ab59816d8ae4ef",
    "min_refresh.rational_equal.901": "f6c7cc709f39b41c204269da521901fa756d9c124da36b4f74eb1b49e39ea070",
    "min_refresh.rational_equal.902": "ca8f62536ebd7b46cf959afcc1d5ae2a92945b7cd613c71c2db90cb1ec4f62ea",
    "min_refresh.rational_mixed.901": "5f6ae73dde6dcc1b60ca1a24b4eb329db939fe4c216d5ee650e31d3b5941dd56",
    "min_refresh.rational_mixed.902": "7873cc6cb0ed181ee4deb5975f9a36ab824f04619c76d99064569483c7d9669e",
    "min_up_latency.general.901": "6610f403d868347295a40a669aaac0edb74fb4f1e22408ff5075d63fd3282035",
    "min_up_latency.general.902": "1a4ee3fc0342c65ff4e0323ffaf0b8bfd16c96afe48d105877ab534c85aecc3c",
    "min_up_latency.rational_equal.901": "69018668cb41850dc8d797fdb1c3de2e51aa3e2bf4c3ddc2b9194c81f276b57b",
    "min_up_latency.rational_equal.902": "8a2a3b48de82ee3771ef95d83ee8e00eba329a80ed02b13fff59bf6cb106c3bd",
    "min_up_latency.rational_mixed.901": "389685b0bbc25f6b6df12e7af60f943d82189c7f7e43c5a58d9a3556259a3e75",
    "min_up_latency.rational_mixed.902": "d0d0c80a84a42c95a2d51f899ecb45692ffdb5f667a10b1133504e3b86e6d0a6",
    "opposite_phase.rational_equal.901": "39486a829b3011c5d046fa57e7e44ff5b6ffd7073215cf150e183406c36e95f0",
    "opposite_phase.rational_equal.902": "384b35536cf8f72690365f3e37d1a4f763ce10fbaa24375fd98b63c6ea0f5d45",
}


def digest_instances() -> dict:
    out = {}
    for seed in (901, 902):
        rng = random.Random(seed)
        chain = random_chain(rng, n_max=40)
        part, _ = optimal_partition_bisect(chain, 5, 1e-9)
        horizon = Fraction(31, 3) * 2 * part.dimension_exact
        for name in ("min_refresh", "min_up_latency", "min_latency"):
            out[f"{name}.general.{seed}"] = (SYNTHESIZERS[name], part, horizon)
        for equal in (False, True):
            _, part = rational_chain(rng, 5, equal)
            kind = "equal" if equal else "mixed"
            if equal:
                part = part.padded(7)
            for name, synth in SYNTHESIZERS.items():
                if equal or name != "opposite_phase":
                    out[f"{name}.rational_{kind}.{seed}"] = (synth, part, Fraction(100, 7) * 3)
    return out


def document_digest(traj) -> str:
    return hashlib.sha256(json.dumps(traj.to_document(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(digest_instances()))
def test_document_matches_golden_digest(name):
    synth, part, horizon = digest_instances()[name]
    assert document_digest(synth(part, horizon)) == DIGESTS[name]


def test_every_document_is_pinned():
    assert sorted(digest_instances()) == sorted(DIGESTS)


# ---------------------------------------------------------------------------
# no Fraction arithmetic

ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__",
    "__neg__", "__pos__", "__abs__",
)


def test_synthesis_does_no_fraction_arithmetic(monkeypatch):
    # the exact workload's refresh instance: n=60 float gaps in [0.1, 10], m=10
    rng = random.Random(5)
    coords = [0.0]
    for _ in range(59):
        coords.append(coords[-1] + rng.uniform(0.1, 10.0))
    part, _ = optimal_partition_bisect(ChainRoadmap(coords), 10, 1e-9)
    horizon = 8 * 2 * part.dimension_exact
    calls = []
    for op in ARITHMETIC:
        def counted(*args, _op=op, _impl=getattr(Fraction, op)):
            calls.append(_op)
            return _impl(*args)

        monkeypatch.setattr(Fraction, op, counted)
    assert Fraction(1, 3) + 1 == Fraction(4, 3) and calls == ["__add__"]  # the count works
    calls.clear()
    for synth in (min_refresh_trajectory, min_up_latency_trajectory, min_latency_trajectory):
        synth(part, horizon)
    assert calls == []
