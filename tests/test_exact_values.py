"""Exact refresh time, latency and meeting instants pinned on seeded
instances.

The expected values below were recorded from the evaluator that computed
in plain ``Fraction`` arithmetic throughout.  The evaluator on an integer
time grid must reproduce every one of them with ``==``, and still return
its meeting instants as ``Fraction``s.  The instances cover the four
synthesizers on a general chain and on a chain of thirds and sevenths, a
random-dwell trajectory (dwells with denominators up to 64, so the grid is
not dyadic), a JSON round trip (float breakpoints, so segment speeds are
not exactly one and crossings fall off the grid), and a chain with a
subnormal coordinate, whose grid denominator exceeds 2**1074 and so cannot
be turned into a float.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import pytest

from patrolsim.metrics import communication_instants, latency, refresh_time
from patrolsim.partition import optimal_partition_bisect, partition_from_clusters
from patrolsim.roadmap import ChainRoadmap
from patrolsim.trajectories import (
    TeamTrajectory,
    min_latency_trajectory,
    min_refresh_trajectory,
    min_up_latency_trajectory,
    opposite_phase_trajectory,
    to_grid,
)

from conftest import random_chain, random_image_trajectory, singleton_group_instance

SYNTHESIZERS = {
    "min_refresh": min_refresh_trajectory,
    "min_up_latency": min_up_latency_trajectory,
    "min_latency": min_latency_trajectory,
    "opposite_phase": opposite_phase_trajectory,
}


def instances() -> dict[str, TeamTrajectory]:
    out = {}
    for seed in (606, 607):
        rng = random.Random(seed)
        chain = random_chain(rng, n_max=30)
        part, _ = optimal_partition_bisect(chain, 4, 1e-9)
        horizon = Fraction(22, 3) * 2 * part.dimension_exact
        for name in ("min_refresh", "min_up_latency", "min_latency"):
            out[f"{name}.{seed}"] = SYNTHESIZERS[name](part, horizon)
        # rational coordinates: equal cluster lengths, thirds and sevenths
        d, gap = Fraction(rng.randint(4, 12), 3), Fraction(rng.randint(1, 9), 7)
        chain = ChainRoadmap([k // 2 * (d + gap) + k % 2 * d for k in range(8)])
        equal = partition_from_clusters(chain, tuple((2 * i, 2 * i + 1) for i in range(4)))
        out[f"opposite_phase.{seed}"] = opposite_phase_trajectory(equal, Fraction(41, 2) * d)
        chain, part = singleton_group_instance(rng, m=4)
        out[f"random_image.{seed}"] = random_image_trajectory(rng, part, horizon=9 * part.dimension)
        # coordinates in quarters and breakpoints in 64ths: a small grid, and
        # crossings between its points (test_grid_occupancy_is_exact)
        coords = [0.0]
        for _ in range(11):
            coords.append(coords[-1] + rng.randint(1, 6) * 0.25)
        chain = ChainRoadmap(coords)
        part, _ = optimal_partition_bisect(chain, 3, 1e-9)
        loaded = TeamTrajectory.from_document(random_float_document(rng, part), chain=chain)
        out[f"from_document.{seed}"] = TeamTrajectory.from_document(
            loaded.to_document(), chain=chain
        )
    return out


def random_float_document(rng: random.Random, part, moves: int = 24) -> dict:
    """A trajectory document as a user might write it: float breakpoints at
    multiples of 1/64, each robot dwelling, then moving at a speed below
    0.9, to a random eighth of its cluster on even moves and to its far end
    on odd ones.  Most viewpoint visits are then crossings between the
    points of the grid."""
    robots = []
    for i in part.active:
        l, r = part.left(i), part.right(i)
        t, x, pts = 0.0, l, [[0.0, l]]
        for k in range(moves):
            t += max(1, math.ceil(rng.uniform(0.0, 2.0) * 64)) / 64
            pts.append([t, x])
            if k % 2:
                target = r if 2 * x < l + r else l
            else:
                target = l + rng.randint(0, round((r - l) * 8)) / 8
            if target != x:
                t += math.ceil(abs(target - x) / rng.uniform(0.3, 0.9) * 64) / 64
                x = target
                pts.append([t, x])
        robots.append({"id": i, "breakpoints": pts})
    horizon = min(rob["breakpoints"][-1][0] for rob in robots)
    for rob in robots:
        rob["breakpoints"] = [bp for bp in rob["breakpoints"] if bp[0] < horizon]
        rob["breakpoints"].append([horizon, rob["breakpoints"][-1][1]])
    return {"period": None, "robots": robots}


def subnormal_instances() -> dict[str, TeamTrajectory]:
    # 5e-324 is 2**-1074; next to the one-viewpoint cluster at 0 it makes
    # meeting instants multiples of 1 - 2**-1074
    chain = ChainRoadmap([0.0, 5e-324, 1.0, 2.0, 3.0, 3.5, 4.5])
    lone = partition_from_clusters(chain, ((0,), (1, 2), (3, 4), (5, 6)))
    equal = partition_from_clusters(chain, ((0, 1, 2), (3, 4), (5, 6)))
    horizon = Fraction(29, 2)
    return {
        name: synth(equal if name == "opposite_phase" else lone, horizon)
        for name, synth in SYNTHESIZERS.items()
    }


def observe(traj: TeamTrajectory, digest: bool = False) -> dict:
    """The pinned outputs of one trajectory; with ``digest`` the meeting
    instants are kept as a SHA-256 of their decimal strings."""
    warmup = traj.horizon / 5
    refresh = {
        "refresh": refresh_time(traj),
        "refresh_strict": refresh_time(traj, strict=True),
        "refresh_warmup": refresh_time(traj, warmup=warmup),
        "refresh_warmup_strict": refresh_time(traj, warmup=warmup, strict=True),
    }
    lat = latency(traj)
    obs = {**refresh, "latency": (lat.up, lat.down, lat.overall)}
    assert all(type(v) is float for v in (*refresh.values(), *obs["latency"]))
    for key, t_end in (("instants", None), ("instants_t_end", traj.horizon / 3)):
        phis = communication_instants(traj, t_end=t_end)
        assert all(type(t) is Fraction for phi in phis for t in phi)
        obs[key] = tuple(" ".join(map(str, phi)) for phi in phis)
        if digest:
            obs[key] = hashlib.sha256("|".join(obs[key]).encode()).hexdigest()
    return obs


EXPECTED: dict[str, dict] = {'from_document.606': {'instants': ('0 1669/64', '0 1805/32 255/4'),
                       'instants_t_end': ('0 1669/64', '0'),
                       'latency': (30.328125, 43.984375, 43.984375),
                       'refresh': 33.4375,
                       'refresh_strict': 56.40625,
                       'refresh_warmup': 33.4375,
                       'refresh_warmup_strict': 50.375},
 'from_document.607': {'instants': ('0 231/32 2001/32', '0 5247/64'),
                       'instants_t_end': ('0 231/32', '0'),
                       'latency': (74.765625, 7.25, 74.765625),
                       'refresh': 59.265625,
                       'refresh_strict': 59.265625,
                       'refresh_warmup': 59.265625,
                       'refresh_warmup_strict': 59.265625},
 'min_latency.606': {'instants': ('0 1042904959399123/35184372088832 '
                                  '3128714878197369/35184372088832 '
                                  '5214524796995615/35184372088832 '
                                  '7300334715793861/35184372088832 '
                                  '9386144634592107/35184372088832 '
                                  '11471954553390353/35184372088832 '
                                  '13557764472188599/35184372088832',
                                  '0 1042904959399123/17592186044416 '
                                  '1042904959399123/8796093022208 '
                                  '3128714878197369/17592186044416 '
                                  '1042904959399123/4398046511104 '
                                  '5214524796995615/17592186044416 '
                                  '3128714878197369/8796093022208 '
                                  '7300334715793861/17592186044416',
                                  '0 1042904959399123/35184372088832 '
                                  '3128714878197369/35184372088832 '
                                  '5214524796995615/35184372088832 '
                                  '7300334715793861/35184372088832 '
                                  '9386144634592107/35184372088832 '
                                  '11471954553390353/35184372088832 '
                                  '13557764472188599/35184372088832'),
                     'instants_t_end': ('0 1042904959399123/35184372088832 '
                                        '3128714878197369/35184372088832',
                                        '0 1042904959399123/17592186044416 '
                                        '1042904959399123/8796093022208',
                                        '0 1042904959399123/35184372088832 '
                                        '3128714878197369/35184372088832'),
                     'latency': (59.282283439138325,
                                 59.282283439138325,
                                 59.282283439138325),
                     'refresh': 59.282283439138325,
                     'refresh_strict': 59.282283439138325,
                     'refresh_warmup': 59.282283439138325,
                     'refresh_warmup_strict': 59.282283439138325},
 'min_latency.607': {'instants': ('0 1361528324798715/70368744177664 '
                                  '4084584974396145/70368744177664 '
                                  '6807641623993575/70368744177664 '
                                  '9530698273591005/70368744177664 '
                                  '12253754923188435/70368744177664 '
                                  '14976811572785865/70368744177664 '
                                  '17699868222383295/70368744177664',
                                  '0 1361528324798715/35184372088832 '
                                  '1361528324798715/17592186044416 '
                                  '4084584974396145/35184372088832 '
                                  '1361528324798715/8796093022208 '
                                  '6807641623993575/35184372088832 '
                                  '4084584974396145/17592186044416 '
                                  '9530698273591005/35184372088832',
                                  '0 1361528324798715/70368744177664 '
                                  '4084584974396145/70368744177664 '
                                  '6807641623993575/70368744177664 '
                                  '9530698273591005/70368744177664 '
                                  '12253754923188435/70368744177664 '
                                  '14976811572785865/70368744177664 '
                                  '17699868222383295/70368744177664'),
                     'instants_t_end': ('0 1361528324798715/70368744177664 '
                                        '4084584974396145/70368744177664',
                                        '0 1361528324798715/35184372088832 '
                                        '1361528324798715/17592186044416',
                                        '0 1361528324798715/70368744177664 '
                                        '4084584974396145/70368744177664'),
                     'latency': (38.69696242869381, 38.69696242869381, 38.69696242869381),
                     'refresh': 38.69696242869381,
                     'refresh_strict': 38.69696242869381,
                     'refresh_warmup': 38.69696242869381,
                     'refresh_warmup_strict': 38.69696242869381},
 'min_refresh.606': {'instants': ('0', '0', '0'),
                     'instants_t_end': ('0', '0', '0'),
                     'latency': (0.0, 0.0, 0.0),
                     'refresh': 59.282283439138325,
                     'refresh_strict': 59.282283439138325,
                     'refresh_warmup': 59.282283439138325,
                     'refresh_warmup_strict': 59.282283439138325},
 'min_refresh.607': {'instants': ('0', '0', '0'),
                     'instants_t_end': ('0', '0', '0'),
                     'latency': (0.0, 0.0, 0.0),
                     'refresh': 38.69696242869381,
                     'refresh_strict': 38.69696242869381,
                     'refresh_warmup': 38.69696242869381,
                     'refresh_warmup_strict': 38.69696242869381},
 'min_up_latency.606': {'instants': ('0 1042904959399123/35184372088832 '
                                     '3128714878197369/35184372088832 '
                                     '5214524796995615/35184372088832 '
                                     '7300334715793861/35184372088832 '
                                     '9386144634592107/35184372088832 '
                                     '11471954553390353/35184372088832 '
                                     '13557764472188599/35184372088832',
                                     '0 4115910201730547/70368744177664 '
                                     '8287530039327039/70368744177664 '
                                     '12459149876923531/70368744177664 '
                                     '16630769714520023/70368744177664 '
                                     '20802389552116515/70368744177664 '
                                     '24974009389713007/70368744177664 '
                                     '29145629227309499/70368744177664',
                                     '0 6003536953113725/70368744177664 '
                                     '10175156790710217/70368744177664 '
                                     '14346776628306709/70368744177664 '
                                     '18518396465903201/70368744177664 '
                                     '22690016303499693/70368744177664 '
                                     '26861636141096185/70368744177664'),
                        'instants_t_end': ('0 1042904959399123/35184372088832 '
                                           '3128714878197369/35184372088832',
                                           '0 4115910201730547/70368744177664 '
                                           '8287530039327039/70368744177664',
                                           '0 6003536953113725/70368744177664 '
                                           '10175156790710217/70368744177664'),
                        'latency': (55.67424969847649,
                                    62.890317179800164,
                                    62.890317179800164),
                        'refresh': 59.282283439138325,
                        'refresh_strict': 112.7154510906287,
                        'refresh_warmup': 59.282283439138325,
                        'refresh_warmup_strict': 59.282283439138325},
 'min_up_latency.607': {'instants': ('0 1303282491914099/70368744177664 '
                                     '4026339141511529/70368744177664 '
                                     '6749395791108959/70368744177664 '
                                     '9472452440706389/70368744177664 '
                                     '12195509090303819/70368744177664 '
                                     '14918565739901249/70368744177664 '
                                     '17641622389498679/70368744177664',
                                     '0 5117237100309633/140737488355328 '
                                     '10563350399504493/140737488355328 '
                                     '16009463698699353/140737488355328 '
                                     '21455576997894213/140737488355328 '
                                     '26901690297089073/140737488355328 '
                                     '32347803596283933/140737488355328 '
                                     '37793916895478793/140737488355328',
                                     '0 7733626571035151/140737488355328 '
                                     '13179739870230011/140737488355328 '
                                     '18625853169424871/140737488355328 '
                                     '24071966468619731/140737488355328 '
                                     '29518079767814591/140737488355328 '
                                     '34964193067009451/140737488355328'),
                        'instants_t_end': ('0 1303282491914099/70368744177664 '
                                           '4026339141511529/70368744177664',
                                           '0 5117237100309633/140737488355328 '
                                           '10563350399504493/140737488355328',
                                           '0 7733626571035151/140737488355328 '
                                           '13179739870230011/140737488355328'),
                        'latency': (36.4299636658455, 40.96396119154212, 40.96396119154212),
                        'refresh': 38.69696242869381,
                        'refresh_strict': 74.29920302565009,
                        'refresh_warmup': 38.69696242869381,
                        'refresh_warmup_strict': 38.69696242869381},
 'opposite_phase.606': {'instants': ('0 10/3 10 50/3 70/3 30 110/3 130/3 50 170/3 190/3',
                                     '0 20/3 40/3 20 80/3 100/3 40 140/3 160/3 60 200/3',
                                     '0 10/3 10 50/3 70/3 30 110/3 130/3 50 170/3 190/3'),
                        'instants_t_end': ('0 10/3 10 50/3',
                                           '0 20/3 40/3 20',
                                           '0 10/3 10 50/3'),
                        'latency': (6.666666666666667,
                                    6.666666666666667,
                                    6.666666666666667),
                        'refresh': 6.666666666666667,
                        'refresh_strict': 6.666666666666667,
                        'refresh_warmup': 6.666666666666667,
                        'refresh_warmup_strict': 6.666666666666667},
 'opposite_phase.607': {'instants': ('0 3 9 15 21 27 33 39 45 51 57',
                                     '0 6 12 18 24 30 36 42 48 54 60',
                                     '0 3 9 15 21 27 33 39 45 51 57'),
                        'instants_t_end': ('0 3 9 15', '0 6 12 18', '0 3 9 15'),
                        'latency': (6.0, 6.0, 6.0),
                        'refresh': 6.0,
                        'refresh_strict': 6.0,
                        'refresh_warmup': 6.0,
                        'refresh_warmup_strict': 6.0},
 'random_image.606': {'instants': ('0 29242437305674289097/8811292670950375424',
                                   '0 147291159925386227/77687093572141056 '
                                   '3074675101244882675443/442525106760308490240',
                                   '0 4875908808701047253/1689764653938245632 '
                                   '24716973755812924189/5438096550049873920 '
                                   '280204105575353514378049/46229426284769493123072'),
                      'instants_t_end': ('0',
                                         '0 147291159925386227/77687093572141056',
                                         '0'),
                      'latency': (4.143404255119926, 4.576594709637749, 4.576594709637749),
                      'refresh': 2.177486255356854,
                      'refresh_strict': 2.177486255356854,
                      'refresh_warmup': 2.1582554861260848,
                      'refresh_warmup_strict': 2.1582554861260848},
 'random_image.607': {'instants': ('0 1423970181242028316129/187161156264216494080 '
                                   '39245129023975898549947/3368900812755896893440',
                                   '0',
                                   '0'),
                      'instants_t_end': ('0', '0', '0'),
                      'latency': (5.624164886208427, 0.0, 5.624164886208427),
                      'refresh': 3.7542512106033405,
                      'refresh_strict': 3.7542512106033405,
                      'refresh_warmup': 3.685636240860689,
                      'refresh_warmup_strict': 3.685636240860689}}

SUBNORMAL_EXPECTED: dict[str, dict] = {'min_latency': {'instants': 'abdda1b869ab0eb5e3f77768b96ad6f6592ae8c08d4144707864baf26f862581',
                 'instants_t_end': '564d79d185c44afb9e14a36d12abec7c9d24d57b530fc2459d93d0c5558cb408',
                 'latency': (2.0, 2.0, 2.0),
                 'refresh': 2.0,
                 'refresh_strict': 2.0,
                 'refresh_warmup': 2.0,
                 'refresh_warmup_strict': 2.0},
 'min_refresh': {'instants': '7848ebf51ad75034a243dcd7334d10e27a537aca61a92e022e528e280c59032d',
                 'instants_t_end': 'd03c595dfd1e97bcd46f85b6ae1826644708a61f8a1258b0f8a06b9034a4a17c',
                 'latency': (12.5, 0.0, 12.5),
                 'refresh': 2.0,
                 'refresh_strict': 2.0,
                 'refresh_warmup': 2.0,
                 'refresh_warmup_strict': 2.0},
 'min_up_latency': {'instants': '8b024b293e13ec5a289c35381dbacc4b3f3d4ef287b7435c15ea1e84ec446060',
                    'instants_t_end': '6f40407227d410f872da6fa3d23bf2c95619124eb7786a59cdaa02a2f53df523',
                    'latency': (2.0, 2.0, 2.0),
                    'refresh': 2.0,
                    'refresh_strict': 3.0,
                    'refresh_warmup': 2.0,
                    'refresh_warmup_strict': 2.0},
 'opposite_phase': {'instants': '60854cde7910c8084d7f4e2c98e92c8de1ab2c18d0bb1570a86a00e2ed4a40d8',
                    'instants_t_end': 'ed22b178fc56570710bcda13749ad07d5b2777391b865b429b5de3e8d8b451b7',
                    'latency': (1.0, 1.0, 1.0),
                    'refresh': 2.0,
                    'refresh_strict': 2.0,
                    'refresh_warmup': 2.0,
                    'refresh_warmup_strict': 2.0}}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_pinned_exact_values(name):
    assert observe(instances()[name]) == EXPECTED[name]


def test_every_instance_is_pinned():
    assert sorted(instances()) == sorted(EXPECTED)
    assert sorted(subnormal_instances()) == sorted(SUBNORMAL_EXPECTED)


@pytest.mark.parametrize("name", sorted(SUBNORMAL_EXPECTED))
def test_subnormal_coordinate(name):
    traj = subnormal_instances()[name]
    assert Fraction(traj.chain.coords_exact[1]).denominator == 2**1074
    # the instants run to about 650 digits each, so they are pinned by digest
    assert observe(traj, digest=True) == SUBNORMAL_EXPECTED[name]


def test_grid_occupancy_is_exact():
    # every visit found on the integer grid, mapped back by D, is a time at
    # which the loaded path sits exactly at the viewpoint
    off_grid = 0
    for name, traj in instances().items():
        if not name.startswith("from_document"):
            continue
        coords = traj.chain.coords_exact
        D, grid, scaled = to_grid(traj.robots, coords)
        for path, gpath in zip(traj.robots, grid):
            for c, gc in zip(coords, scaled):
                eps = gpath.occupancy(gc)
                off_grid += sum(type(s) is Fraction for s, _ in eps)
                eps = [(Fraction(s, D), Fraction(e, D)) for s, e in eps]
                assert eps == path.occupancy(c)
                for s, e in eps:
                    assert path.position(s) == c == path.position(e)
    assert off_grid > 0
