"""Golden SHA-256 digests of chainify, path-cover and tree-tour outputs.

Every planner output below is an exact function of its seeded instance:
walk orders, ``Fraction`` coordinates and cumulative lengths, cover paths,
the float refresh times of their trajectories, and tree plan documents.
Each family hashes the ``repr`` of its outputs over 60 seeded instances,
so a changed walk order, one changed bit of a length, or a changed tie
break shows up here.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from patrolsim.cover import (
    chainify,
    exact_path_cover,
    minmax_path_cover,
    path_cover_trajectory,
)
from patrolsim.tree import depth_first_tour, efficient_trajectory, optimal_subtree_collection

from conftest import random_metric_roadmap, random_tree

SEEDS = range(60)


def _roadmap(seed):
    return random_metric_roadmap(random.Random(seed), n_lo=3, n_hi=30)


def _tree(seed):
    return random_tree(random.Random(1000 + seed), n_lo=3, n_hi=12)


def _cover(cover, m):
    traj = path_cover_trajectory(cover, m, horizon=max(4 * cover.cost, 1.0))
    return cover.paths, traj.refresh_time()


def chainify_outputs():
    for seed in SEEDS:
        res = chainify(_roadmap(seed))
        yield res.tour, res.chain.coords_exact, res.back_map, res.edge_lengths


def minmax_cover_outputs():
    for seed in SEEDS:
        g = _roadmap(seed)
        for m in (1, 2, 3, 5):
            yield _cover(minmax_path_cover(g, m), m)


def exact_cover_outputs():
    for seed in SEEDS:
        g = random_metric_roadmap(random.Random(seed), n_lo=3, n_hi=8)
        for m in (1, 2, 3):
            yield _cover(exact_path_cover(g, m), m)


def tree_outputs():
    for seed in SEEDS:
        t = _tree(seed)
        tour = depth_first_tour(t)
        yield tour.vertices, tour.cum
        for m in (1, 2, 3):
            coll = optimal_subtree_collection(t, m)
            traj = efficient_trajectory(coll, horizon=max(1.0, 2.0 * coll.objective))
            yield (
                tuple((tr.vertices, tr.cum) for tr in traj.tours),
                traj.stationary,
                traj.robots,
                traj.refresh_time(),
                json.dumps(coll.to_document(), sort_keys=True),
            )


FAMILIES = {
    "chainify": chainify_outputs,
    "minmax_cover": minmax_cover_outputs,
    "exact_cover": exact_cover_outputs,
    "tree": tree_outputs,
}

DIGESTS = {
    "chainify": "12782d75ce5d7e8f6fb8010fa5e4964c0cae0bf68f5769e234f52de60673644f",
    "minmax_cover": "35d487d875529193972d85a1f10caee09ca2f8b03ed47f105dd2934346f01a2e",
    "exact_cover": "9b505587cc06fd51be6ef9b5fd6bb772c979495b897801b892ae696e9a0e6ce2",
    "tree": "90177e71462172694c676c55983e8ab73b3415648d60b299da627d6c9bf2e213",
}


def digest(family: str) -> str:
    h = hashlib.sha256()
    for out in FAMILIES[family]():
        h.update(repr(out).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_outputs_match_golden_digest(family):
    assert digest(family) == DIGESTS[family]
