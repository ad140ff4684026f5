"""One evaluator for sampled traces.

``evaluate_trace`` and ``eval --trace`` hand the same inputs to
``evaluate_samples``: the meetings and detections logged by the kernel (in
process) or read back from the CSV's ``event`` column, the final
partition and the window.  So on any trace ``eval --trace -m <final m>``
reports RT and LT ``==`` to ``evaluate_trace``.  Meetings detected from
positions, the path of CSVs without an ``event`` column, agree with the
logged ones on noiseless runs that do not repartition.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from patrolsim.cli import _read_events, dispatch
from patrolsim.metrics import comm_instants_from_trace
from patrolsim.partition import optimal_partition_bisect, partition_from_clusters
from patrolsim.roadmap import ChainRoadmap
from patrolsim.simulate import (
    FailureWindow,
    SimConfig,
    Trace,
    case_study_chain,
    convergence_time,
    evaluate_samples,
    evaluate_trace,
    simulate,
)

from test_trace_digests import CONFIGS as DIGEST_CONFIGS

DT = 1.0 / 32.0


def item1_chain() -> ChainRoadmap:
    """40 viewpoints with gaps U[0.3, 2]: 2*d_max is not a whole number of steps."""
    gaps = np.random.default_rng(1).uniform(0.3, 2.0, 39)
    return ChainRoadmap([0.0] + np.cumsum(gaps).tolist())


# (chain, m, config, warmup given): criteria 5 (every tenth seed), 6 and 7,
# and the benchmark's scenario shapes with other robots and seeds
TRACES = {
    **{
        f"c5_seed{s}": ("case", 10, SimConfig(dt=DT, horizon=160.0, seed=s), 140.0)
        for s in range(0, 100, 10)
    },
    "c6": ("case", 10, DIGEST_CONFIGS["c6"], 500.0),
    "c7": ("case", 10, DIGEST_CONFIGS["c7"], 410.0),
    "temporary_failure": (
        "case", 10,
        SimConfig(dt=DT, horizon=520.0, seed=17, failures=(FailureWindow(2, 300.0, 400.0),)),
        500.0,
    ),
    "permanent_failure": (
        "case", 10,
        SimConfig(
            dt=DT, horizon=440.0, seed=3, failures=(FailureWindow(8, 300.0),),
            detection_theta=8.0, detection_arm_time=200.0,
        ),
        410.0,
    ),
    "general_chain": ("general", 8, SimConfig(dt=DT, horizon=140.0, seed=4), 70.0),
}

# noiseless case-study runs without a repartition: after one, a relay pair
# need not be two neighboring columns, which position detection assumes
POSITION_PATH = ["c5_seed0", "c5_seed10", "c5_seed50", "c6", "temporary_failure"]


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    out = {}
    for name, chain in (("case", case_study_chain(30)), ("general", item1_chain())):
        path = tmp_path_factory.mktemp("roadmaps") / f"{name}.json"
        path.write_text(json.dumps({"kind": "chain", "coordinates": list(chain.coordinates)}))
        out[name] = (chain, path)
    return out


@pytest.fixture(scope="module")
def traces(chains, tmp_path_factory):
    """name -> (trace, its CSV, roadmap file), simulated on first use."""
    cache = {}

    def get(name):
        if name not in cache:
            key, m, cfg, _ = TRACES[name]
            chain, roadmap = chains[key]
            part, _ = optimal_partition_bisect(chain, m, 1e-9)
            trace = simulate(chain, part, cfg)
            csv = tmp_path_factory.mktemp("traces") / f"{name}.csv"
            trace.write_csv(csv)
            cache[name] = (trace, csv, roadmap)
        return cache[name]

    return get


def eval_cli(tmp_path, roadmap, csv, m, warmup=None) -> dict:
    out = tmp_path / "eval.json"
    argv = ["eval", "--roadmap", str(roadmap), "--trace", str(csv), "-m", str(m),
            "--out", str(out)]
    if warmup is not None:
        argv += ["--warmup", repr(warmup)]
    assert dispatch(argv) == 0
    return json.loads(out.read_text())


def rt_lt(doc) -> tuple:
    lat = doc["latency"]
    return tuple(float(x) for x in (doc["refresh_time"], lat["up"], lat["down"], lat["overall"]))


@pytest.mark.parametrize("given", [False, True], ids=["no_warmup", "warmup"])
@pytest.mark.parametrize("name", list(TRACES))
def test_eval_trace_equals_evaluate_trace(tmp_path, traces, name, given):
    trace, csv, roadmap = traces(name)
    warmup = TRACES[name][3] if given else None
    tm = evaluate_trace(trace, warmup)
    m_end = (trace.new_partition or trace.partition).m
    doc = eval_cli(tmp_path, roadmap, csv, m_end, warmup)
    assert rt_lt(doc) == (tm.refresh, tm.latency_up, tm.latency_down, tm.latency)
    source = "warmup" if given else "converged" if tm.converged else "fallback"
    assert doc["window"] == {"warmup": tm.warmup, "source": source}


def test_without_m_the_window_is_the_trailing_half(tmp_path, traces):
    trace, csv, roadmap = traces("c6")
    out = tmp_path / "eval.json"
    assert dispatch(
        ["eval", "--roadmap", str(roadmap), "--trace", str(csv), "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["window"] == {"warmup": 260.0, "source": "fallback"}
    assert "bounds" not in doc


@pytest.mark.parametrize("name", POSITION_PATH)
def test_position_path_agrees_with_event_path(tmp_path, traces, name):
    trace, csv, roadmap = traces(name)
    bare = tmp_path / "bare.csv"
    with open(csv, newline="") as src, open(bare, "w", newline="") as dst:
        for line in src:
            dst.write(",".join(line.split(",")[:3]) + "\r\n")
    for warmup in (None, TRACES[name][3]):
        want = eval_cli(tmp_path, roadmap, csv, 10, warmup)
        got = eval_cli(tmp_path, roadmap, bare, 10, warmup)
        assert rt_lt(got) == rt_lt(want)
        assert got["window"] == want["window"]


@pytest.mark.parametrize("name", ["c5_seed0", "c5_seed3", "noisy_0.1", "c6"])
def test_position_detection_finds_the_logged_meetings(name):
    chain = case_study_chain(30)
    part, _ = optimal_partition_bisect(chain, 10, 1e-9)
    trace = simulate(chain, part, DIGEST_CONFIGS[name])
    phis = comm_instants_from_trace(trace.times, trace.positions, chain)
    logged = [[t for t, kind, i, j in trace.events if kind == "comm" and i == q]
              for q in range(9)]
    assert phis == logged


def logged_events(trace: Trace):
    comm: dict = {}
    for t, kind, i, j in trace.events:
        if kind == "comm":
            comm.setdefault((i, j), []).append(t)
    return comm, [t for t, kind, _, _ in trace.events if kind == "detect"]


@pytest.mark.parametrize("name", ["c6", "c7"])
def test_event_reader_returns_the_logged_events(traces, name):
    trace, csv, _ = traces(name)
    comm, detects = _read_events(csv)
    assert (comm, detects) == logged_events(trace)
    assert len(detects) == (name == "c7")


def test_event_reader_splits_joined_tags(tmp_path):
    chain = case_study_chain(30)
    part, _ = optimal_partition_bisect(chain, 10, 1e-9)
    events = [
        (0.5, "comm", 2, 3),
        (1.0, "comm", 1, 2),
        (1.0, "fail", 1, -1),
        (1.0, "repartition", -1, -1),
        (1.5, "comm", 4, 5),
        (1.5, "detect", 4, 5),
    ]
    trace = Trace(
        times=np.arange(4) * 0.5, positions=np.zeros((4, 10)),
        dirs=np.zeros((4, 10), dtype=np.int8), events=events, chain=chain,
        partition=part, config=SimConfig(dt=0.5, horizon=1.5, seed=0),
    )
    csv = tmp_path / "joined.csv"
    trace.write_csv(csv)
    text = csv.read_text()
    assert "comm:2|fail" in text and "comm:5|detect" in text
    assert _read_events(csv) == logged_events(trace)


def test_bad_comm_tag_is_rejected(tmp_path, chains, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_bytes(b"time,robot,position,dir,event\r\n0.0,0,0.0,1,comm:x\r\n0.0,1,1.0,-1,\r\n")
    rc = dispatch(["eval", "--roadmap", str(chains["case"][1]), "--trace", str(csv),
                   "--out", str(tmp_path / "eval.json")])
    assert rc == 1
    assert f"{csv}: bad comm tag in row '0.0,0,0.0,1,comm:x'" in capsys.readouterr().err


@pytest.mark.parametrize("eta, default_refresh", [(1e-3, 8.59375), (1e-2, 17.0)])
def test_eval_takes_the_meeting_tolerance_of_simulate(tmp_path, chains, eta, default_refresh):
    # a noisy run at a coarser eta: with it, eval --trace reads what
    # evaluate_trace reads; at the default 1e-6 a robot station-keeping
    # within eta of a viewpoint does not count as there
    chain, roadmap = chains["case"]
    csv = tmp_path / "trace.csv"
    assert dispatch(
        ["simulate", "--roadmap", str(roadmap), "-m", "10", "--horizon", "140", "--seed", "1",
         "--sigma2", "0.2", "--eta", repr(eta), "--out", str(csv)]
    ) == 0
    part, _ = optimal_partition_bisect(chain, 10, 1e-9)
    cfg = SimConfig(dt=DT, horizon=140.0, seed=1, sigma2=0.2, eta=eta)
    tm = evaluate_trace(simulate(chain, part, cfg))
    out = tmp_path / "eval.json"
    argv = ["eval", "--roadmap", str(roadmap), "--trace", str(csv), "-m", "10", "--out", str(out)]
    assert dispatch(argv + ["--eta", repr(eta)]) == 0
    doc = json.loads(out.read_text())
    assert rt_lt(doc) == (tm.refresh, tm.latency_up, tm.latency_down, tm.latency)
    assert doc["window"] == {"warmup": tm.warmup, "source": "fallback"}
    assert dispatch(argv) == 0
    assert rt_lt(json.loads(out.read_text()))[0] == default_refresh != tm.refresh


@pytest.mark.parametrize("eta", ["-1e-6", "nan"])
def test_eval_rejects_a_bad_meeting_tolerance(tmp_path, traces, eta, capsys):
    _, csv, roadmap = traces("c5_seed0")
    rc = dispatch(["eval", "--roadmap", str(roadmap), "--trace", str(csv), f"--eta={eta}",
                   "--out", str(tmp_path / "eval.json")])
    assert rc == 1
    assert "eta must be nonnegative" in capsys.readouterr().err


def test_general_chain_falls_back_to_the_trailing_half():
    chain = item1_chain()
    part, _ = optimal_partition_bisect(chain, 8, 1e-9)
    trace = simulate(chain, part, SimConfig(dt=DT, horizon=140.0, seed=0))
    assert convergence_time(trace.times, trace.positions, 2 * part.dimension) is None
    tm = evaluate_trace(trace)
    assert tm.converged is False and tm.warmup == 70.0


class TestRelayRule:
    """``evaluate_samples``'s latency over the window [1, 4] of a hand-made
    trace of three robots."""

    chain = ChainRoadmap([0.0, 1.0, 2.0, 3.0])
    times = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    positions = np.zeros((5, 3))

    def latency(self, comm, detects=(), partition=None):
        tm = evaluate_samples(self.times, self.positions, self.chain, comm, list(detects),
                              partition, warmup=1.0)
        return tm.latency_up, tm.latency_down

    def test_relay_through_both_pairs(self):
        assert self.latency({(0, 1): [1.0, 3.0], (1, 2): [2.0]}) == (1.0, 1.0)

    def test_pairs_that_form_no_chain_give_inf(self):
        assert self.latency({(0, 1): [1.0], (2, 1): [2.0]}) == (math.inf, math.inf)

    def test_a_pair_that_meets_only_before_the_window_gives_inf(self):
        assert self.latency({(0, 1): [0.0], (1, 2): [2.0]}) == (math.inf, math.inf)

    def test_only_pairs_meeting_after_the_last_detection_relay(self):
        comm = {(0, 1): [1.0], (1, 2): [1.0], (0, 2): [3.0]}
        assert self.latency(comm, detects=[2.0]) == (0.0, 0.0)

    def test_a_relay_longer_than_the_team_gives_inf(self):
        two = partition_from_clusters(self.chain, ((0, 1), (2, 3)))
        comm = {(0, 1): [1.0, 3.0], (1, 2): [2.0]}
        assert self.latency(comm, partition=two) == (math.inf, math.inf)
