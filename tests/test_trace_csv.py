"""Trace CSV bytes and the reader that loads them back.

The writer must reproduce, byte for byte, what the ``csv.writer`` loops it
replaced printed: ``\\r\\n`` line ends and every float through ``repr``.
The golden SHA-256 digests below were recorded from those loops, on the
criterion-6 and criterion-7 traces, a noisy trace and ``synth --trace``
outputs; the same loop is kept here as an oracle for a hand-built trace
that holds the floats whose text is easiest to get wrong.  The reader must
return the written arrays bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings

import numpy as np
import pytest

import patrolsim.trajectories as trajectories
from patrolsim.cli import _read_trace, dispatch
from patrolsim.partition import optimal_partition_bisect
from patrolsim.simulate import FailureWindow, SimConfig, Trace, case_study_chain, simulate

DT = 1.0 / 32.0

CONFIGS = {
    "c6": SimConfig(dt=DT, horizon=520.0, seed=5, failures=(FailureWindow(6, 300.0, 400.0),)),
    "c7": SimConfig(
        dt=DT, horizon=440.0, seed=5, failures=(FailureWindow(6, 300.0),),
        detection_theta=8.0, detection_arm_time=200.0,
    ),
    "noisy": SimConfig(dt=DT, horizon=140.0, seed=11, sigma2=0.1),
}

CSV_DIGESTS = {
    "c6": "c26ec5f6bca0a5fd1cd399b508f9b5506ad9642251bc746eb33660b98870e39f",
    "c7": "d3ae212ad25d1a419f4c3ab1becafb1855f9faf41ca6c87bcbf7e531fa8820ae",
    "noisy": "ee0e2cf1c7cacf6ab8c23124bf473647631e1d3e71afa9ead53c7b2a24c0ee8b",
}

# eval --trace -m M --warmup W on the CSVs above: (M, W, digest of the JSON).
# c6 reads latency 16.0; c7's 20-unit window is shorter than one relay, and
# the relays the horizon cuts count T - t_src, so it reads 14.96875, below
# the periodic bound 18.0
EVAL_DIGESTS = {
    "c6": (10, 500.0, "ab47c0689fda17fce5f48362f2ed23e02bf82b9711d7c971a6966ef53ea8c2c7"),
    "c7": (9, 420.0, "a26302e9d07690e94c2b5eec6ebcd8a063d362281ffd1634825ba0c50a43f017"),
}

# synth --mode MODE -m 3 --horizon 30 --trace --dt 0.01 on FLOAT_CHAIN
FLOAT_CHAIN = [0.0, 0.7, 1.9, 3.3, 4.1, 6.25]
SYNTH_DIGESTS = {
    "lat": "9857395bdd824a61ae56cb85a8b1585ad2859abaa809409b20df7566877aa633",
    "refresh": "3019cfe31f55e480e8358a5aaad4c2e8d9a8ee5423f905caa6298c570caa0e75",
}


def sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def csv_writer_oracle(trace: Trace, path) -> None:
    """The ``csv.writer`` loop that ``Trace.write_csv`` used to be."""
    m = trace.positions.shape[1]
    tags: dict[int, list[str]] = {}
    for t, kind, i, j in trace.events:
        if i < 0:
            continue
        row = tags.setdefault(int(round(t / trace.config.dt)), [""] * m)
        tag = f"{kind}:{j}" if kind == "comm" else kind
        row[i] = (row[i] + "|" + tag).lstrip("|")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "robot", "position", "dir", "event"])
        for k, t in enumerate(trace.times.tolist()):
            w.writerows(
                zip(
                    [repr(t)] * m,
                    range(m),
                    trace.positions[k].tolist(),
                    trace.dirs[k].tolist(),
                    tags.get(k, [""] * m),
                )
            )


@pytest.fixture(scope="module")
def case_study():
    chain = case_study_chain(30)
    part, _ = optimal_partition_bisect(chain, 10, 1e-9)
    return chain, part


@pytest.fixture(scope="module")
def traces(case_study):
    chain, part = case_study
    return {name: simulate(chain, part, cfg) for name, cfg in CONFIGS.items()}


@pytest.fixture
def case_file(tmp_path, case_study):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"kind": "chain", "coordinates": list(case_study[0].coordinates)}))
    return path


class TestWriter:
    @pytest.mark.parametrize("name", sorted(CSV_DIGESTS))
    def test_simulate_csv_matches_golden_digest(self, tmp_path, traces, name):
        out = tmp_path / f"{name}.csv"
        traces[name].write_csv(out)
        assert sha(out) == CSV_DIGESTS[name]

    @pytest.mark.parametrize("mode", sorted(SYNTH_DIGESTS))
    def test_synth_trace_matches_golden_digest(self, tmp_path, mode):
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps({"kind": "chain", "coordinates": FLOAT_CHAIN}))
        out = tmp_path / "traj.csv"
        assert dispatch(
            ["synth", "--roadmap", str(chain), "-m", "3", "--mode", mode, "--horizon", "30",
             "--trace", str(out), "--dt", "0.01", "--out", str(tmp_path / "traj.json")]
        ) == 0
        assert sha(out) == SYNTH_DIGESTS[mode]

    def test_hand_built_trace_matches_csv_writer(self, tmp_path, case_study):
        chain, part = case_study
        cfg = SimConfig(dt=0.5, horizon=1.5, seed=0)
        specials = [-0.0, math.nan, math.inf, 5e-324, 1e16, 1e-05, 0.0, -math.inf, 0.1, -2.5]
        positions = np.array([specials, specials[::-1], specials[3:] + specials[:3], specials])
        dirs = np.tile(np.array([-1, 0, 1, 1, 0, -1, 1, 1, 0, -1], dtype=np.int8), (4, 1))
        events = [
            (0.5, "comm", 2, 3),
            (0.5, "comm", 3, 2),
            (1.0, "comm", 1, 2),
            (1.0, "fail", 1, -1),
            (1.0, "repartition", -1, -1),  # team-wide: no row of its own
            (1.5, "detect", 4, 5),
        ]
        trace = Trace(
            times=np.arange(4) * cfg.dt, positions=positions, dirs=dirs, events=events,
            chain=chain, partition=part, config=cfg,
        )
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        trace.write_csv(got)
        csv_writer_oracle(trace, want)
        assert got.read_bytes() == want.read_bytes()
        text = got.read_bytes().decode()
        assert "\r\n1.0,1,1e+16,0,comm:2|fail\r\n" in text
        assert "repartition" not in text
        assert text.startswith("time,robot,position,dir,event\r\n0.0,0,-0.0,-1,\r\n0.0,1,nan,")

    def test_blocks_join_seamlessly(self, tmp_path, traces, monkeypatch):
        monkeypatch.setattr(trajectories, "_BLOCK_ROWS", 7)  # < m: one step per block
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        trace = traces["c7"]
        short = Trace(
            times=trace.times[:600], positions=trace.positions[:600], dirs=trace.dirs[:600],
            events=[e for e in trace.events if e[0] <= trace.times[599]],
            chain=trace.chain, partition=trace.partition, config=trace.config,
        )
        short.write_csv(got)
        csv_writer_oracle(short, want)
        assert got.read_bytes() == want.read_bytes()


class TestReader:
    @pytest.mark.parametrize("name", ["noisy", "c6", "c7"])
    def test_round_trip_is_bit_exact(self, tmp_path, traces, name):
        trace = traces[name]
        out = tmp_path / "trace.csv"
        trace.write_csv(out)
        times, positions = _read_trace(out)
        assert np.array_equal(bits(times), bits(trace.times))
        assert np.array_equal(bits(positions), bits(trace.positions))

    @pytest.mark.parametrize("name", sorted(EVAL_DIGESTS))
    def test_eval_trace_matches_golden_digest(self, tmp_path, traces, case_file, name):
        m, warmup, digest = EVAL_DIGESTS[name]
        trace, out = tmp_path / "trace.csv", tmp_path / "eval.json"
        traces[name].write_csv(trace)
        assert dispatch(
            ["eval", "--roadmap", str(case_file), "--trace", str(trace), "-m", str(m),
             "--warmup", repr(warmup), "--out", str(out)]
        ) == 0
        assert sha(out) == digest

    @pytest.mark.parametrize(
        "body, message",
        [
            ("", "trace has no rows"),
            ("0.0,0\r\n", "rows must hold .*: line 2$"),
            ("0.0,1.5,2.0\r\n", "rows must hold .*: line 2$"),
            ("0.0,0,1.0\r\n0.0,1,1.0\r\n1.0,0,1.0\r\n1.0,x,1.0\r\n",
             "rows must hold .*: line 5$"),
            # Python's float() takes the underscore, numpy's parser does not
            ("0.0,0,1_0\r\n", "rows must hold .*: line 2$"),
            ("0.0,0,1.0\r\n   \r\n", "rows must hold .*: line 3$"),
            ("0.0,0,1.0\r\n" * 5000 + "1.0,0,1_0\r\n", "rows must hold .*: line 5002$"),
        ],
        ids=["header_only", "two_fields", "fractional_robot", "bad_robot_on_line_5",
             "underscore_digits", "blank_field_row", "past_the_first_block"],
    )
    def test_rejections_name_the_path(self, tmp_path, case_file, capsys, body, message):
        trace = tmp_path / "bad.csv"
        trace.write_bytes(("time,robot,position,dir,event\r\n" + body).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message) as exc:
                _read_trace(trace)
            assert str(exc.value).startswith(f"{trace}: ")
            rc = dispatch(
                ["eval", "--roadmap", str(case_file), "--trace", str(trace),
                 "--out", str(tmp_path / "eval.json")]
            )
        assert rc == 1
        assert f"{trace}: " in capsys.readouterr().err
