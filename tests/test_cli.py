from __future__ import annotations

import hashlib
import json
import math

import pytest

from patrolsim.cli import dispatch
from patrolsim.metrics import latency, refresh_time
from patrolsim.partition import optimal_partition_bisect
from patrolsim.roadmap import ChainRoadmap, load_roadmap
from patrolsim.trajectories import min_latency_trajectory


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"kind": "chain", "coordinates": [0, 1, 3, 6]}))
    return path


@pytest.fixture
def uniform_file(tmp_path):
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps({"kind": "chain", "coordinates": list(range(12))}))
    return path


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPartitionCommand:
    def test_partition_matches_direct_call(self, tmp_path, chain_file):
        out = tmp_path / "part.json"
        rc = dispatch(
            ["partition", "--roadmap", str(chain_file), "-m", "2", "--eps", "1e-9",
             "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["dimension"] == 3.0
        chain = load_roadmap(chain_file)
        direct, _ = optimal_partition_bisect(chain, 2, 1e-9)
        assert doc["clusters"] == [[chain.ids[i] for i in c] for c in direct.clusters]

    def test_infeasible_exit_code(self, tmp_path, chain_file):
        rc = dispatch(
            ["partition", "--roadmap", str(chain_file), "-m", "9",
             "--out", str(tmp_path / "x.json")]
        )
        assert rc == 2

    def test_validation_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "chain", "coordinates": [0.0]}))
        rc = dispatch(
            ["partition", "--roadmap", str(bad), "-m", "1", "--out", str(tmp_path / "x")]
        )
        assert rc == 1


class TestSynthEval:
    def test_latency_pipeline_matches_bounds(self, tmp_path, uniform_file):
        traj_out = tmp_path / "traj.json"
        rc = dispatch(
            ["synth", "--roadmap", str(uniform_file), "-m", "4", "--mode", "lat",
             "--horizon", "40", "--out", str(traj_out)]
        )
        assert rc == 0
        metrics_out = tmp_path / "metrics.json"
        rc = dispatch(
            ["eval", "--roadmap", str(uniform_file), "--trajectory", str(traj_out),
             "-m", "4", "--out", str(metrics_out)]
        )
        assert rc == 0
        doc = json.loads(metrics_out.read_text())
        assert math.isclose(
            doc["latency"]["overall"], doc["bounds"]["periodic_lb"], abs_tol=1e-9
        )
        # thin adapter: same numbers as calling the library directly
        chain = load_roadmap(uniform_file)
        part, _ = optimal_partition_bisect(chain, 4, 1e-9)
        traj = min_latency_trajectory(part, 40)
        assert doc["refresh_time"] == refresh_time(traj, chain)
        assert math.isclose(
            doc["latency"]["overall"], latency(traj, chain).overall, abs_tol=1e-9
        )


    def test_eval_warmup_outside_horizon(self, tmp_path, uniform_file):
        traj_out = tmp_path / "traj.json"
        assert dispatch(
            ["synth", "--roadmap", str(uniform_file), "-m", "4", "--mode", "lat",
             "--horizon", "40", "--out", str(traj_out)]
        ) == 0
        eval_args = ["eval", "--roadmap", str(uniform_file), "--trajectory", str(traj_out),
                     "--strict", "--out", str(tmp_path / "metrics.json"), "--warmup"]
        assert dispatch(eval_args + ["0"]) == 0
        assert dispatch(eval_args + ["-1"]) == 1
        assert dispatch(eval_args + ["40"]) == 1


class TestSimulateDeterminism:
    def test_same_seed_same_bytes(self, tmp_path, uniform_file):
        args = ["simulate", "--roadmap", str(uniform_file), "-m", "4",
                "--dt", "0.03125", "--sigma2", "0.05", "--seed", "7",
                "--horizon", "40", "--out"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert dispatch(args + [str(out1)]) == 0
        assert dispatch(args + [str(out2)]) == 0
        assert sha(out1) == sha(out2)

    def test_rerun_from_manifest_bit_exact(self, tmp_path, uniform_file):
        out = tmp_path / "trace.csv"
        rc = dispatch(
            ["simulate", "--roadmap", str(uniform_file), "-m", "4",
             "--sigma2", "0.1", "--seed", "3", "--horizon", "40", "--out", str(out)]
        )
        assert rc == 0
        digest = sha(out)
        manifest = out.with_suffix(".csv.manifest.json")
        assert manifest.exists()
        rec = json.loads(manifest.read_text())
        assert str(out) in rec["outputs"]
        assert dispatch(["rerun", "--manifest", str(manifest)]) == 0
        assert sha(out) == digest


class TestRejectedInputs:
    def test_failure_of_robot_not_on_team(self, tmp_path, uniform_file):
        rc = dispatch(
            ["simulate", "--roadmap", str(uniform_file), "-m", "4", "--horizon", "20",
             "--fail", "12:5:10", "--out", str(tmp_path / "trace.csv")]
        )
        assert rc == 1

    def test_detection_timeout_of_zero(self, tmp_path, uniform_file, capsys):
        rc = dispatch(
            ["simulate", "--roadmap", str(uniform_file), "-m", "4", "--horizon", "20",
             "--fail", "3:5:inf", "--theta", "0", "--out", str(tmp_path / "trace.csv")]
        )
        assert rc == 1
        assert "detection_theta must be None or finite and positive, got 0.0" in (
            capsys.readouterr().err
        )

    def test_failure_off_the_step_grid(self, tmp_path, uniform_file, capsys):
        rc = dispatch(
            ["simulate", "--roadmap", str(uniform_file), "-m", "4", "--horizon", "40",
             "--fail", "3:20.01:30", "--out", str(tmp_path / "trace.csv")]
        )
        assert rc == 1
        assert "robot 3 must start on a step of dt=0.03125, got 20.01" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["missing_row", "shuffled_rows", "repeated_step"])
    def test_eval_trace_rows_not_step_major(self, tmp_path, uniform_file, damage):
        trace = tmp_path / "trace.csv"
        assert dispatch(
            ["simulate", "--roadmap", str(uniform_file), "-m", "4", "--horizon", "20",
             "--out", str(trace)]
        ) == 0
        eval_args = ["eval", "--roadmap", str(uniform_file), "--trace", str(trace),
                     "-m", "4", "--out", str(tmp_path / "metrics.json")]
        assert dispatch(eval_args) == 0
        header, *rows = trace.read_text().splitlines()
        if damage == "missing_row":
            del rows[9]
        elif damage == "shuffled_rows":
            rows[8], rows[9] = rows[9], rows[8]
        else:  # step 1 written twice, so time does not increase
            rows[8:8] = rows[4:8]
        trace.write_text("\n".join([header, *rows]) + "\n")
        assert dispatch(eval_args) == 1


    @pytest.mark.parametrize(
        "sigmas, runs",
        [("0:0.5:0", "2"), ("0:0.5:-0.1", "2"), ("0:0.5:nan", "2"), ("0:inf:0.1", "2"),
         ("0,0.1", "0")],
        ids=["zero_step", "step_away_from_hi", "nan_step", "infinite_hi", "zero_runs"],
    )
    def test_sweep_rejects_empty_or_endless_grids(self, tmp_path, uniform_file, sigmas, runs):
        out = tmp_path / "sweep.csv"
        rc = dispatch(
            ["sweep", "--roadmap", str(uniform_file), "-m", "4", "--sigmas", sigmas,
             "--runs", runs, "--horizon", "20", "--out", str(out)]
        )
        assert rc == 1
        assert not out.exists()

    @pytest.mark.parametrize("dt", ["0", "-1", "nan", "inf"])
    def test_synth_rejects_bad_trace_step_before_writing(self, tmp_path, uniform_file, dt):
        rc = dispatch(
            ["synth", "--roadmap", str(uniform_file), "-m", "4", "--horizon", "20",
             "--out", str(tmp_path / "t.json"), "--trace", str(tmp_path / "t.csv"),
             "--dt", dt]
        )
        assert rc == 1
        assert list(tmp_path.iterdir()) == [uniform_file]


class TestOtherCommands:
    def test_sweep_csv(self, tmp_path, uniform_file):
        out = tmp_path / "sweep.csv"
        rc = dispatch(
            ["sweep", "--roadmap", str(uniform_file), "-m", "4",
             "--sigmas", "0,0.1", "--runs", "2", "--seed", "1",
             "--horizon", "40", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sigma2,rt_mean,rt_min,rt_max,lt_mean,lt_min,lt_max"
        assert len(lines) == 3

    def test_tree_cover_chainify(self, tmp_path):
        star = tmp_path / "star.json"
        star.write_text(
            json.dumps(
                {
                    "kind": "tree",
                    "vertices": [{"id": v} for v in ["v1", "v2", "v3", "v4"]],
                    "edges": [
                        {"u": "v1", "v": "v2", "length": 1.0},
                        {"u": "v2", "v": "v3", "length": 1.0},
                        {"u": "v2", "v": "v4", "length": 1.0},
                    ],
                }
            )
        )
        plan = tmp_path / "plan.json"
        assert dispatch(["tree", "--roadmap", str(star), "-m", "2", "--out", str(plan)]) == 0
        assert json.loads(plan.read_text())["objective"] == 3.0

        tri = tmp_path / "tri.json"
        tri.write_text(
            json.dumps(
                {
                    "kind": "general",
                    "vertices": [{"id": v} for v in "abc"],
                    "edges": [
                        {"u": "a", "v": "b", "length": 1.0},
                        {"u": "b", "v": "c", "length": 1.0},
                        {"u": "a", "v": "c", "length": 1.0},
                    ],
                }
            )
        )
        cov = tmp_path / "cover.json"
        assert dispatch(["cover", "--roadmap", str(tri), "-m", "1", "--oracle",
                         "--out", str(cov)]) == 0
        doc = json.loads(cov.read_text())
        assert doc["certificate"]["factor"] <= 4.0
        # one robot per vertex: the cover is optimal at cost 0, and the
        # certificate stays strict JSON
        assert dispatch(["cover", "--roadmap", str(tri), "-m", "3", "--oracle",
                         "--out", str(cov)]) == 0

        def no_constant(name):
            raise ValueError(f"bare {name} in the certificate")

        cert = json.loads(cov.read_text(), parse_constant=no_constant)["certificate"]
        assert cert["cover_cost"] == cert["optimal_cost"] == 0.0
        assert cert["factor"] == 1.0
        gamma = tmp_path / "gamma.json"
        assert dispatch(["chainify", "--roadmap", str(tri), "--out", str(gamma)]) == 0
        back = load_roadmap(json.loads(gamma.read_text()) | {"back_map": None})
        assert isinstance(back, ChainRoadmap)
