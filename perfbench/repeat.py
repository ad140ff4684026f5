"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/repeat.py --workloads sweep,exact --seeds 1-10 --seconds 20

Runs are sequential (one workload process at a time).  For every metric it
prints the median, the quartiles from ``statistics.quantiles(values, n=4)``
and the spread: the distance between the quartiles as a share of the
median, next to the metric's bound from ``BENCHMARK.json``.  ``--record
LABEL`` appends the summary, with the environment of the runs, to
``perfbench/baseline.json``; entries are only ever appended.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = (int(x) for x in spec.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in spec.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    return env, json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="sweep,scenario,exact,planners")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=None,
                   help="defaults to run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", metavar="LABEL", help="append the summary to baseline.json")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {}
    envs = []
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        counts = {"runs": 0, "attempted": 0, "failed": 0, "incorrect_runs": 0}
        for seed in seeds_of(args.seeds):
            env, result = run_once(workload, seed, seconds, args.trace)
            envs.append(env)
            counts["runs"] += 1
            counts["attempted"] += result["attempted"]
            counts["failed"] += result["failed"]
            counts["incorrect_runs"] += not result["correct"]
            for name, doc in result["metrics"].items():
                values.setdefault(name, []).append(doc["value"])
        summary[workload] = {"counts": counts,
                             "metrics": {k: summarize(v) for k, v in values.items()}}
        print(f"{workload}: {counts}")
        for name, s in summary[workload]["metrics"].items():
            bound = bounds.get(name)
            spread = s["spread"]
            flag = ""
            if bound is not None:
                steady = spread is not None and spread <= bound / 3
                flag = f"  bound {bound:.2f}" + ("" if steady else "  SPREAD ABOVE BOUND/3")
            print(f"  {name:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {'-' if spread is None else f'{spread:.4f}'}{flag}")
            print("    runs: " + " ".join(f"{v:.6g}" for v in values[name]))
    keys = {(e["kernel_backend"], e["numba_importable"], e["nproc"]) for e in envs}
    if len(keys) > 1:
        print(f"WARNING: runs differ in kernel backend, numba or nproc {sorted(keys)}: "
              "their figures are not comparable")
    if args.record:
        path = HERE / "baseline.json"
        doc = json.loads(path.read_text()) if path.exists() else {"entries": []}
        doc["entries"].append({
            "label": args.record,
            "env": envs[-1],
            "seeds": args.seeds,
            "run_seconds": seconds,
            "trace": args.trace,
            "workloads": summary,
        })
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"appended entry {args.record!r} to {path}")


if __name__ == "__main__":
    main()
