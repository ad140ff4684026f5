"""patrolsim benchmark: one seeded workload per process.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``sweep``, ``scenario``, ``exact`` and
``planners``; ``--workload all`` runs each in a child process of its own.

With ``--trace 0`` the run sets up several times, then repeats rounds of
timed calls for ``--seconds`` and reports the end-to-end metrics:

- ``setup_s``: import time plus the median of three set-ups (instance
  generation and a first-call warm-up);
- ``ops_per_s``: median over rounds of the operations that passed their
  check per second spent in the round's timed calls;
- ``op_p50_ms``: median time per operation of the calls that returned,
  taken per call kind (task name) and combined as a geometric mean over
  kinds, so that a median never falls on the gap between two kinds;
- ``peak_rss_mb``: peak resident set size of the process.

All three timings are in seconds of a CPU running at the reference speed.  On a
shared host (the 2-core machine of the first baseline entry) the speed one
process gets drifts by 10-25% within seconds, in CPU time as much as in
wall time.  A fixed
piece of pure-Python work (``reference_work``) is timed between every two
calls (and set-ups), and each call's time is scaled by ``REFERENCE_S``
over the mean of the two reference times around it; the import time is
scaled by the reference time right after it.  The raw, unscaled figures are printed
too.  ``fail_ratio`` (failed / attempted) and ``op_p90_ms`` (when at least
100 operations ran, so ten lie beyond it) are printed on their own lines.

With ``--trace 1`` every round runs twice for ``--seconds`` in all: once
untraced, then once more with spans installed around patrolsim's public
functions (``tracing.py``).  The run reports the per-layer metrics of the
traced rounds plus ``bench.trace_overhead_ratio``, the traced time over the
untraced time of the same rounds.  The spans are written to
``.perfbench_out/`` at the repository root.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is false
when an operation on a reference instance fails its check; failures on the
non-dyadic general chains (see ``workloads.py``) are counted in ``failed``
but do not make the run incorrect.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy is imported: one thread per workload
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("sweep", "scenario", "exact", "planners")
END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
SETUPS = 3
# time of reference_work on the host of the first baseline entry
REFERENCE_S = 0.004


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every instance (smoke test only)")
    return p.parse_args(argv)


def import_patrolsim():
    src = ROOT / "src"
    if not (src / "patrolsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no patrolsim sources under {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import patrolsim.cli  # noqa: F401  (imports every patrolsim module)


def git_sha() -> str | None:
    """HEAD of the checkout, read without running git (None outside a repo)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import importlib.util

    import numpy
    import scipy

    sim = sys.modules["patrolsim.simulate"]
    kernel = getattr(sim, "_step_kernel", None)
    if kernel is None:
        backend = "unknown"
    elif type(kernel).__module__.split(".")[0] == "numba":
        backend = "numba"
    else:
        backend = "python"
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": backend,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "comparable": "only with results of equal kernel_backend, numba_importable and nproc",
    }


def reference_work() -> float:
    """Time a fixed mix of float, dict and Fraction work (about 4 ms)."""
    t0 = time.perf_counter()
    x, d, f = 0.5, {}, Fraction(0)
    for i in range(12000):
        x = (x * 1.000001 + i * 0.5) % 7.0
        d[i & 255] = x
    for i in range(1, 200):
        f += Fraction(1, i)
    return time.perf_counter() - t0


class Tally:
    """Counts and timings of the calls of one phase.  Timings are kept raw
    and scaled to the reference speed; ``samples`` and ``round_rates`` are
    scaled, ``raw_*`` are not."""

    def __init__(self):
        self.attempted = self.failed = self.failed_general = 0
        self.busy_s = self.scaled_s = 0.0
        self.round_rates: list[float] = []
        self.raw_round_rates: list[float] = []
        self.samples: dict[str, list[float]] = {}
        self.raw_samples: dict[str, list[float]] = {}
        self.references: list[float] = []
        self.failures: Counter = Counter()

    def add(self, task, seconds, scale, failed, error) -> None:
        self.attempted += task.ops
        self.failed += failed
        self.busy_s += seconds
        self.scaled_s += seconds * scale
        if error is None:
            self.samples.setdefault(task.name, []).append(seconds * scale / task.ops)
            self.raw_samples.setdefault(task.name, []).append(seconds / task.ops)
        if failed:
            self.failed_general += failed if task.general else 0
            why = type(error).__name__ if error is not None else "check"
            self.failures[f"{task.name} ({why})"] += failed

    @property
    def failed_reference(self) -> int:
        return self.failed - self.failed_general

    @staticmethod
    def p50_ms(samples) -> float:
        return 1000.0 * statistics.geometric_mean(
            statistics.median(v) for v in samples.values())

    @staticmethod
    def p90_ms(samples) -> float | None:
        """Pooled 90th percentile, when at least ten calls lie beyond it."""
        pooled = [x for v in samples.values() for x in v]
        if len(pooled) < 100:
            return None
        return 1000.0 * statistics.quantiles(pooled, n=10, method="inclusive")[8]


def run_round(workload, r: int, tally: Tally, tracer=None) -> None:
    ok0, busy0, scaled0 = tally.attempted - tally.failed, tally.busy_s, tally.scaled_s
    before = reference_work()
    for task in workload.round(r):
        if tracer is not None:
            tracer.op_id += 1
        error = out = None
        t0 = time.perf_counter()
        try:
            out = task.call()
        except Exception as exc:  # a raising call fails all its operations
            error = exc
        seconds = time.perf_counter() - t0
        after = reference_work()
        tally.references.append(after)
        scale = REFERENCE_S / ((before + after) / 2)
        before = after
        if error is not None:
            failed = task.ops
        else:
            try:
                failed = min(task.ops, int(task.check(out)))
            except Exception as exc:  # malformed output
                failed, error = task.ops, exc
        tally.add(task, seconds, scale, failed, error)
    ok = tally.attempted - tally.failed - ok0
    tally.round_rates.append(ok / (tally.scaled_s - scaled0))
    tally.raw_round_rates.append(ok / (tally.busy_s - busy0))


def run_workload(args) -> dict:
    import_patrolsim()
    import_s = time.perf_counter() - T_START
    import workloads
    import tracing

    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workloads, tracing, env, import_s, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workloads, tracing, env, import_s, workdir) -> dict:
    cls = workloads.WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    # set-up is scaled to the reference speed like every timed call
    setups, raw_setups = [], []
    before = reference_work()
    import_scaled = import_s * REFERENCE_S / before
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        workload = cls(args.seed, tiny, workdir)
        workload.warm_up()
        seconds = time.perf_counter() - t0
        after = reference_work()
        raw_setups.append(seconds)
        setups.append(seconds * REFERENCE_S / ((before + after) / 2))
        before = after
    setup_s = import_scaled + statistics.median(setups)

    main = Tally()
    start = time.perf_counter()
    deadline = start + args.seconds
    rounds = 0
    if not args.trace:
        while rounds == 0 or time.perf_counter() < deadline:
            run_round(workload, rounds, main)
            rounds += 1
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": statistics.median(main.round_rates),
            "op_p50_ms": main.p50_ms(main.samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        tallies = [main]
    else:
        # each round runs untraced, then again traced, so both see the same
        # inputs in the same state; per-layer figures come from traced rounds
        traced = Tally()
        tracer = tracing.Tracer()
        while rounds == 0 or time.perf_counter() < deadline:
            run_round(workload, rounds, main)
            workload.stats = tracer.counters
            tracer.install()
            try:
                run_round(workload, rounds, traced, tracer)
            finally:
                tracer.uninstall()
                workload.stats = Counter()
            rounds += 1
        metrics = tracer.metrics()
        metrics.update({
            "bench.trace_overhead_ratio": traced.scaled_s / main.scaled_s,
            "bench.fail_ratio": traced.failed / traced.attempted,
            "bench.failed_general_chain": traced.failed_general,
            "bench.failed_reference": traced.failed_reference,
            "bench.spans": len(tracer.spans),
        })
        units = {name: tracing.unit_of(name) for name in metrics}
        metrics = {k: v / rounds if units[k].endswith("/round") else v
                   for k, v in metrics.items()}
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write_spans(str(spans_path), env)
        print(f"spans {len(tracer.spans)} written to {spans_path}")
        tallies = [main, traced]

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    failed_reference = sum(t.failed_reference for t in tallies)
    n = sum(len(v) for v in main.samples.values())
    print(f"workload {args.workload} seed {args.seed} rounds {rounds} "
          f"elapsed {time.perf_counter() - start:.3f} s (trace {args.trace})")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(f"metric fail_ratio {failed / attempted!r} failed/attempted "
          f"({failed}/{attempted}; reference {failed_reference}, "
          f"general chain {failed - failed_reference})")
    if not args.trace:
        print(f"samples {n} timed calls of {len(main.samples)} kinds (op_p50_ms)")
        p90 = main.p90_ms(main.samples)
        if p90 is not None:
            print(f"metric op_p90_ms {p90!r} ms ({n} samples)")
        else:
            print(f"op_p90_ms not reported: {n} samples, fewer than 100")
        print(f"raw (unscaled) setup_s {import_s + statistics.median(raw_setups)!r} s, "
              f"ops_per_s {statistics.median(main.raw_round_rates)!r} ops/s, "
              f"op_p50_ms {main.p50_ms(main.raw_samples)!r} ms; reference_work median "
              f"{statistics.median(main.references)!r} s against REFERENCE_S {REFERENCE_S}")
    else:
        print("waits: none; one thread in one process, so no layer waits on another")
    for t in tallies:
        for what, count in sorted(t.failures.items()):
            print(f"failed {count} ops: {what}")
    return {
        "correct": failed_reference == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in a child process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", repr(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, doc in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = doc
    return combined


def main(argv=None) -> None:
    args = parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
