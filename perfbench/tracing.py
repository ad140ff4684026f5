"""Span tracing of patrolsim's public functions, installed from outside.

The traced run replaces each function below at every name a caller looks
it up by: the attribute on its defining module, every re-export in another
patrolsim module (``patrolsim.simulate.refresh_time_from_trace``,
``patrolsim.cli.simulate``, the package ``__init__``), and the class
attribute for methods (``PiecewisePath.occupancy``).  Nothing under
``src/`` changes.  A target that no longer exists is skipped, so its
metrics read zero calls instead of crashing.

Spans are ``[name, start, end, parent, op_id, error]`` lists kept in memory
and written out once at the end.  A span's self time is its duration minus
the durations of its direct children.  Counters are taken after a call
returns, inside a ``bench.post`` span, so no layer's self time includes
them.  Everything runs in one thread of one
process, so no layer ever waits on another and no wait time is reported.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute path, span name); span names double as metric prefixes
TARGETS = [
    ("patrolsim.simulate", "simulate", "simulate.simulate"),
    ("patrolsim.simulate", "evaluate_trace", "simulate.evaluate_trace"),
    ("patrolsim.simulate", "noise_sweep", "simulate.noise_sweep"),
    ("patrolsim.simulate", "Trace.write_csv", "simulate.write_csv"),
    ("patrolsim.metrics", "refresh_time", "metrics.refresh_time"),
    ("patrolsim.metrics", "latency", "metrics.latency"),
    ("patrolsim.metrics", "communication_instants", "metrics.communication_instants"),
    ("patrolsim.metrics", "propagate_latency", "metrics.propagate_latency"),
    ("patrolsim.metrics", "refresh_time_from_trace", "metrics.refresh_time_from_trace"),
    ("patrolsim.metrics", "latency_from_phis", "metrics.latency_from_phis"),
    ("patrolsim.trajectories", "min_refresh_trajectory", "trajectories.synth"),
    ("patrolsim.trajectories", "min_up_latency_trajectory", "trajectories.synth"),
    ("patrolsim.trajectories", "min_latency_trajectory", "trajectories.synth"),
    ("patrolsim.trajectories", "PiecewisePath.occupancy", "trajectories.occupancy"),
    ("patrolsim.partition", "optimal_partition_bisect", "partition.bisect"),
    ("patrolsim.partition", "optimal_partition_exact", "partition.exact"),
    ("patrolsim.partition", "left_induced_cardinality", "partition.greedy"),
    ("patrolsim.cover", "minmax_path_cover", "cover.minmax_path_cover"),
    ("patrolsim.cover", "exact_path_cover", "cover.exact_path_cover"),
    ("patrolsim.cover", "chainify", "cover.chainify"),
    ("patrolsim.cover", "chain_tour_approximation", "cover.chain_tour_approximation"),
    ("patrolsim.cover", "CoverTrajectory.refresh_time", "cover.refresh_time"),
    ("patrolsim.tree", "optimal_subtree_collection", "tree.optimal_subtree_collection"),
    ("patrolsim.tree", "efficient_trajectory", "tree.efficient_trajectory"),
    ("patrolsim.roadmap", "Roadmap.distance_matrix", "roadmap.distance_matrix"),
    ("patrolsim.roadmap", "load_roadmap", "roadmap.load_roadmap"),
    ("patrolsim.cli", "dispatch", "cli.dispatch"),
]

LAYERS = ("simulate", "metrics", "trajectories", "partition", "cover", "tree", "roadmap", "cli")

# span names whose self time is a per-layer metric of its own
SELF_TIMED = (
    "simulate.simulate", "simulate.evaluate_trace", "simulate.noise_sweep",
    "simulate.write_csv", "metrics.refresh_time", "metrics.latency",
    "metrics.communication_instants", "metrics.propagate_latency",
    "metrics.refresh_time_from_trace", "metrics.latency_from_phis",
    "trajectories.synth", "trajectories.occupancy", "partition.bisect",
    "partition.exact", "cover.minmax_path_cover", "cover.exact_path_cover",
    "cover.chainify", "cover.refresh_time", "tree.optimal_subtree_collection",
    "tree.efficient_trajectory", "roadmap.distance_matrix", "roadmap.load_roadmap",
    "cli.dispatch.simulate", "cli.dispatch.rerun", "cli.dispatch.eval",
)

UNITS = {"self_s": "s", "calls": "count", "errors": "count"}
UNITS.update({
    "simulate.robot_steps": "count",
    "simulate.us_per_robot_step": "us",
    "simulate.csv_bytes": "bytes",
    "simulate.comm_events": "count",
    "simulate.converged_ratio": "ratio",
    "simulate.frozen_runs": "count",
    "trajectories.occupancy_intervals": "count",
    "partition.bisect_iterations": "count",
    "partition.greedy_passes": "count",
    "cover.factor_max": "ratio",
    "cli.bytes_written": "bytes",
    "bench.trace_overhead_ratio": "ratio",
    "bench.fail_ratio": "ratio",
    "bench.failed_general_chain": "count",
    "bench.failed_reference": "count",
    "bench.spans": "count",
    "bench.hook_errors": "count",
})


def unit_of(name: str) -> str:
    """Totals are reported per round, so runs of any length compare."""
    base = UNITS.get(name) or UNITS[name.rsplit(".", 1)[1]]
    return f"{base}/round" if base in ("s", "count", "bytes") else base


def team_frozen(positions: np.ndarray, window_steps: int) -> bool:
    """True when no robot moves over the final ``window_steps`` steps."""
    tail = positions[-window_steps - 1 :]
    return bool(np.ptp(tail, axis=0).max() == 0.0)


class Tracer:
    """In-memory span recorder plus the counters measured at the same calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def _wrap(self, fn, name, post=None, label=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [label(args) if label else name, 0.0, 0.0,
                    stack[-1] if stack else -1, self.op_id, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[5] = 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if post is not None:
                # a span of its own, so the caller's self time excludes it
                hook = ["bench.post", time.perf_counter(), 0.0, span[3], self.op_id, 0]
                spans.append(hook)
                try:
                    post(self.counters, args, out)
                except Exception:  # a changed return type must not fail the call
                    hook[5] = 1
                    self.counters["bench.hook_errors"] += 1
                hook[2] = time.perf_counter()
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "patrolsim" or n.startswith("patrolsim.")) and m is not None]
        wrapped: dict[int, object] = {}
        for mod_name, path, name in TARGETS:
            try:
                owner = importlib.import_module(mod_name)
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue  # removed by a later change: reads as zero calls
            wrapper = self._wrap(original, name, _POST.get(path), _LABEL.get(path))
            wrapped[id(original)] = wrapper
            if cls_path:
                self._patch(owner, attr, wrapper)
        # rebind every module-level name that refers to a wrapped function
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if callable(value) and id(value) in wrapped:
                    self._patch(mod, key, wrapped[id(value)])

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, self_s and errors per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "errors": 0}
        )
        for k, (name, start, end, _, _, err) in enumerate(self.spans):
            st = stats[name]
            st["calls"] += 1
            st["self_s"] += (end - start) - child_time[k]
            st["errors"] += err
        return stats

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced rounds."""
        stats = self.layer_stats()
        zero = {"calls": 0, "self_s": 0.0, "errors": 0}
        c = self.counters
        out = {f"{name}.self_s": stats.get(name, zero)["self_s"] for name in SELF_TIMED}
        steps = c["simulate.robot_steps"]
        evaluated = c["simulate.evaluated"]
        out.update({
            "simulate.robot_steps": steps,
            "simulate.us_per_robot_step":
                1e6 * out["simulate.simulate.self_s"] / steps if steps else 0.0,
            "simulate.evaluate_trace.errors":
                stats.get("simulate.evaluate_trace", zero)["errors"],
            "simulate.csv_bytes": c["simulate.csv_bytes"],
            "simulate.comm_events": c["simulate.comm_events"],
            "simulate.converged_ratio":
                c["simulate.converged"] / evaluated if evaluated else 0.0,
            "simulate.frozen_runs": c["simulate.frozen_runs"],
            "trajectories.occupancy.calls": stats.get("trajectories.occupancy", zero)["calls"],
            "trajectories.occupancy_intervals": c["trajectories.occupancy_intervals"],
            "partition.bisect_iterations": c["partition.bisect_iterations"],
            "partition.greedy_passes": stats.get("partition.greedy", zero)["calls"],
            "cover.factor_max": c["cover.factor_max"],
            "cli.bytes_written": c["cli.bytes_written"],
            "bench.hook_errors": c["bench.hook_errors"],
        })
        for layer in LAYERS:
            for kind in ("calls", "self_s", "errors"):
                out[f"{layer}.{kind}"] = sum(
                    st[kind] for name, st in stats.items() if name.split(".", 1)[0] == layer
                )
        return out

    def write_spans(self, path, env: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {
            "env": env,
            "fields": ["name", "start", "end", "parent", "op_id", "error"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- counters measured where the work happens ------------------------------


def _post_simulate(c, args, trace):
    steps, m = trace.positions.shape[0] - 1, trace.positions.shape[1]
    c["simulate.robot_steps"] += steps * m
    c["simulate.comm_events"] += sum(1 for e in trace.events if e[1] == "comm")
    part = trace.new_partition or trace.partition
    window = int(round(2 * 2 * part.dimension / trace.config.dt))
    c["simulate.frozen_runs"] += team_frozen(trace.positions, min(window, steps))


def _post_evaluate(c, args, tm):
    c["simulate.evaluated"] += 1
    c["simulate.converged"] += bool(tm.converged)


def _post_write_csv(c, args, _):
    c["simulate.csv_bytes"] += os.path.getsize(args[1])


def _post_occupancy(c, args, out):
    c["trajectories.occupancy_intervals"] += len(out)


def _post_bisect(c, args, out):
    c["partition.bisect_iterations"] += out[1].iterations


_POST = {
    "simulate": _post_simulate,
    "evaluate_trace": _post_evaluate,
    "Trace.write_csv": _post_write_csv,
    "PiecewisePath.occupancy": _post_occupancy,
    "optimal_partition_bisect": _post_bisect,
}

# one span name per CLI command: cli.dispatch.simulate, .rerun, .eval, ...
_LABEL = {"dispatch": lambda args: f"cli.dispatch.{args[0][0] if args and args[0] else '?'}"}
