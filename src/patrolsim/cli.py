"""Command-line front end.

Every subcommand is a thin adapter over the library: it loads inputs,
calls one library operation, writes the declared output files, and drops a
run manifest next to the primary output.  The manifest records the
resolved configuration, input hashes, and output list; ``rerun`` replays a
manifest and reproduces the outputs bit-exactly (all randomness flows from
the recorded seed).

Exit codes: 0 success, 1 validation error, 2 infeasible request.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .cover import chainify, exact_path_cover, minmax_path_cover, path_cover_trajectory
from .metrics import (
    comm_instants_from_trace,
    latency,
    latency_from_phis,
    latency_lower_bounds,
    metrics_report,
    refresh_time,
    refresh_time_from_trace,
)
from .partition import InfeasibleError, optimal_partition_bisect, optimal_partition_exact
from .roadmap import ChainRoadmap, RoadmapError, TreeRoadmap, load_roadmap
from .simulate import FailureWindow, SimConfig, noise_sweep, simulate, write_sweep_csv
from .trajectories import (
    TeamTrajectory,
    min_latency_trajectory,
    min_refresh_trajectory,
    min_up_latency_trajectory,
    opposite_phase_trajectory,
)
from .tree import efficient_trajectory, optimal_subtree_collection


def _sha256(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def _write_manifest(command: str, cfg: dict, inputs: list, outputs: list, out_path):
    manifest = {
        "tool": "patrolsim",
        "version": __version__,
        "command": command,
        "config": cfg,
        "seed": cfg.get("seed"),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
    }
    path = Path(str(out_path) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8")
    return path


def _load_chain(path, strict: bool = True) -> ChainRoadmap:
    g = load_roadmap(path, strict_metric=strict)
    if not isinstance(g, ChainRoadmap):
        raise RoadmapError(f"{path}: expected a chain roadmap, got kind={g.kind!r}")
    return g


def _strict(args) -> bool:
    return not getattr(args, "allow_metric_violations", False)


def _parse_failures(specs) -> tuple[FailureWindow, ...]:
    out = []
    for spec in specs or ():
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"failure spec {spec!r} is not robot:start:end")
        robot = int(parts[0])
        start = float(parts[1])
        end = math.inf if parts[2] in ("inf", "") else float(parts[2])
        out.append(FailureWindow(robot=robot, start=start, end=end))
    return tuple(out)


def _parse_sigmas(spec: str):
    if ":" in spec:
        lo, hi, step = (float(x) for x in spec.split(":"))
        if not all(map(math.isfinite, (lo, hi, step))) or step == 0 or (hi - lo) * step < 0:
            raise ValueError(
                f"sigmas {spec!r}: lo and hi must be finite and step nonzero, finite and "
                "pointing from lo to hi"
            )
        count = int(round((hi - lo) / step)) + 1
        sigmas = [lo + i * step for i in range(count)]
    else:
        sigmas = [float(x) for x in spec.split(",")]
    if not sigmas:
        raise ValueError(f"sigmas {spec!r} lists no variance")
    return sigmas


# ---------------------------------------------------------------------------
# subcommands


def _cmd_partition(args) -> int:
    chain = _load_chain(args.roadmap, _strict(args))
    if args.exact:
        part = optimal_partition_exact(chain, args.robots)
        rho = (part.dimension, part.dimension)
    else:
        part, report = optimal_partition_bisect(chain, args.robots, args.eps)
        rho = (report.a, report.b)
    Path(args.out).write_text(
        json.dumps(part.to_document(rho_interval=rho), indent=2) + "\n", "utf-8"
    )
    _write_manifest("partition", _cfg(args), [args.roadmap], [args.out], args.out)
    return 0


def _cmd_synth(args) -> int:
    if args.trace and not (math.isfinite(args.dt) and args.dt > 0):
        raise ValueError(f"--dt must be positive and finite, got {args.dt!r}")
    chain = _load_chain(args.roadmap, _strict(args))
    part, _ = optimal_partition_bisect(chain, args.robots, args.eps)
    synth = {
        "refresh": min_refresh_trajectory,
        "uplat": min_up_latency_trajectory,
        "lat": min_latency_trajectory,
        "opposite": opposite_phase_trajectory,
    }[args.mode]
    traj = synth(part, args.horizon)
    traj.write_json(args.out)
    outputs = [args.out]
    if args.trace:
        traj.write_trace_csv(args.trace, args.dt)
        outputs.append(args.trace)
    _write_manifest("synth", _cfg(args), [args.roadmap], outputs, args.out)
    return 0


def _cmd_simulate(args) -> int:
    chain = _load_chain(args.roadmap, _strict(args))
    part, _ = optimal_partition_bisect(chain, args.robots, args.eps)
    cfg = SimConfig(
        dt=args.dt,
        horizon=args.horizon,
        seed=args.seed,
        sigma2=args.sigma2,
        failures=_parse_failures(args.fail),
        detection_theta=args.theta,
        detection_arm_time=args.arm,
        eta=args.eta,
    )
    trace = simulate(chain, part, cfg)
    trace.write_csv(args.out)
    _write_manifest("simulate", _cfg(args), [args.roadmap], [args.out], args.out)
    return 0


def _cmd_eval(args) -> int:
    chain = _load_chain(args.roadmap, _strict(args))
    bounds = None
    part = None
    if args.robots:
        part, _ = optimal_partition_bisect(chain, args.robots, args.eps)
        if part.cardinality >= 2:
            bounds = latency_lower_bounds(part)
    if args.trajectory:
        doc = json.loads(Path(args.trajectory).read_text("utf-8"))
        traj = TeamTrajectory.from_document(doc, chain=chain)
        rt = refresh_time(traj, chain, warmup=args.warmup, strict=args.strict)
        lat = latency(traj, chain) if traj.m >= 2 else None
        inputs = [args.roadmap, args.trajectory]
    else:
        times, positions = _read_trace(args.trace)
        rt = refresh_time_from_trace(
            times, positions, chain.coordinates, warmup=args.warmup,
            cap=None if args.strict else (2 * part.dimension if part else None),
            strict=args.strict,
        )
        phis = comm_instants_from_trace(times, positions, chain)
        lat = latency_from_phis(phis, float(times[-1])) if positions.shape[1] >= 2 else None
        inputs = [args.roadmap, args.trace]
    report = metrics_report(rt, lat, bounds)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", "utf-8")
    _write_manifest("eval", _cfg(args), inputs, [args.out], args.out)
    return 0


def _read_trace(path):
    """Times (K,) and positions (K, m) from a trace CSV in step-major order:
    each step lists robots 0..m-1 in order under one time, as
    ``Trace.write_csv`` and ``TeamTrajectory.write_trace_csv`` write it."""
    # numpy's C parser reads the three leading columns straight into typed
    # arrays and ignores the rest (dir, event)
    with open(path, encoding="utf-8") as fh:
        if fh.readline().rstrip("\r\n").split(",")[:3] != ["time", "robot", "position"]:
            raise ValueError(f"{path}: header must start with time,robot,position")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(
                    fh, delimiter=",", comments=None, usecols=(0, 1, 2),
                    dtype=[("t", "f8"), ("r", "i8"), ("x", "f8")], ndmin=1,
                )
        except ValueError as exc:
            # numpy counts rows from after the header, and not the same way
            # for every error: name the file line instead
            line = _first_bad_line(path)
            where = f"line {line}" if line else str(exc)
            raise ValueError(
                f"{path}: rows must hold a time, an integer robot and a position: {where}"
            ) from None
    if not len(rows):
        raise ValueError(f"{path}: trace has no rows")
    robot = rows["r"]
    m = max(int(robot.max()), 0) + 1
    if len(robot) % m or not np.array_equal(robot, np.tile(np.arange(m), len(robot) // m)):
        raise ValueError(f"{path}: each step must list robots 0..{m - 1} in order")
    t = rows["t"].reshape(-1, m)
    if (t != t[:, :1]).any():
        raise ValueError(f"{path}: the rows of one step must share one time")
    times = np.ascontiguousarray(t[:, 0])
    if (np.diff(times) <= 0).any():
        raise ValueError(f"{path}: step times must strictly increase")
    return times, np.ascontiguousarray(rows["x"]).reshape(-1, m)


def _first_bad_line(path) -> int | None:
    """1-based file line of the first data row without a time, an integer
    robot and a position, or None when every row parses."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if lineno == 1 or not line.strip():
                continue
            fields = line.split(",")
            try:
                float(fields[0]), int(fields[1]), float(fields[2])
            except (IndexError, ValueError):
                return lineno
    return None


def _cmd_sweep(args) -> int:
    chain = _load_chain(args.roadmap, _strict(args))
    part, _ = optimal_partition_bisect(chain, args.robots, args.eps)
    sigmas = _parse_sigmas(args.sigmas)
    rows = noise_sweep(chain, part, sigmas, args.runs, args.seed, args.dt, args.horizon)
    write_sweep_csv(rows, args.out)
    _write_manifest("sweep", _cfg(args), [args.roadmap], [args.out], args.out)
    return 0


def _cmd_tree(args) -> int:
    g = load_roadmap(args.roadmap, strict_metric=_strict(args))
    if not isinstance(g, TreeRoadmap):
        raise RoadmapError(f"{args.roadmap}: expected a tree roadmap")
    coll = optimal_subtree_collection(g, args.robots, max_n=args.max_n)
    efficient_trajectory(coll, horizon=max(1.0, 2.0 * coll.objective))
    Path(args.out).write_text(json.dumps(coll.to_document(), indent=2) + "\n", "utf-8")
    _write_manifest("tree", _cfg(args), [args.roadmap], [args.out], args.out)
    return 0


def _cmd_cover(args) -> int:
    g = load_roadmap(args.roadmap, strict_metric=_strict(args))
    if isinstance(g, ChainRoadmap):
        g = g.as_roadmap()
    cover = minmax_path_cover(g, args.robots)
    cert = {"cover_cost": cover.cost, "paths": len(cover.paths), "robots": args.robots}
    if args.oracle:
        opt = exact_path_cover(g, args.robots)
        cert["optimal_cost"] = opt.cost
        cert["factor"] = math.inf if opt.cost == 0 else cover.cost / opt.cost
    traj = path_cover_trajectory(cover, args.robots, horizon=max(1.0, 4.0 * cover.cost))
    cert["refresh_time"] = traj.refresh_time()
    Path(args.out).write_text(
        json.dumps(cover.to_document(certificate=cert), indent=2) + "\n", "utf-8"
    )
    _write_manifest("cover", _cfg(args), [args.roadmap], [args.out], args.out)
    return 0


def _cmd_chainify(args) -> int:
    g = load_roadmap(args.roadmap, strict_metric=_strict(args))
    if isinstance(g, ChainRoadmap):
        raise InfeasibleError("input is a chain already")
    res = chainify(g)
    doc = res.chain.to_document()
    doc["back_map"] = list(res.back_map)
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", "utf-8")
    _write_manifest("chainify", _cfg(args), [args.roadmap], [args.out], args.out)
    return 0


def _cmd_rerun(args) -> int:
    manifest = json.loads(Path(args.manifest).read_text("utf-8"))
    for path, digest in manifest["inputs"].items():
        if _sha256(path) != digest:
            raise ValueError(f"input {path} changed since the manifest was written")
    argv = [manifest["command"]]
    for key, value in manifest["config"].items():
        if value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, (list, tuple)):
            for item in value:
                argv += [flag, str(item)]
        else:
            argv += [flag, str(value)]
    return dispatch(argv)


def _cfg(args) -> dict:
    skip = {"func", "command"}
    return {k: v for k, v in vars(args).items() if k not in skip}


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patrolsim", description="multi-robot patrolling toolkit"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        if name != "rerun":
            p.add_argument(
                "--allow-metric-violations",
                action="store_true",
                help="demote triangle-inequality violations to warnings",
            )
        return p

    p = add("partition", _cmd_partition, help="optimal m-partition of a chain")
    p.add_argument("--roadmap", required=True)
    p.add_argument("-m", "--robots", type=int, required=True)
    p.add_argument("--eps", type=float, default=1e-9)
    p.add_argument("--exact", action="store_true", help="use the exact quadratic search")
    p.add_argument("--out", required=True)

    p = add("synth", _cmd_synth, help="synthesize a team trajectory")
    p.add_argument("--roadmap", required=True)
    p.add_argument("-m", "--robots", type=int, required=True)
    p.add_argument("--eps", type=float, default=1e-9)
    p.add_argument("--mode", choices=["refresh", "uplat", "lat", "opposite"], default="refresh")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None, help="also write a sampled trace CSV")
    p.add_argument("--dt", type=float, default=1e-3)

    p = add("simulate", _cmd_simulate, help="run the distributed synchronization law")
    p.add_argument("--roadmap", required=True)
    p.add_argument("-m", "--robots", type=int, required=True)
    p.add_argument("--eps", type=float, default=1e-9)
    p.add_argument("--dt", type=float, default=0.03125)
    p.add_argument("--sigma2", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fail", action="append", help="robot:start:end (end may be inf)")
    p.add_argument("--theta", type=float, default=None, help="failure detection timeout")
    p.add_argument("--arm", type=float, default=0.0, help="detection arming time")
    p.add_argument("--eta", type=float, default=1e-6)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--out", required=True)

    p = add("eval", _cmd_eval, help="evaluate refresh time and latency")
    p.add_argument("--roadmap", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--trajectory", default=None)
    g.add_argument("--trace", default=None)
    p.add_argument("-m", "--robots", type=int, default=None, help="recompute bounds for m robots")
    p.add_argument("--eps", type=float, default=1e-9)
    p.add_argument("--warmup", type=float, default=0.0)
    p.add_argument("--strict", action="store_true", help="raw boundary-inclusive refresh time")
    p.add_argument("--out", required=True)

    p = add("sweep", _cmd_sweep, help="noise sweep with per-variance statistics")
    p.add_argument("--roadmap", required=True)
    p.add_argument("-m", "--robots", type=int, required=True)
    p.add_argument("--eps", type=float, default=1e-9)
    p.add_argument("--dt", type=float, default=0.03125)
    p.add_argument("--sigmas", default="0:0.5:0.02", help="lo:hi:step or comma list")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--out", required=True)

    p = add("tree", _cmd_tree, help="optimal subtree collection on a tree roadmap")
    p.add_argument("--roadmap", required=True)
    p.add_argument("-m", "--robots", type=int, required=True)
    p.add_argument("--max-n", type=int, default=15)
    p.add_argument("--out", required=True)

    p = add("cover", _cmd_cover, help="min-max path cover approximation")
    p.add_argument("--roadmap", required=True)
    p.add_argument("-m", "--robots", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="also run the exact oracle")
    p.add_argument("--out", required=True)

    p = add("chainify", _cmd_chainify, help="open a cyclic roadmap into a chain")
    p.add_argument("--roadmap", required=True)
    p.add_argument("--out", required=True)

    p = add("rerun", _cmd_rerun, help="replay a run manifest bit-exactly")
    p.add_argument("--manifest", required=True)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (RoadmapError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
