"""Command-line surface: generate, solve, verify, oracle, export-lp."""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, io
from .bnb import NODE_SELECTIONS, SolverConfig, branch_and_bound
from .clustering import objective
from .errors import (
    CycleClustError,
    DimensionMismatchError,
    FileFormatError,
    InvalidClusterCountError,
    InvalidClusteringError,
    InvalidTerminalCountError,
    IsolatedNonTerminalError,
    TooFewPointsError,
    TooLargeError,
)
from .generate import (
    BY_NAME,
    generate_repressilator_instance,
    hmc_transition_matrix,
    hmc_with_drift,
    multiway_cut_to_instance,
    select_bin_centers,
    triangle_fixture,
)
from .generate.repressilator import STATE_LABELS
from .heuristics import brute_force
from .markov import FlowMatrix, TransitionMatrix, flow_matrix, project, stationary_distribution
from .mip import build_mip, export_model

USAGE_ERRORS = (
    InvalidClusterCountError,
    InvalidClusteringError,
    InvalidTerminalCountError,
    IsolatedNonTerminalError,
    DimensionMismatchError,
    FileFormatError,
    TooFewPointsError,
    TooLargeError,
)

DEFAULT_BETA = 0.5
DEFAULT_STEPS = 10_000
DEFAULT_BINS = 20
LP_WRITE_SLICE = 1 << 20  # characters per write of model.lp


def _manifest(out_dir: Path, command: str, args: dict, inputs: list, t0: float) -> None:
    io.write_manifest(out_dir / "manifest.json", {
        "command": command,
        "arguments": args,
        "inputs": [str(p) for p in inputs],
        "output_dir": str(out_dir),
        "seed": args.get("seed"),
        "config": args.get("config"),
        "tool_version": __version__,
        "wall_clock_s": time.monotonic() - t0,
    })


def _write_lp(path, text: str) -> None:
    """Write LP text in slices, so that no encoded copy of the whole model
    is held at once."""
    with open(path, "w", encoding="utf-8") as fh:
        for at in range(0, len(text), LP_WRITE_SLICE):
            fh.write(text[at:at + LP_WRITE_SLICE])


def _load_weights(path: str):
    """(FlowMatrix, kind) from a tm-v1 or fm-v1 file."""
    matrix = io.read_matrix(path)
    if isinstance(matrix, TransitionMatrix):
        pi = stationary_distribution(matrix)
        return flow_matrix(matrix, pi), "tm-v1"
    return matrix, "fm-v1"


def cmd_generate(args) -> int:
    t0 = time.monotonic()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    recorded = {
        "kind": args.kind, "seed": args.seed, "drift": args.drift,
        "beta": args.beta, "steps": args.steps, "bins": args.bins,
        "lag": args.lag, "count": args.count, "t_final": args.t_final,
        "dt": args.dt, "graph": args.graph, "alpha": args.alpha,
    }
    inputs = []
    if args.kind in BY_NAME:
        pot = BY_NAME[args.kind]
        traj = hmc_with_drift(pot, pot.minima[0], beta=args.beta,
                              n_steps=args.steps, drift_mag=args.drift,
                              seed=args.seed)
        centers = select_bin_centers(traj, args.bins)
        tm = hmc_transition_matrix(traj, centers, lag=args.lag)
        io.write_transition_matrix(out / "matrix.tm", tm)
        io.write_points_csv(out / "trajectory.csv", traj.points)
        io.write_points_csv(out / "centers.csv", centers)
    elif args.kind == "repressilator":
        tm, starts, ends = generate_repressilator_instance(
            count=args.count, t_final=args.t_final, dt=args.dt)
        io.write_transition_matrix(out / "matrix.tm", tm)
        io.write_points_csv(out / "starts.csv", starts, labels=STATE_LABELS)
        io.write_points_csv(out / "ends.csv", ends, labels=STATE_LABELS)
    elif args.kind == "triangle":
        io.write_flow_matrix(out / "matrix.fm", triangle_fixture())
    elif args.kind == "multiway-cut":
        if not args.graph:
            raise FileFormatError("multiway-cut generation needs --graph")
        inputs.append(args.graph)
        mc = io.read_multiway_cut(args.graph)
        tm, pi, big_m = multiway_cut_to_instance(mc, alpha=args.alpha)
        io.write_flow_matrix(out / "matrix.fm", flow_matrix(tm, pi))
        recorded["big_m"] = big_m
    else:  # pragma: no cover - argparse restricts choices
        raise FileFormatError(f"unknown kind {args.kind!r}")
    _manifest(out, "generate", recorded, inputs, t0)
    print(f"wrote {args.kind} instance to {out}")
    return 0


def _solver_config(args) -> SolverConfig:
    cfg = io.read_solver_config(args.config) if args.config else SolverConfig()
    updates = {}
    if args.time_limit is not None:
        updates["time_limit_s"] = args.time_limit
    if args.gap_tol is not None:
        updates["gap_tol"] = args.gap_tol
    if args.node_limit is not None:
        updates["node_limit"] = args.node_limit
    if args.node_selection is not None:
        updates["node_selection"] = args.node_selection
    if updates:
        from dataclasses import replace
        cfg = replace(cfg, **updates)
    return cfg


def cmd_solve(args) -> int:
    t0 = time.monotonic()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    weights, kind = _load_weights(args.matrix)
    mip = build_mip(weights, args.m, args.alpha)
    if args.emit_lp:
        _write_lp(out / "model.lp", export_model(mip))
    cfg = _solver_config(args)
    result = branch_and_bound(mip, weights, cfg)
    io.write_solve_report(out / "report.json", result)
    if result.incumbent is not None:
        value = objective(weights, result.incumbent, args.alpha)
        io.write_clustering(out / "clustering.json", result.incumbent, value)
    _manifest(out, "solve", {
        "matrix": args.matrix, "matrix_kind": kind, "m": args.m,
        "alpha": args.alpha, "seed": args.seed, "config": args.config,
        "time_limit": args.time_limit, "gap_tol": args.gap_tol,
        "node_limit": args.node_limit, "node_selection": args.node_selection,
        "emit_lp": bool(args.emit_lp),
    }, [args.matrix], t0)
    print(f"status={result.status} primal={result.primal} "
          f"dual_bound={result.dual_bound} nodes={result.nodes}")
    return 0


def cmd_verify(args) -> int:
    weights, _ = _load_weights(args.matrix)
    clustering, alpha, stored = io.read_clustering(args.clustering)
    value = objective(weights, clustering, alpha)
    deltas = {
        "total": abs(value.total - stored["total"]),
        "flow": abs(value.flow_part - stored["flow"]),
        "coherence": abs(value.coherence_part - stored["coherence"]),
    }
    projected = project(weights, clustering)
    delta = projected.delta()
    print("projected antisymmetric part:")
    for row in delta:
        print("  " + " ".join(f"{v: .9f}" for v in row))
    if clustering.m == 3:
        eps = float(delta[0, 1] + delta[1, 2] + delta[2, 0]) / 3.0
        residual = max(abs(delta[0, 1] - eps), abs(delta[1, 2] - eps),
                       abs(delta[2, 0] - eps))
        print(f"epsilon = {eps!r} (structure residual {residual:.3e})")
    ok = all(v <= 1e-6 for v in deltas.values())
    if ok:
        print("stored objective matches recomputation")
        return 0
    print("MISMATCH between stored and recomputed objective:")
    for key, v in deltas.items():
        print(f"  {key}: stored={stored[key]!r} recomputed delta={v!r}")
    return 1


def cmd_oracle(args) -> int:
    weights, _ = _load_weights(args.matrix)
    clustering, value = brute_force(weights, args.m, args.alpha)
    doc = {
        "n": clustering.n, "m": clustering.m, "alpha": args.alpha,
        "assignment": [int(k) for k in clustering.assignment],
        "objective": {"total": value.total, "flow": value.flow_part,
                      "coherence": value.coherence_part},
    }
    print(json.dumps(doc, indent=2))
    return 0


def cmd_export_lp(args) -> int:
    weights, _ = _load_weights(args.matrix)
    mip = build_mip(weights, args.m, args.alpha)
    _write_lp(args.out, export_model(mip))
    print(f"wrote {args.out}")
    return 0


def _limit(kind):
    """argparse type: a `kind` number that is finite and not negative."""
    def parse(text: str):
        value = kind(text)
        if not 0 <= value < math.inf:  # also refuses NaN
            raise argparse.ArgumentTypeError(f"must be finite and not negative, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


def _above(kind, floor=0):
    """argparse type: a `kind` number that is finite and above `floor`."""
    def parse(text: str):
        value = kind(text)
        if not floor < value < math.inf:  # also refuses NaN
            what = "positive" if floor == 0 else f"above {floor}"
            raise argparse.ArgumentTypeError(f"must be finite and {what}, got {text!r}")
        return value
    parse.__name__ = kind.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycleclust",
        description="Detect global cyclic behavior in non-reversible Markov chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="produce a test instance")
    g.add_argument("kind", choices=["omega3", "omega4", "omega6",
                                    "repressilator", "triangle", "multiway-cut"])
    g.add_argument("--out", default="instance")
    g.add_argument("--seed", type=_limit(int), default=0)
    g.add_argument("--drift", type=_limit(float), default=0.1)
    g.add_argument("--beta", type=_above(float), default=DEFAULT_BETA)
    g.add_argument("--steps", type=_above(int, 1), default=DEFAULT_STEPS)
    g.add_argument("--bins", type=_above(int), default=DEFAULT_BINS)
    g.add_argument("--lag", type=_above(int), default=1)
    g.add_argument("--count", type=_above(int), default=200)
    g.add_argument("--t-final", type=_above(float), default=1.5)
    g.add_argument("--dt", type=_above(float), default=1e-3)
    g.add_argument("--graph", default=None)
    g.add_argument("--alpha", type=_above(float), default=0.001)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="compute an optimal cycle clustering")
    s.add_argument("matrix")
    s.add_argument("-m", type=int, required=True)
    s.add_argument("--alpha", type=_above(float), default=0.001)
    s.add_argument("--out", default="solution")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--config", default=None)
    s.add_argument("--time-limit", type=_limit(float), default=None)
    s.add_argument("--gap-tol", type=_limit(float), default=None)
    s.add_argument("--node-limit", type=_limit(int), default=None)
    s.add_argument("--node-selection", choices=NODE_SELECTIONS, default=None)
    s.add_argument("--emit-lp", action="store_true")
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="recompute a stored clustering objective")
    v.add_argument("matrix")
    v.add_argument("clustering")
    v.set_defaults(func=cmd_verify)

    o = sub.add_parser("oracle", help="exhaustive optimum for small instances")
    o.add_argument("matrix")
    o.add_argument("-m", type=int, required=True)
    o.add_argument("--alpha", type=_above(float), default=0.001)
    o.set_defaults(func=cmd_oracle)

    e = sub.add_parser("export-lp", help="write the model in LP text format")
    e.add_argument("matrix")
    e.add_argument("-m", type=int, required=True)
    e.add_argument("--alpha", type=_above(float), default=0.001)
    e.add_argument("--out", default="model.lp")
    e.set_defaults(func=cmd_export_lp)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate" and args.t_final < args.dt:
        parser.error(f"--t-final {args.t_final!r} is below --dt {args.dt!r}")
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CycleClustError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
