"""Command-line surface: generate, solve, verify, oracle, export-lp."""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__, io
from .bnb import NODE_SELECTIONS, SolverConfig, branch_and_bound
from .clustering import DEFAULT_ALPHA, ObjectiveValue, objective
from .errors import CycleClustError, UsageError
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
from .markov import TransitionMatrix, flow_matrix, project, stationary_distribution
# export_model stays importable here because perfbench's tracer wraps
# cli.export_model by name; the commands write lp_chunks.
from .mip import build_mip, export_model, lp_chunks  # noqa: F401

DEFAULT_BETA = 0.5
DEFAULT_STEPS = 10_000
DEFAULT_BINS = 20


def _manifest(args, inputs: list, t0: float, **derived) -> None:
    """Write manifest.json into `args.out`. Its arguments are every parsed
    option but the output directory, plus the values `derived` from the
    inputs."""
    out_dir = Path(args.out)
    recorded = {key: value for key, value in vars(args).items()
                if key not in ("command", "func", "out")}
    io.write_manifest(out_dir / "manifest.json", {
        "command": args.command,
        "arguments": {**recorded, **derived},
        "inputs": [str(p) for p in inputs],
        "output_dir": str(out_dir),
        "config": recorded.get("config"),
        "tool_version": __version__,
        "wall_clock_s": time.monotonic() - t0,
    })


def _write_lp(path, mip) -> None:
    """Write the model's LP text chunk by chunk as it is made, so that one
    chunk of it is held at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lp_chunks(mip))


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
    inputs, derived = [], {}
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
    else:  # multiway-cut
        if not args.graph:
            raise UsageError("multiway-cut generation needs --graph")
        inputs.append(args.graph)
        mc = io.read_multiway_cut(args.graph)
        tm, pi, big_m = multiway_cut_to_instance(mc, alpha=args.alpha)
        io.write_flow_matrix(out / "matrix.fm", flow_matrix(tm, pi))
        derived["big_m"] = big_m
    _manifest(args, inputs, t0, **derived)
    print(f"wrote {args.kind} instance to {out}")
    return 0


def _solver_config(args) -> SolverConfig:
    cfg = io.read_solver_config(args.config) if args.config else SolverConfig()
    options = {"time_limit_s": args.time_limit, "gap_tol": args.gap_tol,
               "node_limit": args.node_limit, "node_selection": args.node_selection}
    return replace(cfg, **{key: value for key, value in options.items() if value is not None})


def cmd_solve(args) -> int:
    t0 = time.monotonic()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    weights, kind = _load_weights(args.matrix)
    mip = build_mip(weights, args.m, args.alpha)
    if args.emit_lp:
        _write_lp(out / "model.lp", mip)
    result = branch_and_bound(mip, weights, _solver_config(args))
    io.write_solve_report(out / "report.json", result)
    if result.incumbent is not None:
        value = objective(weights, result.incumbent, args.alpha)
        io.write_clustering(out / "clustering.json", result.incumbent, value)
    _manifest(args, [args.matrix], t0, matrix_kind=kind)
    print(f"status={result.status} primal={result.primal} "
          f"dual_bound={result.dual_bound} nodes={result.nodes}")
    return 0


def cmd_verify(args) -> int:
    weights, _ = _load_weights(args.matrix)
    clustering, alpha, stored = io.read_clustering(args.clustering)
    projected = project(weights, clustering)
    value = ObjectiveValue.of(projected, alpha)
    deltas = {
        "total": abs(value.total - stored["total"]),
        "flow": abs(value.flow_part - stored["flow"]),
        "coherence": abs(value.coherence_part - stored["coherence"]),
    }
    delta = projected.delta()
    print("projected antisymmetric part:")
    for row in delta:
        print("  " + " ".join(f"{v: .9f}" for v in row))
    if clustering.m == 3:
        flows = projected.cycle_flows()
        eps = (flows[0] + flows[1] + flows[2]) / 3.0
        residual = max(abs(f - eps) for f in flows)
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
    print(io.format_clustering(*brute_force(weights, args.m, args.alpha)))
    return 0


def cmd_export_lp(args) -> int:
    weights, _ = _load_weights(args.matrix)
    mip = build_mip(weights, args.m, args.alpha)
    _write_lp(args.out, mip)
    print(f"wrote {args.out}")
    return 0


def _number(kind, above=None):
    """argparse type: a `kind` number that is finite and greater than
    `above`, or with no `above`, not negative."""
    what = "not negative" if above is None else "positive" if above == 0 else f"above {above}"

    def parse(text: str):
        value = kind(text)
        # both comparisons also refuse NaN
        if not (value >= 0 if above is None else value > above) or not value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and {what}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycleclust",
        description="Detect global cyclic behavior in non-reversible Markov chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the model's inputs, shared by solve, oracle and export-lp
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("matrix")
    model.add_argument("-m", type=int, required=True)
    model.add_argument("--alpha", type=_number(float, above=0), default=DEFAULT_ALPHA)

    g = sub.add_parser("generate", help="produce a test instance")
    g.add_argument("kind", choices=[*BY_NAME, "repressilator", "triangle", "multiway-cut"])
    g.add_argument("--out", default="instance")
    g.add_argument("--seed", type=_number(int), default=0)
    g.add_argument("--drift", type=_number(float), default=0.1)
    g.add_argument("--beta", type=_number(float, above=0), default=DEFAULT_BETA)
    g.add_argument("--steps", type=_number(int, above=1), default=DEFAULT_STEPS)
    g.add_argument("--bins", type=_number(int, above=0), default=DEFAULT_BINS)
    g.add_argument("--lag", type=_number(int, above=0), default=1)
    g.add_argument("--count", type=_number(int, above=0), default=200)
    g.add_argument("--t-final", type=_number(float, above=0), default=1.5)
    g.add_argument("--dt", type=_number(float, above=0), default=1e-3)
    g.add_argument("--graph", default=None)
    g.add_argument("--alpha", type=_number(float, above=0), default=DEFAULT_ALPHA)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", parents=[model], help="compute an optimal cycle clustering")
    s.add_argument("--out", default="solution")
    s.add_argument("--config", default=None)
    s.add_argument("--time-limit", type=_number(float), default=None)
    s.add_argument("--gap-tol", type=_number(float), default=None)
    s.add_argument("--node-limit", type=_number(int), default=None)
    s.add_argument("--node-selection", choices=NODE_SELECTIONS, default=None)
    s.add_argument("--emit-lp", action="store_true")
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="recompute a stored clustering objective")
    v.add_argument("matrix")
    v.add_argument("clustering")
    v.set_defaults(func=cmd_verify)

    o = sub.add_parser("oracle", parents=[model], help="exhaustive optimum for small instances")
    o.set_defaults(func=cmd_oracle)

    e = sub.add_parser("export-lp", parents=[model],
                       help="write the model in LP text format")
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
    except (CycleClustError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
