"""Text formats: matrices (tm-v1/fm-v1), clusterings (cc-v1), solver reports
(solve-v1), solver config, multiway-cut graphs, trajectory CSVs, manifests.

Numbers are written with repr, which round-trips floats exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from .bnb import HeuristicsConfig, SolveResult, SolverConfig
from .clustering import CycleClustering, ObjectiveValue, check_alpha
from .errors import FileFormatError
from .generate.multiway_cut import MultiwayCutInstance
from .markov import FlowMatrix, TransitionMatrix


def _format_rows(entries: np.ndarray) -> list[str]:
    return [" ".join(repr(float(v)) for v in row) for row in entries]


def write_transition_matrix(path, tm: TransitionMatrix) -> None:
    lines = [str(tm.n)] + _format_rows(tm.entries)
    Path(path).write_text("\n".join(lines) + "\n")


def write_flow_matrix(path, fm: FlowMatrix) -> None:
    lines = [f"FM {fm.n}"] + _format_rows(fm.entries)
    Path(path).write_text("\n".join(lines) + "\n")


def _numbers(parts, kind, path, lineno: int) -> list:
    """`parts` converted by `kind` (int or float); a bad one is a format
    error naming the file and its 1-based line."""
    try:
        return [kind(p) for p in parts]
    except ValueError as exc:
        raise FileFormatError(f"{path}: line {lineno}: {exc}") from exc


def _read_json_object(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def read_transition_matrix(path) -> TransitionMatrix:
    return _read_matrix(path, TransitionMatrix)


def read_flow_matrix(path) -> FlowMatrix:
    return _read_matrix(path, FlowMatrix)


def read_matrix(path):
    """Dispatch on the header token; returns TransitionMatrix or FlowMatrix."""
    return _read_matrix(path)


def _read_matrix(path, cls=None):
    """A `cls` matrix from a header line, the bin count n (after the tag FM
    in fm-v1), and n rows of n numbers; anything but blank lines after them
    is a format error. With no `cls`, the header's tag picks it."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise FileFormatError(f"{path}: empty file")
    if cls is None:
        cls = FlowMatrix if lines[0].startswith("FM") else TransitionMatrix
    tag, want = ((["FM"], "'FM <n>' header") if cls is FlowMatrix
                 else ([], "a plain bin count header"))
    header = lines[0].split()
    # isdecimal, not isdigit: int() refuses digits such as a superscript two
    if not header or header[:-1] != tag or not header[-1].isdecimal():
        raise FileFormatError(f"{path}: expected {want}, got {lines[0]!r}")
    n = int(header[-1])
    if len(lines) < n + 1:
        raise FileFormatError(f"{path}: expected {n} matrix rows")
    rows = []
    for k in range(1, n + 1):
        parts = lines[k].split()
        if len(parts) != n:
            raise FileFormatError(f"{path}: row {k} has {len(parts)} entries, want {n}")
        rows.append(_numbers(parts, float, path, k + 1))
    for k in range(n + 1, len(lines)):
        if lines[k].strip():
            raise FileFormatError(f"{path}: line {k + 1}: content after the {n} matrix rows")
    return cls(np.array(rows, dtype=float))


def format_clustering(c: CycleClustering, value: ObjectiveValue) -> str:
    """The cc-v1 document of a clustering and its objective, without a
    final newline."""
    doc = {
        "n": c.n,
        "m": c.m,
        "alpha": value.alpha,
        "assignment": [int(k) for k in c.assignment],
        "objective": {
            "total": value.total,
            "flow": value.flow_part,
            "coherence": value.coherence_part,
        },
    }
    return json.dumps(doc, indent=2)


def write_clustering(path, c: CycleClustering, value: ObjectiveValue) -> None:
    Path(path).write_text(format_clustering(c, value) + "\n")


def read_clustering(path):
    """Returns (clustering, alpha, stored objective dict): a finite positive
    alpha, and the objective's total, flow and coherence as floats."""
    doc = _read_json_object(path)
    try:
        n, m, labels = doc["n"], doc["m"], doc["assignment"]
        # json gives int only for integer literals; bool is an int subclass
        for key, value in [("n", n), ("m", m), *(("a label", v) for v in labels)]:
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{key} must be an integer, got {value!r}")
        c = CycleClustering(n=n, m=m, assignment=np.array(labels, dtype=int))
        alpha = float(doc["alpha"])
        check_alpha(alpha)
        stored = {key: float(doc["objective"][key]) for key in ("total", "flow", "coherence")}
    except KeyError as exc:
        raise FileFormatError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"{path}: malformed clustering: {exc}") from exc
    return c, alpha, stored


def write_solve_report(path, result: SolveResult) -> None:
    doc = {
        "primal": result.primal,
        "dual_bound": None if math.isinf(result.dual_bound) else result.dual_bound,
        "gap": result.gap,
        "nodes": result.nodes,
        "wall_time": result.wall_time,
        "status": result.status,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _refuse_unknown_keys(path, doc: dict, cls, prefix: str = "") -> None:
    """A key that names no field of the dataclass `cls` is a format error."""
    known = [f.name for f in fields(cls)]
    for key in doc:
        if key not in known:
            raise FileFormatError(f"{path}: unknown key {prefix + key!r}; "
                                  f"expected one of {', '.join(known)}")


def read_solver_config(path) -> SolverConfig:
    doc = _read_json_object(path)
    _refuse_unknown_keys(path, doc, SolverConfig)
    heur = doc.pop("heuristics", {})
    if not isinstance(heur, dict):
        raise FileFormatError(f"{path}: heuristics must be a JSON object, got {heur!r}")
    _refuse_unknown_keys(path, heur, HeuristicsConfig, "heuristics.")
    try:
        # the keys absent from the document keep the dataclasses' defaults
        return SolverConfig(**doc, heuristics=HeuristicsConfig(**heur))
    except ValueError as exc:  # a value of the wrong type or out of range
        raise FileFormatError(f"{path}: {exc}") from exc


def read_multiway_cut(path) -> MultiwayCutInstance:
    """Line 1: 'n m'; line 2: m terminal labels; then 'u v weight' lines."""
    lines = [(k + 1, ln) for k, ln in enumerate(Path(path).read_text().splitlines())
             if ln.strip()]
    if len(lines) < 2:
        raise FileFormatError(f"{path}: need header and terminal lines")
    (head_no, head), (term_no, term) = lines[:2]
    head = head.split()
    if len(head) != 2:
        raise FileFormatError(f"{path}: expected 'n m' header")
    n, m = _numbers(head, int, path, head_no)
    terminals = tuple(_numbers(term.split(), int, path, term_no))
    if len(terminals) != m:
        raise FileFormatError(f"{path}: expected {m} terminals")
    edges = []
    for lineno, ln in lines[2:]:
        parts = ln.split()
        if len(parts) != 3:
            raise FileFormatError(f"{path}: bad edge line {ln!r}")
        u, v = _numbers(parts[:2], int, path, lineno)
        edges.append((u, v, *_numbers(parts[2:], float, path, lineno)))
    return MultiwayCutInstance(n, tuple(edges), terminals)


def write_multiway_cut(path, mc: MultiwayCutInstance) -> None:
    lines = [f"{mc.n_vertices} {len(mc.terminals)}",
             " ".join(str(t) for t in mc.terminals)]
    lines += [f"{u} {v} {repr(w)}" for u, v, w in mc.edges]
    Path(path).write_text("\n".join(lines) + "\n")


def write_points_csv(path, points: np.ndarray, labels=None) -> None:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    dim = pts.shape[1]
    if labels is None:
        labels = ("x", "y") if dim == 2 else tuple(f"x{i + 1}" for i in range(dim))
    header = ",".join(("step",) + tuple(labels))
    lines = [header]
    for k, row in enumerate(pts):
        lines.append(",".join([str(k)] + [repr(float(v)) for v in row]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_manifest(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text())
