"""LP-based branch and bound over the linearized clustering model.

Best-bound node selection (depth-first behind a config flag), branching on
the most fractional assignment binary, and three primal heuristics on a
fixed schedule: greedy construction once at the root, LP rounding at every
node whose depth is a multiple of five, and single-bin exchange improvement
after every new incumbent. Node re-solves warm-start a dual simplex from
the parent basis, which yields valid bounds even when interrupted.

The open nodes live in one heap for both orders: keyed by parent bound
under best-bound, by newest node id under depth-first. A node whose LP
fails numerically is split blindly on the first binary its bound arrays
leave unfixed; with every binary fixed, those arrays give its clustering.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .clustering import CycleClustering, canonicalize, objective, reflect
from .errors import NumericalFailureError
from .heuristics import exchange_improvement, greedy_heuristic, rounding_heuristic
from .markov import FlowMatrix, project
from .mip import MipInstance, clustering_from_solution, solution_values
from .simplex import AT_LB, AT_UB, BASIC, SimplexEngine, StandardLp, _apply_overrides

PRUNE_TOL = 1e-9
INTEGRALITY_TOL = 1e-6
NODE_SELECTIONS = ("best_bound", "dfs")


@dataclass(frozen=True)
class HeuristicsConfig:
    greedy: bool = True
    rounding: bool = True
    exchange: bool = True


@dataclass(frozen=True)
class SolverConfig:
    gap_tol: float = 1e-6
    time_limit_s: float | None = None
    node_limit: int | None = None
    node_selection: str = "best_bound"  # one of NODE_SELECTIONS
    heuristics: HeuristicsConfig = field(default_factory=HeuristicsConfig)


@dataclass
class BnbNode:
    depth: int
    bounds: dict  # column -> (lb, ub), tightenings only
    parent_bound: float
    basis: np.ndarray | None = None
    stat: np.ndarray | None = None
    node_id: int = 0


@dataclass
class SolveResult:
    incumbent: CycleClustering | None
    primal: float | None
    dual_bound: float
    gap: float | None
    nodes: int
    status: str  # optimal | infeasible | time-limit | node-limit | gap-limit
    wall_time: float
    trace: list = field(default_factory=list)


def trivial_upper_bound(W: FlowMatrix, alpha: float) -> float:
    """Every pair contributes its imbalance to at most one cycle edge, and
    coherence is at most the total mass."""
    q = W.entries
    imbalance = np.abs(q - q.T)[np.triu_indices(W.n, k=1)].sum()
    return float(imbalance + alpha * q.sum())


def _crash_state(mip: MipInstance, std: StandardLp, values: np.ndarray):
    """Basis and statuses for an integral solution (a crash start): f_k and
    g_k basic in their defining rows, slacks basic everywhere else."""
    n, m = mip.n, mip.m
    basis = std.nstruct + np.arange(std.nrows, dtype=np.int64)
    basis[n + m:n + 2 * m] = mip.blocks["f"].offset + np.arange(m)
    basis[n + 2 * m:n + 3 * m] = mip.blocks["g"].offset + np.arange(m)
    stat = np.full(std.ncols, AT_LB, dtype=np.int8)
    stat[: std.nstruct][values >= std.base_ub[: std.nstruct] - 1e-12] = AT_UB
    stat[basis] = BASIC
    return basis, stat


def branch_and_bound(mip: MipInstance, W: FlowMatrix,
                     config: SolverConfig | None = None) -> SolveResult:
    cfg = config or SolverConfig()
    start = time.monotonic()
    deadline = start + cfg.time_limit_s if cfg.time_limit_s is not None else None
    std = None  # the standard form is built by the first node LP
    alpha = mip.alpha
    n, m = mip.n, mip.m
    nx = n * m  # the assignment binaries are the first columns, bin-major

    incumbent: CycleClustering | None = None
    primal = -math.inf
    trace: list = []
    nodes_processed = 0

    def admissible(c: CycleClustering) -> bool:
        """The model keeps every consecutive net flow nonnegative; only
        clusterings satisfying that may prune the tree. For m = 3 one of a
        clustering and its reflection always qualifies."""
        d = project(W, c).delta()
        idx = np.arange(m)
        return bool(np.all(d[idx, (idx + 1) % m] >= -1e-12))

    def better(c: CycleClustering) -> None:
        nonlocal incumbent, primal
        for cand in (c, reflect(c)):
            if not admissible(cand):
                continue
            val = objective(W, cand, alpha).total
            if val > primal + 1e-15:
                incumbent = canonicalize(cand)
                primal = val

    def offer(c: CycleClustering | None) -> None:
        """Offer a clustering (None offers nothing); if it improved the
        incumbent, offer the incumbent's exchange improvement too."""
        if c is None:
            return
        before = primal
        better(c)
        if cfg.heuristics.exchange and primal > before:
            better(exchange_improvement(W, incumbent, alpha))

    if cfg.heuristics.greedy:
        offer(greedy_heuristic(W, m, alpha))

    # open nodes: one heap of (key..., node), newest first under dfs (node
    # ids grow with every push), largest parent bound first otherwise
    dfs = cfg.node_selection == "dfs"
    pool: list = []
    next_id = 1  # the root is node 0
    status = None

    def push(node: BnbNode) -> None:
        key = (-node.node_id,) if dfs else (-node.parent_bound, node.node_id)
        heapq.heappush(pool, (*key, node))

    def open_bound() -> float:
        """The largest parent bound of an open node, -inf with none open."""
        if dfs:
            return max((entry[-1].parent_bound for entry in pool), default=-math.inf)
        return -pool[0][0] if pool else -math.inf

    def node_lp(node: BnbNode):
        nonlocal std
        if std is None:
            std = StandardLp(mip)
        lb, ub = _apply_overrides(std, node.bounds)
        engine = SimplexEngine(std, lb, ub, deadline=deadline)
        if np.any(lb > ub):
            return "infeasible", -math.inf, engine
        cutoff = primal + PRUNE_TOL if incumbent is not None else None

        def solve() -> str:
            if node.basis is not None:
                return engine.solve_dual(node.basis, node.stat, cutoff=cutoff)
            if incumbent is not None and not node.bounds:
                vals = solution_values(mip, incumbent) / std.col_scale[: std.nstruct]
                return engine.solve_from_basis(*_crash_state(mip, std, vals))
            return engine.solve_cold()

        try:
            state = engine.solve_verified(solve)
        except NumericalFailureError:
            # the solve and its recovery failed: the node keeps its parent's
            # bound and gets a blind split
            return "stuck", node.parent_bound, engine
        return state, engine.objective(), engine

    def branch(node: BnbNode, col: int, bound: float,
               basis: np.ndarray | None = None, stat: np.ndarray | None = None):
        """Push the children of `node` that fix column `col` to 0 and to 1,
        bounded by `bound` and warm-started from `basis` when one is given."""
        nonlocal next_id
        for value in (0.0, 1.0):
            push(BnbNode(depth=node.depth + 1, bounds={**node.bounds, col: (value, value)},
                         parent_bound=bound, basis=basis, stat=stat, node_id=next_id))
            next_id += 1

    push(BnbNode(depth=0, bounds={}, parent_bound=trivial_upper_bound(W, alpha), node_id=0))
    while pool:
        now = time.monotonic()
        dual_now = max(primal, open_bound())
        if deadline is not None and now > deadline:
            status = "time-limit"
            break
        if cfg.node_limit is not None and nodes_processed >= cfg.node_limit:
            status = "node-limit"
            break
        if incumbent is not None and dual_now <= primal + PRUNE_TOL:
            pool.clear()  # every open node is pruned
            break
        if incumbent is not None:
            gap_now = (dual_now - primal) / max(abs(primal), 1e-9)
            if gap_now <= cfg.gap_tol:
                status = "gap-limit"
                break
        node = heapq.heappop(pool)[-1]
        if incumbent is not None and node.parent_bound <= primal + PRUNE_TOL:
            continue
        state, bound, engine = node_lp(node)
        nodes_processed += 1
        trace.append((nodes_processed, primal if incumbent else None, dual_now))
        if state == "stuck":
            # the LP and its recovery failed numerically; split blindly on
            # the first binary the node leaves unfixed (keeps the tree exact)
            # or, with all of them fixed, evaluate the implied clustering
            unfixed = np.flatnonzero(engine.lb[:nx] < engine.ub[:nx])
            if unfixed.size:
                branch(node, int(unfixed[0]), node.parent_bound)
                continue
            # the scale factors are powers of two, so the unscaling is exact
            x = (engine.lb[:nx] * std.col_scale[:nx]).reshape(n, m)
            if np.all(x.sum(axis=1) == 1.0) and np.all(x.any(axis=0)):
                offer(CycleClustering(n=n, m=m, assignment=np.argmax(x, axis=1) + 1))
            continue
        if state == "limit":
            if deadline is None:
                raise NumericalFailureError(
                    f"node {node.node_id}: iteration limit without a time limit"
                )
            # deadline hit mid-solve; dual iterates still bound the node
            if node.basis is not None:
                node = replace(node, parent_bound=min(node.parent_bound, bound))
            push(node)
            continue
        if state in ("infeasible", "cutoff"):
            continue
        if incumbent is not None and bound <= primal + PRUNE_TOL:
            continue
        original = engine.original_values()
        xvals = original[:nx]
        frac = np.abs(xvals - np.round(xvals))
        worst = int(np.argmax(frac))
        if frac[worst] <= INTEGRALITY_TOL:
            offer(clustering_from_solution(mip, original[: mip.ncols]))
            continue
        if cfg.heuristics.rounding and node.depth % 5 == 0:
            offer(rounding_heuristic(mip, original[: mip.ncols], W))
            if incumbent is not None and bound <= primal + PRUNE_TOL:
                continue
        branch(node, worst, bound, engine.basis.copy(), engine.stat.copy())

    wall = time.monotonic() - start
    if status is None:
        status = "optimal" if incumbent is not None else "infeasible"
        dual = primal
    else:
        dual = max(primal, open_bound())
        if incumbent is None:  # a time or node limit before any incumbent
            dual = max(dual, trivial_upper_bound(W, alpha))
    if incumbent is None:
        return SolveResult(None, None, dual, None, nodes_processed, status, wall, trace)
    gap = (dual - primal) / max(abs(primal), 1e-9)
    if status == "gap-limit" and gap <= 0:
        status = "optimal"
    if status == "optimal" and objective(W, incumbent, alpha).flow_part < -1e-12:
        raise NumericalFailureError("optimal incumbent has negative flow part")
    return SolveResult(incumbent, primal, dual, gap, nodes_processed, status, wall, trace)
