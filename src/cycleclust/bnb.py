"""LP-based branch and bound over the linearized clustering model.

Best-bound node selection (depth-first behind a config flag), branching on
the most fractional assignment binary, and three primal heuristics on a
fixed schedule: greedy construction once at the root, LP rounding at every
node whose depth is a multiple of five, and single-bin exchange improvement
after every new incumbent. Node re-solves warm-start a dual simplex from
the parent basis, which yields valid bounds even when interrupted.
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


def _fg_basis(mip: MipInstance, std: StandardLp):
    """Row-aligned basis with f_k/g_k basic in their defining rows and
    slacks everywhere else."""
    n, m = mip.n, mip.m
    basis = std.nstruct + np.arange(std.nrows, dtype=np.int64)
    basis[n + m:n + 2 * m] = mip.blocks["f"].offset + np.arange(m)
    basis[n + 2 * m:n + 3 * m] = mip.blocks["g"].offset + np.arange(m)
    return basis


def _crash_state(mip: MipInstance, std: StandardLp, values: np.ndarray):
    """Basis and statuses for an integral solution (a crash start)."""
    stat = np.full(std.ncols, AT_LB, dtype=np.int8)
    ub_hit = np.zeros(std.ncols, dtype=bool)
    ub_hit[: std.nstruct] = values >= std.base_ub[: std.nstruct] - 1e-12
    stat[np.nonzero(ub_hit)[0]] = AT_UB
    basis = _fg_basis(mip, std)
    stat[basis] = BASIC
    return basis, stat


class _NodePool:
    def __init__(self, mode: str):
        self.mode = mode
        self.heap = []
        self.stack = []

    def push(self, node: BnbNode):
        if self.mode == "dfs":
            self.stack.append(node)
        else:
            heapq.heappush(self.heap, (-node.parent_bound, node.node_id, node))

    def pop(self) -> BnbNode:
        if self.mode == "dfs":
            return self.stack.pop()
        return heapq.heappop(self.heap)[2]

    def __len__(self):
        return len(self.stack) if self.mode == "dfs" else len(self.heap)

    def best_bound(self) -> float:
        if self.mode == "dfs":
            return max(n.parent_bound for n in self.stack) if self.stack else -math.inf
        return -self.heap[0][0] if self.heap else -math.inf


def branch_and_bound(mip: MipInstance, W: FlowMatrix,
                     config: SolverConfig | None = None) -> SolveResult:
    cfg = config or SolverConfig()
    start = time.monotonic()
    deadline = start + cfg.time_limit_s if cfg.time_limit_s is not None else None
    std = None  # the standard form is built by the first node LP
    alpha = mip.alpha
    m = mip.m

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

    root_bound = trivial_upper_bound(W, alpha)
    pool = _NodePool(cfg.node_selection)
    pool.push(BnbNode(depth=0, bounds={}, parent_bound=root_bound, node_id=0))
    next_id = 1
    status = None
    x_cols = np.arange(mip.n * m, dtype=np.int64)  # x_column(i, k), bin-major

    def node_lp(node: BnbNode):
        nonlocal std
        if std is None:
            std = StandardLp(mip)
        lb, ub = _apply_overrides(std, node.bounds, mip)
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

    def effective_bounds(node: BnbNode, col: int):
        """Original-units bounds of a column under the node's overrides."""
        var_lb, var_ub = float(mip.lb[col]), float(mip.ub[col])
        lo, hi = node.bounds.get(col, (var_lb, var_ub))
        return max(lo, var_lb), min(hi, var_ub)

    def forced_assignment(node: BnbNode):
        """Clustering implied by a node whose binaries are all fixed, or
        None when the fixings violate assignment/covering feasibility."""
        labels = np.zeros(mip.n, dtype=int)
        for i in range(1, mip.n + 1):
            ones = []
            for k in range(1, m + 1):
                lo, hi = effective_bounds(node, mip.x_column(i, k))
                if lo != hi:
                    return None
                if lo >= 1.0:
                    ones.append(k)
            if len(ones) != 1:
                return None
            labels[i - 1] = ones[0]
        if len(set(labels.tolist())) < m:
            return None
        return CycleClustering(n=mip.n, m=m, assignment=labels)

    while len(pool):
        now = time.monotonic()
        open_bound = pool.best_bound()
        dual_now = max(primal, open_bound)
        if deadline is not None and now > deadline:
            status = "time-limit"
            break
        if cfg.node_limit is not None and nodes_processed >= cfg.node_limit:
            status = "node-limit"
            break
        if incumbent is not None and open_bound <= primal + PRUNE_TOL:
            pool = _NodePool(cfg.node_selection)
            break
        if incumbent is not None:
            gap_now = (dual_now - primal) / max(abs(primal), 1e-9)
            if gap_now <= cfg.gap_tol:
                status = "gap-limit"
                break
        node = pool.pop()
        if incumbent is not None and node.parent_bound <= primal + PRUNE_TOL:
            continue
        state, bound, engine = node_lp(node)
        nodes_processed += 1
        trace.append((nodes_processed, primal if incumbent else None,
                      max(dual_now, primal)))
        if state == "stuck":
            # the LP and its recovery failed numerically; split blindly on
            # the first unfixed binary (keeps the tree exact) or, with all
            # binaries fixed, evaluate the implied clustering directly
            unfixed = [int(c) for c in x_cols
                       if effective_bounds(node, int(c))[0]
                       < effective_bounds(node, int(c))[1]]
            if unfixed:
                for lo, hi in ((0.0, 0.0), (1.0, 1.0)):
                    child_bounds = dict(node.bounds)
                    child_bounds[unfixed[0]] = (lo, hi)
                    pool.push(BnbNode(depth=node.depth + 1, bounds=child_bounds,
                                      parent_bound=node.parent_bound,
                                      node_id=next_id))
                    next_id += 1
            else:
                offer(forced_assignment(node))
            continue
        if state == "limit":
            if deadline is None:
                raise NumericalFailureError(
                    f"node {node.node_id}: iteration limit without a time limit"
                )
            # deadline hit mid-solve; dual iterates still bound the node
            if node.basis is not None:
                node = replace(node, parent_bound=min(node.parent_bound, bound))
            pool.push(node)
            continue
        if state in ("infeasible", "cutoff"):
            continue
        if incumbent is not None and bound <= primal + PRUNE_TOL:
            continue
        original = engine.original_values()
        xvals = original[x_cols]
        frac = np.abs(xvals - np.round(xvals))
        worst = int(np.argmax(frac))
        if frac[worst] <= INTEGRALITY_TOL:
            offer(clustering_from_solution(mip, original[: mip.ncols]))
            continue
        if cfg.heuristics.rounding and node.depth % 5 == 0:
            offer(rounding_heuristic(mip, original[: mip.ncols], W))
            if incumbent is not None and bound <= primal + PRUNE_TOL:
                continue
        col = int(x_cols[worst])
        basis_snapshot = engine.basis.copy()
        stat_snapshot = engine.stat.copy()
        for lo, hi in ((0.0, 0.0), (1.0, 1.0)):
            child_bounds = dict(node.bounds)
            child_bounds[col] = (lo, hi)
            pool.push(BnbNode(depth=node.depth + 1, bounds=child_bounds,
                              parent_bound=bound, basis=basis_snapshot,
                              stat=stat_snapshot, node_id=next_id))
            next_id += 1

    wall = time.monotonic() - start
    if status is None:
        if incumbent is None:
            return SolveResult(None, None, -math.inf, None, nodes_processed,
                               "infeasible", wall, trace)
        dual = primal
        status = "optimal"
    else:
        dual = max(primal, pool.best_bound()) if len(pool) else max(primal, -math.inf)
        if incumbent is None and status in ("time-limit", "node-limit"):
            dual = max(dual, trivial_upper_bound(W, alpha))
    if incumbent is None:
        return SolveResult(None, None, dual, None, nodes_processed, status,
                           wall, trace)
    gap = (dual - primal) / max(abs(primal), 1e-9)
    if status == "gap-limit" and gap <= 0:
        status = "optimal"
    result = SolveResult(incumbent, primal, dual, gap, nodes_processed,
                         status, wall, trace)
    if status == "optimal" and objective(W, incumbent, alpha).flow_part < -1e-12:
        raise NumericalFailureError("optimal incumbent has negative flow part")
    return result
