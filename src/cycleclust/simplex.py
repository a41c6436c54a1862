"""Bounded-variable simplex for the clustering LP relaxations.

One engine runs a primal method from any basis (a composite phase 1 while
basics violate their bounds, then phase 2), started from the slack basis
for cold solves or from an integral clustering's basis as a crash start,
and a dual simplex for re-solves after branching tightens a single bound.
The basis is kept as a sparse LU factorization plus an eta file of the
updates since, refactorized once the file is full and whenever
conditioning degrades. The eta file is applied in block form: a solve
with the LU, one small triangular solve and one dense product, with no
loop over the etas. Pricing and ratio tests look only at the nonbasic
columns that can move and at the rows that block.

A dual-simplex iterate's objective bounds the relaxation from above only
while the iterate is dual feasible, and nothing keeps it so: the reduced
costs `d` are updated step by step and recomputed only at a
refactorization, and the ratio test takes |d_j|, so a reduced cost of the
wrong sign goes unnoticed. Branch and bound still ends a re-solve early at
the incumbent (the `cutoff` exit) and reads time-limited bounds from these
objectives, so both can be too low.

Scaling is internal: callers give bound tightenings and crash points in
original units and read values back in them; only the engine divides by
the power-of-two column factors of `StandardLp`.

Numerical trouble has one recovery path, `SimplexEngine.solve_verified`: a
primal re-solve from the last basis under a fixed iteration cap.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtpsv
from scipy.sparse import csc_matrix, hstack, identity
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.linalg import splu

from .errors import NumericalFailureError, UnboundedError

BASIC, AT_LB, AT_UB, FREE_NB = 0, 1, 2, 3

PIVOT_TOL = 1e-9
DUAL_TOL = 1e-7
FEAS_TOL = 1e-9
INFEAS_TOL = 1e-7  # total bound violation a finished phase 1 may leave
RESIDUAL_TOL = 1e-7
DEGEN_EPS = 1e-12
BLAND_TRIGGER = 1000
COND_LIMIT = 1e12
# a recovery is a clean-up from a nearly optimal basis, not a fresh solve
RECOVERY_ITER_LIMIT = 1000
_ETA_BYTE_BUDGET = 1.2e8
# factorizations of the bases solves last started from, per StandardLp: both
# children of a branch-and-bound node start from their parent's final basis
_STARTING_LUS = 2
# Row means count two unit entries beside the structural ones: the slack and
# the artificial column the layout used to carry. Each adds log2(1) + r - r
# = 0, so keeping the count keeps every scale factor, and every pivot.
_UNIT_ENTRIES_PER_ROW = 2


def _dense_column(a: csc_matrix, j: int) -> np.ndarray:
    out = np.zeros(a.shape[0])
    lo, hi = a.indptr[j], a.indptr[j + 1]
    out[a.indices[lo:hi]] = a.data[lo:hi]
    return out


def _equilibrate(a: csc_matrix, passes: int = 3):
    """Geometric-mean row/column scaling of the structural matrix, snapped
    to exact powers of two.

    Balances the wide coefficient ranges that the flow-defining rows mix
    (unit product coefficients against tiny pair imbalances), which keeps
    basis factorizations well conditioned. Power-of-two factors leave the
    mantissas untouched, so scaling introduces no rounding error.
    """
    nrows, ncols = a.shape
    rows = a.indices
    cols = np.repeat(np.arange(ncols), np.diff(a.indptr))
    logmag = np.log2(np.abs(a.data))
    row_scale = np.zeros(nrows)
    col_scale = np.zeros(ncols)
    row_cnt = np.bincount(rows, minlength=nrows) + _UNIT_ENTRIES_PER_ROW
    col_cnt = np.maximum(np.bincount(cols, minlength=ncols), 1)
    for _ in range(passes):
        cur = logmag + row_scale[rows] + col_scale[cols]
        rmean = np.bincount(rows, weights=cur, minlength=nrows) / row_cnt
        row_scale -= np.round(rmean)
        cur = logmag + row_scale[rows] + col_scale[cols]
        cmean = np.bincount(cols, weights=cur, minlength=ncols) / col_cnt
        col_scale -= np.round(cmean)
    row_scale = np.clip(row_scale, -40, 40)
    col_scale = np.clip(col_scale, -40, 40)
    return 2.0 ** row_scale, 2.0 ** col_scale


@dataclass
class LpResult:
    """Relaxation outcome. `values` holds the structural columns' values in
    column order and original units, and is empty for an infeasible LP. For
    iteration-limit, objective and values are simply the last iterate's and
    carry no bound guarantee."""

    status: str  # optimal | infeasible | iteration-limit
    objective: float
    values: np.ndarray
    iterations: int


class StandardLp:
    """Equality form max c'v, [A | I] v = b, lb <= v <= ub.

    Columns are the structural variables followed by one slack per row: in
    [0, inf) for "L", (-inf, 0] for "G" and fixed at zero for "E" rows. The
    slacks are the starting basis of a cold solve.
    """

    def __init__(self, mip):
        nrows = mip.nrows
        a = mip.matrix.tocsc()
        a.eliminate_zeros()
        self.nstruct = mip.ncols
        self.nrows = nrows
        self.ncols = self.nstruct + nrows
        slack_lb = np.where(mip.senses == "G", -math.inf, 0.0)
        slack_ub = np.where(mip.senses == "L", math.inf, 0.0)
        self.row_scale, struct_scale = _equilibrate(a)
        # a slack undoes its row's factor, so the scaled slack block is I
        self.col_scale = np.concatenate([struct_scale, 1.0 / self.row_scale])
        a.data = a.data * self.row_scale[a.indices]
        a.data *= np.repeat(struct_scale, np.diff(a.indptr))
        self.A = hstack([a, identity(nrows, format="csc")], format="csc")
        self.AT = self.A.T.tocsr()
        self.b = np.asarray(mip.rhs, dtype=float) * self.row_scale
        self.base_lb = np.concatenate([mip.lb, slack_lb]) / self.col_scale
        self.base_ub = np.concatenate([mip.ub, slack_ub]) / self.col_scale
        self.c = np.concatenate([mip.obj, np.zeros(nrows)]) * self.col_scale
        self.default_iter_limit = 200 * (mip.nrows + mip.ncols)
        self.starting_lus: dict = {}  # basis bytes -> SuperLU, oldest first

    def at_times(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """A' v into `out`, a float64 buffer of ncols entries. This is the
        kernel `AT @ v` ends in, so the result is bitwise the same, without
        scipy's operator dispatch (about half the cost of a small product)."""
        out.fill(0.0)
        csr_matvec(self.ncols, self.nrows, self.AT.indptr, self.AT.indices,
                   self.AT.data, v, out)
        return out


class _Factors:
    """B^-1 as a sparse LU of the last refactorized basis B0 plus an eta
    file of the k basis updates since, applied in block form.

    Update j replaces basis position r_j by a column whose ftran is d_j.
    With g_j = d_j - e_{r_j}, the current basis is
    B = B0 (I + g_1 e_{r_1}') ... (I + g_k e_{r_k}'). The g_j are the rows
    of G, and L is the k x k lower-triangular matrix with L[j, i] =
    g_i[r_j] for i < j and L[j, j] = d_j[r_j], the pivot of update j. Then

        ftran: y0 = B0^-1 v,  L t = y0[R],     y = y0 - G' t
        btran: L' s = G v,    w = v - sum_j s_j e_{r_j},  B^-T v = B0^-T w

    which is the sequential product form computed in another order. L is
    stored row by row, packed (L' in BLAS upper packed storage), so an
    update appends to it and the triangular solves need no copy.
    """

    def __init__(self, A: csc_matrix, basis: np.ndarray, known: dict):
        """Factorize `basis`, or take its LU from `known` (basis bytes ->
        SuperLU) and add it there: a basis factorizes the same every time."""
        self.A = A
        self.dim = A.shape[0]
        self.max_etas = max(8, min(100, int(_ETA_BYTE_BUDGET / (8 * max(self.dim, 1)))))
        self.G = None  # allocated at the first update
        key = basis.tobytes()
        if key in known:
            self.lu = known[key]
            self.k = 0
            return
        self.refactor(basis)
        if len(known) >= _STARTING_LUS:
            del known[next(iter(known))]
        known[key] = self.lu

    def refactor(self, basis: np.ndarray):
        B = self.A[:, basis].tocsc()
        try:
            self.lu = splu(B)
        except RuntimeError as exc:
            raise NumericalFailureError(f"singular basis: {exc}") from exc
        diag = np.abs(self.lu.U.diagonal())
        if diag.size:
            dmin = diag.min()
            if dmin <= 0.0 or diag.max() / dmin > COND_LIMIT:
                raise NumericalFailureError(
                    f"basis condition estimate {diag.max() / max(dmin, 1e-300):.3e} too large"
                )
        self.k = 0

    @property
    def needs_refactor(self) -> bool:
        return self.k >= self.max_etas

    def ftran(self, v: np.ndarray) -> np.ndarray:
        y = self.lu.solve(v)
        k = self.k
        if k:
            t = dtpsv(k, self.L, y[self.R[:k]], trans=1, overwrite_x=1)  # L t = y0[R]
            y -= t @ self.G[:k]
        return y

    def btran(self, v: np.ndarray) -> np.ndarray:
        k = self.k
        if k:
            s = dtpsv(k, self.L, self.G[:k] @ v, overwrite_x=1)  # L' s = G v
            v = v.copy()
            # a position pivoted twice gets both terms
            np.subtract.at(v, self.R[:k], s)
        return self.lu.solve(v, trans="T")

    def btran_unit(self, r: int) -> np.ndarray:
        """B^-T e_r, row r of B^-1: btran of the unit vector, reading G e_r
        off as column r of G instead of forming the product."""
        v = np.zeros(self.dim)
        v[r] = 1.0
        k = self.k
        if k:
            s = dtpsv(k, self.L, self.G[:k, r].copy(), overwrite_x=1)
            np.subtract.at(v, self.R[:k], s)
        return self.lu.solve(v, trans="T")

    def update(self, r: int, d: np.ndarray):
        if abs(d[r]) < 1e-12:
            raise NumericalFailureError("vanishing pivot element in basis update")
        if self.G is None:
            self.G = np.empty((self.max_etas, self.dim))
            self.L = np.empty(self.max_etas * (self.max_etas + 1) // 2)
            self.R = np.empty(self.max_etas, dtype=np.int64)
        k = self.k
        row = k * (k + 1) // 2  # where row k of L starts in packed storage
        self.L[row:row + k] = self.G[:k, r]
        self.L[row + k] = d[r]
        self.G[k] = d
        self.G[k, r] -= 1.0
        self.R[k] = r
        self.k = k + 1


class SimplexEngine:
    """State of one LP solve over a StandardLp. `bounds` maps columns to
    (lower, upper) pairs in original units that tighten the standard form's
    bounds; `lb` and `ub` hold the result in scaled units."""

    def __init__(self, std: StandardLp, bounds=None, iter_limit: int | None = None,
                 deadline: float | None = None):
        self.std = std
        self.lb = std.base_lb.copy()
        self.ub = std.base_ub.copy()
        for j, (lo, hi) in (bounds or {}).items():
            self.lb[j] = max(self.lb[j], lo / std.col_scale[j])
            self.ub[j] = min(self.ub[j], hi / std.col_scale[j])
        self.iter_limit = iter_limit if iter_limit is not None else std.default_iter_limit
        self.deadline = deadline
        self.iterations = 0
        self.basis = None
        self.stat = None
        self.vals = None
        self.factor = None
        self._at_v = np.empty(std.ncols)  # at_times buffer

    # -- shared machinery ---------------------------------------------------

    def _out_of_budget(self) -> bool:
        if self.iterations >= self.iter_limit:
            return True
        if self.deadline is not None and self.iterations % 32 == 0:
            return time.monotonic() > self.deadline
        return False

    def _recompute_basics(self):
        tmp = self.vals.copy()
        tmp[self.basis] = 0.0
        self.xb = self.factor.ftran(self.std.b - self.std.A @ tmp)
        self.vals[self.basis] = self.xb

    def _refactor_and_refresh(self):
        self.factor.refactor(self.basis)
        self._recompute_basics()

    def _install_basis(self, basis: np.ndarray, stat: np.ndarray):
        """Set up the loop state both methods keep current as they pivot:
        the basics' values and bounds in basis order (`xb`, `lo_b`, `hi_b`,
        with `vals` holding the same values), and the way each column may
        leave its bound: `direction` is +1 up from the lower bound, -1 down
        from the upper bound, 0 for basics and fixed columns, and `free`
        marks the free nonbasics, which may move either way."""
        self.basis = basis.astype(np.int64).copy()
        self.stat = stat.astype(np.int8).copy()
        self.vals = np.where(self.stat == AT_LB, self.lb,
                             np.where(self.stat == AT_UB, self.ub, 0.0))
        self.vals[self.basis] = 0.0
        self.factor = _Factors(self.std.A, self.basis, self.std.starting_lus)
        self._recompute_basics()
        self.lo_b = self.lb[self.basis]
        self.hi_b = self.ub[self.basis]
        self.movable = (self.ub - self.lb) > 0.0
        self.direction = (self.movable & (self.stat == AT_LB)).astype(float)
        self.direction[self.movable & (self.stat == AT_UB)] = -1.0
        self.free = self.movable & (self.stat == FREE_NB)
        self.has_free = bool(self.free.any())
        self.degen_streak = 0

    def objective(self) -> float:
        """The objective at the current values; -inf with no basis, as after
        a solve that found crossed bounds infeasible."""
        if self.vals is None:
            return -math.inf
        return float(self.std.c @ self.vals)

    def original_values(self) -> np.ndarray:
        """Variable values in original (unscaled) units."""
        return self.vals * self.std.col_scale

    def _reduced_costs(self, costs: np.ndarray) -> np.ndarray:
        y = self.factor.btran(costs[self.basis])
        return costs - self.std.at_times(y, self._at_v)

    def _improving(self, d: np.ndarray, tol: float) -> np.ndarray:
        """Mask of the nonbasics whose `d` exceeds `tol` in a direction they
        may move: one product with `direction` instead of a test per status.
        With reduced costs these are the columns that may enter a primal
        step, or that refute an optimal claim."""
        improving = d * self.direction > tol
        if self.has_free:
            improving |= self.free & (np.abs(d) > tol)
        return improving

    def _step(self, t: float, w: np.ndarray):
        """Move the basics as the entering column, whose ftran is w, moves by t."""
        self.xb -= t * w
        self.vals[self.basis] = self.xb

    def _leave(self, j: int, to_lb: bool):
        """Make column j nonbasic at its lower or upper bound."""
        self.stat[j] = AT_LB if to_lb else AT_UB
        self.vals[j] = self.lb[j] if to_lb else self.ub[j]
        self.direction[j] = (1.0 if to_lb else -1.0) if self.movable[j] else 0.0

    def _pivot(self, r: int, q: int, w: np.ndarray, to_lb: bool) -> int:
        """Swap column q, at its current value, into basis position r; the
        column it replaces leaves at its lower or upper bound and is returned."""
        lv = self.basis[r]
        self._leave(lv, to_lb)
        self.stat[q] = BASIC
        self.direction[q] = 0.0
        self.free[q] = False
        self.basis[r] = q
        self.xb[r], self.lo_b[r], self.hi_b[r] = self.vals[q], self.lb[q], self.ub[q]
        self.factor.update(r, w)
        return lv

    # -- primal simplex -----------------------------------------------------

    def _primal_loop(self, phase1: bool) -> str:
        """Primal iterations of phase 2 (costs `std.c`) or of phase 1, which
        re-reads its costs every iteration: +1 on a basic below its lower
        bound, -1 on one above its upper bound. A violated basic may move
        only up to the bound it violates; once there it keeps its real
        bounds. Phase 1 is "optimal" once the basis is feasible.
        """
        std = self.std
        costs = std.c
        violated = np.zeros(std.nrows, dtype=bool)
        while True:
            if self._out_of_budget():
                return "limit"
            if self.factor.needs_refactor:
                self._refactor_and_refresh()
            xb, lo, hi = self.xb, self.lo_b, self.hi_b
            if phase1:
                below = xb < lo - FEAS_TOL
                above = xb > hi + FEAS_TOL
                violated = below | above
                if not violated.any():
                    return "optimal"
                costs = np.zeros(std.ncols)
                costs[self.basis[below]] = 1.0
                costs[self.basis[above]] = -1.0
                excess = float(np.maximum(lo - xb, xb - hi)[violated].sum())
                lo, hi = (np.where(below, -math.inf, np.where(above, hi, lo)),
                          np.where(above, math.inf, np.where(below, lo, hi)))
            d = self._reduced_costs(costs)
            eligible = self._improving(d, DUAL_TOL).nonzero()[0]
            if not eligible.size:
                return "infeasible" if phase1 and excess > INFEAS_TOL else "optimal"
            if self.degen_streak > BLAND_TRIGGER:
                q = int(eligible[0])
            else:
                q = int(eligible[np.abs(d[eligible]).argmax()])
            sig = 1.0 if d[q] > 0 else -1.0
            w = self.factor.ftran(_dense_column(std.A, q))
            self.iterations += 1
            # blocking rows: a basic moves down (denominator > 0) to lo or up
            # to hi
            blk = (np.abs(w) > PIVOT_TOL).nonzero()[0]
            denom = sig * w[blk]
            aden = np.abs(denom)
            down = denom > 0.0
            slack = np.maximum(np.where(down, xb[blk] - lo[blk], hi[blk] - xb[blk]), 0.0)
            with np.errstate(invalid="ignore"):
                ratios = slack / aden
                relaxed = (slack + FEAS_TOL) / aden
            theta = relaxed.min() if blk.size else math.inf
            t_flip = self.ub[q] - self.lb[q]
            if math.isinf(theta) and math.isinf(t_flip):
                if phase1:  # the total violation is bounded below by zero
                    raise NumericalFailureError("unbounded ray in phase 1")
                raise UnboundedError("relaxation is unbounded")
            if t_flip <= theta:
                delta = t_flip
                self.degen_streak = self.degen_streak + 1 if delta <= DEGEN_EPS else 0
                self._step(sig * delta, w)
                self._leave(q, sig < 0)
                continue
            # Harris pass 2: among blockers within the relaxed step, take the
            # largest pivot element for numerical safety
            cand = ratios <= theta
            if self.degen_streak > BLAND_TRIGGER:
                k = int(np.argmax(cand))
            else:
                k = int(np.where(cand, aden, -1.0).argmax())
            r = int(blk[k])
            delta = min(max(ratios[k], 0.0), t_flip)
            self.degen_streak = self.degen_streak + 1 if delta <= DEGEN_EPS else 0
            if delta > 0.0:
                self._step(sig * delta, w)
                self.vals[q] += sig * delta
            # the leaving basic stops at the bound it reached: a violated
            # one at the bound it violated
            self._pivot(r, q, w, bool(down[k]) != violated[r])

    def _solve_primal(self, basis: np.ndarray, stat: np.ndarray) -> str:
        if np.any(self.lb > self.ub):
            return "infeasible"
        self._install_basis(basis, stat)
        state = self._primal_loop(phase1=True)
        if state == "optimal":
            self.degen_streak = 0
            state = self._primal_loop(phase1=False)
        return state

    def solve_cold(self) -> str:
        """Primal simplex from the slack basis, with every structural
        nonbasic at a finite bound (a free one at zero)."""
        slacks = self.std.nstruct + np.arange(self.std.nrows)
        stat = np.where(np.isfinite(self.lb), AT_LB,
                        np.where(np.isfinite(self.ub), AT_UB, FREE_NB))
        stat[slacks] = BASIC
        return self._solve_primal(slacks, stat)

    def solve_from_basis(self, basis: np.ndarray, stat: np.ndarray) -> str:
        """Primal simplex from a given basis, feasible or not."""
        return self._solve_primal(basis, stat)

    def solve_crash(self, values: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> str:
        """Primal simplex from the basis of an integral point (a crash
        start). `values` are the point's structural column values in
        original units; column cols[i] is basic in row rows[i], the slack
        everywhere else, and a nonbasic sits at its upper bound when its
        value reaches it, else at its lower bound."""
        std = self.std
        basis = std.nstruct + np.arange(std.nrows, dtype=np.int64)
        basis[rows] = cols
        stat = np.full(std.ncols, AT_LB, dtype=np.int8)
        scaled = values / std.col_scale[: std.nstruct]
        stat[: std.nstruct][scaled >= self.ub[: std.nstruct] - 1e-12] = AT_UB
        stat[basis] = BASIC
        return self.solve_from_basis(basis, stat)

    # -- dual simplex ---------------------------------------------------------

    def solve_dual(self, basis: np.ndarray, stat: np.ndarray,
                   cutoff: float | None = None) -> str:
        """Dual simplex from a dual-feasible basis after bound changes.

        Returns "cutoff" as soon as the iterate's objective drops to
        `cutoff`, without checking that the iterate is still dual feasible
        (see the module docstring): the objective is then an upper bound on
        the relaxation only if no reduced cost has drifted to the wrong sign.
        """
        std = self.std
        self._install_basis(basis, stat)
        d = self._reduced_costs(std.c)
        while True:
            if self._out_of_budget():
                return "limit"
            if self.factor.needs_refactor:
                self._refactor_and_refresh()
                d = self._reduced_costs(std.c)
            xb = self.xb
            viol_lo = self.lo_b - xb
            viol_hi = xb - self.hi_b
            viol = np.maximum(viol_lo, viol_hi)
            if self.degen_streak > BLAND_TRIGGER:
                cand = np.nonzero(viol > FEAS_TOL)[0]
                r = int(cand[0]) if cand.size else int(np.argmax(viol))
            else:
                r = int(viol.argmax())
            if viol[r] <= FEAS_TOL:
                return "optimal"
            if cutoff is not None and self.objective() <= cutoff:
                return "cutoff"
            low_side = viol_lo[r] > viol_hi[r]
            rho = self.factor.btran_unit(r)
            alpha = self.std.at_times(rho, self._at_v)
            self.iterations += 1
            # entering candidates: nonbasics whose move lets the leaving
            # basic reach the bound it violates, which is the improving
            # test on the row's entries with the sign of that move
            cands = self._improving(-alpha if low_side else alpha, PIVOT_TOL).nonzero()[0]
            if not cands.size:
                return "infeasible"
            aabs = np.abs(alpha[cands])
            dmag = np.abs(d[cands])
            ratios = dmag / aabs
            theta = ((dmag + DUAL_TOL) / aabs).min()
            q = int(cands[np.where(ratios <= theta, aabs, -1.0).argmax()])
            w = self.factor.ftran(_dense_column(std.A, q))
            if abs(w[r]) < PIVOT_TOL:
                # the column disagrees with the row that priced it in;
                # solve_verified recovers from the last basis
                raise NumericalFailureError("price disagreement in dual ratio test")
            target = self.lo_b[r] if low_side else self.hi_b[r]
            delta_q = (xb[r] - target) / w[r]
            self._step(delta_q, w)
            self.vals[q] = self.vals[q] + delta_q
            lv = self._pivot(r, q, w, low_side)
            tt = d[q] / alpha[q]
            d -= tt * alpha
            d[q] = 0.0
            d[lv] = -tt
            self.degen_streak = self.degen_streak + 1 if abs(tt) <= DEGEN_EPS else 0

    # -- verification ---------------------------------------------------------

    def verify_optimal(self):
        std = self.std
        resid_rows = (std.A @ self.vals - std.b) / std.row_scale
        resid = float(np.max(np.abs(resid_rows))) if std.nrows else 0.0
        scale = 1.0 + float(np.max(np.abs(std.b / std.row_scale))) if std.nrows else 1.0
        if resid > RESIDUAL_TOL * scale:
            raise NumericalFailureError(f"primal residual {resid:.3e}")
        if np.any(self.vals < self.lb - 1e-6) or np.any(self.vals > self.ub + 1e-6):
            raise NumericalFailureError("bound violation at claimed optimum")
        d = self._reduced_costs(std.c)
        cscale = 1.0 + float(np.max(np.abs(std.c)))
        if self._improving(d, DUAL_TOL * cscale).any():
            raise NumericalFailureError("reduced-cost sign violation at claimed optimum")

    def solve_verified(self, solve) -> str:
        """Run `solve()`, a solve of this engine, and verify an optimal claim.

        On a NumericalFailureError from the solve or the check, re-solve once
        by the primal method from the last basis, feasible or not
        (`solve_from_basis` factors it afresh), under RECOVERY_ITER_LIMIT
        more iterations and verify again. Any outcome but a verified optimum
        then raises NumericalFailureError.
        """
        try:
            state = solve()
            if state == "optimal":
                self.verify_optimal()
            return state
        except NumericalFailureError as exc:
            if self.basis is None:
                raise
            self.iter_limit = min(self.iter_limit, self.iterations + RECOVERY_ITER_LIMIT)
            state = self.solve_from_basis(self.basis, self.stat)
            if state != "optimal":
                raise NumericalFailureError(
                    f"recovery from the last basis ended {state}") from exc
            self.verify_optimal()
            return state


def solve_lp(mip, bounds=None, iter_limit: int | None = None,
             time_limit_s: float | None = None) -> LpResult:
    """Solve the continuous relaxation of `mip` with optional bound overrides.

    `bounds` maps column indices to (lower, upper) pairs that tighten the
    root bounds. A numerical failure gets the
    one recovery of `SimplexEngine.solve_verified`; if that fails too, the
    NumericalFailureError surfaces.
    """
    deadline = time.monotonic() + time_limit_s if time_limit_s is not None else None
    engine = SimplexEngine(StandardLp(mip), bounds, iter_limit=iter_limit, deadline=deadline)
    status = engine.solve_verified(engine.solve_cold)
    if status == "infeasible":
        return LpResult("infeasible", -math.inf, np.empty(0), engine.iterations)
    return LpResult("iteration-limit" if status == "limit" else "optimal",
                    engine.objective(), engine.original_values()[: mip.ncols],
                    engine.iterations)
