"""Bounded-variable simplex for the clustering LP relaxations.

One engine runs a primal method from any basis (a composite phase 1 while
basics violate their bounds, then phase 2), started from the slack basis
for cold solves or from an integral clustering's basis as a crash start,
and a dual simplex for re-solves after branching tightens a single bound.
The basis is kept as a sparse LU factorization plus product-form eta
updates, refactorized on a schedule and whenever conditioning degrades.

Dual-simplex iterates stay dual feasible, so their objective value is a
valid upper bound on the relaxation at every step; branch-and-bound uses
this both for early cutoff and for sound bounds under time limits.

Numerical trouble has one recovery path, `SimplexEngine.solve_verified`: a
primal re-solve from the last basis under a fixed iteration cap.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix, hstack, identity
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
    """Relaxation outcome; for iteration-limit the objective is simply the
    last iterate's value and carries no bound guarantee."""

    status: str  # optimal | infeasible | iteration-limit
    objective: float
    values: dict
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

    def scale_bound(self, col: int, value: float) -> float:
        """Express an original-units bound in the scaled column units."""
        return value / self.col_scale[col]


class _Factors:
    """B^-1 as sparse LU plus product-form eta updates."""

    def __init__(self, A: csc_matrix, basis: np.ndarray):
        self.A = A
        self.dim = A.shape[0]
        self.max_etas = max(8, min(100, int(_ETA_BYTE_BUDGET / (8 * max(self.dim, 1)))))
        self.refactor(basis)

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
        self.etas = []

    @property
    def needs_refactor(self) -> bool:
        return len(self.etas) >= self.max_etas

    def ftran(self, v: np.ndarray) -> np.ndarray:
        y = self.lu.solve(v)
        for r, d, dr in self.etas:
            t = y[r] / dr
            if t != 0.0:
                y -= t * d
            y[r] = t
        return y

    def btran(self, v: np.ndarray) -> np.ndarray:
        w = v.copy()
        for r, d, dr in reversed(self.etas):
            w[r] -= (d @ w - w[r]) / dr
        return self.lu.solve(w, trans="T")

    def update(self, r: int, d: np.ndarray):
        if abs(d[r]) < 1e-12:
            raise NumericalFailureError("vanishing pivot element in basis update")
        self.etas.append((r, d.copy(), d[r]))


class SimplexEngine:
    """State of one LP solve over a StandardLp with current bound arrays."""

    def __init__(self, std: StandardLp, lb: np.ndarray, ub: np.ndarray,
                 iter_limit: int | None = None, deadline: float | None = None):
        self.std = std
        self.lb = lb
        self.ub = ub
        self.iter_limit = iter_limit if iter_limit is not None else std.default_iter_limit
        self.deadline = deadline
        self.iterations = 0
        self.degen_streak = 0
        self.basis = None
        self.stat = None
        self.vals = None
        self.factor = None

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
        rhs_eff = self.std.b - self.std.A @ tmp
        self.vals[self.basis] = self.factor.ftran(rhs_eff)

    def _refactor_and_refresh(self):
        self.factor.refactor(self.basis)
        self._recompute_basics()

    def _install_basis(self, basis: np.ndarray, stat: np.ndarray):
        self.basis = basis.astype(np.int64).copy()
        self.stat = stat.astype(np.int8).copy()
        self.vals = np.where(self.stat == AT_LB, self.lb,
                             np.where(self.stat == AT_UB, self.ub, 0.0))
        self.vals[self.basis] = 0.0
        self.factor = _Factors(self.std.A, self.basis)
        self._recompute_basics()

    def objective(self) -> float:
        return float(self.std.c @ self.vals)

    def original_values(self) -> np.ndarray:
        """Variable values in original (unscaled) units."""
        return self.vals * self.std.col_scale

    def _reduced_costs(self, costs: np.ndarray) -> np.ndarray:
        y = self.factor.btran(costs[self.basis])
        return costs - self.std.AT @ y

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
            xb = self.vals[self.basis]
            lo = self.lb[self.basis]
            hi = self.ub[self.basis]
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
            movable = (self.ub - self.lb) > 0.0
            elig_lb = (self.stat == AT_LB) & movable & (d > DUAL_TOL)
            elig_ub = (self.stat == AT_UB) & movable & (d < -DUAL_TOL)
            elig_fr = (self.stat == FREE_NB) & (np.abs(d) > DUAL_TOL)
            eligible = elig_lb | elig_ub | elig_fr
            if not eligible.any():
                return "infeasible" if phase1 and excess > INFEAS_TOL else "optimal"
            if self.degen_streak > BLAND_TRIGGER:
                q = int(np.argmax(eligible))
            else:
                score = np.where(eligible, np.abs(d), -1.0)
                q = int(np.argmax(score))
            sig = 1.0 if (elig_lb[q] or (elig_fr[q] and d[q] > 0)) else -1.0
            w = self.factor.ftran(_dense_column(std.A, q))
            self.iterations += 1
            denom = sig * w
            aden = np.abs(denom)
            dn = denom > PIVOT_TOL
            up = denom < -PIVOT_TOL
            blocking = dn | up
            slack = np.where(dn, xb - lo, np.where(up, hi - xb, math.inf))
            slack = np.maximum(slack, 0.0)
            ratios = np.full(std.nrows, math.inf)
            relaxed = np.full(std.nrows, math.inf)
            with np.errstate(invalid="ignore"):
                ratios[blocking] = slack[blocking] / aden[blocking]
                relaxed[blocking] = (slack[blocking] + FEAS_TOL) / aden[blocking]
            theta = relaxed.min() if std.nrows else math.inf
            t_flip = self.ub[q] - self.lb[q]
            if math.isinf(theta) and math.isinf(t_flip):
                if phase1:  # the total violation is bounded below by zero
                    raise NumericalFailureError("unbounded ray in phase 1")
                raise UnboundedError("relaxation is unbounded")
            if t_flip <= theta:
                delta = t_flip
                self.degen_streak = self.degen_streak + 1 if delta <= DEGEN_EPS else 0
                self.vals[self.basis] = xb - sig * delta * w
                self.stat[q] = AT_UB if sig > 0 else AT_LB
                self.vals[q] = self.ub[q] if sig > 0 else self.lb[q]
                continue
            # Harris pass 2: among blockers within the relaxed step, take the
            # largest pivot element for numerical safety
            cand = blocking & (ratios <= theta)
            if self.degen_streak > BLAND_TRIGGER:
                r = int(np.argmax(cand))
            else:
                score = np.where(cand, aden, -1.0)
                r = int(np.argmax(score))
            delta = min(max(ratios[r], 0.0), t_flip)
            self.degen_streak = self.degen_streak + 1 if delta <= DEGEN_EPS else 0
            if delta > 0.0:
                self.vals[self.basis] = xb - sig * delta * w
                self.vals[q] += sig * delta
            # the leaving basic stops at the bound it reached: a violated
            # one at the bound it violated
            lv = self.basis[r]
            to_lb = (denom[r] > 0) != violated[r]
            self.stat[lv] = AT_LB if to_lb else AT_UB
            self.vals[lv] = self.lb[lv] if to_lb else self.ub[lv]
            self.stat[q] = BASIC
            self.basis[r] = q
            self.factor.update(r, w)

    def _solve_primal(self, basis: np.ndarray, stat: np.ndarray) -> str:
        if np.any(self.lb > self.ub):
            return "infeasible"
        self._install_basis(basis, stat)
        self.degen_streak = 0
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

    # -- dual simplex ---------------------------------------------------------

    def solve_dual(self, basis: np.ndarray, stat: np.ndarray,
                   cutoff: float | None = None) -> str:
        """Dual simplex from a dual-feasible basis after bound changes.

        Every iterate's objective is a valid upper bound; returns "cutoff"
        as soon as that bound drops to the incumbent.
        """
        std = self.std
        self._install_basis(basis, stat)
        d = self._reduced_costs(std.c)
        self.degen_streak = 0
        stale_prices = 0
        while True:
            if self._out_of_budget():
                return "limit"
            if self.factor.needs_refactor:
                self._refactor_and_refresh()
                d = self._reduced_costs(std.c)
            xb = self.vals[self.basis]
            viol_lo = self.lb[self.basis] - xb
            viol_hi = xb - self.ub[self.basis]
            viol = np.maximum(viol_lo, viol_hi)
            if self.degen_streak > BLAND_TRIGGER:
                cand = np.nonzero(viol > FEAS_TOL)[0]
                r = int(cand[0]) if cand.size else int(np.argmax(viol))
            else:
                r = int(np.argmax(viol))
            if viol[r] <= FEAS_TOL:
                return "optimal"
            if cutoff is not None and self.objective() <= cutoff:
                return "cutoff"
            low_side = viol_lo[r] > viol_hi[r]
            e_r = np.zeros(std.nrows)
            e_r[r] = 1.0
            rho = self.factor.btran(e_r)
            alpha = self.std.AT @ rho
            self.iterations += 1
            movable = ((self.ub - self.lb) > 0.0) & (self.stat != BASIC)
            at_lb = (self.stat == AT_LB) & movable
            at_ub = (self.stat == AT_UB) & movable
            free = (self.stat == FREE_NB)
            aabs = np.abs(alpha)
            if low_side:
                cands = (at_lb & (alpha < -PIVOT_TOL)) | (at_ub & (alpha > PIVOT_TOL)) \
                    | (free & (aabs > PIVOT_TOL))
            else:
                cands = (at_lb & (alpha > PIVOT_TOL)) | (at_ub & (alpha < -PIVOT_TOL)) \
                    | (free & (aabs > PIVOT_TOL))
            if not cands.any():
                return "infeasible"
            ratios = np.full(std.ncols, math.inf)
            relaxed = np.full(std.ncols, math.inf)
            dmag = np.abs(d[cands])
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios[cands] = dmag / aabs[cands]
                relaxed[cands] = (dmag + DUAL_TOL) / aabs[cands]
            theta = relaxed.min()
            pick = cands & (ratios <= theta)
            score = np.where(pick, aabs, -1.0)
            q = int(np.argmax(score))
            w = self.factor.ftran(_dense_column(std.A, q))
            if abs(w[r]) < PIVOT_TOL:
                # price disagreement: refresh factors and retry this row
                stale_prices += 1
                if stale_prices > 3:
                    raise NumericalFailureError(
                        "persistent price disagreement in dual ratio test"
                    )
                self._refactor_and_refresh()
                d = self._reduced_costs(std.c)
                continue
            stale_prices = 0
            target = self.lb[self.basis[r]] if low_side else self.ub[self.basis[r]]
            delta_q = (xb[r] - target) / w[r]
            self.vals[self.basis] = xb - delta_q * w
            self.vals[q] = self.vals[q] + delta_q
            lv = self.basis[r]
            self.vals[lv] = target
            self.stat[lv] = AT_LB if low_side else AT_UB
            self.stat[q] = BASIC
            self.basis[r] = q
            self.factor.update(r, w)
            tt = d[q] / alpha[q]
            d = d - tt * alpha
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
        tol = DUAL_TOL * cscale
        movable = (self.ub - self.lb) > 0.0
        bad = (((self.stat == AT_LB) & movable & (d > tol))
               | ((self.stat == AT_UB) & movable & (d < -tol))
               | ((self.stat == FREE_NB) & (np.abs(d) > tol)))
        if bad.any():
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


def _apply_overrides(std: StandardLp, overrides, mip) -> tuple[np.ndarray, np.ndarray]:
    """Scaled bound arrays with original-units overrides tightened in."""
    lb = std.base_lb.copy()
    ub = std.base_ub.copy()
    if overrides:
        for key, (lo, hi) in overrides.items():
            j = mip.column_index(key) if isinstance(key, str) else int(key)
            if lo is not None:
                lb[j] = max(lb[j], std.scale_bound(j, lo))
            if hi is not None:
                ub[j] = min(ub[j], std.scale_bound(j, hi))
    return lb, ub


def solve_lp(mip, bounds=None, iter_limit: int | None = None,
             time_limit_s: float | None = None) -> LpResult:
    """Solve the continuous relaxation of `mip` with optional bound overrides.

    `bounds` maps variable names (or column indices) to (lower, upper)
    pairs that tighten the root bounds. A numerical failure gets the one
    recovery of `SimplexEngine.solve_verified`; if that fails too, the
    NumericalFailureError surfaces.
    """
    std = StandardLp(mip)
    lb, ub = _apply_overrides(std, bounds, mip)
    deadline = time.monotonic() + time_limit_s if time_limit_s is not None else None
    engine = SimplexEngine(std, lb, ub, iter_limit=iter_limit, deadline=deadline)
    status = engine.solve_verified(engine.solve_cold)
    if status == "limit":
        return LpResult("iteration-limit", engine.objective(),
                        _value_dict(mip, engine), engine.iterations)
    if status == "infeasible":
        return LpResult("infeasible", -math.inf, {}, engine.iterations)
    return LpResult("optimal", engine.objective(),
                    _value_dict(mip, engine), engine.iterations)


def _value_dict(mip, engine: SimplexEngine) -> dict:
    orig = engine.original_values()
    return dict(zip(mip.column_names().tolist(), orig[: mip.ncols].tolist()))
