import hashlib
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import splu

import cycleclust.simplex as simplex
from cycleclust.errors import NumericalFailureError, UnboundedError
from cycleclust.generate.triangle import triangle_fixture
from cycleclust.heuristics import greedy_heuristic
from cycleclust.mip import (MipInstance, build_mip, defining_rows, export_model, parse_model,
                            solution_values)
from cycleclust.simplex import AT_LB, AT_UB, BASIC, FREE_NB, SimplexEngine, StandardLp, solve_lp

from tableau_oracle import tableau_lp_max
from util import fail_first_verify, random_chain


def tiny_instance(columns, constraints):
    """columns: list of (name, kind, lb, ub, obj); constraints: list of
    (name, {col: coef}, sense, rhs)."""
    rows, cols, vals = [], [], []
    names, senses, rhs = [], [], []
    for r, (name, coefs, sense, b) in enumerate(constraints):
        names.append(name)
        senses.append(sense)
        rhs.append(b)
        for ccol, v in coefs.items():
            rows.append(r)
            cols.append(ccol)
            vals.append(v)
    matrix = csr_matrix((vals, (rows, cols)), shape=(len(names), len(columns)))
    col_names, kinds, lb, ub, obj = zip(*columns)
    return MipInstance(matrix, senses, rhs, lb, ub, obj,
                       [kind == "binary" for kind in kinds], n=0, m=0,
                       alpha=1.0, col_names=col_names, row_names=names)


def scipy_reference(mip):
    """(status, objective) of the LP by HiGHS: optimal, infeasible or
    unbounded."""
    a = mip.matrix
    senses = mip.senses
    res = linprog(-mip.obj, A_ub=sp.vstack([a[senses == "L"], -a[senses == "G"]]),
                  b_ub=np.concatenate([mip.rhs[senses == "L"], -mip.rhs[senses == "G"]]),
                  A_eq=a[senses == "E"], b_eq=mip.rhs[senses == "E"],
                  bounds=list(zip(mip.lb, mip.ub)), method="highs")
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    return status, (-res.fun if res.status == 0 else None)


def test_single_bounded_variable():
    mip = tiny_instance([("x", "continuous", 0.0, 1.0, 1.0)], [])
    res = solve_lp(mip)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.values[0] == pytest.approx(1.0, abs=1e-9)


def test_assignment_row_fixes_other_columns():
    variables = [
        ("x_1_1", "binary", 1.0, 1.0, 0.0),
        ("x_1_2", "binary", 0.0, 1.0, -1.0),
        ("x_1_3", "binary", 0.0, 1.0, -2.0),
    ]
    mip = tiny_instance(variables, [
        ("assign_1", {0: 1.0, 1: 1.0, 2: 1.0}, "E", 1.0),
    ])
    res = solve_lp(mip)
    assert res.status == "optimal"
    assert res.values[mip.column_index("x_1_2")] == pytest.approx(0.0, abs=1e-9)
    assert res.values[mip.column_index("x_1_3")] == pytest.approx(0.0, abs=1e-9)


def test_infeasible_equality_detected():
    mip = tiny_instance(
        [("x", "continuous", 0.0, 1.0, 1.0)],
        [("impossible", {0: 1.0}, "E", 2.0)],
    )
    assert solve_lp(mip).status == "infeasible"


def test_contradictory_override_infeasible():
    _, _, w = random_chain(4, 0)
    mip = build_mip(w, 3, 0.001)
    bounds = {mip.column_index("x_1_1"): (0.0, 0.0)}
    res = solve_lp(mip, bounds=bounds)
    assert res.status == "infeasible"
    assert res.objective == -math.inf
    # the crossed bounds end the solve before a basis is installed
    engine = SimplexEngine(StandardLp(mip), bounds)
    assert engine.solve_cold() == "infeasible"
    assert engine.objective() == -math.inf


def test_iteration_limit_status():
    _, _, w = random_chain(6, 1)
    mip = build_mip(w, 3, 0.001)
    res = solve_lp(mip, iter_limit=3)
    assert res.status == "iteration-limit"


def test_triangle_root_matches_tableau_oracle():
    mip = build_mip(triangle_fixture(), 3, 0.001)
    ours = solve_lp(mip)
    reparsed = parse_model(export_model(mip))
    reference = tableau_lp_max(reparsed)
    assert ours.status == "optimal"
    assert ours.objective == pytest.approx(reference, abs=1e-7)


@pytest.mark.parametrize("n,seed", [(4, 2), (5, 3), (5, 4), (6, 5)])
def test_relaxation_matches_oracles(n, seed):
    _, _, w = random_chain(n, seed)
    mip = build_mip(w, 3, 0.001)
    mine = solve_lp(mip)
    assert mine.status == "optimal"
    oracle = tableau_lp_max(parse_model(export_model(mip)))
    assert mine.objective == pytest.approx(oracle, abs=1e-7)
    assert scipy_reference(mip) == ("optimal", pytest.approx(mine.objective, abs=1e-7))


def test_optimal_solution_is_feasible():
    _, _, w = random_chain(7, 6)
    mip = build_mip(w, 3, 0.001)
    res = solve_lp(mip)
    arr = res.values
    lhs = mip.matrix @ arr
    for r in range(mip.nrows):
        s = str(mip.senses[r])
        if s == "E":
            assert abs(lhs[r] - mip.rhs[r]) <= 1e-7
        elif s == "L":
            assert lhs[r] <= mip.rhs[r] + 1e-7
        else:
            assert lhs[r] >= mip.rhs[r] - 1e-7
    lb, ub = mip.lb, mip.ub
    assert np.all(arr >= lb - 1e-7)
    assert np.all(arr <= ub + 1e-7)


def test_override_tightening_reduces_value():
    _, _, w = random_chain(5, 7)
    mip = build_mip(w, 3, 0.001)
    free = solve_lp(mip)
    pinned = solve_lp(mip, bounds={mip.column_index("x_2_1"): (1.0, 1.0)})
    assert pinned.status == "optimal"
    assert pinned.objective <= free.objective + 1e-9
    assert pinned.values[mip.column_index("x_2_1")] == pytest.approx(1.0, abs=1e-9)


def test_deterministic_repeat():
    _, _, w = random_chain(6, 8)
    mip = build_mip(w, 3, 0.001)
    a = solve_lp(mip)
    b = solve_lp(mip)
    assert a.iterations == b.iterations
    assert a.objective == b.objective
    assert np.array_equal(a.values, b.values)


def test_dual_warm_start_matches_cold_solve():
    """After tightening one fractional binary, re-solving from the parent
    basis with the dual method must reach the cold-solve optimum."""
    for seed in (12, 13, 14):
        _, _, w = random_chain(6, seed)
        mip = build_mip(w, 3, 0.001)
        std = StandardLp(mip)
        parent = SimplexEngine(std)
        assert parent.solve_cold() == "optimal"
        xvals = parent.original_values()[: mip.n * 3]
        frac = np.abs(xvals - np.round(xvals))
        j = int(np.argmax(frac))
        if frac[j] < 1e-6:
            continue  # already integral, nothing to branch on
        for fixed in (0.0, 1.0):
            child = SimplexEngine(std, {j: (fixed, fixed)})
            state = child.solve_dual(parent.basis, parent.stat)
            cold = SimplexEngine(std, {j: (fixed, fixed)})
            cold_state = cold.solve_cold()
            assert state == cold_state
            if state == "optimal":
                child.verify_optimal()
                assert child.objective() == pytest.approx(cold.objective(),
                                                          abs=1e-8)
                assert child.objective() <= parent.objective() + 1e-9


def test_dual_cutoff_returns_early():
    # seed 16 has a fractional root relaxation, so branching forces dual work
    _, _, w = random_chain(7, 16)
    mip = build_mip(w, 3, 0.001)
    std = StandardLp(mip)
    parent = SimplexEngine(std)
    assert parent.solve_cold() == "optimal"
    xvals = parent.original_values()[: mip.n * 3]
    j = int(np.argmax(np.abs(xvals - np.round(xvals))))
    assert abs(xvals[j] - round(xvals[j])) > 0.2
    target = 0.0 if xvals[j] > 0.5 else 1.0
    child = SimplexEngine(std, {j: (target, target)})
    # a cutoff above the parent optimum prunes before primal feasibility
    state = child.solve_dual(parent.basis, parent.stat,
                             cutoff=parent.objective() + 1.0)
    assert state == "cutoff"
    assert child.objective() <= parent.objective() + 1e-9


def test_relaxation_dominates_brute_force():
    from cycleclust.heuristics import brute_force
    from cycleclust.generate.triangle import triangle_fixture

    cases = [triangle_fixture()]
    for seed in (9, 10, 11):
        _, _, w = random_chain(6, seed)
        cases.append(w)
    for w in cases:
        mip = build_mip(w, 3, 0.001)
        relaxed = solve_lp(mip)
        _, best = brute_force(w, 3, 0.001)
        assert relaxed.status == "optimal"
        assert relaxed.objective >= best.total - 1e-9


def test_failed_verification_recovers_from_last_basis(monkeypatch):
    """A claimed optimum that fails verification is re-solved from its own
    basis, not by a second cold solve, and keeps the clean optimum."""
    _, _, w = random_chain(6, 5)
    mip = build_mip(w, 3, 0.001)
    clean = solve_lp(mip)
    events = fail_first_verify(monkeypatch)
    res = solve_lp(mip)
    assert events == ["failed"]
    assert res.status == "optimal"
    assert res.objective == pytest.approx(clean.objective, abs=1e-9)


def test_recovery_that_hits_its_cap_raises(monkeypatch):
    import cycleclust.simplex as simplex
    from cycleclust.errors import NumericalFailureError

    _, _, w = random_chain(6, 5)
    mip = build_mip(w, 3, 0.001)
    fail_first_verify(monkeypatch)
    monkeypatch.setattr(simplex, "RECOVERY_ITER_LIMIT", 0)
    with pytest.raises(NumericalFailureError):
        solve_lp(mip)


def random_lp(rng) -> MipInstance:
    """A small LP with integer data: L, G and E rows; free, lower-bounded,
    upper-bounded and boxed columns."""
    nrows, ncols = rng.integers(1, 6, size=2)
    dense = rng.integers(-3, 4, size=(nrows, ncols)) * (rng.random((nrows, ncols)) < 0.7)
    kind = rng.integers(0, 4, size=ncols)  # free, lower, upper, boxed
    lo = rng.integers(-3, 2, size=ncols).astype(float)
    hi = lo + rng.integers(0, 5, size=ncols)
    lb = np.where(kind % 2 == 1, lo, -math.inf)
    ub = np.where(kind >= 2, hi, math.inf)
    return MipInstance(csr_matrix(dense.astype(float)), rng.choice(list("LGE"), size=nrows),
                       rng.integers(-5, 6, size=nrows), lb, ub,
                       rng.integers(-3, 4, size=ncols), np.zeros(ncols, dtype=bool),
                       n=0, m=0, alpha=1.0, col_names=[f"v{j}" for j in range(ncols)],
                       row_names=[f"r{i}" for i in range(nrows)])


def test_random_lps_match_highs():
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for seed in range(200):
        mip = random_lp(np.random.default_rng(seed))
        status, value = scipy_reference(mip)
        seen[status] += 1
        if status == "unbounded":
            with pytest.raises(UnboundedError):
                solve_lp(mip)
            continue
        res = solve_lp(mip)
        assert res.status == status, seed
        if status == "optimal":
            assert res.objective == pytest.approx(value, abs=1e-7), seed
    assert min(seen.values()) >= 20, seen


def test_phase_one_leaves_a_relaxed_slack_inside_its_bounds():
    """Both "G" slacks start above their upper bound 0; the optimum keeps
    the first one strictly below it."""
    mip = tiny_instance([("x", "continuous", 0.0, 10.0, 1.0)], [
        ("x_ge_1", {0: 1.0}, "G", 1.0),
        ("x_ge_2", {0: 1.0}, "G", 2.0),
    ])
    res = solve_lp(mip)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(10.0, abs=1e-9)


def test_standard_form_is_structurals_and_slacks_with_pinned_scaling():
    """Every pivot depends on the power-of-two scale factors; these digests
    pin them, so a change of layout cannot move them unnoticed."""
    _, _, w = random_chain(8, 3)
    mip = build_mip(w, 3, 0.001)
    std = StandardLp(mip)
    assert std.ncols == mip.ncols + mip.nrows
    assert np.array_equal(std.col_scale[std.nstruct:], 1.0 / std.row_scale)
    assert hashlib.sha256(std.row_scale.tobytes()).hexdigest() == \
        "cf5d8d3bd50658253e0fbb2b6cbf6b03375f4ec85ffc817b69410f975f5dbc68"
    assert hashlib.sha256(std.col_scale[: std.nstruct].tobytes()).hexdigest() == \
        "162107f91b2e4caf947c09474729ad22280c54ebeb2a7154d5c390164304e2dd"


def test_at_times_is_bitwise_the_sparse_product():
    """StandardLp.at_times calls scipy's private csr_matvec kernel; a scipy
    release that changes its signature or its arithmetic fails here."""
    _, _, w = random_chain(9, 11)
    std = StandardLp(build_mip(w, 3, 0.001))
    rng = np.random.default_rng(0)
    out = np.full(std.ncols, np.nan)
    for v in (rng.standard_normal(std.nrows), np.zeros(std.nrows),
              np.eye(std.nrows)[3]):
        assert std.at_times(v, out) is out
        assert (out == std.AT @ v).all()
        assert out.tobytes() == (std.AT @ v).tobytes()


def branched_root(n: int, seed: int):
    """The standard form, the root engine after a cold solve, the root's
    most fractional binary column j, and the bound overrides of the two
    children that fix j to 0 and to 1."""
    _, _, w = random_chain(n, seed)
    mip = build_mip(w, 3, 0.001)
    std = StandardLp(mip)
    root = SimplexEngine(std)
    assert root.solve_cold() == "optimal"
    xvals = root.original_values()[: mip.n * 3]
    j = int(np.argmax(np.abs(xvals - np.round(xvals))))
    children = [{j: (v, v)} for v in (0.0, 1.0)]
    return std, root, j, children


def cold_optimum(std, bounds) -> float:
    cold = SimplexEngine(std, bounds)
    assert cold.solve_cold() == "optimal"
    return cold.objective()


def test_primal_from_an_infeasible_basis_reaches_the_cold_optimum():
    std, root, j, children = branched_root(7, 16)
    for bounds in children:
        child = SimplexEngine(std, bounds)
        # the root basis is infeasible
        assert not child.lb[j] <= root.vals[j] <= child.ub[j]
        assert child.solve_from_basis(root.basis, root.stat) == "optimal"
        child.verify_optimal()
        assert child.objective() == pytest.approx(cold_optimum(std, bounds), abs=1e-8)


def test_crash_start_is_the_integral_point_and_reaches_the_cold_optimum():
    """solve_crash takes a clustering's values in original units and the
    rows defining f and g: its starting basis reproduces that point, and the
    primal method goes on from it to the cold optimum."""
    _, _, w = random_chain(7, 16)
    mip = build_mip(w, 3, 0.001)
    std = StandardLp(mip)
    values = solution_values(mip, greedy_heuristic(w, 3, 0.001))
    start = SimplexEngine(std, iter_limit=0)
    assert start.solve_crash(values, *defining_rows(mip)) == "limit"
    assert start.original_values()[: mip.ncols] == pytest.approx(values, abs=1e-12)
    engine = SimplexEngine(std)
    assert engine.solve_crash(values, *defining_rows(mip)) == "optimal"
    engine.verify_optimal()
    assert engine.objective() == pytest.approx(cold_optimum(std, None), abs=1e-8)


def assert_loop_state(engine):
    """The state the loops keep current as they pivot equals what the basis,
    the statuses and the engine's bounds imply."""
    basis, stat, lb, ub = engine.basis, engine.stat, engine.lb, engine.ub
    assert np.array_equal(engine.xb, engine.vals[basis])
    assert np.array_equal(engine.lo_b, lb[basis])
    assert np.array_equal(engine.hi_b, ub[basis])
    movable = ub - lb > 0.0
    assert np.array_equal(engine.movable, movable)
    assert np.array_equal(engine.direction, np.select(
        [movable & (stat == AT_LB), movable & (stat == AT_UB)], [1.0, -1.0]))
    assert np.array_equal(engine.free, movable & (stat == FREE_NB))


def test_loop_state_matches_the_basis_after_both_methods():
    """The loop state ends consistent after a dual and a primal re-solve of
    each child."""
    std, root, _, children = branched_root(7, 16)
    for bounds in children:
        for method in (SimplexEngine.solve_dual, SimplexEngine.solve_from_basis):
            child = SimplexEngine(std, bounds)
            assert method(child, root.basis, root.stat) == "optimal"
            assert child.iterations > 0
            assert_loop_state(child)


def free_column_lp():
    """max z with z - y = 0, y <= 1, y in [0, 5] and z free: optimum 1."""
    return tiny_instance(
        [("y", "continuous", 0.0, 5.0, 0.0),
         ("z", "continuous", -math.inf, math.inf, 1.0)],
        [("link", {0: -1.0, 1: 1.0}, "E", 0.0),
         ("cap", {0: 1.0}, "L", 1.0)],
    )


def test_loop_state_after_a_free_column_enters():
    """A cold solve of the free-column LP brings z into the basis, and z
    leaves the free mask as it enters."""
    engine = SimplexEngine(StandardLp(free_column_lp()))
    assert engine.solve_cold() == "optimal"
    assert engine.stat[1] == BASIC
    assert engine.objective() == pytest.approx(1.0)
    assert_loop_state(engine)


def test_failure_inside_a_dual_resolve_recovers(monkeypatch):
    """A dual re-solve that fails part-way leaves a primal-infeasible basis;
    the recovery runs the primal method from it to the cold optimum."""
    std, root, _, children = branched_root(7, 16)
    update = simplex._Factors.update
    for bounds in children:
        expected = cold_optimum(std, bounds)
        calls = []

        def flaky_update(self, r, d):
            calls.append(r)
            if len(calls) == 3:
                raise NumericalFailureError("forced failure")
            return update(self, r, d)

        monkeypatch.setattr(simplex._Factors, "update", flaky_update)
        child = SimplexEngine(std, bounds)
        state = child.solve_verified(lambda: child.solve_dual(root.basis, root.stat))
        monkeypatch.undo()
        assert len(calls) >= 3
        assert state == "optimal"
        assert child.objective() == pytest.approx(expected, abs=1e-8)


def test_price_disagreement_recovers_from_the_last_basis(monkeypatch):
    """An entering column whose pivot entry vanishes, though its row priced
    it in, fails the dual re-solve at once; the one recovery of
    solve_verified ends at the cold solve's verified optimum."""
    std, root, _, children = branched_root(7, 16)
    btran_unit, ftran = simplex._Factors.btran_unit, simplex._Factors.ftran
    for bounds in children:
        expected = cold_optimum(std, bounds)
        rows, zeroed = [], []

        def priced_row(self, r):
            rows.append(r)
            return btran_unit(self, r)

        def disagreeing_ftran(self, v):
            # the first ftran after the dual loop prices a row is the
            # entering column's: zero its entry in that row, once
            y = ftran(self, v)
            if rows and not zeroed:
                zeroed.append(rows[-1])
                y[rows[-1]] = 0.0
            return y

        monkeypatch.setattr(simplex._Factors, "btran_unit", priced_row)
        monkeypatch.setattr(simplex._Factors, "ftran", disagreeing_ftran)
        with pytest.raises(NumericalFailureError, match="price disagreement"):
            SimplexEngine(std, bounds).solve_dual(root.basis, root.stat)
        rows.clear()
        zeroed.clear()
        child = SimplexEngine(std, bounds)
        state = child.solve_verified(lambda: child.solve_dual(root.basis, root.stat))
        monkeypatch.undo()
        assert len(zeroed) == 1
        assert state == "optimal"
        assert child.objective() == pytest.approx(expected, abs=1e-8)


def test_verify_flags_a_free_nonbasic_column_with_nonzero_reduced_cost():
    """In the free-column LP the basis {y, cap slack} with z free nonbasic at
    0 is primal feasible at objective 0, with reduced cost 1 on z."""
    std = StandardLp(free_column_lp())
    engine = SimplexEngine(std)
    basis = np.array([0, std.nstruct + 1])
    stat = np.full(std.ncols, AT_LB)
    stat[basis] = BASIC
    stat[1] = FREE_NB
    # the dual method stops at once: the basis is primal feasible
    assert engine.solve_dual(basis, stat) == "optimal"
    assert engine.objective() == 0.0
    with pytest.raises(NumericalFailureError):
        engine.verify_optimal()


def product_form_solves(lu, etas, v):
    """(ftran, btran) of v by the sequential product form: the LU of the
    refactorized basis, then one eta (r, d) at a time."""
    y = lu.solve(v)
    for r, d in etas:
        t = y[r] / d[r]
        y -= t * d
        y[r] = t
    w = v.copy()
    for r, d in reversed(etas):
        w[r] -= (d @ w - w[r]) / d[r]
    return y, lu.solve(w, trans="T")


def test_block_eta_file_matches_a_fresh_factorization(monkeypatch):
    """ftran and btran through the eta file equal a fresh LU of the current
    basis and the sequential product form, across a position pivoted twice
    and a refactorization, with the smallest eta cap."""
    monkeypatch.setattr(simplex, "_ETA_BYTE_BUDGET", 1.0)
    _, _, w = random_chain(6, 5)
    std = StandardLp(build_mip(w, 3, 0.001))
    basis = std.nstruct + np.arange(std.nrows)
    factor = simplex._Factors(std.A, basis, {})
    assert factor.max_etas == 8
    rng = np.random.default_rng(7)
    v = rng.standard_normal(std.nrows)
    pivoted, etas, refactored = [], [], False
    for step in range(14):
        if factor.needs_refactor:
            factor.refactor(basis)
            etas.clear()
            refactored = True
        if step == 2:  # bring back the slack the first update replaced
            q = std.nstruct + pivoted[0]
        else:
            q = int(rng.choice(np.setdiff1d(np.arange(std.nstruct), basis)))
        d = factor.ftran(simplex._dense_column(std.A, q))
        r = int(np.argmax(np.abs(d)))
        pivoted.append(r)
        basis[r] = q
        factor.update(r, d)
        etas.append((r, d.copy()))
        lu = splu(std.A[:, basis].tocsc())
        loop_ftran, loop_btran = product_form_solves(factor.lu, etas, v)
        for mine, refs in ((factor.ftran(v), (lu.solve(v), loop_ftran)),
                           (factor.btran(v), (lu.solve(v, trans="T"), loop_btran))):
            for ref in refs:
                assert np.max(np.abs(mine - ref)) <= 1e-10 * np.max(np.abs(ref))
        for p in (r, pivoted[0], std.nrows - 1):
            e = np.zeros(std.nrows)
            e[p] = 1.0
            assert np.array_equal(factor.btran_unit(p), factor.btran(e))
    assert refactored
    assert pivoted[2] == pivoted[0]


def test_children_share_the_factorization_of_their_parents_basis():
    """Both children of a node start from their parent's basis: the second
    takes its LU from the standard form and solves bitwise as it would with
    a factorization of its own. The standard form keeps few of them."""
    std, root, _, children = branched_root(7, 16)
    first = simplex._Factors(std.A, root.basis, std.starting_lus)
    assert simplex._Factors(std.A, root.basis, std.starting_lus).lu is first.lu
    runs = []
    for known in (True, False):
        if not known:
            std.starting_lus.clear()
        child = SimplexEngine(std, children[1])
        state = child.solve_dual(root.basis, root.stat)
        runs.append((state, child.iterations, child.vals.tobytes()))
    assert runs[0] == runs[1]
    for shift in range(1, 2 * simplex._STARTING_LUS):
        simplex._Factors(std.A, np.roll(root.basis, shift), std.starting_lus)
    assert len(std.starting_lus) == simplex._STARTING_LUS


@pytest.mark.parametrize("seed", [1, 4])
def test_lp_across_refactorizations_matches_highs(seed):
    """A root relaxation long enough to refactorize several times matches
    HiGHS, and both branched children re-solve by the dual method to their
    cold optimum."""
    std, root, j, children = branched_root(10, seed)
    _, _, w = random_chain(10, seed)
    assert root.iterations > root.factor.max_etas
    assert scipy_reference(build_mip(w, 3, 0.001)) == \
        ("optimal", pytest.approx(root.objective(), abs=1e-7))
    for bounds in children:
        child = SimplexEngine(std, bounds)
        assert child.solve_dual(root.basis, root.stat) == "optimal"
        child.verify_optimal()
        assert child.objective() == pytest.approx(cold_optimum(std, bounds), abs=1e-8)
