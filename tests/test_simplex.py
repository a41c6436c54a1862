import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from cycleclust.generate.triangle import triangle_fixture
from cycleclust.mip import MipInstance, build_mip, export_model, parse_model
from cycleclust.simplex import solve_lp

from tableau_oracle import tableau_lp_max
from util import random_chain


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


def scipy_reference(mip) -> float:
    c = -mip.obj
    lb, ub = mip.lb, mip.ub
    senses = mip.senses
    a = mip.matrix
    a_eq = a[senses == "E"]
    b_eq = mip.rhs[senses == "E"]
    a_ub = sp.vstack([a[senses == "L"], -a[senses == "G"]])
    b_ub = np.concatenate([mip.rhs[senses == "L"], -mip.rhs[senses == "G"]])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(l, None if math.isinf(u) else u)
                          for l, u in zip(lb, ub)], method="highs")
    assert res.status == 0
    return -res.fun


def test_single_bounded_variable():
    mip = tiny_instance([("x", "continuous", 0.0, 1.0, 1.0)], [])
    res = solve_lp(mip)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.values["x"] == pytest.approx(1.0, abs=1e-9)


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
    assert res.values["x_1_2"] == pytest.approx(0.0, abs=1e-9)
    assert res.values["x_1_3"] == pytest.approx(0.0, abs=1e-9)


def test_infeasible_equality_detected():
    mip = tiny_instance(
        [("x", "continuous", 0.0, 1.0, 1.0)],
        [("impossible", {0: 1.0}, "E", 2.0)],
    )
    assert solve_lp(mip).status == "infeasible"


def test_contradictory_override_infeasible():
    _, _, w = random_chain(4, 0)
    mip = build_mip(w, 3, 0.001)
    res = solve_lp(mip, bounds={"x_1_1": (0.0, 0.0)})
    assert res.status == "infeasible"


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
    assert mine.objective == pytest.approx(scipy_reference(mip), abs=1e-7)


def test_optimal_solution_is_feasible():
    _, _, w = random_chain(7, 6)
    mip = build_mip(w, 3, 0.001)
    res = solve_lp(mip)
    arr = np.array([res.values[name] for name in mip.column_names()])
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
    pinned = solve_lp(mip, bounds={"x_2_1": (1.0, 1.0)})
    assert pinned.status == "optimal"
    assert pinned.objective <= free.objective + 1e-9
    assert pinned.values["x_2_1"] == pytest.approx(1.0, abs=1e-9)


def test_deterministic_repeat():
    _, _, w = random_chain(6, 8)
    mip = build_mip(w, 3, 0.001)
    a = solve_lp(mip)
    b = solve_lp(mip)
    assert a.iterations == b.iterations
    assert a.objective == b.objective
    assert a.values == b.values


def test_dual_warm_start_matches_cold_solve():
    """After tightening one fractional binary, re-solving from the parent
    basis with the dual method must reach the cold-solve optimum."""
    from cycleclust.simplex import SimplexEngine, StandardLp

    for seed in (12, 13, 14):
        _, _, w = random_chain(6, seed)
        mip = build_mip(w, 3, 0.001)
        std = StandardLp(mip)
        parent = SimplexEngine(std, std.base_lb.copy(), std.base_ub.copy())
        assert parent.solve_cold() == "optimal"
        xvals = parent.original_values()[: mip.n * 3]
        frac = np.abs(xvals - np.round(xvals))
        j = int(np.argmax(frac))
        if frac[j] < 1e-6:
            continue  # already integral, nothing to branch on
        for fixed in (0.0, 1.0):
            lb = std.base_lb.copy()
            ub = std.base_ub.copy()
            lb[j] = max(lb[j], std.scale_bound(j, fixed))
            ub[j] = min(ub[j], std.scale_bound(j, fixed))
            child = SimplexEngine(std, lb, ub)
            state = child.solve_dual(parent.basis, parent.stat)
            cold = SimplexEngine(std, lb.copy(), ub.copy())
            cold_state = cold.solve_cold()
            assert state == cold_state
            if state == "optimal":
                child.verify_optimal()
                assert child.objective() == pytest.approx(cold.objective(),
                                                          abs=1e-8)
                assert child.objective() <= parent.objective() + 1e-9


def test_dual_cutoff_returns_early():
    from cycleclust.simplex import SimplexEngine, StandardLp

    # seed 16 has a fractional root relaxation, so branching forces dual work
    _, _, w = random_chain(7, 16)
    mip = build_mip(w, 3, 0.001)
    std = StandardLp(mip)
    parent = SimplexEngine(std, std.base_lb.copy(), std.base_ub.copy())
    assert parent.solve_cold() == "optimal"
    xvals = parent.original_values()[: mip.n * 3]
    j = int(np.argmax(np.abs(xvals - np.round(xvals))))
    assert abs(xvals[j] - round(xvals[j])) > 0.2
    target = 0.0 if xvals[j] > 0.5 else 1.0
    lb = std.base_lb.copy()
    ub = std.base_ub.copy()
    lb[j] = max(lb[j], std.scale_bound(j, target))
    ub[j] = min(ub[j], std.scale_bound(j, target))
    child = SimplexEngine(std, lb, ub)
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
