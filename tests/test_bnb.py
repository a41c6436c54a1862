import math

import numpy as np
import pytest

from cycleclust.bnb import HeuristicsConfig, SolverConfig, branch_and_bound
from cycleclust.clustering import objective
from cycleclust.generate.triangle import triangle_fixture
from cycleclust.heuristics import brute_force
from cycleclust.mip import build_mip

from util import random_chain

TRIANGLE_OPT = [1, 2, 3, 1, 1, 2, 2, 3, 3]


def test_triangle_solved_at_root():
    w = triangle_fixture()
    res = branch_and_bound(build_mip(w, 3, 0.001), w)
    assert res.status == "optimal"
    assert res.incumbent.assignment.tolist() == TRIANGLE_OPT
    val = objective(w, res.incumbent, 0.001)
    assert val.flow_part == pytest.approx(0.3 / 9.0, abs=1e-9)
    assert res.primal == pytest.approx(0.3 / 9.0 + 0.001 * 8.4 / 9.0, abs=1e-12)
    assert res.gap <= 1e-6


@pytest.mark.parametrize("seed", [21, 22, 23, 24])
def test_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 10))
    _, _, w = random_chain(n, seed)
    res = branch_and_bound(build_mip(w, 3, 0.001), w)
    _, best = brute_force(w, 3, 0.001)
    assert res.status == "optimal"
    assert res.primal == pytest.approx(best.total, abs=1e-9)
    assert res.dual_bound >= res.primal - 1e-12


def test_dfs_mode_agrees_with_best_bound():
    _, _, w = random_chain(7, 31)
    mip = build_mip(w, 3, 0.001)
    a = branch_and_bound(mip, w)
    b = branch_and_bound(mip, w, SolverConfig(node_selection="dfs"))
    assert a.status == b.status == "optimal"
    assert a.primal == pytest.approx(b.primal, abs=1e-9)


def test_heuristics_can_be_disabled():
    _, _, w = random_chain(6, 32)
    cfg = SolverConfig(heuristics=HeuristicsConfig(False, False, False))
    res = branch_and_bound(build_mip(w, 3, 0.001), w, cfg)
    _, best = brute_force(w, 3, 0.001)
    assert res.status == "optimal"
    assert res.primal == pytest.approx(best.total, abs=1e-9)


def test_infeasible_root_reported_without_incumbent():
    _, _, w = random_chain(5, 33)
    mip = build_mip(w, 3, 0.001)
    # lower bound 1 against upper bound 0: the root relaxation is empty
    from cycleclust.mip import MipInstance
    col = mip.column_index("x_1_1")
    lb, ub = mip.lb.copy(), mip.ub.copy()
    lb[col], ub[col] = 1.0, 0.0
    broken = MipInstance(mip.matrix, mip.senses, mip.rhs, lb, ub, mip.obj,
                         mip.binary, n=mip.n, m=mip.m, alpha=mip.alpha,
                         weights=mip.weights, blocks=mip.blocks)
    cfg = SolverConfig(heuristics=HeuristicsConfig(False, False, False))
    res = branch_and_bound(broken, w, cfg)
    assert res.status == "infeasible"
    assert res.incumbent is None
    assert res.primal is None


def test_anytime_trace_is_monotone():
    _, _, w = random_chain(8, 34)
    res = branch_and_bound(build_mip(w, 3, 0.001), w)
    primals = [p for _, p, _ in res.trace if p is not None]
    duals = [d for _, _, d in res.trace if not math.isinf(d)]
    assert all(b >= a - 1e-12 for a, b in zip(primals, primals[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(duals, duals[1:]))
    assert res.dual_bound >= (res.primal or -math.inf) - 1e-12


def test_deterministic_repeat():
    _, _, w = random_chain(7, 35)
    mip = build_mip(w, 3, 0.001)
    a = branch_and_bound(mip, w)
    b = branch_and_bound(mip, w)
    assert a.nodes == b.nodes
    assert a.primal == b.primal
    assert a.dual_bound == b.dual_bound
    assert a.incumbent.assignment.tolist() == b.incumbent.assignment.tolist()


def test_node_limit_respected():
    _, _, w = random_chain(9, 36)
    res = branch_and_bound(build_mip(w, 3, 0.001), w,
                           SolverConfig(node_limit=1))
    assert res.nodes <= 1
    if res.status != "optimal":
        assert res.status == "node-limit"
        assert res.dual_bound >= res.primal


def test_time_limit_yields_valid_bounds():
    _, _, w = random_chain(12, 37)
    res = branch_and_bound(build_mip(w, 3, 0.001), w,
                           SolverConfig(time_limit_s=0.05))
    assert res.incumbent is not None  # greedy ran at the root
    assert res.dual_bound >= res.primal - 1e-12
    assert res.status in ("optimal", "time-limit")


def test_optimal_incumbent_has_nonnegative_flow():
    for seed in (38, 39, 40):
        _, _, w = random_chain(6, seed)
        res = branch_and_bound(build_mip(w, 3, 0.001), w)
        assert res.status == "optimal"
        assert objective(w, res.incumbent, 0.001).flow_part >= -1e-12


def test_blind_split_fallback_stays_exact(monkeypatch):
    """If every LP solve fails numerically, the tree degrades to blind
    splits with direct leaf evaluation and must still find the optimum."""
    from cycleclust.errors import NumericalFailureError
    from cycleclust.simplex import SimplexEngine

    def boom(self, *args, **kwargs):
        raise NumericalFailureError("forced failure")

    monkeypatch.setattr(SimplexEngine, "solve_cold", boom)
    monkeypatch.setattr(SimplexEngine, "solve_dual", boom)
    monkeypatch.setattr(SimplexEngine, "solve_from_basis", boom)
    _, _, w = random_chain(5, 41)
    cfg = SolverConfig(heuristics=HeuristicsConfig(False, False, False))
    res = branch_and_bound(build_mip(w, 3, 0.001), w, cfg)
    _, best = brute_force(w, 3, 0.001)
    assert res.incumbent is not None
    assert res.primal == pytest.approx(best.total, abs=1e-9)


def test_larger_cycles_respect_flow_sign_constraints():
    """For m >= 4 the model admits only clusterings whose consecutive net
    flows are all nonnegative; the solver must match enumeration over that
    restricted family."""
    import itertools

    from cycleclust.clustering import CycleClustering
    from cycleclust.markov import project

    for seed, m in ((50, 4), (52, 5)):
        _, _, w = random_chain(7, seed)
        best = -math.inf
        for tail in itertools.product(range(1, m + 1), repeat=6):
            labels = np.array((1,) + tail)
            if len(set(labels.tolist())) < m:
                continue
            c = CycleClustering(n=7, m=m, assignment=labels)
            d = project(w, c).delta()
            idx = np.arange(m)
            if np.any(d[idx, (idx + 1) % m] < -1e-15):
                continue
            best = max(best, objective(w, c, 0.001).total)
        res = branch_and_bound(build_mip(w, m, 0.001), w)
        assert res.status == "optimal"
        assert res.primal == pytest.approx(best, abs=1e-9)
        d = project(w, res.incumbent).delta()
        idx = np.arange(m)
        assert np.all(d[idx, (idx + 1) % m] >= -1e-12)
