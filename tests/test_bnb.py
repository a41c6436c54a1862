import math
import time

import numpy as np
import pytest

import cycleclust.bnb as bnb
from cycleclust.bnb import HeuristicsConfig, SolverConfig, branch_and_bound
from cycleclust.clustering import canonicalize, objective, reflect
from cycleclust.generate.triangle import triangle_fixture
from cycleclust.heuristics import brute_force, greedy_heuristic
from cycleclust.markov import project
from cycleclust.mip import build_mip

from util import fail_first_verify, random_chain

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
                         weights=mip.weights, blocks=mip.blocks,
                         row_groups=mip.row_groups)
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


@pytest.mark.parametrize("settings,message", [
    ({"node_selection": "bfs"}, "node_selection must be one of"),
    ({"time_limit_s": math.nan}, "time_limit_s must be finite and not negative"),
    ({"time_limit_s": -1.0}, "time_limit_s must be finite and not negative"),
    ({"node_limit": math.inf}, "node_limit must be finite and not negative"),
    ({"time_limit_s": 10 ** 400}, "time_limit_s must be finite and not negative"),
    ({"gap_tol": -1e-9}, "gap_tol must be finite and not negative"),
    ({"gap_tol": None}, "gap_tol must be finite and not negative"),
    ({"gap_tol": True}, "gap_tol must be a number"),
    ({"time_limit_s": "60"}, "time_limit_s must be a number"),
    ({"node_limit": 2.5}, "node_limit must be an integer"),
    ({"heuristics": {"greedy": False}}, "heuristics must be a HeuristicsConfig"),
])
def test_solver_config_refuses_out_of_range_settings(settings, message):
    with pytest.raises(ValueError, match=message):
        SolverConfig(**settings)


@pytest.mark.parametrize("flag", ["greedy", "rounding", "exchange"])
def test_heuristics_config_refuses_a_flag_that_is_not_a_bool(flag):
    with pytest.raises(ValueError, match=f"heuristics.{flag} must be a bool"):
        SolverConfig(heuristics=HeuristicsConfig(**{flag: "no"}))


def test_solver_config_accepts_numpy_numbers():
    cfg = SolverConfig(gap_tol=np.float64(1e-6), node_limit=np.int64(5))
    assert cfg.node_limit == 5


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


def test_failed_verification_recovers_without_cold_solve(monkeypatch):
    """Without heuristics the root LP is a cold solve; its failed
    verification is recovered from the root basis, not by solving again."""
    events = fail_first_verify(monkeypatch)
    _, _, w = random_chain(6, 32)
    cfg = SolverConfig(heuristics=HeuristicsConfig(False, False, False))
    res = branch_and_bound(build_mip(w, 3, 0.001), w, cfg)
    _, best = brute_force(w, 3, 0.001)
    assert events == ["failed"]
    assert res.status == "optimal"
    assert res.primal == pytest.approx(best.total, abs=1e-9)


def test_a_limit_exit_keeps_the_parent_bound(monkeypatch):
    """A node LP interrupted by its budget goes back to the pool with its
    parent's bound, which the result reports once the deadline has passed;
    the interrupted dual iterate's objective is not used as a bound."""
    from cycleclust.simplex import SimplexEngine, solve_lp

    dual = SimplexEngine.solve_dual
    states = []

    def interrupted(self, basis, stat, cutoff=None):
        """The second dual re-solve (the root's second child) stops after
        one iteration, and returns once the deadline has passed."""
        states.append(None)
        if len(states) != 2:
            return dual(self, basis, stat, cutoff)
        self.iter_limit = 1
        states[-1] = dual(self, basis, stat, cutoff)
        time.sleep(max(0.0, self.deadline - time.monotonic()) + 0.01)
        return states[-1]

    monkeypatch.setattr(SimplexEngine, "solve_dual", interrupted)
    _, _, w = random_chain(7, 33)
    mip = build_mip(w, 3, 0.001)
    cfg = SolverConfig(time_limit_s=1.0, heuristics=HeuristicsConfig(False, False, False))
    res = branch_and_bound(mip, w, cfg)
    assert states[1] == "limit"
    assert res.status == "time-limit"
    assert res.incumbent is not None
    # the interrupted node's parent is the root
    assert res.dual_bound == pytest.approx(solve_lp(mip).objective, abs=1e-12)


def test_node_limit_zero_builds_no_standard_form(monkeypatch):
    import cycleclust.bnb as bnb

    def refuse(mip):
        raise AssertionError("standard form built without a node LP")

    monkeypatch.setattr(bnb, "StandardLp", refuse)
    _, _, w = random_chain(6, 36)
    res = branch_and_bound(build_mip(w, 3, 0.001), w, SolverConfig(node_limit=0))
    assert res.status == "node-limit"
    assert res.nodes == 0
    assert res.incumbent is not None


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



@pytest.mark.parametrize("m", [3, 4, 5])
def test_an_offer_with_negative_flows_yields_its_reflection(monkeypatch, m):
    """Offered a clustering whose consecutive net flows are negative, the
    solve keeps its reflection, valued off the offer's projection with rows
    and columns permuted, and equal to `objective` bit for bit."""
    def admissible(c):
        d = project(w, c).delta()
        return all(d[k, (k + 1) % m] >= -1e-12 for k in range(m))

    cases = 0
    for seed in range(8):
        _, _, w = random_chain(8, 700 + seed)
        greedy = greedy_heuristic(w, m, 0.001)
        if not admissible(greedy) or admissible(reflect(greedy)):
            continue
        monkeypatch.setattr(bnb, "greedy_heuristic", lambda *args: reflect(greedy))
        cfg = SolverConfig(node_limit=0, heuristics=HeuristicsConfig(exchange=False))
        res = branch_and_bound(build_mip(w, m, 0.001), w, cfg)
        assert res.incumbent.assignment.tolist() == canonicalize(greedy).assignment.tolist()
        assert res.primal == objective(w, greedy, 0.001).total
        cases += 1
    assert cases >= 4
