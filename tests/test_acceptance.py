"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Budgets are enforced with wall clocks; tolerances are stated inline and come
from the component contracts, not from calibration.
"""

import itertools
import math
import time

import numpy as np
import pytest

from cycleclust.bnb import SolverConfig, branch_and_bound
from cycleclust.clustering import CycleClustering, canonicalize, objective, successor
from cycleclust.generate import (
    OMEGA3,
    cut_weight,
    generate_repressilator_instance,
    hmc_transition_matrix,
    hmc_with_drift,
    integrate,
    min_multiway_cut,
    multiway_cut_to_instance,
    select_bin_centers,
    triangle_fixture,
)
from cycleclust.heuristics import brute_force
from cycleclust.markov import flow_matrix, project, stationary_distribution, validate_stochastic
from cycleclust.mip import build_mip, model_objective_value, solution_values

from spectral_oracle import phase_clustering
from test_multiway_cut import random_graph
from util import random_chain, random_clustering

ALPHA = 0.001
HMC_SEED = 20260808
HMC_BETA = 0.5


def report(number, description):
    def decorate(fn):
        def wrapped(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL: {description}")
                raise
            print(f"[criterion {number}] PASS: {description}")
        wrapped.__name__ = fn.__name__
        return wrapped
    return decorate


@report(1, "triangle fixture solved exactly, natural clusters, < 5 s")
def test_criterion_1_triangle_exactness():
    start = time.monotonic()
    w = triangle_fixture()
    result = branch_and_bound(build_mip(w, 3, ALPHA), w)
    elapsed = time.monotonic() - start
    assert result.status == "optimal"
    value = objective(w, result.incumbent, ALPHA)
    assert value.flow_part == pytest.approx(0.3 / 9.0, abs=1e-9)
    canon = canonicalize(result.incumbent)
    assert canon.assignment.tolist() == [1, 2, 3, 1, 1, 2, 2, 3, 3]
    assert elapsed < 5.0


@report(2, "branch and bound equals brute force on 50 random instances, < 2 min")
def test_criterion_2_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for n in (5, 6, 7, 8, 9):
        for trial in range(10):
            seed = 1000 + 10 * n + trial
            _, _, w = random_chain(n, seed)
            result = branch_and_bound(build_mip(w, 3, ALPHA), w)
            _, best = brute_force(w, 3, ALPHA)
            assert result.status == "optimal"
            assert result.gap <= 1e-6
            assert result.primal == pytest.approx(best.total, abs=1e-9)
            checked += 1
    assert checked >= 50
    assert time.monotonic() - start < 120.0


@report(3, "reduction optimum induces the minimum multiway cut, < 1 min")
def test_criterion_3_multiway_cut_round_trip():
    start = time.monotonic()
    for trial in range(20):
        mc = random_graph(3000 + trial)
        tm, pi, big_m = multiway_cut_to_instance(mc, ALPHA)
        w = flow_matrix(tm, pi)
        best, value = brute_force(w, 3, ALPHA)
        if trial % 7 == 0:
            solved = branch_and_bound(build_mip(w, 3, ALPHA), w)
            assert solved.status == "optimal"
            assert solved.primal == pytest.approx(value.total, abs=1e-9)
        w_min, _ = min_multiway_cut(mc)
        induced = cut_weight(mc, best.assignment)
        assert induced == pytest.approx(w_min, abs=1e-9)
        total_q = 3 * big_m + mc.total_weight
        expected = (ALPHA / total_q) * (mc.total_weight - induced)
        assert ALPHA * value.coherence_part == pytest.approx(expected, abs=1e-10)
    assert time.monotonic() - start < 60.0


@report(4, "projection antisymmetry margins and 3-cycle structure hold")
def test_criterion_4_delta_structure():
    rng = np.random.default_rng(4)
    instances = [triangle_fixture()]
    for seed in (41, 42, 43):
        _, _, w = random_chain(8, seed)
        instances.append(w)
    traj = hmc_with_drift(OMEGA3, OMEGA3.minima[0], beta=HMC_BETA,
                          n_steps=2500, drift_mag=0.15, seed=7)
    tm = hmc_transition_matrix(traj, select_bin_centers(traj, 12))
    instances.append(flow_matrix(tm, stationary_distribution(tm)))
    rep, _, _ = generate_repressilator_instance(count=20, t_final=0.3)
    instances.append(flow_matrix(rep, stationary_distribution(rep)))
    for trial in (1, 2):
        mc = random_graph(4000 + trial)
        tm, pi, _ = multiway_cut_to_instance(mc, ALPHA)
        instances.append(flow_matrix(tm, pi))
    for w in instances:
        n = w.n
        for m in (3, 4, 5):
            if m > n:
                continue
            for _ in range(5):
                c = CycleClustering(n=n, m=m,
                                    assignment=random_clustering(n, m, rng))
                delta = project(w, c).delta()
                assert np.abs(np.diag(delta)).max() <= 1e-8
                assert np.abs(delta.sum(axis=0)).max() <= 1e-8
                assert np.abs(delta.sum(axis=1)).max() <= 1e-8
                if m == 3:
                    eps = delta[0, 1]
                    assert abs(delta[1, 2] - eps) <= 1e-10
                    assert abs(delta[2, 0] - eps) <= 1e-10


def _hmc_instance(drift):
    traj = hmc_with_drift(OMEGA3, OMEGA3.minima[0], beta=HMC_BETA,
                          n_steps=10000, drift_mag=drift, seed=HMC_SEED)
    centers = select_bin_centers(traj, 20)
    tm = hmc_transition_matrix(traj, centers, lag=1)
    w = flow_matrix(tm, stationary_distribution(tm))
    return w, centers


@report(5, "sampled landscape runs recover the well cycle; flow grows with drift")
def test_criterion_5_hmc_qualitative():
    start = time.monotonic()
    flows = {}
    for drift in (0.1, 0.2):
        w, centers = _hmc_instance(drift)
        result = branch_and_bound(build_mip(w, 3, ALPHA), w,
                                  SolverConfig(time_limit_s=240))
        assert result.status == "optimal"
        clustering = result.incumbent
        value = objective(w, clustering, ALPHA)
        flows[drift] = value.flow_part
        # each cluster contains exactly one well (nearest-center test)
        wells = np.array(OMEGA3.minima)
        d2 = ((wells[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        well_bins = d2.argmin(axis=1)
        well_clusters = [int(clustering.assignment[b]) for b in well_bins]
        assert sorted(well_clusters) == [1, 2, 3]
        # the cycle direction follows the drift's visit order of the wells
        k0, k1, k2 = well_clusters
        assert k1 == successor(k0, 3)
        assert k2 == successor(k1, 3)
    assert flows[0.2] > flows[0.1]
    for f in flows.values():
        assert 1e-4 <= f <= 5e-2
    assert time.monotonic() - start < 600.0


# An admissible clustering of criterion 5's drift-0.2 instance; HiGHS finds
# it as the optimum of build_mip's model.
CRITERION_5_BETTER = [1, 2, 2, 3, 2, 1, 3, 3, 3, 1, 2, 1, 1, 3, 3, 1, 2, 2, 3, 1]


def test_criterion_5_better_clustering_is_admissible():
    """The clustering the next test compares with scores 0.0070676068 and
    has three cycle flows of 0.0022018, all nonnegative."""
    w, _ = _hmc_instance(0.2)
    better = CycleClustering(n=20, m=3, assignment=np.array(CRITERION_5_BETTER))
    assert objective(w, better, ALPHA).total == pytest.approx(0.0070676068, abs=1e-10)
    assert project(w, better).cycle_flows() == pytest.approx([0.0022018] * 3, abs=1e-7)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_criterion_5_instance_is_solved_to_its_optimum():
    """branch_and_bound ends `optimal` on the drift-0.2 instance at
    0.0068690464 after 3 nodes, below CRITERION_5_BETTER. That clustering
    puts bins 1 and 10, two of the three wells, in cluster 1, so
    test_criterion_5's one-well-per-cluster assertion holds on this
    instance only because of the wrong answer."""
    w, _ = _hmc_instance(0.2)
    better = CycleClustering(n=20, m=3, assignment=np.array(CRITERION_5_BETTER))
    result = branch_and_bound(build_mip(w, 3, ALPHA), w, SolverConfig(time_limit_s=240))
    assert result.primal >= objective(w, better, ALPHA).total - 1e-12


@report(6, "ring-oscillator clustering has strong flow and gene-wise clusters")
def test_criterion_6_repressilator_order_of_magnitude():
    tm, starts, ends = generate_repressilator_instance()
    w = flow_matrix(tm, stationary_distribution(tm))
    # budget is deliberately modest; the bars must hold for the best-found
    # clustering from the heuristics plus whatever the tree adds. The root LP
    # runs past 10 s, and a 120 s limit ends it with the same assignment,
    # primal and dual bound, so the limit stops the solve inside that LP.
    result = branch_and_bound(build_mip(w, 3, ALPHA), w,
                              SolverConfig(time_limit_s=10))
    assert result.incumbent is not None
    assert result.dual_bound >= result.primal
    value = objective(w, result.incumbent, ALPHA)
    assert value.flow_part >= 0.05
    assert value.coherence_part >= 0.25
    # mean end-state concentrations: a distinct dominant gene per cluster
    dominants = []
    for k in (1, 2, 3):
        members = result.incumbent.members(k) - 1
        mean = ends[members].mean(axis=0)
        pair_mass = {gene: mean[2 * g] + mean[2 * g + 1]
                     for g, gene in enumerate("ABC")}
        dominants.append(max(pair_mass, key=pair_mass.get))
    assert sorted(dominants) == ["A", "B", "C"]


@report(7, "model objective equals the direct objective on every assignment")
def test_criterion_7_linearization_exactness():
    for n, seed in ((5, 71), (6, 72), (7, 73), (8, 74)):
        _, _, w = random_chain(n, seed)
        mip = build_mip(w, 3, ALPHA)
        for tail in itertools.product((1, 2, 3), repeat=n - 1):
            labels = np.array((1,) + tail)
            if len(set(labels.tolist())) < 3:
                continue
            c = CycleClustering(n=n, m=3, assignment=labels)
            values = solution_values(mip, c)
            direct = objective(w, c, ALPHA)
            assert model_objective_value(mip, values) == pytest.approx(
                direct.total, abs=1e-10)


@report(8, "integrator order, two-state stationary vector, flat-run acceptance")
def test_criterion_8_numerical_units():
    # classical integrator order on exponential decay
    exact = math.exp(-1.0)
    errs = [abs(float(integrate(lambda y: -y, np.array([1.0]), 1.0, dt)[0]) - exact)
            for dt in (0.1, 0.05)]
    order = math.log2(errs[0] / errs[1])
    assert 3.5 <= order <= 4.5
    # two-state chain stationary vector
    P = validate_stochastic([[0.9, 0.1], [0.2, 0.8]])
    pi = stationary_distribution(P)
    assert pi.pi == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-9)
    # flat landscape: every proposal is accepted
    from cycleclust.generate import FLAT
    traj = hmc_with_drift(FLAT, (0.0, 0.0), beta=1.0, n_steps=3000,
                          drift_mag=0.0, seed=8)
    moved = np.any(traj.points[1:] != traj.points[:-1], axis=1)
    assert moved.all()


@report(9, "the clustering beats a spectral phase cut on the ring and a landscape")
def test_criterion_9_beats_the_spectral_baseline():
    """The abstract's claim against classical spectral analysis, on the
    200-state ring oscillator (0.1185 against 0.0531) and on landscape base
    2 of the benchmark (0.00438 against 0.00089), its one base chain whose
    P has complex eigenvalues. The heuristics of a node_limit=0 solve
    already win."""
    ring, _, _ = generate_repressilator_instance(count=200)
    traj = hmc_with_drift(OMEGA3, OMEGA3.minima[0], beta=HMC_BETA, n_steps=10000,
                          drift_mag=0.15, seed=HMC_SEED + 2)
    landscape = hmc_transition_matrix(traj, select_bin_centers(traj, 16))
    for tm in (ring, landscape):
        w = flow_matrix(tm, stationary_distribution(tm))
        result = branch_and_bound(build_mip(w, 3, ALPHA), w, SolverConfig(node_limit=0))
        _, baseline = phase_clustering(tm.entries, w, 3, ALPHA)
        assert objective(w, result.incumbent, ALPHA).total > baseline
