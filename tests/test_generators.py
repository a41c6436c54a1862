import itertools
import math

import numpy as np
import pytest

from cycleclust.errors import DegenerateRowError, TooFewPointsError
from cycleclust.generate import (
    FLAT,
    OMEGA3,
    OMEGA4,
    OMEGA6,
    Potential,
    fill_distance,
    hmc_transition_matrix,
    hmc_with_drift,
    low_discrepancy_points,
    rbf_membership,
    select_bin_centers,
)
from cycleclust.generate.binning import _distinct_rows
from cycleclust.generate.hmc import BLOCK_STEPS, CAPTURE_RADIUS, PROPOSAL_STD, Trajectory
from cycleclust.markov import validate_stochastic

import hmc_oracle


class TestPotentials:
    def test_well_centers_are_low_points(self):
        rng = np.random.default_rng(0)
        for pot in (OMEGA3, OMEGA4, OMEGA6):
            wells = np.array(pot.minima)
            well_values = pot.energy(wells)
            probes = rng.uniform(-3, 3, size=(200, 2))
            assert well_values.max() < np.median(pot.energy(probes))

    def test_omega3_mirror_symmetry(self):
        pts = np.array([[0.3, -0.4], [1.2, 0.7], [0.05, -1.1]])
        mirrored = pts * np.array([-1.0, 1.0])
        np.testing.assert_allclose(OMEGA3.energy(pts), OMEGA3.energy(mirrored),
                                   atol=1e-12)

    def test_omega3_center_is_a_bump(self):
        center = OMEGA3.energy(np.array([0.0, 0.0]))
        ring = OMEGA3.energy(np.array([[0.3, 0.0], [0.0, 0.3], [-0.3, 0.0]]))
        assert np.all(ring < center)

    def test_well_counts(self):
        assert len(OMEGA3.minima) == 3
        assert len(OMEGA4.minima) == 4
        assert len(OMEGA6.minima) == 6

    @pytest.mark.parametrize("pot", [OMEGA3, OMEGA4, OMEGA6, FLAT], ids=lambda p: p.kind)
    def test_energy_is_the_formulas_bit_for_bit(self, pot):
        formula = hmc_oracle.FORMULAS[pot.kind]
        points = np.random.default_rng(0).normal(0.0, 2.0, size=(20_000, 2))
        points[:3] = (0.0, 0.0), (0.0, 1.0), (-40.0, 30.0)  # centres; every exp underflows
        assert np.array_equal(pot.energy(points), hmc_oracle.energy(formula, points))
        grid = points[:120].reshape(4, 30, 2)
        assert np.array_equal(pot.energy(grid), hmc_oracle.energy(formula, grid))
        one = pot.energy(points[7])
        assert np.ndim(one) == 0 and one == hmc_oracle.energy(formula, points[7])

    @pytest.mark.parametrize("pot", [OMEGA3, OMEGA4, OMEGA6, FLAT], ids=lambda p: p.kind)
    def test_scalar_energies_are_the_array_energies_bit_for_bit(self, pot):
        # the sampler's path: Python floats, one np.exp over the exponents
        points = np.random.default_rng(1).normal(0.0, 2.0, size=(20_000, 2))
        scalar = [pot.total(np.exp(pot.exponents(x, y)).tolist()) for x, y in points.tolist()]
        assert np.array_equal(scalar, pot.energy(points))


# OMEGA3's wells on a zero-energy landscape: every proposal is accepted
FLAT3 = Potential("flat3", FLAT.terms, OMEGA3.minima)
WELLS = np.array(OMEGA3.minima)


def _walk(x0, drift_mag, n_steps=400, seed=11):
    """Positions of a walk on FLAT3 and the drift of each of its steps.

    drifts[j] is the drift of the step from points[j] to points[j + 1],
    recovered by taking the seed's noise off the move."""
    points = hmc_with_drift(FLAT3, x0, beta=1.0, n_steps=n_steps,
                            drift_mag=drift_mag, seed=seed).points
    noise = np.random.default_rng(seed).normal(0.0, PROPOSAL_STD, size=(n_steps, 2))
    return points, points[1:] - points[:-1] - noise[1:]


def _aimed_wells(points, drifts):
    """The well each drift points at, from the position the step left."""
    to_wells = WELLS[None, :, :] - points[:-1, None, :]
    to_wells /= np.linalg.norm(to_wells, axis=2, keepdims=True)
    unit = drifts / np.linalg.norm(drifts, axis=1, keepdims=True)
    cosines = np.einsum("skd,sd->sk", to_wells, unit)
    np.testing.assert_allclose(cosines.max(axis=1), 1.0, atol=1e-9)
    return cosines.argmax(axis=1)


class TestDrift:
    def test_drift_magnitude(self):
        _, drifts = _walk((3.0, -2.0), drift_mag=0.17)
        np.testing.assert_allclose(np.linalg.norm(drifts, axis=1), 0.17, atol=1e-12)

    def test_target_unchanged_far_away(self):
        # until the walk first enters well 0's capture disk, every drift
        # is aimed at well 0 from the position the step left
        points, drifts = _walk((5.0, 5.0), drift_mag=0.17)
        dist = np.linalg.norm(points - WELLS[0], axis=1)
        first = int(np.argmax(dist <= CAPTURE_RADIUS))
        assert first > 10
        toward = WELLS[0] - points[:first]
        expected = 0.17 * toward / np.linalg.norm(toward, axis=1, keepdims=True)
        np.testing.assert_allclose(drifts[:first], expected, atol=1e-12)

    def test_target_advances_inside_capture_disk(self):
        # the target advances once, exactly after a move that lands within
        # CAPTURE_RADIUS of it, and otherwise stays
        points, drifts = _walk((3.0, -2.0), drift_mag=0.17)
        aimed = _aimed_wells(points, drifts)
        assert aimed[0] == 0
        captured = np.linalg.norm(points[1:-1] - WELLS[aimed[:-1]], axis=1) <= CAPTURE_RADIUS
        np.testing.assert_array_equal(aimed[1:], np.where(captured, (aimed[:-1] + 1) % 3,
                                                          aimed[:-1]))
        assert captured.sum() >= 3

    def test_full_cycle_returns_to_start(self):
        points, drifts = _walk((3.0, -2.0), drift_mag=0.17)
        aimed = _aimed_wells(points, drifts)
        visits = aimed[np.r_[True, aimed[1:] != aimed[:-1]]]
        assert visits[:4].tolist() == [0, 1, 2, 0]

    def test_drift_is_zero_when_the_walk_starts_on_its_target(self):
        # the capture test runs only after a move, so the first step is
        # still aimed at well 0, on which it starts
        _, drifts = _walk(OMEGA3.minima[0], drift_mag=0.17)
        assert np.linalg.norm(drifts[0]) < 1e-12
        assert np.linalg.norm(drifts[1]) == pytest.approx(0.17, abs=1e-12)

    def test_no_drift_when_its_magnitude_is_zero(self):
        _, drifts = _walk((3.0, -2.0), drift_mag=0.0)
        assert np.abs(drifts).max() < 1e-12


class TestHmcSampler:
    def test_flat_potential_accepts_everything(self):
        traj = hmc_with_drift(FLAT, (0.0, 0.0), beta=1.0, n_steps=2000,
                              drift_mag=0.0, seed=3)
        moved = np.any(traj.points[1:] != traj.points[:-1], axis=1)
        assert moved.all()

    def test_cold_runs_accept_almost_no_uphill_moves(self):
        traj = hmc_with_drift(OMEGA3, OMEGA3.minima[0], beta=1e6,
                              n_steps=5000, drift_mag=0.1, seed=4)
        pts = traj.points
        energies = OMEGA3.energy(pts)
        accepted = np.any(pts[1:] != pts[:-1], axis=1)
        uphill = energies[1:] > energies[:-1] + 1e-12
        assert accepted.sum() > 0
        assert (accepted & uphill).sum() / max(accepted.sum(), 1) < 0.001

    def test_deterministic_for_fixed_seed(self):
        a = hmc_with_drift(OMEGA3, OMEGA3.minima[0], beta=0.5, n_steps=500,
                           drift_mag=0.1, seed=5)
        b = hmc_with_drift(OMEGA3, OMEGA3.minima[0], beta=0.5, n_steps=500,
                           drift_mag=0.1, seed=5)
        assert np.array_equal(a.points, b.points)

    @pytest.mark.parametrize("beta, drift_mag", [
        (math.nan, 0.1), (math.inf, 0.1), (0.0, 0.1), (-1.0, 0.1),
        (0.5, math.nan), (0.5, math.inf), (0.5, -0.5),
    ])
    def test_beta_outside_finite_positive_or_negative_drift_is_refused(self, beta, drift_mag):
        # NaN once froze the walk, and an infinite drift divided inf by inf
        with pytest.raises(ValueError, match="must be finite"):
            hmc_with_drift(OMEGA3, OMEGA3.minima[0], beta=beta, n_steps=500,
                           drift_mag=drift_mag, seed=1)

    @pytest.mark.parametrize("x0", [
        5.0, (1.0,), (1.0, 2.0, 3.0), [[0.0, 0.0]], (math.nan, 0.0), (0.0, math.inf),
        ("a", "b"), None,
    ])
    def test_start_that_is_not_two_finite_numbers_is_refused(self, x0):
        # a scalar 5.0 used to broadcast into a (5, 5) start, and a NaN one
        # gave an all-NaN trajectory
        with pytest.raises(ValueError, match="x0 must be two finite numbers"):
            hmc_with_drift(OMEGA3, x0, beta=0.5, n_steps=50, drift_mag=0.1, seed=1)

    @pytest.mark.parametrize("n_steps", [10.5, 10.0, "10", 1, 0, -3])
    def test_step_count_that_is_not_an_integer_of_two_or_more_is_refused(self, n_steps):
        with pytest.raises(ValueError, match="n_steps must be an integer of at least 2"):
            hmc_with_drift(OMEGA3, OMEGA3.minima[0], beta=0.5, n_steps=n_steps,
                           drift_mag=0.1, seed=1)

    def test_potential_without_wells_is_refused(self):
        # the first drift target is well 0, so an empty table of wells once
        # died with an IndexError
        with pytest.raises(ValueError, match="potential 'bare' has no wells"):
            hmc_with_drift(Potential("bare", (), ()), (0.0, 0.0), beta=0.5, n_steps=50,
                           drift_mag=0.1, seed=1)

    def test_numpy_integer_steps_and_integer_start_are_accepted(self):
        a = hmc_with_drift(OMEGA3, (0, 0), beta=0.5, n_steps=np.int64(40),
                           drift_mag=0.1, seed=1)
        b = hmc_with_drift(OMEGA3, (0.0, 0.0), beta=0.5, n_steps=40,
                           drift_mag=0.1, seed=1)
        assert a.points.shape == (40, 2)
        assert np.array_equal(a.points, b.points)

    @pytest.mark.parametrize("pot", [OMEGA3, OMEGA4, OMEGA6], ids=lambda p: p.kind)
    @pytest.mark.parametrize("drift_mag", [0, 0.1, 0.5, 2])
    def test_trajectories_are_the_reference_samplers_bit_for_bit(self, pot, drift_mag):
        formula = hmc_oracle.FORMULAS[pot.kind]
        for beta in (0.1, 0.5, 3):
            for x0 in (pot.minima[0], (0.0, 0.0), (2.5, -1.0)):
                got = hmc_with_drift(pot, x0, beta=beta, n_steps=300,
                                     drift_mag=drift_mag, seed=17).points
                want = hmc_oracle.hmc_with_drift(formula, pot.minima, x0, beta=beta,
                                                 n_steps=300, drift_mag=drift_mag, seed=17)
                assert np.array_equal(got, want), (beta, x0)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (beta, x0)

    @pytest.mark.parametrize("n_steps", [BLOCK_STEPS, BLOCK_STEPS + 1, 2 * BLOCK_STEPS + 3])
    def test_trajectories_across_blocks_are_the_reference_samplers(self, n_steps):
        got = hmc_with_drift(OMEGA4, (0.0, 0.0), beta=0.5, n_steps=n_steps,
                             drift_mag=0.5, seed=23).points
        want = hmc_oracle.hmc_with_drift(hmc_oracle.omega4, OMEGA4.minima, (0.0, 0.0),
                                         beta=0.5, n_steps=n_steps, drift_mag=0.5, seed=23)
        assert np.array_equal(got, want)

    def test_flat_trajectory_is_the_reference_samplers_bit_for_bit(self):
        got = hmc_with_drift(FLAT3, (3.0, -2.0), beta=1.0, n_steps=300,
                             drift_mag=0.17, seed=11).points
        want = hmc_oracle.hmc_with_drift(hmc_oracle.flat, FLAT3.minima, (3.0, -2.0),
                                         beta=1.0, n_steps=300, drift_mag=0.17, seed=11)
        assert np.array_equal(got, want)

    def test_occupancy_covers_all_wells(self):
        """Regression-pinned occupancy of the acceptance-scale run."""
        traj = hmc_with_drift(OMEGA3, OMEGA3.minima[0], beta=0.5,
                              n_steps=10000, drift_mag=0.1, seed=42)
        mins = np.array(OMEGA3.minima)
        d2 = ((traj.points[:, None, :] - mins[None, :, :]) ** 2).sum(-1)
        occ = np.bincount(d2.argmin(1), minlength=3) / len(traj.points)
        assert occ.min() > 0.10
        np.testing.assert_allclose(occ, [0.3586, 0.4224, 0.2190], atol=1e-12)

    def test_deep_quench_never_leaves_the_basin(self):
        """At strong cooling the walker cannot climb to the top well; this
        pins the metastable trap that motivates the acceptance run's
        temperature choice."""
        traj = hmc_with_drift(OMEGA3, OMEGA3.minima[0], beta=4.0,
                              n_steps=10000, drift_mag=0.1, seed=42)
        mins = np.array(OMEGA3.minima)
        d2 = ((traj.points[:, None, :] - mins[None, :, :]) ** 2).sum(-1)
        occ = np.bincount(d2.argmin(1), minlength=3) / len(traj.points)
        assert occ[2] == 0.0


class TestBinCenters:
    def test_all_points_selected_gives_zero_fill_distance(self):
        rng = np.random.default_rng(6)
        pts = rng.random((15, 2))
        traj = Trajectory(points=pts, seed=0, params={})
        centers = select_bin_centers(traj, 15)
        assert fill_distance(pts, centers) == 0.0

    def test_collinear_extremes(self):
        pts = np.stack([np.arange(11.0), np.zeros(11)], axis=1)
        centers = select_bin_centers(Trajectory(pts, 0, {}), 2)
        assert sorted(c[0] for c in centers) == [0.0, 10.0]

    def test_duplicates_are_collapsed(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        assert len(_distinct_rows(pts)) == 2
        with pytest.raises(TooFewPointsError):
            select_bin_centers(Trajectory(pts, 0, {}), 3)

    @pytest.mark.parametrize("n", [0, -2])
    def test_fewer_than_one_center_is_refused(self, n):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="at least one center"):
            select_bin_centers(Trajectory(pts, 0, {}), n)

    def test_two_approximation_of_optimal_fill_distance(self):
        rng = np.random.default_rng(7)
        for trial in range(6):
            pts = rng.random((11, 2))
            n = int(rng.integers(2, 5))
            greedy = select_bin_centers(Trajectory(pts, 0, {}), n)
            h_greedy = fill_distance(pts, greedy)
            h_best = min(
                fill_distance(pts, pts[list(combo)])
                for combo in itertools.combinations(range(len(pts)), n)
            )
            assert h_greedy <= 2.0 * h_best + 1e-12


class TestRbfMembership:
    def test_equidistant_point_splits_evenly(self):
        centers = np.array([[0.0, 0.0], [2.0, 0.0]])
        phi = rbf_membership(np.array([1.0, 0.7]), centers)
        np.testing.assert_allclose(phi, [0.5, 0.5], atol=1e-12)

    def test_far_centers_underflow_to_pure_membership(self):
        centers = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        phi = rbf_membership(np.array([0.0, 0.0]), centers)
        assert phi[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_formula(self):
        centers = np.array([[0.0, 0.0], [1.0, 0.5], [-0.5, 2.0]])
        x = np.array([0.25, 0.4])
        raw = [np.exp(-((x - c) ** 2).sum()) for c in centers]
        expected = np.array(raw) / sum(raw)
        np.testing.assert_allclose(rbf_membership(x, centers), expected, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(50, 2))
        centers = rng.normal(size=(7, 2))
        phi = rbf_membership(pts, centers)
        assert np.all(phi > 0)
        np.testing.assert_allclose(phi.sum(axis=1), 1.0, atol=1e-12)


class TestHmcTransitionMatrix:
    def test_constant_trajectory_repeats_membership_row(self):
        pts = np.tile(np.array([[0.3, -0.2]]), (6, 1))
        centers = np.array([[0.0, 0.0], [1.0, 1.0]])
        tm = hmc_transition_matrix(Trajectory(pts, 0, {}), centers)
        phi = rbf_membership(pts[0], centers)
        for row in tm.entries:
            np.testing.assert_allclose(row, phi, atol=1e-12)

    def test_matches_hand_summation(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
        centers = np.array([[0.0, 0.0], [1.0, 0.0]])
        phi = rbf_membership(pts, centers)
        num = np.zeros((2, 2))
        den = np.zeros(2)
        for k in range(2):  # lag 1: pairs (0,1), (1,2)
            for i in range(2):
                den[i] += phi[k, i]
                for j in range(2):
                    num[i, j] += phi[k, i] * phi[k + 1, j]
        expected = num / den[:, None]
        tm = hmc_transition_matrix(Trajectory(pts, 0, {}), centers, lag=1)
        np.testing.assert_allclose(tm.entries, expected, atol=1e-12)

    def test_generated_instance_is_stochastic(self):
        traj = hmc_with_drift(OMEGA3, OMEGA3.minima[0], beta=0.5,
                              n_steps=2000, drift_mag=0.1, seed=9)
        centers = select_bin_centers(traj, 10)
        tm = hmc_transition_matrix(traj, centers)
        validate_stochastic(tm.entries)

    def test_center_far_from_every_point_is_a_degenerate_row(self):
        """A center no trajectory point comes near gets no membership weight:
        its row would divide by zero, and the estimate refuses it."""
        traj = hmc_with_drift(OMEGA3, OMEGA3.minima[0], beta=0.5,
                              n_steps=200, drift_mag=0.1, seed=9)
        centers = np.vstack([traj.points[:2], [[100.0, 0.0]]])
        with pytest.raises(DegenerateRowError, match="row 2 has vanishing weight 0.0") as info:
            hmc_transition_matrix(traj, centers)
        assert (info.value.row, info.value.denominator) == (2, 0.0)

    def test_lag_two_uses_shifted_pairs(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        centers = np.array([[0.0, 0.0], [1.0, 1.0]])
        phi = rbf_membership(pts, centers)
        expected = (phi[:2].T @ phi[2:]) / phi[:2].sum(axis=0)[:, None]
        tm = hmc_transition_matrix(Trajectory(pts, 0, {}), centers, lag=2)
        np.testing.assert_allclose(tm.entries, expected, atol=1e-12)


class TestLowDiscrepancy:
    def test_first_point_matches_radical_inverses(self):
        pts = low_discrepancy_points(1, 2, 0.0, 20.0)
        np.testing.assert_allclose(pts[0], [20.0 / 2.0, 20.0 / 3.0], atol=1e-12)

    def test_all_points_inside_box(self):
        pts = low_discrepancy_points(300, 6, -2.0, 5.0)
        assert pts.shape == (300, 6)
        assert pts.min() >= -2.0 and pts.max() <= 5.0

    def test_beats_uniform_baseline_on_box_discrepancy(self):
        count, dim = 200, 6
        halton = low_discrepancy_points(count, dim, 0.0, 20.0) / 20.0
        rng = np.random.default_rng(10)
        uniform = rng.random((count, dim))
        probes = rng.random((400, dim)) ** 0.5  # bias toward larger boxes

        def proxy(cloud):
            worst = 0.0
            for u in probes:
                frac = np.mean(np.all(cloud < u[None, :], axis=1))
                worst = max(worst, abs(frac - np.prod(u)))
            return worst

        assert proxy(halton) < proxy(uniform)


def test_star_import_resolves_every_name_in_all():
    import cycleclust.generate as generate
    namespace = {}
    exec("from cycleclust.generate import *", namespace)
    assert set(generate.__all__) <= namespace.keys()
