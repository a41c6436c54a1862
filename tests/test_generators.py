import itertools

import numpy as np
import pytest

from cycleclust.errors import TooFewPointsError
from cycleclust.generate import (
    FLAT,
    OMEGA3,
    OMEGA4,
    OMEGA6,
    DriftState,
    drift_vector,
    fill_distance,
    hmc_transition_matrix,
    hmc_with_drift,
    low_discrepancy_points,
    rbf_membership,
    select_bin_centers,
    update_drift,
)
from cycleclust.generate.binning import _distinct_rows
from cycleclust.generate.hmc import Trajectory
from cycleclust.markov import validate_stochastic


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


class TestDrift:
    def test_target_advances_inside_capture_disk(self):
        s = DriftState(minima=OMEGA3.minima, drift_mag=0.1, target_index=0,
                       position=OMEGA3.minima[0])
        assert update_drift(s).target_index == 1

    def test_target_unchanged_far_away(self):
        s = DriftState(minima=OMEGA3.minima, drift_mag=0.1, target_index=1,
                       position=(5.0, 5.0))
        s2 = update_drift(s)
        assert s2.target_index == 1
        v = drift_vector(s2)
        # re-aimed at the current target from the new position
        direction = np.array(OMEGA3.minima[1]) - np.array([5.0, 5.0])
        np.testing.assert_allclose(v, 0.1 * direction / np.linalg.norm(direction),
                                   atol=1e-12)

    def test_full_cycle_returns_to_start(self):
        s = DriftState(minima=OMEGA3.minima, drift_mag=0.1, target_index=0,
                       position=OMEGA3.minima[0])
        for k in (1, 2, 0):
            s = DriftState(minima=s.minima, drift_mag=s.drift_mag,
                           target_index=s.target_index,
                           position=s.minima[s.target_index])
            s = update_drift(s)
            assert s.target_index == k

    def test_drift_magnitude(self):
        s = DriftState(minima=OMEGA3.minima, drift_mag=0.17, target_index=2,
                       position=(3.0, -2.0))
        assert np.linalg.norm(drift_vector(s)) == pytest.approx(0.17, abs=1e-12)


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
