import numpy as np
import pytest

from cycleclust.clustering import CycleClustering
from cycleclust.errors import (
    BalanceViolationError,
    DimensionMismatchError,
    NegativeEntryError,
    NonFiniteEntryError,
    NonUniqueStationaryError,
    NotConvergedError,
    OverlappingSetsError,
    RowSumViolationError,
)
from cycleclust.generate.triangle import triangle_fixture
from cycleclust.markov import (
    FlowMatrix,
    ProjectedMatrix,
    StationaryDistribution,
    TransitionMatrix,
    coherence,
    flow_matrix,
    net_flow,
    project,
    stationary_distribution,
    validate_stochastic,
)

from util import loop_coherence, random_chain, random_clustering


# validate_stochastic(raw) is TransitionMatrix(raw); both must refuse the same
@pytest.mark.parametrize("check", [validate_stochastic, TransitionMatrix])
class TestValidateStochastic:
    def test_identity_is_valid(self, check):
        tm = check(np.eye(2))
        assert tm.n == 2

    def test_row_sum_violation_reports_row_and_sum(self, check):
        with pytest.raises(RowSumViolationError) as err:
            check([[0.5, 0.6], [0.2, 0.8]])
        assert err.value.row == 0
        assert err.value.row_sum == pytest.approx(1.1)

    def test_negative_entry_reports_position(self, check):
        with pytest.raises(NegativeEntryError) as err:
            check([[0.9, 0.1], [-0.1, 1.1]])
        assert (err.value.row, err.value.col) == (1, 0)

    def test_rejects_non_square(self, check):
        with pytest.raises(DimensionMismatchError):
            check(np.ones((2, 3)) / 3)

    def test_rejects_empty(self, check):
        with pytest.raises(DimensionMismatchError):
            check(np.zeros((0, 0)))

    def test_rejects_non_finite(self, check):
        with pytest.raises(NonFiniteEntryError):
            check([[np.nan, 1.0], [0.5, 0.5]])

    def test_tolerance_boundary(self, check):
        check([[0.5, 0.5 + 9e-10], [0.0, 1.0]])
        with pytest.raises(RowSumViolationError):
            check([[0.5, 0.5 + 2e-9], [0.0, 1.0]])


class TestStationaryDistribution:
    def test_period_two_chain_averages_to_uniform(self):
        P = validate_stochastic([[0.0, 1.0], [1.0, 0.0]])
        pi = stationary_distribution(P)
        assert pi.pi == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_two_state_chain_known_value(self):
        P = validate_stochastic([[0.9, 0.1], [0.2, 0.8]])
        pi = stationary_distribution(P)
        assert pi.pi == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-9)

    def test_identity_detected_as_non_unique(self):
        with pytest.raises(NonUniqueStationaryError):
            stationary_distribution(validate_stochastic(np.eye(3)))

    def test_three_cycle_does_not_converge(self):
        P = validate_stochastic([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        with pytest.raises(NotConvergedError):
            stationary_distribution(P, max_iter=2000)

    def test_residual_bound_on_random_chains(self):
        for seed in range(5):
            P, pi, _ = random_chain(6, seed)
            assert np.max(np.abs(pi.pi @ P.entries - pi.pi)) <= 1e-8
            assert pi.pi.sum() == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_tolerance(self):
        P = validate_stochastic(np.eye(2))
        with pytest.raises(ValueError):
            stationary_distribution(P, tol=0.0)


class TestFlowMatrix:
    def test_period_two_flow(self):
        P = validate_stochastic([[0.0, 1.0], [1.0, 0.0]])
        w = flow_matrix(P, stationary_distribution(P))
        np.testing.assert_allclose(w.entries, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)

    def test_two_state_flow_values(self):
        P = validate_stochastic([[0.9, 0.1], [0.2, 0.8]])
        w = flow_matrix(P, stationary_distribution(P))
        expected = [[0.6, 1.0 / 15.0], [1.0 / 15.0, 4.0 / 15.0]]
        np.testing.assert_allclose(w.entries, expected, atol=1e-9)

    def test_dimension_mismatch(self):
        P = validate_stochastic(np.eye(2))
        _, pi3, _ = random_chain(3, 0)
        with pytest.raises(DimensionMismatchError):
            flow_matrix(P, pi3)

    def test_row_sums_equal_column_sums(self):
        for seed in range(4):
            _, _, w = random_chain(7, seed)
            assert np.abs(w.entries.sum(0) - w.entries.sum(1)).max() <= 1e-8
            assert w.total_mass == pytest.approx(1.0, abs=1e-8)

    def test_unbalanced_matrix_rejected(self):
        with pytest.raises(BalanceViolationError):
            FlowMatrix(np.array([[0.0, 0.7], [0.3, 0.0]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntryError):
            FlowMatrix(np.array([[0.5, -0.1], [-0.1, 0.7]]))


class TestNetFlowCoherence:
    def test_antisymmetry_is_exact(self):
        _, _, w = random_chain(8, 3)
        rng = np.random.default_rng(0)
        for _ in range(25):
            labels = set(range(1, 9))
            a = set(rng.choice(sorted(labels), size=3, replace=False).tolist())
            b_pool = sorted(labels - a)
            b = set(rng.choice(b_pool, size=2, replace=False).tolist())
            assert net_flow(w, a, b) + net_flow(w, b, a) == 0.0

    def test_triangle_hub_flow_value(self):
        w = triangle_fixture()
        assert net_flow(w, {1, 4, 5}, {2, 6, 7}) == pytest.approx(0.1 / 9.0, abs=1e-12)

    def test_symmetric_flow_vanishes(self):
        rng = np.random.default_rng(1)
        sym = rng.random((6, 6))
        sym = (sym + sym.T) / 2.0
        sym /= sym.sum()
        w = FlowMatrix(sym)
        assert net_flow(w, {1, 2}, {4, 6}) == pytest.approx(0.0, abs=1e-15)

    def test_overlap_rejected(self):
        _, _, w = random_chain(5, 0)
        with pytest.raises(OverlappingSetsError):
            net_flow(w, {1, 2}, {2, 3})

    def test_coherence_full_set_is_total_mass(self):
        _, _, w = random_chain(6, 2)
        assert coherence(w, range(1, 7)) == pytest.approx(1.0, abs=1e-8)

    def test_coherence_empty_set(self):
        _, _, w = random_chain(4, 2)
        assert coherence(w, set()) == 0.0

    def test_coherence_matches_loop_oracle_on_triangle(self):
        w = triangle_fixture()
        expected = loop_coherence(w.entries.tolist(), [1, 4, 5])
        assert coherence(w, {1, 4, 5}) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(2.8 / 9.0, abs=1e-12)

    def test_union_identity(self):
        _, _, w = random_chain(9, 5)
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = set(int(v) for v in rng.choice(9, size=3, replace=False) + 1)
            rest = sorted(set(range(1, 10)) - a)
            b = set(int(v) for v in rng.choice(rest, size=3, replace=False))
            cross = (w.entries[np.ix_(sorted(i - 1 for i in a),
                                      sorted(j - 1 for j in b))].sum()
                     + w.entries[np.ix_(sorted(j - 1 for j in b),
                                        sorted(i - 1 for i in a))].sum())
            lhs = coherence(w, a | b)
            rhs = coherence(w, a) + coherence(w, b) + cross
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestProject:
    def test_single_cluster_aggregates_everything(self):
        _, _, w = random_chain(5, 7)
        c = CycleClustering(n=5, m=1, assignment=np.ones(5, dtype=int))
        p = project(w, c)
        assert p.entries.shape == (1, 1)
        assert p.entries[0, 0] == pytest.approx(w.total_mass, abs=1e-12)

    def test_delta_has_zero_margins(self):
        rng = np.random.default_rng(3)
        for seed in range(4):
            _, _, w = random_chain(8, seed + 20)
            for m in (3, 4, 5):
                c = CycleClustering(n=8, m=m,
                                    assignment=random_clustering(8, m, rng))
                d = project(w, c).delta()
                assert np.abs(np.diag(d)).max() == 0.0
                assert np.abs(d.sum(axis=0)).max() <= 1e-10
                assert np.abs(d.sum(axis=1)).max() <= 1e-10

    def test_three_cluster_epsilon_structure(self):
        rng = np.random.default_rng(4)
        for seed in range(4):
            _, _, w = random_chain(7, seed + 40)
            c = CycleClustering(n=7, m=3, assignment=random_clustering(7, 3, rng))
            d = project(w, c).delta()
            eps = d[0, 1]
            assert d[1, 2] == pytest.approx(eps, abs=1e-10)
            assert d[2, 0] == pytest.approx(eps, abs=1e-10)

    def test_diagonal_equals_coherence_exactly(self):
        _, _, w = random_chain(6, 9)
        c = CycleClustering(n=6, m=3, assignment=np.array([1, 2, 3, 1, 2, 3]))
        p = project(w, c)
        for k in range(1, 4):
            assert p.entries[k - 1, k - 1] == coherence(w, c.members(k))

    def test_identity_clustering_returns_matrix_itself(self):
        _, _, w = random_chain(5, 11)
        c = CycleClustering(n=5, m=5, assignment=np.arange(1, 6))
        assert np.array_equal(project(w, c).entries, w.entries)

    def test_dimension_mismatch(self):
        _, _, w = random_chain(5, 11)
        c = CycleClustering(n=4, m=2, assignment=np.array([1, 2, 1, 2]))
        with pytest.raises(DimensionMismatchError):
            project(w, c)


def test_bin_sets_accept_any_iterable():
    _, _, w = random_chain(5, 60)
    gen_a = (b for b in (1, 2))
    gen_b = (b for b in (4, 5))
    assert net_flow(w, gen_a, gen_b) == net_flow(w, {1, 2}, {4, 5})
    assert coherence(w, iter((2, 3))) == coherence(w, {2, 3})


class TestOwnedEntries:
    """The matrix types check their input and keep a read-only float copy."""

    def test_nested_lists_are_accepted(self):
        assert TransitionMatrix([[0.5, 0.5], [0, 1]]).entries.dtype == float
        # a FlowMatrix of lists once died reading `ndim` off the list
        fm = FlowMatrix([[0.5, 0], [0, 0.5]])
        assert fm.entries.tolist() == [[0.5, 0.0], [0.0, 0.5]]

    @pytest.mark.parametrize("make,field,raw", [
        (TransitionMatrix, "entries", [[0.5, 0.5], [0.5, 0.5]]),
        (FlowMatrix, "entries", [[0.5, 0.5], [0.5, 0.5]]),
        (ProjectedMatrix, "entries", [[0.5, 0.5], [0.5, 0.5]]),
        (StationaryDistribution, "pi", [0.5, 0.5]),
    ])
    def test_later_writes_to_the_input_change_nothing(self, make, field, raw):
        a = np.array(raw)
        value = make(a)
        before = getattr(value, field).copy()
        a.flat[1] = 7.0  # would unbalance a FlowMatrix
        assert np.array_equal(getattr(value, field), before)
        with pytest.raises(ValueError):
            getattr(value, field).flat[1] = 7.0

    def test_flow_matrix_checks_like_a_transition_matrix(self):
        with pytest.raises(DimensionMismatchError):
            FlowMatrix(np.zeros((0, 0)))
        with pytest.raises(DimensionMismatchError):
            FlowMatrix(np.ones(3))
        with pytest.raises(NonFiniteEntryError):
            FlowMatrix([[np.inf, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("make, shape_msg, finite_msg", [
        (TransitionMatrix, "expected a square matrix, got shape (2, 3)",
         "matrix has non-finite entries"),
        (FlowMatrix, "flow matrix must be square, got (2, 3)",
         "flow matrix has non-finite entries"),
    ])
    def test_each_type_keeps_its_messages(self, make, shape_msg, finite_msg):
        with pytest.raises(DimensionMismatchError) as err:
            make(np.ones((2, 3)) / 3)
        assert str(err.value) == shape_msg
        with pytest.raises(NonFiniteEntryError) as err:
            make([[np.nan, 0.0], [0.0, 1.0]])
        assert str(err.value) == finite_msg

    def test_flow_matrix_of_a_chain_keeps_the_products_bits(self):
        P, pi, w = random_chain(6, 8)
        assert np.array_equal(w.entries, pi.pi[:, None] * P.entries)
