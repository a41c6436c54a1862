import numpy as np
import pytest

from cycleclust.clustering import CycleClustering, objective
from cycleclust.errors import DimensionMismatchError, InvalidClusterCountError, TooLargeError
from cycleclust.generate.triangle import triangle_fixture
from cycleclust.heuristics import (
    brute_force,
    exchange_improvement,
    greedy_heuristic,
    rounding_heuristic,
)
from cycleclust.markov import FlowMatrix
from cycleclust.mip import build_mip, solution_values
from cycleclust.simplex import solve_lp

from util import random_chain, random_clustering


def symmetric_flow(n, seed):
    rng = np.random.default_rng(seed)
    sym = rng.random((n, n))
    sym = (sym + sym.T) / 2.0
    return FlowMatrix(sym / sym.sum())


class TestGreedy:
    def test_equal_bins_and_clusters_gives_permutation(self):
        _, _, w = random_chain(5, 0)
        c = greedy_heuristic(w, 5, 0.001)
        assert sorted(c.assignment.tolist()) == [1, 2, 3, 4, 5]

    def test_bin_one_seeds_cluster_one(self):
        _, _, w = random_chain(7, 1)
        c = greedy_heuristic(w, 3, 0.001)
        assert c.assignment[0] == 1

    def test_always_feasible(self):
        rng = np.random.default_rng(2)
        for seed in range(8):
            n = int(rng.integers(4, 10))
            m = int(rng.integers(1, n + 1))
            _, _, w = random_chain(n, 400 + seed)
            c = greedy_heuristic(w, m, 0.001)
            assert c.n == n and c.m == m  # constructor validates surjectivity

    def test_symmetric_flow_gives_coherence_only(self):
        w = symmetric_flow(6, 3)
        c = greedy_heuristic(w, 3, 0.001)
        val = objective(w, c, 0.001)
        assert val.flow_part == pytest.approx(0.0, abs=1e-12)

    def test_quality_floor_on_triangle(self):
        w = triangle_fixture()
        c = greedy_heuristic(w, 3, 0.001)
        _, best = brute_force(w, 3, 0.001)
        assert objective(w, c, 0.001).total >= 0.5 * best.total


class TestRounding:
    def test_integral_solution_is_identity(self):
        _, _, w = random_chain(6, 4)
        mip = build_mip(w, 3, 0.001)
        c = CycleClustering(n=6, m=3, assignment=np.array([1, 2, 3, 1, 2, 3]))
        vals = solution_values(mip, c)
        out = rounding_heuristic(mip, vals, w)
        assert out.assignment.tolist() == c.assignment.tolist()

    def test_uniform_values_collapse_then_repair(self):
        _, _, w = random_chain(5, 5)
        mip = build_mip(w, 3, 0.001)
        vals = np.full(mip.ncols, 1.0 / 3.0)
        out = rounding_heuristic(mip, vals, w)
        assert out is not None
        assert sorted(set(out.assignment.tolist())) == [1, 2, 3]

    def test_never_beats_brute_force(self):
        for seed in range(5):
            _, _, w = random_chain(7, 500 + seed)
            mip = build_mip(w, 3, 0.001)
            lp = solve_lp(mip)
            out = rounding_heuristic(mip, lp.values, w)
            _, best = brute_force(w, 3, 0.001)
            assert objective(w, out, 0.001).total <= best.total + 1e-12


class TestExchange:
    def test_local_optimum_is_fixed_point(self):
        w = triangle_fixture()
        best, _ = brute_force(w, 3, 0.001)
        out = exchange_improvement(w, best, 0.001)
        assert out.assignment.tolist() == best.assignment.tolist()

    def test_never_decreases_objective(self):
        rng = np.random.default_rng(6)
        for seed in range(6):
            n = int(rng.integers(5, 9))
            _, _, w = random_chain(n, 600 + seed)
            c = CycleClustering(n=n, m=3, assignment=random_clustering(n, 3, rng))
            out = exchange_improvement(w, c, 0.001)
            assert objective(w, out, 0.001).total >= objective(w, c, 0.001).total - 1e-15

    def test_scrambled_triangle_start_reaches_optimum(self):
        w = triangle_fixture()
        start = CycleClustering(
            n=9, m=3, assignment=np.array([1, 1, 2, 1, 3, 2, 2, 3, 3]))
        # trace the climb: apply one documented sweep at a time
        values = [objective(w, start, 0.001).total]
        current = start
        for _ in range(30):
            improved = exchange_improvement(w, current, 0.001)
            if improved.assignment.tolist() == current.assignment.tolist():
                break
            values.append(objective(w, improved, 0.001).total)
            current = improved
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        final = objective(w, current, 0.001)
        _, best = brute_force(w, 3, 0.001)
        # from this start the climb reaches the global optimum
        assert final.total == pytest.approx(best.total, abs=1e-12)
        assert final.flow_part == pytest.approx(0.3 / 9.0, abs=1e-12)

    @pytest.mark.parametrize("n", [5, 7])
    def test_clustering_of_another_size_is_refused(self, n):
        # as `objective` refuses it; numpy's matmul used to raise ValueError
        _, _, w = random_chain(6, 5)
        c = CycleClustering(n=n, m=3, assignment=np.arange(n) % 3 + 1)
        with pytest.raises(DimensionMismatchError, match=f"clustering has {n} bins, matrix 6"):
            exchange_improvement(w, c, 0.001)
        with pytest.raises(DimensionMismatchError, match=f"clustering has {n} bins, matrix 6"):
            objective(w, c, 0.001)

    @pytest.mark.parametrize("seed", range(6))
    def test_result_is_a_local_optimum(self, seed):
        # judged by `objective` alone, independently of the gain code
        rng = np.random.default_rng(700 + seed)
        n, m = int(rng.integers(5, 12)), int(rng.integers(3, 5))
        _, _, w = random_chain(n, 700 + seed)
        start = CycleClustering(n=n, m=m, assignment=random_clustering(n, m, rng))
        out = exchange_improvement(w, start, 0.001)
        reached = objective(w, out, 0.001).total
        sizes = np.bincount(out.assignment, minlength=m + 1)
        for b in range(n):
            if sizes[out.assignment[b]] < 2:
                continue  # the move would empty a cluster
            for t in range(1, m + 1):
                moved = out.assignment.copy()
                moved[b] = t
                c = CycleClustering(n=n, m=m, assignment=moved)
                assert objective(w, c, 0.001).total <= reached + 1e-12


# What the heuristics chose on seeded chains when each computed its own
# gains, kept so that any rewrite of the gain code makes the same choices:
# (n, chain seed, m, greedy, rounding with every bin in cluster 1 and so
# forced through repair, exchange from a start drawn with seed + m).
CHOICES = [
    (6, 1401, 3, [1, 1, 3, 2, 1, 2], [1, 1, 1, 2, 1, 3], [2, 2, 1, 3, 2, 3]),
    (6, 1401, 4, [1, 1, 4, 2, 1, 3], [1, 1, 4, 2, 1, 3], [1, 1, 4, 2, 1, 3]),
    (7, 1402, 3, [1, 2, 2, 3, 3, 1, 3], [1, 1, 1, 2, 1, 3, 1], [2, 1, 3, 2, 1, 3, 2]),
    (7, 1402, 4, [1, 3, 2, 4, 4, 1, 4], [1, 1, 4, 2, 1, 3, 1], [2, 4, 3, 1, 3, 2, 1]),
    (8, 1403, 3, [1, 3, 2, 1, 1, 3, 2, 2], [1, 2, 1, 1, 3, 1, 1, 1], [3, 3, 3, 1, 1, 3, 2, 2]),
    (8, 1403, 4, [1, 4, 3, 1, 1, 4, 3, 2], [1, 2, 1, 1, 3, 1, 4, 1], [3, 2, 2, 4, 4, 3, 2, 1]),
    (9, 1404, 3, [1, 2, 3, 1, 3, 3, 2, 3, 2], [1, 1, 3, 1, 1, 1, 2, 1, 1],
     [3, 1, 2, 3, 1, 2, 1, 2, 1]),
    (9, 1404, 4, [1, 2, 4, 1, 3, 4, 3, 3, 2], [1, 1, 3, 1, 1, 4, 2, 1, 1],
     [1, 2, 4, 1, 3, 4, 3, 4, 2]),
    (10, 1405, 3, [1, 3, 2, 3, 3, 2, 3, 1, 3, 1], [1, 2, 1, 3, 1, 1, 1, 1, 1, 1],
     [2, 1, 3, 1, 1, 3, 2, 2, 1, 2]),
    (10, 1405, 4, [1, 3, 1, 3, 3, 2, 4, 4, 3, 1], [1, 2, 1, 3, 1, 1, 4, 1, 1, 1],
     [3, 1, 4, 2, 1, 4, 3, 2, 2, 3]),
    (12, 1406, 3, [1, 3, 2, 2, 3, 2, 3, 2, 2, 1, 1, 3], [1, 2, 1, 1, 1, 1, 1, 1, 1, 3, 1, 1],
     [1, 2, 2, 3, 3, 1, 1, 1, 3, 3, 2, 2]),
    (12, 1406, 4, [1, 2, 3, 3, 4, 2, 4, 4, 3, 2, 1, 2], [1, 2, 1, 1, 1, 1, 1, 1, 4, 3, 1, 1],
     [2, 3, 4, 4, 1, 2, 2, 1, 4, 4, 3, 3]),
]


@pytest.mark.parametrize("n, seed, m, greedy, repaired, exchanged", CHOICES)
def test_heuristics_keep_their_choices(n, seed, m, greedy, repaired, exchanged):
    _, _, w = random_chain(n, seed)
    assert greedy_heuristic(w, m, 0.001).assignment.tolist() == greedy
    mip = build_mip(w, m, 0.001)
    values = np.zeros(mip.ncols)
    values[: n * m].reshape(n, m)[:, 0] = 1.0
    assert rounding_heuristic(mip, values, w).assignment.tolist() == repaired
    rng = np.random.default_rng(seed + m)
    start = CycleClustering(n=n, m=m, assignment=random_clustering(n, m, rng))
    assert exchange_improvement(w, start, 0.001).assignment.tolist() == exchanged


class TestBruteForce:
    def test_three_bin_case_has_two_candidates(self):
        _, _, w = random_chain(3, 7)
        best, val = brute_force(w, 3, 0.001)
        others = [np.array([1, 2, 3]), np.array([1, 3, 2])]
        totals = [objective(w, CycleClustering(n=3, m=3, assignment=a), 0.001).total
                  for a in others]
        assert val.total == pytest.approx(max(totals), abs=1e-15)

    def test_symmetric_flow_maximizes_coherence_alone(self):
        w = symmetric_flow(7, 8)
        best, val = brute_force(w, 3, 0.001)
        assert val.flow_part == pytest.approx(0.0, abs=1e-12)
        # optimum must dominate every clustering's coherence
        rng = np.random.default_rng(9)
        for _ in range(40):
            c = CycleClustering(n=7, m=3, assignment=random_clustering(7, 3, rng))
            assert val.coherence_part >= objective(w, c, 0.001).coherence_part - 1e-12

    @pytest.mark.parametrize("m", [0, 2, 5])
    def test_cluster_count_outside_three_to_n_is_refused(self, m):
        # m = 5 > n = 4 has no surjective labelling; m = 0 none at all
        _, _, w = random_chain(4, 7)
        with pytest.raises(InvalidClusterCountError):
            brute_force(w, m, 0.001)

    def test_guard_rejects_large_instances(self):
        _, _, w = random_chain(30, 9, floor=0.2)
        with pytest.raises(TooLargeError):
            brute_force(w, 3, 0.001)

    def test_tie_break_is_lexicographic(self):
        # a perfectly symmetric matrix has many optima; the reported one
        # must be the lexicographically smallest assignment vector
        w = FlowMatrix(np.full((4, 4), 1.0 / 16.0))
        best, _ = brute_force(w, 3, 0.001)
        assert best.assignment.tolist() == [1, 1, 2, 3]
