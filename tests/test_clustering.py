import math

import numpy as np
import pytest

from cycleclust.clustering import (
    CycleClustering,
    ObjectiveValue,
    canonicalize,
    objective,
    predecessor,
    reflect,
    successor,
)
from cycleclust.errors import DimensionMismatchError, InvalidClusteringError
from cycleclust.generate import MultiwayCutInstance, multiway_cut_to_instance
from cycleclust.generate.triangle import triangle_fixture
from cycleclust.heuristics import brute_force, exchange_improvement, greedy_heuristic
from cycleclust.markov import FlowMatrix, ProjectedMatrix, coherence, net_flow, project
from cycleclust.mip import build_mip

from util import loop_objective, random_chain, random_clustering

TRIANGLE_OPT = np.array([1, 2, 3, 1, 1, 2, 2, 3, 3])


def test_successor_wraps():
    assert [successor(k, 3) for k in (1, 2, 3)] == [2, 3, 1]
    assert [predecessor(k, 3) for k in (1, 2, 3)] == [3, 1, 2]


class TestCycleClustering:
    def test_empty_cluster_rejected(self):
        with pytest.raises(InvalidClusteringError):
            CycleClustering(n=4, m=3, assignment=np.array([1, 1, 2, 2]))

    def test_out_of_range_label_rejected(self):
        with pytest.raises(InvalidClusteringError):
            CycleClustering(n=3, m=2, assignment=np.array([1, 2, 3]))

    def test_more_clusters_than_bins_rejected(self):
        with pytest.raises(InvalidClusteringError):
            CycleClustering(n=2, m=3, assignment=np.array([1, 2]))

    def test_members_are_sorted_one_based(self):
        c = CycleClustering(n=5, m=2, assignment=np.array([2, 1, 2, 1, 2]))
        assert c.members(1).tolist() == [2, 4]
        assert c.members(2).tolist() == [1, 3, 5]


class TestObjective:
    def test_symmetric_matrix_has_zero_flow(self):
        rng = np.random.default_rng(0)
        sym = rng.random((6, 6))
        sym = (sym + sym.T) / 2.0
        sym /= sym.sum()
        w = FlowMatrix(sym)
        c = CycleClustering(n=6, m=3, assignment=np.array([1, 2, 3, 1, 2, 3]))
        val = objective(w, c, 0.001)
        assert val.flow_part == pytest.approx(0.0, abs=1e-12)
        assert val.total == pytest.approx(0.001 * val.coherence_part, abs=1e-15)

    def test_triangle_flow_hits_paper_total(self):
        w = triangle_fixture()
        c = CycleClustering(n=9, m=3, assignment=TRIANGLE_OPT)
        val = objective(w, c, 0.001)
        assert val.flow_part == pytest.approx(0.3 / 9.0, abs=1e-12)
        assert val.coherence_part == pytest.approx(3 * 2.8 / 9.0, abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            n = int(rng.integers(5, 9))
            _, _, w = random_chain(n, 100 + seed)
            for m in (1, 2, 3, 4):
                if m > n:
                    continue
                labels = random_clustering(n, m, rng)
                c = CycleClustering(n=n, m=m, assignment=labels)
                val = objective(w, c, 0.001)
                flow, coh, total = loop_objective(w.entries.tolist(), labels, m, 0.001)
                assert val.flow_part == pytest.approx(flow, abs=1e-12)
                assert val.coherence_part == pytest.approx(coh, abs=1e-12)
                assert val.total == pytest.approx(total, abs=1e-12)

    def test_total_is_flow_plus_alpha_coherence(self):
        _, _, w = random_chain(7, 3)
        rng = np.random.default_rng(2)
        c = CycleClustering(n=7, m=3, assignment=random_clustering(7, 3, rng))
        val = objective(w, c, 0.25)
        assert val.total == pytest.approx(
            val.flow_part + 0.25 * val.coherence_part, abs=1e-12)
        assert 0.0 <= val.coherence_part <= 1.0 + 1e-12

    def test_small_cluster_counts_have_zero_flow(self):
        _, _, w = random_chain(6, 4)
        rng = np.random.default_rng(3)
        for m in (1, 2):
            c = CycleClustering(n=6, m=m, assignment=random_clustering(6, m, rng))
            assert objective(w, c, 0.001).flow_part == 0.0

    def test_dimension_mismatch(self):
        _, _, w = random_chain(6, 4)
        c = CycleClustering(n=5, m=3, assignment=np.array([1, 2, 3, 1, 2]))
        with pytest.raises(DimensionMismatchError):
            objective(w, c, 0.001)

    def test_alpha_must_be_positive(self):
        _, _, w = random_chain(4, 4)
        c = CycleClustering(n=4, m=2, assignment=np.array([1, 2, 1, 2]))
        with pytest.raises(ValueError):
            objective(w, c, 0.0)


ALPHA_ENTRY_POINTS = {
    "objective": lambda w, c, mc, alpha: objective(w, c, alpha),
    "build_mip": lambda w, c, mc, alpha: build_mip(w, 3, alpha),
    "greedy_heuristic": lambda w, c, mc, alpha: greedy_heuristic(w, 3, alpha),
    "exchange_improvement": lambda w, c, mc, alpha: exchange_improvement(w, c, alpha),
    "brute_force": lambda w, c, mc, alpha: brute_force(w, 3, alpha),
    "multiway_cut_to_instance": lambda w, c, mc, alpha: multiway_cut_to_instance(mc, alpha),
}


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", sorted(ALPHA_ENTRY_POINTS))
def test_alpha_outside_finite_positive_is_refused(entry, alpha):
    # a NaN alpha once sent the exchange search round forever
    _, _, w = random_chain(5, 4)
    c = CycleClustering(n=5, m=3, assignment=np.array([1, 2, 3, 1, 2]))
    mc = MultiwayCutInstance(4, ((1, 4, 1.0), (2, 4, 1.0), (3, 4, 1.0)), (1, 2, 3))
    with pytest.raises(ValueError, match="alpha must be finite and positive"):
        ALPHA_ENTRY_POINTS[entry](w, c, mc, alpha)


class TestCanonicalize:
    def test_rotation_example(self):
        c = CycleClustering(n=3, m=3, assignment=np.array([2, 3, 1]))
        canon = canonicalize(c)
        assert canon.assignment.tolist() == [1, 2, 3]

    def test_rotation_keeps_cyclic_order(self):
        # bin 1 in cluster 2: relabeling must map 2->1, 3->2, 1->3
        c = CycleClustering(n=6, m=3, assignment=np.array([2, 3, 1, 2, 3, 1]))
        canon = canonicalize(c)
        assert canon.assignment.tolist() == [1, 2, 3, 1, 2, 3]

    def test_canonical_input_returned_unchanged(self):
        c = CycleClustering(n=4, m=2, assignment=np.array([1, 2, 1, 2]))
        assert canonicalize(c) is c

    def test_objective_invariant_under_canonicalization(self):
        rng = np.random.default_rng(5)
        for seed in range(6):
            _, _, w = random_chain(7, 200 + seed)
            c = CycleClustering(n=7, m=3, assignment=random_clustering(7, 3, rng))
            a = objective(w, c, 0.001)
            b = objective(w, canonicalize(c), 0.001)
            assert a.total == pytest.approx(b.total, abs=1e-12)
            assert a.flow_part == pytest.approx(b.flow_part, abs=1e-12)


class TestReflect:
    def test_reflection_negates_flow_preserves_coherence(self):
        rng = np.random.default_rng(6)
        for seed in range(6):
            n = int(rng.integers(5, 9))
            _, _, w = random_chain(n, 300 + seed)
            m = int(rng.integers(3, min(n, 5) + 1))
            c = CycleClustering(n=n, m=m, assignment=random_clustering(n, m, rng))
            a = objective(w, c, 0.001)
            b = objective(w, reflect(c), 0.001)
            assert b.flow_part == pytest.approx(-a.flow_part, abs=1e-12)
            assert b.coherence_part == pytest.approx(a.coherence_part, abs=1e-12)

    def test_reflection_is_an_involution(self):
        c = CycleClustering(n=5, m=4, assignment=np.array([1, 2, 3, 4, 2]))
        assert reflect(reflect(c)).assignment.tolist() == c.assignment.tolist()


def per_pair_objective(w, c, alpha):
    """(total, flow, coherence) summed one cluster pair at a time with
    `net_flow` and `coherence`, in cluster order: how the objective was
    computed before the projection carried its formula."""
    groups = c.clusters()
    coh = 0.0
    for g in groups:
        coh += coherence(w, g)
    flow = 0.0
    if c.m >= 3:
        for k in range(1, c.m + 1):
            flow += net_flow(w, groups[k - 1], groups[successor(k, c.m) - 1])
    return flow + alpha * coh, flow, coh


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def test_objective_is_the_per_pair_sums_bit_for_bit():
    """On random chains, clusterings and their reflections, the objective
    read off the projection equals the per-pair sums exactly; so does the
    reflection's value read off the projection permuted by
    (1, m, m - 1, ..., 2), as branch and bound reads it."""
    rng = np.random.default_rng(16)
    checked = 0
    for n in range(3, 13):
        for seed in range(3):
            _, _, w = random_chain(n, 500 + 10 * n + seed, floor=0.01)
            for m in range(1, min(n, 6) + 1):
                c = CycleClustering(n=n, m=m, assignment=random_clustering(n, m, rng))
                p = project(w, c)
                flip = np.r_[0, m - 1:0:-1]
                permuted = ProjectedMatrix(p.entries[np.ix_(flip, flip)])
                for x, proj in ((c, p), (reflect(c), permuted)):
                    for alpha in (0.001, 0.3):
                        expected = bits(per_pair_objective(w, x, alpha))
                        for value in (objective(w, x, alpha), ObjectiveValue.of(proj, alpha)):
                            assert bits((value.total, value.flow_part,
                                         value.coherence_part)) == expected
                        checked += 1
    assert checked == 2 * 2 * 3 * sum(min(n, 6) for n in range(3, 13))
