import itertools
import math

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from cycleclust.clustering import CycleClustering, objective
from cycleclust.errors import (
    FileFormatError,
    FractionalSolutionError,
    InfeasibleAssignmentError,
    InvalidClusterCountError,
    ObjectiveMismatchError,
)
from cycleclust.generate.triangle import triangle_fixture
from cycleclust.markov import (
    FlowMatrix,
    coherence,
    flow_matrix,
    net_flow,
    stationary_distribution,
    validate_stochastic,
)
from cycleclust.mip import (
    _format,
    build_mip,
    clustering_from_solution,
    defining_rows,
    export_model,
    model_objective_value,
    parse_model,
    solution_values,
    structurally_equal,
)

from mip_oracle import num, triplet_build_mip
from util import random_chain


def symmetric_flow(n, seed):
    rng = np.random.default_rng(seed)
    sym = rng.random((n, n))
    sym = (sym + sym.T) / 2.0
    return FlowMatrix(sym / sym.sum())


class TestBuildMip:
    def test_cluster_count_guards(self):
        _, _, w = random_chain(5, 0)
        with pytest.raises(InvalidClusterCountError):
            build_mip(w, 2, 0.001)
        with pytest.raises(InvalidClusterCountError):
            build_mip(w, 6, 0.001)
        with pytest.raises(ValueError):
            build_mip(w, 3, 0.0)

    def test_small_model_counts(self):
        _, _, w = random_chain(3, 1)
        mip = build_mip(w, 3, 0.001)
        assert sum(1 for c in mip.row_names() if c.startswith("assign_")) == 3
        assert sum(1 for c in mip.row_names() if c.startswith("setcover_")) == 3
        x11 = mip.column_index("x_1_1")
        assert (mip.lb[x11], mip.ub[x11]) == (1.0, 1.0)
        # with bin 1 fixed, exactly two feasible assignments remain
        feasible = 0
        for tail in itertools.product((1, 2, 3), repeat=2):
            labels = np.array((1,) + tail)
            if len(set(labels.tolist())) == 3:
                feasible += 1
        assert feasible == 2

    def test_symmetric_matrix_has_no_flow_products(self):
        w = symmetric_flow(5, 2)
        mip = build_mip(w, 3, 0.001)
        assert not any(name.startswith("e_") for name in mip.column_names())
        # flow-defining rows then pin f_k to zero
        for k in (1, 2, 3):
            name, coefs, sense, rhs = mip.constraint(
                mip.row_names().tolist().index(f"flowdef_{k}"))
            assert sense == "E" and rhs == 0.0
            assert list(coefs) == [mip.column_index(f"f_{k}")]

    def test_variable_count_formulas(self):
        for seed in (3, 4):
            n = 6
            _, _, w = random_chain(n, seed)
            q = w.entries
            m = 3
            mip = build_mip(w, m, 0.001)
            ne = sum(1 for name in mip.column_names() if name.startswith("e_"))
            nc = sum(1 for name in mip.column_names() if name.startswith("c_"))
            expect_e = m * sum(1 for i in range(n) for j in range(n)
                               if i != j and q[i, j] != q[j, i])
            expect_c = m * sum(1 for i in range(n) for j in range(i + 1, n)
                               if q[i, j] + q[j, i] > 0.0)
            assert ne == expect_e
            assert nc == expect_c
            # two upper envelope rows per product that raises f or g, one
            # lower row per product that lowers f
            raise_f = sum(1 for i in range(n) for j in range(n) if q[i, j] > q[j, i])
            lower_f = sum(1 for i in range(n) for j in range(n) if q[i, j] < q[j, i])
            assert mip.nrows == n + 3 * m + 2 * (m * raise_f + nc) + m * lower_f

    def test_exactness_over_all_small_clusterings(self):
        """Implied product values satisfy the model and reproduce the
        direct flow and coherence values."""
        for n, seed in ((5, 5), (6, 6)):
            _, _, w = random_chain(n, seed)
            mip = build_mip(w, 3, 0.001)
            lb, ub = mip.lb, mip.ub
            for tail in itertools.product((1, 2, 3), repeat=n - 1):
                labels = np.array((1,) + tail)
                if len(set(labels.tolist())) < 3:
                    continue
                c = CycleClustering(n=n, m=3, assignment=labels)
                arr = solution_values(mip, c)
                lhs = mip.matrix @ arr
                for r in range(mip.nrows):
                    s = str(mip.senses[r])
                    if s == "E":
                        assert abs(lhs[r] - mip.rhs[r]) <= 1e-10
                    elif s == "L":
                        assert lhs[r] <= mip.rhs[r] + 1e-10
                    else:
                        assert lhs[r] >= mip.rhs[r] - 1e-10
                groups = c.clusters()
                for k in (1, 2, 3):
                    f_expected = net_flow(w, groups[k - 1], groups[k % 3])
                    g_expected = coherence(w, groups[k - 1])
                    assert arr[mip.column_index(f"f_{k}")] == pytest.approx(f_expected, abs=1e-10)
                    assert arr[mip.column_index(f"g_{k}")] == pytest.approx(g_expected, abs=1e-10)
                direct = objective(w, c, 0.001)
                assert model_objective_value(mip, arr) == pytest.approx(
                    direct.total, abs=1e-10)


def zero_diagonal_flow(n, seed):
    """Flow of a dense random chain that never stays put: q_ii = 0."""
    rng = np.random.default_rng(seed)
    raw = rng.random((n, n)) + 0.05
    np.fill_diagonal(raw, 0.0)
    P = validate_stochastic(raw / raw.sum(axis=1, keepdims=True))
    return flow_matrix(P, stationary_distribution(P))


@pytest.mark.parametrize("w, m", [
    *[(random_chain(n, 40 + n)[2], m) for n in range(6, 13) for m in (3, 4)],
    (zero_diagonal_flow(7, 1), 3),
    (symmetric_flow(6, 2), 3),
    (random_chain(4, 3)[2], 4),
    (random_chain(5, 4)[2], 5),
], ids=[*[f"dense-n{n}-m{m}" for n in range(6, 13) for m in (3, 4)],
        "zero-diagonal", "symmetric", "n-equals-m-4", "n-equals-m-5"])
def test_direct_csr_build_matches_triplet_build(w, m):
    """build_mip writes the CSR arrays in row order; the COO build of the
    same triplets must give the same arrays, entry for entry."""
    mip, ref = build_mip(w, m, 0.001), triplet_build_mip(w, m, 0.001)
    assert structurally_equal(mip, ref)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(mip.matrix, attr), getattr(ref.matrix, attr)), attr


def highs_optimum(mip, integral: bool) -> float:
    """Optimum of `mip` by HiGHS: the MILP, or its LP relaxation."""
    lo = np.where(mip.senses == "L", -np.inf, mip.rhs)
    hi = np.where(mip.senses == "G", np.inf, mip.rhs)
    res = milp(-mip.obj, constraints=LinearConstraint(mip.matrix, lo, hi),
               bounds=Bounds(mip.lb, mip.ub), integrality=mip.binary if integral else None,
               options={"mip_rel_gap": 0.0})
    assert res.status == 0, res.message
    return -res.fun


@pytest.mark.parametrize("w, m", [
    *[(random_chain(n, 40 + n)[2], m) for n in range(6, 10) for m in (3, 4)],
    (zero_diagonal_flow(7, 1), 3),
    (symmetric_flow(6, 2), 3),
], ids=[*[f"dense-n{n}-m{m}" for n in range(6, 10) for m in (3, 4)],
        "zero-diagonal", "symmetric"])
def test_one_sided_envelope_keeps_bound_and_optimum(w, m):
    """Dropping the envelope rows the objective cannot bind leaves the LP
    relaxation and the MILP optimum of the paper's three-row model."""
    mip, ref = build_mip(w, m, 0.001), triplet_build_mip(w, m, 0.001, one_sided=False)
    assert mip.nrows < ref.nrows
    for integral in (False, True):
        assert highs_optimum(mip, integral) == pytest.approx(
            highs_optimum(ref, integral), rel=1e-9)


def test_zero_diagonal_and_symmetric_models_lack_their_terms():
    """The oracle cases above cover what they claim: no q_ii x terms in
    cohdef when the diagonal is zero, no e columns when W is symmetric."""
    mip = build_mip(zero_diagonal_flow(7, 1), 3, 0.001)
    for k in (1, 2, 3):
        _, coefs, _, _ = mip.constraint(mip.row_names().tolist().index(f"cohdef_{k}"))
        assert not any(c < mip.blocks["e"].offset for c in coefs)
    assert build_mip(symmetric_flow(6, 2), 3, 0.001).blocks["e"].size == 0


@pytest.mark.parametrize("m", [3, 4])
def test_defining_rows_hold_f_and_g_alone_with_unit_coefficients(m):
    """The crash start and solution_values rest on these pairs: flowdef_k
    and cohdef_k are equalities in which f_k and g_k, columns of no other
    row, have coefficient 1."""
    mip = build_mip(random_chain(6, 3)[2], m, 0.001)
    rows, cols = defining_rows(mip)
    ks = range(1, m + 1)
    assert mip.row_names()[rows].tolist() == [f"{g}_{k}" for g in ("flowdef", "cohdef")
                                             for k in ks]
    assert mip.column_names()[cols].tolist() == [f"{t}_{k}" for t in "fg" for k in ks]
    for row, col in zip(rows, cols):
        _, coefs, sense, rhs = mip.constraint(row)
        assert (coefs[col], sense, rhs) == (1.0, "E", 0.0)
        assert mip.matrix[:, [col]].nnz == 1


FORMAT_CASES = [0.0, -0.0, 1.0, -1.0, 2.0, 1e15 - 1, 1e15, 1e16, 0.1, 1.0 / 3.0,
                5e-324, -2.5e-7, 2.0 ** 53]


def test_vectorized_format_matches_scalar_format():
    values = np.array(FORMAT_CASES + [-v for v in FORMAT_CASES])
    assert _format(values).tolist() == [num(float(v)) for v in values]
    assert _format(np.array([])).tolist() == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_vectorized_format_refuses_non_finite(bad):
    with pytest.raises(ValueError):
        _format(np.array([1.0, bad]))


class TestLpExport:
    def test_round_trip_identity(self):
        _, _, w = random_chain(5, 7)
        mip = build_mip(w, 3, 0.001)
        again = parse_model(export_model(mip))
        assert structurally_equal(mip, again)
        assert (again.n, again.m, again.alpha) == (5, 3, 0.001)

    def test_symmetry_fix_line_present(self):
        _, _, w = random_chain(3, 8)
        text = export_model(build_mip(w, 3, 0.001))
        lines = text.splitlines()
        bounds_at = lines.index("Bounds")
        assert " x_1_1 = 1" in lines[bounds_at:]

    def test_triangle_coefficient_precision(self):
        # the format rule: the double 0.1/9 prints with 17 significant digits
        token = _format(np.array([0.1 / 9.0]))[0]
        digits = token.replace("0.", "", 1).lstrip("0")
        assert len(digits) >= 17
        assert float(token) == 0.1 / 9.0
        # and the fixture's hub coefficient appears verbatim and round-trips
        w = triangle_fixture()
        text = export_model(build_mip(w, 3, 0.001))
        coef = float(w.entries[0, 1] - w.entries[1, 0])
        assert coef == pytest.approx(0.1 / 9.0, abs=1e-15)
        assert num(coef) in text
        assert float(num(coef)) == coef

    def test_export_is_deterministic(self):
        _, _, w = random_chain(4, 9)
        a = export_model(build_mip(w, 3, 0.001))
        b = export_model(build_mip(w, 3, 0.001))
        assert a == b


class TestClusteringFromSolution:
    def test_exact_solution_round_trips(self):
        _, _, w = random_chain(5, 10)
        mip = build_mip(w, 3, 0.001)
        c = CycleClustering(n=5, m=3, assignment=np.array([1, 2, 3, 1, 2]))
        vals = solution_values(mip, c)
        out = clustering_from_solution(mip, vals)
        assert out.assignment.tolist() == c.assignment.tolist()

    def test_fractional_solution_rejected(self):
        _, _, w = random_chain(4, 11)
        mip = build_mip(w, 3, 0.001)
        c = CycleClustering(n=4, m=3, assignment=np.array([1, 2, 3, 1]))
        vals = solution_values(mip, c)
        for k in (1, 2, 3):
            vals[mip.x_column(2, k)] = 1.0 / 3.0
        with pytest.raises(FractionalSolutionError):
            clustering_from_solution(mip, vals)

    def test_empty_cluster_rejected(self):
        _, _, w = random_chain(4, 12)
        mip = build_mip(w, 3, 0.001)
        c = CycleClustering(n=4, m=3, assignment=np.array([1, 2, 3, 1]))
        vals = solution_values(mip, c)
        # move bin 3 from cluster 3 to cluster 2: setcover_3 now violated
        vals[mip.x_column(3, 3)] = 0.0
        vals[mip.x_column(3, 2)] = 1.0
        with pytest.raises(InfeasibleAssignmentError):
            clustering_from_solution(mip, vals)

    def test_objective_mismatch_detected(self):
        _, _, w = random_chain(4, 13)
        mip = build_mip(w, 3, 0.001)
        c = CycleClustering(n=4, m=3, assignment=np.array([1, 2, 3, 1]))
        vals = solution_values(mip, c)
        vals[mip.column_index("f_1")] += 0.5
        with pytest.raises(ObjectiveMismatchError):
            clustering_from_solution(mip, vals)


def test_export_matches_golden_file():
    """Byte-for-byte stability of the LP writer on a pinned instance."""
    from pathlib import Path

    s = np.array([
        [4, 2, 1],
        [1, 4, 2],
        [2, 1, 3],
    ]) / 16.0
    text = export_model(build_mip(FlowMatrix(s), 3, 0.001))
    golden = Path(__file__).parent / "data" / "golden_3x3.lp"
    assert text == golden.read_text()


def test_export_bytes_pinned_on_larger_model():
    """Byte-for-byte stability on a 12-bin, four-cluster model: 2,246 lines
    that span every row and column block."""
    import hashlib

    text = export_model(build_mip(random_chain(12, 5)[2], 4, 0.001))
    assert len(text.encode()) == 96193
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ec735beb95818815e815c87917459fc66ada722bcc98c4f6fdf55f044c71de77")


HAND_MADE_LP = """\
Maximize
 obj: - x + 1.5 y + w - 0.5 r + 2 b
Subject To
 neg_unit: - y + 3 z - 0.25 w <= 7
 neg_int: - 2 x + r + 0.3333333333333333 b >= -1.5
 frac_first: 0.1 y - z + 2.5 b = 0
 neg_frac: - 0.75 w - 4 r <= 0.001
Bounds
 x = 2
 y free
 z >= -1
 w <= 4
 -2.5 <= r <= 3
 0 <= b <= 1
Binaries
 b
End
"""


def test_export_covers_every_bound_and_coefficient_form():
    """Fixed, free, lower-only, upper-only and ranged bounds; unit, integer,
    fractional and negative leading coefficients."""
    from scipy.sparse import csr_matrix

    from cycleclust.mip import MipInstance

    inf = math.inf
    rows = [
        ("neg_unit", {1: -1.0, 2: 3.0, 3: -0.25}, "L", 7.0),
        ("neg_int", {0: -2.0, 4: 1.0, 5: 1.0 / 3.0}, "G", -1.5),
        ("frac_first", {1: 0.1, 2: -1.0, 5: 2.5}, "E", 0.0),
        ("neg_frac", {3: -0.75, 4: -4.0}, "L", 0.001),
    ]
    entries = [(r, c, v) for r, (_, coefs, _, _) in enumerate(rows)
               for c, v in coefs.items()]
    r, c, v = zip(*entries)
    mip = MipInstance(
        csr_matrix((v, (r, c)), shape=(4, 6)),
        [row[2] for row in rows], [row[3] for row in rows],
        lb=[2.0, -inf, -1.0, -inf, -2.5, 0.0],
        ub=[2.0, inf, inf, 4.0, 3.0, 1.0],
        obj=[-1.0, 1.5, 0.0, 1.0, -0.5, 2.0],
        binary=[False] * 5 + [True], n=0, m=0, alpha=None,
        col_names=["x", "y", "z", "w", "r", "b"],
        row_names=[row[0] for row in rows])
    text = export_model(mip)
    assert text == HAND_MADE_LP
    again = parse_model(text)
    assert structurally_equal(mip, again)
    assert export_model(again) == text


NON_ASCII_LP = """\
Maximize
 obj: débit + 2 σ_1 - 0.5 ζ
Subject To
 équilibre: débit - σ_1 + 3 ζ <= 1
 π: - débit + ζ >= 0
Bounds
 0 <= débit <= 1
 σ_1 >= 0
 ζ free
Binaries
 débit
End
"""


@pytest.mark.parametrize("budget", [1, 1 << 16])
def test_non_ascii_names_round_trip(monkeypatch, budget):
    """Parsed names are arbitrary tokens: each is written as its UTF-8
    bytes, also when every line is a chunk of its own."""
    import cycleclust.mip as mip

    monkeypatch.setattr(mip, "_CHUNK_PIECES", budget)
    assert export_model(parse_model(NON_ASCII_LP)) == NON_ASCII_LP
    assert b"".join(mip.lp_chunks(parse_model(NON_ASCII_LP))) == NON_ASCII_LP.encode()


@pytest.mark.parametrize("col_names,row_names", [
    pytest.param(["x\0y"], ["r"], id="column"),
    pytest.param(["x"], ["r\0"], id="row"),
])
def test_a_name_with_nul_is_refused(col_names, row_names):
    """LP text is made by squeezing NUL padding out of byte tables, so a
    name that holds NUL is refused instead of losing the byte."""
    from scipy.sparse import csr_matrix

    from cycleclust.mip import MipInstance

    mip = MipInstance(csr_matrix([[1.0]]), ["L"], [1.0], lb=[0.0], ub=[1.0], obj=[1.0],
                      binary=[False], n=0, m=0, alpha=None,
                      col_names=col_names, row_names=row_names)
    with pytest.raises(ValueError, match="NUL"):
        export_model(mip)


@pytest.mark.parametrize("budget", [1, 7, 100, 1000, 10**9])
def test_text_does_not_depend_on_the_chunk_budget(monkeypatch, budget):
    """lp_chunks cuts only between lines and formats each coefficient once
    per export: from one row or bound line per chunk up to one chunk per
    row group, the chunks join to the text at the default budget (pinned
    above by hash and golden file), and each chunk ends a line."""
    from pathlib import Path

    import cycleclust.mip as mip

    golden = (Path(__file__).parent / "data" / "golden_3x3.lp").read_text()
    built = build_mip(random_chain(12, 5)[2], 4, 0.001)
    models = [built, parse_model(HAND_MADE_LP), parse_model(golden)]
    texts = [export_model(model) for model in models]
    assert texts[1:] == [HAND_MADE_LP, golden]
    monkeypatch.setattr(mip, "_CHUNK_PIECES", budget)
    for model, text in zip(models, texts):
        chunks = list(mip.lp_chunks(model))
        assert b"".join(chunks) == text.encode()
        assert all(chunk.endswith(b"\n") for chunk in chunks)
        if budget == 1:
            # the objective, "Subject To", "Bounds" and Binaries-to-End
            assert len(chunks) == model.nrows + model.ncols + 4
    defining = [c for c in mip.lp_chunks(built) if b" flowdef_" in c or b" cohdef_" in c]
    assert len(defining) > 1 if budget <= 1000 else len(defining) == 2


SMALL_LP = """Maximize
 obj: x + 2 y
Subject To
 c1: x + y <= 1
Bounds
 0 <= x <= 1
 y >= 0
Binaries
 x
End
"""


@pytest.mark.parametrize("old,new", [
    pytest.param(" c1: x + y <= 1", " c1: x + y <=", id="no-rhs"),
    pytest.param(" c1: x + y <= 1", " c1: x + y <= one", id="non-number-rhs"),
    pytest.param(" c1: x + y <= 1", " c1: x + y <= 1 2", id="two-rhs"),
    pytest.param(" y >= 0", " y <= abc", id="non-number-bound"),
    pytest.param(" obj: x + 2 y", " obj: x + 2 y + z", id="objective-term-without-bounds"),
    pytest.param("Binaries\n x", "Binaries\n x z", id="binary-without-bounds"),
    pytest.param(" y >= 0", " y >= 0\n y <= 3", id="column-bounded-twice"),
    pytest.param(" obj: x + 2 y", " obj: x + 2 y + 3", id="dangling-coefficient"),
    pytest.param(" c1: x + y <= 1", " c1: x + z <= 1", id="unknown-constraint-column"),
    pytest.param(" c1: x + y <= 1", " c1: x + y 1", id="no-sense"),
    pytest.param("End\n", "End\n x\n", id="content-after-end"),
    pytest.param(" y >= 0", " y >= 0\n x_a >= 0", id="x-column-without-bin"),
])
def test_malformed_lp_text_is_a_format_error(old, new):
    assert parse_model(SMALL_LP).ncols == 2
    assert old in SMALL_LP
    with pytest.raises(FileFormatError):
        parse_model(SMALL_LP.replace(old, new))
