"""Linearized cycle-clustering MIP: construction, LP text round-trip, extraction.

The model is stored as arrays: per-column `lb`, `ub`, `obj` and `binary`,
and per-row `senses` and `rhs` beside the CSR `matrix`. A model from
`build_mip` lays its columns out in five blocks, in this fixed order:

- x: assignment binaries x_i_k, column (i - 1) * m + (k - 1);
- e: flow products e_i_j_k, m columns per ordered pair (i, j), d_ij != 0;
- c: coherence products c_i_j_k, m columns per pair i < j with mass > 0;
- f: f_1..f_m, the net flow into each cycle edge;
- g: g_1..g_m, the coherence of each cluster.

Each `ColumnBlock` keeps its offset and the 0-based pair arrays (i, j) it
was built from, so a column's meaning is offset arithmetic. Rows come in
groups, whose names, sizes and product columns build_mip records as
`row_groups`: assign_i, setcover_k, flowdef_k, cohdef_k, then for the e and
then the c block the envelope rows the objective can bind, in column order:
p1 and p2 (v <= x_a, v <= x_b) over every c column and the e columns with
d_ij > 0, then p3 (v >= x_a + x_b - 1) over the e columns with d_ij < 0.
build_mip writes the CSR arrays directly in that row order, each row's
columns ascending by construction, with no triplets and no sort.

Names such as x_1_2 or p3_e_4_7_1 are formatted only where a name is the
output: lp_chunks, parse_model, MipInstance.constraint and column_index,
and error messages. Every other interface, solution_values
and solve_lp included, passes values and bounds by column index. Parsed
and hand-made instances have no blocks and carry explicit name lists.
Names come as whole arrays: column_names and row_names name every column
and row, and row_segments yields one row group's name array at a time.

lp_chunks makes the text from arrays of string pieces, written chunk by
chunk; export_model joins the chunks. It formats each distinct coefficient
once per export (unit coefficients need no number), makes each run of equal
row ends once per chunk, and names an envelope row by two pieces, its "p1_"
prefix and its product column's name.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .clustering import CycleClustering, check_alpha, objective
from .errors import (
    FileFormatError,
    FractionalSolutionError,
    InfeasibleAssignmentError,
    InvalidClusterCountError,
    ObjectiveMismatchError,
)
from .markov import FlowMatrix

INT_TOL = 1e-6
OBJ_TOL = 1e-6


def _labels(prefix: str, *indices: np.ndarray) -> np.ndarray:
    """Object array of names prefix_a_b..., one per position of the 0-based
    index arrays, printed 1-based."""
    top = max((int(ix.max()) for ix in indices if ix.size), default=-1)
    tails = np.array([f"_{t}" for t in range(1, top + 2)], dtype=object)
    out = np.empty(len(indices[0]), dtype=object)
    out.fill(prefix)  # np.full would make a new string per entry
    for ix in indices:
        out += tails[ix]
    return out


@dataclass(frozen=True, eq=False)
class ColumnBlock:
    """Columns tag_i_j_k from `offset` on: a run of m columns (k = 1..m)
    per entry of the 0-based pair arrays; one run when there are none.
    In a product block, column tag_i_j_k stands for x_i_k * x_j_k', where
    k' is k advanced by `shift` around the cycle."""

    tag: str
    offset: int
    m: int
    i: np.ndarray | None = None
    j: np.ndarray | None = None
    shift: int = 0

    @property
    def size(self) -> int:
        return self.m * (1 if self.i is None else len(self.i))

    def names(self) -> np.ndarray:
        """Names of the block's columns, in column order."""
        k = _labels("", np.arange(self.m))
        if self.i is None:
            return self.tag + k
        # one tag_i_j per run of m columns, then the _k of each column
        heads = _labels(self.tag, *[ix for ix in (self.i, self.j) if ix is not None])
        return (heads[:, None] + k).ravel()


class MipInstance:
    """Immutable model: column arrays plus sparse linear constraints.

    Give either `blocks` (a tag -> ColumnBlock mapping in column order) and
    `row_groups` (build_mip's rows: a (name, count, product columns) run per
    row group, see row_segments) or explicit `col_names` and `row_names`.
    Either way column_names() and row_names() return arrays of every name.
    """

    def __init__(self, matrix, senses, rhs, lb, ub, obj, binary, *, n, m,
                 alpha, weights=None, blocks=None, row_groups=None,
                 col_names=None, row_names=None):
        self.matrix = matrix.tocsr()
        self.matrix.sort_indices()
        self.senses = np.asarray(senses, dtype="<U1")
        self.rhs = np.asarray(rhs, dtype=float)
        self.lb = _read_only(lb, float)
        self.ub = _read_only(ub, float)
        self.obj = _read_only(obj, float)
        self.binary = _read_only(binary, bool)
        self.n = n
        self.m = m
        self.alpha = alpha
        self.weights = weights
        self.blocks, self.row_groups = blocks, row_groups
        if blocks is None or row_groups is None:
            if col_names is None or row_names is None:
                raise ValueError("an instance without a layout needs column and row names")
            self._col_names = _read_only(col_names, object)
            self._row_names = _read_only(row_names, object)
        shape = (len(self.senses), len(self.lb))
        if self.matrix.shape != shape or len(self.rhs) != shape[0]:
            raise ValueError(f"matrix shape {self.matrix.shape} does not match "
                             f"{shape[0]} rows and {shape[1]} columns")

    @property
    def ncols(self) -> int:
        return len(self.lb)

    @property
    def nrows(self) -> int:
        return self.matrix.shape[0]

    def column_names(self) -> np.ndarray:
        """Names of all columns as an object array."""
        if self.blocks is None:
            return self._col_names
        return np.concatenate([b.names() for b in self.blocks.values()])

    def row_segments(self, col_names: np.ndarray):
        """Yield (start, prefix, names) for each run of rows, one run at a
        time: row start + r is named `prefix` + names[r]. A row group without
        product columns numbers its rows (assign_1); an envelope group names
        each row after its product column (p1_e_1_2_1), gathered from
        `col_names`, the names of all columns."""
        if self.row_groups is None:
            yield 0, "", self._row_names
            return
        start = 0
        for prefix, count, cols in self.row_groups:
            yield start, prefix, (_labels("", np.arange(count)) if cols is None
                                  else col_names[cols])
            start += count

    def row_names(self) -> np.ndarray:
        """Names of all rows as an object array (see row_segments)."""
        return np.concatenate([prefix + names for _, prefix, names
                               in self.row_segments(self.column_names())])

    def column_index(self, name: str) -> int:
        hits = np.flatnonzero(self.column_names() == name)
        if not hits.size:
            raise KeyError(name)
        return int(hits[0])

    def constraint(self, i):
        """(name, {column: coefficient}, sense, rhs) for row i."""
        lo, hi = self.matrix.indptr[i], self.matrix.indptr[i + 1]
        coefs = {int(c): float(v) for c, v in zip(self.matrix.indices[lo:hi],
                                                  self.matrix.data[lo:hi])}
        return (str(self.row_names()[i]), coefs, str(self.senses[i]),
                float(self.rhs[i]))

    def x_column(self, i: int, k: int) -> int:
        """Column of the assignment binary for bin i, cluster k (1-based)."""
        return (i - 1) * self.m + (k - 1)


def _read_only(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def build_mip(W: FlowMatrix, m: int, alpha: float) -> MipInstance:
    """Assemble the linearized clustering model for a fixed cluster count.

    Emits assignment and covering rows, flow/coherence defining equalities
    over product variables, the envelope rows of each product that the
    objective can bind, and the symmetry-breaking fix x_1_1 = 1.
    """
    n = W.n
    if m < 3 or m > n:
        raise InvalidClusterCountError(m, n)
    check_alpha(alpha)
    q = W.entries
    d = q - q.T
    # ordered flow pairs (d != 0, never on the diagonal) and unordered
    # coherence pairs (mass > 0)
    epairs = np.argwhere(d != 0.0)
    cpairs = np.argwhere(np.triu(q + q.T, k=1) > 0.0)
    ne, nc = len(epairs), len(cpairs)
    off_e = n * m
    off_c = off_e + ne * m
    off_f = off_c + nc * m
    off_g = off_f + m
    ncols = off_g + m
    blocks = {
        "x": ColumnBlock("x", 0, m, np.arange(n)),
        "e": ColumnBlock("e", off_e, m, epairs[:, 0], epairs[:, 1], shift=1),
        "c": ColumnBlock("c", off_c, m, cpairs[:, 0], cpairs[:, 1]),
        "f": ColumnBlock("f", off_f, m),
        "g": ColumnBlock("g", off_g, m),
    }
    ks = np.arange(m)

    lb = np.zeros(ncols)
    lb[0] = 1.0  # x_1_1
    ub = np.ones(ncols)
    ub[off_f:] = math.inf
    obj = np.zeros(ncols)
    obj[off_f:off_g] = 1.0
    obj[off_g:] = alpha
    binary = np.zeros(ncols, dtype=bool)
    binary[:off_e] = True

    # Each row group is (name, product columns, columns, coefficients, sense,
    # rhs): a (rows, width) table of ascending column indices whose every row
    # takes the same `width` coefficients, so the CSR arrays need no sort. Every
    # x column precedes every product column, which precedes f and g.
    xcols = np.arange(n * m).reshape(n, m)
    qdiag = np.diag(q)
    diag_bins = np.nonzero(qdiag != 0.0)[0]
    ecoef = -d[epairs[:, 0], epairs[:, 1]]
    ccoef = -(q[cpairs[:, 0], cpairs[:, 1]] + q[cpairs[:, 1], cpairs[:, 0]])
    ecols = off_e + np.arange(ne * m).reshape(ne, m).T
    ccols = off_c + np.arange(nc * m).reshape(nc, m).T
    groups = [
        # assign_i: sum_k x_i_k = 1
        ("assign", None, xcols, np.ones(m), "E", 1.0),
        # setcover_k: sum_i x_i_k >= 1
        ("setcover", None, xcols.T, np.ones(n), "G", 1.0),
        # flowdef_k: f_k - sum_(i,j) d_ij e_i_j_k = 0
        ("flowdef", None, np.column_stack([ecols, off_f + ks]), np.append(ecoef, 1.0),
         "E", 0.0),
        # cohdef_k: g_k - sum_i q_ii x_i_k - sum_(i<j) (q_ij + q_ji) c_i_j_k = 0
        ("cohdef", None, np.column_stack([xcols[diag_bins].T, ccols, off_g + ks]),
         np.concatenate([-qdiag[diag_bins], ccoef, [1.0]]), "E", 0.0),
    ]
    # Envelope rows of each product v = x_a * x_b. The model maximizes and v
    # enters only its flowdef or cohdef row: where its coefficient there is
    # negative (f or g rises with v) only p1: v - x_a <= 0 and p2: v - x_b <= 0
    # can bind, elsewhere only p3: v - x_a - x_b >= -1.
    for block, coef in ((blocks["e"], ecoef), (blocks["c"], ccoef)):
        run, k0 = np.divmod(np.arange(block.size), m)
        var = block.offset + np.arange(block.size)
        xa = block.i[run] * m + k0
        xb = block.j[run] * m + (k0 + block.shift) % m
        up = coef[run] < 0  # never 0: d_ij != 0 and q_ij + q_ji > 0
        lower = np.column_stack([np.minimum(xa, xb), np.maximum(xa, xb), var])[~up]
        groups += [("p1_", var[up], np.column_stack([xa, var])[up], [-1.0, 1.0], "L", 0.0),
                   ("p2_", var[up], np.column_stack([xb, var])[up], [-1.0, 1.0], "L", 0.0),
                   ("p3_", var[~up], lower, [-1.0, -1.0, 1.0], "G", -1.0)]

    prefixes, products, tables, coefs, senses, rhs = zip(*groups)
    counts = [len(table) for table in tables]
    matrix = csr_matrix((np.concatenate([np.tile(c, k) for c, k in zip(coefs, counts)]),
                         np.concatenate([table.ravel() for table in tables]),
                         np.append(0, np.cumsum(np.repeat([len(c) for c in coefs], counts)))),
                        shape=(sum(counts), ncols))
    return MipInstance(matrix, np.repeat(senses, counts), np.repeat(rhs, counts), lb, ub,
                       obj, binary, n=n, m=m, alpha=alpha, weights=W, blocks=blocks,
                       row_groups=list(zip(prefixes, counts, products)))


def model_objective_value(mip: MipInstance, values: np.ndarray) -> float:
    """Objective of column-order `values`."""
    total = 0.0
    for col in np.flatnonzero(mip.obj):
        total += float(mip.obj[col]) * float(values[col])
    return total


def defining_rows(mip: MipInstance) -> tuple[np.ndarray, np.ndarray]:
    """(rows, columns) of f_1..f_m and g_1..g_m in build_mip's layout: f_k
    (g_k) appears only in row flowdef_k (cohdef_k), with coefficient 1."""
    prefixes = [prefix for prefix, _, _ in mip.row_groups]
    starts = np.cumsum([0] + [count for _, count, _ in mip.row_groups])
    ks = np.arange(mip.m)
    rows = np.concatenate([starts[prefixes.index(g)] + ks for g in ("flowdef", "cohdef")])
    cols = np.concatenate([mip.blocks[tag].offset + ks for tag in ("f", "g")])
    return rows, cols


def solution_values(mip: MipInstance, c: CycleClustering) -> np.ndarray:
    """Variable values implied by an integral clustering, in column order.

    Products take their exact 0/1 values; f_k and g_k are read off their
    defining rows so the result satisfies every constraint of the model.
    """
    n, m = mip.n, mip.m
    out = np.zeros(mip.ncols)
    x = np.zeros((n, m))
    x[np.arange(n), np.asarray(c.assignment) - 1] = 1.0
    out[:n * m] = x.ravel()
    for block in (mip.blocks["e"], mip.blocks["c"]):
        products = x[block.i] * x[block.j][:, (np.arange(m) + block.shift) % m]
        out[block.offset:block.offset + block.size] = products.ravel()
    mat = mip.matrix
    for row, col in zip(*defining_rows(mip)):
        lo, hi = mat.indptr[row], mat.indptr[row + 1]
        acc = float(mat.data[lo:hi] @ out[mat.indices[lo:hi]]) - out[col]
        out[col] = mip.rhs[row] - acc
    return out


def clustering_from_solution(mip: MipInstance, values: np.ndarray) -> CycleClustering:
    """Round a near-binary solution to a clustering and cross-check it.

    `values` is in column order. The recomputed objective must agree with
    the model objective implied by `values`; disagreement signals a
    linearization bug.
    """
    n, m = mip.n, mip.m
    raw = np.asarray(values, dtype=float)[:n * m].reshape(n, m)  # the x block
    x = np.round(raw)
    off = (np.abs(raw - x) > INT_TOL) | ((x != 0.0) & (x != 1.0))
    if off.any():
        i, k = np.argwhere(off)[0]
        raise FractionalSolutionError(f"x_{i + 1}_{k + 1}", float(raw[i, k]))
    row_sums = x.sum(axis=1)
    bad = np.nonzero(np.abs(row_sums - 1.0) > INT_TOL)[0]
    if bad.size:
        raise InfeasibleAssignmentError(
            f"bin {int(bad[0]) + 1} is assigned to {int(row_sums[bad[0]])} clusters"
        )
    if np.any(x.sum(axis=0) < 1.0 - INT_TOL):
        k = int(np.nonzero(x.sum(axis=0) < 1.0 - INT_TOL)[0][0]) + 1
        raise InfeasibleAssignmentError(f"cluster {k} is empty")
    assignment = np.argmax(x, axis=1) + 1
    clustering = CycleClustering(n=n, m=m, assignment=assignment)
    if mip.weights is None:
        raise ValueError("instance carries no weight matrix to verify against")
    direct = objective(mip.weights, clustering, mip.alpha)
    model_value = model_objective_value(mip, values)
    if abs(direct.total - model_value) > OBJ_TOL:
        raise ObjectiveMismatchError(model_value, direct.total)
    return clustering


# ---------------------------------------------------------------------------
# CPLEX-LP-style text format
# ---------------------------------------------------------------------------

_SENSE_SYMBOL = {"L": "<=", "G": ">=", "E": "="}
_SYMBOL_SENSE = {v: k for k, v in _SENSE_SYMBOL.items()}
# Text is made as object arrays of string pieces and joined one chunk at a
# time, so that a writer holds one chunk of it: whole-model piece arrays
# would cost more memory than the model itself. A chunk is whole lines of
# at most this many pieces (two per term, plus a row's head and tail, or
# five per bound line), or one line if that alone is longer.
_CHUNK_PIECES = 1 << 16
# term sign by (first term of its row, coefficient not positive)
_SIGNS = np.array([" + ", " - ", "", "- "], dtype=object)


def _format(values: np.ndarray) -> np.ndarray:
    """Text of each value as an object array: str(int(v)) for an integer
    below 1e15 in magnitude, repr(v) otherwise. Each form is one C-level
    pass, the repr or str of a list split at its separators."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("cannot write a non-finite number")
    ints = (values == np.trunc(values)) & (np.abs(values) < 1e15)
    out = np.empty(len(values), dtype=object)
    for mask, items in ((ints, values[ints].astype(np.int64).tolist()),
                        (~ints, values[~ints].tolist())):
        if items:
            out[mask] = repr(items)[1:-1].split(", ")
    return out


def _num_strings(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct values formatted, index of each entry among them)."""
    uniq, inv = np.unique(values, return_inverse=True)
    return _format(uniq), inv


def _coefficients(*arrays) -> tuple[np.ndarray, np.ndarray]:
    """(distinct magnitudes other than 1 in `arrays`, sorted; the text of
    each followed by a space), read a chunk at a time. Rows share their
    coefficients (every flowdef row has the same d_ij), so each is
    formatted once per export."""
    parts = [np.empty(0)]
    for values in arrays:
        for lo in range(0, len(values), _CHUNK_PIECES):
            mags = np.abs(values[lo:lo + _CHUNK_PIECES])
            parts.append(np.unique(mags[mags != 1.0]))
    mags = np.unique(np.concatenate(parts))
    return mags, _format(mags) + " "


def _row_tails(senses: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The " <= rhs\\n" end of every row. Rows come in runs of one sense
    and right-hand side, so each run's tail is made once."""
    if not len(rhs):
        return np.empty(0, dtype=object)
    starts = np.flatnonzero(np.concatenate(
        [[True], (senses[1:] != senses[:-1]) | (rhs[1:] != rhs[:-1])]))
    nums, at = _num_strings(rhs[starts])
    tails = np.empty(len(starts), dtype=object)
    tails[:] = [f" {_SENSE_SYMBOL[s]} {nums[k]}\n"
                for s, k in zip(senses[starts].tolist(), at.tolist())]
    return np.repeat(tails, np.diff(np.append(starts, len(rhs))))


def _rows_text(head, tail, indptr, cols, vals, names, coefficients) -> str:
    """One line per row of a CSR slice whose `indptr` starts at 0: the
    `head` pieces (strings or per-row arrays), the terms, then the per-row
    `tail`. A term is its sign, its coefficient unless that is 1, and the
    column name; `coefficients` is the table from _coefficients."""
    nrows, nnz, width = len(tail), len(cols), len(head) + 1
    counts = np.diff(indptr)
    sign_at = np.where(vals > 0, 0, 1)
    sign_at[indptr[:-1][counts > 0]] += 2
    leads = _SIGNS[sign_at]
    other = np.flatnonzero(np.abs(vals) != 1.0)
    if other.size:
        mags, texts = coefficients
        here, inv = np.unique(np.abs(vals[other]), return_inverse=True)
        leads[other] += texts[np.searchsorted(mags, here)][inv]
    # row r takes `width` pieces for head and tail plus two per term (lead
    # and name), so it starts at 2 * indptr[r] + width * r
    skip = width * np.arange(nrows)
    row_at = 2 * indptr[:-1] + skip
    lead_at = 2 * np.arange(nnz) + np.repeat(skip, counts) + len(head)
    pieces = np.empty(2 * nnz + width * nrows, dtype=object)
    for p, piece in enumerate(head):
        pieces[row_at + p] = piece
    pieces[lead_at] = leads
    pieces[lead_at + 1] = names[cols]
    pieces[row_at + width - 1 + 2 * counts] = tail
    return "".join(pieces.tolist())


def _chunk_end(indptr, lo: int, end: int, width: int) -> int:
    """End of the chunk of rows that starts at row `lo`: as many rows
    before `end` as fit in _CHUNK_PIECES pieces of `width` per row and two
    per term, and at least one."""
    first = int(indptr[lo])
    fit = bisect.bisect_right(
        range(lo + 1, end + 1), _CHUNK_PIECES,
        key=lambda hi: 2 * (int(indptr[hi]) - first) + width * (hi - lo))
    return lo + max(fit, 1)


def _bounds_text(names, lb, ub) -> str:
    """Bounds-section lines of the given columns."""
    fixed = lb == ub
    if np.any(fixed & np.isinf(lb)):
        raise ValueError("a column is fixed at an infinite value")
    has_lo, has_hi = ~np.isinf(lb), ~np.isinf(ub)
    # infinite bounds are never printed; 0 stands in so they can be formatted
    lo, lo_at = _num_strings(np.where(has_lo, lb, 0.0))
    hi, hi_at = _num_strings(np.where(has_hi, ub, 0.0))
    lo_end, hi_end, lo_start = (lo + "\n")[lo_at], (hi + "\n")[hi_at], (" " + lo)[lo_at]
    # one line per row of a (columns, 5) piece table, unused cells empty
    pieces = np.empty((len(names), 5), dtype=object)
    pieces.fill("")
    for mask, parts in (
        (fixed, (" ", names, " = ", lo_end)),
        (~fixed & ~has_lo & ~has_hi, (" ", names, " free\n")),
        (~fixed & has_lo & ~has_hi, (" ", names, " >= ", lo_end)),
        (~fixed & ~has_lo & has_hi, (" ", names, " <= ", hi_end)),
        (~fixed & has_lo & has_hi, (lo_start, " <= ", names, " <= ", hi_end)),
    ):
        at = np.flatnonzero(mask)
        for p, part in enumerate(parts):
            pieces[at, p] = part if isinstance(part, str) else part[at]
    return "".join(pieces.ravel().tolist())


def lp_chunks(mip: MipInstance):
    """Yield the model's LP text chunk by chunk (see _CHUNK_PIECES), each
    chunk whole lines, so that a writer holds one chunk at a time."""
    names = mip.column_names()
    mat = mip.matrix
    coefficients = _coefficients(mip.obj, mat.data)
    obj_cols = np.flatnonzero(mip.obj)
    yield "Maximize\n" + _rows_text(
        [" obj: "], np.array(["\n"], dtype=object), np.array([0, len(obj_cols)]),
        obj_cols, mip.obj[obj_cols], names, coefficients)
    yield "Subject To\n"
    for start, prefix, row_names in mip.row_segments(names):
        lo, end = start, start + len(row_names)
        while lo < end:
            hi = _chunk_end(mat.indptr, lo, end, 4)  # three head pieces, one tail
            a, b = mat.indptr[lo], mat.indptr[hi]
            yield _rows_text([" " + prefix, row_names[lo - start:hi - start], ": "],
                             _row_tails(mip.senses[lo:hi], mip.rhs[lo:hi]),
                             mat.indptr[lo:hi + 1] - a, mat.indices[a:b], mat.data[a:b],
                             names, coefficients)
            lo = hi
    yield "Bounds\n"
    step = max(_CHUNK_PIECES // 5, 1)
    for lo in range(0, mip.ncols, step):
        hi = min(lo + step, mip.ncols)
        yield _bounds_text(names[lo:hi], mip.lb[lo:hi], mip.ub[lo:hi])
    yield "".join(["Binaries\n", *(f" {name}\n" for name in names[mip.binary].tolist()),
                   "End\n"])


def export_model(mip: MipInstance) -> str:
    """Deterministic LP-format text; parse_model inverts it exactly."""
    return "".join(lp_chunks(mip))


def _parse_terms(tokens):
    pairs = []
    sign = 1.0
    pending = None
    for tok in tokens:
        if tok == "+":
            sign = 1.0
        elif tok == "-":
            sign = -1.0
        else:
            try:
                val = float(tok)
            except ValueError:
                coef = sign if pending is None else sign * pending
                pairs.append((tok, coef))
                sign, pending = 1.0, None
            else:
                pending = val
    if pending is not None:
        raise FileFormatError("dangling coefficient in term list")
    return pairs


def _number(token: str, line: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise FileFormatError(f"not a number: {token!r} in {line!r}") from None


def parse_model(text: str) -> MipInstance:
    """Rebuild a MipInstance from export_model output.

    Every column has exactly one Bounds line. The parsed instance carries
    no weight matrix.
    """
    section = None
    obj_pairs = []
    constraints = []  # (name, pairs, sense, rhs)
    bounds = []       # (name, lb, ub) in file order
    binaries = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        low = line.lower()
        if low in ("maximize", "subject to", "bounds", "binaries", "end"):
            section = low
            continue
        if section == "maximize":
            body = line.split(":", 1)[1] if ":" in line else line
            obj_pairs.extend(_parse_terms(body.split()))
        elif section == "subject to":
            if ":" not in line:
                raise FileFormatError(f"constraint line without name: {line!r}")
            name, body = line.split(":", 1)
            tokens = body.split()
            sym = None
            for s in ("<=", ">=", "="):
                if s in tokens:
                    sym = s
                    break
            if sym is None:
                raise FileFormatError(f"constraint without sense: {line!r}")
            pos = tokens.index(sym)
            if len(tokens) != pos + 2:
                raise FileFormatError(f"constraint needs one right-hand side: {line!r}")
            pairs = _parse_terms(tokens[:pos])
            constraints.append((name.strip(), pairs, _SYMBOL_SENSE[sym],
                                _number(tokens[pos + 1], line)))
        elif section == "bounds":
            tokens = line.split()
            if len(tokens) == 2 and tokens[1] == "free":
                bounds.append((tokens[0], -math.inf, math.inf))
            elif len(tokens) == 3 and tokens[1] == "=":
                v = _number(tokens[2], line)
                bounds.append((tokens[0], v, v))
            elif len(tokens) == 3 and tokens[1] == ">=":
                bounds.append((tokens[0], _number(tokens[2], line), math.inf))
            elif len(tokens) == 3 and tokens[1] == "<=":
                bounds.append((tokens[0], -math.inf, _number(tokens[2], line)))
            elif len(tokens) == 5 and tokens[1] == "<=" and tokens[3] == "<=":
                bounds.append((tokens[2], _number(tokens[0], line), _number(tokens[4], line)))
            else:
                raise FileFormatError(f"unrecognized bounds line: {line!r}")
        elif section == "binaries":
            binaries.update(line.split())
        elif section == "end":
            raise FileFormatError("content after End")
        else:
            raise FileFormatError(f"content before Maximize: {line!r}")

    obj_map = dict(obj_pairs)
    col_names = [name for name, _, _ in bounds]
    index = {name: c for c, name in enumerate(col_names)}
    if len(index) < len(col_names):
        raise FileFormatError("a column has more than one Bounds line")
    for name in [*obj_map, *sorted(binaries)]:
        if name not in index:
            raise FileFormatError(f"{name!r} has no Bounds line")
    rows, cols, vals = [], [], []
    for r, (_, pairs, _, _) in enumerate(constraints):
        for var_name, coef in pairs:
            if var_name not in index:
                raise FileFormatError(f"constraint references unknown {var_name!r}")
            rows.append(r)
            cols.append(index[var_name])
            vals.append(coef)
    matrix = csr_matrix((vals, (rows, cols)),
                        shape=(len(constraints), len(col_names)))
    xs = [name for name in col_names if name.startswith("x_")]
    try:
        n = max((int(s.split("_")[1]) for s in xs), default=0)
        m = max((int(s.split("_")[2]) for s in xs), default=0)
    except (IndexError, ValueError):
        raise FileFormatError("an x column is not named x_<bin>_<cluster>") from None
    alpha = obj_map.get("g_1", None)
    return MipInstance(
        matrix, [c[2] for c in constraints], [c[3] for c in constraints],
        [lb for _, lb, _ in bounds], [ub for _, _, ub in bounds],
        [obj_map.get(name, 0.0) for name in col_names],
        [name in binaries for name in col_names],
        n=n, m=m, alpha=alpha, weights=None,
        col_names=col_names, row_names=[c[0] for c in constraints])


def structurally_equal(a: MipInstance, b: MipInstance) -> bool:
    """Exact equality of names, kinds, bounds, objective, rows and senses."""
    for attr in ("lb", "ub", "obj", "binary", "senses", "rhs"):
        if not np.array_equal(getattr(a, attr), getattr(b, attr)):
            return False
    if not (np.array_equal(a.column_names(), b.column_names())
            and np.array_equal(a.row_names(), b.row_names())):
        return False
    am, bm = a.matrix, b.matrix
    return (am.shape == bm.shape
            and np.array_equal(am.indptr, bm.indptr)
            and np.array_equal(am.indices, bm.indices)
            and np.array_equal(am.data, bm.data))
