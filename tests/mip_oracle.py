"""Slow, independent references for the LP text writer and for build_mip.

`num` is the scalar number format of the LP text, one value at a time.
`triplet_build_mip` assembles build_mip's model from (row, column, value)
triplets through a COO matrix, whose conversion sorts the entries of each
row; build_mip writes its CSR arrays directly and must give the same
arrays. With `one_sided=False` it builds the paper's model instead, with
all three envelope rows p1, p2 and p3 for every product: the reference
whose LP relaxation and optimum build_mip's must equal.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix

from cycleclust.mip import ColumnBlock, MipInstance


def num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def triplet_build_mip(W, m: int, alpha: float, one_sided: bool = True) -> MipInstance:
    n = W.n
    q = W.entries
    d = q - q.T
    # ordered flow pairs (d != 0) and unordered coherence pairs (mass > 0)
    epairs = np.array([(i, j) for i in range(n) for j in range(n)
                       if i != j and d[i, j] != 0.0], dtype=np.intp).reshape(-1, 2)
    cpairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)
                       if q[i, j] + q[j, i] > 0.0], dtype=np.intp).reshape(-1, 2)
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
    lb[0] = 1.0
    ub = np.ones(ncols)
    ub[off_f:] = math.inf
    obj = np.zeros(ncols)
    obj[off_f:off_g] = 1.0
    obj[off_g:] = alpha
    binary = np.zeros(ncols, dtype=bool)
    binary[:off_e] = True

    rows, cols, vals = [], [], []
    # assign_i
    rows.append(np.repeat(np.arange(n), m))
    cols.append(np.arange(n * m))
    vals.append(np.ones(n * m))
    # setcover_k
    rows.append(n + np.tile(ks, n))
    cols.append(np.arange(n * m))
    vals.append(np.ones(n * m))
    # flowdef_k
    rows.append(n + m + np.concatenate([ks, np.tile(ks, ne)]))
    cols.append(np.concatenate([off_f + ks, off_e + np.arange(ne * m)]))
    vals.append(np.concatenate([np.ones(m),
                                np.repeat(-d[epairs[:, 0], epairs[:, 1]], m)]))
    # cohdef_k
    qdiag = np.diag(q)
    diag_bins = np.nonzero(qdiag != 0.0)[0]
    rows.append(n + 2 * m + np.concatenate([
        ks, np.tile(ks, len(diag_bins)), np.tile(ks, nc)]))
    cols.append(np.concatenate([
        off_g + ks, (diag_bins[:, None] * m + ks).ravel(),
        off_c + np.arange(nc * m)]))
    vals.append(np.concatenate([
        np.ones(m), np.repeat(-qdiag[diag_bins], m),
        np.repeat(-(q[cpairs[:, 0], cpairs[:, 1]] + q[cpairs[:, 1], cpairs[:, 0]]), m)]))
    # envelope rows of the e and then the c block: p1 and p2 over the
    # products that raise f or g (e with d_ij > 0, every c), then p3 over
    # those that lower f (e with d_ij < 0); every row for every product
    # when not one-sided
    groups = [("assign", n, None), ("setcover", m, None), ("flowdef", m, None),
              ("cohdef", m, None)]
    senses = list("EGEE")
    rhs = [1.0, 1.0, 0.0, 0.0]
    base = n + 3 * m
    for block, raises in ((blocks["e"], d[epairs[:, 0], epairs[:, 1]] > 0),
                          (blocks["c"], np.ones(nc, dtype=bool))):
        run, k0 = np.divmod(np.arange(block.size), m)
        var = block.offset + np.arange(block.size)
        xa = block.i[run] * m + k0
        xb = block.j[run] * m + (k0 + block.shift) % m
        up = raises[run] | (not one_sided)
        low = ~raises[run] | (not one_sided)
        for prefix, keep, others, sense, b in (("p1_", up, [xa], "L", 0.0),
                                               ("p2_", up, [xb], "L", 0.0),
                                               ("p3_", low, [xa, xb], "G", -1.0)):
            r = base + np.arange(int(keep.sum()))
            rows.append(np.tile(r, 1 + len(others)))
            cols.append(np.concatenate([var[keep]] + [x[keep] for x in others]))
            vals.append(np.concatenate([np.ones(len(r))] + [-np.ones(len(r))] * len(others)))
            groups.append((prefix, len(r), var[keep]))
            senses.append(sense)
            rhs.append(b)
            base += len(r)

    counts = [count for _, count, _ in groups]
    matrix = csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(base, ncols),
    )
    return MipInstance(matrix, np.repeat(senses, counts), np.repeat(rhs, counts),
                       lb, ub, obj, binary, n=n, m=m, alpha=alpha, weights=W,
                       blocks=blocks, row_groups=groups)
