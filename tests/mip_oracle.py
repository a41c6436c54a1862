"""Slow, independent references for the LP text writer and for build_mip.

`num` is the scalar number format of the LP text, one value at a time.
`triplet_build_mip` assembles build_mip's model from (row, column, value)
triplets through a COO matrix, whose conversion sorts the entries of each
row; build_mip writes its CSR arrays directly and must give the same
arrays.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix

from cycleclust.mip import ColumnBlock, MipInstance, _pairs_for_model


def num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def triplet_build_mip(W, m: int, alpha: float) -> MipInstance:
    n = W.n
    q = W.entries
    d = q - q.T
    epairs, cpairs = _pairs_for_model(q)
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
    # envelope rows p1, p2, p3 of the e and then the c block
    base = n + 3 * m
    for block in (blocks["e"], blocks["c"]):
        nv = block.size
        run, k0 = np.divmod(np.arange(nv), m)
        var = block.offset + np.arange(nv)
        xa = block.i[run] * m + k0
        xb = block.j[run] * m + (k0 + block.shift) % m
        r1 = base + np.arange(nv)
        r2, r3 = r1 + nv, r1 + 2 * nv
        rows.append(np.concatenate([r1, r1, r2, r2, r3, r3, r3]))
        cols.append(np.concatenate([var, xa, var, xb, var, xa, xb]))
        vals.append(np.concatenate([np.ones(nv), -np.ones(nv), np.ones(nv), -np.ones(nv),
                                    np.ones(nv), -np.ones(nv), -np.ones(nv)]))
        base += 3 * nv

    counts = [n, m, m, m, ne * m, ne * m, ne * m, nc * m, nc * m, nc * m]
    senses = np.repeat(np.array(list("EGEELLGLLG")), counts)
    rhs = np.repeat([1.0, 1.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, -1.0], counts)
    matrix = csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(base, ncols),
    )
    return MipInstance(matrix, senses, rhs, lb, ub, obj, binary, n=n, m=m,
                       alpha=alpha, weights=W, blocks=blocks)
