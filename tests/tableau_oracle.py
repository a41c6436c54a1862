"""Independent LP oracle: dense full-tableau Big-M simplex with Bland's rule.

Deliberately shares no code with the production solver; it consumes a
MipInstance (typically parsed back from an exported .lp file), shifts all
variables to zero lower bounds, turns finite upper bounds into rows, and
grinds a textbook tableau. Slow, simple, and only for small instances.
"""

from __future__ import annotations

import math

import numpy as np

BIG_M = 1e7
TOL = 1e-9


def tableau_lp_max(mip) -> float:
    """Optimal value of the continuous relaxation of `mip` (maximization)."""
    lb, ub = mip.lb, mip.ub
    if not np.all(np.isfinite(lb)):
        raise ValueError("oracle assumes finite lower bounds")
    c = mip.obj
    a = mip.matrix.toarray()
    rhs = mip.rhs - a @ lb  # substitute v = lb + v'
    rows = [(a[i], str(mip.senses[i]), rhs[i]) for i in range(mip.nrows)]
    for j in range(mip.ncols):
        if math.isfinite(ub[j]):
            bound_row = np.zeros(mip.ncols)
            bound_row[j] = 1.0
            rows.append((bound_row, "L", ub[j] - lb[j]))
    nstruct = mip.ncols
    m = len(rows)
    # columns: structural | slacks/surplus | artificials
    n_slack = sum(1 for _, s, _ in rows if s in ("L", "G"))
    n_art = sum(1 for _, s, _ in rows if s in ("E", "G"))
    ncols = nstruct + n_slack + n_art
    table = np.zeros((m, ncols + 1))
    cost = np.zeros(ncols)
    cost[:nstruct] = -c  # minimize -c'v
    basis = np.empty(m, dtype=int)
    s_at = nstruct
    a_at = nstruct + n_slack
    for i, (row, sense, b) in enumerate(rows):
        sign = 1.0
        if b < 0:
            row, sense, b = -row, {"L": "G", "G": "L", "E": "E"}[sense], -b
        table[i, :nstruct] = row
        table[i, -1] = b
        if sense == "L":
            table[i, s_at] = 1.0
            basis[i] = s_at
            s_at += 1
        elif sense == "G":
            table[i, s_at] = -1.0
            s_at += 1
            table[i, a_at] = 1.0
            cost[a_at] = BIG_M
            basis[i] = a_at
            a_at += 1
        else:
            table[i, a_at] = 1.0
            cost[a_at] = BIG_M
            basis[i] = a_at
            a_at += 1
    # Bland's rule full-tableau loop
    for _ in range(200000):
        z = cost[basis] @ table[:, :-1] - cost
        entering = -1
        for j in range(ncols):
            if z[j] > TOL:
                entering = j
                break
        if entering < 0:
            break
        col = table[:, entering]
        best_ratio, leave = math.inf, -1
        for i in range(m):
            if col[i] > TOL:
                ratio = table[i, -1] / col[i]
                if ratio < best_ratio - 1e-12 or (
                    abs(ratio - best_ratio) <= 1e-12
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best_ratio, leave = ratio, i
        if leave < 0:
            raise ValueError("oracle: unbounded LP")
        table[leave] /= table[leave, entering]
        for i in range(m):
            if i != leave:
                table[i] -= table[i, entering] * table[leave]
        basis[leave] = entering
    else:
        raise ValueError("oracle: iteration cap hit")
    if np.any((basis >= nstruct + n_slack) & (table[:, -1] > 1e-6)):
        raise ValueError("oracle: infeasible LP")
    value = -(cost[basis] @ table[:, -1])  # minimized -c'v'
    return float(value + c @ lb)
