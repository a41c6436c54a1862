"""Two-dimensional multi-well energy landscapes for the sampled test sets.

A landscape is a table of Gaussian terms (amplitude a, width w, centre c),
whose energy at p is the sum of a * exp(-w * |p - c|^2), taken left to
right in table order. Each landscape places its wells on a ring around a
central bump; the well centers double as the cyclic drift targets, in the
order listed. `FLAT` is the empty table.

One evaluator serves arrays of points (`energy`) and the sampler's Python
floats (`exponents`, then one `np.exp` over them, then `total`), and gives
both the same bits:
- a square is written `d * d`, which numpy's `d ** 2` on an array computes
  too, while `** 2` on a Python float calls `pow` and differs from it in
  the last bit on about 0.08 % of arguments;
- `np.exp` on an array equals `np.exp` on each element; `math.exp`
  differs from both on about 5 % of arguments;
- the terms are summed one at a time in table order, not by `np.sum`
  or a dot product, whose summation order differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

X_STAR = 0.5
Y_STAR = 0.5 * math.sqrt(3.0)


@dataclass(frozen=True)
class Potential:
    kind: str
    terms: tuple  # (amplitude, width, (cx, cy)) per Gaussian term
    minima: tuple

    def exponents(self, x, y) -> list:
        """Each term's -w * |p - c|^2 at p = (x, y), floats or arrays."""
        out = []
        for _, width, (cx, cy) in self.terms:
            dx, dy = x - cx, y - cy
            out.append(-width * (dx * dx + dy * dy))
        return out

    def total(self, exps, start=0.0):
        """`start` plus each amplitude times its term's exp, left to right."""
        for (amplitude, _, _), e in zip(self.terms, exps):
            start = start + amplitude * e
        return start

    def energy(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        x, y = p[..., 0], p[..., 1]
        return self.total(np.exp(self.exponents(x, y)), np.zeros_like(x))


def _ring(kind: str, bump: float, wells: tuple) -> Potential:
    """A bump of width 3 at the origin, then a well of depth 8 and width 1
    at each of `wells`, which are also the drift targets."""
    terms = ((bump, 3.0, (0.0, 0.0)),) + tuple((-8.0, 1.0, w) for w in wells)
    return Potential(kind, terms, wells)


OMEGA3 = _ring("omega3", 6.0, (
    (X_STAR, -Y_STAR), (-X_STAR, -Y_STAR), (0.0, 1.0),
))
OMEGA4 = _ring("omega4", 4.0, (
    (0.0, 1.5), (1.0, 0.0), (-1.0, 0.0), (0.0, -1.5),
))
OMEGA6 = _ring("omega6", 4.0, (
    (2 * X_STAR, -2 * Y_STAR), (-2 * X_STAR, -2 * Y_STAR),
    (-2 * X_STAR, 2 * Y_STAR), (2 * X_STAR, 2 * Y_STAR),
    (-2.0, 1.0), (2.0, 0.0),
))

FLAT = Potential("flat", (), ((0.0, 0.0),))

BY_NAME = {p.kind: p for p in (OMEGA3, OMEGA4, OMEGA6)}
