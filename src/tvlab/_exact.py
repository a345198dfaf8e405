"""Exact arithmetic for the certificate checks.

Binary floats are dyadic rationals, so floats times one power of two are
integers, and questions about them can be answered in Python integers with
no rounding and no Fractions:

* :func:`integers` puts rationals over one shared scale;
* :func:`solve` and :func:`null_vector` share one fraction-free Gauss-Jordan
  elimination (Bareiss, 1968), in which every division is exact;
* :func:`gmul` multiplies Gaussian rationals held as (re, im) pairs.
"""

from __future__ import annotations

from math import lcm


def integers(values):
    """(N, s) with values[i] == N[i] / s for numbers given as floats, ints or
    Fractions: Python integers over their least common denominator s, which
    is a power of two when every value is dyadic."""
    ratios = [v.as_integer_ratio() for v in values]
    s = lcm(*(q for _, q in ratios))
    return [p * (s // q) for p, q in ratios], s


def _eliminate(R, ncols):
    """Fraction-free Gauss-Jordan elimination of the integer rows R in place,
    pivoting on the columns < ncols in order.  Returns (pivots, d): row r has
    d in column pivots[r] and zero in the other pivot columns, and the rows
    after the last pivot row vanish on the columns < ncols."""
    d = 1
    pivots = []
    for c in range(ncols):
        k = len(pivots)
        p = next((r for r in range(k, len(R)) if R[r][c]), None)
        if p is None:
            continue
        R[k], R[p] = R[p], R[k]
        piv = R[k]
        for i in range(len(R)):
            if i != k:
                f = R[i][c]
                R[i] = [(piv[c] * x - f * y) // d for x, y in zip(R[i], piv)]
        d = piv[c]
        pivots.append(c)
    return pivots, d


def solve(M, v):
    """(z, d) with M z = d v and d > 0, for a square integer matrix M (a list
    of rows) and an integer vector v; None when M is singular."""
    R = [list(row) + [x] for row, x in zip(M, v)]
    pivots, d = _eliminate(R, len(R))
    if len(pivots) < len(R):
        return None
    s = 1 if d > 0 else -1
    return [s * row[-1] for row in R], s * d


def null_vector(M):
    """A nonzero integer vector z with M z = 0, for an integer matrix M (a
    list of rows), or None when the columns of M are independent.  z is 0 on
    every free column but the first, f, and z[f] > 0: a positive multiple of
    the vector that Gauss-Jordan elimination over the rationals reads off
    with z[f] = 1."""
    R = [list(row) for row in M]
    n = len(R[0])
    pivots, d = _eliminate(R, n)
    f = next((c for c in range(n) if c not in pivots), None)
    if f is None:
        return None
    s = 1 if d > 0 else -1
    z = [0] * n
    z[f] = s * d
    for row, c in zip(R, pivots):
        z[c] = -s * row[f]
    return z


def gmul(u, v):
    """The product of two Gaussian rationals (or integers) as (re, im) pairs."""
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])
