"""The exact-arithmetic layer: dyadic scaling, the Bareiss solve and null
vector against Fraction Gauss-Jordan references, and Gaussian products."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from tvlab._exact import gmul, integers, null_vector, solve


def _reference_null_vector(columns):
    """Fraction Gauss-Jordan reference: a nonzero rational z with M z = 0
    for the given columns of M, with z[f] = 1 on the first free column f, or
    None when the columns are linearly independent."""
    m = len(columns[0])
    n = len(columns)
    M = [[Fraction(columns[j][i]) for j in range(n)] for i in range(m)]
    pivots = {}  # col -> row
    row = 0
    for col in range(n):
        sel = next((r for r in range(row, m) if M[r][col] != 0), None)
        if sel is None:
            continue
        M[row], M[sel] = M[sel], M[row]
        piv = M[row][col]
        M[row] = [v / piv for v in M[row]]
        for r in range(m):
            if r != row and M[r][col] != 0:
                f = M[r][col]
                M[r] = [v - f * w for v, w in zip(M[r], M[row])]
        pivots[col] = row
        row += 1
        if row == m:
            break
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return None
    z = [Fraction(0)] * n
    z[free[0]] = Fraction(1)
    for col, r in pivots.items():
        z[col] = -M[r][free[0]]
    return z


def _first_free_column(columns):
    """The first column that depends on the columns before it."""
    return next(c for c in range(len(columns)) if _reference_null_vector(columns[: c + 1]))


def _reference_solve(M, v):
    """z with M z = v for a square M, or None when M is singular."""
    cols = [list(c) for c in zip(*M)]
    if _reference_null_vector(cols) is not None:
        return None
    return _reference_null_vector(cols + [[-x for x in v]])[:-1]


def _matrices(seed, count):
    """Seeded integer and dyadic-float matrices: full rank, singular, with
    repeated or zero rows and columns, wide and tall."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        m, n = (int(x) for x in rng.integers(1, 7, size=2))
        kind = i % 4
        if kind == 0:
            A = rng.integers(-5, 6, size=(m, n)).tolist()
        elif kind == 1:  # dyadic floats of mixed exponents
            A = (rng.standard_normal((m, n)) * 2.0 ** rng.integers(-30, 30, size=(m, n))).tolist()
        elif kind == 2:  # rank deficient: a product of thin factors
            r = int(rng.integers(0, min(m, n) + 1))
            A = (rng.integers(-3, 4, size=(m, r)) @ rng.integers(-3, 4, size=(r, n))).tolist()
        else:  # repeated rows and a zero column
            A = rng.integers(-2, 3, size=(m, n))
            A[rng.integers(0, m)] = A[0]
            A[:, rng.integers(0, n)] = 0
            A = A.tolist()
        yield A


def test_integers_share_one_scale():
    values = [0.75, -3, Fraction(5, 8), 2.0**-60, -0.0, 1e300]
    N, s = integers(values)
    assert all(isinstance(x, int) for x in N) and s == 2**60
    assert [Fraction(x, s) for x in N] == [Fraction(v) for v in values]
    assert integers([]) == ([], 1)


@pytest.mark.parametrize("seed", range(4))
def test_null_vector_is_a_positive_multiple_of_the_reference(seed):
    n_singular = 0
    for A in _matrices(seed, 60):
        N, _ = integers([x for row in A for x in row])
        M = [N[i * len(A[0]) : (i + 1) * len(A[0])] for i in range(len(A))]
        z = null_vector(M)
        ref = _reference_null_vector([list(c) for c in zip(*A)])
        if ref is None:
            assert z is None
            continue
        n_singular += 1
        assert all(isinstance(x, int) for x in z)
        f = _first_free_column([list(c) for c in zip(*A)])
        assert ref[f] == 1 and z[f] > 0
        assert [Fraction(x) for x in z] == [z[f] * x for x in ref]
        assert all(sum(Fraction(a) * x for a, x in zip(row, z)) == 0 for row in A)
    assert n_singular > 10


@pytest.mark.parametrize("seed", range(4))
def test_solve_matches_the_reference(seed):
    rng = np.random.default_rng([seed, 1])
    n_regular = n_singular = 0
    for A in _matrices(seed, 80):
        m = len(A)
        A = [row[:m] + [0] * (m - len(row)) for row in A]  # square
        v = rng.integers(-4, 5, size=m).tolist()
        N, s = integers([x for row in A for x in row])
        M = [N[i * m : (i + 1) * m] for i in range(m)]
        got = solve(M, v)
        ref = _reference_solve(A, v)
        if ref is None:
            assert got is None
            n_singular += 1
            continue
        n_regular += 1
        z, d = got
        assert d > 0 and all(isinstance(x, int) for x in z)
        assert [Fraction(x * s, d) for x in z] == ref
    assert n_regular > 20 and n_singular > 10


def test_gaussian_products():
    u, v = (Fraction(1, 2), Fraction(-3)), (Fraction(5), Fraction(1, 4))
    assert gmul(u, v) == (Fraction(13, 4), Fraction(-119, 8))
    assert gmul((3, 4), (3, -4)) == (25, 0)
    z = complex(*u) * complex(*v)
    assert (float(gmul(u, v)[0]), float(gmul(u, v)[1])) == (z.real, z.imag)
