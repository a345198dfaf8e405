"""Linear feasibility oracle with certificates.

Every separation, intersection, and cone-membership question in the toolkit
reduces to feasibility of a standard-form system  A x = b, x >= 0  (free
variables are split into positive and negative parts).  Two arithmetic paths
share the same tableau algorithm:

* a float path (numpy tableau, Dantzig pivoting with a Bland fallback) used
  inside search loops, trusted to 1e-9 residuals;
* an exact path over ``fractions.Fraction`` with Bland's anti-cycling rule
  throughout, used for consistency verdicts and certificates.  Binary floats
  are exact rationals, so escalation never changes the instance.

Infeasibility is certified by a Farkas functional y with  y'A <= 0  and
y'b > 0 (componentwise equality on columns of free variables); feasibility by
the witness itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .geometry import Polytope, complex_to_real

PIVOT_TOL = 1e-11
FEAS_TOL = 1e-9


class UnboundedError(RuntimeError):
    """Objective unbounded below on a feasible region."""


class SolverError(RuntimeError):
    """The solver reached a state that its theory rules out."""


# ---------------------------------------------------------------------------
# float tableau simplex


def _pivot(T, basis, i, j):
    piv_row = T[i] / T[i, j]
    col = T[:, j].copy()
    T -= np.outer(col, piv_row)
    T[i] = piv_row
    T[:, j] = 0.0
    T[i, j] = 1.0
    basis[i] = j


def _pivot_loop_float(T, basis, ncols, bland_after=200, max_iter=20000):
    """Minimize the cost row over columns < ncols. Returns 'optimal' or the
    index of an unbounded entering column."""
    for it in range(max_iter):
        r = T[-1, :ncols]
        if it < bland_after:
            j = int(np.argmin(r))
            if r[j] >= -PIVOT_TOL:
                return "optimal", None
        else:
            below = np.nonzero(r < -PIVOT_TOL)[0]
            if below.size == 0:
                return "optimal", None
            j = int(below[0])
        col = T[:-1, j]
        rhs = T[:-1, -1]
        mask = col > PIVOT_TOL
        if not mask.any():
            return "unbounded", j
        ratios = np.full(col.shape, np.inf)
        ratios[mask] = rhs[mask] / col[mask]
        best = np.min(ratios)
        # ties broken by smallest basis label, which cheaply discourages cycling
        cand = np.nonzero(ratios <= best + 1e-12 * (1.0 + abs(best)))[0]
        i = int(min(cand, key=lambda ii: basis[ii]))
        _pivot(T, basis, i, j)
    raise RuntimeError("simplex iteration limit exceeded")


def _solve_standard_float(A, b, c=None):
    """Solve min c.x s.t. Ax = b, x >= 0 in floats.

    Returns (status, x, y, objective): status in {'feasible', 'infeasible',
    'unbounded', 'inconclusive'}; x the witness / optimum, y the Farkas
    functional for the original (unscaled) rows when infeasible.  Phase 1 is
    bounded in exact arithmetic, so an unbounded phase 1 is an artefact of the
    absolute pivot tolerance and reported as inconclusive.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    sgn = np.where(b < 0, -1.0, 1.0)
    As = A * sgn[:, None]
    bs = b * sgn

    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = As
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = bs
    T[m, n : n + m] = 1.0
    T[m] -= T[:m].sum(axis=0)
    basis = list(range(n, n + m))

    status, _ = _pivot_loop_float(T, basis, n + m)
    if status != "optimal":
        return "inconclusive", None, None, None
    phase1_obj = -T[m, -1]
    if phase1_obj > FEAS_TOL:
        y_scaled = 1.0 - T[m, n : n + m]
        y = y_scaled * sgn
        return "infeasible", None, y, None

    # drive leftover artificials out of the basis; drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            row = T[i, :n]
            js = np.nonzero(np.abs(row) > PIVOT_TOL)[0]
            if js.size:
                _pivot(T, basis, i, int(js[0]))
                keep.append(i)
            # else: redundant row, skip it in phase 2
        else:
            keep.append(i)
    if len(keep) < m:
        T = np.vstack([T[keep], T[-1:]])
        basis = [basis[i] for i in keep]
        m = len(keep)

    if c is not None:
        c = np.asarray(c, dtype=float)
        T[-1, :] = 0.0
        T[-1, :n] = c
        for i, bi in enumerate(basis):
            if bi < n and c[bi] != 0.0:
                T[-1] -= c[bi] * T[i]
        status, _ = _pivot_loop_float(T, basis, n)
        if status == "unbounded":
            return "unbounded", None, None, None

    x = np.zeros(n)
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = T[i, -1]
    obj = float(c @ x) if c is not None else None
    return "feasible", x, None, obj


# ---------------------------------------------------------------------------
# exact tableau simplex over Fraction, Bland's rule throughout


def _to_fraction_matrix(A):
    return [[Fraction(x) for x in row] for row in A]


def _pivot_exact(T, basis, i, j):
    piv = T[i][j]
    T[i] = [v / piv for v in T[i]]
    row_i = T[i]
    for k, row in enumerate(T):
        if k == i:
            continue
        f = row[j]
        if f:
            T[k] = [v - f * w for v, w in zip(row, row_i)]
    basis[i] = j


def _pivot_loop_exact(T, basis, ncols):
    zero = Fraction(0)
    while True:
        cost = T[-1]
        j = next((jj for jj in range(ncols) if cost[jj] < zero), None)
        if j is None:
            return "optimal", None
        best = None
        best_i = None
        for i in range(len(T) - 1):
            a = T[i][j]
            if a > zero:
                ratio = T[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[best_i]):
                    best = ratio
                    best_i = i
        if best_i is None:
            return "unbounded", j
        _pivot_exact(T, basis, best_i, j)


def _solve_standard_exact(A, b, c=None):
    """Exact-rational counterpart of :func:`_solve_standard_float`.

    Accepts floats (converted exactly) or Fractions; returns Fraction vectors.
    """
    A = _to_fraction_matrix(A)
    b = [Fraction(x) for x in b]
    m = len(A)
    n = len(A[0]) if m else 0
    one, zero = Fraction(1), Fraction(0)
    sgn = [-one if bi < zero else one for bi in b]
    As = [[s * x for x in row] for s, row in zip(sgn, A)]
    bs = [s * x for s, x in zip(sgn, b)]

    T = []
    for i in range(m):
        row = As[i] + [one if k == i else zero for k in range(m)] + [bs[i]]
        T.append(row)
    cost = [zero] * n + [one] * m + [zero]
    for i in range(m):
        cost = [cv - rv for cv, rv in zip(cost, T[i])]
    T.append(cost)
    basis = list(range(n, n + m))

    status, _ = _pivot_loop_exact(T, basis, n + m)
    if status != "optimal":
        raise SolverError("exact phase 1 reported an unbounded ray")
    phase1_obj = -T[-1][-1]
    if phase1_obj > zero:
        y = [(one - T[-1][n + i]) * sgn[i] for i in range(m)]
        return "infeasible", None, y
    rows_keep = []
    for i in range(m):
        if basis[i] >= n:
            j = next((jj for jj in range(n) if T[i][jj] != zero), None)
            if j is not None:
                _pivot_exact(T, basis, i, j)
                rows_keep.append(i)
        else:
            rows_keep.append(i)
    if len(rows_keep) < m:
        T = [T[i] for i in rows_keep] + [T[-1]]
        basis = [basis[i] for i in rows_keep]
        m = len(rows_keep)

    if c is not None:
        c = [Fraction(x) for x in c]
        cost = [zero] * (n + m + 1)
        cost[:n] = list(c)
        T[-1] = cost
        for i, bi in enumerate(basis):
            if bi < n and c[bi]:
                f = c[bi]
                T[-1] = [v - f * w for v, w in zip(T[-1], T[i])]
        status, _ = _pivot_loop_exact(T, basis, n)
        if status == "unbounded":
            return "unbounded", None, None

    x = [zero] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = T[i][-1]
    return "feasible", x, None


# ---------------------------------------------------------------------------
# public problem and certificate types


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min objective.x  s.t.  rows . x = rhs, with the first
    ``n_nonneg`` variables constrained >= 0 and the remaining ``n_free``
    unconstrained.  Objective may be None (pure feasibility)."""

    n_nonneg: int
    n_free: int
    rows: tuple
    rhs: tuple
    objective: tuple | None = None

    def __post_init__(self):
        if self.n_nonneg < 0 or self.n_free < 0:
            raise ValueError("variable counts must be nonnegative")
        n = self.n_nonneg + self.n_free
        rows = tuple(tuple(float(v) for v in row) for row in self.rows)
        rhs = tuple(float(v) for v in self.rhs)
        if len(rows) != len(rhs):
            raise ValueError("row/rhs length mismatch")
        for row in rows:
            if len(row) != n:
                raise ValueError("row length does not match variable count")
        vals = [v for row in rows for v in row] + list(rhs)
        if not all(np.isfinite(vals)):
            raise ValueError("coefficients must be finite")
        obj = self.objective
        if obj is not None:
            obj = tuple(float(v) for v in obj)
            if len(obj) != n:
                raise ValueError("objective length does not match variable count")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "objective", obj)

    @property
    def n_vars(self) -> int:
        return self.n_nonneg + self.n_free


@dataclass(frozen=True, eq=False)
class FeasibilityCertificate:
    """Either a feasible witness or a Farkas functional.

    ``witness`` assigns every variable of the originating program; ``farkas``
    is a row functional y with y'A <= 0 on nonnegative-variable columns,
    y'A = 0 on free-variable columns, and y'b > 0.  ``exact`` marks results
    from the rational path; the ``*_exact`` fields then carry Fractions.
    """

    status: str
    witness: tuple | None = None
    farkas: tuple | None = None
    exact: bool = False
    witness_exact: tuple | None = None
    farkas_exact: tuple | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def _verify_feasible(lp: LinearProgram, witness, exact: bool) -> bool:
    if exact:
        w = [Fraction(v) for v in witness]
        for row, rhs in zip(lp.rows, lp.rhs):
            s = sum(Fraction(a) * x for a, x in zip(row, w))
            if s != Fraction(rhs):
                return False
        return all(x >= 0 for x in w[: lp.n_nonneg])
    w = np.asarray(witness, dtype=float)
    A = np.asarray(lp.rows, dtype=float).reshape(len(lp.rows), lp.n_vars)
    resid = A @ w - np.asarray(lp.rhs) if len(lp.rows) else np.zeros(0)
    return (
        float(np.max(np.abs(resid), initial=0.0)) <= FEAS_TOL
        and float(np.min(w[: lp.n_nonneg], initial=0.0)) >= -FEAS_TOL
    )


def _verify_farkas(lp: LinearProgram, y, exact: bool) -> bool:
    if exact:
        yv = [Fraction(v) for v in y]
        dots = []
        for j in range(lp.n_vars):
            dots.append(sum(Fraction(lp.rows[i][j]) * yv[i] for i in range(len(yv))))
        if any(d > 0 for d in dots[: lp.n_nonneg]):
            return False
        if any(d != 0 for d in dots[lp.n_nonneg :]):
            return False
        return sum(Fraction(r) * v for r, v in zip(lp.rhs, yv)) > 0
    yv = np.asarray(y, dtype=float)
    A = np.asarray(lp.rows, dtype=float).reshape(len(lp.rows), lp.n_vars)
    dots = yv @ A
    if float(np.max(dots[: lp.n_nonneg], initial=0.0)) > FEAS_TOL:
        return False
    if lp.n_free and float(np.max(np.abs(dots[lp.n_nonneg :]))) > FEAS_TOL:
        return False
    return float(yv @ np.asarray(lp.rhs)) > 0


def _split_free(lp: LinearProgram):
    """Standard-form matrix with free variables split into x+ - x-."""
    m = len(lp.rows)
    n = lp.n_nonneg + 2 * lp.n_free
    A = np.zeros((m, n))
    rows = np.asarray(lp.rows, dtype=float).reshape(m, lp.n_vars) if m else np.zeros((0, lp.n_vars))
    A[:, : lp.n_nonneg] = rows[:, : lp.n_nonneg]
    A[:, lp.n_nonneg : lp.n_nonneg + lp.n_free] = rows[:, lp.n_nonneg :]
    A[:, lp.n_nonneg + lp.n_free :] = -rows[:, lp.n_nonneg :]
    c = None
    if lp.objective is not None:
        c = np.concatenate(
            [
                np.asarray(lp.objective[: lp.n_nonneg]),
                np.asarray(lp.objective[lp.n_nonneg :]),
                -np.asarray(lp.objective[lp.n_nonneg :]),
            ]
        )
    return A, np.asarray(lp.rhs, dtype=float), c


def _merge_free(lp: LinearProgram, x):
    head = list(x[: lp.n_nonneg])
    plus = x[lp.n_nonneg : lp.n_nonneg + lp.n_free]
    minus = x[lp.n_nonneg + lp.n_free :]
    return tuple(head + [p - q for p, q in zip(plus, minus)])


def lp_feasible(lp: LinearProgram, exact: bool = False) -> FeasibilityCertificate:
    """Certified feasibility (and optimization, when an objective is given).

    The float path escalates to the exact path on its own whenever the
    certificate it produced does not re-verify.  Raises
    :class:`UnboundedError` when an objective is supplied and unbounded.
    """
    A, b, c = _split_free(lp)
    if not exact:
        status, x, y, _ = _solve_standard_float(A, b, c)
        if status == "unbounded":
            raise UnboundedError("objective unbounded on the feasible region")
        if status == "feasible":
            witness = _merge_free(lp, x)
            if _verify_feasible(lp, witness, exact=False):
                return FeasibilityCertificate("feasible", witness=witness)
        elif status == "infeasible" and _verify_farkas(lp, tuple(y), exact=False):
            return FeasibilityCertificate("infeasible", farkas=tuple(y))
        # fall through: numerically inconclusive, escalate

    status, x, y = _solve_standard_exact(A, b, c)
    if status == "unbounded":
        raise UnboundedError("objective unbounded on the feasible region")
    if status == "feasible":
        witness = _merge_free(lp, x)
        return FeasibilityCertificate(
            "feasible",
            witness=tuple(float(v) for v in witness),
            exact=True,
            witness_exact=tuple(witness),
        )
    return FeasibilityCertificate(
        "infeasible",
        farkas=tuple(float(v) for v in y),
        exact=True,
        farkas_exact=tuple(y),
    )


# ---------------------------------------------------------------------------
# geometric feasibility questions


def _vertex_rows(obj) -> np.ndarray:
    """Rows of R^k: accepts a Polytope (real view) or an (n, k) array of
    points; real arrays pass through, complex arrays get the interleaved
    real view."""
    if isinstance(obj, Polytope):
        return obj.real_view()
    arr = np.asarray(obj)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if np.iscomplexobj(arr):
        return complex_to_real(arr)
    return arr.astype(float)


@dataclass(frozen=True, eq=False)
class HullIntersection:
    """Outcome of a convex-hull intersection query."""

    certificate: FeasibilityCertificate
    point: np.ndarray | None

    @property
    def feasible(self) -> bool:
        return self.certificate.feasible


def hulls_intersect(U, V, exact: bool = False) -> HullIntersection:
    """Do conv(U) and conv(V) intersect?  Feasible iff there are convex
    weights lam over U's vertices and mu over V's with equal weighted sums;
    the common point is returned when they exist.

    U, V: Polytope or point array (complex points are read in R^{2d}).
    """
    Ur = _vertex_rows(U)
    Vr = _vertex_rows(V)
    if Ur.shape[1] != Vr.shape[1]:
        raise ValueError("dimension mismatch between the two hulls")
    d = Ur.shape[1]
    nu, nv = Ur.shape[0], Vr.shape[0]
    rows = []
    rhs = []
    for i in range(d):
        rows.append(tuple(Ur[:, i]) + tuple(-Vr[:, i]))
        rhs.append(0.0)
    rows.append((1.0,) * nu + (0.0,) * nv)
    rhs.append(1.0)
    rows.append((0.0,) * nu + (1.0,) * nv)
    rhs.append(1.0)
    lp = LinearProgram(nu + nv, 0, tuple(rows), tuple(rhs))
    cert = lp_feasible(lp, exact=exact)
    point = None
    if cert.feasible:
        lam = np.asarray(cert.witness[:nu])
        point = lam @ Ur
    return HullIntersection(cert, point)


@dataclass(frozen=True, eq=False)
class KirchbergerVerdict:
    separated: bool
    violating_u: tuple | None = None  # indices into U
    violating_v: tuple | None = None  # indices into V
    common_point: np.ndarray | None = None


def kirchberger_separated(U, V, k: int, exact: bool = False) -> KirchbergerVerdict:
    """Check hull disjointness on every (k+2)-point subset split of U u V.

    Subsets are enumerated lexicographically over the concatenated index
    range (U first), so the reported violating subset is deterministic.
    """
    Ur = _vertex_rows(np.asarray(U, dtype=float))
    Vr = _vertex_rows(np.asarray(V, dtype=float))
    if Ur.shape[1] != k or Vr.shape[1] != k:
        raise ValueError(f"points must lie in R^{k}")
    nu, nv = Ur.shape[0], Vr.shape[0]
    size = min(k + 2, nu + nv)
    for subset in combinations(range(nu + nv), size):
        ui = tuple(i for i in subset if i < nu)
        vi = tuple(i - nu for i in subset if i >= nu)
        if not ui or not vi:
            continue  # an empty side has empty hull
        res = hulls_intersect(Ur[list(ui)], Vr[list(vi)], exact=exact)
        if res.feasible:
            return KirchbergerVerdict(False, ui, vi, res.point)
    return KirchbergerVerdict(True)


def flat_meets_polytope(equalities, poly: Polytope, exact: bool = False):
    """Intersection of a complex affine flat with a complex polytope.

    equalities: iterable of (a, rhs) with a in C^d and rhs complex, each
    encoding <z, a> = rhs under the Hermitian convention (conjugate-linear in
    a).  Feasible iff some convex combination of the polytope's vertices
    satisfies every equality; returns (certificate, point or None).
    """
    if poly.ambient != "complex":
        raise ValueError("flat_meets_polytope expects a complex polytope")
    V = poly.vertices
    n = V.shape[0]
    rows = []
    rhs = []
    for a, b in equalities:
        a = np.asarray(a, dtype=complex)
        if a.shape != (poly.dim,):
            raise ValueError("constraint dimension mismatch")
        proj = V @ np.conj(a)
        rows.append(tuple(proj.real))
        rhs.append(complex(b).real)
        rows.append(tuple(proj.imag))
        rhs.append(complex(b).imag)
    rows.append((1.0,) * n)
    rhs.append(1.0)
    lp = LinearProgram(n, 0, tuple(rows), tuple(rhs))
    cert = lp_feasible(lp, exact=exact)
    point = None
    if cert.feasible:
        lam = np.asarray(cert.witness)
        point = lam @ V
    return cert, point


@dataclass(frozen=True, eq=False)
class ConeZero:
    """Convex weights hitting the origin, grouped by generator label."""

    certificate: FeasibilityCertificate
    weights: tuple | None  # tuple of (label, ndarray of lambdas), input order
    group_weights: tuple | None  # tuple of (label, float r) with r = sum(lambdas)


def nontrivial_zero_in_cone(groups, exact: bool = False) -> ConeZero:
    """Is 0 a convex combination of the given generators?

    groups: ordered iterable of (label, generators) with generators an
    (n_g, dim) array of real vectors.  Feasible iff lam >= 0, sum(lam) = 1,
    sum(lam_g g) = 0; the normalization makes any solution nontrivial.
    """
    groups = [(label, np.atleast_2d(np.asarray(g, dtype=float))) for label, g in groups]
    if not groups:
        raise ValueError("need at least one generator group")
    dim = groups[0][1].shape[1]
    cols = np.vstack([g for _, g in groups])  # (n_total, dim)
    if cols.shape[1] != dim or any(g.shape[1] != dim for _, g in groups):
        raise ValueError("all generators must share dimension")
    n = cols.shape[0]
    rows = [tuple(cols[:, i]) for i in range(dim)]
    rhs = [0.0] * dim
    rows.append((1.0,) * n)
    rhs.append(1.0)
    lp = LinearProgram(n, 0, tuple(rows), tuple(rhs))
    cert = lp_feasible(lp, exact=exact)
    if not cert.feasible:
        return ConeZero(cert, None, None)
    lam = np.asarray(cert.witness)
    weights = []
    rsums = []
    pos = 0
    for label, g in groups:
        lg = lam[pos : pos + g.shape[0]]
        pos += g.shape[0]
        weights.append((label, lg))
        rsums.append((label, float(lg.sum())))
    return ConeZero(cert, tuple(weights), tuple(rsums))
