"""Linear feasibility oracle with certificates.

Every separation, intersection, and cone-membership question in the toolkit
reduces to feasibility of a standard-form system  A x = b, x >= 0  (free
variables are split into positive and negative parts).  One tableau routine
solves it in either of two arithmetics, chosen once per solve:

* floats (a ``float64`` tableau with absolute tolerances, Dantzig pivoting
  with a Bland fallback), fast enough for search loops;
* exact rationals (an ``object`` tableau of ``fractions.Fraction``, no
  tolerances, Bland's anti-cycling rule throughout).  Binary floats are exact
  rationals, so escalation never changes the instance.

:func:`lp_feasible` keeps a float answer only when it is a witness that
re-substitutes to within 1e-9; every other float outcome is decided again in
exact arithmetic, so every infeasible verdict is exact.  Infeasibility is
certified by a Farkas functional y with  y'A <= 0  and y'b > 0 (componentwise
equality on columns of free variables); feasibility by the witness itself.
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
# tableau simplex, in float or in Fraction arithmetic


@dataclass(frozen=True)
class _Arithmetic:
    """What the float and the exact solve differ in: the tableau entries,
    the tolerances that suit them and the entering-column rule."""

    convert: object  # float array -> array of tableau entries
    pivot_tol: float  # reduced costs >= -pivot_tol are optimal; entries <= it never pivot
    feas_tol: float  # a phase-1 optimum above this means infeasible
    tie_tol: float  # relative slack within which ratios tie
    bland_after: int  # Dantzig's rule before this iteration, Bland's from it


_FLOAT = _Arithmetic(lambda a: a, PIVOT_TOL, FEAS_TOL, 1e-12, 200)
_EXACT = _Arithmetic(np.frompyfunc(Fraction, 1, 1), 0, 0, 0, 0)


def _pivot(T, basis, i, j):
    """Pivot on T[i, j], touching only rows with a nonzero in column j."""
    T[i] /= T[i, j]
    col = T[:, j]
    rows = np.nonzero(col)[0]
    rows = rows[rows != i]
    T[rows] -= np.outer(col[rows], T[i])
    basis[i] = j


def _pivot_loop(T, basis, ncols, ar: _Arithmetic, max_iter=20000):
    """Minimize the cost row over columns < ncols; returns 'optimal' or
    'unbounded'."""
    for it in range(max_iter):
        r = T[-1, :ncols]
        if it < ar.bland_after:
            j = int(np.argmin(r))
            if r[j] >= -ar.pivot_tol:
                return "optimal"
        else:
            below = np.nonzero(r < -ar.pivot_tol)[0]
            if below.size == 0:
                return "optimal"
            j = int(below[0])
        col = T[:-1, j]
        rows = np.nonzero(col > ar.pivot_tol)[0]
        if rows.size == 0:
            return "unbounded"
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        # ties broken by smallest basis label, which cheaply discourages cycling
        tied = rows[ratios <= best + ar.tie_tol * (1 + abs(best))]
        i = int(min(tied, key=lambda ii: basis[ii]))
        _pivot(T, basis, i, j)
    raise SolverError("simplex iteration limit exceeded")


def _solve_standard(A, b, c, ar: _Arithmetic):
    """Solve min c.x s.t. Ax = b, x >= 0 (c may be None) in arithmetic ar.

    Returns (status, x, y): status in {'feasible', 'infeasible', 'unbounded',
    'inconclusive'}; x the witness / optimum, y the Farkas functional for the
    original (unscaled) rows when infeasible.  Phase 1 is bounded in exact
    arithmetic, so an unbounded phase 1 is an artefact of the float pivot
    tolerance and reported as inconclusive.
    """
    m, n = A.shape
    sgn = np.where(b < 0, -1.0, 1.0)
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A * sgn[:, None]
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b * sgn
    T[m, n : n + m] = 1.0
    T = ar.convert(T)
    sgn = ar.convert(sgn)
    T[m] -= T[:m].sum(axis=0)
    basis = list(range(n, n + m))

    if _pivot_loop(T, basis, n + m, ar) != "optimal":
        return "inconclusive", None, None
    if -T[m, -1] > ar.feas_tol:
        return "infeasible", None, (1 - T[m, n : n + m]) * sgn

    # drive leftover artificials out of the basis; drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            js = np.nonzero(abs(T[i, :n]) > ar.pivot_tol)[0]
            if not js.size:
                continue  # redundant row, skip it in phase 2
            _pivot(T, basis, i, int(js[0]))
        keep.append(i)
    T = T[keep + [m]]
    basis = [basis[i] for i in keep]

    if c is not None:
        cost = np.zeros(T.shape[1])
        cost[:n] = c
        T[-1] = ar.convert(cost)
        c = T[-1, :n].copy()
        for i, bi in enumerate(basis):
            if bi < n and c[bi] != 0:
                T[-1] -= c[bi] * T[i]
        if _pivot_loop(T, basis, n, ar) != "optimal":
            return "unbounded", None, None

    x = ar.convert(np.zeros(n))
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = T[i, -1]
    return "feasible", x, None


# ---------------------------------------------------------------------------
# public problem and certificate types


def _read_only(values, what: str) -> np.ndarray:
    if np.iscomplexobj(values):
        raise ValueError(f"{what} must be real")
    arr = np.array(values, dtype=float, order="C")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min objective.x  s.t.  rows @ x = rhs, with the first ``n_nonneg``
    variables constrained >= 0 and the remaining ``n_free`` unconstrained.

    ``rows`` (m, n), ``rhs`` (m,) and ``objective`` (n,) are held as
    read-only float arrays; ``objective`` may be None (pure feasibility)."""

    n_nonneg: int
    n_free: int
    rows: np.ndarray
    rhs: np.ndarray
    objective: np.ndarray | None = None

    def __post_init__(self):
        if self.n_nonneg < 0 or self.n_free < 0:
            raise ValueError("variable counts must be nonnegative")
        n = self.n_vars
        rows = _read_only(self.rows, "coefficients")
        if rows.size == 0:
            rows = rows.reshape(len(rows), n)
        rhs = _read_only(self.rhs, "coefficients")
        if rows.ndim != 2 or rhs.shape != rows.shape[:1]:
            raise ValueError("row/rhs length mismatch")
        if rows.shape[1] != n:
            raise ValueError("row length does not match variable count")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)
        if self.objective is not None:
            obj = _read_only(self.objective, "objective")
            if obj.shape != (n,):
                raise ValueError("objective length does not match variable count")
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
    Infeasible certificates from :func:`lp_feasible` are always exact.
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


def _verify_feasible(lp: LinearProgram, witness) -> bool:
    """Float re-substitution of a float witness."""
    w = np.asarray(witness, dtype=float)
    resid = lp.rows @ w - lp.rhs
    return (
        float(np.max(np.abs(resid), initial=0.0)) <= FEAS_TOL
        and float(np.min(w[: lp.n_nonneg], initial=0.0)) >= -FEAS_TOL
    )


def _split_free(lp: LinearProgram):
    """Standard-form matrix with free variables split into x+ - x-."""
    k = lp.n_nonneg
    A = np.hstack([lp.rows, -lp.rows[:, k:]])
    c = None
    if lp.objective is not None:
        c = np.concatenate([lp.objective, -lp.objective[k:]])
    return A, lp.rhs, c


def _merge_free(lp: LinearProgram, x):
    k, f = lp.n_nonneg, lp.n_free
    return tuple(x[:k]) + tuple(x[k : k + f] - x[k + f :])


def lp_feasible(lp: LinearProgram, exact: bool = False) -> FeasibilityCertificate:
    """Certified feasibility (and optimization, when an objective is given).

    The float path answers only with a witness that re-verifies; an
    infeasible, inconclusive or unverified float result is decided again in
    exact arithmetic, so every infeasible certificate is exact.  Raises
    :class:`UnboundedError` when an objective is supplied and unbounded.
    """
    A, b, c = _split_free(lp)
    status = None
    if not exact:
        status, x, _ = _solve_standard(A, b, c, _FLOAT)
        if status == "feasible":
            witness = _merge_free(lp, x)
            if _verify_feasible(lp, witness):
                return FeasibilityCertificate("feasible", witness=witness)
    # a float phase 2 that found an unbounded ray is trusted as it stands
    if status != "unbounded":
        status, x, y = _solve_standard(A, b, c, _EXACT)
    if status == "unbounded":
        raise UnboundedError("objective unbounded on the feasible region")
    if status == "inconclusive":
        raise SolverError("exact phase 1 reported an unbounded ray")
    if status == "feasible":
        witness = _merge_free(lp, x)
        return FeasibilityCertificate(
            "feasible",
            witness=tuple(float(v) for v in witness),
            exact=True,
            witness_exact=witness,
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
    rows = np.zeros((d + 2, nu + nv))
    rows[:d, :nu] = Ur.T
    rows[:d, nu:] = -Vr.T
    rows[d, :nu] = 1.0
    rows[d + 1, nu:] = 1.0
    rhs = np.zeros(d + 2)
    rhs[d:] = 1.0
    lp = LinearProgram(nu + nv, 0, rows, rhs)
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
    Complex points of C^m are read in R^{2m}, so they need k = 2m.
    """
    Ur = _vertex_rows(U)
    Vr = _vertex_rows(V)
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
        b = complex(b)
        rows += [proj.real, proj.imag]
        rhs += [b.real, b.imag]
    rows.append(np.ones(n))
    rhs.append(1.0)
    lp = LinearProgram(n, 0, np.vstack(rows), np.array(rhs))
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
    rows = np.vstack([cols.T, np.ones(n)])
    rhs = np.zeros(dim + 1)
    rhs[dim] = 1.0
    lp = LinearProgram(n, 0, rows, rhs)
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
