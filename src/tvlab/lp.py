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

The tableau carries a leading batch axis: programs of one shape pivot in
lock-step, each with its own entering column, ratio test and tie break, and
a single program is a batch of one.  Each pass scans the programs still
pivoting once, and those that leave make room without a second scan of the
others.  Every pivot, in either arithmetic, is one dense Gauss-Jordan row
update of the whole block, which the complex null spaces of
:mod:`tvlab.consistency` share: its product is set to 0 on the rows with a
zero in the pivot column, and subtracting +0 keeps every float bit, signed
zeros included, so an element's result does not depend on its batch.  A
Fraction row with a zero there is multiplied too, and keeps its value.  The
pivot row is written after the update.

:func:`certify` holds the one float-to-exact escalation policy, for a batch
of programs of one shape and, as a batch of one, for :func:`lp_feasible`,
and yields each run of consecutive kept float witnesses as one array.  A
float answer is kept only as a witness that re-substitutes to within 1e-9,
or as the Farkas functional of the element's own final phase-1 basis: its
dual y, solved exactly (floats are dyadic rationals, so in integers, by
:mod:`tvlab._exact`) and kept when y'A <= 0 and y'b > 0 hold exactly, after
QSopt_ex (Applegate, Cook, Dash & Espinoza, 2007).  Every other element is
decided again in exact arithmetic, alone and only when the consumer reaches
it, so every infeasible verdict is exact.  Infeasibility is certified by a
Farkas functional y with  y'A <= 0  and y'b > 0 (componentwise equality on
columns of free variables); feasibility by the witness itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from ._exact import integers, solve
from .geometry import Polytope, _integer, complex_to_real

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


def _pivot(T, basis, i, j, col):
    """Pivot every element e of the batch on T[e, i[e], j[e]] (i may be one
    row for all), where col[e] is column j[e] of T[e] before the pivot; col
    is only read.  One dense update serves float, complex and Fraction
    tableaux: the product col * prow is set to 0 on the rows with a zero in
    the pivot column (in floats it could be -0.0), and subtracting +0 leaves
    every float as it is, -0.0 included, so those rows keep their bits.  The
    pivot row is written after the update of the others."""
    e = np.arange(len(T))
    prow = T[e, i] / col[e, i][:, None]
    prod = col[:, :, None] * prow[:, None, :]
    prod[col == 0] = 0
    np.subtract(T, prod, out=T)
    T[e, i] = prow
    basis[e, i] = j


def _pivot_loop(T, basis, live, ncols, ar: _Arithmetic, max_iter=20000):
    """Minimize the cost row of every element marked in ``live`` over
    columns < ncols, pivoting all of them in lock-step.  Each element keeps
    its own entering column, ratio test and tie break, and leaves the loop
    when it is optimal or unbounded.  Returns a boolean array marking the
    unbounded elements.

    The elements still pivoting are kept at the front of T and basis, and
    the loop works on views of that front: an element that leaves swaps
    places with a later one that stays, and one move of the rows that moved
    puts every element back in its place on the way out, so no tableau is
    gathered.  Each pass scans its front once: the entering column, the
    pivot column and its positive entries of the stayers move with their
    tableaux when others leave, and the stayers pivot in the same pass."""
    unbounded = np.zeros(len(T), dtype=bool)
    if not live.any() or not ncols:
        return unbounded
    at = np.arange(len(T))  # the element at each position

    def front(stay, *scanned):
        """Move the positions marked in stay ahead of the others, in T,
        basis and at, and the stayers' rows of the scanned arrays with them;
        returns their count."""
        s = int(np.count_nonzero(stay))
        if 0 < s < len(stay):
            dst = np.flatnonzero(~stay[:s])
            src = s + np.flatnonzero(stay[s:])
            for v in (T, basis, at):
                v[dst], v[src] = v[src], v[dst]
            for v in scanned:
                v[dst] = v[src]
        return s

    s = front(live)
    W, Wb = T[:s], basis[:s]
    k = np.arange(s)
    it = 0
    while s:
        if it == max_iter:
            raise SolverError("simplex iteration limit exceeded")
        r = W[:, -1, :ncols]
        if it < ar.bland_after:
            j = r.argmin(axis=1)
            go = ~(r[k, j] >= -ar.pivot_tol)
        else:
            below = r < -ar.pivot_tol
            j = below.argmax(axis=1)
            go = below.any(axis=1)
        col = W[k, :, j]
        ok = col[:, :-1] > ar.pivot_tol
        stay = go & ok.any(axis=1)
        if not stay.all():
            unbounded[at[:s][go & ~stay]] = True
            s = front(stay, j, col, ok)
            if not s:
                break
            W, Wb, k, j, col, ok = W[:s], Wb[:s], k[:s], j[:s], col[:s], ok[:s]
        ratios = np.full(ok.shape, np.inf, dtype=T.dtype)
        np.divide(W[:, :-1, -1], col[:, :-1], out=ratios, where=ok)
        best = ratios.min(axis=1, keepdims=True)
        # ties broken by smallest basis label, which cheaply discourages cycling
        tied = ratios <= best + ar.tie_tol * (1 + abs(best))
        _pivot(W, Wb, np.where(tied, Wb, T.shape[2]).argmin(axis=1), j, col)
        it += 1
    moved = np.flatnonzero(at != np.arange(len(T)))
    T[at[moved]], basis[at[moved]] = T[moved], basis[moved]
    return unbounded


_STATUS = np.array(["feasible", "infeasible", "unbounded", "inconclusive"], dtype=object)


def _solve_standard(A, b, c, ar: _Arithmetic):
    """Solve min c.x s.t. Ax = b, x >= 0 in arithmetic ar for a batch of
    programs of one shape: A (B, m, n), b (B, m), c (B, n) or None.  A and
    b may be object arrays of integers or Fractions for the exact solve.

    Returns (status, x, y, basis): per element a status in {'feasible',
    'infeasible', 'unbounded', 'inconclusive'}; x (B, n) the witness /
    optimum of feasible elements; y (B, m) the Farkas functional for the
    original (unscaled) rows of infeasible ones; basis (B, m) the basis
    labels, columns of [A' | I] with A' the rows scaled to b >= 0, as
    phase 1 left them.  Phase 1 is bounded in exact arithmetic, so an
    unbounded phase 1 is an artefact of the float pivot tolerance and
    reported as inconclusive.
    """
    B, m, n = A.shape
    dtype = np.result_type(A, b, float)
    sgn = np.where(b < 0, -1, 1).astype(dtype)
    T = np.zeros((B, m + 1, n + m + 1), dtype=dtype)
    np.multiply(A, sgn[:, :, None], out=T[:, :m, :n])
    T[:, :m, n : n + m] = np.eye(m)
    T[:, :m, -1] = b * sgn
    T[:, m, n : n + m] = 1.0
    T = ar.convert(T)
    sgn = ar.convert(sgn)
    T[:, m] -= T[:, :m].sum(axis=1)
    basis = np.empty((B, m), dtype=int)
    basis[:] = np.arange(n, n + m)

    inconclusive = _pivot_loop(T, basis, np.ones(B, dtype=bool), n + m, ar)
    infeasible = ~inconclusive & (-T[:, m, -1] > ar.feas_tol)
    y = (1 - T[:, m, n : n + m]) * sgn
    phase1 = basis.copy()
    ok = ~(inconclusive | infeasible)

    # drive leftover artificials out of the basis; a row left without a
    # pivot is redundant and zeroed, so it never pivots or changes again
    art = ok[:, None] & (basis >= n)
    for i in np.flatnonzero(art.any(axis=0)):
        e = np.flatnonzero(art[:, i])
        nz = abs(T[e, i, :n]) > ar.pivot_tol
        has = nz.any(axis=1)
        T[e[~has], i] = 0
        e = e[has]
        W, Wb, j = T[e], basis[e], nz[has].argmax(axis=1)
        _pivot(W, Wb, i, j, W[np.arange(len(e)), :, j])
        T[e], basis[e] = W, Wb

    unbounded = np.zeros(B, dtype=bool)
    if c is not None and ok.any():
        e = np.flatnonzero(ok)
        cost = np.zeros((len(e), T.shape[2]))
        cost[:, :n] = c[e]
        T[e, m] = ar.convert(cost)
        ce = T[e, m, :n].copy()
        for i in range(m if n else 0):
            bi = basis[e, i]
            cb = ce[np.arange(len(e)), np.minimum(bi, n - 1)]
            sel = (bi < n) & (cb != 0)
            T[e[sel], m] -= cb[sel, None] * T[e[sel], i]
        unbounded = _pivot_loop(T, basis, ok, n, ar)

    x = ar.convert(np.zeros((B, n)))
    ee, ii = np.nonzero(ok[:, None] & (basis < n))
    x[ee, basis[ee, ii]] = T[ee, ii, -1]
    status = _STATUS[infeasible + 2 * unbounded + 3 * inconclusive]
    return status, x, y, phase1


def _basis_farkas(A, b, basis):
    """Exact Farkas functional read off a final float phase-1 basis, or None.

    With A' and b' the rows scaled to b' >= 0, the phase-1 dual y solves
    y'B = c_B' for the basis columns B of [A' | I], whose costs c_B are 1 on
    artificial columns and 0 elsewhere.  Floats are dyadic rationals, so
    2^e [A' | b'] is an integer matrix for one e, and y is found by the
    integer elimination of :mod:`tvlab._exact`.  When y'A' <= 0 and y'b' > 0 hold exactly, y carried back
    through the row signs certifies Ax = b, x >= 0 infeasible."""
    m, n = A.shape
    sgn = np.where(b < 0, -1, 1)
    N, scale = integers(np.column_stack([A * sgn[:, None], b * sgn]).ravel().tolist())
    N = np.array(N, dtype=object).reshape(m, n + 1)
    basis = basis.tolist()
    cols = [N[:, j].tolist() if j < n else [scale * (i == j - n) for i in range(m)] for j in basis]
    solved = solve(cols, [int(j >= n) for j in basis])
    if solved is None:
        return None
    z, d = solved  # y = scale z / d
    z = np.array(z, dtype=object)
    if not (z @ N[:, :n] <= 0).all() or not z @ N[:, n] > 0:
        return None
    return np.array([Fraction(scale * v * s, d) for v, s in zip(z, sgn.tolist())])


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
        _integer(self.n_nonneg, "n_nonneg")
        _integer(self.n_free, "n_free")
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


def _verified(rows, rhs, n_nonneg, x) -> np.ndarray:
    """Which float witnesses x (B, n) re-substitute into rows (B, m, n) and
    rhs (B, m) to within FEAS_TOL, with the first n_nonneg entries >= -FEAS_TOL."""
    resid = (rows @ x[:, :, None])[:, :, 0] - rhs
    return (np.abs(resid).max(axis=1, initial=0.0) <= FEAS_TOL) & (
        x[:, :n_nonneg].min(axis=1, initial=0.0) >= -FEAS_TOL
    )


def certify(rows, rhs, objective=None, n_free=0, exact=False):
    """Certified feasibility of a batch of programs of one shape:
    rows[e] @ x = rhs[e] with rows (B, m, n) and rhs (B, m), the last
    ``n_free`` variables free and the others >= 0, minimizing
    objective[e] @ x when ``objective`` (B, n) is given.

    Unless ``exact``, the batch is solved in one lock-step float tableau,
    and all its float witnesses are re-substituted at once, in one batched
    product rows @ x and one nonnegativity test (:func:`_verified`).
    Yields, in program order, (X, None) with the witnesses X (r, n) of r
    consecutive programs or (None, y) with the exact Farkas functional y
    (Fractions) of one program.  A float witness is kept when it
    re-substitutes to within FEAS_TOL, and each maximal run of consecutive
    kept ones is yielded as one array, rows of the batch's solution.  Any
    other program is decided alone, only when the consumer reaches it: by
    the functional of its own final phase-1 basis when that checks out
    exactly, else by its exact solve, whose witness (Fractions) is a run of
    one.  Exact input may hold integers or Fractions.  Raises
    :class:`UnboundedError` on an unbounded objective.
    """
    B, m, n = rows.shape
    k = n - n_free
    A, c = rows, objective
    if n_free:  # free variables split into x+ - x-, and merged back
        A = np.concatenate([rows, -rows[:, :, k:]], axis=2)
        c = None if objective is None else np.concatenate([objective, -objective[:, k:]], axis=1)

    def merged(x):
        x[..., k:n] -= x[..., n:]
        return x[..., :n]

    kept = np.zeros(B, dtype=bool)
    if not exact:
        status, x, _, basis = _solve_standard(A, rhs, c, _FLOAT)
        x = merged(x)
        kept = (status == "feasible") & _verified(rows, rhs, k, x)
    first = 0  # the first program not yet yielded
    for e in np.flatnonzero(~kept).tolist():
        if first < e:  # the run of kept witnesses before e
            yield x[first:e], None
        first = e + 1
        status_e = None if exact else status[e]
        y = _basis_farkas(A[e], rhs[e], basis[e]) if status_e == "infeasible" else None
        if y is not None:
            yield None, y
            continue
        if status_e != "unbounded":  # a float unbounded ray is trusted as it stands
            one = slice(e, e + 1)
            solved = _solve_standard(A[one], rhs[one], None if c is None else c[one], _EXACT)
            status_e, x_e, y = solved[0][0], solved[1], solved[2][0]
        if status_e == "unbounded":
            raise UnboundedError("objective unbounded on the feasible region")
        if status_e == "inconclusive":
            raise SolverError("exact phase 1 reported an unbounded ray")
        yield (merged(x_e), None) if status_e == "feasible" else (None, y)
    if first < B:
        yield x[first:], None


def lp_feasible(lp: LinearProgram, exact: bool = False) -> FeasibilityCertificate:
    """Certified feasibility (and optimization, when an objective is given)
    of one program: :func:`certify` on a batch of one, so every infeasible
    certificate is exact.  ``exact`` solves in Fractions alone: the
    reference the float path is tested against.  Raises
    :class:`UnboundedError` when an objective is supplied and unbounded."""
    objective = None if lp.objective is None else lp.objective[None]
    x, y = next(certify(lp.rows[None], lp.rhs[None], objective, lp.n_free, exact))
    if y is not None:
        return _infeasible(y)
    x = x[0]
    if x.dtype != object:
        return FeasibilityCertificate("feasible", witness=tuple(x))
    return FeasibilityCertificate(
        "feasible", witness=tuple(float(v) for v in x), exact=True, witness_exact=tuple(x)
    )


def _infeasible(y) -> FeasibilityCertificate:
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


def hulls_intersect(U, V) -> HullIntersection:
    """Do conv(U) and conv(V) intersect?  Feasible iff there are convex
    weights lam over U's vertices and mu over V's with equal weighted sums;
    the common point is returned when they exist.  A float witness is kept
    when it re-substitutes to FEAS_TOL, and a disjoint verdict is exact.

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
    cert = lp_feasible(lp)
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


def kirchberger_separated(U, V) -> KirchbergerVerdict:
    """Check hull disjointness on every (k+2)-point subset split of U u V,
    k the points' real dimension.

    Subsets are enumerated lexicographically over the concatenated index
    range (U first), so the reported violating subset is deterministic.
    Complex points of C^m are read in R^{2m}, so for them k = 2m.  Raises
    ValueError when U and V differ in dimension.
    """
    Ur = _vertex_rows(U)
    Vr = _vertex_rows(V)
    k = Ur.shape[1]
    if Vr.shape[1] != k:
        raise ValueError(f"U lies in R^{k} but V in R^{Vr.shape[1]}")
    nu, nv = Ur.shape[0], Vr.shape[0]
    size = min(k + 2, nu + nv)
    for subset in combinations(range(nu + nv), size):
        ui = tuple(i for i in subset if i < nu)
        vi = tuple(i - nu for i in subset if i >= nu)
        if not ui or not vi:
            continue  # an empty side has empty hull
        res = hulls_intersect(Ur[list(ui)], Vr[list(vi)])
        if res.feasible:
            return KirchbergerVerdict(False, ui, vi, res.point)
    return KirchbergerVerdict(True)


@dataclass(frozen=True, eq=False)
class ConeZero:
    """Convex weights hitting the origin, grouped by generator label."""

    certificate: FeasibilityCertificate
    weights: tuple | None  # tuple of (label, ndarray of lambdas), input order
    group_weights: tuple | None  # tuple of (label, float r) with r = sum(lambdas)


def nontrivial_zero_in_cone(groups) -> ConeZero:
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
    cert = lp_feasible(lp)
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
