"""Transversal search: real lines from vertex pairs, real hyperplanes by
direction sweep, complex hyperplanes by projected-polygon intersection and by
zero-finding on the odd sphere map of closest projection coefficients;
geometry's coefficient block gives the polygons and their closest points.

Search design: the existence arguments are non-constructive, so location is
by seeded multistart derivative-free descent (pattern search with step decay
on the relevant sphere).  The map being minimized is continuous but not
smooth where the closest polygon point crosses a vertex or edge, which is
why no gradients are used.  The starts run two at a time in lock-step, so
that one objective call (in the complex searches, one closest-point kernel
call) serves a step of both; each search reads their results in start order
and stops at its first success, so results and early exits are those of
running the starts one after the other.  NotFound is a budget statement,
never a nonexistence certificate, except where it is marked exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._exact import integers
from .geometry import (
    POLE_GUARD,
    ComplexHyperplane,
    Family,
    SpherePoint,
    _closest_coefficients,
    _closest_rows,
    _coefficient_block,
    _hull2d,
    _integer,
    _tolerance,
    complex_to_real,
    real_to_complex,
)
from .consistency import AffineDependence
from .lp import LinearProgram, SolverError, lp_feasible

ZERO_TOL = 1e-6
BORSUK_VERIFY_TOL = 1e-4  # to which the hyperplane of an accepted Borsuk zero must meet every set
MARGIN_TOL = 1e-9
STEP_INIT = 0.5  # pattern-search step size, shrunk by STEP_DECAY on no progress
STEP_DECAY = 0.7
# Starts of one search in lock-step.  A step's objective call has a fixed
# numpy cost larger than its rows' work, so two starts share it; a wider
# window makes a start that succeeds pay for more starts beside it.
_WINDOW = 2


@dataclass(frozen=True)
class TransversalConfig:
    """Budget of the searches: seeded multistart pattern search with starts
    starts of at most iters steps each (from step size STEP_INIT shrunk by
    STEP_DECAY), run two at a time in lock-step and read in start order;
    zero_tol is the accepted norm of a Borsuk zero.  Real d <= 2 and complex
    d = 1 are decided exactly and use no budget."""

    starts: int = 32
    iters: int = 2000
    zero_tol: float = ZERO_TOL
    seed: int = 0

    def __post_init__(self):
        for name, least in (("starts", 1), ("iters", 0), ("seed", 0)):
            _integer(getattr(self, name), name, least)
        _tolerance(self.zero_tol, "zero_tol")


@dataclass(frozen=True, eq=False)
class RealHyperplane:
    """The set {p in R^d : u . p = t} with a unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        u = np.asarray(self.normal, dtype=float)
        if u.ndim != 1 or u.size < 1 or not np.all(np.isfinite(u)):
            raise ValueError("normal must be a finite vector")
        if abs(float(np.linalg.norm(u)) - 1.0) > 1e-12:
            raise ValueError("real hyperplane normal must have unit norm")
        t = float(self.offset)
        if not np.isfinite(t):
            raise ValueError(f"hyperplane offset must be finite, got {t!r}")
        object.__setattr__(self, "normal", u)
        object.__setattr__(self, "offset", t)


@dataclass(frozen=True, eq=False)
class NotFound:
    """Search failure report; best is the best margin or residual seen.
    exhaustive marks a definitive none: real d <= 2, complex d = 1, and the
    common-point LP of complex_transversal_for_normal along its one normal."""

    reason: str
    best: float | None = None
    x: np.ndarray | None = None
    exhaustive: bool = False
    note: str = ""


@dataclass(frozen=True, eq=False)
class BorsukEvaluation:
    """One evaluation of f(x) = sum_F (p_{x,F}, conj(p_{x,F}) phi(F))."""

    x: SpherePoint
    value: np.ndarray  # C^d: first the scalar block, then the C^{d-1} block
    coefficients: tuple  # (label, p_{x,F}) in family order

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.value))


@dataclass(frozen=True, eq=False)
class VerificationReport:
    distances: tuple  # (label, float), family order
    tol: float

    @property
    def max_distance(self) -> float:
        """The largest distance; NaN when any distance is NaN, so that a
        distance that could not be computed is a miss in every label order."""
        return float(np.max([d for _, d in self.distances]))

    @property
    def passed(self) -> bool:
        return self.max_distance <= self.tol


def _phi_targets(family: Family, phi) -> np.ndarray:
    """One complex target row per family member, in label order.

    Accepts either an array-like of shape (n_sets, d-1), d+1 the embedded
    family's dimension, or a witness object exposing point_of(label)."""
    if hasattr(phi, "point_of"):
        rows = [np.asarray(phi.point_of(label)) for label in family.labels]
        out = np.asarray(rows, dtype=complex)
    else:
        out = np.asarray(phi, dtype=complex)
    if out.ndim != 2 or out.shape[0] != len(family.labels):
        raise ValueError("one witness image per family member required")
    if out.shape[1] != family.dim - 2:
        raise ValueError(f"witness images must lie in C^{family.dim - 2}, got C^{out.shape[1]}")
    return out


def _borsuk_values(P: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """f from the (m, n_sets) closest coefficients P and the (n_sets, d-1)
    targets phi of :func:`_phi_targets`: (m, d) values."""
    return np.column_stack([P.sum(axis=1), np.conj(P) @ phi])


def _pattern_min(objective, U0: np.ndarray, config: TransversalConfig, target: float,
                 unit=slice(None)):
    """Minimize objective(rows) by coordinate pattern search with step
    decay from each row of the (starts, n) array U0, keeping the coordinates
    selected by unit on the unit sphere (all of them by default); yields
    (best vector, best value) per start, in start order.

    objective maps an (m, n) batch of such vectors to m values; a start's
    descent stops early at the target value.  A window holds the first
    _WINDOW starts not yet yielded, and its unfinished starts advance in
    lock-step, their stencils stacked into one objective call per step.  A
    start's first point is evaluated when it enters the window, so a
    consumer that stops after a start's result leaves every later start
    unevaluated but the one beside it.  It is evaluated alone: a one-row
    batch of f can round differently from the same row among others (its
    coefficient rows are contiguous, and numpy then sums them pairwise)."""
    n = U0.shape[1]
    eye = np.eye(n)
    stencil = np.vstack([eye, -eye])  # the +-step moves along each axis
    window = []  # [u, val, step, steps taken] per start in flight, in start order
    entered = 0

    def done(s):
        return s[3] >= config.iters or s[1] <= target or s[2] < 1e-13

    while True:
        while window and done(window[0]):
            u, val, _, _ = window.pop(0)
            yield u, val
        while len(window) < _WINDOW and entered < len(U0):
            u = U0[entered].copy()
            u[unit] /= np.linalg.norm(U0[entered][unit])
            window.append([u, float(objective(u[None, :])[0]), STEP_INIT, 0])
            entered += 1
        if not window:
            return
        live = [s for s in window if not done(s)]
        if not live:
            continue  # the starts that just entered are done at their first point
        cands = np.vstack([s[0] + s[2] * stencil for s in live])
        part = cands[:, unit]  # a view; the sum of squares np.linalg.norm takes
        part /= np.sqrt((part * part).sum(axis=1))[:, None]
        vals = objective(cands).reshape(len(live), 2 * n)
        moves = vals.argmin(axis=1).tolist()
        for s, c, v, j in zip(live, cands.reshape(len(live), 2 * n, n), vals, moves):
            if v[j] < s[1] - 1e-16:
                s[0] = c[j]
                s[1] = float(v[j])
            else:
                s[2] *= STEP_DECAY
            s[3] += 1


# ---------------------------------------------------------------------------
# real direction sweep


def _interval_margin(family: Family, U: np.ndarray) -> np.ndarray:
    """g(u) per direction row: min_F max_v u.v - max_F min_v u.v."""
    lo = np.full(U.shape[0], -np.inf)
    hi = np.full(U.shape[0], np.inf)
    for _, poly in family:
        proj = U @ poly.vertices.T  # (m, n_F)
        lo = np.maximum(lo, proj.min(axis=1))
        hi = np.minimum(hi, proj.max(axis=1))
    return hi - lo


def _interval_offset(family: Family, u: np.ndarray) -> float:
    lo, hi = -np.inf, np.inf
    for _, poly in family:
        proj = poly.vertices @ u
        lo = max(lo, float(proj.min()))
        hi = min(hi, float(proj.max()))
    return 0.5 * (lo + hi)


def real_hyperplane_transversal(family: Family, config: TransversalConfig | None = None):
    """A real hyperplane meeting every set: a unit normal u and the middle
    of its common projection interval.  At d = 2, if some line meets every
    set, so does one through two distinct vertices (translate it onto a
    vertex, then turn it about that vertex onto another); those lines are
    decided by exact orientation signs, an exact meet first, then the best
    margin g >= -MARGIN_TOL.  NotFound is definitive at d <= 2; higher d
    maximizes g by seeded multistart."""
    config = config or TransversalConfig()
    if family.ambient != "real":
        raise ValueError("real_hyperplane_transversal expects a real family")
    d = family.dim
    if d == 1:
        g = float(_interval_margin(family, np.array([[1.0]]))[0])
        if g >= -MARGIN_TOL:
            return RealHyperplane(np.array([1.0]), _interval_offset(family, np.array([1.0])))
        return NotFound("projection intervals disjoint", best=g, exhaustive=True,
                        note="d=1 direction set is exhaustive")
    if d == 2:
        P, inv = np.unique(np.vstack([p.vertices for p in family.sets]), axis=0, return_inverse=True)
        if len(P) == 1:  # every line through the one point meets every set
            return RealHyperplane(np.array([1.0, 0.0]), float(P[0, 0]))
        X, Y = np.array(integers(P.ravel().tolist())[0], dtype=object).reshape(-1, 2).T
        C = np.outer(X, Y) - np.outer(Y, X)  # C[a, b] = x_a y_b - y_a x_b
        I, J = np.triu_indices(len(P), 1)
        meets = np.ones(len(I), dtype=bool)
        # keep, set by set, the lines p_i p_j that meet it: the side of its vertex p_k is
        # C[i, j] + C[j, k] + C[k, i] (k: rows of P; numpy 2.0.0 shapes inv (n, 1))
        for k in np.split(inv.ravel(), np.cumsum([p.n_vertices for p in family.sets])[:-1]):
            i, j = I[meets], J[meets]
            side = C[i, j][:, None] + C[j[:, None], k] - C[i[:, None], k]
            meets[meets] = ~((side > 0).all(axis=1) | (side < 0).all(axis=1))
        U = np.column_stack([P[I, 1] - P[J, 1], P[J, 0] - P[I, 0]])
        U /= np.linalg.norm(U, axis=1)[:, None]
        g = _interval_margin(family, U)
        best = np.lexsort((g, meets))[-1]  # an exact meet first, then the best margin
        if meets[best] or g[best] >= -MARGIN_TOL:
            return RealHyperplane(U[best], _interval_offset(family, U[best]))
        return NotFound("no line meets every set", best=float(g[best]), exhaustive=True,
                        note=f"{len(I)} vertex-pair lines decided exactly")
    # d >= 3: multistart maximization of g
    U0 = np.random.default_rng(config.seed).standard_normal((config.starts, d))
    best_val = -np.inf
    best_u = None
    for u, neg in _pattern_min(
        lambda X: -_interval_margin(family, X), U0, config, target=-MARGIN_TOL
    ):
        if -neg > best_val:
            best_val = -neg
            best_u = u
        if best_val >= MARGIN_TOL:
            break
    if best_val >= -MARGIN_TOL:
        return RealHyperplane(best_u, _interval_offset(family, best_u))
    return NotFound("no stabbing direction at budget", best=float(best_val))


# ---------------------------------------------------------------------------
# complex transversal: projected-polygon intersection


def _coefficient_rows(V: np.ndarray, a: np.ndarray, b: complex):
    """The coefficient program of each set of a stack V (k, n, d) of sets
    with n vertices each: rows (k, 3, n) = [Re c; Im c; 1] with c = V @
    conj(a), and right-hand sides (k, 3) = [Re b, Im b, 1].  Convex weights
    lam of a set's vertices solve rows @ lam = rhs iff their point lam @ V
    lies on the hyperplane {<z, a> = b}; with b free, iff b is a common
    coefficient."""
    c = V @ np.conj(a)
    rows = np.ones((len(V), 3, V.shape[1]))
    rows[:, 0], rows[:, 1] = c.real, c.imag
    return rows, np.tile([b.real, b.imag, 1.0], (len(V), 1))


def complex_transversal_for_normal(a: np.ndarray, family: Family):
    """Common point b of all projected polygons along the unit normal a, as
    one LP over per-set convex weights; returns complex b or NotFound.

    The hyperplane {<z, a> = b} meets F iff b lies in F's coefficient
    polygon, so feasibility here is exact (infeasibility is rationally
    confirmed)."""
    if family.ambient != "complex":
        raise ValueError("complex ambient required")
    a = np.asarray(a, dtype=complex)
    if abs(float(np.linalg.norm(a)) - 1.0) > 1e-9:
        raise ValueError("normal must have unit norm")
    total = sum(p.n_vertices for p in family.sets)
    # per set: its coefficient program with b = 0, and -b in the free columns
    rows = np.zeros((3 * len(family.sets), total + 2))
    pos = 0
    for s, poly in enumerate(family.sets):
        n = poly.n_vertices
        rows[3 * s : 3 * s + 3, pos : pos + n] = _coefficient_rows(poly.vertices[None], a, 0)[0][0]
        rows[3 * s : 3 * s + 2, total:] = -np.eye(2)
        pos += n
    lp = LinearProgram(total, 2, rows, np.tile([0.0, 0.0, 1.0], len(family.sets)))
    cert = lp_feasible(lp)
    if not cert.feasible:
        return NotFound("projected polygons have no common point", exhaustive=True)
    return complex(cert.witness[total], cert.witness[total + 1])


def _polygon_halfplanes(points):
    """Outward half-plane description (n, c rows with unit n) of the hull of
    2-D points; degenerate hulls get axis boxes (point) or perpendicular
    strips plus end caps (segment) so the margin LP below stays bounded."""
    hull = _hull2d([(float(p[0]), float(p[1])) for p in points])
    out = []
    if len(hull) == 1:
        (x, y) = hull[0]
        for nx, ny in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            out.append(((nx, ny), nx * x + ny * y))
        return out
    if len(hull) == 2:
        (ax, ay), (bx, by) = hull
        tx, ty = bx - ax, by - ay
        nrm = float(np.hypot(tx, ty))
        tx, ty = tx / nrm, ty / nrm
        for nx, ny in ((-ty, tx), (ty, -tx)):
            out.append(((nx, ny), nx * ax + ny * ay))
        out.append(((tx, ty), tx * bx + ty * by))
        out.append(((-tx, -ty), -(tx * ax + ty * ay)))
        return out
    n = len(hull)
    for i in range(n):
        ax, ay = hull[i]
        bx, by = hull[(i + 1) % n]
        tx, ty = bx - ax, by - ay
        nrm = float(np.hypot(tx, ty))
        # CCW hull: the outward normal is the tangent rotated clockwise
        nx, ny = ty / nrm, -tx / nrm
        out.append(((nx, ny), nx * ax + ny * ay))
    return out


def polygon_intersection_margin(a: np.ndarray, family: Family) -> float:
    """Largest eps such that the eps-shrunk projected polygons along a still
    share a point; negative when they are disjoint.

    Computed through the dual of {max eps : n_i . b + eps <= c_i}, which is a
    three-row LP over edge weights."""
    normals = []
    offsets = []
    for c in _coefficient_block(family, np.asarray(a, dtype=complex)[None, :])[:, 0]:
        for (nx, ny), off in _polygon_halfplanes(complex_to_real(c[:, None])):
            normals.append((nx, ny))
            offsets.append(off)
    rows = np.vstack([np.array(normals, dtype=float).T, np.ones(len(normals))])
    lp = LinearProgram(len(normals), 0, rows, (0.0, 0.0, 1.0), objective=offsets)
    cert = lp_feasible(lp)
    if not cert.feasible:
        # outward normals of bounded polygons always combine to zero
        raise SolverError("margin LP of bounded polygons reported infeasible")
    y = np.asarray(cert.witness)
    return float(y @ lp.objective)


def _canonical_phase(a: np.ndarray, b: complex):
    """(mu a, conj(mu) b) for the unit mu that turns the first coordinate
    of a of nonnegligible modulus real-positive: both pairs name the same
    hyperplane, and this removes the global-phase redundancy of normals."""
    a = np.asarray(a, dtype=complex)
    for v in a:
        if abs(v) > 1e-9:
            mu = np.conj(v) / abs(v)
            return a * mu, complex(np.conj(mu) * b)
    return a, complex(b)


def find_complex_transversal(family: Family, config: TransversalConfig | None = None):
    """Search for a complex hyperplane meeting every set.

    d = 1: the transversal is a common point, decided exactly by LP.
    d >= 2: seeded multistart descent over joint (normal, offset) candidates
    minimizing the worst distance from the offset to the projected polygons;
    a candidate normal is accepted when its LP intersection margin clears
    -1e-9 and the offset is then recovered by complex_transversal_for_normal.
    """
    config = config or TransversalConfig()
    if family.ambient != "complex":
        raise ValueError("complex ambient required")
    d = family.dim
    if d == 1:
        a = np.array([1.0 + 0.0j])
        b = complex_transversal_for_normal(a, family)
        if isinstance(b, NotFound):
            return NotFound(
                "no common point (a complex 0-transversal is a common point)",
                best=polygon_intersection_margin(a, family),
                exhaustive=True,
                note="d=1 decision is a single exact LP",
            )
        return ComplexHyperplane(a, b)

    def objective(Z: np.ndarray) -> np.ndarray:
        # rows: (unit a in R^{2d} | b in R^2), normalized on the a-part only
        W = real_to_complex(Z)
        q = _closest_coefficients(family, W[:, :d], shift=W[:, d])
        return np.abs(q).max(axis=1)

    Z0 = np.random.default_rng(config.seed).standard_normal((config.starts, 2 * d + 2))
    best_margin = -np.inf
    best_a = None
    for z, _ in _pattern_min(objective, Z0, config, 1e-12, unit=slice(0, 2 * d)):
        a = real_to_complex(z)[:d]
        a = a / np.linalg.norm(a)
        margin = polygon_intersection_margin(a, family)
        if margin > best_margin:
            best_margin = margin
            best_a = a
        if margin >= -MARGIN_TOL:
            b = complex_transversal_for_normal(a, family)
            if not isinstance(b, NotFound):
                return ComplexHyperplane(*_canonical_phase(a, b))
    return NotFound("no common projected point at budget", best=float(best_margin),
                    x=best_a)


# ---------------------------------------------------------------------------
# the odd map and its zeros


def borsuk_map(x: SpherePoint, embedded: Family, phi) -> BorsukEvaluation:
    """f(x) = sum_F (p_{x,F}, conj(p_{x,F}) phi(F)) for a family embedded in
    the slice {z_{d+1} = 1}; phi maps family order to C^{d-1} rows (a raw
    array or a witness object)."""
    targets = _phi_targets(embedded, phi)
    if embedded.dim != x.dim:
        raise ValueError("family must be embedded in the sphere's dimension")
    P = _closest_coefficients(embedded, x.coords[None, :])
    return BorsukEvaluation(x, _borsuk_values(P, targets)[0],
                            tuple(zip(embedded.labels, P[0].tolist())))


def find_borsuk_zero(embedded: Family, phi, config: TransversalConfig | None = None):
    """Seeded multistart minimization of ||f|| over the unit sphere of
    C^{d+1}; success at ||f|| <= config.zero_tol with the pole guard
    enforced (pole-adjacent minima are rejected and the next start runs)."""
    config = config or TransversalConfig()
    targets = _phi_targets(embedded, phi)
    U0 = np.random.default_rng(config.seed).standard_normal((config.starts, 2 * embedded.dim))
    best_val = np.inf
    best_u = None

    def norms(U: np.ndarray) -> np.ndarray:
        P = _closest_coefficients(embedded, real_to_complex(U))
        return np.linalg.norm(_borsuk_values(P, targets), axis=1)

    for u, val in _pattern_min(norms, U0, config, target=config.zero_tol * 0.1):
        if val < best_val:
            best_val = val
            best_u = u
        if val <= config.zero_tol:
            x = real_to_complex(u)
            if float(np.linalg.norm(x[:-1])) >= POLE_GUARD:
                return SpherePoint.normalized(x)
            # pole-adjacent: reject and continue with the next start
    x_best = None if best_u is None else real_to_complex(best_u)
    return NotFound("no zero of f at budget", best=float(best_val), x=x_best)


def borsuk_zero_dependence(x: SpherePoint, embedded: Family, phi) -> AffineDependence | None:
    """Affine dependence carried by a near-zero of f: over the subfamily
    with |p_{x,F}| > ZERO_TOL, coefficients a_F = conj(p_{x,F}) satisfy
    sum a_F = 0 and sum a_F phi(F) = 0 up to ||f(x)|| plus the dropped
    small coefficients.

    This is the soundness certificate: if the recovered hyperplane misses
    some set, this dependence has no nonnegative lift, so re-checking it
    convicts the witness of inconsistency.  Returns None when every
    coefficient is at most ZERO_TOL (the hyperplane then meets every set)."""
    ev = borsuk_map(x, embedded, phi)
    labels = []
    coeffs = []
    for label, p in ev.coefficients:
        if abs(p) > ZERO_TOL:
            labels.append(label)
            coeffs.append(complex(np.conj(p)))
    if not labels:
        return None
    return AffineDependence(tuple(labels), tuple(coeffs), origin="borsuk-zero")


# ---------------------------------------------------------------------------
# verification


def verify_transversal(T, family: Family, tol: float = ZERO_TOL) -> VerificationReport:
    """Per-set distance from the hyperplane.

    Complex T: the 2-D distance from the offset to each projected
    coefficient polygon (projection along the normal is an isometry onto the
    normal's complex line), by the closest-point kernel.  The distance is 0
    when the offset is inside the polygon, i.e. when the polygon's vertices
    seen from the offset leave no angular gap wider than pi; the test has
    no slack, so a polygon a thin sliver away from the offset reports that
    sliver however long its edges are.  The kernel squares segment lengths,
    which overflow from about 2^511, so a polygon whose coefficients reach
    2^500 is scaled by a power of two of its own, and its distance back.
    Real T: the distance from the offset to each projection interval
    [min u.v, max u.v]."""
    _tolerance(tol, "tol")
    ambient = "real" if isinstance(T, RealHyperplane) else "complex"
    if family.ambient != ambient or family.dim != T.normal.shape[0]:
        raise ValueError("family and hyperplane ambients and dimensions must agree")
    if ambient == "complex":
        C = _coefficient_block(family, T.normal[None, :], shift=np.array([T.offset]))[:, 0]
        e = np.frexp(np.abs(C).max(axis=1))[1][:, None]
        e[e <= 500] = 0
        C.real, C.imag = np.ldexp(C.real, -e), np.ldexp(C.imag, -e)
        dists = np.ldexp(np.abs(_closest_rows(C)[0]), e[:, 0]).tolist()
    else:
        dists = []
        for poly in family.sets:
            pr = poly.vertices @ T.normal
            dists.append(float(max(pr.min() - T.offset, T.offset - pr.max(), 0.0)))
    return VerificationReport(tuple(zip(family.labels, dists)), tol)
