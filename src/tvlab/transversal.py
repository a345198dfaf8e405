"""Transversal search: real hyperplanes by direction sweep, complex
hyperplanes by projected-polygon intersection and by zero-finding on the odd
sphere map built from closest projection coefficients.

Search design: the existence arguments are non-constructive, so location is
by seeded multistart derivative-free descent (pattern search with step decay
on the relevant sphere).  The map being minimized is continuous but not
smooth where the closest polygon point crosses a vertex or edge, which is
why no gradients are used.  NotFound is a budget statement, never a
nonexistence certificate, except where noted (d = 1 common-point LP, d = 2
real exhaustive angle grid).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    POLE_GUARD,
    ComplexHyperplane,
    Family,
    SpherePoint,
    _closest_rows,
    _hull2d,
    complex_to_real,
    real_to_complex,
)
from .consistency import AffineDependence
from .lp import LinearProgram, SolverError, lp_feasible

ZERO_TOL = 1e-6
MARGIN_TOL = 1e-9
STEP_INIT = 0.5  # pattern-search step size, shrunk by STEP_DECAY on no progress
STEP_DECAY = 0.7
ANGLE_RESOLUTION = 10000  # exhaustive grid for the real d=2 sweep


@dataclass(frozen=True)
class TransversalConfig:
    """Budget of the searches: seeded multistart pattern search with starts
    starts of at most iters steps each (from step size STEP_INIT shrunk by
    STEP_DECAY); zero_tol is the accepted norm of a Borsuk zero.  The
    exhaustive real d = 2 sweep uses the fixed grid ANGLE_RESOLUTION."""

    starts: int = 32
    iters: int = 2000
    zero_tol: float = ZERO_TOL
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError(f"starts must be at least 1, got {self.starts}")
        if not (np.isfinite(self.zero_tol) and self.zero_tol >= 0):
            raise ValueError(f"zero_tol must be finite and nonnegative, got {self.zero_tol}")


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
    """Search failure report.  exhaustive marks the two definitive cases
    (d=1 LP, d=2 real angle grid); best is the best margin or residual seen."""

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
        return max(d for _, d in self.distances)

    @property
    def passed(self) -> bool:
        return self.max_distance <= self.tol


# ---------------------------------------------------------------------------
# shared batched evaluator
#
# Pattern search spends nearly all its time evaluating closest polygon
# points for a batch of candidate directions.  Each set's coefficients come
# from its own complex matrix product; the sets are padded to a common vertex
# count by repeating their last vertex and stacked, so that one call of the
# geometry kernel answers the whole batch.  Verification and single-point
# evaluations of f are one-row batches.


class _PolygonBatch:
    """Closest-to-target coefficients for all sets over a batch of unit
    directions, vectorized."""

    def __init__(self, family: Family):
        self.verts = [np.asarray(p.vertices, dtype=complex) for p in family.sets]
        self.width = max(V.shape[0] for V in self.verts)

    def closest_all(self, X: np.ndarray, shift=None):
        """(m, n_sets) closest coefficients; shift translates each row's
        polygon by -shift[row] first (distance-to-point queries)."""
        cX = np.conj(X)
        block = np.empty((len(self.verts), X.shape[0], self.width), dtype=complex)
        for s, V in enumerate(self.verts):
            n = V.shape[0]
            block[s, :, :n] = cX @ V.T
            block[s, :, n:] = block[s, :, n - 1 : n]
        if shift is not None:
            block -= shift[:, None]
        q = _closest_rows(block.reshape(-1, self.width))[0]
        return q.reshape(len(self.verts), X.shape[0]).T


def _phi_targets(family: Family, phi) -> np.ndarray:
    """One complex target row per family member, in label order.

    Accepts either an array-like of shape (n_sets, k) or a witness object
    exposing point_of(label)."""
    if hasattr(phi, "point_of"):
        rows = [np.asarray(phi.point_of(label)) for label in family.labels]
        out = np.asarray(rows, dtype=complex)
    else:
        out = np.asarray(phi, dtype=complex)
    if out.ndim != 2 or out.shape[0] != len(family.labels):
        raise ValueError("one witness image per family member required")
    return out


def _borsuk_values(P: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """f from the (m, n_sets) closest coefficients P and the (n_sets, d-1)
    targets phi of :func:`_phi_targets`: (m, d) values."""
    return np.column_stack([P.sum(axis=1), np.conj(P) @ phi])


def _pattern_min(objective, u0: np.ndarray, config: TransversalConfig, target: float,
                 unit=slice(None)):
    """Minimize objective(rows) by coordinate pattern search with step
    decay, keeping the coordinates selected by unit on the unit sphere (all
    of them by default); returns (best vector, best value).

    objective maps an (m, n) batch of such vectors to m values; descent
    stops early at the target value."""
    u = np.array(u0, dtype=float)
    u[unit] /= np.linalg.norm(u0[unit])
    val = float(objective(u[None, :])[0])
    step = STEP_INIT
    eye = np.eye(u.shape[0])
    for _ in range(config.iters):
        if val <= target or step < 1e-13:
            break
        cands = np.vstack([u + step * eye, u - step * eye])
        cands[:, unit] /= np.linalg.norm(cands[:, unit], axis=1)[:, None]
        vals = objective(cands)
        j = int(np.argmin(vals))
        if vals[j] < val - 1e-16:
            u = cands[j]
            val = float(vals[j])
        else:
            step *= STEP_DECAY
    return u, val


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
    """A real hyperplane meeting every set, by maximizing the common
    projection-interval margin g over unit directions.

    d = 1 is a single evaluation and d = 2 an exhaustive angle grid with
    local refinement, so NotFound is definitive there; higher d uses seeded
    multistart and NotFound only reports the best margin at budget.
    """
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
        m = ANGLE_RESOLUTION
        theta = np.linspace(0.0, np.pi, m, endpoint=False)
        g = _interval_margin(family, np.column_stack([np.cos(theta), np.sin(theta)]))
        j = int(np.argmax(g))
        best_t, best_g = float(theta[j]), float(g[j])
        width = np.pi / m
        for _ in range(40):
            t = np.linspace(best_t - width, best_t + width, 9)
            gt = _interval_margin(family, np.column_stack([np.cos(t), np.sin(t)]))
            jt = int(np.argmax(gt))
            if gt[jt] > best_g:
                best_t, best_g = float(t[jt]), float(gt[jt])
            width *= 0.35
        u = np.array([np.cos(best_t), np.sin(best_t)])
        if best_g >= -MARGIN_TOL:
            return RealHyperplane(u, _interval_offset(family, u))
        return NotFound(
            "no stabbing direction on the exhaustive grid",
            best=best_g,
            exhaustive=True,
            note=f"angle grid resolution {m} over [0, pi) plus local refinement",
        )
    # d >= 3: multistart maximization of g
    rng = np.random.default_rng(config.seed)
    best_val = -np.inf
    best_u = None
    for _ in range(config.starts):
        u0 = rng.standard_normal(d)
        u, neg = _pattern_min(
            lambda X: -_interval_margin(family, X), u0, config, target=-MARGIN_TOL
        )
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
    sizes = [p.n_vertices for p in family.sets]
    total = sum(sizes)
    # per set: Re and Im of sum(lam c) - b = 0, then sum(lam) = 1
    rows = np.zeros((3 * len(sizes), total + 2))
    pos = 0
    for s, (poly, n) in enumerate(zip(family.sets, sizes)):
        c = poly.vertices @ np.conj(a)
        rows[3 * s, pos : pos + n] = c.real
        rows[3 * s + 1, pos : pos + n] = c.imag
        rows[3 * s + 2, pos : pos + n] = 1.0
        rows[3 * s : 3 * s + 2, total : total + 2] = -np.eye(2)
        pos += n
    lp = LinearProgram(total, 2, rows, np.tile([0.0, 0.0, 1.0], len(sizes)))
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
    a = np.asarray(a, dtype=complex)
    normals = []
    offsets = []
    for poly in family.sets:
        c = poly.vertices @ np.conj(a)
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

    batch = _PolygonBatch(family)

    def objective(Z: np.ndarray) -> np.ndarray:
        # rows: (unit a in R^{2d} | b in R^2), normalized on the a-part only
        W = real_to_complex(Z)
        q = batch.closest_all(W[:, :d], shift=W[:, d])
        return np.abs(q).max(axis=1)

    rng = np.random.default_rng(config.seed)
    best_margin = -np.inf
    best_a = None
    for _ in range(config.starts):
        z0 = rng.standard_normal(2 * d + 2)
        z, _ = _pattern_min(objective, z0, config, 1e-12, unit=slice(0, 2 * d))
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
    poly = _PolygonBatch(embedded)
    targets = _phi_targets(embedded, phi)
    if embedded.dim != x.dim:
        raise ValueError("family must be embedded in the sphere's dimension")
    P = poly.closest_all(x.coords[None, :])
    return BorsukEvaluation(x, _borsuk_values(P, targets)[0],
                            tuple(zip(embedded.labels, P[0].tolist())))


def find_borsuk_zero(embedded: Family, phi, config: TransversalConfig | None = None):
    """Seeded multistart minimization of ||f|| over the unit sphere of
    C^{d+1}; success at ||f|| <= config.zero_tol with the pole guard
    enforced (pole-adjacent minima are rejected and the next start runs)."""
    config = config or TransversalConfig()
    poly = _PolygonBatch(embedded)
    targets = _phi_targets(embedded, phi)
    n = 2 * embedded.dim
    rng = np.random.default_rng(config.seed)
    best_val = np.inf
    best_u = None

    def norms(U: np.ndarray) -> np.ndarray:
        P = poly.closest_all(real_to_complex(U))
        return np.linalg.norm(_borsuk_values(P, targets), axis=1)

    for _ in range(config.starts):
        u0 = rng.standard_normal(n)
        u, val = _pattern_min(norms, u0, config, target=config.zero_tol * 0.1)
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


def borsuk_zero_dependence(x: SpherePoint, embedded: Family, phi,
                           tol: float = ZERO_TOL) -> AffineDependence | None:
    """Affine dependence carried by a near-zero of f: over the subfamily
    with |p_{x,F}| > tol, coefficients a_F = conj(p_{x,F}) satisfy
    sum a_F = 0 and sum a_F phi(F) = 0 up to ||f(x)|| plus the dropped
    small coefficients.

    This is the soundness certificate: if the recovered hyperplane misses
    some set, this dependence has no nonnegative lift, so re-checking it
    convicts the witness of inconsistency.  Returns None when every
    coefficient is below tol (the hyperplane then meets every set)."""
    ev = borsuk_map(x, embedded, phi)
    labels = []
    coeffs = []
    for label, p in ev.coefficients:
        if abs(p) > tol:
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
    sliver however long its edges are.  Real T: the distance from the
    offset to each projection interval [min u.v, max u.v]."""
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    ambient = "real" if isinstance(T, RealHyperplane) else "complex"
    if family.ambient != ambient or family.dim != T.normal.shape[0]:
        raise ValueError("family and hyperplane ambients and dimensions must agree")
    if ambient == "complex":
        q = _PolygonBatch(family).closest_all(T.normal[None, :], shift=np.array([T.offset]))
        dists = np.abs(q[0]).tolist()
    else:
        dists = []
        for poly in family.sets:
            pr = poly.vertices @ T.normal
            dists.append(float(max(pr.min() - T.offset, T.offset - pr.max(), 0.0)))
    return VerificationReport(tuple(zip(family.labels, dists)), tol)
