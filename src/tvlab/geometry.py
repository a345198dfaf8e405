"""Complex/real vector geometry: points, polytopes and families, their
embedding into the affine slice {z_{d+1} = 1}, a family's polygons of
coefficients along a batch of complex directions (one block, on the family's
layout of its sets by vertex count), the one closest-point kernel for such
polygons (the monotone-chain hull here only draws and describes polygons),
and recovery of a complex hyperplane from a unit sphere point.

Conventions
-----------
* The Hermitian inner product is linear in the first slot and conjugate-linear
  in the second: ``hermitian_inner(u, v) = sum(u_i * conj(v_i))``.
* A complex vector in C^d is identified with a real vector in R^{2d} by
  interleaving real and imaginary parts; convexity always means real
  convexity of that underlying real set, and convex combinations always use
  real coefficients.
* Convex sets are represented as vertex-generated polytopes only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

UNIT_NORM_TOL = 1e-12
POLE_GUARD = 1e-9


class PoleError(ValueError):
    """Raised when a sphere point is too close to the excluded last axis to
    recover a hyperplane from it."""


def _integer(value, name: str, minimum: int = 0):
    """value if it is an int or numpy integer, not a bool, at least minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        least = "nonnegative" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{name} must be {least}, got {value}")
    return value


def _tolerance(value, name: str) -> None:
    """ValueError unless value is a finite, nonnegative real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def as_complex_point(coords) -> np.ndarray:
    """Validate and return a point of C^d as a complex array."""
    p = np.asarray(coords, dtype=complex)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("a point must be a nonempty 1-D coordinate vector")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    return p


def complex_to_real(z: np.ndarray) -> np.ndarray:
    """View C^d as R^{2d} along the last axis:
    (z_1, ..., z_d) -> (Re z_1, Im z_1, ..., Re z_d, Im z_d)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],), dtype=float)
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def real_to_complex(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`complex_to_real`, along the last axis."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 2:
        raise ValueError("real view of a complex vector has even length")
    return x[..., 0::2] + 1j * x[..., 1::2]


def hermitian_inner(u, v) -> complex:
    """Inner product sum(u_i * conj(v_i)); conjugate-symmetric.

    Raises ValueError on dimension mismatch.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return complex(np.vdot(v, u))  # np.vdot conjugates its first argument


@dataclass(frozen=True, eq=False)
class Polytope:
    """Convex hull (under real coefficients) of a finite vertex list.

    ambient is "real" or "complex"; vertices is an (n, d) array, float for
    real ambient and complex for complex ambient.
    """

    ambient: str
    vertices: np.ndarray

    def __post_init__(self):
        if self.ambient not in ("real", "complex"):
            raise ValueError(f"unknown ambient {self.ambient!r}")
        dtype = float if self.ambient == "real" else complex
        v = np.asarray(self.vertices, dtype=dtype)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("vertices must form a nonempty (n, d) array with d >= 1")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertex coordinates must be finite")
        object.__setattr__(self, "vertices", v)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def real_view(self) -> np.ndarray:
        """Vertices as rows of R^{2d} (complex ambient) or R^d (real ambient)."""
        if self.ambient == "real":
            return np.asarray(self.vertices, dtype=float)
        return complex_to_real(self.vertices)


@dataclass(frozen=True, eq=False)
class Family:
    """Ordered, labeled, nonempty list of polytopes sharing ambient and dimension."""

    labels: tuple
    sets: tuple

    def __post_init__(self):
        labels = tuple(str(l) for l in self.labels)
        sets = tuple(self.sets)
        if len(labels) != len(sets):
            raise ValueError("labels and sets must have equal length")
        if len(set(labels)) != len(labels):
            raise ValueError("family labels must be unique")
        if not sets:
            raise ValueError("a family needs at least one set")
        amb, dim = sets[0].ambient, sets[0].dim
        for p in sets:
            if p.ambient != amb or p.dim != dim:
                raise ValueError("family members must share ambient and dimension")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sets", sets)

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(zip(self.labels, self.sets))

    def __getitem__(self, label: str) -> Polytope:
        try:
            return self.sets[self.labels.index(label)]
        except ValueError:
            raise KeyError(label) from None

    @property
    def ambient(self) -> str:
        return self.sets[0].ambient

    @property
    def dim(self) -> int:
        return self.sets[0].dim

    def subfamily(self, labels) -> "Family":
        labels = tuple(labels)
        return Family(labels, tuple(self[l] for l in labels))

    @cached_property
    def _layout(self):
        """(width, groups) of :func:`_coefficient_block`: the largest vertex
        count, and per vertex count the indices of its sets and the (k, dim,
        n) transposed stack of their vertices; built on first use."""
        by_count = {}
        for s, p in enumerate(self.sets):
            by_count.setdefault(p.n_vertices, []).append(s)
        return max(by_count), [
            (np.array(idx),
             np.array([self.sets[s].vertices for s in idx], dtype=complex).transpose(0, 2, 1))
            for idx in by_count.values()
        ]


@dataclass(frozen=True, eq=False)
class SpherePoint:
    """Unit vector of C^{d+1} under the Hermitian norm."""

    coords: np.ndarray

    def __post_init__(self):
        x = as_complex_point(self.coords)
        nrm = float(np.linalg.norm(x))
        if abs(nrm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"sphere point must have unit norm, got {nrm!r}")
        object.__setattr__(self, "coords", x)

    @staticmethod
    def normalized(coords) -> "SpherePoint":
        x = as_complex_point(coords)
        nrm = float(np.linalg.norm(x))
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return SpherePoint(x / nrm)

    def __neg__(self) -> "SpherePoint":
        return SpherePoint(-self.coords)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True, eq=False)
class ComplexHyperplane:
    """The set {z in C^d : <z, normal> = offset} with a unit normal."""

    normal: np.ndarray
    offset: complex

    def __post_init__(self):
        a = as_complex_point(self.normal)
        nrm = float(np.linalg.norm(a))
        if abs(nrm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"hyperplane normal must have unit norm, got {nrm!r}")
        b = complex(self.offset)
        if not np.isfinite(b):
            raise ValueError(f"hyperplane offset must be finite, got {b!r}")
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "offset", b)

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def residual(self, z) -> float:
        """|<z, normal> - offset| for a point z of C^d."""
        return abs(hermitian_inner(as_complex_point(z), self.normal) - self.offset)


def embed_polytope(poly: Polytope) -> Polytope:
    """Append a final coordinate 1 to every vertex of a complex polytope,
    mapping C^d into the affine slice {z in C^{d+1} : z_{d+1} = 1}."""
    if poly.ambient != "complex":
        raise ValueError("only complex polytopes embed into the affine slice")
    v = poly.vertices
    ones = np.ones((v.shape[0], 1), dtype=complex)
    return Polytope("complex", np.hstack([v, ones]))


def embed_family(family: Family) -> Family:
    """Embed every member of a complex family via :func:`embed_polytope`."""
    return Family(family.labels, tuple(embed_polytope(p) for p in family.sets))


# -- 2-D convex hulls and closest points ---------------------------------------
#
# The monotone chain below gives the hull of a handful of projected
# coefficients for drawing and for half-plane descriptions; it does not
# compute closest points.  Every closest-point query goes through
# _closest_rows, which treats a polygon as the union of the segments between
# its vertex pairs i < j (a hull edge is one of them; every vertex but the
# last starts one) plus its last vertex alone, and decides "origin inside"
# by the angular-gap criterion, vectorized over a block of rows.


def _hull2d(pts):
    """Andrew monotone chain; returns hull in CCW order without repetition.

    Collinear inputs yield the two extreme points; coincident inputs one.
    """
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts
    def half(points):
        chain = []
        for p in points:
            while len(chain) >= 2:
                ox, oy = chain[-2]
                ax, ay = chain[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0.0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain
    lower = half(pts)
    upper = half(pts[::-1])
    return lower[:-1] + upper[:-1]


@lru_cache(maxsize=None)
def _vertex_pairs(n: int):
    """(i1, i2): the segments i < j row by row (``np.triu_indices(n, 1)``),
    then the pair (n - 1, n - 1), n(n - 1)/2 + 1 pairs in all.  Vertex
    j < n - 1 is the t = 0 end of (j, j + 1); the last vertex needs its own
    pair.  Cached, so the arrays are read-only."""
    pairs = tuple(np.append(v, n - 1) for v in np.triu_indices(n, 1))
    for v in pairs:
        v.flags.writeable = False
    return pairs


def _closest_rows(C: np.ndarray):
    """Closest point to the origin of the hull of each row of the (m, n)
    complex block C, with the vertex pairs (i1[k], i2[k]) =
    ``_vertex_pairs(n)``.

    Returns (q, k, t): per row the closest point (0 when the origin is
    inside, i.e. when the angles of the row's points leave no gap wider
    than pi, with no slack), the index k of the first pair whose segment
    holds the closest point, and the (m, n_pairs) nearest-point parameters t
    on every segment (0 on a zero-length one, such as the last pair,
    without a division by zero).  Repeating a row's last point leaves q
    unchanged, so polygons of different vertex counts share one block
    padded that way in coefficient space."""
    i1, i2 = _vertex_pairs(C.shape[1])
    A = C.take(i1, axis=1)
    D = C.take(i2, axis=1)
    D -= A
    cD = np.conj(D)
    dd = (D * cD).real
    seg = dd > 0.0  # zero-length pairs divide by 1 and then get t = 0
    t = -(cD * A).real / np.where(seg, dd, 1.0)
    t.clip(0.0, 1.0, out=t)
    t[~seg] = 0.0
    Q = A + t * D
    best = np.abs(Q).argmin(axis=1)
    q = Q[np.arange(C.shape[0]), best]
    # sorted angles, one column per row, so the gaps reduce across rows
    ang = np.arctan2(C.imag, C.real)
    ang.sort(axis=1)
    ang = ang.T.copy()
    maxgap = 2.0 * np.pi - (ang[-1] - ang[0])
    if C.shape[1] > 1:
        np.maximum((ang[1:] - ang[:-1]).max(axis=0), maxgap, out=maxgap)
    q[maxgap <= np.pi] = 0.0
    return q, best, t


def _coefficient_block(family: Family, X: np.ndarray, shift=None) -> np.ndarray:
    """The (n_sets, m, width) block of the coefficients <v, x> of each set
    along each row x of the complex (m, dim) array X, less shift[row] when
    shift is given.  The sets of one vertex count take one stacked product,
    each slice of which is the product the set would get alone (padding the
    vertices, or one product over all sets, would change the shape BLAS sees
    and the low bits); each set is then padded to the family's largest vertex
    count by repeating its last coefficient, which the kernel's q ignores."""
    width, groups = family._layout
    cX = np.conj(X)
    block = np.empty((len(family.sets), X.shape[0], width), dtype=complex)
    for idx, cols in groups:
        n = cols.shape[2]
        coeffs = cX @ cols
        block[idx, :, :n] = coeffs
        if n < width:
            block[idx, :, n:] = coeffs[:, :, n - 1 : n]
    if shift is not None:
        block -= shift[:, None]
    return block


def _closest_coefficients(family: Family, X: np.ndarray, shift=None) -> np.ndarray:
    """(m, n_sets) closest points to the origin of the polygons of
    :func:`_coefficient_block`, by one kernel call."""
    block = _coefficient_block(family, X, shift)
    q = _closest_rows(block.reshape(-1, block.shape[2]))[0]
    return q.reshape(len(family.sets), X.shape[0]).T


def hyperplane_from_sphere_point(x0: SpherePoint) -> ComplexHyperplane:
    """The affine hyperplane in C^d carved out of the slice {z_{d+1} = 1} by
    the orthogonal complement of x0.

    Returns {z : <z, a> = b} with a = head/|head| and b = -conj(x0_{d+1})/|head|
    where head is the first d coordinates of x0.  Raises PoleError when
    |head| < 1e-9: recovery near the excluded last axis is refused rather than
    amplified numerically.
    """
    x = x0.coords
    head = x[:-1]
    head_norm = float(np.linalg.norm(head))
    if head_norm < POLE_GUARD:
        raise PoleError(
            f"sphere point within {POLE_GUARD:g} of the last axis has no hyperplane"
        )
    normal = head / head_norm
    offset = -np.conj(x[-1]) / head_norm
    return ComplexHyperplane(normal, complex(offset))
