"""Combinatorial consistency conditions for families of convex sets, with
LP-backed certificates.

Two checkers live here:

* ``check_dependency_consistency`` (complex ambient): every complex affine
  dependence among the witness images must lift to a nonnegatively weighted
  dependence on points chosen inside the sets.  Dependences are enumerated
  over subfamilies up to support size 2k+3, one size at a time, and each
  size is lifted before the next is enumerated, so a fail leaves the sizes
  above its own untouched: one-dimensional null spaces contribute their
  unique circuit, higher-dimensional ones are sampled at a seeded budget.
  The null spaces of all subfamilies of a size come from one stacked
  elimination, and all their candidates are canonicalised (unit norm,
  support, real-positive pivot) as one array block and deduplicated, in
  candidate order and across sizes, on integer keys of their labels and
  coefficients.  The kept dependences stay arrays up to the verdict: runs
  with equal support labels form blocks (labels, coefficients, origins and,
  for the rows of a sampled subfamily, the orthonormal basis of its null
  space), and consecutive blocks whose labels have equal vertex counts
  share one cone LP layout.  A sampled block that is not alone in its run
  is lifted from one float realization LP, as the necessity proof lifts it
  from a transversal: one point in each set such that the whole null space
  is a space of dependences of those points, so every row lifts with equal
  weights on them.  Such a candidate is kept only when it re-substitutes
  into the row's own cone LP to FEAS_TOL.  The blocks are lifted together,
  in lock-step batches within a fixed budget of tableau cells: one array of
  cone LPs through :func:`tvlab.lp.certify`, which solves only those whose
  candidate fails or that have none (circuits, lone blocks and blocks whose
  realization LP is infeasible), whose results are read in enumeration
  order up to the first NoLift, and r, the in-set points and the residuals
  of the lifted rows as arrays.  Its one escalation path decides alone and
  exactly, and only when reached, every LP that the float batch leaves
  uncertified, so every NoLift carries the certificate that its dependence
  alone gets.  An :class:`AffineDependence` is built only for a NoLift and
  for a new worst lift, with its :class:`Lift`.  A pass is therefore "pass
  at budget", while a fail carries an exact Farkas certificate that the
  cone LP of a float-computed dependence is infeasible.
* ``separates_consistently`` (real ambient): hull disjointness of subfamily
  images must be preserved, checked in contrapositive form on all disjoint
  subfamily pairs of total size at most k+2, with k the witness's target
  dimension.

The Caratheodory-style support reducer for oversized dependences is also
here; it runs in exact integer arithmetic (:mod:`tvlab._exact`).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat

import numpy as np

from ._exact import gmul, integers, null_vector
from .geometry import Family, _integer, complex_to_real
from .lp import FeasibilityCertificate, _float_solutions, _infeasible, _pivot, certify, hulls_intersect
from .lp import nontrivial_zero_in_cone  # not called here: perfbench/spans.py wraps this name

NULLSPACE_TOL = 1e-10
SUPPORT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ConsistencyWitness:
    """Candidate point set P with an assignment of family labels into it."""

    target_dim: int
    points: np.ndarray  # (m, k), complex or float entries
    assignment: dict  # label -> row index into points

    def __post_init__(self):
        _integer(self.target_dim, "target_dim")
        pts = np.asarray(self.points)
        if pts.ndim != 2:
            raise ValueError("witness points must form a 2-D array (m, k)")
        if pts.shape[1] != self.target_dim:
            raise ValueError("witness points do not match target dimension")
        if pts.size and not np.all(np.isfinite(pts)):
            raise ValueError("witness points must be finite")
        if pts.shape[0] < 1:
            raise ValueError("witness needs at least one point")
        assignment = dict(self.assignment)
        for label, idx in assignment.items():
            _integer(idx, f"assignment of {label!r} (an integer index into the points)")
            if idx >= pts.shape[0]:
                raise ValueError(f"assignment of {label!r} out of range")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "assignment", assignment)

    @property
    def k(self) -> int:
        return self.target_dim

    def point_of(self, label):
        return self.points[self.assignment[label]]

    def covers(self, family: Family) -> bool:
        return all(l in self.assignment for l in family.labels)


def trivial_witness(family: Family) -> ConsistencyWitness:
    """The unique witness into C^0: one empty point, all labels mapped to it."""
    pts = np.zeros((1, 0), dtype=complex)
    return ConsistencyWitness(0, pts, {l: 0 for l in family.labels})


@dataclass(frozen=True, eq=False)
class AffineDependence:
    """Support labels and finite complex coefficients, not all zero, with
    zero sum and zero weighted witness sum.

    origin records how the dependence was produced ("circuit" for a
    one-dimensional null space, "sampled" otherwise); it carries no
    semantics beyond bookkeeping."""

    labels: tuple
    coeffs: tuple
    origin: str = "circuit"

    def __post_init__(self):
        labels = tuple(self.labels)
        coeffs = tuple(map(complex, self.coeffs))
        if len(labels) != len(coeffs) or not labels:
            raise ValueError("labels and coefficients must align and be nonempty")
        if not any(coeffs):
            raise ValueError("dependence coefficients must not all vanish")
        if not all(map(cmath.isfinite, coeffs)):
            raise ValueError("dependence coefficients must be finite")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "coeffs", coeffs)

    def residuals(self, witness: ConsistencyWitness):
        """(|sum a|, ||sum a phi||) against a witness."""
        a = np.asarray(self.coeffs)
        pts = np.asarray([witness.point_of(l) for l in self.labels])
        s0 = abs(complex(a.sum()))
        s1 = float(np.linalg.norm(a @ pts)) if witness.k else 0.0
        return s0, s1


@dataclass(frozen=True, eq=False)
class Lift:
    """Realization of a dependence inside the sets: nonnegative weights r_F
    and points p_F in F with vanishing weighted sums.

    vertex_weights certify each p_F as a convex combination of its set's
    vertices (the weights of labels with r_F = 0 are zero; their p_F is
    their set's first vertex)."""

    dependence: AffineDependence
    r: tuple  # per support label
    points: np.ndarray  # (s, d) complex
    vertex_weights: tuple  # per label, ndarray of convex weights

    @property
    def products(self) -> tuple:
        return tuple(r * a for r, a in zip(self.r, self.dependence.coeffs))

    def residuals(self):
        prod = np.asarray(self.products)
        return abs(complex(prod.sum())), float(np.linalg.norm(prod @ self.points))


@dataclass(frozen=True, eq=False)
class NoLift:
    """Verdict that a dependence admits no lift; carries the infeasibility
    certificate of the cone formulation (exact when rationally confirmed)."""

    dependence: AffineDependence
    certificate: FeasibilityCertificate

    @property
    def exact(self) -> bool:
        return self.certificate.exact


@dataclass(frozen=True, eq=False)
class ConsistencyVerdict:
    """Outcome of a consistency check.  The counts of the complex check are
    those of the dependences enumerated: every subfamily size for a pass,
    and for a fail the sizes up to and including the failing one, since the
    check lifts each size before it enumerates the next."""

    status: str  # "pass" | "fail"
    samples_budget: int
    n_dependences: int = 0
    n_circuits: int = 0
    n_sampled: int = 0
    violation: object = None  # NoLift (complex path) or SeparationViolation
    max_lift_residual: float = 0.0
    worst_lift: Lift | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True, eq=False)
class SeparationViolation:
    """A disjoint subfamily pair whose witness images intersect."""

    part_one: tuple
    part_two: tuple
    image_point: np.ndarray
    disjointness: FeasibilityCertificate  # Farkas for conv(F1) n conv(F2) = {}


@dataclass(frozen=True)
class ConsistencyConfig:
    """Budget and arithmetic of a consistency check: samples random
    dependences per subfamily whose null space has dimension above one,
    drawn from the seeded generator; exact decides every lift in rational
    arithmetic.  Null-space rank is decided by the module constant
    NULLSPACE_TOL, and a verdict keeps only its worst lift."""

    samples: int = 64
    seed: int = 0
    exact: bool = False  # rational arithmetic for every lift decision

    def __post_init__(self):
        _integer(self.samples, "samples")
        _integer(self.seed, "seed")


# ---------------------------------------------------------------------------
# complex null spaces (column-pivoted elimination)


def _complex_nullspace(M: np.ndarray):
    """Null-space bases of a stack of complex matrices (R, m, n), by
    elimination with full column pivoting, rank decided by the threshold
    NULLSPACE_TOL.  The stack is eliminated at once, each matrix with its own
    pivots and row swaps, and each pivot is :func:`tvlab.lp._pivot`, with
    the pivot columns as its basis: on a complex block its update leaves the
    rows with a zero in the pivot column untouched, so a matrix gets the
    bits of its elimination alone.  Returns the bases
    zero-padded to (R, n, n) and the nullities (R,)."""
    M = np.array(M, dtype=complex)
    R, m, n = M.shape
    pivoted = np.zeros((R, n), dtype=bool)
    pivot_cols = np.zeros((R, min(m, n)), dtype=int)  # of each pivot row
    for row in range(min(m, n)):
        sub = np.abs(M[:, row:, :])
        sub[np.broadcast_to(pivoted[:, None, :], sub.shape)] = 0.0
        sub = sub.reshape(R, -1)
        ij = sub.argmax(axis=1)
        # a stopped matrix is left as it is and its block only shrinks: it stays stopped
        a = np.flatnonzero(sub[np.arange(R), ij] > NULLSPACE_TOL)
        if not a.size:
            break
        i, j = np.divmod(ij[a] + row * n, n)  # M's row and column
        M[a, row], M[a, i] = M[a, i], M[a, row]
        W, Wb = M[a], pivot_cols[a]
        _pivot(W, Wb, row, j, W[np.arange(len(a)), :, j])
        M[a], pivot_cols[a] = W, Wb
        pivoted[a, j] = True
    rank = pivoted.sum(axis=1)
    nullity = n - rank
    free = np.argsort(pivoted, axis=1, kind="stable")  # free columns first, ascending
    basis = np.zeros((R, n, n), dtype=complex)
    a, c = np.nonzero(np.arange(n) < nullity[:, None])
    basis[a, free[a, c], c] = 1.0
    pivot_rows = np.arange(min(m, n))[:, None] < rank[:, None, None]
    a, r, c = np.nonzero(pivot_rows & (np.arange(n) < nullity[:, None, None]))
    basis[a, pivot_cols[a, r], c] = -M[a, r, free[a, c]]
    return basis, nullity


def _row_norms(A: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of a complex block, to the bit: sqrt(re.re +
    im.im) with each product summed by BLAS dot, as the batched matmul of
    (N, 1, s) by (N, s, 1) sums it (einsum sums in another order)."""
    re, im = A.real, A.imag
    return np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])


def _canonical_blocks(A: np.ndarray):
    """Canonicalise the candidate rows of a complex block A (N, s) together:
    unit norm, support |a| > SUPPORT_TOL, then the largest-modulus supported
    entry rotated real-positive and the row renormalised.  Yields (rows,
    support, coeffs) for each support pattern, in order of first occurrence;
    rows of norm at most SUPPORT_TOL, or with empty support, are left out.
    Every row gets the bits of the same steps run on that row alone."""
    nrm = _row_norms(A)
    keep = np.flatnonzero(nrm > SUPPORT_TOL)
    A = A[keep] / nrm[keep, None]
    patterns = np.abs(A) > SUPPORT_TOL
    packed = np.packbits(patterns, axis=1)  # each row's pattern as one key
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    for g in np.argsort(first):  # the patterns in order of first occurrence
        support = np.flatnonzero(patterns[first[g]])
        if not support.size:
            continue
        rows = np.flatnonzero(group == g)
        sub = A[np.ix_(rows, support)]
        sub = sub / sub[np.arange(len(rows)), np.argmax(np.abs(sub), axis=1), None]
        yield keep[rows], support, sub / _row_norms(sub)[:, None]


def _decimal_keys(x: np.ndarray) -> np.ndarray:
    """Integer keys of the parts x of unit coefficient rows, equal exactly where
    their ``"%.9f"`` strings are: 2 rint(x 1e9), plus one for "-0.000000000".
    Where x 1e9 lies within 1e-6 of a half-integer, so that the product's
    rounding could decide, rint(x 1e9) is read from the string instead."""
    y = x * 1e9
    n = np.rint(y)
    near = np.flatnonzero(np.abs(y - np.floor(y) - 0.5) < 1e-6)
    n.flat[near] = [int(("%.9f" % v).replace(".", "")) for v in x.flat[near].tolist()]
    return n.astype(np.int64) * 2 + ((n == 0) & np.signbit(x))


def _dependences_by_size(family: Family, witness: ConsistencyWitness, config: ConsistencyConfig):
    """The kept dependences of :func:`enumerate_dependences`, one list of
    blocks per subfamily size 2 .. min(n, 2k+3) (empty where a size has none),
    each yielded before the next size is eliminated or sampled.  A block is a
    maximal run of consecutive dependences with equal support labels, held as
    (labels, coeffs, origins, null): the labels, a (b, s) complex array of
    the coefficients, a (b,) array of the origins and, for the sampled rows
    of a subfamily with full support, its orthonormal null basis (s, nu),
    else None."""
    if not witness.covers(family):
        raise ValueError("witness must assign every family label")
    labels = family.labels
    pts = witness.points[[witness.assignment[l] for l in labels]]
    rng = np.random.default_rng(config.seed)
    width = min(len(labels), 2 * witness.k + 3)
    seen = set()
    for size in range(2, width + 1):
        yield _size_blocks(labels, pts, size, width, rng, config.samples, seen)


def _size_blocks(labels, pts, size, width, rng, samples, seen):
    """The blocks of :func:`_dependences_by_size` for one subfamily size,
    drawing from rng and keeping the keys not yet in seen, which it extends.
    The candidates and their keys die on return, so they do not stay alive
    while the blocks are lifted."""
    combos = np.array(list(combinations(range(len(labels)), size)))
    M = np.ones((len(combos), pts.shape[1] + 1, size), dtype=complex)
    M[:, 1:] = pts[combos].transpose(0, 2, 1)
    basis, nullity = _complex_nullspace(M)
    starts = np.flatnonzero(np.diff(nullity, prepend=-1)).tolist() + [len(combos)]
    blocks, null = [], [None] * len(combos)  # null: each sampled subfamily's orthonormal basis
    for i, j in zip(starts, starts[1:]):
        nu = int(nullity[i])
        if nu == 1:
            blocks.append(basis[i:j, :, 0])
        elif nu > 1:
            q = np.linalg.qr(basis[i:j, :, :nu]).Q
            null[i:j] = q
            g = rng.standard_normal((j - i, 2, nu, samples))
            blocks.append((q @ (g[:, 0] + 1j * g[:, 1])).transpose(0, 2, 1).reshape(-1, size))
    if not blocks:
        return []
    A = np.concatenate(blocks)
    sid = np.repeat(np.arange(len(combos)), np.where(nullity > 1, samples, nullity))
    keys = np.full((len(A), 3 * width), -1)  # a _decimal_keys value is even or 1
    C = np.zeros((len(A), width), dtype=complex)  # canonical coefficients, left-aligned
    for rows, support, coeffs in _canonical_blocks(A):
        keys[rows, : support.size] = combos[sid[rows]][:, support]
        keys[rows, width : width + 2 * support.size] = _decimal_keys(coeffs.view(float))
        C[rows, : support.size] = coeffs
    as_bytes = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    kept = []
    for r, (key, canonical) in enumerate(zip(as_bytes.tolist(), (keys[:, 0] >= 0).tolist())):
        if canonical and key not in seen:
            seen.add(key)
            kept.append(r)
    members = keys[kept, :width]  # support label indices, padded with -1
    new = np.ones(len(kept), dtype=bool)
    new[1:] = (members[1:] != members[:-1]).any(axis=1)
    starts = np.flatnonzero(new).tolist()
    origins = np.where(nullity == 1, "circuit", "sampled")[sid[kept]]
    sups = [members[i][members[i] >= 0].tolist() for i in starts]
    return [(tuple(labels[t] for t in sup), C[kept[i:j], : len(sup)], origins[i:j],
             null[sid[kept[i]]] if len(sup) == size else None)
            for sup, i, j in zip(sups, starts, starts[1:] + [len(kept)])]


def enumerate_dependences(
    family: Family, witness: ConsistencyWitness, config: ConsistencyConfig | None = None
):
    """All circuit dependences plus sampled higher-nullity directions, over
    subfamilies of size at most 2k+3, in increasing-size lexicographic order,
    deduplicated up to global complex scaling.

    All subfamilies of one size go together: one stacked elimination, one
    QR and one draw ``(R, 2, nullity, samples)`` per run of R consecutive
    subfamilies sharing a nullity above one (the per-subfamily stream of
    real, then imaginary parts), and one :func:`_canonical_blocks` call.
    Each candidate is keyed by its support's label indices and then its
    coefficients to nine decimals (:func:`_decimal_keys`), both padded with
    -1 to the width min(n, 2k+3), and the first of each key in candidate
    order is kept, through one set of keys carried across sizes."""
    sizes = _dependences_by_size(family, witness, config or ConsistencyConfig())
    return [AffineDependence(labels, c, o)
            for blocks in sizes for labels, coeffs, origins, _ in blocks
            for c, o in zip(coeffs.tolist(), origins.tolist())]


# ---------------------------------------------------------------------------
# lifting


def _exact_generators(coeffs, points):
    """Integer columns (s^2 a z, s a, 1), complex entries in real pairs, for
    each coefficient a and each row z of its (n, k) array of points: the
    generators (a z, a) of :func:`_lift_batch` and an affine 1, with a
    and z Gaussian integers over one scale s.  Scaling a row keeps the null
    space and the cone LP's answer.  Raises ValueError unless there is one
    array of points per coefficient."""
    if len(coeffs) != len(points):
        raise ValueError(f"{len(coeffs)} coefficients for {len(points)} point arrays")
    flat = [complex(c) for c in coeffs] + [complex(z) for P in points for z in np.ravel(P)]
    ints, _ = integers([x for z in flat for x in (z.real, z.imag)])
    pairs = iter(zip(ints[::2], ints[1::2]))
    cols = [(next(pairs), P) for P in points]  # the coefficients come first
    return [[x for _ in row for x in gmul(a, next(pairs))] + [*a, 1] for a, P in cols for row in P]


# A lock-step batch holds whole blocks of one cone LP layout, of shape
# (2d+3, n), up to this many tableau cells, (2d+4)(n+2d+4) per LP; a block
# above it is a batch alone.  2^17 float64 cells are 1 MiB, and a pivoting
# batch keeps about three arrays of up to that size alive: its rows, its
# tableau and one pivot's dense update.  At d=2 that is nine sampled blocks
# of 64 LPs on 4 sets of 5 vertices (n=20).  A full batch pivots for about
# 20 iterations, and fewer, larger batches pay the fixed numpy cost of an
# iteration less often.  The sampled rows of planted checks now mostly come
# from realization LPs and do not pivot: on 6-set necessity checks of such
# sets the traced peak is 2.0 MB and a check takes 13-15 ms of CPU, as at
# 2^16 (1.2 MB) and 2^18 (3.2 MB) within the noise of a shared 2-vCPU host,
# against 0.9 MB and 22-26 ms with one batch per block.
_BATCH_CELLS = 2**17


def _batched_lifts(family: Family, blocks, config: ConsistencyConfig):
    """(resid, lift, nolift) of :func:`_lift_batch` for each lock-step batch
    of the blocks (labels, coeffs, origins, null) of
    :func:`_dependences_by_size`, in order.  Consecutive blocks whose labels
    have equal vertex counts, so that their cone LPs share one shape and
    layout, form a run, packed in order into batches within _BATCH_CELLS.
    Unless ``config.exact``, the realization LPs of a run's blocks with a
    null basis are solved together, ahead of the run's first batch: a
    NoLift in an early batch does not spare the later batches' share.
    Each batch is lifted when it is reached, with each block's realization
    weights in place of its null basis.  Every coefficient must be nonzero,
    as enumerated ones are on their support: :func:`lift_dependence` drops
    a caller's zeros before it comes here."""
    m = 2 * family.dim + 3
    runs, last, used = [], None, 0
    for block in blocks:
        counts = [len(family[label].vertices) for label in block[0]]
        cells = len(block[1]) * (m + 1) * (sum(counts) + m + 1)
        if counts != last:
            runs.append([])
        if counts != last or used + cells > _BATCH_CELLS:
            runs[-1].append([])
            last, used = counts, 0
        runs[-1][-1].append(block)
        used += cells
    for run in runs:
        W = None if config.exact else _realizations(family, [b for batch in run for b in batch])
        W = repeat(None) if W is None else iter(W)
        for batch in run:
            yield _lift_batch(family, [(*block[:3], next(W)) for block in batch], config)


def _block_vertices(family: Family, blocks):
    """Each block's vertices, label by label: (blocks, n, d)."""
    return np.stack([np.concatenate([family[label].vertices for label in b[0]]) for b in blocks])


def _realizations(family: Family, blocks):
    """Candidate cone LP witnesses (blocks, n) of a run of blocks (labels,
    coeffs, origins, null) whose labels have equal vertex counts, one for
    every row of a block, NaN for a block without one; None when fewer than
    two blocks have a null basis.  For a block of s labels with the
    orthonormal basis q (s, nu) of its subfamily's null space, one float
    realization LP asks for convex weights w over each label's vertices v
    whose points p_F = sum_v w_Fv v give sum_F q_iF p_F = 0 for every i:
    2d nu rows, read in R^{2d}, and s rows of ones.  Every row a of the
    block lies in the span of q, so sum_F a_F p_F = 0 and sum_F a_F = 0, and
    its candidate is w / s, with r_F = 1/s.  The blocks of one nullity are
    solved as one batch.

    A lone block is left to its cone LPs: its realization LP would be a
    lock-step solve of its own, about 1 ms at d=2, against about 2.5 ms for
    the cone LPs of 64 sampled rows that it saves when it is feasible.  On
    the Gaussian witnesses of the refutation benchmark it is infeasible
    about two times in three, and its cost would go to the slowest checks
    (their 95th percentile rose by about 30%)."""
    have = [b for b, block in enumerate(blocks) if block[3] is not None]
    if len(have) < 2:
        return None
    counts = [len(family[label].vertices) for label in blocks[0][0]]
    s, d = len(counts), family.dim
    W = np.full((len(blocks), sum(counts)), np.nan)
    convex = np.repeat(np.eye(s), counts, axis=1)  # each vertex's label
    for nu in sorted({blocks[b][3].shape[1] for b in have}):
        group = [b for b in have if blocks[b][3].shape[1] == nu]
        V = _block_vertices(family, [blocks[b] for b in group])
        G = np.repeat(np.stack([blocks[b][3] for b in group]), counts, axis=1)  # (g, n, nu)
        G = (G[..., None] * V[:, :, None]).reshape(len(group), -1, nu * d)
        rows = np.concatenate([complex_to_real(G).transpose(0, 2, 1),
                               np.broadcast_to(convex, (len(group),) + convex.shape)], axis=1)
        rhs = np.zeros(rows.shape[:2])
        rhs[:, -s:] = 1.0
        W[group] = _float_solutions(rows, rhs) / s
    return W


def _lift_batch(family: Family, batch, config: ConsistencyConfig):
    """Lift the dependences of blocks (labels, coeffs, origins, realized)
    whose labels have equal vertex counts, in order, up to the first NoLift.
    Their cone LPs are built as one array and go through
    :func:`tvlab.lp.certify` as one (exactly with ``config.exact``): each
    asks for convex weights of the columns, the generators (a_F v, a_F) in
    C^{d+1}, read in R^{2d+2}, of the vertices v of each label F over a one,
    that sum them to (0, 1).  A block's realized weights of
    :func:`_realizations` (NaN for none) are the candidate witness of each
    of its rows; with None for every block there are no candidates.  The
    witnesses come back in runs of consecutive programs and are read as one
    array.

    r, the in-set points and both residuals of the lifted dependences are
    computed as arrays, in the bits of the one-dependence formulas.  Returns
    (resid, lift, nolift): max(|sum r a|, ||sum r a p||) of each lifted
    dependence, lift(i), which builds the Lift of the i-th, and the NoLift
    that ends the batch, or None.  An AffineDependence is built only for
    these two."""
    labels, coeffs, origins, realized = zip(*batch)
    counts = [len(family[label].vertices) for label in labels[0]]
    a, origins = np.concatenate(coeffs), np.concatenate(origins)  # a: (B, s)
    of = np.repeat(np.arange(len(batch)), [len(c) for c in coeffs])  # each row's block
    V = _block_vertices(family, batch)
    G = np.empty((len(a), V.shape[1], family.dim + 1), dtype=complex)
    G[..., -1] = np.repeat(a, counts, axis=1)
    np.multiply(G[..., -1:], V[of], out=G[..., :-1])
    rows = np.ones((len(a), 2 * family.dim + 3, V.shape[1]))
    rows[:, :-1] = complex_to_real(G).transpose(0, 2, 1)
    del G  # the batch pivots without it
    rhs = np.zeros(rows.shape[:2])
    rhs[:, -1] = 1.0

    def dependence(i):
        return AffineDependence(labels[of[i]], a[i].tolist(), str(origins[i]))

    cand = None if realized[0] is None else np.stack(realized)[of]
    runs, nolift = [np.empty((0, V.shape[1]))], None
    for lam, farkas in certify(rows, rhs, exact=config.exact, witnesses=cand):
        if farkas is not None:
            nolift = NoLift(dependence(sum(map(len, runs))), _infeasible(farkas))
            break
        runs.append(lam)
    # the witnesses as floats (an exact one holds Fractions)
    lam = np.concatenate(runs).astype(float, copy=False)
    V = V[of[: len(lam)]]  # each lifted row's vertices: (lifted, n, d)
    r = np.zeros((len(lam), len(counts)))
    P = np.empty(r.shape + (family.dim,), dtype=complex)
    W, start = [], 0
    for g, c in enumerate(counts):
        Vf = V[:, start : start + c]
        P[:, g] = Vf[:, 0]  # the point of a label with r_F = 0: its first vertex
        lf, start = lam[:, start : start + c], start + c
        r[:, g] = lf.sum(axis=1)
        pos = r[:, g, None] > 0.0
        np.divide((lf[:, None, :] @ Vf)[:, 0], r[:, g, None], out=P[:, g], where=pos)
        W.append(np.divide(lf, r[:, g, None], out=lf.copy(), where=pos))
    prod = r * a[: len(lam)]
    S = prod.sum(axis=1)
    resid = np.maximum(np.hypot(S.real, S.imag), _row_norms((prod[:, None, :] @ P)[:, 0]))

    def lift(i):  # copies, so that a kept Lift does not hold the batch's arrays
        return Lift(dependence(i), tuple(r[i].tolist()), P[i].copy(), tuple(w[i].copy() for w in W))

    return resid, lift, nolift


def lift_dependence(
    family: Family, dep: AffineDependence, config: ConsistencyConfig | None = None
):
    """Find nonnegative weights and in-set points realizing a dependence.

    Uses the exact equivalence, for vertex-generated sets, between the
    definition's lift and convex-cone membership of the origin among the
    per-vertex generators.  A label with a zero coefficient cannot affect
    the sums: the dependence restricted to the other labels is a block and a
    batch of one for :func:`_batched_lifts`, so a NoLift, which carries dep,
    always carries an exact Farkas certificate, and a Lift puts each dropped
    label back with r_F = 0, its first vertex and zero weights.
    """
    nz = [g for g, a in enumerate(dep.coeffs) if a]
    coeffs = np.array([[dep.coeffs[g] for g in nz]])
    part = (tuple(dep.labels[g] for g in nz), coeffs, np.array([dep.origin]), None)
    _, lift, nolift = next(_batched_lifts(family, [part], config or ConsistencyConfig()))
    if nolift is not None:
        return NoLift(dep, nolift.certificate)
    got, r = lift(0), [0.0] * len(dep.labels)
    points = np.array([family[label].vertices[0] for label in dep.labels], dtype=complex)
    weights = [np.zeros(len(family[label].vertices)) for label in dep.labels]
    for i, g in enumerate(nz):
        r[g], points[g], weights[g] = got.r[i], got.points[i], got.vertex_weights[i]
    return Lift(dep, tuple(r), points, tuple(weights))


def check_dependency_consistency(
    family: Family, witness: ConsistencyWitness, config: ConsistencyConfig | None = None
) -> ConsistencyVerdict:
    """Pass iff every enumerated dependence lifts; the first failure (in
    enumeration order) is returned with its certificate.  The dependences of
    each subfamily size are lifted before the next size is enumerated, so a
    fail enumerates no size past its own.  They are lifted in the lock-step
    batches of :func:`_batched_lifts`, whose results are read in enumeration
    order: a NoLift stops the check before any exact work on the LPs after
    it, and every NoLift and its certificate are the ones that the
    dependence alone would give.  A lift from a realization re-substitutes
    into the dependence's own cone LP to FEAS_TOL, the rule by which
    certify keeps its own float witnesses, but it is not the lift that the
    dependence alone would give, and where the sets are tangent to the
    realization's points the dependence alone may have none."""
    config = config or ConsistencyConfig()
    if family.ambient != "complex":
        raise ValueError("dependency consistency is a complex-ambient check")
    n_dependences = n_circuits = 0
    max_resid, worst = 0.0, None
    for blocks in _dependences_by_size(family, witness, config):
        n_dependences += sum(len(origins) for _, _, origins, _ in blocks)
        n_circuits += sum(int(np.count_nonzero(o == "circuit")) for _, _, o, _ in blocks)
        for resid, lift, nolift in _batched_lifts(family, blocks, config):
            if nolift is not None:
                return ConsistencyVerdict("fail", config.samples, n_dependences, n_circuits,
                                          n_dependences - n_circuits, violation=nolift)
            i = int(resid.argmax())  # the first of equal maxima, as in enumeration order
            if resid[i] > max_resid:
                max_resid, worst = float(resid[i]), lift(i)
    return ConsistencyVerdict("pass", config.samples, n_dependences, n_circuits,
                              n_dependences - n_circuits, max_lift_residual=max_resid,
                              worst_lift=worst)


# ---------------------------------------------------------------------------
# real path: separates consistently


def _union_vertices(family: Family, labels):
    return np.vstack([family[l].vertices for l in labels])


def separates_consistently(family: Family, witness: ConsistencyWitness) -> ConsistencyVerdict:
    """Contrapositive check over all disjoint subfamily pairs of total size
    at most k+2, k the witness's target dimension: intersecting witness
    images force intersecting hulls.  Raises ValueError when an image of a
    family label has a nonzero imaginary part (a complex array whose
    imaginary parts are all zero is read as real)."""
    if family.ambient != "real":
        raise ValueError("separates_consistently is a real-ambient check")
    if not witness.covers(family):
        raise ValueError("witness must assign every family label")
    labels = family.labels
    images = np.asarray([witness.point_of(l) for l in labels])
    if np.iscomplexobj(images):
        if images.imag.any():
            raise ValueError("witness images of a real-ambient check must be real")
        images = images.real
    n_checked = 0
    for total in range(2, min(len(labels), witness.k + 2) + 1):
        for combo in combinations(range(len(labels)), total):
            # splits with the first member pinned to part one avoid mirror pairs
            rest = combo[1:]
            for mask in range(1 << len(rest)):
                one = [combo[0]] + [rest[i] for i in range(len(rest)) if mask >> i & 1]
                two = [rest[i] for i in range(len(rest)) if not mask >> i & 1]
                if not two:
                    continue
                f1 = tuple(labels[i] for i in one)
                f2 = tuple(labels[i] for i in two)
                n_checked += 1
                meet = hulls_intersect(images[one], images[two])
                if not meet.feasible:
                    continue
                hulls = hulls_intersect(
                    _union_vertices(family, f1), _union_vertices(family, f2)
                )
                if hulls.feasible:
                    continue
                return ConsistencyVerdict(
                    "fail",
                    samples_budget=0,
                    n_dependences=n_checked,
                    violation=SeparationViolation(f1, f2, meet.point, hulls.certificate),
                )
    return ConsistencyVerdict("pass", samples_budget=0, n_dependences=n_checked)


# ---------------------------------------------------------------------------
# Caratheodory support reduction (exact arithmetic)


def reduce_dependence_support(
    dep: AffineDependence, witness: ConsistencyWitness
) -> AffineDependence:
    """Shrink a dependence to support at most 2k+3 by positive rescalings.

    Runs in exact arithmetic on the paired real coordinates of the points
    (a_F phi(F), a_F), in integers (:func:`_exact_generators`); the output
    coefficients are s_F * a_F with s_F > 0 and satisfy both dependence
    equations to rounding error only.
    """
    k = witness.k
    labels = list(dep.labels)
    coeffs = [complex(c) for c in dep.coeffs]
    # column F: s^2 a_F phi(F), s a_F and 1 (the affine row over the q points)
    cols = _exact_generators(coeffs, [witness.point_of(l).reshape(1, k) for l in labels])
    weights = [Fraction(1)] * len(labels)
    while len(labels) > 2 * k + 3:
        z = null_vector(list(zip(*cols)))
        if z is None:
            break  # affinely independent; cannot shrink further
        t = min(w / v for w, v in zip(weights, z) if v > 0)
        weights = [w - t * v for w, v in zip(weights, z)]
        keep = [i for i, w in enumerate(weights) if w != 0]
        labels, coeffs, weights, cols = (
            [x[i] for i in keep] for x in (labels, coeffs, weights, cols)
        )
    new_coeffs = [float(w) * c for w, c in zip(weights, coeffs)]
    return AffineDependence(tuple(labels), tuple(new_coeffs))
