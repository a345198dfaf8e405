"""Geometry behavior: inner product convention, embedding, line projection,
closest coefficients, and hyperplane recovery, checked against independent
oracles and the variational/antipodal/continuity properties."""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest

from tvlab import geometry
from tvlab.geometry import (
    ComplexHyperplane,
    Family,
    PoleError,
    Polytope,
    SpherePoint,
    _closest_coefficients,
    _closest_rows,
    _segment_closest,
    _vertex_pairs,
    complex_to_real,
    embed_family,
    embed_polytope,
    hermitian_inner,
    hyperplane_from_sphere_point,
    real_to_complex,
)
from tvlab.harness import GenSpec, gen_instance


def _inner_oracle(u, v):
    """Hand expansion of sum(u_i * conj(v_i)) in real/imag parts."""
    re = im = 0.0
    for a, b in zip(u, v):
        ar, ai = complex(a).real, complex(a).imag
        br, bi = complex(b).real, complex(b).imag
        re += ar * br + ai * bi
        im += ai * br - ar * bi
    return complex(re, im)


def _segment_closest_oracle(a, b):
    """Orthogonal projection of the origin onto segment [a, b] in R^2."""
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    dd = dx * dx + dy * dy
    t = 0.0 if dd == 0.0 else max(0.0, min(1.0, -(ax * dx + ay * dy) / dd))
    return complex(ax + t * dx, ay + t * dy)


def _random_sphere_point(rng, n):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return SpherePoint(x / np.linalg.norm(x))


# -- hermitian_inner ---------------------------------------------------------


def test_inner_unit_vectors():
    assert hermitian_inner([1, 0], [1, 0]) == 1
    assert hermitian_inner([1j, 0], [1j, 0]) == 1


def test_inner_frozen_value():
    # (1+i)*1 + 2*(-i) = 1 - i
    got = hermitian_inner([1 + 1j, 2], [1, 1j])
    assert got == pytest.approx(1 - 1j)
    assert got == pytest.approx(_inner_oracle([1 + 1j, 2], [1, 1j]))


def test_inner_conjugate_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert hermitian_inner(u, v) == pytest.approx(np.conj(hermitian_inner(v, u)))
        assert hermitian_inner(u, v) == pytest.approx(_inner_oracle(u, v))


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        hermitian_inner([1, 0], [1, 0, 0])


# -- embeddings and real views -----------------------------------------------


def test_embed_h_examples():
    e = embed_polytope(Polytope("complex", [[0]])).vertices
    assert np.array_equal(e[0], np.array([0, 1], dtype=complex))
    e = embed_polytope(Polytope("complex", [[1 + 1j, 2]])).vertices
    assert np.array_equal(e[0], np.array([1 + 1j, 2, 1], dtype=complex))


def test_embed_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.array_equal(embed_polytope(Polytope("complex", [z])).vertices[0, :-1], z)


def test_real_complex_views_invert():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert np.allclose(real_to_complex(complex_to_real(z)), z)
    x = complex_to_real(z)
    assert np.array_equal(x[0::2], z.real) and np.array_equal(x[1::2], z.imag)


def test_polytope_validation():
    with pytest.raises(ValueError):
        Polytope("complex", np.zeros((0, 2), dtype=complex))
    with pytest.raises(ValueError):
        Polytope("other", np.zeros((1, 2)))
    with pytest.raises(ValueError):
        Polytope("real", np.array([[np.inf, 0.0]]))


def test_family_validation_and_lookup():
    p = Polytope("complex", np.array([[1 + 0j]]))
    q = Polytope("complex", np.array([[2 + 0j]]))
    fam = Family(("A", "B"), (p, q))
    assert fam["B"] is q
    with pytest.raises(KeyError):
        fam["C"]
    with pytest.raises(ValueError):
        Family(("A", "A"), (p, q))
    with pytest.raises(ValueError, match="at least one set"):
        Family((), ())


def test_embed_polytope_lands_in_slice():
    p = Polytope("complex", np.array([[1 + 2j, 3 - 1j], [0j, 1j]]))
    e = embed_polytope(p)
    assert e.dim == 3
    assert np.all(e.vertices[:, -1] == 1)
    fam = embed_family(Family(("A",), (p,)))
    assert fam["A"].dim == 3


def test_sphere_point_norm_enforced():
    with pytest.raises(ValueError):
        SpherePoint(np.array([1.0 + 0j, 1.0]))
    x = SpherePoint.normalized(np.array([3.0, 4.0j]))
    assert np.linalg.norm(x.coords) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose((-x).coords, -x.coords)


# -- projection onto a complex line -------------------------------------------
#
# A set with one vertex v projects to the single coefficient <v, x>, which is
# then its own closest coefficient, so a family of one-vertex sets reads the
# projection off _closest_coefficients.


def _vertex_sets(v) -> Family:
    """One single-vertex set per row of v."""
    return Family(tuple(f"v{i}" for i in range(len(v))),
                  tuple(Polytope("complex", row[None, :]) for row in v))


def test_project_axis_direction():
    x = SpherePoint(np.array([1, 0, 0], dtype=complex))
    f = np.array([[3, 0, 1], [5, 0, 1]], dtype=complex)
    coeffs = _closest_coefficients(_vertex_sets(f), x.coords[None, :])[0]
    assert sorted(coeffs, key=lambda c: c.real) == [3, 5]


def test_project_last_axis_gives_ones():
    x = SpherePoint(np.array([0, 0, 1], dtype=complex))
    rng = np.random.default_rng(4)
    v = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    f = embed_polytope(Polytope("complex", v))
    coeffs = _closest_coefficients(_vertex_sets(f.vertices), x.coords[None, :])[0]
    assert all(c == pytest.approx(1.0) for c in coeffs)


def test_project_matches_inner_product_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = _random_sphere_point(rng, 3)
        v = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        coeffs = _closest_coefficients(_vertex_sets(v), x.coords[None, :])[0]
        for row, c in zip(v, coeffs):
            assert c == pytest.approx(_inner_oracle(row, x.coords), abs=1e-12)


def test_project_dimension_mismatch():
    x = SpherePoint(np.array([1, 0], dtype=complex))
    f = Family(("F",), (Polytope("complex", np.array([[1, 2, 3]], dtype=complex)),))
    with pytest.raises(ValueError):
        _closest_coefficients(f, x.coords[None, :])


# -- closest coefficients ------------------------------------------------------


def test_closest_real_segment():
    assert _closest_rows(np.array([[3 + 0j, 5 + 0j]]))[0] == 3


def test_closest_origin_inside():
    square = (1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j)
    assert _closest_rows(np.array([square]))[0] == 0


def test_closest_vertical_segment():
    got = _closest_rows(np.array([[1 + 1j, 1 - 1j]]))[0]
    assert got == pytest.approx(1.0)
    assert got == pytest.approx(_segment_closest_oracle((1, 1), (1, -1)))


def test_closest_singleton_and_degenerate():
    assert _closest_rows(np.array([[2 - 1j]]))[0] == 2 - 1j
    assert _closest_rows(np.array([[2 - 1j, 2 - 1j, 2 - 1j]]))[0] == 2 - 1j
    assert _closest_rows(np.array([[1 + 0j, 3 + 0j, 2 + 0j]]))[0] == 1


def _origin_in_some_triangle(pts):
    """Origin-in-hull oracle: barycentric test over every point triple."""
    import itertools

    for a, b, c in itertools.combinations(pts, 3):
        M = np.array([[a.real, b.real, c.real], [a.imag, b.imag, c.imag], [1, 1, 1]])
        try:
            w = np.linalg.solve(M, np.array([0.0, 0.0, 1.0]))
        except np.linalg.LinAlgError:
            continue
        if np.all(w >= -1e-12):
            return True
    return False


# degenerate polygons: one vertex, all vertices equal, collinear vertices,
# the origin on an edge (of a triangle, of a segment), the origin as a vertex
DEGENERATE = (
    [2 - 1j],
    [2 - 1j] * 3,
    [1 + 0j, 3 + 0j, 2 + 0j],
    [-1 - 1j, 1 + 1j, 2 - 1j],
    [-1 + 0j, 1 + 0j],
    [0j, 1 + 1j, 1 - 1j],
)


def test_closest_matches_edge_oracle_random():
    rng = np.random.default_rng(6)
    cases = [rng.standard_normal(5) + 2.0 + 1j * rng.standard_normal(5) for _ in range(200)]
    for pts in cases + [np.array(c) for c in DEGENERATE]:
        # repeating the last vertex, as a padded block row does, keeps the bits
        padded = np.concatenate([pts, np.repeat(pts[-1:], 3)])
        q = _closest_rows(pts[None, :])
        got = q[0]
        assert _closest_rows(padded[None, :]).tobytes() == q.tobytes()
        if _origin_in_some_triangle(pts):
            assert got == 0
            continue
        # oracle: brute force over all segment pairs plus vertices
        best = min(
            (
                _segment_closest_oracle((a.real, a.imag), (b.real, b.imag))
                for a in pts
                for b in pts
            ),
            key=abs,
        )
        assert abs(got) == pytest.approx(abs(best), abs=1e-12)


def test_projection_variational_inequality():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = rng.integers(1, 7)
        pts = rng.standard_normal(n) * 2 + 1j * rng.standard_normal(n) * 2
        q = _closest_rows(pts[None, :])[0]
        for c in pts:
            assert (np.conj(q) * c).real >= abs(q) ** 2 - 1e-9


def test_antipodal_flip():
    rng = np.random.default_rng(8)
    for _ in range(100):
        x = _random_sphere_point(rng, 3)
        v = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        f = Family(("F",), (Polytope("complex", v),))
        p_pos, p_neg = _closest_coefficients(f, np.array([x.coords, (-x).coords]))[:, 0]
        assert p_neg == pytest.approx(-p_pos, abs=1e-10)


def test_projection_continuity_probe():
    rng = np.random.default_rng(9)
    for _ in range(100):
        x = _random_sphere_point(rng, 3)
        v = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        f = Family(("F",), (Polytope("complex", v),))
        bound = 10.0 * float(np.max(np.linalg.norm(v, axis=1)))
        delta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        delta *= 1e-6 / np.linalg.norm(delta)
        y = SpherePoint.normalized(x.coords + delta)
        step = float(np.linalg.norm(y.coords - x.coords))
        p_x, p_y = _closest_coefficients(f, np.array([x.coords, y.coords]))[:, 0]
        assert abs(p_y - p_x) <= bound * step + 1e-12


def test_closest_rows_coincident_vertices_warn_nothing():
    # zero-length segments get t = +0.0 without a 0/0 or x/0 division; the
    # segment search runs on the whole block, the rows the kernel skips too.
    # A pair with a NaN end has a NaN length, which is not > 0, so it gets
    # t = +0.0 as well
    C = np.array(
        [
            [1 + 1j, 1 + 1j, 2 - 1j],
            [2 - 1j] * 3,
            [0j] * 3,
            [0j, 0j, 1 + 0j],
            [1e-300 + 0j, 1e-300 + 0j, -1e-300j],
            [complex(float("nan"), 0.0), 1 - 1j, 1 - 1j],
        ]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = _closest_rows(C)
        _, _, t = _segment_closest(C)
    i1, i2 = _vertex_pairs(C.shape[1])
    assert (i1.tolist(), i2.tolist()) == ([0, 0, 1, 2], [1, 2, 2, 2])
    coincident = C[:, i1] == C[:, i2]
    # the last pair of each row, and (0, 1) of rows 0, 3, 4, (0, 2), (1, 2)
    # of rows 1 and 2, and (1, 2) of row 5
    assert coincident.sum() == 16
    D = C[:, i2] - C[:, i1]
    seg = (D * np.conj(D)).real > 0.0
    # the coincident pairs, the two of row 4 whose squared length underflows
    # to 0, and the two of the NaN vertex
    assert (~seg).sum() == 20 and not seg[coincident].any()
    assert not seg[4, 1:3].any() and not seg[5, :2].any()
    assert np.all(t[~seg] == 0.0) and not np.signbit(t[~seg]).any()
    assert q[1] == 2 - 1j and q[2] == 0 and q[3] == 0 and np.isnan(q[5])


def _mixed_family() -> Family:
    """Sets of 1 to 7 vertices in C^3 (one set with a duplicated vertex),
    at magnitudes from 1e-3 to 1e3."""
    rng = np.random.default_rng(41)
    sets = []
    for i, n in enumerate((3, 1, 7, 4, 2, 6, 5, 1, 4)):
        v = (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))) * 10.0 ** (i % 7 - 3)
        if n == 4 and i == 3:
            v[2] = v[0]
        sets.append(Polytope("complex", v))
    return Family(tuple(f"S{i}" for i in range(len(sets))), tuple(sets))


# sha256 of _closest_coefficients on the mixed family (without and with a
# shift per row), recorded when each set was still projected in its own product
CLOSEST_ALL_DIGESTS = {
    False: "2a18f22c1f6fec3201a3089b3e1619260610d4d5b60a3f2e9591a48d588e9635",
    True: "6c7a1ccae8616095a994f3b1844c5f7a5368869bcaa3ecb39f570ee80cafc0e6",
}


@pytest.mark.parametrize("shifted", [False, True])
def test_closest_all_keeps_recorded_bits(shifted):
    rng = np.random.default_rng(43)
    X = rng.standard_normal((13, 3)) + 1j * rng.standard_normal((13, 3))
    X /= np.linalg.norm(X, axis=1)[:, None]
    shift = rng.standard_normal(13) + 1j * rng.standard_normal(13) if shifted else None
    P = _closest_coefficients(_mixed_family(), X, shift=shift)
    assert P.shape == (13, 9)
    assert hashlib.sha256(P.tobytes()).hexdigest() == CLOSEST_ALL_DIGESTS[shifted]


def _one_count_family() -> Family:
    """A search-d2-shaped family: 10 unplanted sets of 4 vertices in C^2,
    one vertex-count group in its layout."""
    return gen_instance(GenSpec(d=2, n_sets=10, seed=4303)).family


# sha256 of _closest_coefficients on the family above and on its
# embed_family (without and with a shift per row), recorded while the
# product of a family's one group still went through a temporary
ONE_COUNT_DIGESTS = {
    (False, False): "03d76b6135a0d37d636cef1aebb3c45b76e0724c32f531a69435e44be48b2e86",
    (False, True): "537736bc751aa37b2e62f39057fe6617e695c29a06e839ea1d093df284956656",
    (True, False): "285c7d591a39ec5f2b090fe54fe7717153f54efcda5c84e8ac6bdc6b1b3a2f19",
    (True, True): "3626f7bd83fb099c93cb6a65bd2689ecfdc5e8bd2d47ee69ed3d843d15eed980",
}


@pytest.mark.parametrize("embedded, shifted", list(ONE_COUNT_DIGESTS))
def test_closest_coefficients_of_one_vertex_count_keep_recorded_bits(embedded, shifted):
    fam = _one_count_family()
    if embedded:
        fam = embed_family(fam)
    assert len(fam._layout[1]) == 1
    dim = fam.sets[0].dim
    rng = np.random.default_rng(4304 + dim)
    X = rng.standard_normal((13, dim)) + 1j * rng.standard_normal((13, dim))
    X /= np.linalg.norm(X, axis=1)[:, None]
    shift = rng.standard_normal(13) + 1j * rng.standard_normal(13) if shifted else None
    P = _closest_coefficients(fam, X, shift=shift)
    assert P.shape == (13, 10)
    assert hashlib.sha256(P.tobytes()).hexdigest() == ONE_COUNT_DIGESTS[embedded, shifted]


def test_subfamily_and_embedded_family_get_their_own_layout():
    # a subfamily of the 1-, 2- and 1-vertex sets pads to width 2, not 7,
    # and its closest coefficients are the family's, bit for bit
    fam = _mixed_family()
    rng = np.random.default_rng(44)
    X = rng.standard_normal((13, 3)) + 1j * rng.standard_normal((13, 3))
    X /= np.linalg.norm(X, axis=1)[:, None]
    picked = [1, 4, 7]
    sub = fam.subfamily(fam.labels[i] for i in picked)
    P = _closest_coefficients(fam, X)
    assert _closest_coefficients(sub, X).tobytes() == np.ascontiguousarray(P[:, picked]).tobytes()
    assert (fam._layout[0], sub._layout[0]) == (7, 2)
    emb = embed_family(fam)
    assert emb._layout is not fam._layout
    assert [cols.shape[1] for _, cols in emb._layout[1]] == [4] * len(fam._layout[1])


def _kernel_block():
    """Rows of four coefficients: coincident vertices (zero-length pairs),
    the origin inside, on an edge and as a vertex, single vertices repeated
    as padding, and random rows at magnitudes from 1e-3 to 1e3."""
    rng = np.random.default_rng(47)
    rows = [
        [1 + 1j, 1 + 1j, 2 - 1j, 2 - 1j],
        [3 + 0j, 3 + 0j, 3 + 0j, 5 + 0j],
        [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j],
        [-1 - 1j, 1 + 1j, 2 - 1j, 2 - 1j],
        [0j, 1 + 1j, 1 - 1j, 1 - 1j],
        [2 - 1j] * 4,
        [0j] * 4,
        [-0.5 + 2j] * 4,
    ]
    for k in range(-3, 4):
        rows.append((rng.standard_normal(4) + 1j * rng.standard_normal(4)) * 10.0**k)
        rows.append((rng.standard_normal(4) + 1j * rng.standard_normal(4) + 3) * 10.0**k)
    return np.array(rows, dtype=complex)


def _kernel_digest(C):
    h = hashlib.sha256()
    for out in (_closest_rows(C), *_segment_closest(C)[1:]):
        h.update(repr(out.shape).encode())
        h.update(np.ascontiguousarray(out).tobytes())
    return h.hexdigest()


# sha256 of q of _closest_rows and (best, t) of _segment_closest on the
# block above and on its first column alone: width 1 recorded with the kernel's nested np.where
# form, width 4 when the diagonal pairs (i, i), i < n - 1, left the pair list
# (best and t index the pairs, so their bits follow the list)
KERNEL_DIGESTS = {
    4: "a1f0437532814b3a45437213b837e1ffded2ca1526d5b68af4ef56bc1f4d13b8",
    1: "3b0f65a4374f9f19afbbcad802ef0c45bedd49bf4fee4fa8e961ee0ab2d31d0f",
}

# sha256 of q alone on the same blocks, recorded with the pair list of every
# i <= j: leaving out the diagonal pairs moves no bit of these closest points
KERNEL_Q_DIGESTS = {
    4: "6cb0388e273f5ef026f7d2a33d47b4751ac20094a8db29bec8b07bd5738d3c45",
    1: "ceb280f7bae316d048626b933f0dfda3bda77d94c59d5474b8180b11744ce5d3",
}


@pytest.mark.parametrize("width", list(KERNEL_DIGESTS))
def test_closest_rows_keeps_recorded_bits(width):
    assert _kernel_digest(_kernel_block()[:, :width]) == KERNEL_DIGESTS[width]


@pytest.mark.parametrize("width", list(KERNEL_Q_DIGESTS))
def test_closest_rows_keeps_the_all_pairs_closest_points(width):
    q = _closest_rows(_kernel_block()[:, :width])
    assert hashlib.sha256(q.tobytes()).hexdigest() == KERNEL_Q_DIGESTS[width]



def _edge_blocks():
    """Blocks at the edges of the kernel's inside test: a NaN coordinate,
    inf coordinates (one row outside, one inside), the origin on an edge
    (the widest gap exactly pi) and as a vertex; rows that all hold the
    origin, rows that all miss it, single vertices, no rows at all, and
    rows of tied angles."""
    nan, inf = float("nan"), float("inf")
    return {
        "mixed": np.array(
            [
                [1 + 1j, complex(nan, 0.0), 2 - 1j],
                [complex(inf, 0.0), 1 + 1j, 2 + 1j],
                [complex(inf, 0.0), -1 + 1j, -1 - 1j],
                [-1 + 0j, 1 + 0j, 1 + 1j],
                [3 + 0j, 5 + 0j, 4 + 1j],
                [1 + 1j, -1 + 1j, -1 - 1j],
                [0j, 1 + 1j, 1 - 1j],
            ]
        ),
        "inside": np.array(
            [
                [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j],
                [2 + 0j, -1 + 1j, -1 - 1j, -1 - 1j],
                [1e-3 + 0j, -1e3 + 1e3j, -1e3 - 1e3j, 5j],
            ]
        ),
        "outside": np.array(
            [
                [3 + 0j, 5 + 1j, 4 - 1j, 4 - 1j],
                [1 + 1j, 1 + 1j, 2 - 1j, 2 - 1j],
                [-1e-3 + 2e-3j, -1e3 + 1e2j, -5e2 + 7e2j, -1 + 0.5j],
            ]
        ),
        "width1": np.array([[2 - 1j], [0j], [-0.5 + 2j], [1e300 + 1e300j]]),
        "empty": np.zeros((0, 4), dtype=complex),
        "ties": _tied_angle_block(),
    }


def _tied_angle_block():
    """Rows of 16 vertices whose angles tie: +0.0 and -0.0 (vertices 1 + 0j
    and 1 - 0j), +pi and -pi (-1 + 0j and -1 - 0j), repeated vertices, the
    origin as a vertex of every signed zero, and the origin on an edge
    reached through +-0.  Sort kinds may order such equal angles
    differently, and so flip the sign of a zero gap: numpy 2.4's default
    sort orders five of these rows unlike a stable sort on an AVX-512 CPU."""
    nan = float("nan")
    p0, m0 = complex(1, 0.0), complex(1, -0.0)
    return np.array(
        [
            [m0, p0] * 8,
            [p0, m0, complex(-1, 0.0), complex(-1, -0.0)] * 4,
            [complex(-1, -0.0), complex(-1, 0.0)] * 7 + [1j, 1j],
            [complex(-2, 0.0), complex(3, -0.0)] * 7 + [1 + 1j, 1 + 1j],
            [complex(-2, -0.0), complex(3, 0.0)] * 7 + [1 - 1j, 1 - 1j],
            [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)] * 4,
            [complex(nan, 0.0)] + [m0, p0] * 7 + [2 + 0j],
            [complex(2, -0.0), 2 + 0j, 3 + 1j, 3 + 1j] * 4,
        ]
    )


# sha256 of the shape and q of _closest_rows on each block above, recorded
# while the kernel still ran the segment search on every row
EDGE_Q_DIGESTS = {
    "mixed": "64852fd8c30699e86595641db3af0a0ccc5ca295850aa5ca2a52881ef0ef29b0",
    "inside": "02e3a82fba9c589e320612d610dbf27c8446c90a94427673428c213c648f44bc",
    "outside": "9e3392ff2b1657cde4dc7b84f11cc78497060bafb524d767992f0efdad1a6ac1",
    "width1": "e64fe896a3005c22dc88c8834e1d863c666c1409fa025489f30728fef11c7533",
    "empty": "91d6039a01f57163ec02db197e5481ffc170187e262006fa833b26f0cc064633",
    # recorded while the angles were sorted by numpy's default kind
    "ties": "d83d690ea13ae749cc522930acf9df188961f57168cc65162288b6573e770951",
}


@pytest.mark.parametrize("name", list(EDGE_Q_DIGESTS))
def test_closest_rows_keeps_recorded_bits_on_edge_cases(name):
    with np.errstate(invalid="ignore"):  # inf - inf on the inf rows
        q = _closest_rows(_edge_blocks()[name])
    assert hashlib.sha256(repr(q.shape).encode() + q.tobytes()).hexdigest() == EDGE_Q_DIGESTS[name]
    if name == "mixed":
        # a NaN row counts as outside and keeps its NaN, which
        # verify_transversal reads as a miss; the edge row holds the origin
        assert np.isnan(q[0]) and q[3] == 0
    if name == "ties":
        # the signed-zero ties hold the origin on an edge or as a vertex
        assert (q[[1, 3, 4, 5]] == 0).all() and np.isnan(q[6]) and (q[[0, 2, 7]] != 0).all()


def test_closest_rows_searches_segments_only_outside(monkeypatch):
    # the segment search gets exactly the rows whose angles leave a gap
    # wider than pi, in block order, and nothing on rows that hold the origin
    seen = []

    def spy(C):
        seen.append(C.copy())
        return _segment_closest(C)

    monkeypatch.setattr(geometry, "_segment_closest", spy)
    C = _kernel_block()
    ang = np.sort(np.arctan2(C.imag, C.real), axis=1)
    gap = np.maximum(np.diff(ang, axis=1).max(axis=1), 2.0 * np.pi - (ang[:, -1] - ang[:, 0]))
    outside = gap > np.pi
    assert (C.shape[0], outside.sum()) == (22, 17)
    _closest_rows(C)
    assert len(seen) == 1 and seen[0].tobytes() == C[outside].tobytes()
    seen.clear()
    assert not _closest_rows(_edge_blocks()["inside"]).any()
    assert [block.shape for block in seen] == [(0, 4)]

def _all_pairs_closest(C):
    """Reference kernel: closest points over the segments of every vertex
    pair i <= j, each vertex (i, i) a candidate of its own, with the same
    t, first-minimum and angular-gap rules."""
    i1, i2 = np.triu_indices(C.shape[1])
    A = C[:, i1]
    D = C[:, i2] - A
    dd = (D * np.conj(D)).real
    seg = dd > 0.0
    t = -(np.conj(D) * A).real / np.where(seg, dd, 1.0)
    t.clip(0.0, 1.0, out=t)
    t[~seg] = 0.0
    Q = A + t * D
    q = Q[np.arange(C.shape[0]), np.abs(Q).argmin(axis=1)]
    ang = np.arctan2(C.imag, C.real)
    ang.sort(axis=1)
    ang = ang.T.copy()
    maxgap = 2.0 * np.pi - (ang[-1] - ang[0])
    if C.shape[1] > 1:
        np.maximum((ang[1:] - ang[:-1]).max(axis=0), maxgap, out=maxgap)
    q[maxgap <= np.pi] = 0.0
    return q


def test_closest_rows_matches_the_all_pairs_reference():
    # rows of 1 to 8 vertices at magnitudes from 1e-6 to 1e6 in one row, some
    # rows with exact zeros of either sign (0j vertices among them), some
    # vertices repeated (coincident, or padding at the end): |q| is the
    # reference's on every row and q its bits wherever no coordinate is an
    # exact zero (there only the sign of a zero or a last bit at equal
    # modulus may move), and a nonzero q is the point of the pair the kernel
    # names, A + t D, bit for bit.  The values come from a drawn seed, so
    # the segments that end at a row's closest vertex rarely land on it
    # exactly; hypothesis draws the zeros and the repeats.
    pytest.importorskip("hypothesis")
    from hypothesis import given
    from hypothesis import strategies as st

    @given(data=st.data())
    def check(data):
        n = data.draw(st.integers(1, 8))
        m = data.draw(st.integers(1, 16))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        parts = rng.standard_normal((m, 2 * n)) * 10.0 ** rng.integers(-6, 7, (m, 2 * n))
        zero = st.sampled_from([None, 0.0, -0.0])  # None keeps the drawn part
        index = st.integers(0, n - 1)
        rows = []
        for part in parts:
            if data.draw(st.booleans()):
                zeros = data.draw(st.lists(zero, min_size=2 * n, max_size=2 * n))
                part = [p if z is None else z for p, z in zip(part, zeros)]
            row = [complex(x, y) for x, y in zip(part[::2], part[1::2])]
            for i, j in data.draw(st.lists(st.tuples(index, index), max_size=3)):
                row[j] = row[i]
            pad = data.draw(st.integers(0, n - 1))
            rows.append(row[: n - pad] + [row[n - pad - 1]] * pad)
        C = np.array(rows, dtype=complex)
        q = _closest_rows(C)
        _, best, t = _segment_closest(C)
        want = _all_pairs_closest(C)
        assert np.abs(q).tobytes() == np.abs(want).tobytes()
        plain = ((C.real != 0.0) & (C.imag != 0.0)).all(axis=1)
        assert q[plain].tobytes() == want[plain].tobytes()
        i1, i2 = _vertex_pairs(n)
        r = np.arange(m)
        A = C[r, i1[best]]
        point = A + t[r, best] * (C[r, i2[best]] - A)
        moved = q != 0
        assert point[moved].tobytes() == q[moved].tobytes()

    check()


# -- hyperplane recovery -----------------------------------------------------


def test_pole_rejected():
    with pytest.raises(PoleError):
        hyperplane_from_sphere_point(SpherePoint(np.array([0, 0, 1], dtype=complex)))
    near = SpherePoint.normalized(np.array([1e-10, 0, 1], dtype=complex))
    with pytest.raises(PoleError):
        hyperplane_from_sphere_point(near)


def test_axis_complement():
    x = SpherePoint(np.array([1, 0, 0], dtype=complex))
    h = hyperplane_from_sphere_point(x)
    assert np.allclose(h.normal, [1, 0])
    assert h.offset == 0
    assert h.residual([0, 5 + 2j]) == pytest.approx(0.0)


def test_recovered_hyperplane_substitutes_back():
    rng = np.random.default_rng(10)
    for _ in range(100):
        x = _random_sphere_point(rng, 4)
        try:
            h = hyperplane_from_sphere_point(x)
        except PoleError:
            continue
        assert np.linalg.norm(h.normal) == pytest.approx(1.0, abs=1e-12)
        # points on the hyperplane: offset point plus Hermitian-orthogonal moves
        z0 = h.offset * h.normal
        for _ in range(3):
            w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            w = w - hermitian_inner(w, h.normal) * h.normal
            z = z0 + w
            assert h.residual(z) < 1e-10
            z_h = embed_polytope(Polytope("complex", [z])).vertices[0]
            assert abs(hermitian_inner(z_h, x.coords)) < 1e-10


def test_hyperplane_membership_iff_embedded_orthogonal():
    rng = np.random.default_rng(12)
    x = _random_sphere_point(rng, 3)
    h = hyperplane_from_sphere_point(x)
    z_on = h.offset * h.normal
    z_off = z_on + h.normal  # move along the normal leaves the plane
    on_h, off_h = embed_polytope(Polytope("complex", [z_on, z_off])).vertices
    assert abs(hermitian_inner(on_h, x.coords)) < 1e-10
    assert abs(hermitian_inner(off_h, x.coords)) > 1e-3
    assert h.residual(z_off) > 1e-3


def test_unit_normal_enforced():
    with pytest.raises(ValueError):
        ComplexHyperplane(np.array([2.0 + 0j]), 0.0)
