"""Geometry behavior: inner product convention, embedding, line projection,
closest coefficients, and hyperplane recovery, checked against independent
oracles and the variational/antipodal/continuity properties."""

from __future__ import annotations

import numpy as np
import pytest

from tvlab.geometry import (
    ComplexHyperplane,
    Family,
    PoleError,
    Polytope,
    SpherePoint,
    _closest_rows,
    complex_to_real,
    embed_family,
    embed_polytope,
    hermitian_inner,
    hyperplane_from_sphere_point,
    real_to_complex,
)
from tvlab.transversal import _PolygonBatch


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
# projection off _PolygonBatch.closest_all.


def _vertex_sets(v) -> Family:
    """One single-vertex set per row of v."""
    return Family(tuple(f"v{i}" for i in range(len(v))),
                  tuple(Polytope("complex", row[None, :]) for row in v))


def test_project_axis_direction():
    x = SpherePoint(np.array([1, 0, 0], dtype=complex))
    f = np.array([[3, 0, 1], [5, 0, 1]], dtype=complex)
    coeffs = _PolygonBatch(_vertex_sets(f)).closest_all(x.coords[None, :])[0]
    assert sorted(coeffs, key=lambda c: c.real) == [3, 5]


def test_project_last_axis_gives_ones():
    x = SpherePoint(np.array([0, 0, 1], dtype=complex))
    rng = np.random.default_rng(4)
    v = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    f = embed_polytope(Polytope("complex", v))
    coeffs = _PolygonBatch(_vertex_sets(f.vertices)).closest_all(x.coords[None, :])[0]
    assert all(c == pytest.approx(1.0) for c in coeffs)


def test_project_matches_inner_product_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = _random_sphere_point(rng, 3)
        v = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        coeffs = _PolygonBatch(_vertex_sets(v)).closest_all(x.coords[None, :])[0]
        for row, c in zip(v, coeffs):
            assert c == pytest.approx(_inner_oracle(row, x.coords), abs=1e-12)


def test_project_dimension_mismatch():
    x = SpherePoint(np.array([1, 0], dtype=complex))
    f = Family(("F",), (Polytope("complex", np.array([[1, 2, 3]], dtype=complex)),))
    with pytest.raises(ValueError):
        _PolygonBatch(f).closest_all(x.coords[None, :])


# -- closest coefficients ------------------------------------------------------


def test_closest_real_segment():
    assert _closest_rows(np.array([[3 + 0j, 5 + 0j]]))[0][0] == 3


def test_closest_origin_inside():
    square = (1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j)
    assert _closest_rows(np.array([square]))[0][0] == 0


def test_closest_vertical_segment():
    got = _closest_rows(np.array([[1 + 1j, 1 - 1j]]))[0][0]
    assert got == pytest.approx(1.0)
    assert got == pytest.approx(_segment_closest_oracle((1, 1), (1, -1)))


def test_closest_singleton_and_degenerate():
    assert _closest_rows(np.array([[2 - 1j]]))[0][0] == 2 - 1j
    assert _closest_rows(np.array([[2 - 1j, 2 - 1j, 2 - 1j]]))[0][0] == 2 - 1j
    assert _closest_rows(np.array([[1 + 0j, 3 + 0j, 2 + 0j]]))[0][0] == 1


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
        q = _closest_rows(pts[None, :])[0]
        got = q[0]
        assert _closest_rows(padded[None, :])[0].tobytes() == q.tobytes()
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
        q = _closest_rows(pts[None, :])[0][0]
        for c in pts:
            assert (np.conj(q) * c).real >= abs(q) ** 2 - 1e-9


def test_antipodal_flip():
    rng = np.random.default_rng(8)
    for _ in range(100):
        x = _random_sphere_point(rng, 3)
        v = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        f = Family(("F",), (Polytope("complex", v),))
        p_pos, p_neg = _PolygonBatch(f).closest_all(np.array([x.coords, (-x).coords]))[:, 0]
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
        p_x, p_y = _PolygonBatch(f).closest_all(np.array([x.coords, y.coords]))[:, 0]
        assert abs(p_y - p_x) <= bound * step + 1e-12


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
