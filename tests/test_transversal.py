"""Transversal search: real direction sweep, complex direction search with
LP offset recovery, the odd sphere map, its zero finder, and verification."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from tvlab.consistency import NoLift, lift_dependence
from tvlab.geometry import (
    ComplexHyperplane,
    Family,
    Polytope,
    SpherePoint,
    embed_family,
    hermitian_inner,
    hyperplane_from_sphere_point,
)
from tvlab.harness import GenSpec, gen_instance, witness_from_transversal
from tvlab.transversal import (
    NotFound,
    RealHyperplane,
    TransversalConfig,
    _borsuk_values,
    _PolygonBatch,
    borsuk_map,
    borsuk_zero_dependence,
    complex_transversal_for_normal,
    find_borsuk_zero,
    find_complex_transversal,
    polygon_intersection_margin,
    real_hyperplane_transversal,
    verify_transversal,
)

SMALL = TransversalConfig(starts=8, iters=400, seed=1)


def _family(ambient, *vertex_lists):
    polys = tuple(Polytope(ambient, np.asarray(v)) for v in vertex_lists)
    return Family(tuple(f"S{i}" for i in range(len(polys))), polys)


def _real_feasible(family, result, tol=1e-9):
    # offset must land inside every set's projection interval
    for _, poly in family:
        pr = poly.vertices @ result.normal
        if not (pr.min() - tol <= result.offset <= pr.max() + tol):
            return False
    return True


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _planted_family(rng, d=2, n_sets=4, verts=4):
    """Random boxes in C^d, each with one extra vertex projected onto a
    random planted hyperplane; returns (family, hyperplane, planted points)."""
    a = _random_complex(rng, d)
    a = a / np.linalg.norm(a)
    b = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
    sets, plants = [], []
    for _ in range(n_sets):
        V = rng.uniform(-1, 1, (verts, d)) + 1j * rng.uniform(-1, 1, (verts, d))
        z0 = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
        z = z0 - (hermitian_inner(z0, a) - b) * a
        sets.append(np.vstack([V, z[None, :]]))
        plants.append(z)
    fam = _family("complex", *sets)
    return fam, ComplexHyperplane(a, b), plants


def _planted_phi(T, plants):
    """Witness targets phi(F) = coordinates of each planted point in a
    Hermitian-orthonormal basis of the hyperplane's direction space (d=2)."""
    a, b = T.normal, T.offset
    z0 = b * a
    e = np.array([-np.conj(a[1]), np.conj(a[0])])
    e = e / np.linalg.norm(e)
    return np.array([[hermitian_inner(z - z0, e)] for z in plants])


# -- real direction sweep --------------------------------------------------------


def test_real_common_point_succeeds():
    fam = _family(
        "real", [[0.0, 0.0], [2.0, 2.0]], [[1.0, 1.0]], [[0.0, 2.0], [2.0, 0.0]]
    )
    res = real_hyperplane_transversal(fam)
    assert isinstance(res, RealHyperplane)
    assert _real_feasible(fam, res)


def test_real_d1_exact_interval_stabbing():
    fam = _family("real", [[0.0], [1.0]], [[0.5], [2.0]])
    res = real_hyperplane_transversal(fam)
    assert isinstance(res, RealHyperplane)
    assert 0.5 - 1e-9 <= res.offset <= 1.0 + 1e-9

    disjoint = _family("real", [[0.0], [1.0]], [[2.0], [3.0]])
    res = real_hyperplane_transversal(disjoint)
    assert isinstance(res, NotFound)
    assert res.exhaustive
    assert res.best < 0


def test_real_d2_noncollinear_points_exhausted():
    # a line through three points in the plane needs them collinear
    fam = _family("real", [[0.0, 0.0]], [[2.0, 0.0]], [[1.0, 2.0]])
    res = real_hyperplane_transversal(fam)
    assert isinstance(res, NotFound)
    assert res.exhaustive
    assert res.best < -1e-3
    assert "grid" in res.note


def test_real_d2_planted_lines_found():
    rng = np.random.default_rng(11)
    for _ in range(25):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        t = rng.uniform(-0.5, 0.5)
        sets = []
        for _ in range(rng.integers(3, 6)):
            # a segment crossing the planted line {p . u = t}
            q = rng.uniform(-1, 1, 2)
            q = q + (t - q @ u) * u
            v = rng.standard_normal(2)
            sets.append([q - v, q + v])
        fam = _family("real", *sets)
        res = real_hyperplane_transversal(fam)
        assert isinstance(res, RealHyperplane)
        assert _real_feasible(fam, res)


def test_real_d3_multistart():
    fam = _family(
        "real",
        [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
        [[0.5, 0.5, 0.5]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
    )
    res = real_hyperplane_transversal(fam, SMALL)
    assert isinstance(res, RealHyperplane)
    assert _real_feasible(fam, res)


def test_real_rejects_complex_ambient():
    fam = _family("complex", [[0j, 0j]])
    with pytest.raises(ValueError):
        real_hyperplane_transversal(fam)


# -- offset recovery for a fixed normal -------------------------------------------


def test_offset_forced_by_singleton():
    fam = _family(
        "complex",
        [[7 + 0j, 0j], [8 + 0j, 1j]],
        [[7 + 0j, 5j]],
        [[6 + 0j, 0j], [7 + 0j, 1 + 1j]],
    )
    b = complex_transversal_for_normal(np.array([1.0 + 0j, 0j]), fam)
    assert not isinstance(b, NotFound)
    assert abs(b - 7) < 1e-9


def test_offset_disjoint_projections_exhausted():
    fam = _family("complex", [[0j]], [[1 + 0j]])
    res = complex_transversal_for_normal(np.array([1.0 + 0j]), fam)
    assert isinstance(res, NotFound)
    assert res.exhaustive


def test_offset_unique_crossing_recovered():
    # two segments whose projections cross only at bstar
    bstar = 0.3 - 0.2j
    fam = _family(
        "complex",
        [[bstar - 0.5, 0j], [bstar + 0.5, 0j]],
        [[bstar - 0.5j, 1 + 0j], [bstar + 0.5j, 1 + 0j]],
    )
    b = complex_transversal_for_normal(np.array([1.0 + 0j, 0j]), fam)
    assert abs(b - bstar) < 1e-9


def test_offset_feasible_on_random_families():
    rng = np.random.default_rng(5)
    found = 0
    for _ in range(60):
        d = int(rng.integers(1, 4))
        a = _random_complex(rng, d)
        a /= np.linalg.norm(a)
        fam = _family(
            "complex", *[_random_complex(rng, (4, d)) for _ in range(3)]
        )
        b = complex_transversal_for_normal(a, fam)
        if isinstance(b, NotFound):
            continue
        found += 1
        T = ComplexHyperplane(a, b)
        assert verify_transversal(T, fam, tol=1e-7).passed
    assert found > 10


# -- intersection margin -----------------------------------------------------------


def test_margin_frozen_values():
    # disjoint unit-separated singletons: shrink defect is half the gap
    fam = _family("complex", [[0j]], [[1 + 0j]])
    m = polygon_intersection_margin(np.array([1.0 + 0j]), fam)
    assert abs(m - (-0.5)) < 1e-9

    # square of radius 1 against square of radius 1/2: margin is the
    # inradius of the smaller square, 0.5/sqrt(2)
    fam = _family(
        "complex",
        [[-1 + 0j], [1 + 0j], [1j], [-1j]],
        [[-0.5 + 0j], [0.5 + 0j], [0.5j], [-0.5j]],
    )
    m = polygon_intersection_margin(np.array([1.0 + 0j]), fam)
    assert abs(m - 0.5 / np.sqrt(2)) < 1e-9


def test_margin_sign_agrees_with_offset_recovery():
    rng = np.random.default_rng(17)
    for _ in range(80):
        d = int(rng.integers(1, 3))
        a = _random_complex(rng, d)
        a /= np.linalg.norm(a)
        fam = _family(
            "complex",
            *[_random_complex(rng, (int(rng.integers(1, 5)), d)) for _ in range(3)],
        )
        m = polygon_intersection_margin(a, fam)
        b = complex_transversal_for_normal(a, fam)
        if m >= 1e-9:
            assert not isinstance(b, NotFound)
        if m < -1e-9:
            assert isinstance(b, NotFound)


# -- complex direction search ------------------------------------------------------


def test_complex_search_common_point():
    fam = _family(
        "complex",
        [[0j, 0j], [1 + 1j, 2j]],
        [[0j, 0j], [-1j, 3 + 0j]],
        [[0j, 0j]],
    )
    res = find_complex_transversal(fam, SMALL)
    assert isinstance(res, ComplexHyperplane)
    assert verify_transversal(res, fam, tol=1e-6).passed


def test_complex_search_planted_corpus():
    cfg = TransversalConfig(starts=32, iters=2000, seed=1)
    for i in range(20):
        fam, _, _ = _planted_family(np.random.default_rng(300 + i))
        res = find_complex_transversal(fam, cfg)
        assert isinstance(res, ComplexHyperplane), f"instance {i}"
        assert verify_transversal(res, fam, tol=1e-6).passed, f"instance {i}"


def test_complex_search_d1_empty_triple_intersection():
    # pairwise intersecting planar triangle sides with empty triple
    # intersection: in d=1 a transversal is a common point, so exhaustive
    fam = _family(
        "complex", [[0j], [2 + 0j]], [[0j], [1 + 2j]], [[2 + 0j], [1 + 2j]]
    )
    res = find_complex_transversal(fam)
    assert isinstance(res, NotFound)
    assert res.exhaustive
    assert res.best < -1e-3


def test_complex_search_canonical_phase():
    fam, _, _ = _planted_family(np.random.default_rng(77))
    res = find_complex_transversal(fam, TransversalConfig(starts=32, iters=2000, seed=2))
    assert isinstance(res, ComplexHyperplane)
    lead = next(v for v in res.normal if abs(v) > 1e-9)
    assert abs(lead.imag) < 1e-12
    assert lead.real > 0


# -- the odd map -------------------------------------------------------------------


def test_borsuk_map_hand_value():
    fam = _family("complex", [[3 + 0j, 0j, 1 + 0j], [5 + 0j, 0j, 1 + 0j]])
    x = SpherePoint(np.array([1, 0, 0], dtype=complex))
    w = 2.5 - 1.25j
    ev = borsuk_map(x, fam, np.array([[w]]))
    assert np.allclose(ev.value, [3, 3 * w])
    assert abs(ev.norm - np.hypot(3, abs(3 * w))) < 1e-12


def test_borsuk_map_zero_when_all_polygons_cover_origin():
    fam = _family(
        "complex",
        [[1 + 0j, 0j, 1 + 0j], [-1 + 0j, 0j, 1 + 0j]],
        [[2j, 0j, 1 + 0j], [-2j, 0j, 1 + 0j]],
    )
    # direction reading the first coordinate: both coefficient segments
    # straddle the origin
    x = SpherePoint(np.array([1, 0, 0], dtype=complex))
    ev = borsuk_map(x, fam, np.array([[1 + 2j], [3 - 1j]]))
    assert ev.norm == 0.0


def test_borsuk_map_oddness():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(400):
        d = int(rng.integers(1, 4))
        n_sets = int(rng.integers(1, 5))
        fam = _family(
            "complex", *[_random_complex(rng, (4, d + 1)) for _ in range(n_sets)]
        )
        phi = _random_complex(rng, (n_sets, d - 1))
        x = SpherePoint.normalized(_random_complex(rng, d + 1))
        fx = borsuk_map(x, fam, phi).value
        fmx = borsuk_map(SpherePoint(-x.coords), fam, phi).value
        worst = max(worst, float(np.linalg.norm(fx + fmx)))
    assert worst <= 1e-10


def test_borsuk_map_acute_angle_inequality():
    # the closest coefficient p satisfies Re(conj(p) c) >= |p|^2 for every
    # coefficient c of the polygon; checking vertices suffices by linearity
    rng = np.random.default_rng(19)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        fam = _family("complex", *[_random_complex(rng, (5, d + 1)) for _ in range(3)])
        phi = _random_complex(rng, (3, d - 1))
        x = SpherePoint.normalized(_random_complex(rng, d + 1))
        ev = borsuk_map(x, fam, phi)
        for (label, p), (_, poly) in zip(ev.coefficients, fam):
            if abs(p) == 0.0:
                continue
            coeffs = poly.vertices @ np.conj(x.coords)
            assert np.all(
                (np.conj(p) * coeffs).real >= abs(p) ** 2 - 1e-9
            ), label


def test_borsuk_map_batch_agreement():
    rng = np.random.default_rng(23)
    # sets of unequal size, so the batch pads them to one block
    fam = _family("complex", *[_random_complex(rng, (n, 3)) for n in (4, 2, 5, 1)])
    phi = _random_complex(rng, (4, 1))
    X = _random_complex(rng, (16, 3))
    X /= np.linalg.norm(X, axis=1)[:, None]
    V = _borsuk_values(_PolygonBatch(fam).closest_all(X), phi)
    for i in range(X.shape[0]):
        # both share the closest-point kernel, so check both on the oracle
        p = np.array([_closest_oracle(poly.vertices @ np.conj(X[i])) for poly in fam.sets])
        f = np.concatenate([[p.sum()], np.conj(p) @ phi])
        ev = borsuk_map(SpherePoint(X[i]), fam, phi)
        assert np.linalg.norm(ev.value - f) < 1e-12
        assert np.linalg.norm(V[i] - f) < 1e-12


def test_borsuk_map_rejects_mismatched_shapes():
    fam = _family("complex", [[0j, 0j, 1 + 0j]])
    x = SpherePoint(np.array([1, 0, 0], dtype=complex))
    with pytest.raises(ValueError):
        borsuk_map(x, fam, np.zeros((2, 1), dtype=complex))
    with pytest.raises(ValueError):
        borsuk_map(SpherePoint(np.array([1, 0], dtype=complex)), fam, np.zeros((1, 1)))


def test_borsuk_route_rejects_images_of_the_wrong_width():
    # a planted d=2 family takes images in C^1: images in C^3 are refused by
    # the map, the zero search and the dependence read off a zero alike
    fam, T, plants = _planted_family(np.random.default_rng(42))
    emb = embed_family(fam)
    phi = np.zeros((4, 3), dtype=complex)
    x = SpherePoint.normalized(np.array([1, 1j, 0.5], dtype=complex))
    for call in (
        lambda: borsuk_map(x, emb, phi),
        lambda: find_borsuk_zero(emb, phi, TransversalConfig(starts=1, iters=20)),
        lambda: borsuk_zero_dependence(x, emb, phi),
    ):
        with pytest.raises(ValueError, match="C\\^1"):
            call()


# -- zero finding ------------------------------------------------------------------


def test_find_borsuk_zero_planted():
    cfg = TransversalConfig(starts=32, iters=2000, seed=3)
    for i in range(10):
        fam, T, plants = _planted_family(np.random.default_rng(800 + i))
        emb = embed_family(fam)
        phi = _planted_phi(T, plants)
        x = find_borsuk_zero(emb, phi, cfg)
        assert isinstance(x, SpherePoint), f"instance {i}"
        assert borsuk_map(x, emb, phi).norm <= 1e-6
        H = hyperplane_from_sphere_point(x)
        assert verify_transversal(H, fam, tol=1e-4).passed, f"instance {i}"
        # cross-validation with the direction search
        res = find_complex_transversal(fam, cfg)
        assert isinstance(res, ComplexHyperplane), f"instance {i}"
        assert verify_transversal(res, fam, tol=1e-6).passed, f"instance {i}"


def test_find_borsuk_zero_budget_notfound():
    rng = np.random.default_rng(31)
    fam = _family("complex", *[_random_complex(rng, (4, 3)) for _ in range(4)])
    phi = _random_complex(rng, (4, 1))
    res = find_borsuk_zero(fam, phi, TransversalConfig(starts=1, iters=2, seed=0))
    if isinstance(res, NotFound):
        assert res.best > 0
        assert np.isfinite(res.best)
    else:
        # a two-step search can still land on a zero; it must then be real
        assert borsuk_map(res, fam, phi).norm <= 1e-6


def test_find_borsuk_zero_antipodal_same_hyperplane():
    fam, T, plants = _planted_family(np.random.default_rng(42))
    emb = embed_family(fam)
    phi = _planted_phi(T, plants)
    x = find_borsuk_zero(emb, phi, TransversalConfig(starts=16, iters=1500, seed=5))
    assert isinstance(x, SpherePoint)
    H1 = hyperplane_from_sphere_point(x)
    H2 = hyperplane_from_sphere_point(SpherePoint(-x.coords))
    assert np.allclose(
        H1.offset * H1.normal, H2.offset * H2.normal, atol=1e-12
    )
    assert abs(abs(hermitian_inner(H1.normal, H2.normal)) - 1.0) < 1e-12


def test_find_borsuk_zero_excludes_pole():
    # family whose only projected common point sits away from zero keeps
    # any accepted x off the pole by the guard check inside the finder
    cfg = TransversalConfig(starts=16, iters=1200, seed=9)
    fam, T, plants = _planted_family(np.random.default_rng(101))
    emb = embed_family(fam)
    x = find_borsuk_zero(emb, _planted_phi(T, plants), cfg)
    assert isinstance(x, SpherePoint)
    assert float(np.linalg.norm(x.coords[:-1])) >= 1e-9


def test_zero_dependence_soundness_chain():
    # three generic points and a constant witness: not every hyperplane
    # through the claimed structure exists, so a zero can fail verification;
    # the extracted dependence must then have no nonnegative lift
    rng = np.random.default_rng(9)
    pts = [_random_complex(rng, 2) for _ in range(3)]
    fam = _family("complex", [pts[0]], [pts[1]], [pts[2]])
    emb = embed_family(fam)
    phi = np.zeros((3, 1), dtype=complex)
    x = find_borsuk_zero(emb, phi, TransversalConfig(starts=32, iters=2000, seed=3))
    assert isinstance(x, SpherePoint)
    H = hyperplane_from_sphere_point(x)
    rep = verify_transversal(H, fam, tol=1e-4)
    assert not rep.passed
    dep = borsuk_zero_dependence(x, emb, phi)
    assert dep is not None
    assert dep.origin == "borsuk-zero"
    s0 = abs(sum(dep.coeffs))
    assert s0 <= 1e-5
    lift = lift_dependence(fam, dep)
    assert isinstance(lift, NoLift)
    assert lift.exact


def test_zero_dependence_none_at_honest_zero():
    fam = _family(
        "complex",
        [[1 + 0j, 0j, 1 + 0j], [-1 + 0j, 0j, 1 + 0j]],
        [[2j, 0j, 1 + 0j], [-2j, 0j, 1 + 0j]],
    )
    x = SpherePoint(np.array([1, 0, 0], dtype=complex))
    assert borsuk_zero_dependence(x, fam, np.zeros((2, 1))) is None


# -- verification ------------------------------------------------------------------


def test_verify_planted_distances_tiny():
    fam, T, _ = _planted_family(np.random.default_rng(55))
    rep = verify_transversal(T, fam, tol=1e-9)
    assert rep.passed
    assert rep.max_distance <= 1e-9


def test_verify_offset_shift_moves_singletons_by_delta():
    a = np.array([1.0 + 0j, 0j])
    b = 0.25 + 0.5j
    # singleton sets sitting exactly on the hyperplane
    fam = _family("complex", [[b, 3 + 1j]], [[b, -2j]])
    delta = 0.125 - 0.0625j
    shifted = ComplexHyperplane(a, b + delta)
    rep = verify_transversal(shifted, fam, tol=1e-9)
    assert not rep.passed
    for _, dist in rep.distances:
        assert abs(dist - abs(delta)) < 1e-12


def _in_some_triangle(c):
    """Membership of 0 in the convex hull of complex coefficients, by
    barycentric coordinates over all vertex triples (with doubles and
    singles as degenerate triples)."""
    pts = [(z.real, z.imag) for z in c]
    n = len(pts)
    idx = range(n)
    from itertools import combinations_with_replacement

    for i, j, k in combinations_with_replacement(idx, 3):
        (x1, y1), (x2, y2), (x3, y3) = pts[i], pts[j], pts[k]
        det = (x1 - x3) * (y2 - y3) - (x2 - x3) * (y1 - y3)
        if abs(det) < 1e-14:
            continue
        l1 = ((0 - x3) * (y2 - y3) - (x2 - x3) * (0 - y3)) / det
        l2 = ((x1 - x3) * (0 - y3) - (0 - x3) * (y1 - y3)) / det
        l3 = 1.0 - l1 - l2
        if min(l1, l2, l3) >= -1e-12:
            return True
    return False


def _closest_oracle(c):
    """Brute force: 0 when the origin is in the hull of the coefficients c,
    otherwise the nearest point over all vertex-pair segments."""
    if _in_some_triangle(c):
        return 0j

    def nearest(a, b):
        dd = abs(b - a) ** 2
        t = 0.0 if dd == 0.0 else min(1.0, max(0.0, -(np.conj(b - a) * a).real / dd))
        return a + t * (b - a)

    return min((nearest(a, b) for a in c for b in c), key=abs)


def test_verify_matches_dense_sampling_oracle():
    rng = np.random.default_rng(63)
    t = np.linspace(0.0, 1.0, 2001)
    for _ in range(10):
        d = int(rng.integers(1, 3))
        a = _random_complex(rng, d)
        a /= np.linalg.norm(a)
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        T = ComplexHyperplane(a, b)
        verts = _random_complex(rng, (int(rng.integers(1, 5)), d))
        fam = _family("complex", verts)
        rep = verify_transversal(T, fam, tol=1e-6)
        c = verts @ np.conj(a) - b
        if _in_some_triangle(c):
            oracle = 0.0
        else:
            # closest point lies on the hull boundary, covered by the
            # vertex-pair segment grid
            oracle = min(
                float(np.min(np.abs(c[i] + (c[j] - c[i]) * t)))
                for i in range(len(c))
                for j in range(i, len(c))
            )
        got = rep.distances[0][1]
        assert abs(got - oracle) < 5e-3


def test_verify_inside_test_has_no_slack():
    # a segment 5e-5 beside the offset, spanning +-1e8 i: seen from the
    # offset its vertices leave a gap only 1e-12 wider than pi, and the
    # segment still misses the hyperplane by 5e-5
    fam = _family("complex", [[5e-5 + 1e8j, 1j], [5e-5 - 1e8j, 2 + 0j]])
    rep = verify_transversal(ComplexHyperplane(np.array([1 + 0j, 0j]), 0j), fam, tol=1e-6)
    assert rep.max_distance == pytest.approx(5e-5, rel=1e-9)
    assert not rep.passed


def test_verify_rejects_mismatches():
    fam = _family("real", [[0.0, 0.0]])
    T = ComplexHyperplane(np.array([1.0 + 0j, 0j]), 0j)
    with pytest.raises(ValueError):
        verify_transversal(T, fam)


# -- recorded bits of the searches ----------------------------------------------


def _search_case(d, n_sets, planted, seed):
    """A generated family with a witness: the planted transversal's frame
    for planted families, seeded Gaussian targets in C^{d-1} otherwise.
    n_sets = 0 joins sets of 2 and 5 vertices (a planted one of 4 plus its
    on-hyperplane vertex), so the searches see mixed vertex counts."""
    if n_sets == 0:
        small = gen_instance(GenSpec(d=d, n_sets=3, vertices_per_set=2, seed=seed))
        big = gen_instance(GenSpec(d=d, n_sets=3, planted=True, seed=seed + 1))
        sets = small.family.sets + big.family.sets
        fam = Family(tuple(f"S{i}" for i in range(len(sets))), sets)
    else:
        inst = gen_instance(GenSpec(d=d, n_sets=n_sets, planted=planted, seed=seed))
        fam = inst.family
        if planted:
            return fam, witness_from_transversal(inst, inst.planted)
    rng = np.random.default_rng([seed, 1])
    return fam, _random_complex(rng, (len(fam.sets), d - 1))


def _search_digest(results):
    h = hashlib.sha256()
    for res in results:
        h.update(type(res).__name__.encode())
        if isinstance(res, NotFound):
            h.update(f"{res.best.hex()};".encode())
            h.update(b"-" if res.x is None else np.asarray(res.x).tobytes())
        elif isinstance(res, ComplexHyperplane):
            h.update(res.normal.tobytes())
            h.update(f"{res.offset.real.hex()},{res.offset.imag.hex()};".encode())
        else:
            h.update(res.coords.tobytes())
    return h.hexdigest()


# sha256 over the hyperplane, sphere-point or NotFound (best, x) bits of the
# direction search and the zero finder on seeded families at a small budget,
# recorded when closest_all still projected each set in its own product
SEARCH_DIGESTS = {
    (2, 4, True, 3): "97602e3e2233dce7de0ff0f94581fb03a3b4b5d074db1ea826eb6178429fb1d3",
    (2, 9, False, 31): "7c1f15b199a818641eb6fa534c7e26e7ae983794d39eff25faba3650ebfa5b16",
    (2, 10, False, 7): "481864aedaf43a57a44474416da00b3f26d886044e90f037e846a403258226a8",
    (2, 0, False, 12): "3cf61ddbfe8f0639be7e30146b0c47a15a849c37f5f5f86535f600ac3f07ebaf",
    (3, 5, True, 5): "5080a2d6f3db52098614d8afe1d1b1b1dd869c8a906b1eefaa264e76a16f71de",
    (3, 6, False, 8): "54101016811b7791776754bbda4d2337f3679ad8d775457c46da3724289b42d0",
}


@pytest.mark.parametrize("case", list(SEARCH_DIGESTS), ids=str)
def test_searches_keep_recorded_bits(case):
    fam, phi = _search_case(*case)
    cfg = TransversalConfig(starts=2, iters=100, seed=case[-1])
    direction = find_complex_transversal(fam, cfg)
    zero = find_borsuk_zero(embed_family(fam), phi, cfg)
    assert _search_digest([direction, zero]) == SEARCH_DIGESTS[case]
