"""Transversal search: real hyperplanes through d vertices, complex
direction search with LP offset recovery, the odd sphere map, its zero
finder, and verification."""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

import tvlab.transversal as transversal
from tvlab._exact import integers
from tvlab.consistency import (
    ConsistencyWitness,
    NoLift,
    lift_dependence,
    separates_consistently,
)
from tvlab.geometry import (
    ComplexHyperplane,
    Family,
    Polytope,
    SpherePoint,
    _closest_coefficients,
    _closest_rows,
    complex_to_real,
    embed_family,
    hermitian_inner,
    hyperplane_from_sphere_point,
)
from tvlab.harness import GenSpec, gen_instance, witness_from_transversal
from tvlab.lp import LinearProgram, lp_feasible
from tvlab.transversal import (
    STEP_DECAY,
    STEP_INIT,
    NotFound,
    RealHyperplane,
    TransversalConfig,
    VerificationReport,
    _borsuk_values,
    _normals,
    _signs,
    _unit_scaled,
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


# -- real hyperplanes through d vertices -----------------------------------------


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
    assert res.note == "3 vertex-pair lines decided exactly"


def _counterexample():
    """ROADMAP item 16's four segments: the line through +-e meets them all
    with margin 1e-5, but its normals fall between two angles of a grid of
    10,000, and the vertical normal, on the grid, misses by 2 delta."""
    delta, c, alpha = 1e-8, 1e-5, np.pi / 20000
    e = np.array([np.cos(alpha), np.sin(alpha)])
    n = np.array([-np.sin(alpha), np.cos(alpha)])
    return _family("real", [-e, [-delta, 1.0]], [e, [delta, 1.0]],
                   [-e + c * n, [0.0, -1.0]], [e + c * n, [0.0, -1.0]])


def _triangles(seed):
    rng = np.random.default_rng(seed)
    return _family("real", *(2 * rng.uniform(-1, 1, 2) + 0.6 * rng.standard_normal((3, 2))
                             for _ in range(3 + seed % 2)))


def _weak_orderings(n):
    """Each weak ordering of n sets once up to mirror, as ranks 0 .. top."""
    for r in itertools.product(range(n), repeat=n):
        top = max(r)
        if set(r) == set(range(top + 1)) and r <= tuple(top - x for x in r):
            yield r


def test_real_d2_finds_the_line_between_grid_angles():
    fam = _counterexample()
    res = real_hyperplane_transversal(fam)
    assert isinstance(res, RealHyperplane)
    assert verify_transversal(res, fam).passed


def test_real_d2_line_exists_iff_some_weak_ordering_separates_consistently():
    # Goodman-Pollack-Wenger at d = 2: a line meets every set iff a witness on
    # a line, a weak ordering of the sets, passes separates_consistently
    found = 0
    for fam in [_triangles(seed) for seed in range(30)] + [_counterexample()]:
        line = isinstance(real_hyperplane_transversal(fam), RealHyperplane)
        ordered = any(
            separates_consistently(fam, ConsistencyWitness(
                1, np.array(r, dtype=float)[:, None], dict(zip(fam.labels, range(len(r))))
            )).passed
            for r in _weak_orderings(len(fam))
        )
        assert line == ordered
        found += line
    assert 10 <= found <= 21  # both answers are tested


@pytest.mark.parametrize("sets", [
    [[[1.5, -2.0]], [[1.5, -2.0]], [[1.5, -2.0], [1.5, -2.0]]],  # one point
    [[[0.0, 0.0]], [[1.0, 3.0]], [[2.0, 6.0], [5.0, 15.0]], [[-3.0, -9.0]]],  # collinear
    [[[0.0, 0.0], [1.0, 0.0], [0.3, 0.7]]],  # a single set
    [[[0.5]], [[0.5], [0.5]]],
    [[[0.0], [1.0]], [[0.5]], [[0.25], [3.0]]],
    [[[0.0], [1.0], [0.3]]],
    [[[1.5, -2.0, 3.0]], [[1.5, -2.0, 3.0]]],
    [[[0.0, 0.0, 0.0]], [[1.0, 2.0, 3.0]], [[2.0, 4.0, 6.0], [-1.0, -2.0, -3.0]]],
    [[[0.0, 0.0, 2.0]], [[1.0, 5.0, 2.0]], [[3.0, -1.0, 2.0], [7.0, 7.0, 2.0]]],  # coplanar
    [[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 1.0]]],
], ids=["one-point", "collinear", "one-triangle", "d1-one-point", "d1-collinear",
        "d1-one-segment", "d3-one-point", "d3-collinear", "d3-coplanar", "d3-one-tetrahedron"])
def test_real_d2_degenerate_families_found(sets):
    fam = _family("real", *sets)
    res = real_hyperplane_transversal(fam)
    assert isinstance(res, RealHyperplane)
    assert verify_transversal(res, fam, tol=1e-15).passed


@pytest.mark.parametrize("e", [26, 40])
def test_real_d2_exact_meet_found_where_its_float_margin_rounds_below_tolerance(e):
    # the one line meeting every set passes through three points on a line of
    # slope 3; at these scales its rounded unit normal has an interval margin
    # below -MARGIN_TOL, and only the exact signs find it
    sets = [[[2, -2]], [[-1, -11]], [[-3, -17]], [[2, 16], [10, 4]], [[-4, -2], [6, -8]]]
    fam = _family("real", *(2.0**e * np.array(v, dtype=float) for v in sets))
    res = real_hyperplane_transversal(fam)
    assert isinstance(res, RealHyperplane)
    assert transversal._interval_margin(fam, res.normal[None])[0] < -transversal.MARGIN_TOL
    assert verify_transversal(res, fam, tol=2.0**e * 1e-12).passed


def test_real_d2_repeated_vertices_leave_the_answer_unchanged():
    def bits(res):
        if isinstance(res, RealHyperplane):
            return res.normal.tobytes(), res.offset
        return res.best, res.note

    outcomes = set()
    for seed in range(10):
        fam = _triangles(seed)
        res = real_hyperplane_transversal(fam)
        copied = Family(fam.labels + ("copy",), fam.sets + (fam.sets[0],))
        twice = _family("real", *(np.vstack([p.vertices, p.vertices[::-1]]) for p in fam.sets))
        for other in (copied, twice):
            again = real_hyperplane_transversal(other)
            assert type(again) is type(res) and bits(again) == bits(res), seed
        outcomes.add(type(res))
    assert outcomes == {RealHyperplane, NotFound}


def test_real_d2_float_planted_tangent_lines_found():
    # each set is a segment from a random point to a vertex on the planted
    # line up to rounding; many of them miss every vertex-pair line by about
    # 1e-16 in exact arithmetic and are found through the MARGIN_TOL rule
    for seed in range(60):
        spec = GenSpec(d=2, n_sets=3 + seed % 4, vertices_per_set=1, planted=True, seed=seed,
                       ambient="real")
        fam = gen_instance(spec).family
        res = real_hyperplane_transversal(fam)
        assert isinstance(res, RealHyperplane), seed
        assert verify_transversal(res, fam).passed, seed


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 18: MARGIN_TOL is absolute, so at 2^40 the float-planted lines "
    "of seeds 15, 26, 27, 30, 33, 35, 42, 47, 53 and 59 miss by more than it",
)
def test_real_d2_float_planted_lines_found_at_every_power_of_two_scale():
    # the families of the test above, each found at scale 1, scaled exactly
    # by 2^40; a line found at scale 1 is lost there
    lost = []
    for seed in range(60):
        spec = GenSpec(d=2, n_sets=3 + seed % 4, vertices_per_set=1, planted=True, seed=seed,
                       ambient="real")
        fam = gen_instance(spec).family
        if not isinstance(real_hyperplane_transversal(fam), RealHyperplane):
            pytest.fail(f"seed {seed} is not found at scale 1")  # not an AssertionError
        scaled = Family(fam.labels, tuple(Polytope("real", p.vertices * 2.0**40) for p in fam.sets))
        if not isinstance(real_hyperplane_transversal(scaled), RealHyperplane):
            lost.append(seed)
    assert lost == []


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


def test_real_d3_plane_found():
    fam = _family(
        "real",
        [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
        [[0.5, 0.5, 0.5]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
    )
    res = real_hyperplane_transversal(fam)
    assert isinstance(res, RealHyperplane)
    assert _real_feasible(fam, res)


def _counterexample3():
    """_counterexample's four segments in the plane z = 0, and two segments
    of length 2c crossing it at (0, 0, +-1) along its normal n: the plane
    through +-e and the z axis meets every set with margin c = 1e-5, and its
    normals fall in a window that a coarse search misses.  Seeded
    multistart pattern search at the default budget (32 starts of 2000
    steps, seed 0) found only the normal of margin -2 delta."""
    delta, c, alpha = 1e-8, 1e-5, np.pi / 20000
    e = np.array([np.cos(alpha), np.sin(alpha), 0.0])
    n = np.array([-np.sin(alpha), np.cos(alpha), 0.0])
    up = np.array([0.0, 0.0, 1.0])
    return _family("real", [-e, [-delta, 1.0, 0.0]], [e, [delta, 1.0, 0.0]],
                   [-e + c * n, [0.0, -1.0, 0.0]], [e + c * n, [0.0, -1.0, 0.0]],
                   [up - c * n, up + c * n], [-up - c * n, -up + c * n])


def test_real_d3_finds_the_plane_in_a_narrow_window():
    fam = _counterexample3()
    res = real_hyperplane_transversal(fam)
    assert isinstance(res, RealHyperplane)
    assert verify_transversal(res, fam, tol=0.0).passed
    assert transversal._interval_margin(fam, res.normal[None])[0] > 0.99e-5


def _real_suite(seed):
    """The d = 3 and 4 families on which the exact route replaced seeded
    multistart pattern search: 4-10 sets of 1-4 vertices, planted at even
    seeds."""
    spec = GenSpec(d=3 + seed // 2 % 2, n_sets=4 + seed % 7, vertices_per_set=1 + seed // 4 % 4,
                   planted=seed % 2 == 0, seed=seed, ambient="real")
    return gen_instance(spec).family


# the seeds below 40 of _real_suite on which the multistart, at the default
# TransversalConfig, found a hyperplane; it missed 1, 3, 5, 17, 19, 33 and 35
MULTISTART_FOUND = {0, 2, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 20, 21, 22, 23, 24, 25,
                    26, 27, 28, 29, 30, 31, 32, 34, 36, 37, 38, 39}


def test_real_exact_route_finds_every_hyperplane_the_multistart_found():
    found = set()
    for seed in range(40):
        fam = _real_suite(seed)
        res = real_hyperplane_transversal(fam)
        if isinstance(res, RealHyperplane):
            assert verify_transversal(res, fam).passed, seed
            found.add(seed)
        else:
            assert res.exhaustive and res.best < -transversal.MARGIN_TOL, seed
    assert MULTISTART_FOUND <= found
    assert found - MULTISTART_FOUND == {35}  # a planted family the multistart missed


def _leibniz_sign(rows):
    """The sign of the determinant of a square integer matrix."""
    det = 0
    for perm in itertools.permutations(range(len(rows))):
        term = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        for row, j in zip(rows, perm):
            term *= row[j]
        det += term
    return (det > 0) - (det < 0)


def test_filtered_signs_equal_exact_signs():
    # every side _signs decides, in floats or in integers, has the sign of
    # the exact determinant of the vertex differences.  The vertices include
    # points of a hyperplane through d of them, rounded and moved a few ulps
    # off it, at scales from the subnormals to 2^500 and up to the largest
    # float, where sides and bounds overflow; hypothesis draws the moves.
    pytest.importorskip("hypothesis")
    from hypothesis import given
    from hypothesis import strategies as st

    @given(data=st.data())
    def check(data):
        d = data.draw(st.sampled_from([2, 3, 4]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        base = rng.standard_normal((d, d))
        near = base[0] + rng.standard_normal((data.draw(st.integers(1, 3)), d - 1)) @ (
            base[1:] - base[0])
        for row in near:
            i = data.draw(st.integers(0, d - 1))
            for _ in range(data.draw(st.integers(0, 3))):
                row[i] = np.nextafter(row[i], data.draw(st.sampled_from([-np.inf, np.inf])))
        P = np.vstack([base, near, rng.standard_normal((data.draw(st.integers(0, 2)), d))])
        P = P + data.draw(st.sampled_from([0.0, 1.5, 2.0**30]))
        scale = data.draw(st.sampled_from([-1070, -1040, -1000, -500, 0, 500, None]))
        P = P / np.abs(P).max() * np.finfo(float).max if scale is None else np.ldexp(P, scale)
        P = np.unique(P, axis=0)
        X = np.array(integers(P.ravel().tolist())[0], dtype=object).reshape(P.shape)
        S = np.array(list(itertools.combinations(range(len(P)), d)))
        N = _normals(X, S)
        keep = (N != 0).any(axis=1)
        S, N = S[keep], N[keep]
        if not len(S):
            return
        signs = _signs(P, X, S, N, _unit_scaled(N), np.arange(len(P)))
        Y = X.tolist()  # the vertices over one positive scale
        for c, row in enumerate(S):
            diffs = [[a - b for a, b in zip(Y[j], Y[row[0]])] for j in row[1:]]
            for t, q in enumerate(Y):
                want = _leibniz_sign(diffs + [[a - b for a, b in zip(q, Y[row[0]])]])
                assert signs[c, t] == want, (c, t)

    check()


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


def test_complex_search_d1_finds_a_common_point():
    # two crossing segments and a triangle around their crossing: at d = 1
    # the search is one exact LP, and its point is a transversal
    fam = _family(
        "complex", [[-1 + 0j], [1 + 0j]], [[-1j], [1j]], [[-1 - 1j], [1 - 1j], [1j]]
    )
    res = find_complex_transversal(fam)
    assert isinstance(res, ComplexHyperplane)
    assert verify_transversal(res, fam).passed


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
    V = _borsuk_values(_closest_coefficients(fam, X), phi)
    for i in range(X.shape[0]):
        # both share the closest-point kernel, so check both on the oracle
        p = np.array([_closest_oracle(poly.vertices @ np.conj(X[i])) for poly in fam.sets])
        f = np.concatenate([[p.sum()], np.conj(p) @ phi])
        ev = borsuk_map(SpherePoint(X[i]), fam, phi)
        assert np.linalg.norm(ev.value - f) < 1e-12
        assert np.linalg.norm(V[i] - f) < 1e-12


def test_borsuk_map_builds_the_layout_once():
    rng = np.random.default_rng(24)
    emb = embed_family(_family("complex", *[_random_complex(rng, (n, 2)) for n in (3, 1, 4)]))
    phi = _random_complex(rng, (3, 1))
    x = SpherePoint.normalized(_random_complex(rng, 3))
    borsuk_map(x, emb, phi)
    layout = emb.__dict__["_layout"]
    for _ in range(3):
        borsuk_map(x, emb, phi)
    assert emb.__dict__["_layout"] is layout


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


def _margin_from_own_coefficients(a, fam):
    """polygon_intersection_margin's LP, with each set projected alone."""
    planes = [h for poly in fam.sets for h in transversal._polygon_halfplanes(
        complex_to_real((poly.vertices @ np.conj(a))[:, None]))]
    rows = np.vstack([np.array([n for n, _ in planes]).T, np.ones(len(planes))])
    lp = LinearProgram(len(planes), 0, rows, (0.0, 0.0, 1.0), objective=[c for _, c in planes])
    return float(np.asarray(lp_feasible(lp).witness) @ lp.objective)


def test_margin_and_verify_read_each_sets_own_coefficients():
    # the padded coefficient block changes no bit of either answer
    rng = np.random.default_rng(29)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        fam = _family("complex", *[_random_complex(rng, (n, d)) * 10.0 ** int(rng.integers(-3, 4))
                                   for n in (4, 2, 5, 1, 3)])
        a = _random_complex(rng, d)
        a /= np.linalg.norm(a)
        b = complex(fam.sets[0].vertices[0] @ np.conj(a))
        margin = polygon_intersection_margin(a, fam)
        assert margin.hex() == _margin_from_own_coefficients(a, fam).hex()
        own = [_closest_rows((poly.vertices @ np.conj(a) - b)[None, :])[0] for poly in fam.sets]
        rep = verify_transversal(ComplexHyperplane(a, b), fam)
        assert np.array([dist for _, dist in rep.distances]).tobytes() == np.abs(own).tobytes()


@pytest.mark.parametrize("order", ["AB", "BA"])
def test_verify_counts_a_nan_distance_as_a_miss_in_every_label_order(order):
    # a NaN distance is a miss wherever it falls in the label order (Python's
    # max keeps a NaN only when it comes first)
    nan = {"A": 0.0, "B": float("nan")}
    rep = VerificationReport(tuple((label, nan[label]) for label in order), 1e-6)
    assert np.isnan(rep.max_distance) and not rep.passed
    # H = {z_1 = 0} meets A; B's coordinates of about 1e300 would overflow
    # the closest-point kernel's |D|^2, so verification scales B's row: B is
    # 1.5 s / sqrt(2) away, a finite miss in either order
    s = 1e300
    sets = {
        "A": Polytope("complex", np.array([[0, 0], [0, 1]], dtype=complex)),
        "B": Polytope("complex", np.array([[s + s * 1j, 0], [s + 0.5 * s * 1j, 0],
                                           [0.5 * s + s * 1j, 1]])),
    }
    fam = Family(tuple(order), tuple(sets[label] for label in order))
    rep = verify_transversal(ComplexHyperplane(np.array([1 + 0j, 0j]), 0j), fam)
    assert dict(rep.distances)["A"] == 0.0
    assert dict(rep.distances)["B"] == pytest.approx(1.5 * s / np.sqrt(2), rel=1e-12)
    assert rep.max_distance == dict(rep.distances)["B"] and not rep.passed


@pytest.mark.parametrize("order", ["AB", "BA"])
def test_verify_scales_only_the_large_rows(order):
    # B, of coordinates about 1e300, contains the offset of H = {z_1 = 0};
    # A lies 1e-7 from it, within ZERO_TOL, and keeps that distance only if
    # its own row is not scaled along with B's
    s = 1e300
    sets = {
        "A": Polytope("complex", np.array([[-1 + 1e-7j, 0], [1 + 1e-7j, 0]])),
        "B": Polytope("complex", np.array([[s + s * 1j, 0], [-s + s * 1j, 0], [-s * 1j, 0]])),
    }
    fam = Family(tuple(order), tuple(sets[label] for label in order))
    rep = verify_transversal(ComplexHyperplane(np.array([1 + 0j, 0j]), 0j), fam)
    assert dict(rep.distances) == {"A": pytest.approx(1e-7, rel=1e-9), "B": 0.0}
    assert rep.passed


def test_verify_rejects_mismatches():
    fam = _family("real", [[0.0, 0.0]])
    T = ComplexHyperplane(np.array([1.0 + 0j, 0j]), 0j)
    with pytest.raises(ValueError):
        verify_transversal(T, fam)


def test_verify_rejects_tolerances_that_are_not_numbers():
    # "x" and None raised a bare TypeError from np.isfinite, and True
    # passed as a tolerance of 1
    fam = _family("complex", [[0j]])
    T = ComplexHyperplane(np.array([1.0 + 0j]), 0j)
    for bad in ("x", None, True, 1e-6j):
        with pytest.raises(ValueError, match="tol must be a number"):
            verify_transversal(T, fam, tol=bad)
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            verify_transversal(T, fam, tol=bad)
    assert verify_transversal(T, fam, tol=0).passed


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
        elif isinstance(res, RealHyperplane):
            h.update(res.normal.tobytes())
            h.update(f"{res.offset.hex()};".encode())
        else:
            h.update(res.coords.tobytes())
    return h.hexdigest()


# sha256 over the hyperplane, sphere-point or NotFound (best, x) bits of the
# direction search and the zero finder on seeded families at a small budget,
# recorded when each set was still projected in its own product
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


def _real_case(d, n_sets, vertices_per_set, seed):
    spec = GenSpec(d=d, n_sets=n_sets, vertices_per_set=vertices_per_set, seed=seed,
                   ambient="real")
    return gen_instance(spec).family


# sha256 over the hyperplane or NotFound best of the exact real route at d = 3
# and 4 on seeded families, recorded when it replaced seeded multistart pattern
# search: point families (any d points lie on a hyperplane), a point family
# with none, and families of 2-3 vertices per set with and without a hyperplane
REAL_EXACT_DIGESTS = {
    (3, 3, 1, 0): "4856285df7c35c4fb8fd2cedde528ee7e59ffa32aafe252624dfd66362a7ec7a",
    (3, 4, 1, 0): "62e15f84905d6cfff47acdca752f747a2dc08a998d9ee0981a2f1988b9a4993d",
    (3, 5, 2, 0): "0dc39252927b4490a14f85000880c7cfd3a69c80baed313836f7f52330122e1c",
    (4, 4, 1, 0): "98d5ab26f8e2c7451741e24d69d9d2ae77cac5251e1d7a43ea2022b877ddd276",
    (4, 4, 1, 1): "c92a47265c8584e8b8d0de8fe4c1a20ad2bca92d9ce0a5b20843fe6781ee234a",
    (4, 10, 2, 0): "17d51cbb33014874baa3e920eb4d645c49bc290c5e30b9051beb3e8cd32d4a41",
    (4, 10, 2, 3): "31b9cc438802262814b4e6cfbb46324838057a40942d80dbffe5eac664256f1b",
}


@pytest.mark.parametrize("case", list(REAL_EXACT_DIGESTS), ids=str)
def test_real_search_keeps_recorded_bits(case):
    res = real_hyperplane_transversal(_real_case(*case))
    assert _search_digest([res]) == REAL_EXACT_DIGESTS[case]


def _low_families():
    """240 seeded real families at d = 1 and 2: 2-8 sets of 1-4 vertices,
    planted at every third seed."""
    for seed in range(240):
        spec = GenSpec(d=1 + seed % 2, n_sets=2 + seed % 7, vertices_per_set=1 + seed // 2 % 4,
                       planted=seed % 3 == 0, seed=seed, ambient="real")
        yield gen_instance(spec).family


def test_real_d1_d2_answers_keep_recorded_bits():
    # recorded with the d = 1 interval test and the d = 2 vertex-pair lines
    # that the one d-general route replaced: 163 found, 77 none
    results = [real_hyperplane_transversal(fam) for fam in _low_families()]
    assert _search_digest(results) == (
        "210939571d22a139cd3d0fd9f4edffcaf8e4e47cf04bf9caac964d1424911f2a")


# -- lock-step starts ------------------------------------------------------------


def _one_start_min(objective, u0, config, target, unit=slice(None)):
    """Pattern search from one start, as it ran before starts shared a
    kernel call: the reference the lock-step searches must reproduce."""
    u = np.array(u0, dtype=float)
    u[unit] /= np.linalg.norm(u0[unit])
    val = float(objective(u[None, :])[0])
    step = STEP_INIT
    eye = np.eye(u.shape[0])
    stencil = np.vstack([eye, -eye])
    for _ in range(config.iters):
        if val <= target or step < 1e-13:
            break
        cands = u + step * stencil
        part = cands[:, unit]
        part /= np.sqrt((part * part).sum(axis=1))[:, None]
        vals = objective(cands)
        j = int(vals.argmin())
        if vals[j] < val - 1e-16:
            u = cands[j]
            val = float(vals[j])
        else:
            step *= STEP_DECAY
    return u, val


def _one_start_at_a_time(objective, U0, config, target, unit=slice(None)):
    for u0 in U0:
        yield _one_start_min(objective, u0, config, target, unit)


def _searches(case):
    """The searches of a lock-step case: (2, 4, True, 3) succeeds at start
    0; (2, 6, False, 0) finds no direction and a zero at start 3;
    (2, 6, False, 2) succeeds at starts 1 and 2; (3, 8, False, 1) finds a
    direction at start 2; (3, 8, False, 3) fails at every start."""
    fam, phi = _search_case(*case)
    return lambda cfg: [find_complex_transversal(fam, cfg),
                        find_borsuk_zero(embed_family(fam), phi, cfg)]


@pytest.mark.parametrize("case", [(2, 4, True, 3), (2, 6, False, 0), (2, 6, False, 2),
                                  (3, 8, False, 1), (3, 8, False, 3)], ids=str)
def test_lock_step_starts_match_one_start_at_a_time(case, monkeypatch):
    run = _searches(case)
    for starts in range(1, 6):
        cfg = TransversalConfig(starts=starts, iters=100, seed=case[-1])
        lock_step = _search_digest(run(cfg))
        with monkeypatch.context() as m:
            m.setattr(transversal, "_pattern_min", _one_start_at_a_time)
            assert _search_digest(run(cfg)) == lock_step, starts


def test_start_vectors_are_the_stream_of_one_draw_per_start():
    rng = np.random.default_rng(5)
    rows = [rng.standard_normal(6) for _ in range(4)]
    assert np.array_equal(np.random.default_rng(5).standard_normal((4, 6)), np.array(rows))


def test_starts_past_the_window_stay_unevaluated_after_an_early_success(monkeypatch):
    # start 0 succeeds in both searches; only start 1 rides beside it, and a
    # start is first evaluated alone, as one row
    fam, phi = _search_case(2, 4, True, 3)
    lock_step = transversal._pattern_min
    entered = []
    results = []

    def spy(objective, U0, config, target, unit=slice(None)):
        def watched(X):
            if X.shape[0] == 1:
                entered.append(X[0].copy())
            return objective(X)
        for out in lock_step(watched, U0, config, target, unit):
            results.append(out)
            yield out

    monkeypatch.setattr(transversal, "_pattern_min", spy)
    cfg = TransversalConfig(starts=8, iters=400, seed=3)
    assert isinstance(find_complex_transversal(fam, cfg), ComplexHyperplane)
    assert isinstance(find_borsuk_zero(embed_family(fam), phi, cfg), SpherePoint)
    assert len(results) == 2 and len(entered) == 4


def test_config_rejects_budgets_that_are_not_integers():
    # 2.5 iterations would run three lock-step steps, True one start, and a
    # seed of True the searches of seed 1
    for field in ("starts", "iters", "seed"):
        for bad in (2.5, 2.0, True, "3", None):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                TransversalConfig(**{field: bad})
    cfg = TransversalConfig(starts=np.int64(3), iters=np.int64(0))
    assert (cfg.starts, cfg.iters) == (3, 0)
    with pytest.raises(ValueError, match="iters must be nonnegative"):
        TransversalConfig(iters=-1)
    with pytest.raises(ValueError, match="starts must be at least 1"):
        TransversalConfig(starts=0)


def test_config_rejects_zero_tol_that_is_not_a_number():
    # "x" and None raised a bare TypeError from np.isfinite, and True passed
    # as a tolerance of 1
    for bad in ("x", None, True, np.bool_(True), 1e-6j):
        with pytest.raises(ValueError, match="zero_tol must be a number"):
            TransversalConfig(zero_tol=bad)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="zero_tol must be finite and nonnegative"):
            TransversalConfig(zero_tol=bad)
    for good in (0, 1e-3, np.float32(1e-4), np.int64(0)):
        assert TransversalConfig(zero_tol=good).zero_tol == good


def test_zero_iterations_return_each_start_point(monkeypatch):
    fam, phi = _search_case(2, 6, False, 0)
    emb = embed_family(fam)
    cfg = TransversalConfig(starts=3, iters=0, seed=0)

    def run():
        return _search_digest([find_complex_transversal(fam, cfg), find_borsuk_zero(emb, phi, cfg)])

    lock_step = run()
    monkeypatch.setattr(transversal, "_pattern_min", _one_start_at_a_time)
    assert run() == lock_step
