"""Dependency-consistency (complex) and separation-consistency (real)
checkers: dependence enumeration, cone lifting, verdict certificates, and
the exact support reducer."""

from __future__ import annotations

import hashlib
import warnings
from fractions import Fraction
from itertools import groupby
from operator import attrgetter

import numpy as np
import pytest

from tvlab.consistency import (
    NULLSPACE_TOL,
    SUPPORT_TOL,
    AffineDependence,
    ConsistencyConfig,
    ConsistencyWitness,
    Lift,
    NoLift,
    _batched_lifts,
    _canonical_blocks,
    _complex_nullspace,
    _decimal_keys,
    _dependences_by_size,
    check_dependency_consistency,
    enumerate_dependences,
    lift_dependence,
    reduce_dependence_support,
    separates_consistently,
    trivial_witness,
)
from tvlab.geometry import Family, Polytope, complex_to_real
from tvlab.harness import GenSpec, gen_instance, witness_from_transversal
from tvlab.lp import LinearProgram, lp_feasible


def _family(ambient, *vertex_lists):
    polys = tuple(Polytope(ambient, np.asarray(v)) for v in vertex_lists)
    return Family(tuple(f"S{i}" for i in range(len(polys))), polys)


def _witness(k, points, assignment):
    return ConsistencyWitness(k, np.asarray(points), assignment)


def _cone_generators(fam, dep):
    """The generators (a_F v, a_F) of a dependence's cone LP, one per row."""
    gens = [np.append(a * v, a) for l, a in zip(dep.labels, dep.coeffs) for v in fam[l].vertices]
    return complex_to_real(np.array(gens))


def _blocks(deps):
    """Dependences as the blocks (labels, coeffs, origins) that the check
    lifts: each maximal run with equal support labels."""
    return [
        (labels, np.array([d.coeffs for d in run]), np.array([d.origin for d in run]))
        for labels, run in ((k, list(g)) for k, g in groupby(deps, attrgetter("labels")))
    ]


def _sizes(fam, w, cfg):
    """The dependences of each subfamily size, as the check enumerates them."""
    return [
        [AffineDependence(labels, c, o)
         for labels, coeffs, origins in blocks for c, o in zip(coeffs.tolist(), origins.tolist())]
        for blocks in _dependences_by_size(fam, w, cfg)
    ]


# -- null space ----------------------------------------------------------------


def _nullspace_of(M):
    """The null-space basis (n, nullity) of one matrix, as a stack of one."""
    basis, nullity = _complex_nullspace(np.asarray(M)[None])
    return basis[0, :, : nullity[0]]


def test_nullspace_rank_and_residual():
    rng = np.random.default_rng(0)
    for _ in range(40):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        M = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        B = _nullspace_of(M)
        assert B.shape[1] == n - np.linalg.matrix_rank(M, tol=1e-10)
        if B.size:
            assert np.max(np.abs(M @ B)) < 1e-9


def test_nullspace_threshold_collapses_tiny_rows():
    M = np.array([[1e-12, 1e-12]], dtype=complex)
    B = _nullspace_of(M)
    # the row is below the threshold NULLSPACE_TOL: treated as zero
    assert NULLSPACE_TOL == 1e-10 and B.shape[1] == 2


def _complex_nullspace_reference(M, tol=NULLSPACE_TOL):
    """Elimination of one matrix alone, as enumerate_dependences ran it
    subfamily by subfamily before the stacked elimination: the reference for
    the bits of every basis of a stack."""
    M = np.array(M, dtype=complex)
    m, n = M.shape
    pivot_cols = []
    row = 0
    for _ in range(min(m, n)):
        sub = np.abs(M[row:, :])
        if pivot_cols:
            sub[:, pivot_cols] = 0.0
        i, j = np.unravel_index(np.argmax(sub), sub.shape)
        if sub[i, j] <= tol:
            break
        i += row
        if i != row:
            M[[row, i]] = M[[i, row]]
        M[row] = M[row] / M[row, j]
        for r in range(m):
            if r != row and M[r, j] != 0:
                M[r] = M[r] - M[r, j] * M[row]
        pivot_cols.append(j)
        row += 1
    free_cols = [j for j in range(n) if j not in pivot_cols]
    basis = np.zeros((n, len(free_cols)), dtype=complex)
    for idx, f in enumerate(free_cols):
        basis[f, idx] = 1.0
        for r, p in enumerate(pivot_cols):
            basis[p, idx] = -M[r, f]
    return basis


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_stacked_nullspace_matches_matrices_alone(m):
    rng = np.random.default_rng([m, 8])

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for n in range(1, 8):
        stack = [gauss(m, n) for _ in range(8)]  # full rank
        for M in stack[:4]:
            M[0] = 1.0  # the affine row of a subfamily's matrix
        dup = gauss(4, m, n)
        dup[:, :, n - 1] = dup[:, :, 0]  # coincident points
        dup[2:, :, n // 2] = dup[2:, :, 0]
        stack += list(dup)
        if m > 1:
            line = gauss(2, m, n)
            line[:, -1] = 2 * line[:, 0] - 0.5j  # collinear points
            stack += list(line)
        tiny = gauss(3, m, n)
        tiny[:, -1] *= 1e-12  # a row below tol
        tiny[2] *= 1e-11  # every row below tol
        stack += [*tiny, np.zeros((m, n), dtype=complex)]
        # small integers: exact zeros in the pivot column, whose rows are
        # left as they are (subtracting 0 times the pivot row flips signed zeros)
        stack += list(rng.integers(-1, 3, (40, m, n)) + 0j)
        stack = np.array([stack[i] for i in rng.permutation(len(stack))])
        basis, nullity = _complex_nullspace(stack)
        assert basis.shape == (len(stack), n, n)
        assert nullity.max() == n and len(set(nullity.tolist())) >= 2
        for M, B, nu in zip(stack, basis, nullity):
            want = _complex_nullspace_reference(M)
            assert B[:, :nu].shape == want.shape and B[:, :nu].tobytes() == want.tobytes()
            assert not B[:, nu:].any()
            assert _nullspace_of(M).tobytes() == want.tobytes()


# -- enumerate_dependences -------------------------------------------------------


def test_independent_images_give_nothing():
    fam = _family("complex", [[0j]], [[1 + 0j]])
    w = _witness(1, [[1.0 + 0j], [2.0 + 0j]], {"S0": 0, "S1": 1})
    assert enumerate_dependences(fam, w) == []


def test_equal_images_give_unique_circuit():
    fam = _family("complex", [[0j]], [[1 + 0j]])
    w = _witness(1, [[1.0 + 0j]], {"S0": 0, "S1": 0})
    deps = enumerate_dependences(fam, w)
    assert len(deps) == 1
    (dep,) = deps
    assert dep.labels == ("S0", "S1") and dep.origin == "circuit"
    a0, a1 = dep.coeffs
    assert a0 + a1 == pytest.approx(0.0, abs=1e-12)
    assert abs(a0) == pytest.approx(abs(a1))


def test_dimension_zero_sampling_respects_sum():
    fam = _family("complex", [[0j]], [[1 + 0j]], [[2 + 0j]])
    deps = enumerate_dependences(fam, trivial_witness(fam), ConsistencyConfig(samples=8, seed=3))
    assert any(d.origin == "sampled" for d in deps)
    assert max(abs(sum(d.coeffs)) for d in deps) < 1e-12


def test_enumeration_is_deterministic_and_deduplicated():
    fam = _family("complex", [[0j]], [[1 + 0j]], [[2 + 0j]], [[3 + 0j]])
    cfg = ConsistencyConfig(samples=16, seed=9)
    a = enumerate_dependences(fam, trivial_witness(fam), cfg)
    b = enumerate_dependences(fam, trivial_witness(fam), cfg)
    assert [(d.labels, d.coeffs) for d in a] == [(d.labels, d.coeffs) for d in b]
    keys = {(d.labels, tuple(np.round(d.coeffs, 9).tolist())) for d in a}
    assert len(keys) == len(a)


def test_dependences_satisfy_their_equations():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    pts[3] = pts[0]  # force a coincidence so circuits exist
    fam = _family("complex", [[0j, 0j]], [[1 + 0j, 0j]], [[0j, 1j]], [[1j, 1j]])
    w = _witness(2, pts, {f"S{i}": i for i in range(4)})
    for dep in enumerate_dependences(fam, w, ConsistencyConfig(samples=8, seed=1)):
        s0, s1 = dep.residuals(w)
        assert s0 < 1e-9 and s1 < 1e-9
        assert len(dep.labels) <= 2 * w.k + 3


def _canonical_coeffs_reference(a, support_tol=SUPPORT_TOL):
    """Canonicalisation of one candidate alone, as enumerate_dependences ran
    it row by row before _canonical_blocks: the reference for its bits."""
    nrm = float(np.linalg.norm(a))
    if nrm <= support_tol:
        return None
    a = a / nrm
    support = tuple(int(i) for i in np.nonzero(np.abs(a) > support_tol)[0])
    if not support:
        return None
    a = a[list(support)]
    i_star = int(np.argmax(np.abs(a)))
    a = a / a[i_star]
    a = a / np.linalg.norm(a)
    return support, a


@pytest.mark.parametrize("s", range(2, 8))
def test_block_canonicalisation_matches_rows_alone(s):
    rng = np.random.default_rng([s, 5])
    n = 300

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    q, _ = np.linalg.qr(gauss(s, 2))
    sampled = (q @ gauss(2, n)).T  # non-contiguous, as enumerate_dependences samples
    # one entry just below or just above the support threshold, in a unit row
    near_tol = gauss(n, s)
    cols = rng.integers(0, s, n)
    near_tol[np.arange(n), cols] = 0.0
    near_tol /= np.linalg.norm(near_tol, axis=1, keepdims=True)
    phase = np.exp(2j * np.pi * rng.random(n))
    near_tol[np.arange(n), cols] = SUPPORT_TOL * np.where(np.arange(n) % 2, 1.001, 0.999) * phase
    near_tol[7] = 0.0
    near_tol[8] = 1e-12
    assert not sampled.flags.c_contiguous
    for block in (sampled, near_tol):
        got = {}
        for rows, support, coeffs in _canonical_blocks(block):
            for r, c in zip(rows.tolist(), coeffs):
                got[r] = (tuple(support.tolist()), c.tobytes())
        want = {}
        for r, a in enumerate(block):
            ref = _canonical_coeffs_reference(a)
            if ref is not None:
                want[r] = (ref[0], ref[1].tobytes())
        assert got == want
    # both sides of the threshold occur, and the zero rows are skipped
    sizes = {len(sup) for sup, _ in got.values()}
    assert sizes == {s - 1, s} and 7 not in got and 8 not in got


def test_decimal_keys_are_equal_where_key_strings_are():
    rng = np.random.default_rng(10)
    rows = rng.standard_normal((25_000, 2)) + 1j * rng.standard_normal((25_000, 2))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    # floats nearest to the rounding boundaries (m + 1/2) 1e-9, and the dyadic
    # boundary 2**-10 = 976562.5e-9 itself, with their neighbours
    ties = np.array([(m + 0.5) * 1e-9 for m in (0, 1, 2, 7, 976_561, 123_456_789, 999_999_999)])
    ties = np.concatenate([ties, [2.0**-10]])
    down, up = [ties], [ties]
    for _ in range(40):
        down.append(np.nextafter(down[-1], -np.inf))
        up.append(np.nextafter(up[-1], np.inf))
    near = np.concatenate(down + up)
    special = [0.0, 1e-12, 4.9999e-10, 5e-10, 1.0, 0.5, 1e-9]
    x = np.concatenate([rows.view(float).ravel(), near, -near, special, np.negative(special)])
    strings = ["%.9f" % v for v in x.tolist()]
    keys = _decimal_keys(x).tolist()
    assert len(set(strings)) == len(set(keys)) == len(set(zip(strings, keys)))
    # the boundaries are hit from both sides, and the sign of a zero is kept
    assert {"0.000000000", "-0.000000000", "0.000000001", "-0.000000001"} <= set(strings)
    assert {"0.000976562", "0.000976563"} <= set(strings)
    assert _decimal_keys(rows.view(float)).shape == (25_000, 4)


def test_zero_coefficient_circuit_is_a_duplicate():
    fam = _family("complex", [[0j]], [[1 + 0j]], [[2 + 0j]], [[3 + 0j]])
    w = _witness(1, [[0j], [1 + 0j], [2 + 0j]], {"S0": 0, "S1": 0, "S2": 1, "S3": 2})
    cfg = ConsistencyConfig(samples=4, seed=0)
    deps = enumerate_dependences(fam, w, cfg)
    # {S0,S1,S2} and {S0,S1,S3} have circuits (1,-1,0): both reduce to the
    # circuit of {S0,S1} and are dropped
    assert [(d.labels, d.origin) for d in deps] == [
        (("S0", "S1"), "circuit"),
        (("S0", "S2", "S3"), "circuit"),
        (("S1", "S2", "S3"), "circuit"),
    ] + [(("S0", "S1", "S2", "S3"), "sampled")] * 4
    (first,) = enumerate_dependences(fam.subfamily(("S0", "S1")), w, cfg)
    assert deps[0].coeffs == first.coeffs


# -- lift_dependence -------------------------------------------------------------


def test_lift_same_singleton():
    fam = _family("complex", [[2 + 1j]], [[2 + 1j]])
    res = lift_dependence(fam, AffineDependence(("S0", "S1"), (1.0, -1.0)))
    assert isinstance(res, Lift)
    assert res.r[0] == pytest.approx(res.r[1])
    assert max(res.residuals()) < 1e-12
    # p_F is certified as a convex combination of the set's vertices
    for lam, (_, poly) in zip(res.vertex_weights, fam):
        assert np.all(np.asarray(lam) >= -1e-12)


def test_lift_distinct_singletons_fails_exactly():
    fam = _family("complex", [[0j]], [[1 + 0j]])
    res = lift_dependence(fam, AffineDependence(("S0", "S1"), (1.0, -1.0)))
    assert isinstance(res, NoLift)
    assert res.exact  # float infeasibility is always rationally confirmed


def test_lift_common_point_segments():
    segs = _family(
        "complex", [[0j], [2 + 0j]], [[1 + 0j], [3 + 0j]], [[-1 + 0j], [1.5 + 0j]]
    )
    deps = enumerate_dependences(
        segs, trivial_witness(segs), ConsistencyConfig(samples=16, seed=5)
    )
    assert deps and all(isinstance(lift_dependence(segs, d), Lift) for d in deps)


def test_lift_scale_invariance():
    fam_yes = _family("complex", [[2 + 1j]], [[2 + 1j]])
    fam_no = _family("complex", [[0j]], [[1 + 0j]])
    rng = np.random.default_rng(6)
    for _ in range(10):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        if abs(lam) < 1e-3:
            continue
        base = AffineDependence(("S0", "S1"), (1.0, -1.0))
        scaled = AffineDependence(("S0", "S1"), (lam, -lam))
        assert type(lift_dependence(fam_yes, base)) is type(lift_dependence(fam_yes, scaled))
        assert type(lift_dependence(fam_no, base)) is type(lift_dependence(fam_no, scaled))


def test_lift_drops_zero_coefficients():
    # the zero-coefficient label contributes nothing and stays at weight 0
    fam = _family("complex", [[2 + 1j]], [[2 + 1j]], [[99 + 0j]])
    dep = AffineDependence(("S0", "S1", "S2"), (1.0, -1.0, 0.0))
    res = lift_dependence(fam, dep)
    assert isinstance(res, Lift)
    assert res.r[2] == 0.0
    assert max(res.residuals()) < 1e-12


def test_nolift_with_a_zero_coefficient_carries_the_callers_dependence():
    # S0 and S1 are distinct points, so (1, -1) has no lift; S2's zero drops out
    fam = _family("complex", [[0j]], [[1 + 0j]], [[99 + 0j]])
    dep = AffineDependence(("S0", "S2", "S1"), (1.0, 0.0, -1.0), origin="borsuk-zero")
    res = lift_dependence(fam, dep)
    assert isinstance(res, NoLift) and res.exact
    assert res.dependence is dep
    assert (res.dependence.labels, res.dependence.coeffs) == (("S0", "S2", "S1"), (1, 0, -1))
    again = lift_dependence(fam, AffineDependence(("S0", "S1"), (1.0, -1.0)))
    assert res.certificate.farkas == again.certificate.farkas


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_lift_block_labels_of_zero_weight_keep_their_first_vertex(exact):
    # S2 lies at Im z >= 1 while S0 and S1 are real segments, so every lift
    # of (a, -a, a, 0) has r = 0 on S2; S3 has a zero coefficient
    fam = _family(
        "complex", [[-1 + 0j], [1 + 0j]], [[-1 + 0j], [2 + 0j]], [[1j], [2 + 1j]], [[5 + 5j]]
    )
    labels = fam.labels
    deps = [AffineDependence(labels, (a, -a, a, 0.0)) for a in (1.0, 2j, -0.5 + 1j)]
    cfg = ConsistencyConfig(exact=exact)
    # the batch walk takes nonzero coefficients only: S3's zero is left to lift_dependence
    nonzero = [AffineDependence(labels[:3], dep.coeffs[:3]) for dep in deps]
    [(resid, lift, nolift)] = _batched_lifts(fam, _blocks(nonzero), cfg)
    assert nolift is None and len(resid) == len(deps)
    for i, dep in enumerate(deps):
        whole = lift_dependence(fam, dep, cfg)
        assert whole.dependence is dep and len(whole.r) == len(whole.vertex_weights) == 4
        for res in (lift(i), whole):
            assert res.r[0] > 0.0 and set(res.r[2:]) == {0.0}
            for g in range(2, len(res.r)):
                assert res.points[g].tobytes() == fam.sets[g].vertices[0].tobytes()
                assert not np.asarray(res.vertex_weights[g]).any()
            # the block's array residual is the one-lift formula, to the bit
            assert max(res.residuals()) == resid[i]


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)], ids=["nan", "inf", "nan-imag"])
def test_nonfinite_coefficients_are_rejected(bad):
    # a NaN coefficient would make a NaN cone LP, whose phase 1 reads as an
    # "exact" NoLift; inf would reach the exact layer's integer scaling
    with pytest.raises(ValueError, match="finite"):
        AffineDependence(("S0", "S1"), (bad, 1.0))


# -- check_dependency_consistency --------------------------------------------------


def test_fail_on_disjoint_singletons_same_image():
    fam = _family("complex", [[0j]], [[1 + 0j]])
    w = _witness(1, [[1.0 + 0j]], {"S0": 0, "S1": 0})
    verdict = check_dependency_consistency(fam, w)
    assert verdict.status == "fail"
    nolift = verdict.violation
    assert isinstance(nolift, NoLift)
    s0, s1 = nolift.dependence.residuals(w)
    assert s0 < 1e-9 and s1 < 1e-9
    # certificate re-check by an independent rational run
    gens = _cone_generators(fam, nolift.dependence)
    rhs = np.append(np.zeros(gens.shape[1]), 1.0)
    cone = LinearProgram(len(gens), 0, np.vstack([gens.T, np.ones(len(gens))]), rhs)
    assert not lp_feasible(cone, exact=True).feasible


def test_pass_with_common_point():
    c = 0.5 + 0.25j
    fam = _family(
        "complex",
        [[c - 0.3], [c + 0.5]],
        [[c - 0.1j], [c + 0.7j]],
        [[c], [c + 0.2 + 0.2j]],
    )
    verdict = check_dependency_consistency(
        fam, trivial_witness(fam), ConsistencyConfig(samples=32, seed=1)
    )
    assert verdict.passed
    assert verdict.max_lift_residual < 1e-9
    assert verdict.n_circuits + verdict.n_sampled == verdict.n_dependences


def test_pass_at_any_budget_with_common_point():
    c = -0.25 + 0.5j
    fam = _family("complex", [[c], [c + 1]], [[c - 1j], [c + 1j]], [[c - 0.5 - 0.5j], [c + 0.5 + 0.5j]])
    for samples in (4, 16, 64):
        verdict = check_dependency_consistency(
            fam, trivial_witness(fam), ConsistencyConfig(samples=samples, seed=0)
        )
        assert verdict.passed


def test_fail_on_triangle_sides():
    # pairwise intersecting segments with empty triple intersection: no
    # common point exists, so some dependence must refuse to lift
    fam = _family(
        "complex", [[0j], [2 + 0j]], [[0j], [1 + 2j]], [[2 + 0j], [1 + 2j]]
    )
    verdict = check_dependency_consistency(
        fam, trivial_witness(fam), ConsistencyConfig(samples=64, seed=0)
    )
    assert verdict.status == "fail"
    assert verdict.violation.exact


def test_rejects_real_family():
    fam = _family("real", [[0.0]])
    with pytest.raises(ValueError):
        check_dependency_consistency(fam, ConsistencyWitness(0, np.zeros((1, 0)), {"S0": 0}))


# -- separates_consistently ---------------------------------------------------------


def test_separation_passes_with_common_point():
    fam = _family(
        "real",
        [[0.0, 0.0], [2.0, 0.0]],
        [[1.0, -1.0], [1.0, 1.0]],
        [[0.0, 1.0], [2.0, -1.0]],
    )
    w = _witness(1, [[0.0], [1.0], [2.0]], {"S0": 0, "S1": 1, "S2": 2})
    assert separates_consistently(fam, w).passed


def test_separation_fails_on_disjoint_pair_same_image():
    fam = _family("real", [[0.0, 0.0], [1.0, 0.0]], [[3.0, 0.0], [4.0, 0.0]])
    w = _witness(1, [[0.5]], {"S0": 0, "S1": 0})
    verdict = separates_consistently(fam, w)
    assert verdict.status == "fail"
    v = verdict.violation
    assert (v.part_one, v.part_two) == (("S0",), ("S1",))
    assert v.disjointness.exact and not v.disjointness.feasible


def test_separation_vertical_segments_stabbed_by_axis():
    fam = _family(
        "real",
        [[0.0, -1.0], [0.0, 1.0]],
        [[1.0, -1.0], [1.0, 1.0]],
        [[2.0, -1.0], [2.0, 1.0]],
    )
    w = _witness(1, [[0.0], [1.0], [2.0]], {"S0": 0, "S1": 1, "S2": 2})
    assert w.k == 1 and separates_consistently(fam, w).passed


def test_separation_rejects_images_with_imaginary_parts():
    # [0, 1] and [3, 4] are disjoint, and 0.5 + 1j and 0.5 - 1j are distinct
    # points of C^1: read as floats they would coincide and convict the pair
    fam = _family("real", [[0.0], [1.0]], [[3.0], [4.0]])
    w = _witness(1, [[0.5 + 1j], [0.5 - 1j]], {"S0": 0, "S1": 1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="real"):
            separates_consistently(fam, w)
        # a complex array with zero imaginary parts is read as real
        same = _witness(1, [[0.5 + 0j], [0.5 + 0j]], {"S0": 0, "S1": 1})
        assert separates_consistently(fam, same).status == "fail"
        apart = _witness(1, [[0.5 + 0j], [3.5 + 0j]], {"S0": 0, "S1": 1})
        assert separates_consistently(fam, apart).passed


def test_separation_rejects_complex_family():
    fam = _family("complex", [[0j]])
    with pytest.raises(ValueError):
        separates_consistently(fam, trivial_witness(fam))


# -- support reduction ----------------------------------------------------------


def test_reducer_shrinks_stress_dependence():
    rng = np.random.default_rng(7)
    for k in (0, 1, 2):
        n = 2 * k + 3 + int(rng.integers(2, 5))
        pts = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        w = ConsistencyWitness(k, pts, {f"S{i}": i for i in range(n)})
        M = np.vstack([np.ones((1, n), dtype=complex), pts.T])
        B = _nullspace_of(M)
        coeff = B @ (rng.standard_normal(B.shape[1]) + 1j * rng.standard_normal(B.shape[1]))
        dep = AffineDependence(tuple(f"S{i}" for i in range(n)), tuple(coeff.tolist()))
        red = reduce_dependence_support(dep, w)
        assert len(red.labels) <= 2 * k + 3
        s0, s1 = red.residuals(w)
        assert s0 < 1e-9 and s1 < 1e-9
        # kept coefficients are positive rescalings of the originals
        original = dict(zip(dep.labels, dep.coeffs))
        for label, c in zip(red.labels, red.coeffs):
            ratio = complex(c) / original[label]
            assert abs(ratio.imag) < 1e-9 and ratio.real > 0


# sha256 over the labels and coefficient bits of reduce_dependence_support
# on seeded oversized dependences, recorded when the reducer still ran
# Gauss-Jordan elimination in Fractions
REDUCER_DIGEST = "c23d5751283696dfc68042611f770d6c87a9d56853e50c8a961fabd9234731f3"


def test_reducer_keeps_recorded_bits():
    h = hashlib.sha256()
    rng = np.random.default_rng(2024)
    for trial in range(30):
        k = trial % 3
        n = 2 * k + 3 + int(rng.integers(1, 5))
        pts = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        if trial % 5 == 4:
            pts = np.round(pts * 2) / 2  # a coarse grid: repeated and collinear points
        w = ConsistencyWitness(k, pts, {f"S{i}": i for i in range(n)})
        B = _nullspace_of(np.vstack([np.ones((1, n), dtype=complex), pts.T]))
        coeff = B @ (rng.standard_normal(B.shape[1]) + 1j * rng.standard_normal(B.shape[1]))
        dep = AffineDependence(tuple(f"S{i}" for i in range(n)), tuple(coeff.tolist()))
        red = reduce_dependence_support(dep, w)
        assert len(red.labels) < n
        h.update(repr(red.labels).encode())
        for c in red.coeffs:
            h.update(f"{c.real.hex()},{c.imag.hex()};".encode())
    assert h.hexdigest() == REDUCER_DIGEST


def test_reducer_identity_below_bound():
    w = _witness(1, [[0j], [1 + 0j]], {"S0": 0, "S1": 1})
    dep = AffineDependence(("S0", "S1"), (1.0, -1.0))
    red = reduce_dependence_support(dep, w)  # support 2, below 2k+3 = 5
    assert red.labels == dep.labels
    assert red.coeffs == dep.coeffs


# -- block lifting ------------------------------------------------------------------


def _gen_case(n_sets, seed, planted):
    """A d=2 family with a planted-transversal witness, or with Gaussian
    targets in C^1 (built as the refutation benchmark builds them)."""
    inst = gen_instance(GenSpec(d=2, n_sets=n_sets, planted=planted, seed=seed))
    if planted:
        return inst.family, witness_from_transversal(inst, inst.planted)
    rng = np.random.default_rng([seed, 1])
    pts = rng.standard_normal((n_sets, 1)) + 1j * rng.standard_normal((n_sets, 1))
    assignment = {l: i for i, l in enumerate(inst.family.labels)}
    return inst.family, ConsistencyWitness(1, pts, assignment)


# (sets, seed, planted) -> (status, dependences, circuits, sampled, violating
# labels, max_lift_residual.hex()) at samples=32, recorded when every lift was
# still solved on its own; the first three fail inside a sampled block of 32
# (first no-lift at position 15, 11 and 14; the last two blocks hold three
# no-lifts each), the other fails are circuits, whose counts stop at size 3
GOLDEN = {
    (4, 31, False): ("fail", 36, 4, 32, ("S0", "S1", "S2", "S3"), "0x0.0p+0"),
    (4, 1111, False): ("fail", 36, 4, 32, ("S0", "S1", "S2", "S3"), "0x0.0p+0"),
    (4, 1337, False): ("fail", 36, 4, 32, ("S0", "S1", "S2", "S3"), "0x0.0p+0"),
    (3, 1, True): ("pass", 1, 1, 0, None, "0x1.43b0f532b2e5dp-52"),
    (4, 2, True): ("pass", 36, 4, 32, None, "0x1.cb2708efe7113p-48"),
    (5, 3, True): ("pass", 202, 10, 192, None, "0x1.7410dbd542427p-48"),
    (6, 4, True): ("pass", 692, 20, 672, None, "0x1.746d62b6a33cdp-42"),
    (6, 5, True): ("pass", 692, 20, 672, None, "0x1.c5d47d1f49c16p-39"),
    (5, 6, True): ("pass", 202, 10, 192, None, "0x1.101c60d3d8f53p-45"),
    (4, 11, False): ("fail", 4, 4, 0, ("S0", "S1", "S2"), "0x0.0p+0"),
    (5, 12, False): ("fail", 10, 10, 0, ("S0", "S3", "S4"), "0x0.0p+0"),
    (6, 13, False): ("fail", 20, 20, 0, ("S0", "S2", "S3"), "0x0.0p+0"),
    (4, 14, False): ("pass", 36, 4, 32, None, "0x1.8170f9660295bp-49"),
    (5, 15, False): ("fail", 10, 10, 0, ("S0", "S1", "S2"), "0x0.0p+0"),
    (6, 16, False): ("fail", 20, 20, 0, ("S0", "S1", "S2"), "0x0.0p+0"),
}


def _block_lifts(fam, w, cfg):
    """Every lift of a passing check, block by block as the check solves them;
    none for a failing one."""
    lifts = []
    for block in _blocks(enumerate_dependences(fam, w, cfg)):
        [(resid, lift, nolift)] = _batched_lifts(fam, [block], cfg)
        if nolift is not None:
            return []
        lifts.extend(map(lift, range(len(resid))))
    return lifts


@pytest.mark.parametrize("case", list(GOLDEN), ids=str)
def test_block_lifts_keep_recorded_verdicts(case):
    fam, w = _gen_case(*case)
    cfg = ConsistencyConfig(samples=32, seed=case[1])
    v = check_dependency_consistency(fam, w, cfg)
    violating = v.violation.dependence.labels if v.violation is not None else None
    got = (v.status, v.n_dependences, v.n_circuits, v.n_sampled, violating)
    assert got + (v.max_lift_residual.hex(),) == GOLDEN[case]
    assert v.violation is None or v.violation.exact
    # a lift does not depend on the block it was solved in
    for lift in _block_lifts(fam, w, cfg):
        alone = lift_dependence(fam, lift.dependence, cfg)
        assert np.asarray(lift.r).tobytes() == np.asarray(alone.r).tobytes()
        assert lift.points.tobytes() == alone.points.tobytes()


@pytest.mark.parametrize("case", [c for c, g in GOLDEN.items() if g[0] == "pass"], ids=str)
def test_worst_lift_is_the_first_largest_kept_lift(case):
    fam, w = _gen_case(*case)
    cfg = ConsistencyConfig(samples=32, seed=case[1])
    v = check_dependency_consistency(fam, w, cfg)
    kept = _block_lifts(fam, w, cfg)
    resid = [max(lift.residuals()) for lift in kept]
    want = kept[resid.index(max(resid))]
    got = v.worst_lift
    assert not hasattr(v, "lifts") and got is not None
    assert got.dependence.coeffs == want.dependence.coeffs
    assert np.asarray(got.r).tobytes() == np.asarray(want.r).tobytes()
    assert got.points.tobytes() == want.points.tobytes()
    for a, b in zip(got.vertex_weights, want.vertex_weights, strict=True):
        assert a.tobytes() == b.tobytes()
    assert max(got.residuals()).hex() == v.max_lift_residual.hex() == GOLDEN[case][-1]


def _enumeration_digest(deps):
    h = hashlib.sha256()
    for dep in deps:
        h.update(repr((dep.labels, dep.origin)).encode())
        for c in dep.coeffs:
            h.update(f"{c.real.hex()},{c.imag.hex()};".encode())
    return h.hexdigest()


# sha256 over the labels, origin and coefficient bits of every enumerated
# dependence of each GOLDEN case at samples=32, recorded when each candidate
# was still canonicalised on its own
ENUMERATION_DIGESTS = {
    (4, 31, False): "1be5b7c65c2669f7f8ed71c50e6ad2a63426e0989468092fd386bf5847a8aa92",
    (4, 1111, False): "3fce9512ec31e1444a726a03a047efdc753421f60e5e5e83cf74e150862db20e",
    (4, 1337, False): "fea8af7f1c2b8a71c37532f7ee6023e0c852c8c9e351d8dc6a02eb11dbc4e6e1",
    (3, 1, True): "30f6536125c99e0eadddbca34f10a9e716569ef220c640b7d9152f0771642f36",
    (4, 2, True): "5e67b981a884a8a2c773165d7b81ab5dad507ada5c0e19269382682564dbcb81",
    (5, 3, True): "e0c1b4fd95add907f052bc193239b0fa7028f5c06a1646145d9d43bc47b6202b",
    (6, 4, True): "5f82c8d9a6f0b44af475f7d9f266cc511c0a29d492ba47d0a1639514500b30e6",
    (6, 5, True): "916b2fac62642eafca2a3bcf16a2ec01fd49876f86e74fd295345c28a7f08a6c",
    (5, 6, True): "ac172d4352287cc25fec5f03fb239ba1430bbb23f67da92dfd4ace03f2e75405",
    (4, 11, False): "cda57397011f890b7a172eb741bc77bcb46d3ae12c731a851ebdf2bc1c680527",
    (5, 12, False): "2abe350015a3532c7fe0944c2762ee2406db5a79184b08effaee4b953097eb3e",
    (6, 13, False): "c68e255f9725ba29197c11fe7b6ea85270f908eebe5044471de6cc79fce3e7ad",
    (4, 14, False): "29b0a1bfc566013a78f1ca7151e03981c103152112782fff01ae556f47d7f4da",
    (5, 15, False): "024f881435960dfa7282f586c4da812fed13c1acb5454cae4416c02453edf1a1",
    (6, 16, False): "0c913596e0b8fb6df7aef838262344c42850e3ff6166a5218bcdbd3ff554c114",
}


@pytest.mark.parametrize("case", list(GOLDEN), ids=str)
def test_enumeration_keeps_recorded_bits(case):
    fam, w = _gen_case(*case)
    deps = enumerate_dependences(fam, w, ConsistencyConfig(samples=32, seed=case[1]))
    assert _enumeration_digest(deps) == ENUMERATION_DIGESTS[case]


def _degenerate_case(name):
    """Witnesses the generic GOLDEN families miss: coincident points in C^1,
    coincident and collinear points in C^2 (the nullity changes within one
    subfamily size, and some circuits have zero coefficients), and C^0."""
    fam = _family("complex", *[[[complex(i)]] for i in range(6)])
    every = {f"S{i}": i for i in range(6)}
    if name == "k1-coincident":
        return fam, _witness(1, [[0j], [0j], [0j], [1], [2 + 1j], [0.5j]], every), 5
    if name == "k2-collinear":
        line = [[0j, 0j], [1, 1j], [2, 2j], [0j, 0j], [1j, 2], [3, -1 + 1j]]
        return fam, _witness(2, line, every), 6
    fam = fam.subfamily(("S0", "S1", "S2", "S3"))
    return fam, trivial_witness(fam), 7


# sha256 of the enumeration of each degenerate witness at samples=8, recorded
# when each subfamily was still eliminated on its own
DEGENERATE_DIGESTS = {
    "k1-coincident": "1ea29292e28deab15bb702d958c8ca6643ba88761816fe3064b0724a6b10a0f7",
    "k2-collinear": "58e66ffe61fbb0eace0ae4a34a5e9418a4ceca27f512f81387b3921d19e1918d",
    "k0": "da693060b0f8f54013dea57d0f0ebc6930d580abe3a31eb825196b36432a73bb",
}


@pytest.mark.parametrize("name", list(DEGENERATE_DIGESTS))
def test_degenerate_enumeration_keeps_recorded_bits(name):
    fam, w, seed = _degenerate_case(name)
    deps = enumerate_dependences(fam, w, ConsistencyConfig(samples=8, seed=seed))
    assert _enumeration_digest(deps) == DEGENERATE_DIGESTS[name]


def _degenerate_batch(count=48, seed=48):
    """Seeded witnesses at k = 0..3 on 5-7 labels: after two fresh points,
    each point coincides with an earlier one, lies on the line through the
    first two at a step rounded to one decimal, or is fresh, rounded to one
    decimal.  Their circuits of a size often have a smaller support that
    another subfamily or size shares."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        k, n = i % 4, 5 + i % 3
        pts = []
        for j in range(n):
            mode = rng.integers(3) if j >= 2 else 2
            if mode == 0:
                pts.append(pts[rng.integers(j)])
            elif mode == 1:
                pts.append(pts[0] + round(float(rng.standard_normal()), 1) * (pts[1] - pts[0]))
            else:
                pts.append(np.round(rng.standard_normal(k) + 1j * rng.standard_normal(k), 1))
        fam = _family("complex", *[[[complex(j)]] for j in range(n)])
        yield fam, _witness(k, np.reshape(pts, (n, k)), {f"S{j}": j for j in range(n)}), i


# sha256 of the enumerations of the whole batch at samples=4, in order,
# recorded when partial-support rows were deduplicated apart from full ones:
# 925 partial-support candidates at sizes 3 to 7, of which 559 are kept
DEGENERATE_BATCH_DIGEST = "30928929bc61c6b61decc304a0d6d7429b0166e5e62ae32dadce95e098543e6a"


def test_degenerate_batch_keeps_recorded_bits():
    deps = [dep for fam, w, seed in _degenerate_batch()
            for dep in enumerate_dependences(fam, w, ConsistencyConfig(samples=4, seed=seed))]
    assert _enumeration_digest(deps) == DEGENERATE_BATCH_DIGEST


def test_unverified_witness_in_block_is_decided_alone_exactly(monkeypatch):
    import tvlab.lp as lp

    fam, w = _gen_case(4, 2, True)
    cfg = ConsistencyConfig(samples=32, seed=2)
    deps = enumerate_dependences(fam, w, cfg)
    target = deps[10]
    assert target.origin == "sampled" and deps[9].labels == deps[11].labels == target.labels
    cols = _cone_generators(fam, target)
    target_rows = np.vstack([cols.T, np.ones(len(cols))])

    verified = lp._verified

    def reject_target(rows, rhs, n_nonneg, x):
        # the batched re-substitution of a block keeps every witness but the target's
        target = np.array([np.array_equal(A, target_rows) for A in rows])
        return verified(rows, rhs, n_nonneg, x) & ~target

    exact_solves = []
    solve = lp._solve_standard

    def spy(A, b, c, ar):
        result = solve(A, b, c, ar)
        if ar is lp._EXACT:
            exact_solves.append((A, result[0]))
        return result

    monkeypatch.setattr(lp, "_verified", reject_target)
    monkeypatch.setattr(lp, "_solve_standard", spy)
    v = check_dependency_consistency(fam, w, cfg)
    assert v.passed and v.n_dependences == len(deps) == 36
    # only the rejected program was escalated, alone, and decided exactly
    assert len(exact_solves) == 1
    A, status = exact_solves[0]
    assert A.shape[0] == 1 and np.array_equal(A[0], target_rows)
    assert status.tolist() == ["feasible"]
    # the lifts as the check solved them, the target's again decided alone
    lift = _block_lifts(fam, w, cfg)[10]
    assert len(exact_solves) == 2 and lift.dependence.coeffs == target.coeffs
    exact = lift_dependence(fam, target, ConsistencyConfig(exact=True))
    assert np.asarray(lift.r).tobytes() == np.asarray(exact.r).tobytes()


def _lifts_until_nolift(fam, blocks, cfg):
    """Residuals and lifts of _batched_lifts over the blocks, in order, up to
    the first NoLift, which is returned with them."""
    resid, lifts = [], []
    for r, lift, nolift in _batched_lifts(fam, blocks, cfg):
        resid += r.tolist()
        lifts += map(lift, range(len(r)))
        if nolift is not None:
            return resid, lifts, nolift
    return resid, lifts, None


# (case, index of the rejected dependence): of (4, 31, False), the first and
# the last of its batch of four circuits, and the first, an inner one and the
# last before the NoLift at 19 of its sampled batch, 4 to 35; the last of
# (4, 2, True), which passes
REJECTED = [((4, 31, False), 0), ((4, 31, False), 3), ((4, 31, False), 4),
            ((4, 31, False), 10), ((4, 31, False), 18), ((4, 2, True), 35)]


@pytest.mark.parametrize("case, at", REJECTED, ids=str)
def test_a_rejected_witness_ends_its_run_of_kept_witnesses(case, at, monkeypatch):
    # the float witness of one dependence is rejected wherever it is solved,
    # so it ends a run of kept witnesses of its batch, or begins the batch's
    # only run after it: the batches give the residual bits, lifts and NoLift
    # of each dependence lifted alone under the same rejection, and only the
    # rejected program reaches the exact solve
    import tvlab.lp as lp

    fam, w = _gen_case(*case)
    cfg = ConsistencyConfig(samples=32, seed=case[1])
    deps = enumerate_dependences(fam, w, cfg)
    cols = _cone_generators(fam, deps[at])
    target_rows = np.vstack([cols.T, np.ones(len(cols))])
    verified = lp._verified

    def reject_target(rows, rhs, n_nonneg, x):
        target = np.array([np.array_equal(A, target_rows) for A in rows])
        return verified(rows, rhs, n_nonneg, x) & ~target

    exact = []
    _spy(monkeypatch, exact, lp, "_solve_standard", lambda A, b, c, ar: A if ar is lp._EXACT else None)
    monkeypatch.setattr(lp, "_verified", reject_target)
    resid, lifts, nolift = _lifts_until_nolift(fam, _blocks(deps), cfg)
    solved = [A for A in exact if A is not None]
    assert len(solved) == 1 and np.array_equal(solved[0], target_rows[None])
    want = _lifts_until_nolift(fam, [block for dep in deps for block in _blocks([dep])], cfg)
    assert np.array(resid).tobytes() == np.array(want[0]).tobytes()
    assert len(lifts) == len(want[1]) > at
    for got, alone in zip(lifts, want[1]):
        assert got.dependence.coeffs == alone.dependence.coeffs
        assert np.asarray(got.r).tobytes() == np.asarray(alone.r).tobytes()
        assert got.points.tobytes() == alone.points.tobytes()
        for a, b in zip(got.vertex_weights, alone.vertex_weights, strict=True):
            assert a.tobytes() == b.tobytes()
    assert (nolift is None) == (want[2] is None) == case[2]
    if nolift is not None:
        assert nolift.dependence.coeffs == want[2].dependence.coeffs == deps[19].coeffs
        assert nolift.certificate.farkas_exact == want[2].certificate.farkas_exact


def _spy(monkeypatch, calls, module, name, tag=None):
    """Record a call of module.name in calls, as tag(*args) or its name."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(tag(*args) if tag else name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("case", [c for c, g in GOLDEN.items() if g[0] == "fail"], ids=str)
def test_block_certifies_its_nolift_from_its_own_basis(case, monkeypatch):
    # one float tableau per lifted batch, which holds several blocks, and no
    # float re-solve of the NoLift: its Farkas functional comes from its
    # batch's final basis, and is read off once, also in the batches that
    # hold three no-lifts
    import tvlab.consistency as consistency
    import tvlab.lp as lp

    fam, w = _gen_case(*case)
    calls = []
    _spy(monkeypatch, calls, consistency, "certify")
    _spy(monkeypatch, calls, consistency, "_lift_batch")
    _spy(monkeypatch, calls, lp, "_basis_farkas")
    _spy(monkeypatch, calls, lp, "_solve_standard",
         lambda A, b, c, ar: "float" if ar is lp._FLOAT else "exact")
    v = check_dependency_consistency(fam, w, ConsistencyConfig(samples=32, seed=case[1]))
    assert v.status == "fail" and v.violation.exact
    assert calls.count("float") == calls.count("certify") > 0
    assert calls.count("certify") <= calls.count("_lift_batch")
    assert calls.count("_basis_farkas") == 1


def test_nolift_in_a_later_block_of_a_batch_is_the_first_and_ends_the_work(monkeypatch):
    # the ten circuits of (5, 12) share one batch, and the first NoLift is a
    # later one of them; with every float witness rejected, each dependence
    # before it is decided exactly, alone, and nothing runs after its
    # certificate
    import tvlab.consistency as consistency
    import tvlab.lp as lp

    fam, w = _gen_case(5, 12, False)
    cfg = ConsistencyConfig(samples=32, seed=12)
    deps = enumerate_dependences(fam, w, cfg)
    first = next(i for i, d in enumerate(deps) if isinstance(lift_dependence(fam, d, cfg), NoLift))
    circuits = [d for d in deps if len(d.labels) == 3]
    assert len(circuits) == 10 and 0 < first < len(circuits)
    assert all(d.origin == "circuit" for d in circuits)

    calls, batches = [], []
    monkeypatch.setattr(lp, "_verified", lambda rows, rhs, n_nonneg, x: np.zeros(len(rows), bool))
    _spy(monkeypatch, batches, consistency, "certify", lambda rows, rhs: len(rows))
    _spy(monkeypatch, calls, lp, "_basis_farkas")
    _spy(monkeypatch, calls, lp, "_solve_standard",
         lambda A, b, c, ar: "float" if ar is lp._FLOAT else "exact")
    v = check_dependency_consistency(fam, w, cfg)
    assert v.status == "fail" and v.violation.exact
    dep = v.violation.dependence
    assert (dep.labels, dep.coeffs) == (deps[first].labels, deps[first].coeffs)
    assert batches == [len(circuits)]
    assert calls == ["float"] + ["exact"] * first + ["_basis_farkas"]


@pytest.mark.parametrize("budget", ["module", "one-block"])
def test_batches_keep_to_the_cell_budget_and_the_block_residuals(budget, monkeypatch):
    # the 960 sampled LPs of support size 4 hold more cells than the budget,
    # so they go in several batches, each within it; at a budget below one
    # block, each block is a batch alone.  Either way each block's residuals
    # are those of the lifts of its own batch, to the bit.  The 1364
    # dependences at samples=64 were counted with the budget at 2^16
    import tvlab.consistency as consistency

    fam, w = _gen_case(6, 4, True)
    cfg = ConsistencyConfig(samples=64, seed=4)
    lifted = [max(lift.residuals()) for lift in _block_lifts(fam, w, cfg)]
    if budget == "one-block":
        monkeypatch.setattr(consistency, "_BATCH_CELLS", 1)
    limit = consistency._BATCH_CELLS

    def cells(shape):
        B, m, n = shape
        return B * (m + 1) * (n + m + 1)

    batches, resid = [], []
    lift_batch = consistency._lift_batch

    def lift_batch_spy(family, batch, config):
        out = lift_batch(family, batch, config)
        resid.append(out[0])
        return out

    _spy(monkeypatch, batches, consistency, "certify", lambda rows, rhs: rows.shape)
    monkeypatch.setattr(consistency, "_lift_batch", lift_batch_spy)
    v = check_dependency_consistency(fam, w, cfg)
    assert v.passed and v.n_dependences == 1364
    deps = enumerate_dependences(fam, w, cfg)
    blocks = [list(b) for _, b in groupby(deps, attrgetter("labels"))]
    size4 = [d for d in deps if len(d.labels) == 4]
    n = sum(len(fam[label].vertices) for label in size4[0].labels)
    assert cells((len(size4), 2 * fam.dim + 3, n)) > limit
    if budget == "module":
        assert all(cells(shape) <= limit for shape in batches)
        assert len(blocks) > len(batches) > 3  # sizes 3, 4 and 5, size 4 split
    else:
        assert [shape[0] for shape in batches] == list(map(len, blocks))
    assert np.concatenate(resid).tobytes() == np.array(lifted).tobytes()


@pytest.mark.parametrize("seed", [1, 11], ids=["fail", "pass"])
def test_mixed_vertex_counts_give_the_blockwise_verdict(seed, monkeypatch):
    # sets of 2 to 5 vertices give the blocks of one support size several
    # cone LP shapes, so a batch ends where the shape changes; the verdict,
    # its NoLift and the largest residual are those of one batch per block
    import tvlab.consistency as consistency

    inst = gen_instance(GenSpec(d=2, n_sets=6, planted=True, seed=seed))
    w = witness_from_transversal(inst, inst.planted)
    keep = [5, 3, 4, 2, 5, 3]  # each set keeps its planted vertex, the last
    sets = tuple(Polytope("complex", P.vertices[-k:]) for P, k in zip(inst.family.sets, keep))
    fam = Family(inst.family.labels, sets)
    cfg = ConsistencyConfig(samples=16, seed=seed)
    want, worst = None, 0.0
    for block in _blocks(enumerate_dependences(fam, w, cfg)):
        [(resid, _, nolift)] = _batched_lifts(fam, [block], cfg)
        if nolift is not None:
            want = nolift
            break
        worst = max(worst, *resid.tolist())
    shapes = []
    _spy(monkeypatch, shapes, consistency, "certify", lambda rows, rhs: rows.shape)
    v = check_dependency_consistency(fam, w, cfg)
    assert len(set(shapes)) > 1 and len({m for _, m, _ in shapes}) == 1
    if want is None:
        assert v.passed and v.max_lift_residual.hex() == worst.hex()
    else:
        got = v.violation
        assert v.status == "fail" and got.dependence.coeffs == want.dependence.coeffs
        assert got.certificate.farkas_exact == want.certificate.farkas_exact


# (sets, seed, planted) at samples=16: Gaussian witnesses that fail on a
# circuit, pass, or, for (5, 231), fail inside the sampled size 4 of five
# sets, and planted families, which pass
EARLY_STOP_CASES = [
    (4, 200, False), (4, 210, False), (5, 201, False), (5, 213, False), (5, 231, False),
    (6, 202, False), (6, 229, False), (4, 205, True), (5, 206, True), (6, 207, True),
]


@pytest.mark.parametrize("case", EARLY_STOP_CASES, ids=str)
def test_a_fail_stops_the_enumeration_at_its_size(case, monkeypatch):
    # the check lifts each size before it enumerates the next: its verdict is
    # that of every size enumerated first and lifted as one list, and a fail
    # counts and eliminates no size past its own
    import tvlab.consistency as consistency

    fam, w = _gen_case(*case)
    cfg = ConsistencyConfig(samples=16, seed=case[1])
    sizes = _sizes(fam, w, cfg)  # sizes 2, 3, ...
    deps = [dep for size in sizes for dep in size]
    assert _enumeration_digest(deps) == _enumeration_digest(enumerate_dependences(fam, w, cfg))
    want, worst, max_resid = None, None, 0.0  # the eager reference's verdict
    for resid, lift, nolift in _batched_lifts(fam, _blocks(deps), cfg):
        if nolift is not None:
            want, worst, max_resid = nolift, None, 0.0
            break
        i = int(resid.argmax())
        if resid[i] > max_resid:
            max_resid, worst = float(resid[i]), lift(i)
    widths = []
    _spy(monkeypatch, widths, consistency, "_complex_nullspace", lambda M: M.shape[-1])
    v = check_dependency_consistency(fam, w, cfg)
    if want is None:
        reached, prefix = len(sizes) + 1, deps
        assert v.passed and v.max_lift_residual.hex() == max_resid.hex()
        assert worst.dependence.coeffs == v.worst_lift.dependence.coeffs
        assert np.asarray(worst.r).tobytes() == np.asarray(v.worst_lift.r).tobytes()
        assert worst.points.tobytes() == v.worst_lift.points.tobytes()
    else:
        key = (want.dependence.labels, want.dependence.coeffs)
        at = next(i for i, size in enumerate(sizes) if any((d.labels, d.coeffs) == key for d in size))
        reached, prefix = at + 2, deps[: sum(map(len, sizes[: at + 1]))]
        got = v.violation
        assert v.status == "fail" and got.exact and v.worst_lift is None
        assert v.max_lift_residual.hex() == max_resid.hex()
        assert (got.dependence.labels, got.dependence.coeffs, got.dependence.origin) == (
            want.dependence.labels, want.dependence.coeffs, want.dependence.origin)
        assert got.certificate.farkas_exact == want.certificate.farkas_exact
    n_circuits = sum(1 for dep in prefix if dep.origin == "circuit")
    assert (v.n_dependences, v.n_circuits, v.n_sampled) == (
        len(prefix), n_circuits, len(prefix) - n_circuits)
    assert widths == list(range(2, reached + 1))


@pytest.mark.parametrize("seed", [31, 1111, 1337])
def test_nolift_inside_sampled_block_is_the_first_failure(seed):
    fam, w = _gen_case(4, seed, False)
    cfg = ConsistencyConfig(samples=32, seed=seed)
    deps = enumerate_dependences(fam, w, cfg)
    results = [lift_dependence(fam, d, cfg) for d in deps]
    first = next(i for i, r in enumerate(results) if isinstance(r, NoLift))
    assert deps[first].origin == "sampled" and deps[first - 1].labels == deps[first].labels
    v = check_dependency_consistency(fam, w, cfg)
    assert v.status == "fail" and v.n_dependences == len(deps) == 36
    dep = v.violation.dependence
    assert (dep.labels, dep.coeffs) == (deps[first].labels, deps[first].coeffs)
    # the certificate is an exact Farkas functional of this dependence's cone
    cert = v.violation.certificate
    assert cert.exact and not cert.feasible
    cols = _cone_generators(fam, dep)
    rows = np.vstack([cols.T, np.ones(len(cols))])
    y = cert.farkas_exact
    yA = [sum(yi * Fraction(a) for yi, a in zip(y, col)) for col in rows.T]
    assert all(t <= 0 for t in yA) and y[-1] > 0


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP items 2 and 7: the sets are tangent to the planted transversal, and "
    "the float-rounded witness has a true NoLift: on (S0, S1, S3, S5), for the "
    "float-sampled dependence and for an exact one on the same support, and on the "
    "circuit (S0, S4, S5), which a relative 1e-12 inflation of every set mends",
)
@pytest.mark.parametrize("seed", [868085967, 3397384325], ids=["304-22", "932-129"])
def test_planted_family_is_not_refuted(seed):
    # a planted family is consistent by construction (necessity-d2 seed 304,
    # pool index 22, and seed 932, pool index 129), but only for witness
    # points exactly on H and in the sets; rounded to floats, the first
    # witness has no lift on (S0, S1, S3, S5) and the second none on the
    # circuit (S0, S4, S5)
    inst = gen_instance(GenSpec(d=2, n_sets=6, planted=True, seed=seed))
    w = witness_from_transversal(inst, inst.planted)
    v = check_dependency_consistency(inst.family, w, ConsistencyConfig(samples=64, seed=seed))
    assert v.passed


def test_passing_check_builds_a_dependence_only_for_a_new_worst_lift(monkeypatch):
    # dependences stay arrays from enumeration to verdict: a passing 6-set
    # planted check builds at most one AffineDependence per lock-step batch,
    # for the batch's lift when it is a new worst one
    import tvlab.consistency as consistency

    fam, w = _gen_case(6, 4, True)
    calls = []
    _spy(monkeypatch, calls, consistency, "certify")
    _spy(monkeypatch, calls, consistency, "AffineDependence")
    v = check_dependency_consistency(fam, w, ConsistencyConfig(samples=32, seed=4))
    assert v.passed and v.n_dependences == 692
    assert 0 < calls.count("AffineDependence") <= calls.count("certify")
    assert isinstance(v.worst_lift.dependence, AffineDependence)


def test_config_rejects_samples_that_are_not_integers():
    # 2.5 samples would reach numpy's draw inside the check and raise there
    for bad in (2.5, True, "3", None):
        with pytest.raises(ValueError, match="samples"):
            ConsistencyConfig(samples=bad)
    assert ConsistencyConfig(samples=np.int64(3)).samples == 3


def test_config_rejects_seeds_that_are_not_nonnegative_integers():
    # True would run seed 1; 2.5 and "x" would reach numpy's generator inside
    # the check as a TypeError, and -1 as numpy's own ValueError
    for bad in (True, np.bool_(False), 2.5, 2.0, "x", None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            ConsistencyConfig(seed=bad)
    assert ConsistencyConfig(seed=np.int64(7)).seed == 7
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        ConsistencyConfig(seed=-1)


def test_witness_rejects_indices_that_are_not_integers():
    # a float index would reach the check and fail there as an IndexError,
    # and a bool would name point 0 or 1
    pts = np.zeros((2, 1))
    for bad in (0.7, 1.0, True, np.bool_(False), "0", None):
        with pytest.raises(ValueError, match="integer index"):
            ConsistencyWitness(1, pts, {"S0": 0, "S1": bad})
    assert ConsistencyWitness(1, pts, {"S0": np.int64(1), "S1": 0}).assignment["S0"] == 1


def test_witness_rejects_target_dims_that_are_not_integers():
    # True and 1.0 compared equal to the points' width and were stored
    pts = np.zeros((2, 1))
    for bad in (True, 1.0, "1", None):
        with pytest.raises(ValueError, match="target_dim must be an integer"):
            ConsistencyWitness(bad, pts, {"S0": 0})
    assert ConsistencyWitness(np.int64(1), pts, {"S0": 0}).k == 1


def test_config_rejects_negative_samples():
    with pytest.raises(ValueError, match="samples"):
        ConsistencyConfig(samples=-3)
    assert ConsistencyConfig(samples=0).samples == 0
