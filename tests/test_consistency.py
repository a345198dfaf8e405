"""Dependency-consistency (complex) and separation-consistency (real)
checkers: dependence enumeration, cone lifting, verdict certificates, and
the exact support reducer."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from tvlab.consistency import (
    AffineDependence,
    ConsistencyConfig,
    ConsistencyWitness,
    Lift,
    NoLift,
    _complex_nullspace,
    _lift_groups,
    check_dependency_consistency,
    enumerate_dependences,
    lift_dependence,
    reduce_dependence_support,
    separates_consistently,
    trivial_witness,
)
from tvlab.geometry import Family, Polytope
from tvlab.harness import GenSpec, gen_instance, witness_from_transversal
from tvlab.lp import nontrivial_zero_in_cone


def _family(ambient, *vertex_lists):
    polys = tuple(Polytope(ambient, np.asarray(v)) for v in vertex_lists)
    return Family(tuple(f"S{i}" for i in range(len(polys))), polys)


def _witness(k, points, assignment):
    return ConsistencyWitness(k, np.asarray(points), assignment)


# -- null space ----------------------------------------------------------------


def test_nullspace_rank_and_residual():
    rng = np.random.default_rng(0)
    for _ in range(40):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        M = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        B = _complex_nullspace(M)
        assert B.shape[1] == n - np.linalg.matrix_rank(M, tol=1e-10)
        if B.size:
            assert np.max(np.abs(M @ B)) < 1e-9


def test_nullspace_threshold_collapses_tiny_rows():
    M = np.array([[1e-12, 1e-12]], dtype=complex)
    B = _complex_nullspace(M, tol=1e-10)
    assert B.shape[1] == 2  # the row is below threshold: treated as zero


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
    groups = _lift_groups(fam, nolift.dependence.labels, nolift.dependence.coeffs)
    assert not nontrivial_zero_in_cone(groups, exact=True).certificate.feasible


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


def test_keep_lifts_retains_all():
    fam = _family("complex", [[1 + 1j]], [[1 + 1j]])
    verdict = check_dependency_consistency(
        fam, trivial_witness(fam), ConsistencyConfig(samples=4, seed=0, keep_lifts=True)
    )
    assert verdict.passed and len(verdict.lifts) == verdict.n_dependences


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
    assert separates_consistently(fam, w, k=1).passed


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
        B = _complex_nullspace(M)
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


def test_reducer_identity_below_bound():
    w = _witness(1, [[0j], [1 + 0j]], {"S0": 0, "S1": 1})
    dep = AffineDependence(("S0", "S1"), (1.0, -1.0))
    red = reduce_dependence_support(dep, w, max_support=5)
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
# no-lifts each), the other fails are circuits
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
    (4, 11, False): ("fail", 36, 4, 32, ("S0", "S1", "S2"), "0x0.0p+0"),
    (5, 12, False): ("fail", 202, 10, 192, ("S0", "S3", "S4"), "0x0.0p+0"),
    (6, 13, False): ("fail", 692, 20, 672, ("S0", "S2", "S3"), "0x0.0p+0"),
    (4, 14, False): ("pass", 36, 4, 32, None, "0x1.8170f9660295bp-49"),
    (5, 15, False): ("fail", 202, 10, 192, ("S0", "S1", "S2"), "0x0.0p+0"),
    (6, 16, False): ("fail", 692, 20, 672, ("S0", "S1", "S2"), "0x0.0p+0"),
}


@pytest.mark.parametrize("case", list(GOLDEN), ids=str)
def test_block_lifts_keep_recorded_verdicts(case):
    fam, w = _gen_case(*case)
    cfg = ConsistencyConfig(samples=32, seed=case[1], keep_lifts=True)
    v = check_dependency_consistency(fam, w, cfg)
    violating = v.violation.dependence.labels if v.violation is not None else None
    got = (v.status, v.n_dependences, v.n_circuits, v.n_sampled, violating)
    assert got + (v.max_lift_residual.hex(),) == GOLDEN[case]
    assert v.violation is None or v.violation.exact
    # a lift does not depend on the block it was solved in
    for lift in v.lifts or ():
        alone = lift_dependence(fam, lift.dependence, cfg)
        assert np.asarray(lift.r).tobytes() == np.asarray(alone.r).tobytes()
        assert lift.points.tobytes() == alone.points.tobytes()


def test_unverified_witness_in_block_is_decided_alone_exactly(monkeypatch):
    import tvlab.consistency as consistency
    import tvlab.lp as lp

    fam, w = _gen_case(4, 2, True)
    cfg = ConsistencyConfig(samples=32, seed=2, keep_lifts=True)
    deps = enumerate_dependences(fam, w, cfg)
    target = deps[10]
    assert target.origin == "sampled" and deps[9].labels == deps[11].labels == target.labels
    cols = np.vstack([g for _, g in consistency._lift_groups(fam, target.labels, target.coeffs)])
    target_rows = np.vstack([cols.T, np.ones(len(cols))])

    verify = lp._verify_feasible

    def reject_target(rows, rhs, n_nonneg, witness):
        if np.array_equal(rows, target_rows):
            return False
        return verify(rows, rhs, n_nonneg, witness)

    alone = []
    cone = consistency.nontrivial_zero_in_cone

    def spy(groups, exact=False):
        alone.append(cone(groups, exact=exact))
        return alone[-1]

    monkeypatch.setattr(lp, "_verify_feasible", reject_target)
    monkeypatch.setattr(consistency, "nontrivial_zero_in_cone", spy)
    v = check_dependency_consistency(fam, w, cfg)
    assert v.passed and v.n_dependences == len(deps) == 36
    # only the rejected program left the block, and it was decided exactly
    assert len(alone) == 1
    cert = alone[0].certificate
    assert cert.feasible and cert.exact
    lift = v.lifts[10]
    assert lift.dependence.coeffs == target.coeffs
    exact = lift_dependence(fam, target, ConsistencyConfig(exact=True))
    assert np.asarray(lift.r).tobytes() == np.asarray(exact.r).tobytes()


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
    cols = np.vstack([g for _, g in _lift_groups(fam, dep.labels, dep.coeffs)])
    rows = np.vstack([cols.T, np.ones(len(cols))])
    y = cert.farkas_exact
    yA = [sum(yi * Fraction(a) for yi, a in zip(y, col)) for col in rows.T]
    assert all(t <= 0 for t in yA) and y[-1] > 0


def test_config_rejects_negative_samples():
    with pytest.raises(ValueError, match="samples"):
        ConsistencyConfig(samples=-3)
    assert ConsistencyConfig(samples=0).samples == 0
