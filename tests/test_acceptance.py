"""Acceptance gate: eight end-to-end criteria at their stated tolerances.

Each test prints one summary line; run with `pytest tests/test_acceptance.py -s`
to see them.  The planted corpus used by criteria 1 and 4 is built once and
shared."""

from __future__ import annotations

import functools
import json
import time

import numpy as np

from tvlab.cli import main
from tvlab.consistency import (
    AffineDependence,
    ConsistencyConfig,
    ConsistencyWitness,
    NoLift,
    check_dependency_consistency,
    reduce_dependence_support,
)
from tvlab.geometry import (
    ComplexHyperplane,
    Family,
    Polytope,
    SpherePoint,
    embed_family,
    hyperplane_from_sphere_point,
)
from tvlab.harness import (
    EquivConfig,
    _generate,
    dumps_canonical,
    run_equivalence,
    witness_from_transversal,
)
from tvlab.lp import hulls_intersect, kirchberger_separated
from tvlab.transversal import (
    NotFound,
    TransversalConfig,
    borsuk_map,
    find_borsuk_zero,
    find_complex_transversal,
    verify_transversal,
)

N_CORPUS = 200


@functools.lru_cache(maxsize=1)
def _planted_corpus():
    """200 planted instances, d=2, 3 to 6 sets, seeds 0..199, with their
    witnesses."""
    corpus = []
    for seed in range(N_CORPUS):
        rng = np.random.default_rng(seed)
        n_sets = int(rng.integers(3, 7))
        inst = _generate(rng, 2, n_sets, 4, True, "complex", seed)
        witness = witness_from_transversal(inst, inst.planted)
        corpus.append((inst, witness))
    return tuple(corpus)


def test_criterion_1_necessity_suite():
    t0 = time.perf_counter()
    passes = 0
    for inst, witness in _planted_corpus():
        verdict = check_dependency_consistency(
            inst.family, witness, ConsistencyConfig(samples=64, seed=inst.seed)
        )
        passes += verdict.passed
    elapsed = time.perf_counter() - t0
    ok = passes == N_CORPUS and elapsed < 120.0
    print(
        f"criterion 1 necessity suite: {'PASS' if ok else 'FAIL'}"
        f" ({passes}/{N_CORPUS} consistency passes in {elapsed:.1f}s, limit 120s)"
    )
    assert passes == N_CORPUS
    assert elapsed < 120.0


def test_criterion_2_d1_equivalence():
    report = run_equivalence(EquivConfig(trials=200, d=1, seed=0, samples=64))
    agg = report.aggregates
    agreements = agg["agreements"]
    false_fails = agg["false_fails"]
    ok = agreements >= 198 and false_fails == 0
    print(
        f"criterion 2 d=1 equivalence: {'PASS' if ok else 'FAIL'}"
        f" ({agreements}/200 agreements with the exact LP oracle,"
        f" {false_fails} false fails)"
    )
    assert agreements >= 198
    assert false_fails == 0


def test_criterion_3_oddness_and_projection():
    rng = np.random.default_rng(2024)
    odd_violations = 0
    varia_violations = 0
    for _ in range(10_000):
        d = int(rng.integers(1, 4))
        n_sets = int(rng.integers(1, 4))
        polys = tuple(
            Polytope(
                "complex",
                rng.standard_normal((3, d + 1)) + 1j * rng.standard_normal((3, d + 1)),
            )
            for _ in range(n_sets)
        )
        fam = Family(tuple(f"S{i}" for i in range(n_sets)), polys)
        phi = rng.standard_normal((n_sets, d - 1)) + 1j * rng.standard_normal(
            (n_sets, d - 1)
        )
        x = SpherePoint.normalized(
            rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        )
        ev = borsuk_map(x, fam, phi)
        ev_neg = borsuk_map(SpherePoint(-x.coords), fam, phi)
        if float(np.linalg.norm(ev.value + ev_neg.value)) > 1e-10:
            odd_violations += 1
        for (_, q), (_, poly) in zip(ev.coefficients, fam):
            if abs(q) == 0.0:
                continue
            c = poly.vertices @ np.conj(x.coords)
            if np.min((np.conj(q) * c).real) < abs(q) ** 2 - 1e-9:
                varia_violations += 1
    ok = odd_violations == 0 and varia_violations == 0
    print(
        f"criterion 3 oddness and projection: {'PASS' if ok else 'FAIL'}"
        f" (10000 draws, {odd_violations} oddness and"
        f" {varia_violations} variational violations)"
    )
    assert odd_violations == 0
    assert varia_violations == 0


def test_criterion_4_borsuk_zero_finding():
    cfg = TransversalConfig(starts=32, iters=2000, seed=0)
    successes = 0
    cross_failures = 0
    for inst, witness in _planted_corpus():
        emb = embed_family(inst.family)
        x = find_borsuk_zero(emb, witness, cfg)
        if isinstance(x, NotFound):
            continue
        residual = borsuk_map(x, emb, witness).norm
        H = hyperplane_from_sphere_point(x)
        if residual <= 1e-6 and verify_transversal(H, inst.family, tol=1e-4).passed:
            successes += 1
            direction = find_complex_transversal(inst.family, cfg)
            if isinstance(direction, NotFound):
                cross_failures += 1
    rate = successes / N_CORPUS
    ok = rate >= 0.95 and cross_failures == 0
    print(
        f"criterion 4 zero finding: {'PASS' if ok else 'FAIL'}"
        f" ({successes}/{N_CORPUS} verified zeros, {cross_failures} cross-validation failures)"
    )
    assert rate >= 0.95
    assert cross_failures == 0


def test_criterion_5_kirchberger_suite():
    rng = np.random.default_rng(5)
    agree = 0
    for _ in range(500):
        k = int(rng.integers(1, 4))
        nu = int(rng.integers(1, 9))
        nv = int(rng.integers(1, 11 - nu))
        U = rng.standard_normal((nu, k))
        V = rng.standard_normal((nv, k))
        verdict = kirchberger_separated(U, V)
        full = hulls_intersect(U, V)
        agree += verdict.separated == (not full.feasible)
    print(
        f"criterion 5 kirchberger suite: {'PASS' if agree == 500 else 'FAIL'}"
        f" ({agree}/500 verdicts equal the full hull intersection)"
    )
    assert agree == 500


def test_criterion_6_caratheodory_reduction():
    rng = np.random.default_rng(6)
    ok_count = 0
    for _ in range(200):
        k = int(rng.integers(0, 4))
        bound = 2 * k + 3
        support = int(rng.integers(max(k + 2, 2), 11))
        pts = rng.standard_normal((support, k)) + 1j * rng.standard_normal((support, k))
        labels = tuple(f"S{i}" for i in range(support))
        witness = ConsistencyWitness(k, pts, {l: i for i, l in enumerate(labels)})
        # a dependence: null vector of the stacked (ones; targets) system
        M = np.vstack([np.ones((1, support), dtype=complex), pts.T])
        _, _, Vh = np.linalg.svd(M)
        null = np.conj(Vh[np.linalg.matrix_rank(M) :])
        if null.shape[0] == 0:
            continue
        a = null[0]
        dep = AffineDependence(labels, tuple(a), origin="sampled")
        red = reduce_dependence_support(dep, witness)
        s0 = abs(sum(red.coeffs))
        tgt = np.asarray([witness.point_of(l) for l in red.labels])
        s1 = float(np.linalg.norm(np.asarray(red.coeffs) @ tgt)) if k else 0.0
        if len(red.labels) <= bound and s0 <= 1e-9 and s1 <= 1e-9:
            ok_count += 1
    print(
        f"criterion 6 support reduction: {'PASS' if ok_count == 200 else 'FAIL'}"
        f" ({ok_count}/200 reduced within bounds and tolerances)"
    )
    assert ok_count == 200


def test_criterion_7_trivial_fail_certificates():
    rng = np.random.default_rng(7)
    confirmed = 0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(0, 3))
        u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v = u + rng.standard_normal(d) + 1j * rng.standard_normal(d)
        fam = Family(
            ("A", "B"),
            (Polytope("complex", u[None, :]), Polytope("complex", v[None, :])),
        )
        target = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        witness = ConsistencyWitness(k, target[None, :], {"A": 0, "B": 0})
        verdict = check_dependency_consistency(
            fam, witness, ConsistencyConfig(samples=8, seed=0)
        )
        if (
            not verdict.passed
            and isinstance(verdict.violation, NoLift)
            and verdict.violation.exact
        ):
            confirmed += 1
    print(
        f"criterion 7 trivial-fail certificates: {'PASS' if confirmed == 50 else 'FAIL'}"
        f" ({confirmed}/50 rationally confirmed)"
    )
    assert confirmed == 50


def test_criterion_8_report_determinism(tmp_path):
    args = ["equiv", "--trials", "6", "--d", "1", "--seed", "9"]
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + ["-o", str(p1)]) == 0
    assert main(args + ["-o", str(p2)]) == 0
    same_d1 = p1.read_bytes() == p2.read_bytes()

    args = ["equiv", "--trials", "2", "--d", "2", "--seed", "9"]
    q1, q2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(args + ["-o", str(q1)]) == 0
    assert main(args + ["-o", str(q2)]) == 0
    same_d2 = q1.read_bytes() == q2.read_bytes()

    ok = same_d1 and same_d2
    print(
        f"criterion 8 report determinism: {'PASS' if ok else 'FAIL'}"
        f" (byte-identical: d=1 {same_d1}, d=2 {same_d2})"
    )
    assert same_d1 and same_d2
