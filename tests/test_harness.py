"""Instance generation, canonical serialization, witness construction, the
equivalence experiment, report stability, and rational re-verification."""

from __future__ import annotations

import json

import numpy as np
import pytest

from tvlab.consistency import ConsistencyConfig, _exact_generators, check_dependency_consistency
from tvlab.geometry import ComplexHyperplane, Family, Polytope, hermitian_inner
from tvlab.harness import (
    EquivConfig,
    GenSpec,
    Instance,
    _orthonormal_complement,
    _run_trial,
    dumps_canonical,
    gen_instance,
    instance_from_json,
    read_instance,
    reverify_report,
    run_equivalence,
    witness_from_transversal,
    write_instance,
    write_report,
)
from tvlab.lp import _flat_program, certify
from tvlab.transversal import RealHyperplane, verify_transversal


# -- canonical serialization -----------------------------------------------------


def test_canonical_floats_and_containers():
    doc = {"a": 1, "b": 0.3, "c": [1.0, -0.0], "d": {"x": "s"}, "e": []}
    text = dumps_canonical(doc)
    assert text.endswith("\n")
    assert "0.29999999999999999" in text
    assert "-0" not in text  # negative zero is normalized
    again = dumps_canonical(json.loads(text))
    assert again == text


def test_canonical_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps_canonical({"x": float("inf")})


def test_canonical_roundtrip_many_floats():
    rng = np.random.default_rng(3)
    doc = {"vals": [float(v) for v in rng.standard_normal(200)]}
    text = dumps_canonical(doc)
    assert dumps_canonical(json.loads(text)) == text


# -- generation ------------------------------------------------------------------


def test_gen_planted_verifies_tightly():
    for seed in range(10):
        inst = gen_instance(GenSpec(d=2, n_sets=4, planted=True, seed=seed))
        rep = verify_transversal(inst.planted, inst.family, tol=1e-9)
        assert rep.passed
        # planted point contributes one extra vertex
        assert all(p.vertices.shape[0] == 5 for _, p in inst.family)


def test_gen_deterministic_bytes():
    spec = GenSpec(d=2, n_sets=5, planted=True, seed=123)
    s1 = dumps_canonical(gen_instance(spec).to_json())
    s2 = dumps_canonical(gen_instance(spec).to_json())
    assert s1 == s2
    other = dumps_canonical(gen_instance(GenSpec(d=2, n_sets=5, planted=True, seed=124)).to_json())
    assert other != s1


def test_gen_real_planted():
    inst = gen_instance(GenSpec(d=3, n_sets=3, planted=True, seed=9, ambient="real"))
    assert isinstance(inst.planted, RealHyperplane)
    for _, poly in inst.family:
        pr = poly.vertices @ inst.planted.normal
        assert pr.min() - 1e-9 <= inst.planted.offset <= pr.max() + 1e-9


def test_gen_rejects_bad_spec():
    with pytest.raises(ValueError):
        GenSpec(d=0, n_sets=3)
    with pytest.raises(ValueError):
        GenSpec(d=1, n_sets=0)
    with pytest.raises(ValueError):
        GenSpec(d=1, n_sets=1, ambient="quaternionic")


def test_instance_rejects_false_planted_claim():
    inst = gen_instance(GenSpec(d=2, n_sets=3, planted=True, seed=1))
    bad = ComplexHyperplane(inst.planted.normal, inst.planted.offset + 1.0)
    with pytest.raises(ValueError):
        Instance(inst.family, planted=bad, seed=1)


# -- persistence -----------------------------------------------------------------


def test_instance_roundtrip_bytes(tmp_path):
    for spec in (
        GenSpec(d=2, n_sets=4, planted=True, seed=5),
        GenSpec(d=1, n_sets=3, vertices_per_set=2, seed=6),
        GenSpec(d=2, n_sets=3, planted=True, seed=7, ambient="real"),
    ):
        inst = gen_instance(spec)
        path = tmp_path / f"inst{spec.seed}.json"
        write_instance(inst, path)
        text = path.read_text()
        back = read_instance(path)
        assert dumps_canonical(back.to_json()) == text


def test_instance_roundtrip_with_witness(tmp_path):
    inst = gen_instance(GenSpec(d=2, n_sets=4, planted=True, seed=8))
    w = witness_from_transversal(inst, inst.planted)
    full = Instance(inst.family, witness=w, planted=inst.planted, seed=8)
    path = tmp_path / "full.json"
    write_instance(full, path)
    text = path.read_text()
    back = read_instance(path)
    assert dumps_canonical(back.to_json()) == text
    assert back.witness.k == 1
    assert back.witness.covers(back.family)


def test_instance_from_json_validates():
    with pytest.raises(ValueError):
        instance_from_json({"ambient": "octonionic", "d": 1, "sets": [], "seed": 0})


# -- witness construction ----------------------------------------------------------


def test_witness_frame_reproduces_planted_points():
    inst = gen_instance(GenSpec(d=2, n_sets=5, planted=True, seed=21))
    w = witness_from_transversal(inst, inst.planted)
    assert w.k == 1
    # every target must be the frame coordinate of a point on the
    # transversal inside its set: reconstruct and verify membership
    a, b = inst.planted.normal, inst.planted.offset
    z0 = b * a
    for label, poly in inst.family:
        phi = w.point_of(label)
        assert phi.shape == (1,)
        # the reconstructed point lies on T
        # (basis is Hermitian-orthonormal, so |phi| = |z - z0|)
        c = poly.vertices @ np.conj(a) - b
        assert min(abs(v) for v in c) < 1e-7  # holds since planted vertex is on T


def test_witness_d1_is_trivial():
    inst = gen_instance(GenSpec(d=1, n_sets=3, vertices_per_set=2, planted=True, seed=2))
    w = witness_from_transversal(inst, inst.planted)
    assert w.k == 0
    assert w.covers(inst.family)


def test_witness_rejects_missing_transversal():
    inst = gen_instance(GenSpec(d=2, n_sets=3, planted=True, seed=3))
    far = ComplexHyperplane(inst.planted.normal, inst.planted.offset + 10.0)
    with pytest.raises(ValueError):
        witness_from_transversal(inst, far)


def test_witness_of_planted_transversal_is_verified_once(monkeypatch):
    import tvlab.harness as harness

    calls = []
    verify = harness.verify_transversal

    def counting(T, family, tol):
        calls.append(tol)
        return verify(T, family, tol=tol)

    monkeypatch.setattr(harness, "verify_transversal", counting)
    inst = gen_instance(GenSpec(d=2, n_sets=4, planted=True, seed=3))
    witness_from_transversal(inst, inst.planted)
    # the instance checked its planted transversal; the witness trusts that check
    assert calls == [1e-9]
    witness_from_transversal(inst, inst.planted)
    assert calls == [1e-9]
    # an equal hyperplane that is another object, and a shifted one, are
    # each verified at the witness tolerance
    same = ComplexHyperplane(inst.planted.normal, inst.planted.offset)
    witness_from_transversal(inst, same)
    far = ComplexHyperplane(inst.planted.normal, inst.planted.offset + 1e-3)
    with pytest.raises(ValueError, match="misses a set"):
        witness_from_transversal(inst, far)
    assert calls == [1e-9, 1e-6, 1e-6]


def test_witness_fallback_projects_nearest_set_point():
    # a segment whose coefficient segment passes 1e-7 beside the offset:
    # verification passes at 1e-6 while the flat-meets-polytope LP is
    # infeasible, so the witness point comes from the closest-point fallback
    inst = gen_instance(GenSpec(d=2, n_sets=3, planted=True, seed=5))
    T = inst.planted
    a, b = T.normal, T.offset
    basis = _orthonormal_complement(a)
    miss = 1e-7
    e = basis[0]  # a unit vector orthogonal to the normal
    seg = np.array([(b + miss - 0.3j) * a + 0.2 * e, (b + miss + 0.3j) * a - 0.4 * e])
    family = Family(inst.family.labels + ("X",), inst.family.sets + (Polytope("complex", seg),))
    assert verify_transversal(T, family, tol=1e-6).passed
    rows, rhs = _flat_program([(a, b)], family["X"])
    assert next(certify(rows[None], rhs[None]))[0] is None
    w = witness_from_transversal(Instance(family), T)
    point = b * a + basis.T @ w.point_of("X")
    assert abs(hermitian_inner(point, a) - b) < 1e-12  # on T
    # nearest set point: the segment's midpoint, whose coefficient is b + miss
    assert np.linalg.norm(point - seg.mean(axis=0)) == pytest.approx(miss, rel=1e-6)


def test_witness_chain_consistency_pass():
    for seed in range(8):
        inst = gen_instance(GenSpec(d=2, n_sets=4, planted=True, seed=40 + seed))
        w = witness_from_transversal(inst, inst.planted)
        verdict = check_dependency_consistency(
            inst.family, w, ConsistencyConfig(samples=16, seed=seed)
        )
        assert verdict.passed, f"seed {seed}"


# -- the equivalence experiment ------------------------------------------------------


def test_equivalence_d2_chain():
    report = run_equivalence(EquivConfig(trials=4, d=2, seed=0, samples=16))
    agg = report.aggregates
    assert agg["trials"] == 4
    assert agg["consistency_pass"] == 4
    assert agg["direction_found"] == 4
    assert agg["borsuk_found"] == 4
    assert agg["assertion_failures"] == 0
    for record in report.records:
        assert record["consistency"]["status"] == "pass"
        assert record["direction"]["verify_max"] <= 1e-6
        assert record["borsuk"]["residual"] <= 1e-6
        assert record["borsuk"]["verify_max"] <= 1e-4


def test_equivalence_d1_agrees_with_oracle():
    report = run_equivalence(EquivConfig(trials=30, d=1, seed=0, samples=64))
    agg = report.aggregates
    assert agg["false_fails"] == 0
    assert agg["agreements"] >= 29  # sampled-pass on a true fail is the only slack
    for record in report.records:
        if record["oracle"]["common_point"]:
            assert record["consistency"]["status"] == "pass"


def test_equivalence_empty_schema():
    report = run_equivalence(EquivConfig(trials=0, d=2, seed=0))
    doc = report.to_json()
    assert doc["records"] == []
    assert doc["aggregates"]["trials"] == 0
    assert doc["kind"] == "equivalence-report"
    assert "version" in doc


def test_equivalence_reports_byte_stable(tmp_path):
    cfg = EquivConfig(trials=3, d=1, seed=7)
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    write_report(run_equivalence(cfg), p1)
    write_report(run_equivalence(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_equivalence_wall_time_not_serialized():
    report = run_equivalence(EquivConfig(trials=1, d=1, seed=0))
    assert report.wall_time > 0
    text = dumps_canonical(report.to_json())
    assert "wall" not in text


def test_equivalence_rejects_bad_config():
    with pytest.raises(ValueError):
        EquivConfig(trials=-1)
    with pytest.raises(ValueError):
        EquivConfig(trials=1, d=0)


# -- rational re-verification --------------------------------------------------------


def test_reverify_clean_reports():
    for cfg in (EquivConfig(trials=3, d=2, seed=0, samples=16), EquivConfig(trials=10, d=1, seed=0)):
        report = run_equivalence(cfg)
        doc = json.loads(dumps_canonical(report.to_json()))
        assert reverify_report(doc) == []


def test_reverify_detects_tampering():
    report = run_equivalence(EquivConfig(trials=3, d=2, seed=0, samples=16))
    doc = json.loads(dumps_canonical(report.to_json()))
    tampered = False
    for record in doc["records"]:
        lift = record["consistency"].get("worst_lift")
        if lift and any(abs(r) > 1e-6 for r in lift["r"]):
            i = max(range(len(lift["r"])), key=lambda j: lift["r"][j])
            lift["r"][i] += 0.5
            tampered = True
            break
    assert tampered
    assert reverify_report(doc) != []


def _report_doc(cfg, trials):
    """A report document holding only the given trials of ``cfg``."""
    records = [json.loads(dumps_canonical(_run_trial(cfg, t))) for t in trials]
    return {"config": cfg.to_json(), "records": records}


def test_reverify_takes_float_lift_signs_to_the_tolerance():
    # trial 8 stores a vertex weight of S1 at -2.49e-14: the float lift LP
    # accepts witnesses down to -FEAS_TOL, and the lift re-verifies to 1e-9
    doc = _report_doc(EquivConfig(trials=10, d=2, seed=0, samples=16), [8])
    ws = doc["records"][0]["consistency"]["worst_lift"]["vertex_weights"][1]
    i = min(range(len(ws)), key=lambda j: ws[j])
    assert -1e-13 < ws[i] < 0
    assert reverify_report(doc) == []
    ws[i] = -1e-6
    assert "trial 8: negative vertex weight for S1" in reverify_report(doc)


def test_reverify_detects_a_tampered_nolift():
    doc = _report_doc(EquivConfig(trials=3, d=1, seed=0), range(3))
    assert reverify_report(doc) == []
    violation = next(filter(None, (r["consistency"]["violation"] for r in doc["records"])))
    violation["coeffs"][0] = [0.0, 0.0]
    problems = reverify_report(doc)
    assert len(problems) == 1 and problems[0].endswith("rationally liftable after all")


def test_reverify_reports_records_whose_lists_differ_in_length():
    # a malformed record is a problem, never an exception and never a check
    # that zip silently truncates
    doc = _report_doc(EquivConfig(trials=50, d=1, seed=0), [0])
    violation = doc["records"][0]["consistency"]["violation"]
    coeffs = violation["coeffs"]
    assert len(violation["labels"]) == len(coeffs) == 2
    for ragged in (coeffs[:1], coeffs + coeffs[:1]):
        violation["coeffs"] = ragged
        n = len(ragged)
        assert reverify_report(doc) == [f"trial 0: stored labels (2), coeffs ({n}) differ in length"]
    doc = _report_doc(EquivConfig(trials=50, d=2, seed=0), [12])
    lift = doc["records"][0]["consistency"]["worst_lift"]
    assert reverify_report(doc) == []
    lift["r"].pop()
    assert reverify_report(doc) == [
        "trial 12: stored labels (5), coeffs (5), r (4), points (5), vertex_weights (5)"
        " differ in length"
    ]
    with pytest.raises(ValueError, match="2 coefficients for 1 point arrays"):
        _exact_generators([1.0, 1j], [np.zeros((1, 1))])


def test_reverify_reports_labels_outside_the_family():
    # a stored label that names no member is a problem, not a KeyError
    doc = _report_doc(EquivConfig(trials=50, d=1, seed=0), [0])
    doc["records"][0]["consistency"]["violation"]["labels"][0] = "S9"
    assert reverify_report(doc) == ["trial 0: stored label 'S9' is not in the family"]
    doc = _report_doc(EquivConfig(trials=50, d=2, seed=0), [12])
    doc["records"][0]["consistency"]["worst_lift"]["labels"][0] = "S9"
    assert reverify_report(doc) == ["trial 12: stored label 'S9' is not in the family"]
