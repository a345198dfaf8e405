"""Instance generation, canonical serialization, witness construction, the
equivalence experiment, report stability, and rational re-verification."""

from __future__ import annotations

import contextlib
import itertools
import json

import numpy as np
import pytest

from tvlab.consistency import (
    ConsistencyConfig,
    ConsistencyWitness,
    _exact_generators,
    check_dependency_consistency,
)
from tvlab.geometry import (
    ComplexHyperplane,
    Family,
    Polytope,
    _closest_rows,
    _vertex_pairs,
    hermitian_inner,
)
from tvlab.harness import (
    EquivConfig,
    GenSpec,
    Instance,
    _orthonormal_complement,
    _reverify_oracle,
    _run_trial,
    _trial_case,
    dumps_canonical,
    equiv_config_from_json,
    gen_instance,
    instance_from_json,
    read_instance,
    reverify_report,
    run_equivalence,
    witness_from_transversal,
    write_instance,
    write_report,
)
from tvlab.lp import certify, hulls_intersect
from tvlab.transversal import (
    RealHyperplane,
    _coefficient_rows,
    complex_transversal_for_normal,
    verify_transversal,
)


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
    # True would run seed 1 and 2.5 would reach numpy's draws; each was
    # accepted, and seed=True wrote an instance that read_instance rejects
    for bad in (dict(seed=True), dict(d=2.5), dict(n_sets=3.0), dict(vertices_per_set=True),
                dict(seed=-1)):
        with pytest.raises(ValueError, match="must be"):
            GenSpec(**dict(dict(d=2, n_sets=3), **bad))


def test_instance_rejects_false_planted_claim():
    inst = gen_instance(GenSpec(d=2, n_sets=3, planted=True, seed=1))
    bad = ComplexHyperplane(inst.planted.normal, inst.planted.offset + 1.0)
    with pytest.raises(ValueError):
        Instance(inst.family, planted=bad, seed=1)
    # H = {z_1 = 0} misses B, of coordinates about 1e300, by a finite distance
    # in either label order: verification scales B's row for the kernel
    s = 1e300
    sets = {
        "A": Polytope("complex", np.array([[0, 0], [0, 1]], dtype=complex)),
        "B": Polytope("complex", np.array([[s + s * 1j, 0], [s + 0.5 * s * 1j, 0],
                                           [0.5 * s + s * 1j, 1]])),
    }
    H = ComplexHyperplane(np.array([1 + 0j, 0j]), 0j)
    for order in ("AB", "BA"):
        fam = Family(tuple(order), tuple(sets[label] for label in order))
        with pytest.raises(ValueError, match=r"misses a set by 1\.061e\+300"):
            Instance(fam, planted=H)


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


def test_stored_integers_are_read_whole_or_rejected():
    # d, the seed, the witness's k and its assignment indices are not
    # truncated: an index i + 0.7 would name point i, and true would name
    # point 1
    inst = gen_instance(GenSpec(d=2, n_sets=3, planted=True, seed=8))
    w = witness_from_transversal(inst, inst.planted)
    doc = Instance(inst.family, witness=w, seed=8).to_json()
    back = instance_from_json(dict(doc, d=2.0, seed=8.0))
    assert back.witness.assignment == w.assignment and back.family.dim == 2
    assert back.seed == 8

    def witness_with(**changes):
        return dict(doc, witness=dict(doc["witness"], **changes))

    assignment = doc["witness"]["assignment"]
    bad_docs = [dict(doc, d=2.5), dict(doc, d=True), dict(doc, d="2"),
                dict(doc, seed=8.9), dict(doc, seed=True), dict(doc, seed=None),
                witness_with(k=1.5), witness_with(k=True),
                witness_with(assignment={l: i + 0.7 for l, i in assignment.items()}),
                witness_with(assignment={l: True for l in assignment})]
    for bad in bad_docs:
        with pytest.raises(ValueError, match="must be an integer"):
            instance_from_json(bad)


def test_documents_the_library_writes_read_back(tmp_path):
    # every instance and report that constructs writes a document that its
    # reader accepts and rewrites to the same bytes; a value that the reader
    # would reject fails at construction
    values = (True, 2.0, 2.5, np.int64(2))
    path = tmp_path / "doc.json"
    spec = dict(d=2, n_sets=3, vertices_per_set=2, planted=True, seed=1)
    instances = []
    for field, value in itertools.product(("d", "n_sets", "vertices_per_set", "seed"), values):
        with contextlib.suppress(ValueError):
            instances.append(gen_instance(GenSpec(**dict(spec, **{field: value}))))
    with pytest.raises(ValueError, match="seed must be an integer"):
        Instance(instances[0].family, seed=2.5)
    w = witness_from_transversal(instances[0], instances[0].planted)
    assignment = {l: np.int64(i) for l, i in w.assignment.items()}
    instances.append(Instance(instances[0].family, ConsistencyWitness(np.int64(1), w.points, assignment)))
    assert len(instances) == 5  # a numpy integer in each field, and the witness
    for inst in instances:
        write_instance(inst, path)
        text = path.read_text()
        assert dumps_canonical(read_instance(path).to_json()) == text
        assert dumps_canonical(instance_from_json(inst.to_json()).to_json()) == text
    config = dict(trials=1, d=1, seed=0, samples=16)
    reports = []
    for field, value in itertools.product(config, values):
        with contextlib.suppress(ValueError):
            reports.append(run_equivalence(EquivConfig(**dict(config, **{field: value}))))
    assert len(reports) == 4  # a numpy integer in each field
    for report in reports:
        assert reverify_report(report.to_json()) == []
        assert reverify_report(json.loads(dumps_canonical(report.to_json()))) == []


@pytest.mark.parametrize("note", [5, ["a"]], ids=["int", "list"])
def test_instance_note_must_be_a_string(note):
    # a note that is not a string would come back from its document as
    # str(note), and the rewritten document would differ
    family = gen_instance(GenSpec(d=1, n_sets=2, seed=3)).family
    with pytest.raises(ValueError, match="note must be a string"):
        Instance(family, note=note)
    doc = Instance(family, note="five").to_json()
    assert dumps_canonical(instance_from_json(doc).to_json()) == dumps_canonical(doc)
    with pytest.raises(ValueError, match="note must be a string"):
        instance_from_json(dict(doc, note=note))


def test_stored_report_integers_are_read_whole_or_rejected():
    # a report's trials, d, seed, samples and trial numbers are read as an
    # instance's are: 1.5 trials is not 1, and trial 0.7 is not trial 0
    config = EquivConfig(trials=1, d=1, seed=0, samples=16).to_json()
    assert equiv_config_from_json(dict(config, trials=1.0)).trials == 1
    for key, bad in (("trials", 1.5), ("d", True), ("seed", 0.5), ("samples", 16.5)):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            equiv_config_from_json(dict(config, **{key: bad}))
    report = json.loads(dumps_canonical(run_equivalence(EquivConfig(trials=1, d=1)).to_json()))
    report["records"][0]["trial"] = 0.7
    with pytest.raises(ValueError, match="trial must be an integer"):
        reverify_report(report)


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
    assert next(certify(*_coefficient_rows(family["X"].vertices[None], a, b)))[0] is None
    w = witness_from_transversal(Instance(family), T)
    point = b * a + basis.T @ w.point_of("X")
    assert abs(hermitian_inner(point, a) - b) < 1e-12  # on T
    # nearest set point: the segment's midpoint, whose coefficient is b + miss
    assert np.linalg.norm(point - seg.mean(axis=0)) == pytest.approx(miss, rel=1e-6)
    # a triangle whose nearest point is a vertex: the last one, held by the
    # pair (n - 1, n - 1) (on this triangle both segments that end there
    # round A + D off it), or the first, the t = 0 end of (0, 1); the
    # witness point is that vertex projected onto T
    i1, i2 = _vertex_pairs(3)
    for coeffs, pair in (
        ((0.7 - 0.4j, 0.5 - 0.2j, 0j), (2, 2)),
        ((0j, 0.3 + 0.2j, 0.4 - 0.3j), (0, 1)),
    ):
        V = np.array([(b + miss + c) * a + s * e for c, s in zip(coeffs, (0.2, -0.4, 0.2))])
        _, k, t = _closest_rows(np.conj(a[None, :]) @ V.T - b)
        k = int(k[0])
        assert (i1[k], i2[k], t[0, k]) == (*pair, 0.0)
        family = Family(inst.family.labels + ("Y",), inst.family.sets + (Polytope("complex", V),))
        assert verify_transversal(T, family, tol=1e-6).passed
        assert next(certify(*_coefficient_rows(V[None], a, b)))[0] is None
        point = b * a + basis.T @ witness_from_transversal(Instance(family), T).point_of("Y")
        v = V[pair[0]]
        assert np.abs(point - (v - (hermitian_inner(v, a) - b) * a)).max() < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_coefficient_rows_and_witness_points_on_mixed_vertex_counts(d):
    # sets of 3 and 5 vertices, each with one vertex on T: the stacked rows
    # of each vertex count are each set's own rows, to the bit, and every
    # witness point lies on T and in its set
    rng = np.random.default_rng(d)
    a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    T = ComplexHyperplane(a / np.linalg.norm(a), complex(*rng.uniform(-0.5, 0.5, 2)))
    polys = []
    for n in (3, 5, 5, 3, 5):
        V = rng.uniform(-1, 1, (n, d)) + 1j * rng.uniform(-1, 1, (n, d))
        V[0] -= (hermitian_inner(V[0], T.normal) - T.offset) * T.normal
        polys.append(Polytope("complex", V))
    family = Family(tuple(f"S{i}" for i in range(len(polys))), tuple(polys))
    for n in (3, 5):
        V = np.array([p.vertices for p in polys if p.n_vertices == n])
        rows, rhs = _coefficient_rows(V, T.normal, T.offset)
        for k, Vk in enumerate(V):
            c = Vk @ np.conj(T.normal)
            assert rows[k].tobytes() == np.vstack([c.real, c.imag, np.ones(n)]).tobytes()
            assert rhs[k].tolist() == [T.offset.real, T.offset.imag, 1.0]
    w = witness_from_transversal(Instance(family), T)
    basis = _orthonormal_complement(T.normal)
    for label, poly in family:
        point = T.offset * T.normal + basis.T @ w.point_of(label)
        assert abs(hermitian_inner(point, T.normal) - T.offset) < 1e-12
        assert hulls_intersect(point[None], poly).feasible


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
    # trials=True ran one trial into a report that reverify_report rejects
    for bad in (dict(trials=True), dict(seed=1.5), dict(samples=2.5), dict(d=True)):
        with pytest.raises(ValueError, match="must be an integer"):
            EquivConfig(**dict(dict(trials=1, d=1), **bad))


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


def test_reverify_checks_the_stored_dependence():
    # each tampered no-lift below is one whose exact cone LP stays
    # infeasible, so only its dependence or its labels give it away
    doc = json.loads(dumps_canonical(
        run_equivalence(EquivConfig(trials=40, d=1, seed=0, samples=16)).to_json()))
    assert reverify_report(doc) == []
    record = next(r for r in doc["records"] if r["consistency"]["violation"])
    nolift = record["consistency"]["violation"]
    assert len(nolift["labels"]) == 2
    stored = json.loads(json.dumps(nolift))
    where = f"trial {record['trial']}: "

    nolift["coeffs"] = [[1.0, 0.0], [1.0, 0.0]]
    assert reverify_report(doc) == [where + "stored coefficients do not sum to zero"]
    nolift.update(labels=stored["labels"][:1], coeffs=stored["coeffs"][:1])
    assert reverify_report(doc) == [where + "stored coefficients do not sum to zero"]
    # the first coefficient split over two copies of its label
    (re, im), second = stored["coeffs"]
    nolift.update(labels=stored["labels"] + stored["labels"][:1],
                  coeffs=[[re / 2, im / 2], second, [re / 2, im / 2]])
    assert reverify_report(doc) == [where + "stored labels repeat"]

    # d = 2: (1, -1) on two disjoint sets sums to zero and has no lift, but
    # the witness sends the two sets to different points
    cfg = EquivConfig(trials=10, d=2, seed=0, samples=16)
    doc = _report_doc(cfg, [0])
    family = _trial_case(cfg, 0)[0].family
    a, b = next((a, b) for a, b in itertools.combinations(family.labels, 2)
                if not hulls_intersect(family[a], family[b]).feasible)
    assert hulls_intersect(family[a], family[b]).certificate.exact  # disjoint, exactly
    doc["records"][0]["consistency"]["violation"] = {
        "labels": [a, b], "coeffs": [[1.0, 0.0], [-1.0, 0.0]], "origin": "circuit", "exact": True}
    assert reverify_report(doc) == ["trial 0: stored coefficients are not a dependence of the witness"]


def test_reverify_checks_a_stored_common_point():
    # no d = 1 trial of seed 0 has a common point, so only a stored one
    # reaches the oracle check
    doc = _report_doc(EquivConfig(trials=1, d=1, seed=0), [0])
    record = doc["records"][0]
    assert record["oracle"]["common_point"] is False
    assert reverify_report(doc) == []
    record["oracle"] = {"common_point": True, "point": [5.0, 0.0]}
    n_sets = record["n_sets"]
    assert reverify_report(doc) == [f"trial 0: oracle point outside S{i}" for i in range(n_sets)]


def test_reverify_oracle_accepts_the_common_point_it_stored():
    # three segments through p at angles about pi/3 apart: the common point
    # that the d = 1 LP returns is a float rounding of p, which an exact
    # membership test can find outside a segment; the float membership LP
    # accepts it to 1e-9 and still reports a point 1e-6 off S0 along S1
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = complex(*rng.uniform(-0.5, 0.5, 2))
        angles = np.pi * (np.arange(3) / 3 + rng.uniform(0, 0.05, 3))
        u = np.exp(1j * angles)
        ends = rng.uniform(0.1, 1.0, (3, 2))
        segs = [Polytope("complex", [[p - s * v], [p + t * v]]) for v, (s, t) in zip(u, ends)]
        family = Family(("S0", "S1", "S2"), tuple(segs))
        b = complex_transversal_for_normal(np.array([1.0 + 0j]), family)
        assert _reverify_oracle({"common_point": True, "point": [b.real, b.imag]}, family) == []
        off = b + 1e-6 / abs(np.sin(angles[1] - angles[0])) * u[1]
        assert _reverify_oracle({"common_point": True, "point": [off.real, off.imag]}, family) == [
            "oracle point outside S0", "oracle point outside S2"]
