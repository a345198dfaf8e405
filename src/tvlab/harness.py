"""Instance generation, witness construction, equivalence experiments, and
canonical persistence.

Documents are serialized through a deterministic emitter: fixed key order,
floats at 17 significant digits, complex numbers as [re, im] pairs.  Reading
a document back and re-serializing it reproduces the file byte for byte,
and reports depend only on (seed, config, version), never on wall time.
:func:`reverify_report` re-decides a stored no-lift exactly, on generators
rebuilt from the instance's own numbers, and checks a float lift, and that
each stored dependence is one of the trial's witness, in rationals to 1e-9,
and a stored d = 1 common point by float membership LPs to 1e-9.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from ._exact import gmul
from .consistency import (
    ConsistencyConfig,
    ConsistencyVerdict,
    ConsistencyWitness,
    Lift,
    NoLift,
    _exact_generators,
    check_dependency_consistency,
    trivial_witness,
)
from .geometry import (
    ComplexHyperplane,
    Family,
    Polytope,
    _integer,
    _segment_closest,
    _vertex_pairs,
    embed_family,
    hermitian_inner,
    hyperplane_from_sphere_point,
)
from .lp import certify, hulls_intersect
from .transversal import (
    BORSUK_VERIFY_TOL,
    NotFound,
    RealHyperplane,
    TransversalConfig,
    _coefficient_rows,
    borsuk_map,
    complex_transversal_for_normal,
    find_borsuk_zero,
    find_complex_transversal,
    verify_transversal,
)

PLANTED_TOL = 1e-9
WITNESS_TOL = 1e-6  # how far a transversal may miss a set and still give a witness
LIFT_TOL = Fraction(1, 10**9)  # to which a stored float lift is re-checked in rationals


# ---------------------------------------------------------------------------
# canonical document emission


def _num(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        raise TypeError("booleans are not numbers here")
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("non-finite number in document")
    if x == 0.0:
        x = 0.0  # drop the sign of negative zero
    return "%.17g" % x


def _emit(obj, indent: int) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return _num(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            return "[]"
        if not any(isinstance(v, dict) for v in items):
            return "[" + ", ".join(_emit(v, 0) for v in items) + "]"
        inner = ",\n".join("  " * (indent + 1) + _emit(v, indent + 1) for v in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            "  " * (indent + 1) + json.dumps(str(k)) + ": " + _emit(v, indent + 1)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Deterministic structured-text form, newline terminated."""
    return _emit(obj, 0) + "\n"


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _unpair(p) -> complex:
    if not isinstance(p, (list, tuple)) or len(p) != 2:
        raise ValueError(f"expected an [re, im] pair, got {p!r}")
    return complex(float(p[0]), float(p[1]))


def _hyperplane_json(T) -> dict:
    """Normal and offset as [re, im] pairs, for both ambients."""
    return {"normal": [_pair(z) for z in T.normal.tolist()], "offset": _pair(T.offset)}


def _hyperplane_from_json(doc: dict, ambient: str):
    """Inverse of :func:`_hyperplane_json`; a real hyperplane must have no
    imaginary part."""
    normal = np.array([_unpair(p) for p in doc["normal"]], dtype=complex)
    offset = _unpair(doc["offset"])
    if ambient == "complex":
        return ComplexHyperplane(normal, offset)
    if np.any(normal.imag) or offset.imag:
        raise ValueError("a real hyperplane has no imaginary part")
    return RealHyperplane(normal.real, offset.real)


# ---------------------------------------------------------------------------
# instances


@dataclass(frozen=True, eq=False)
class Instance:
    """A labeled family with optional witness, planted transversal, and the
    seed that generated it."""

    family: Family
    witness: ConsistencyWitness | None = None
    planted: object = None  # ComplexHyperplane or RealHyperplane
    seed: int = 0
    note: str = ""

    def __post_init__(self):
        _integer(self.seed, "seed")
        if not isinstance(self.note, str):
            raise ValueError("note must be a string")
        if self.witness is not None and not self.witness.covers(self.family):
            raise ValueError("witness does not cover every family label")
        if self.planted is not None:
            rep = verify_transversal(self.planted, self.family, tol=PLANTED_TOL)
            if not rep.passed:
                raise ValueError(
                    f"planted transversal misses a set by {rep.max_distance:.3e}"
                )

    @property
    def ambient(self) -> str:
        return self.family.ambient

    @property
    def d(self) -> int:
        return self.family.dim

    def to_json(self) -> dict:
        doc = {"ambient": self.ambient, "d": self.d}
        sets = []
        for label, poly in self.family:
            if self.ambient == "complex":
                verts = [[_pair(z) for z in row] for row in poly.vertices.tolist()]
            else:
                verts = [[float(x) for x in row] for row in poly.vertices.tolist()]
            sets.append({"label": label, "vertices": verts})
        doc["sets"] = sets
        if self.witness is not None:
            pts = [[_pair(z) for z in row] for row in np.asarray(self.witness.points, dtype=complex).tolist()]
            doc["witness"] = {
                "k": self.witness.k,
                "points": pts,
                "assignment": {l: self.witness.assignment[l] for l in self.family.labels},
            }
        if self.planted is not None:
            doc["planted"] = _hyperplane_json(self.planted)
        doc["seed"] = self.seed
        if self.note:
            doc["note"] = self.note
        return doc


def _whole(value):
    """A whole JSON float as an int; any other value as it is, for its type to check."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def instance_from_json(doc: dict) -> Instance:
    ambient = doc["ambient"]  # Polytope checks it
    d = _integer(_whole(doc["d"]), "d", 1)
    labels = []
    polys = []
    for entry in doc["sets"]:
        labels.append(entry["label"])
        if ambient == "complex":
            verts = [[_unpair(p) for p in row] for row in entry["vertices"]]
        else:
            verts = entry["vertices"]
        poly = Polytope(ambient, verts)
        if poly.dim != d:
            raise ValueError("vertex dimension disagrees with d")
        polys.append(poly)
    family = Family(tuple(labels), tuple(polys))

    witness = None
    if "witness" in doc:
        w = doc["witness"]
        k = _integer(_whole(w["k"]), "witness k")
        pts = np.array(
            [[_unpair(p) for p in row] for row in w["points"]], dtype=complex
        ).reshape(len(w["points"]), k)
        assignment = {l: _whole(i) for l, i in w["assignment"].items()}
        witness = ConsistencyWitness(k, pts, assignment)

    return Instance(
        family,
        witness=witness,
        planted=_hyperplane_from_json(doc["planted"], ambient) if "planted" in doc else None,
        seed=_whole(doc.get("seed", 0)),
        note=doc.get("note", ""),
    )


def write_instance(instance: Instance, path) -> None:
    """Write the instance's canonical document to path."""
    with open(path, "w") as fh:
        fh.write(dumps_canonical(instance.to_json()))


def read_instance(path) -> Instance:
    """Load and validate the instance document at path."""
    with open(path) as fh:
        return instance_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# generation


@dataclass(frozen=True)
class GenSpec:
    """A random instance: n_sets polytopes of vertices_per_set vertices each
    in the unit box of the real or complex d-space, with one extra vertex per
    set on a random hyperplane when planted."""

    d: int
    n_sets: int
    vertices_per_set: int = 4
    planted: bool = False
    seed: int = 0
    ambient: str = "complex"

    def __post_init__(self):
        for name, least in (("d", 1), ("n_sets", 1), ("vertices_per_set", 1), ("seed", 0)):
            _integer(getattr(self, name), name, least)
        if self.ambient not in ("real", "complex"):
            raise ValueError("ambient must be 'real' or 'complex'")


def _generate(rng, d, n_sets, vertices_per_set, planted, ambient, seed) -> Instance:
    labels = tuple(f"S{i}" for i in range(n_sets))
    T = None
    if planted:
        if ambient == "complex":
            a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            a = a / np.linalg.norm(a)
            b = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            T = ComplexHyperplane(a, b)
        else:
            u = rng.standard_normal(d)
            u = u / np.linalg.norm(u)
            t = float(rng.uniform(-0.5, 0.5))
            T = RealHyperplane(u, t)
    polys = []
    for _ in range(n_sets):
        if ambient == "complex":
            V = rng.uniform(-1, 1, (vertices_per_set, d)) + 1j * rng.uniform(
                -1, 1, (vertices_per_set, d)
            )
            if planted:
                z0 = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
                z = z0 - (hermitian_inner(z0, T.normal) - T.offset) * T.normal
                V = np.vstack([V, z[None, :]])
        else:
            V = rng.uniform(-1, 1, (vertices_per_set, d))
            if planted:
                z0 = rng.uniform(-1, 1, d)
                z = z0 + (T.offset - z0 @ T.normal) * T.normal
                V = np.vstack([V, z[None, :]])
        polys.append(Polytope(ambient, V))
    family = Family(labels, tuple(polys))
    return Instance(family, planted=T, seed=seed)


def gen_instance(spec: GenSpec) -> Instance:
    """Random vertex polytopes in the unit box, one planted on-hyperplane
    vertex per set when requested."""
    rng = np.random.default_rng(spec.seed)
    return _generate(
        rng, spec.d, spec.n_sets, spec.vertices_per_set, spec.planted, spec.ambient, spec.seed
    )


# ---------------------------------------------------------------------------
# witnesses from transversals


def _orthonormal_complement(a: np.ndarray) -> np.ndarray:
    """Rows form a Hermitian-orthonormal basis of {w : <w, a> = 0}."""
    a = np.asarray(a, dtype=complex)
    _, _, Vh = np.linalg.svd(np.conj(a)[None, :])
    return np.conj(Vh[1:])


def witness_from_transversal(instance: Instance, T: ComplexHyperplane) -> ConsistencyWitness:
    """Frame coordinates on T of one chosen intersection point per set.

    The frame origin is the T-point closest to 0 and the basis is a
    Hermitian-orthonormal complement of the normal, so targets live in
    C^{d-1}.  d=1 collapses to the unique witness into C^0.  Raises
    ValueError when T misses a set by more than WITNESS_TOL; the instance's
    own planted transversal was checked at the tighter PLANTED_TOL when it
    was built, so it is not checked again."""
    family = instance.family
    if family.ambient != "complex":
        raise ValueError("witness construction expects a complex family")
    if T is not instance.planted:
        rep = verify_transversal(T, family, tol=WITNESS_TOL)
        if not rep.passed:
            raise ValueError(
                f"transversal misses a set by {rep.max_distance:.3e} (tol {WITNESS_TOL:g})"
            )
    d = family.dim
    if d == 1:
        return trivial_witness(family)
    a, b = T.normal, T.offset
    z0 = b * a
    basis = _orthonormal_complement(a)
    # the coefficient programs of sets with equal vertex counts are certified
    # as one batch; a set whose program is infeasible gets no point from it
    points = [None] * len(family.sets)
    for idx, cols in family._layout[1]:
        lams = []
        for run, _ in certify(*_coefficient_rows(cols.transpose(0, 2, 1), a, b)):
            lams.extend([None] if run is None else run)
        for i, lam in zip(idx.tolist(), lams):
            if lam is not None:
                points[i] = np.asarray(lam, dtype=float) @ family.sets[i].vertices
    rows = []
    assignment = {}
    for idx, (label, poly) in enumerate(family):
        point = points[idx]
        if point is None:
            # the transversal passes only within WITNESS_TOL; project onto T the set
            # point whose coefficient is nearest b, on the vertex-pair
            # segment the kernel's segment search picks
            V = poly.vertices
            _, k, t = _segment_closest(np.conj(a[None, :]) @ V.T - b)
            k = int(k[0])
            i, j = (int(v[k]) for v in _vertex_pairs(V.shape[0]))
            t = float(t[0, k])
            q = (1.0 - t) * V[i] + t * V[j]
            point = q - (hermitian_inner(q, a) - b) * a
        rows.append(np.conj(basis) @ (point - z0))
        assignment[label] = idx
    return ConsistencyWitness(d - 1, np.asarray(rows, dtype=complex), assignment)


# ---------------------------------------------------------------------------
# the equivalence experiment


@dataclass(frozen=True)
class EquivConfig:
    """The equivalence experiment: trials seeded families in C^d (planted
    ones for d >= 2, segment families for d = 1), each run through the
    consistency check with the sample budget and through the searches with
    the default budget of :class:`TransversalConfig` (32 starts of 2000
    iterations), which every report records."""

    trials: int
    d: int = 2
    seed: int = 0
    samples: int = 64

    def __post_init__(self):
        for name, least in (("trials", 0), ("d", 1), ("seed", 0), ("samples", 0)):
            _integer(getattr(self, name), name, least)

    def to_json(self) -> dict:
        search = TransversalConfig()  # the budget of every trial's searches
        return {
            "trials": self.trials,
            "d": self.d,
            "seed": self.seed,
            "samples": self.samples,
            "starts": search.starts,
            "iters": search.iters,
        }


def equiv_config_from_json(doc: dict) -> EquivConfig:
    """The config of a stored report; its search budget is the default."""
    return EquivConfig(**{key: _whole(doc[key]) for key in ("trials", "d", "seed", "samples")})


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Per-trial records with certificates and aggregate counts.

    wall_time is measured for operator feedback but never serialized, so
    that reports are byte-stable functions of (seed, config, version)."""

    config: EquivConfig
    records: tuple
    aggregates: dict
    wall_time: float

    def to_json(self) -> dict:
        return {
            "version": __version__,
            "kind": "equivalence-report",
            "config": self.config.to_json(),
            "aggregates": self.aggregates,
            "records": list(self.records),
        }


def write_report(report: ExperimentReport, path) -> None:
    """Write the report's canonical document to path."""
    with open(path, "w") as fh:
        fh.write(dumps_canonical(report.to_json()))


def _lift_json(lift: Lift) -> dict:
    return {
        "labels": list(lift.dependence.labels),
        "coeffs": [_pair(c) for c in lift.dependence.coeffs],
        "origin": lift.dependence.origin,
        "r": [float(r) for r in lift.r],
        "points": [[_pair(z) for z in row] for row in np.asarray(lift.points).tolist()],
        "vertex_weights": [[float(w) for w in ws] for ws in lift.vertex_weights],
    }


def _nolift_json(nolift: NoLift) -> dict:
    return {
        "labels": list(nolift.dependence.labels),
        "coeffs": [_pair(c) for c in nolift.dependence.coeffs],
        "origin": nolift.dependence.origin,
        "exact": bool(nolift.exact),
    }


def _consistency_json(verdict: ConsistencyVerdict) -> dict:
    return {
        "status": verdict.status,
        "samples_budget": verdict.samples_budget,
        "n_dependences": verdict.n_dependences,
        "n_circuits": verdict.n_circuits,
        "n_sampled": verdict.n_sampled,
        "max_lift_residual": float(verdict.max_lift_residual),
        "worst_lift": None if verdict.worst_lift is None else _lift_json(verdict.worst_lift),
        "violation": None
        if not isinstance(verdict.violation, NoLift)
        else _nolift_json(verdict.violation),
    }


def _trial_case(config: EquivConfig, trial: int):
    """A trial's instance and the witness its check takes: the planted
    transversal's frame at d >= 2, the trivial witness of a d = 1 segment
    family."""
    rng = np.random.default_rng([config.seed, trial])
    if config.d >= 2:
        n_sets = int(rng.integers(3, 7))
        instance = _generate(rng, config.d, n_sets, 4, True, "complex", trial)
        return instance, witness_from_transversal(instance, instance.planted)
    n_sets = int(rng.integers(3, 5))
    instance = _generate(rng, 1, n_sets, 2, False, "complex", trial)
    return instance, trivial_witness(instance.family)


def _run_trial(config: EquivConfig, trial: int) -> dict:
    instance, witness = _trial_case(config, trial)
    family = instance.family
    ccfg = ConsistencyConfig(samples=config.samples, seed=trial)
    tcfg = TransversalConfig(seed=trial)
    failures = []
    record = {"trial": trial, "n_sets": len(family.labels)}

    if config.d >= 2:
        verdict = check_dependency_consistency(family, witness, ccfg)
        record["consistency"] = _consistency_json(verdict)
        if not verdict.passed:
            failures.append("planted family judged inconsistent")

        direction = find_complex_transversal(family, tcfg)
        if isinstance(direction, NotFound):
            failures.append("direction search found no transversal")
            record["direction"] = {"found": False, "best_margin": float(direction.best)}
        else:
            drep = verify_transversal(direction, family)
            record["direction"] = {
                "found": True,
                **_hyperplane_json(direction),
                "verify_max": float(drep.max_distance),
            }
            if not drep.passed:
                failures.append("direction transversal fails verification at 1e-6")

        emb = embed_family(family)
        x = find_borsuk_zero(emb, witness, tcfg)
        if isinstance(x, NotFound):
            failures.append("zero search exhausted its budget")
            record["borsuk"] = {"found": False, "best_residual": float(x.best)}
        else:
            residual = borsuk_map(x, emb, witness).norm
            H = hyperplane_from_sphere_point(x)
            brep = verify_transversal(H, family, tol=BORSUK_VERIFY_TOL)
            record["borsuk"] = {
                "found": True,
                "x": [_pair(z) for z in x.coords.tolist()],
                "residual": float(residual),
                "verify_max": float(brep.max_distance),
            }
            if residual > tcfg.zero_tol:
                failures.append("accepted zero has residual above 1e-6")
            if not brep.passed:
                failures.append("zero transversal fails verification at 1e-4")
    else:
        verdict = check_dependency_consistency(family, witness, ccfg)
        record["consistency"] = _consistency_json(verdict)
        b = complex_transversal_for_normal(np.array([1.0 + 0j]), family)
        common = not isinstance(b, NotFound)
        record["oracle"] = {
            "common_point": common,
            "point": _pair(b) if common else None,
        }
        record["agree"] = bool(verdict.passed == common)
        if verdict.passed != common and common:
            failures.append("consistency check failed a family with a common point")

    record["failures"] = failures
    return record


def run_equivalence(config: EquivConfig) -> ExperimentReport:
    """Branch A (d >= 2): planted instances must chain witness construction,
    a consistency pass, both searches, and verification.  Branch B (d = 1):
    the consistency verdict under the trivial witness is compared with the
    exact common-point LP decision.  Assertion failures are recorded per
    trial, never raised."""
    t0 = time.perf_counter()
    records = [_run_trial(config, trial) for trial in range(config.trials)]
    agg = {
        "trials": config.trials,
        "consistency_pass": sum(
            1 for r in records if r["consistency"]["status"] == "pass"
        ),
        "direction_found": sum(
            1 for r in records if r.get("direction", {}).get("found", False)
        ),
        "borsuk_found": sum(1 for r in records if r.get("borsuk", {}).get("found", False)),
        "agreements": sum(1 for r in records if r.get("agree", False)),
        "false_fails": sum(
            1
            for r in records
            if "agree" in r
            and not r["agree"]
            and r["oracle"]["common_point"]
        ),
        "assertion_failures": sum(len(r["failures"]) for r in records),
    }
    return ExperimentReport(
        config, tuple(records), agg, wall_time=time.perf_counter() - t0
    )


# ---------------------------------------------------------------------------
# rational re-verification of stored certificates


def _off(terms) -> bool:
    """Whether a sum of Gaussian rationals (re, im) misses 0 by more than
    LIFT_TOL."""
    return any(abs(sum(t[i] for t in terms)) > LIFT_TOL for i in (0, 1))


def _reverify_dependence(doc: dict, witness: ConsistencyWitness) -> list:
    """Rational re-check that the stored coefficients c of a lift or no-lift
    are an affine dependence of the trial's witness phi: sum c_F = 0 and
    sum c_F phi(F) = 0.  A dependence is a float null vector, so each holds
    to LIFT_TOL."""
    coeffs = [tuple(map(Fraction, p)) for p in doc["coeffs"]]
    phi = [[(Fraction(z.real), Fraction(z.imag)) for z in witness.point_of(label).tolist()]
           for label in doc["labels"]]
    problems = []
    if _off(coeffs):
        problems.append("stored coefficients do not sum to zero")
    if any(_off([gmul(c, p[col]) for c, p in zip(coeffs, phi)]) for col in range(witness.k)):
        problems.append("stored coefficients are not a dependence of the witness")
    return problems


def _reverify_lift(doc: dict, family: Family) -> list:
    """Rational re-check of a stored lift: nonnegative weights, convex vertex
    certificates, and both dependence equations.  A lift is a float solution
    of its cone LP, exact in none of these conditions, so each holds to
    LIFT_TOL."""
    problems = _malformed(doc, ("labels", "coeffs", "r", "points", "vertex_weights"), family)
    if problems:
        return problems
    labels = doc["labels"]
    coeffs = [tuple(map(Fraction, p)) for p in doc["coeffs"]]
    r = [Fraction(v) for v in doc["r"]]
    if any(v < -LIFT_TOL for v in r):
        problems.append("negative lift weight")
    if all(abs(v) <= LIFT_TOL for v in r):
        problems.append("all lift weights vanish")
    poly_of = dict(zip(family.labels, family.sets))
    points = [[tuple(map(Fraction, p)) for p in row] for row in doc["points"]]
    for label, ws, pt, weight in zip(labels, doc["vertex_weights"], points, r):
        if weight == 0:
            continue
        V = poly_of[label].vertices.tolist()
        fw = [Fraction(w) for w in ws]
        if any(w < -LIFT_TOL for w in fw):
            problems.append(f"negative vertex weight for {label}")
        if abs(sum(fw) - 1) > LIFT_TOL:
            problems.append(f"vertex weights of {label} do not sum to one")
        for col in range(family.dim):
            combo = [(w * Fraction(v[col].real), w * Fraction(v[col].imag)) for v, w in zip(V, fw)]
            if _off(combo + [(-pt[col][0], -pt[col][1])]):
                problems.append(f"stored point of {label} is not the certified combination")
                break
    # sum r_F a_F = 0 and sum (r_F a_F) p_F = 0
    ra = [(w * c[0], w * c[1]) for w, c in zip(r, coeffs)]
    if _off(ra):
        problems.append("lift violates the coefficient equation")
    if any(_off([gmul(c, pt[col]) for c, pt in zip(ra, points)]) for col in range(family.dim)):
        problems.append("lift violates the point equation")
    return problems


def _reverify_nolift(doc: dict, family: Family) -> list:
    """Re-decide a stored no-lift verdict in exact arithmetic: is 0 a convex
    combination of the generators (a_F v, a_F), v a vertex of F?  They are
    rebuilt as Gaussian rationals from the stored coefficients and the
    instance's vertices, and the cone LP must stay infeasible."""
    problems = _malformed(doc, ("labels", "coeffs"), family)
    if problems:
        return problems
    coeffs = [_unpair(p) for p in doc["coeffs"]]
    cols = _exact_generators(coeffs, [family[label].vertices for label in doc["labels"]])
    rows = np.array(cols, dtype=object).T
    rhs = np.array([0] * (len(rows) - 1) + [1], dtype=object)
    witness, _ = next(certify(rows[None], rhs[None], exact=True))
    if witness is not None:
        return ["stored no-lift verdict is rationally liftable after all"]
    return []


def _reverify_oracle(oracle: dict, family: Family) -> list:
    """Re-check a stored d = 1 common point by each set's float membership
    LP, to FEAS_TOL = 1e-9 like a lift: the point is a float rounding of a
    common point, so it need not lie exactly in a set it meets."""
    point = np.array([[_unpair(oracle["point"])]])
    return [f"oracle point outside {label}" for label, poly in family
            if not hulls_intersect(point, poly).feasible]


def _malformed(doc: dict, keys, family: Family) -> list:
    """Problems with the shape of a stored record: per-label lists that
    differ in length, labels that name no member of the family, and labels
    that repeat."""
    problems = [f"stored label {label!r} is not in the family"
                for label in doc["labels"] if label not in family.labels]
    if len(set(doc["labels"])) != len(doc["labels"]):
        problems.append("stored labels repeat")
    if len({len(doc[k]) for k in keys}) > 1:
        lengths = ", ".join(f"{key} ({len(doc[key])})" for key in keys)
        problems.append(f"stored {lengths} differ in length")
    return problems


def reverify_report(doc: dict) -> list:
    """Rational re-check of every stored certificate in a report (no-lifts
    exactly, lifts to 1e-9, and the dependence of each against the trial's
    witness to 1e-9); returns the list of discrepancies (empty means
    clean)."""
    config = equiv_config_from_json(doc["config"])
    problems = []
    for record in doc["records"]:
        trial = _integer(_whole(record["trial"]), "trial")
        instance, witness = _trial_case(config, trial)
        family = instance.family
        cons = record["consistency"]
        for stored, reverify in ((cons.get("worst_lift"), _reverify_lift),
                                 (cons.get("violation"), _reverify_nolift)):
            if stored:  # the dependence is checked once its certificate holds
                found = reverify(stored, family) or _reverify_dependence(stored, witness)
                problems += [f"trial {trial}: {p}" for p in found]
        oracle = record.get("oracle")
        if oracle and oracle.get("common_point"):
            problems += [f"trial {trial}: {p}" for p in _reverify_oracle(oracle, family)]
    return problems
