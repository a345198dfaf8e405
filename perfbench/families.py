"""Seeded workloads of the tvlab benchmark.

Each workload builds a pool of d=2 families in set-up, runs one family per
closed-loop step, and reduces each output to an outcome record (a tuple of
verdicts and counts that must repeat exactly for the same family) and a list
of correctness-gate failures, computed outside the timed region.

tvlab functions are called through their module attributes
(``consistency.check_dependency_consistency`` and so on) so that the tracer
in ``spans.py`` sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import tvlab.consistency as consistency
import tvlab.geometry as geometry
import tvlab.harness as harness
import tvlab.transversal as transversal

SAMPLES = 64
# The default search budget (32 starts x 2000 iterations) spends about 25 s
# on one Borsuk search that finds no zero on these families, so a run would
# hold a handful of families and its figures would swing with each one.  At
# this budget a run holds over a hundred families, four in five of them in
# the slow mode where both searches use their whole budget.
SEARCH_STARTS = 2
SEARCH_ITERS = 100

LIFT_RESIDUAL_TOL = 1e-9
DIRECTION_TOL = 1e-6
BORSUK_TOL = 1e-4
ZERO_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class Item:
    """One generated family with its witness; the program sees only this."""

    index: int
    seed: int
    family: object
    witness: object


@dataclass(frozen=True)
class Workload:
    name: str
    # set counts, cycled over the pool so that every run holds the same mix;
    # the mix keeps the per-family median and tail inside one size class,
    # away from a class boundary where they would jump from seed to seed
    sizes: tuple
    planted: bool
    pool: int  # distinct families built in set-up (the loop wraps around)
    prefix: int  # families run before timing, as warm-up and repeat reference
    tail: float  # latency_tail_ms percentile: the highest with ten samples
    # beyond it at the fewest whole-cycle families a 30-s run holds on a slow
    # host (necessity 36, search 99, refute 399), fixed so that runs and
    # commits compare the same percentile
    run: object  # Item -> raw output
    record: object  # raw output -> outcome record
    fields: tuple  # names of the record's entries
    gate: object  # (Item, raw output) -> list of failure reasons


def family_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _gaussian_witness(family, rng):
    n = len(family.labels)
    pts = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    return consistency.ConsistencyWitness(1, pts, {l: i for i, l in enumerate(family.labels)})


def build_pool(w: Workload, seed: int, pool: int | None = None) -> list:
    """Generate the pool: instances, then witnesses (planted transversal
    frames for necessity, seeded Gaussian targets in C^1 otherwise)."""
    items = []
    for index in range(w.pool if pool is None else pool):
        s = family_seed(seed, index)
        spec = harness.GenSpec(d=2, n_sets=w.sizes[index % len(w.sizes)], planted=w.planted, seed=s)
        inst = harness.gen_instance(spec)
        if w.planted:
            witness = harness.witness_from_transversal(inst, inst.planted)
        else:
            witness = _gaussian_witness(inst.family, np.random.default_rng([s, 1]))
        items.append(Item(index, s, inst.family, witness))
    return items


# ---------------------------------------------------------------------------
# the consistency route: necessity-d2 and refute-d2


def run_check(item: Item):
    return consistency.check_dependency_consistency(
        item.family, item.witness, consistency.ConsistencyConfig(samples=SAMPLES, seed=item.seed)
    )


CHECK_FIELDS = (
    "status", "dependences", "circuit", "sampled", "fail_support", "fail_origin", "fail_exact",
)


def record_check(v) -> tuple:
    nolift = v.violation
    if nolift is None:
        return (v.status, v.n_dependences, v.n_circuits, v.n_sampled, 0, "", False)
    dep = nolift.dependence
    return (
        v.status,
        v.n_dependences,
        v.n_circuits,
        v.n_sampled,
        len(dep.labels),
        dep.origin,
        bool(nolift.exact),
    )


def _gate_pass(v) -> list:
    if v.max_lift_residual > LIFT_RESIDUAL_TOL:
        return [f"lift residual {v.max_lift_residual:.3e} above {LIFT_RESIDUAL_TOL:g}"]
    return []


def _gate_fail(item: Item, v) -> list:
    nolift = v.violation
    if not isinstance(nolift, consistency.NoLift):
        return ["fail without a no-lift certificate"]
    if not nolift.exact:
        return ["fail certificate is not exact"]
    again = consistency.lift_dependence(
        item.family, nolift.dependence, consistency.ConsistencyConfig(exact=True)
    )
    if not isinstance(again, consistency.NoLift):
        return ["failing dependence lifts when decided exactly"]
    return []


def gate_necessity(item: Item, v) -> list:
    if not v.passed:
        return ["planted family judged inconsistent"]
    return _gate_pass(v)


def gate_refute(item: Item, v) -> list:
    return _gate_pass(v) if v.passed else _gate_fail(item, v)


# ---------------------------------------------------------------------------
# the search route: search-d2


@dataclass(frozen=True, eq=False)
class SearchOutput:
    direction: object  # ComplexHyperplane or NotFound
    direction_report: object  # VerificationReport at DIRECTION_TOL, when found
    embedded: object
    zero: object  # SpherePoint or NotFound
    zero_report: object  # VerificationReport at BORSUK_TOL, when found
    conviction: object  # lift_dependence result for a zero that misses a set


def _found(x) -> bool:
    return not isinstance(x, transversal.NotFound)


def run_search(item: Item) -> SearchOutput:
    cfg = transversal.TransversalConfig(starts=SEARCH_STARTS, iters=SEARCH_ITERS, seed=item.seed)
    direction = transversal.find_complex_transversal(item.family, cfg)
    direction_report = None
    if _found(direction):
        direction_report = transversal.verify_transversal(direction, item.family, tol=DIRECTION_TOL)
    emb = geometry.embed_family(item.family)
    zero = transversal.find_borsuk_zero(emb, item.witness, cfg)
    zero_report = conviction = None
    if _found(zero):
        H = geometry.hyperplane_from_sphere_point(zero)
        zero_report = transversal.verify_transversal(H, item.family, tol=BORSUK_TOL)
        if not zero_report.passed:
            dep = transversal.borsuk_zero_dependence(zero, emb, item.witness)
            if dep is not None:
                conviction = consistency.lift_dependence(item.family, dep)
    return SearchOutput(direction, direction_report, emb, zero, zero_report, conviction)


def _convicted(out: SearchOutput) -> bool:
    return isinstance(out.conviction, consistency.NoLift) and out.conviction.exact


SEARCH_FIELDS = (
    "direction_found", "direction_verified", "zero_found", "zero_verified", "convicted",
    "conviction_support",
)


def record_search(out: SearchOutput) -> tuple:
    return (
        _found(out.direction),
        bool(out.direction_report is not None and out.direction_report.passed),
        _found(out.zero),
        bool(out.zero_report is not None and out.zero_report.passed),
        _convicted(out),
        0 if out.conviction is None else len(out.conviction.dependence.labels),
    )


def gate_search(item: Item, out: SearchOutput) -> list:
    problems = []
    if _found(out.direction) and not out.direction_report.passed:
        problems.append(f"direction transversal fails verification at {DIRECTION_TOL:g}")
    if _found(out.zero):
        residual = transversal.borsuk_map(out.zero, out.embedded, item.witness).norm
        if residual > ZERO_RESIDUAL_TOL:
            problems.append(f"zero residual {residual:.3e} above {ZERO_RESIDUAL_TOL:g}")
        if not out.zero_report.passed and not _convicted(out):
            problems.append("zero misses a set without an exact no-lift conviction")
    return problems


def found_searches(out: SearchOutput) -> int:
    """Searches (direction, Borsuk) that returned a hyperplane or a zero."""
    return int(_found(out.direction)) + int(_found(out.zero))


# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="necessity-d2",
            sizes=(3, 4, 5, 6, 6, 6, 6, 6, 6),
            planted=True,
            pool=160,
            prefix=4,
            tail=70.0,
            run=run_check,
            record=record_check,
            fields=CHECK_FIELDS,
            gate=gate_necessity,
        ),
        Workload(
            name="refute-d2",
            sizes=(4, 5, 6),
            planted=False,
            pool=768,
            prefix=6,
            tail=95.0,
            run=run_check,
            record=record_check,
            fields=CHECK_FIELDS,
            gate=gate_refute,
        ),
        Workload(
            name="search-d2",
            sizes=(9, 10, 11),
            planted=False,
            pool=256,
            prefix=3,
            tail=85.0,
            run=run_search,
            record=record_search,
            fields=SEARCH_FIELDS,
            gate=gate_search,
        ),
    )
}
