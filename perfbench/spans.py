"""Span tracing of tvlab from outside the package.

The tracer wraps public tvlab functions at the module attributes their
callers look up (``tvlab.lp.lp_feasible`` for the cone LP inside
``tvlab.lp``, ``tvlab.transversal.lp_feasible`` for the margin and offset
LPs, and so on), so no file of the package changes.  Every wrapped call
becomes a span ``[name, start, end, parent, family, attr]`` held in memory;
``parent`` is the index of the enclosing span (-1 for a root) and ``family``
the pool index of the family being processed.  A span's self time is its
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, FAMILY, ATTR = range(6)

ROOT = "bench.family"


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.family = -1

    def wrap(self, name, fn, annotate=None):
        """``fn`` recording one span per call; ``annotate(args, kwargs,
        result)`` stores cheap per-call facts (path taken, problem size)."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.family, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if annotate is not None:
                rec[ATTR] = annotate(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def root(self, family: int):
        """Span around the benchmark's own work on one family."""
        self.family = family
        rec = [ROOT, 0.0, 0.0, -1, family, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            yield
        finally:
            rec[END] = perf_counter()
            self._stack.pop()
            self.family = -1


# ---------------------------------------------------------------------------
# what is wrapped, and where


def _lp_attr(args, kwargs, cert):
    lp = args[0] if args else kwargs["lp"]
    requested = args[1] if len(args) > 1 else kwargs.get("exact", False)
    return (
        "exact" if cert.exact else "float",
        len(lp.rows) * lp.n_vars,
        bool(cert.exact and not requested),
    )


def _keep_result(args, kwargs, result):
    return result


def _is_nolift(args, kwargs, result):
    return type(result).__name__ == "NoLift"


# (module, attribute, span name, annotate); one entry per place a caller
# looks the function up
PATCHES = (
    ("tvlab.lp", "lp_feasible", "lp.solve", _lp_attr),
    ("tvlab.transversal", "lp_feasible", "lp.solve", _lp_attr),
    ("tvlab.consistency", "nontrivial_zero_in_cone", "lp.cone", None),
    ("tvlab.consistency", "check_dependency_consistency", "consistency.check", None),
    ("tvlab.consistency", "enumerate_dependences", "consistency.enumerate", _keep_result),
    ("tvlab.consistency", "lift_dependence", "consistency.lift", _is_nolift),
    ("tvlab.transversal", "find_complex_transversal", "transversal.direction", None),
    ("tvlab.transversal", "polygon_intersection_margin", "transversal.margin", None),
    ("tvlab.transversal", "complex_transversal_for_normal", "transversal.offset", None),
    ("tvlab.transversal", "find_borsuk_zero", "transversal.borsuk", None),
    ("tvlab.transversal", "verify_transversal", "transversal.verify", None),
    ("tvlab.harness", "verify_transversal", "transversal.verify", None),
    ("tvlab.transversal", "borsuk_zero_dependence", "transversal.zero_dependence", None),
    ("tvlab.harness", "witness_from_transversal", "harness.witness", None),
)


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers of PATCHES for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, annotate in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, annotate))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> list:
    """Per span: duration minus the union of its children's intervals,
    each clipped to the parent's interval."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(
            (max(spans[c][START], lo), min(spans[c][END], hi)) for c in children[i]
        ):
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append((hi - lo) - covered)
    return out


def span_key(s) -> str:
    """Reporting name: LP solves are split by the path that answered."""
    if s[NAME] == "lp.solve":
        return "lp." + s[ATTR][0]
    return s[NAME]


def family_counts(spans, families) -> dict:
    """Deterministic work counts per family id, for the given ids."""
    wanted = set(families)
    out = {f: Counter() for f in wanted}
    for s in spans:
        if s[FAMILY] not in wanted or s[NAME] == ROOT:
            continue
        c = out[s[FAMILY]]
        key = span_key(s)
        c[key + ".calls"] += 1
        if s[NAME] == "lp.solve":
            c[key + ".cells"] += s[ATTR][1]
            c["lp.escalations"] += s[ATTR][2]
        elif s[NAME] == "consistency.enumerate":
            for dep in s[ATTR]:
                c["consistency.dependences"] += 1
                c["consistency." + dep.origin] += 1
                c[f"consistency.support_{len(dep.labels)}"] += 1
        elif s[NAME] == "consistency.lift":
            c["consistency.lift.nolift"] += s[ATTR]
    return {f: dict(sorted(c.items())) for f, c in out.items()}


def layer_totals(spans) -> dict:
    """{reporting name: [calls, busy seconds, self seconds, cells]}."""
    selfs = self_times(spans)
    tot = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for s, own in zip(spans, selfs):
        t = tot[span_key(s)]
        t[0] += 1
        t[1] += s[END] - s[START]
        t[2] += own
        if s[NAME] == "lp.solve":
            t[3] += s[ATTR][1]
    return tot


def per_layer_metrics(loop_spans, setup_spans) -> dict:
    """Every per-layer metric, as {name: (value, unit)}; set-up spans feed
    only the harness layer."""
    tot = layer_totals(loop_spans)
    setup = layer_totals(setup_spans)
    counts = Counter()
    for c in family_counts(loop_spans, {s[FAMILY] for s in loop_spans}).values():
        counts.update(c)
    lifts_in_check = sum(
        1
        for s in loop_spans
        if s[NAME] == "consistency.lift"
        and s[PARENT] >= 0
        and loop_spans[s[PARENT]][NAME] == "consistency.check"
    )
    m = {}

    def timed(name, self_time=False, source=tot):
        calls, busy, own, _ = source.get(name, (0, 0.0, 0.0, 0))
        m[name + ".calls"] = (calls, "count")
        m[name + ".busy_s"] = (busy, "s")
        if self_time:
            m[name + ".self_s"] = (own, "s")

    for path in ("float", "exact"):
        name = "lp." + path
        timed(name)
        calls, busy, _, cells = tot.get(name, (0, 0.0, 0.0, 0))
        m[name + ".mean_ms"] = (1000.0 * busy / calls if calls else 0.0, "ms")
        m[name + ".cells"] = (cells, "count")
    m["lp.escalations"] = (counts["lp.escalations"], "count")
    timed("lp.cone", self_time=True)

    timed("consistency.check", self_time=True)
    timed("consistency.enumerate")
    deps = counts["consistency.dependences"]
    m["consistency.dependences"] = (deps, "count")
    m["consistency.circuit"] = (counts["consistency.circuit"], "count")
    m["consistency.sampled"] = (counts["consistency.sampled"], "count")
    for size in range(2, 6):
        key = f"consistency.support_{size}"
        m[key] = (counts[key], "count")
    timed("consistency.lift", self_time=True)
    m["consistency.lift.nolift"] = (counts["consistency.lift.nolift"], "count")
    m["consistency.lifted_per_enumerated"] = (lifts_in_check / deps if deps else 0.0, "ratio")

    timed("transversal.direction", self_time=True)
    timed("transversal.margin")
    timed("transversal.offset")
    timed("transversal.borsuk", self_time=True)
    timed("transversal.verify")
    timed("transversal.zero_dependence")
    searches = tot.get("transversal.direction", (0,))[0]
    margins = tot.get("transversal.margin", (0,))[0]
    m["transversal.starts_per_search"] = (margins / searches if searches else 0.0, "ratio")

    timed("harness.witness", source=setup)
    return m


def accounting(spans, wall: float) -> dict:
    """Self times of all spans plus the wall time no root span covers; the
    sum must give back the traced loop's wall time."""
    selfs = self_times(spans)
    in_roots = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    remainder = wall - in_roots
    total = sum(selfs) + remainder
    return {
        "self_sum_s": sum(selfs),
        "unspanned_s": remainder,
        "wall_s": wall,
        "accounted": total / wall if wall > 0 else 1.0,
    }


def split(spans) -> dict:
    """Share of the root spans' time spent as self time of each span name."""
    selfs = self_times(spans)
    by = Counter()
    for s, own in zip(spans, selfs):
        by[span_key(s)] += own
    total = sum(by.values())
    return {k: v / total for k, v in by.most_common()} if total > 0 else {}
