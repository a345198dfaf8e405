"""Closed-loop benchmark of tvlab: necessity, refutation and budgeted search.

    python3 perfbench/run.py --workload necessity-d2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One single-threaded process builds a seeded pool of d=2 families (set-up),
then runs one family at a time, the next after the previous verdict, for
``--seconds``.  Every output goes through a correctness gate outside the
timed region.  With ``--trace 0`` the end-to-end metrics are measured;
``--trace 1`` runs the same families untraced and then traced, and reports
per-layer metrics from spans recorded by wrappers around tvlab's public
functions (see ``spans.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Work counts (verdicts, dependences, lifts, LP solves per path, escalations,
search starts, convictions) are printed apart from times.  They cover the
first families of the pool, which are run once before timing as warm-up and
must repeat exactly in the timed loop, between traced and untraced passes,
and across runs with the same seed.

Times are CPU seconds of this process and its reaped children
(``cpu_seconds``), not wall-clock time: the program is single-threaded and
never waits, so on an idle machine the two agree, while on a shared host CPU
time leaves out the time the host's scheduler gives the CPU to someone else
(steal time, other processes).  The end-to-end times are then put at a fixed
reference speed of the host with the gauge of ``speed.py``, run after every
family and set-up step, because the speed of a shared host drifts by a
quarter within minutes.  Each run also prints the times as measured, the
speed factors, the loop's wall time and the host's steal time.

Exit codes: 0 when a result is printed and correct, 1 when the result is
incorrect, 2 for a usage error or when the tvlab sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import spans as S
import speed

# The LPs have a few rows and tens of columns; extra BLAS threads only add
# scheduler noise.  This must be set before numpy is first imported.
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_REPEATS = 5
NEIGHBOURS = 3
ACCOUNTING_TOL = 1e-6

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def cpu_seconds() -> float:
    """CPU time of this process, all threads, plus that of reaped children."""
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + c.ru_utime + c.ru_stime


def steal_seconds():
    """Time the host has taken the CPUs away from this machine, summed over
    its CPUs, or None where the kernel does not report it."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def load_program():
    """Import tvlab from this checkout's sources; returns the import's CPU
    time, or None when the sources are not there."""
    if not (SRC / "tvlab" / "__init__.py").is_file():
        return None
    sys.dont_write_bytecode = True
    t0 = cpu_seconds()
    sys.path.insert(0, str(SRC))
    import tvlab  # noqa: F401

    import families  # noqa: F401  (imports the tvlab modules it drives)

    elapsed = cpu_seconds() - t0
    if Path(tvlab.__file__).resolve().parent != SRC / "tvlab":
        raise ImportError(f"tvlab imported from {tvlab.__file__}, not from {SRC}")
    return elapsed


def machine_facts(numpy_preloaded: bool) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREADS},
        "blas_env_set_before_numpy": not numpy_preloaded,
    }


# ---------------------------------------------------------------------------
# the closed loop


class Raised:
    """Output of a family whose run raised; counted as a failed operation."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()


def run_one(w, item):
    try:
        return w.run(item)
    except Exception as exc:  # the loop must go on; the gate counts it
        return Raised(exc)


def record_of(w, out) -> tuple:
    return ("raised", out.kind) if isinstance(out, Raised) else w.record(out)


class Loop:
    """Outputs and timings of one closed loop."""

    def __init__(self, outs, lat, gauge, wall, steal):
        self.outs = outs
        self.lat = lat  # CPU seconds per family
        self.gauge = gauge  # speed samples (chunks, seconds) per family, or None
        self.cpu = sum(lat)
        self.wall = wall  # the loop's wall time, gauge included
        self.steal = steal  # host steal seconds over all CPUs, or None


def closed_loop(w, items, seconds=None, count=None, tracer=None, gauge=False) -> Loop:
    """Run families in pool order, each after the previous output, until
    ``seconds`` of wall time have passed or ``count`` families ran; with
    ``gauge``, sample the host's speed after each family."""
    outs, lat, samples = [], [], []
    steal0 = steal_seconds()
    wall0 = now = time.perf_counter()
    pos = 0
    while (count is None and (pos == 0 or now - wall0 < seconds)) or (
        count is not None and pos < count
    ):
        item = items[pos % len(items)]
        t0 = cpu_seconds()
        if tracer is None:
            out = run_one(w, item)
        else:
            with tracer.root(pos):
                out = run_one(w, item)
        lat.append(cpu_seconds() - t0)
        outs.append(out)
        if gauge:
            samples.append(speed.sample(cpu_seconds, lat[-1]))
        now = time.perf_counter()
        pos += 1
    steal1 = steal_seconds()
    steal = None if steal0 is None or steal1 is None else steal1 - steal0
    return Loop(outs, lat, samples if gauge else None, now - wall0, steal)


def reference_times(loop: Loop, cycle: int) -> tuple:
    """CPU times of the loop's families at the reference speed (speed.py),
    for the loop's whole cycles of the workload's set counts, so that every
    run weighs the set counts alike (all families when the loop holds less
    than one cycle).  Each family's time is scaled by the speed factor of
    the gauge samples taken after it and after the NEIGHBOURS families on
    either side.  Returns (scaled times, factors)."""
    n = len(loop.lat)
    if n >= cycle:
        n -= n % cycle
    g = loop.gauge
    factors = [speed.factor(g[max(0, i - NEIGHBOURS):i + NEIGHBOURS + 1]) for i in range(n)]
    return [t * f for t, f in zip(loop.lat, factors)], factors


def gate_all(w, items, outs):
    """Failure reasons per output.  The gate of a family that repeats (the
    loop wraps around the pool) is reused when its record repeats."""
    memo = {}
    reasons = []
    for pos, out in enumerate(outs):
        item = items[pos % len(items)]
        rec = record_of(w, out)
        if item.index in memo and memo[item.index][0] == rec:
            reasons.append(memo[item.index][1])
            continue
        if isinstance(out, Raised):
            probs = [out.text]
        else:
            try:
                probs = w.gate(item, out)
            except Exception as exc:  # a check that cannot complete is a failure
                probs = [Raised(exc).text]
        memo[item.index] = (rec, probs)
        reasons.append(probs)
    return reasons


def repeat_problems(w, items, reference, outs, what) -> list:
    """Records that differ from the reference records at the same loop
    position, or from the first record of the same pool family."""
    problems = []
    first = {}
    for pos, out in enumerate(outs):
        rec = record_of(w, out)
        idx = items[pos % len(items)].index
        if pos < len(reference) and reference[pos] != rec:
            problems.append(f"{what}: family {idx} record {rec} != {reference[pos]}")
        if idx in first and first[idx] != rec:
            problems.append(f"repeat of family {idx}: record {rec} != {first[idx]}")
        first.setdefault(idx, rec)
    return problems


# ---------------------------------------------------------------------------
# reporting helpers


def tally(w, records) -> dict:
    """Sum the counts and count the categories of outcome records."""
    c = Counter()
    for rec in records:
        for name, v in zip(w.fields, rec):
            if isinstance(v, str):
                if v:
                    c[f"{name}.{v}"] += 1
            elif isinstance(v, bool):
                c[name] += int(v)
            elif name.endswith("support"):
                if v:
                    c[f"{name}_{v}"] += 1
            else:
                c[name] += v
    return dict(sorted(c.items()))


def tail_latency(lat, wanted: float):
    """(percentile, value) at the workload's percentile, lowered when fewer
    than ten samples lie beyond it to the highest whole percentile that has
    ten; the maximum when there are fewer than twenty samples."""
    import numpy as np

    limit = math.floor(100.0 - 1000.0 / len(lat))
    if limit < 50:
        return 100.0, float(max(lat))
    p = min(wanted, limit)
    return p, float(np.percentile(lat, p))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def baseline_figures(loop_spans, items) -> dict:
    """The ROADMAP baseline figures, recomputed from the traced loop."""
    cone_lp = {"float": [], "exact": []}
    exact_by_cells = {}
    for s in loop_spans:
        if s[S.NAME] == "lp.solve" and s[S.PARENT] >= 0 and loop_spans[s[S.PARENT]][S.NAME] == "lp.cone":
            path, cells, _ = s[S.ATTR]
            cone_lp[path].append(s[S.END] - s[S.START])
            if path == "exact":
                exact_by_cells.setdefault(cells, []).append(s[S.END] - s[S.START])
    busy = Counter()
    for s in loop_spans:
        busy[s[S.NAME]] += s[S.END] - s[S.START]
    enum6 = [
        (s[S.END] - s[S.START], len(s[S.ATTR]))
        for s in loop_spans
        if s[S.NAME] == "consistency.enumerate"
        and len(items[s[S.FAMILY] % len(items)].family.labels) == 6
    ]
    out = {}
    for path, ts in cone_lp.items():
        if ts:
            out[f"cone_lp_{path}_ms_per_solve"] = 1000.0 * statistics.fmean(ts)
            out[f"cone_lp_{path}_solves"] = len(ts)
    if exact_by_cells:
        out["cone_lp_exact_ms_by_cells"] = {
            c: 1000.0 * statistics.fmean(ts) for c, ts in sorted(exact_by_cells.items())
        }
    if busy["consistency.check"] > 0:
        out["lift_share_of_check"] = busy["consistency.lift"] / busy["consistency.check"]
    if enum6:
        out["enumerate_6set_ms"] = 1000.0 * statistics.fmean(t for t, _ in enum6)
        out["enumerate_6set_dependences"] = statistics.fmean(n for _, n in enum6)
        out["enumerate_6set_families"] = len(enum6)
    return out


# ---------------------------------------------------------------------------


def run_workload(name, seed, seconds, trace, import_s, pool=None, emit=print) -> dict:
    """One workload; prints report lines through ``emit`` and returns the
    result object."""
    import families as F

    w = F.WORKLOADS[name]
    emit(f"workload: {name} seed={seed} seconds={seconds} trace={int(trace)} "
         f"sizes={list(w.sizes)} pool={w.pool if pool is None else pool} closed loop, 1 client")
    problems = []

    setup_tracer = S.Tracer()
    if trace:
        with S.traced(setup_tracer):
            items = F.build_pool(w, seed, pool)
        setup_times = []
    else:
        setup_times, setup_gauge = [], []
        for _ in range(SETUP_REPEATS):
            t0 = cpu_seconds()
            items = F.build_pool(w, seed, pool)
            setup_times.append(cpu_seconds() - t0)
            setup_gauge.append(speed.sample(cpu_seconds, setup_times[-1]))

    prefix = min(w.prefix, len(items))
    reference = [record_of(w, o) for o in closed_loop(w, items, count=prefix).outs]
    counts = tally(w, reference)

    if trace:
        warm_tracer = S.Tracer()
        with S.traced(warm_tracer):
            traced_warm = closed_loop(w, items, count=prefix, tracer=warm_tracer).outs
        problems += repeat_problems(w, items, reference, traced_warm, "traced warm-up")
        warm_counts = S.family_counts(warm_tracer.spans, range(prefix))
        span_counts = Counter()
        for c in warm_counts.values():
            span_counts.update(c)
        counts.update({k: span_counts[k] for k in sorted(span_counts)})

        loop = closed_loop(w, items, seconds=seconds / 2.0)
        outs = loop.outs
        problems += repeat_problems(w, items, reference, outs, "untraced loop")
        tracer = S.Tracer()
        with S.traced(tracer):
            tloop = closed_loop(w, items, count=len(outs), tracer=tracer)
        touts = tloop.outs
        problems += repeat_problems(
            w, items, [record_of(w, o) for o in outs], touts, "traced loop vs untraced"
        )
        loop_counts = S.family_counts(tracer.spans, range(min(prefix, len(touts))))
        for f, c in loop_counts.items():
            if c != warm_counts[f]:
                problems.append(f"span counts of family {f} differ between traced passes")
    else:
        loop = closed_loop(w, items, seconds=seconds, gauge=True)
        outs = loop.outs
        problems += repeat_problems(w, items, reference, outs, "timed loop")

    reasons = gate_all(w, items, outs)
    failed = sum(1 for r in reasons if r)
    why = Counter(p for r in reasons for p in r)
    n = len(outs)
    emit("counts: " + json.dumps(counts, sort_keys=True))
    emit("gate: " + json.dumps({
        "checked": len(reasons), "failed": failed, "failed_fraction": failed / n,
        "reasons": dict(why.most_common()),
    }))

    if trace:
        acc = S.accounting(tracer.spans, tloop.wall)
        if abs(acc["accounted"] - 1.0) > ACCOUNTING_TOL:
            problems.append(f"self times account for {acc['accounted']:.9f} of the traced wall time")
        emit("accounting: " + json.dumps(acc))
        emit("split (self time share of traced loop): " + json.dumps(
            {k: round(v, 4) for k, v in S.split(tracer.spans).items()}))
        emit("baseline: " + json.dumps(baseline_figures(tracer.spans, items)))
        values = S.per_layer_metrics(tracer.spans, setup_tracer.spans)
        values["transversal.convictions"] = (
            tally(w, [record_of(w, o) for o in touts]).get("convicted", 0), "count")
        values["trace.untraced_families_per_s"] = (n / loop.cpu, "1/s")
        values["trace.traced_families_per_s"] = (n / tloop.cpu, "1/s")
        values["trace.overhead"] = (tloop.cpu / loop.cpu, "ratio")
        emit(f"tracing overhead: untraced {n / loop.cpu:.4f}/s, traced {n / tloop.cpu:.4f}/s "
             f"(CPU time) over the same {n} families; span times are wall-clock")
        emit(f"lifted_per_enumerated base: {values['consistency.dependences'][0]} dependences")
    else:
        lat, factors = reference_times(loop, len(w.sizes))
        pct, tail = tail_latency(lat, w.tail)
        setup_factor = speed.factor(setup_gauge)
        measured_setup = import_s + statistics.median(setup_times)
        values = {
            "families_per_s": (len(lat) / sum(lat), "1/s"),
            "latency_p50_ms": (1000.0 * statistics.median(lat), "ms"),
            "latency_tail_ms": (1000.0 * tail, "ms"),
            "setup_s": (measured_setup * setup_factor, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        _, measured_tail = tail_latency(loop.lat, pct)
        q = statistics.quantiles(factors, n=4) if len(factors) > 1 else factors * 3
        emit(f"times are CPU time at the reference speed (speed.py); speed factor: set-up "
             f"{setup_factor:.4f}, timed loop min {min(factors):.4f} quartiles "
             f"{q[0]:.4f} {q[1]:.4f} {q[2]:.4f} max {max(factors):.4f}")
        emit(f"time metrics cover the first {len(lat)} of {n} families (whole cycles of set "
             f"counts); latency_tail_ms is p{pct:g}; setup_s is import {import_s:.4f} s + "
             f"median of {len(setup_times)} pool builds {[round(t, 4) for t in setup_times]}, "
             f"times the set-up factor")
        emit("as measured (CPU time, unscaled): " + json.dumps({
            "families_per_s": n / loop.cpu,
            "latency_p50_ms": 1000.0 * statistics.median(loop.lat),
            "latency_tail_ms": 1000.0 * measured_tail,
            "setup_s": measured_setup,
        }))
    emit(f"timed loop: program cpu {loop.cpu:.3f} s, wall {loop.wall:.3f} s (speed gauge "
         f"included), host steal {loop.steal} s (all CPUs)")
    for k, (v, u) in values.items():
        emit(f"  {k} = {v:.6g} {u}")
    # reported here only: 0 on a correct run, and search-d2 alone searches,
    # so neither can be a BENCHMARK.json metric (those are never 0)
    emit(f"  failed_fraction = {failed / n:.6g} ratio ({failed} of {n} families)")
    if name == "search-d2":
        found = sum(F.found_searches(o) for o in outs if not isinstance(o, Raised))
        emit(f"  found_fraction = {found / (2 * n):.6g} ratio ({found} of {2 * n} searches)")
    for problem in problems:
        emit("check failed: " + problem)
    return {
        "correct": not problems and failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    numpy_preloaded = "numpy" in sys.modules
    os.environ.update(BLAS_THREADS)
    import_s = load_program()
    if import_s is None:
        print(f"error: tvlab sources not found under {SRC}", file=sys.stderr)
        return 2
    import families as F

    names = list(F.WORKLOADS) if args.workload == "all" else [args.workload]
    for n in names:
        if n not in F.WORKLOADS:
            ap.error(f"unknown workload {n!r}; choose from {', '.join(F.WORKLOADS)} or all")
    print("machine: " + json.dumps(machine_facts(numpy_preloaded)))
    results = {n: run_workload(n, args.seed, args.seconds, args.trace, import_s) for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
