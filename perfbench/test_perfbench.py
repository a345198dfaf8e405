"""Tests of the benchmark itself: span arithmetic, a tiny run of every
workload, and the refusal to run without the program's sources.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans as S
import speed

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

assert run.load_program() is not None, "tvlab sources are required"
import families as F  # noqa: E402  (needs the path set up by load_program)


def _span(name, start, end, parent=-1, family=0):
    return [name, start, end, parent, family, None]


def test_self_time_of_nested_and_overlapping_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),  # overlaps a: the union covers 1..6
        _span("a.child", 2.0, 3.0, parent=1),
        _span("late", 9.0, 12.0, parent=0),  # clipped to the parent's end
        _span("other", 20.0, 21.5),
    ]
    assert S.self_times(spans) == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 3.0, 1.5])


def test_accounting_adds_back_the_unspanned_wall_time():
    spans = [
        _span("bench.family", 0.0, 4.0),
        _span("x", 1.0, 3.0, parent=0),
        _span("bench.family", 5.0, 6.0),
    ]
    acc = S.accounting(spans, wall=6.5)
    assert acc["self_sum_s"] == pytest.approx(5.0)
    assert acc["unspanned_s"] == pytest.approx(1.5)
    assert acc["accounted"] == pytest.approx(1.0)


def test_tracer_records_parents_and_restores_the_program():
    import tvlab.consistency as consistency

    original = consistency.lift_dependence
    tracer = S.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    with tracer.root(7):
        assert outer(1) == 4
    names = [s[S.NAME] for s in tracer.spans]
    assert names == [S.ROOT, "outer", "inner"]
    assert [s[S.PARENT] for s in tracer.spans] == [-1, 0, 1]
    assert {s[S.FAMILY] for s in tracer.spans} == {7}
    with S.traced(S.Tracer()):
        assert consistency.lift_dependence is not original
    assert consistency.lift_dependence is original


def test_a_host_slowdown_the_gauge_sees_cancels():
    ref = speed.REFERENCE_CHUNK_S
    # the host runs at half speed from the eleventh family on: the families
    # and the gauge's chunks both take twice as long
    lat = [1.0] * 10 + [2.0] * 11
    gauge = [(1, ref)] * 10 + [(1, 2 * ref)] * 11
    loop = run.Loop([None] * 21, lat, gauge, wall=40.0, steal=None)
    scaled, factors = run.reference_times(loop, cycle=2)
    assert len(scaled) == 20  # whole cycles only
    n = run.NEIGHBOURS
    assert factors[:10 - n] == pytest.approx([1.0] * (10 - n))
    assert factors[10 + n:] == pytest.approx([0.5] * (10 - n))
    # away from the change the slowdown cancels; next to it the factor
    # mixes both speeds
    assert scaled[:10 - n] + scaled[10 + n:] == pytest.approx([1.0] * (20 - 2 * n))


def test_sample_runs_whole_chunks_for_its_share_of_the_time():
    ticks = iter(range(100))
    chunks, took = speed.sample(lambda: next(ticks) * 1e-3, busy=0.025)
    assert (chunks, took) == (3, pytest.approx(3e-3))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric_and_gates_every_output(name, trace):
    lines = []
    result = run.run_workload(name, seed=0, seconds=0.2, trace=trace, import_s=0.0,
                              pool=2, emit=lines.append)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    gate = json.loads(next(l for l in lines if l.startswith("gate: "))[len("gate: "):])
    assert gate["checked"] == result["attempted"] >= 1
    assert result["correct"], lines
    assert not any(l.startswith("check failed: ") for l in lines)


def test_workloads_match_the_benchmark_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(F.WORKLOADS)
    assert SPEC["paths"] == [HERE.name]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "refute-d2", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_tail_percentile_falls_back_when_too_few_samples_lie_beyond():
    lat = [float(i) for i in range(1, 101)]
    assert run.tail_latency(lat, 75.0)[0] == 75.0
    assert run.tail_latency(lat, 95.0)[0] == 90.0
    assert run.tail_latency(lat[:39], 75.0)[0] == 74
    assert run.tail_latency(lat[:15], 75.0) == (100.0, 15.0)
