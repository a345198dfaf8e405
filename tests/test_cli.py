"""Command line behaviors: subcommand wiring, exit codes, and SVG output."""

from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tvlab
from tvlab.cli import build_parser, main
from tvlab.geometry import ComplexHyperplane, Polytope, Family
from tvlab.harness import GenSpec, Instance, gen_instance, witness_from_transversal, write_instance
from tvlab.plotting import plot_instance


def test_gen_check_find_verify_planted(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    t = tmp_path / "t.json"
    assert main(["gen", "--d", "2", "--sets", "4", "--planted", "--seed", "11", "-o", str(inst)]) == 0
    assert main(["check", str(inst), "--samples", "16"]) == 0
    assert main(["find", str(inst), "--method", "direction", "-o", str(t)]) == 0
    assert main(["verify", str(inst), "--transversal", str(t), "--tol", "1e-6"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "failing subfamily size" not in out
    doc = json.loads(t.read_text())
    assert len(doc["normal"]) == 2


def test_find_borsuk_on_planted(tmp_path):
    inst = tmp_path / "inst.json"
    t = tmp_path / "tb.json"
    assert main(["gen", "--d", "2", "--sets", "3", "--planted", "--seed", "5", "-o", str(inst)]) == 0
    assert main(["find", str(inst), "--method", "borsuk", "-o", str(t)]) == 0
    assert main(["verify", str(inst), "--transversal", str(t), "--tol", "1e-4"]) == 0


def test_find_reports_not_found(tmp_path, capsys):
    # three non-collinear singletons in C^1 share no point
    fam = Family(
        ("S0", "S1", "S2"),
        (
            Polytope("complex", np.array([[0j]])),
            Polytope("complex", np.array([[1 + 0j]])),
            Polytope("complex", np.array([[1j]])),
        ),
    )
    path = tmp_path / "pts.json"
    write_instance(Instance(fam), path)
    assert main(["find", str(path), "--method", "direction"]) == 1
    assert "not found" in capsys.readouterr().out


def test_find_reports_the_best_margin_of_a_real_line_none(tmp_path, capsys):
    # no line meets three non-collinear points, and the d = 2 real decision
    # still reports the best margin of its vertex-pair normals
    fam = Family(("S0", "S1", "S2"), tuple(
        Polytope("real", np.array([p])) for p in ([0.0, 0.0], [2.0, 0.0], [1.0, 2.0])))
    path = tmp_path / "pts.json"
    write_instance(Instance(fam), path)
    assert main(["find", str(path), "--method", "direction"]) == 1
    assert "(best margin -1.789e+00)" in capsys.readouterr().out


def test_find_borsuk_rejects_unverified_zero(tmp_path, capsys):
    inst = tmp_path / "segs.json"
    assert main(["gen", "--d", "1", "--sets", "3", "--verts", "2", "--seed", "4", "-o", str(inst)]) == 0
    code = main(["find", str(inst), "--method", "borsuk"])
    out = capsys.readouterr().out
    if code == 1 and "zero does not yield a transversal" in out:
        assert "dependence" in out
    else:
        # some seeds have no reachable zero at all
        assert code == 1


@pytest.mark.parametrize("dependence", [None, (1.0, -1.0), (1.0, 1.0)],
                         ids=["none", "lifts", "no-lift"])
def test_find_borsuk_convicts_only_on_an_exact_nolift(tmp_path, capsys, monkeypatch, dependence):
    import tvlab.cli as cli
    from tvlab.consistency import AffineDependence, NoLift, lift_dependence
    from tvlab.transversal import VerificationReport

    inst = tmp_path / "inst.json"
    assert main(["gen", "--d", "2", "--sets", "3", "--planted", "--seed", "5", "-o", str(inst)]) == 0
    # the zero's hyperplane is made to miss every set, and its dependence is
    # none at all, (1, -1) on S0 and S1, which lifts, or (1, 1), which cannot
    monkeypatch.setattr(cli, "verify_transversal", lambda T, fam, tol: VerificationReport(
        tuple((label, 1.0) for label in fam.labels), tol))
    dep = None if dependence is None else AffineDependence(("S0", "S1"), dependence)
    monkeypatch.setattr(cli, "borsuk_zero_dependence", lambda x, emb, witness: dep)
    family = cli._load_instance(str(inst)).family
    convicted = dep is not None and isinstance(lift_dependence(family, dep), NoLift)
    assert convicted == (dependence == (1.0, 1.0))
    capsys.readouterr()
    assert main(["find", str(inst), "--method", "borsuk"]) == 1
    out = capsys.readouterr().out
    assert "zero does not yield a transversal" in out
    if convicted:
        assert "witness convicted by the dependence on ['S0', 'S1']" in out
    else:
        assert "convicts nothing" in out and "convicted" not in out


def test_find_borsuk_on_real_instance_is_usage_error(tmp_path, capsys):
    # the Borsuk map is complex-only: a real instance must not fall back to
    # the direction sweep and exit 0
    inst = tmp_path / "real.json"
    t = tmp_path / "t.json"
    args = ["gen", "--ambient", "real", "--planted", "--d", "2", "--sets", "3", "--seed", "3"]
    assert main(args + ["-o", str(inst)]) == 0
    capsys.readouterr()
    assert main(["find", str(inst), "--method", "borsuk", "-o", str(t)]) == 2
    captured = capsys.readouterr()
    assert "borsuk" in captured.err and "complex" in captured.err
    assert not captured.out and not t.exists()


def test_check_exit_one_on_fail(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--d", "1", "--sets", "3", "--verts", "2", "--seed", "4", "-o", str(inst)]) == 0
    capsys.readouterr()
    assert main(["check", str(inst)]) == 1
    assert "sampled up to the failing subfamily size," in capsys.readouterr().out


def test_verify_exit_one_on_miss(tmp_path):
    inst = tmp_path / "inst.json"
    t = tmp_path / "t.json"
    main(["gen", "--d", "2", "--sets", "3", "--planted", "--seed", "2", "-o", str(inst)])
    doc = json.loads(inst.read_text())
    planted = doc["planted"]
    planted["offset"] = [planted["offset"][0] + 1.0, planted["offset"][1]]
    t.write_text(json.dumps(planted))
    assert main(["verify", str(inst), "--transversal", str(t), "--tol", "1e-6"]) == 1


def test_fractional_or_boolean_witness_indices_are_usage_errors(tmp_path, capsys):
    # a stored witness is checked as the file holds it, or not at all
    inst = gen_instance(GenSpec(d=2, n_sets=4, planted=True, seed=11))
    w = witness_from_transversal(inst, inst.planted)
    path = tmp_path / "inst.json"
    write_instance(Instance(inst.family, witness=w, seed=11), path)
    assert main(["check", str(path), "--samples", "4"]) == 0
    doc = json.loads(path.read_text())
    assignment = doc["witness"]["assignment"]
    for bad in ({l: i + 0.7 for l, i in assignment.items()}, {l: True for l in assignment}):
        doc["witness"]["assignment"] = bad
        path.write_text(json.dumps(doc))
        assert main(["check", str(path), "--samples", "4"]) == 2
        assert "must be an integer" in capsys.readouterr().err


def test_fractional_or_boolean_seed_is_usage_error(tmp_path, capsys):
    # a stored seed is read as the file holds it: 8.9 is not seed 8
    path = tmp_path / "inst.json"
    assert main(["gen", "--d", "2", "--sets", "3", "--seed", "8", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    for bad in (8.9, True):
        path.write_text(json.dumps(dict(doc, seed=bad)))
        assert main(["check", str(path), "--samples", "4"]) == 2
        assert "seed must be an integer" in capsys.readouterr().err


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--d", "2", "--sets", "3", "--planted", "--seed", "5", "-o", str(inst)]) == 0
    out = str(tmp_path / "missing" / "out.json")
    for args in (
        ["gen", "--d", "2", "--sets", "3", "-o", out],
        ["find", str(inst), "-o", out],
        ["equiv", "--trials", "1", "--d", "1", "-o", out],
        ["plot", str(inst), "-o", out],
    ):
        capsys.readouterr()
        assert main(args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and "Traceback" not in err, args


def _spy(monkeypatch, name, result):
    """Replace cli.<name> by a stub that records its calls and returns result."""
    import tvlab.cli as cli

    calls = []

    def stub(*args, **kwargs):
        calls.append(args)
        return result

    monkeypatch.setattr(cli, name, stub)
    return calls


def test_equiv_checks_its_output_before_the_trials(tmp_path, capsys, monkeypatch):
    calls = _spy(monkeypatch, "run_equivalence", None)
    out = str(tmp_path / "missing" / "x.json")
    assert main(["equiv", "--trials", "200", "--d", "2", "-o", out]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output")
    assert calls == []


def test_find_checks_its_output_before_the_search(tmp_path, capsys, monkeypatch):
    from tvlab.transversal import NotFound

    inst = tmp_path / "inst.json"
    assert main(["gen", "--d", "2", "--sets", "3", "--planted", "--seed", "5", "-o", str(inst)]) == 0
    calls = _spy(monkeypatch, "find_complex_transversal", NotFound("stub", 1.0))
    capsys.readouterr()
    assert main(["find", str(inst), "-o", str(tmp_path / "missing" / "h.json")]) == 2
    got = capsys.readouterr()
    assert got.out == "" and got.err.startswith("error: cannot write output")
    assert calls == []
    # a writable output is neither left behind by a run that finds nothing
    # nor truncated: an existing file keeps its bytes
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept")
    for out in (new, old):
        assert main(["find", str(inst), "-o", str(out)]) == 1
    assert not new.exists() and old.read_text() == "kept"
    assert len(calls) == 2


def test_missing_input_is_usage_error(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.json")]) == 2
    assert main(["verify", str(tmp_path / "nope.json"), "--transversal", "x"]) == 2
    # malformed instances: no sets, and a set without vertices
    no_sets = tmp_path / "no_sets.json"
    no_sets.write_text(json.dumps({"ambient": "complex", "d": 1, "sets": []}))
    assert main(["check", str(no_sets)]) == 2
    no_verts = tmp_path / "no_verts.json"
    no_verts.write_text(
        json.dumps({"ambient": "complex", "d": 1, "sets": [{"label": "S0", "vertices": []}]})
    )
    assert main(["check", str(no_verts)]) == 2
    # documents of the wrong shape: a list for an instance or a transversal
    not_a_doc = tmp_path / "list.json"
    not_a_doc.write_text("[]")
    assert main(["check", str(not_a_doc)]) == 2
    inst = tmp_path / "inst.json"
    assert main(["gen", "--d", "1", "--sets", "2", "--seed", "0", "-o", str(inst)]) == 0
    assert main(["verify", str(inst), "--transversal", str(not_a_doc)]) == 2
    capsys.readouterr()
    # a negative sample budget is named, not left to fail inside numpy
    assert main(["check", str(inst), "--samples", "-3"]) == 2
    assert "samples" in capsys.readouterr().err
    # a search that cannot run is a usage error, not a search that found nothing
    for args, field in (
        (["--starts", "0"], "starts"),
        (["--starts", "-2"], "starts"),
        (["--method", "borsuk", "--zero-tol", "-1"], "zero_tol"),
        (["--method", "borsuk", "--zero-tol", "nan"], "zero_tol"),
        (["--method", "borsuk", "--zero-tol", "inf"], "zero_tol"),
    ):
        assert main(["find", str(inst)] + args) == 2
        captured = capsys.readouterr()
        assert field in captured.err and "not found" not in captured.out
    # a verification tolerance that is negative or not finite is named too
    planted = tmp_path / "planted.json"
    assert main(["gen", "--d", "1", "--sets", "2", "--seed", "0", "--planted", "-o", str(planted)]) == 0
    t = tmp_path / "t.json"
    t.write_text(json.dumps(json.load(open(planted))["planted"]))
    capsys.readouterr()
    for tol in ("-1", "nan", "inf"):
        assert main(["verify", str(planted), "--transversal", str(t), "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert "tol" in captured.err and "max distance" not in captured.out
    # a hyperplane offset that is not finite is an input error, whether it
    # comes as a transversal file or as an instance's planted field; json
    # reads the NaN and Infinity literals, so the hyperplane must refuse them
    svg = tmp_path / "out.svg"
    for ambient, d, normal in (("complex", 2, [[1, 0], [0, 0]]), ("real", 1, [[1, 0]])):
        inst = tmp_path / f"{ambient}.json"
        gen = ["gen", "--ambient", ambient, "--d", str(d), "--sets", "3", "--planted"]
        assert main(gen + ["-o", str(inst)]) == 0
        doc = json.loads(inst.read_text())
        for bad in (float("nan"), float("inf")):
            t.write_text(json.dumps({"normal": normal, "offset": [bad, 0]}))
            assert main(["verify", str(inst), "--transversal", str(t)]) == 2
            assert main(["plot", str(inst), "--transversal", str(t), "-o", str(svg)]) == 2
            bad_planted = tmp_path / "bad_planted.json"
            bad_planted.write_text(json.dumps(dict(doc, planted=json.loads(t.read_text()))))
            assert main(["check", str(bad_planted)]) == 2
            assert main(["plot", str(bad_planted), "-o", str(svg)]) == 2
            captured = capsys.readouterr()
            assert "offset must be finite" in captured.err and "max distance" not in captured.out
    # a number beyond float range is an input error as well: a 401-digit
    # integer overflows float(), and json reads 1e400 as inf, which
    # overflows int()
    huge = 10 ** 400
    t.write_text(json.dumps({"normal": [[1, 0]], "offset": [huge, 0]}))
    assert main(["verify", str(planted), "--transversal", str(t)]) == 2
    assert main(["plot", str(planted), "--transversal", str(t), "-o", str(svg)]) == 2
    doc = json.loads(planted.read_text())
    doc["sets"][0]["vertices"][0] = [[huge, 0]]
    big_vertex = tmp_path / "big_vertex.json"
    big_vertex.write_text(json.dumps(doc))
    assert main(["check", str(big_vertex)]) == 2
    big_seed = tmp_path / "big_seed.json"
    big_seed.write_text(json.dumps(dict(json.loads(planted.read_text()), seed=0))
                        .replace('"seed": 0', '"seed": 1e400'))
    assert main(["check", str(big_seed)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_real_hyperplane_codec_round_trip(tmp_path, capsys):
    inst = tmp_path / "real.json"
    planted = tmp_path / "planted.json"
    t = tmp_path / "t.json"
    args = ["gen", "--ambient", "real", "--planted", "--d", "2", "--sets", "4", "--seed", "3"]
    assert main(args + ["-o", str(inst)]) == 0
    # the instance's own planted block is a valid transversal file
    planted.write_text(json.dumps(json.loads(inst.read_text())["planted"]))
    assert main(["verify", str(inst), "--transversal", str(planted)]) == 0
    assert main(["find", str(inst), "-o", str(t)]) == 0
    doc = json.loads(t.read_text())
    assert all(len(p) == 2 and p[1] == 0 for p in doc["normal"])
    assert main(["verify", str(inst), "--transversal", str(t)]) == 0
    out = capsys.readouterr().out
    assert "S3: " in out and "(pass)" in out
    # a real transversal with an imaginary part is an input error
    doc["normal"][0][1] = 0.5
    t.write_text(json.dumps(doc))
    assert main(["verify", str(inst), "--transversal", str(t)]) == 2
    capsys.readouterr()


def test_equiv_writes_report(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["equiv", "--trials", "3", "--d", "1", "--seed", "0", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["aggregates"]["trials"] == 3
    capsys.readouterr()


# sha256 of the bytes each command writes, recorded with numpy 2.4.6 and
# OpenBLAS 0.3.31: reports and instances are byte-stable for a fixed version.
# The d=2 report was recorded again when sampled blocks came to be lifted
# from realization LPs: only the worst lifts and their residuals moved
OUTPUT_DIGESTS = {
    "equiv --trials 50 --seed 0 --d 1":
        "8ab0267ede11ca92cd6c4da69d85642e95e38a30ec98d39794c4fcf611ef7432",
    "equiv --trials 50 --seed 0 --d 2":
        "b5c91b38f2ff59a34ada19a56986285db6f453c275cfcae137d4297da15a5681",
    "gen --d 2 --sets 5 --planted --seed 11":
        "25d4c0ffd7b6b6673d1dd52a93617636074678f6977db93c759f248236f6cbc1",
    "gen --d 2 --sets 5 --planted --seed 3 --ambient real":
        "ca5b21052aeef7a71ea5ad7eca76d85bf13f0a287bda717ee13fa07eb3346a0c",
}


@pytest.mark.parametrize("command", list(OUTPUT_DIGESTS))
def test_outputs_keep_recorded_bytes(command, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(command.split() + ["-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OUTPUT_DIGESTS[command]
    capsys.readouterr()


def test_deeply_nested_input_is_usage_error(tmp_path, capsys):
    # nested past the JSON decoder's recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    inst = tmp_path / "inst.json"
    assert main(["gen", "--d", "2", "--sets", "2", "--planted", "-o", str(inst)]) == 0
    svg = tmp_path / "out.svg"
    for args in (
        ["check", str(deep)],
        ["verify", str(deep), "--transversal", str(inst)],
        ["verify", str(inst), "--transversal", str(deep)],
        ["plot", str(deep), "-o", str(svg)],
        ["plot", str(inst), "--transversal", str(deep), "-o", str(svg)],
    ):
        assert main(args) == 2, args
        assert "error" in capsys.readouterr().err
    assert not svg.exists()


def test_plot_d1_and_panels(tmp_path):
    inst1 = tmp_path / "d1.json"
    svg1 = tmp_path / "d1.svg"
    main(["gen", "--d", "1", "--sets", "3", "--planted", "--seed", "2", "-o", str(inst1)])
    assert main(["plot", str(inst1), "-o", str(svg1)]) == 0
    text = svg1.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    inst2 = tmp_path / "d2.json"
    svg2 = tmp_path / "d2.svg"
    main(["gen", "--d", "2", "--sets", "3", "--planted", "--seed", "2", "-o", str(inst2)])
    assert main(["plot", str(inst2), "-o", str(svg2)]) == 0


def test_plot_draws_the_separating_half_plane_of_a_missed_set(tmp_path):
    # a panel whose polygon misses the origin draws the boundary of the
    # half-plane that separates them, dashed, and an arrow to its far vertex
    inst = tmp_path / "d2.json"
    t = tmp_path / "t.json"
    main(["gen", "--d", "2", "--sets", "3", "--planted", "--seed", "2", "-o", str(inst)])
    doc = json.loads(inst.read_text())["planted"]
    for name, offset in (("met", doc["offset"]), ("missed", [doc["offset"][0] + 10.0, 0.0])):
        t.write_text(json.dumps(dict(doc, offset=offset)))
        svg = tmp_path / f"{name}.svg"
        assert main(["plot", str(inst), "--transversal", str(t), "-o", str(svg)]) == 0
        dashed = svg.read_text().count('stroke-dasharray="0.05,0.05"')
        assert dashed == (0 if name == "met" else 3), name


# sha256 of the SVG that `plot` draws for the planted d = 2 instance of
# `gen --d 2 --sets 3 --planted --seed 1`, along its planted transversal and
# along one whose offset is moved by 10 (every panel then draws a nonzero
# closest point), recorded with the kernel over every vertex pair i <= j
PLOT_DIGESTS = {
    "planted": "44728d90016bbda832abdb7123ca1e19005016529736d6143cdc840bb22a73cb",
    "missed": "f722e21d0ffb257600d8906962ddd139b3df0d3206b9eafc656306ac45a5863d",
}


def test_plot_keeps_recorded_bytes(tmp_path, capsys):
    inst = tmp_path / "d2.json"
    t = tmp_path / "t.json"
    svg = tmp_path / "d2.svg"
    assert main(["gen", "--d", "2", "--sets", "3", "--planted", "--seed", "1", "-o", str(inst)]) == 0
    assert main(["plot", str(inst), "-o", str(svg)]) == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == PLOT_DIGESTS["planted"]
    doc = json.loads(inst.read_text())["planted"]
    t.write_text(json.dumps(dict(doc, offset=[doc["offset"][0] + 10.0, 0.0])))
    assert main(["plot", str(inst), "--transversal", str(t), "-o", str(svg)]) == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == PLOT_DIGESTS["missed"]
    capsys.readouterr()


def test_plot_d2_without_direction_is_input_error(tmp_path, capsys):
    inst = tmp_path / "d2.json"
    svg = tmp_path / "d2.svg"
    main(["gen", "--d", "2", "--sets", "3", "--seed", "2", "-o", str(inst)])
    assert main(["plot", str(inst), "-o", str(svg)]) == 2
    capsys.readouterr()


def test_plot_deterministic_bytes(tmp_path):
    inst = gen_instance(GenSpec(d=1, n_sets=4, vertices_per_set=3, planted=True, seed=13))
    assert plot_instance(inst, inst.planted) == plot_instance(inst, inst.planted)


def test_a_note_that_is_not_a_string_is_usage_error(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert main(["gen", "--d", "2", "--sets", "3", "--seed", "8", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    for bad in (5, ["a"]):
        path.write_text(json.dumps(dict(doc, note=bad)))
        assert main(["check", str(path), "--samples", "4"]) == 2
        assert "note must be a string" in capsys.readouterr().err


def test_readme_examples_run_and_parse():
    # the library example runs as written, and every line of the
    # command-line block parses
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) == 7 and all(words[0] == "tvlab" for words in commands)
    parser = build_parser()
    for words in commands:
        parser.parse_args(words[1:])


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_python_m_tvlab_runs_the_cli():
    src = str(Path(tvlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-m", "tvlab", "--help"], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    assert "equiv" in run.stdout
