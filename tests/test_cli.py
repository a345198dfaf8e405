"""Command line behaviors: subcommand wiring, exit codes, and SVG output."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tvlab
from tvlab.cli import main
from tvlab.geometry import ComplexHyperplane, Polytope, Family
from tvlab.harness import GenSpec, Instance, gen_instance, write_instance
from tvlab.plotting import plot_instance


def test_gen_check_find_verify_planted(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    t = tmp_path / "t.json"
    assert main(["gen", "--d", "2", "--sets", "4", "--planted", "--seed", "11", "-o", str(inst)]) == 0
    assert main(["check", str(inst), "--samples", "16"]) == 0
    assert main(["find", str(inst), "--method", "direction", "-o", str(t)]) == 0
    assert main(["verify", str(inst), "--transversal", str(t), "--tol", "1e-6"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out
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


def test_check_exit_one_on_fail(tmp_path):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--d", "1", "--sets", "3", "--verts", "2", "--seed", "4", "-o", str(inst)]) == 0
    assert main(["check", str(inst)]) == 1


def test_verify_exit_one_on_miss(tmp_path):
    inst = tmp_path / "inst.json"
    t = tmp_path / "t.json"
    main(["gen", "--d", "2", "--sets", "3", "--planted", "--seed", "2", "-o", str(inst)])
    doc = json.loads(inst.read_text())
    planted = doc["planted"]
    planted["offset"] = [planted["offset"][0] + 1.0, planted["offset"][1]]
    t.write_text(json.dumps(planted))
    assert main(["verify", str(inst), "--transversal", str(t), "--tol", "1e-6"]) == 1


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


def test_plot_d2_without_direction_is_input_error(tmp_path, capsys):
    inst = tmp_path / "d2.json"
    svg = tmp_path / "d2.svg"
    main(["gen", "--d", "2", "--sets", "3", "--seed", "2", "-o", str(inst)])
    assert main(["plot", str(inst), "-o", str(svg)]) == 2
    capsys.readouterr()


def test_plot_deterministic_bytes(tmp_path):
    inst = gen_instance(GenSpec(d=1, n_sets=4, vertices_per_set=3, planted=True, seed=13))
    assert plot_instance(inst, inst.planted) == plot_instance(inst, inst.planted)


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
