"""Import discipline: the only runtime dependency is numpy, the LP tableau
stays behind ``tvlab.lp``, and the tracer's patch points exist."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import tvlab

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "tvlab"}
SOURCES = sorted(Path(tvlab.__file__).parent.glob("*.py"))
# the tableau and its escalation policy: only lp.py may reach them
LP_INTERNALS = {"_solve_standard", "_FLOAT", "_EXACT", "_basis_farkas"}


def test_runtime_imports_are_stdlib_numpy_or_tvlab():
    assert len(SOURCES) > 5
    seen = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                top = name.split(".")[0]
                seen.add(top)
                assert top in ALLOWED, f"{path.name} imports {name}"
    assert "numpy" in seen


def _names(path):
    """Every identifier a module references: names, attributes, imports."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_only_lp_reaches_the_tableau():
    for path in SOURCES:
        if path.name != "lp.py":
            leaked = LP_INTERNALS & set(_names(path))
            assert not leaked, f"{path.name} uses {sorted(leaked)}"
    assert LP_INTERNALS <= set(_names(Path(tvlab.__file__).parent / "lp.py"))


def test_tracer_patch_points_resolve():
    # perfbench/spans.py wraps these module attributes; a rename would
    # silently drop its spans
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCHES
    for module, attr, *_ in spans.PATCHES:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
