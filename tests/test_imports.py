"""Import discipline: the only runtime dependency is numpy, the LP tableau
stays behind ``tvlab.lp``, the tracer's patch points exist, the public
surface is pinned, and no top-level definition is left without a user."""

from __future__ import annotations

import ast
import dataclasses
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


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _names(tree):
    """Every identifier a syntax tree references: names, attributes, imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_only_lp_reaches_the_tableau():
    for path in SOURCES:
        if path.name != "lp.py":
            leaked = LP_INTERNALS & set(_names(_parse(path)))
            assert not leaked, f"{path.name} uses {sorted(leaked)}"
    assert LP_INTERNALS <= set(_names(_parse(Path(tvlab.__file__).parent / "lp.py")))


def _defined(tree):
    """(name, node) of each top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("__"):
                    yield t.id, node


def test_no_orphan_definitions():
    # a definition that nothing in src/ uses, that is not public and that
    # perfbench does not patch is dead code
    trees = [_parse(path) for path in SOURCES]
    # every top-level statement but an import, with the identifiers it uses
    users = [
        (node, set(_names(node)))
        for tree in trees
        for node in tree.body
        if not isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    kept = set(tvlab.__all__) | {attr for _, attr, *_ in _spans().PATCHES}
    orphans = [
        (path.name, name)
        for path, tree in zip(SOURCES, trees)
        for name, node in _defined(tree)
        if name not in kept and not any(name in ids for user, ids in users if user is not node)
    ]
    assert not orphans


def _spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_patch_points_resolve():
    # perfbench/spans.py wraps these module attributes; a rename would
    # silently drop its spans
    spans = _spans()
    assert spans.PATCHES
    for module, attr, *_ in spans.PATCHES:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_public_names_have_their_own_docstrings():
    # a dataclass without a docstring gets its generated signature instead
    for name in tvlab.__all__:
        obj = getattr(tvlab, name)
        if name.startswith("__"):
            continue  # module data such as __version__
        doc = (obj.__doc__ or "").strip()
        assert doc and not doc.startswith(f"{name}("), f"{name} has no docstring of its own"


def test_public_surface_is_pinned():
    # a new export or a new settable knob shows up here as a diff
    assert sorted(tvlab.__all__) == [
        "AffineDependence", "ComplexHyperplane", "ConsistencyConfig",
        "ConsistencyWitness", "EquivConfig", "ExperimentReport", "Family",
        "GenSpec", "Instance", "LinearProgram", "NotFound", "PoleError",
        "Polytope", "RealHyperplane", "SpherePoint", "TransversalConfig",
        "__version__", "borsuk_map", "borsuk_zero_dependence",
        "check_dependency_consistency", "embed_family", "find_borsuk_zero",
        "find_complex_transversal", "gen_instance", "hermitian_inner",
        "hulls_intersect", "hyperplane_from_sphere_point",
        "kirchberger_separated", "lift_dependence", "lp_feasible",
        "nontrivial_zero_in_cone", "plot_instance",
        "polygon_intersection_margin", "read_instance",
        "real_hyperplane_transversal", "reduce_dependence_support",
        "reverify_report", "run_equivalence", "separates_consistently",
        "trivial_witness", "verify_transversal", "witness_from_transversal",
        "write_instance", "write_report",
    ]
    fields = {
        cls.__name__: [f.name for f in dataclasses.fields(cls)]
        for cls in (tvlab.ConsistencyConfig, tvlab.TransversalConfig, tvlab.EquivConfig,
                    tvlab.GenSpec)
    }
    assert fields == {
        "ConsistencyConfig": ["samples", "seed", "exact", "keep_lifts"],
        "TransversalConfig": ["starts", "iters", "zero_tol", "seed"],
        "EquivConfig": ["trials", "d", "seed", "samples", "starts", "iters"],
        "GenSpec": ["d", "n_sets", "vertices_per_set", "planted", "seed", "ambient"],
    }
