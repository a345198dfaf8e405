"""Import discipline: the only runtime dependency is numpy, the LP tableau
stays behind ``tvlab.lp``, the tracer's patch points exist, the public
surface is pinned, and no top-level definition is left without a user."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import tvlab
from tvlab import consistency, harness

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
        "plot_instance", "read_instance", "real_hyperplane_transversal",
        "reduce_dependence_support", "reverify_report", "run_equivalence",
        "separates_consistently", "trivial_witness", "verify_transversal",
        "witness_from_transversal", "write_instance", "write_report",
    ]
    assert len(tvlab.__all__) == 42
    fields = {
        cls.__name__: [f.name for f in dataclasses.fields(cls)]
        for cls in (tvlab.ConsistencyConfig, tvlab.TransversalConfig, tvlab.EquivConfig,
                    tvlab.GenSpec)
    }
    assert fields == {
        "ConsistencyConfig": ["samples", "seed", "exact"],
        "TransversalConfig": ["starts", "iters", "zero_tol", "seed"],
        "EquivConfig": ["trials", "d", "seed", "samples"],
        "GenSpec": ["d", "n_sets", "vertices_per_set", "planted", "seed", "ambient"],
    }
    # the parameters of every public function, and of the private ones whose
    # tolerance is a module constant
    functions = [getattr(tvlab, name) for name in tvlab.__all__]
    functions += [consistency._complex_nullspace, consistency._canonical_blocks,
                  harness._reverify_lift]
    params = {
        f.__name__: " ".join(inspect.signature(f).parameters)
        for f in functions if inspect.isfunction(f)
    }
    assert params == {
        "borsuk_map": "x embedded phi",
        "borsuk_zero_dependence": "x embedded phi",
        "check_dependency_consistency": "family witness config",
        "embed_family": "family",
        "find_borsuk_zero": "embedded phi config",
        "find_complex_transversal": "family config",
        "gen_instance": "spec",
        "hermitian_inner": "u v",
        "hulls_intersect": "U V",
        "hyperplane_from_sphere_point": "x0",
        "kirchberger_separated": "U V",
        "lift_dependence": "family dep config",
        "lp_feasible": "lp exact",
        "plot_instance": "instance transversal",
        "read_instance": "path",
        "real_hyperplane_transversal": "family config",
        "reduce_dependence_support": "dep witness",
        "reverify_report": "doc",
        "run_equivalence": "config",
        "separates_consistently": "family witness",
        "trivial_witness": "family",
        "verify_transversal": "T family tol",
        "witness_from_transversal": "instance T",
        "write_instance": "instance path",
        "write_report": "report path",
        "_complex_nullspace": "M",
        "_canonical_blocks": "A",
        "_reverify_lift": "doc family",
    }
