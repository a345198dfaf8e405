"""The only runtime dependency is numpy: every module of the package imports
from the standard library, numpy or the package itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import tvlab

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "tvlab"}


def test_runtime_imports_are_stdlib_numpy_or_tvlab():
    sources = sorted(Path(tvlab.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    seen = set()
    for path in sources:
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
