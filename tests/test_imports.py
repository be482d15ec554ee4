"""The package's import graph: every import runs at module load, and
bigint, the exact big-integer arithmetic, sits below every other module."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "somos"


def _imports(tree) -> list:
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def _module_names(node) -> list[str]:
    """The modules an import names; a relative one keeps its leading dots."""
    if isinstance(node, ast.ImportFrom):
        return ["." * node.level + (node.module or "")]
    return [alias.name for alias in node.names]


def test_no_import_runs_at_call_time():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    nested = {
        f"{path.name}:{node.lineno}"
        for path in sources
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in _imports(function)
    }
    assert not nested


def test_bigint_imports_nothing_from_the_package():
    tree = ast.parse((PACKAGE / "bigint.py").read_text(encoding="utf-8"))
    names = [name for node in _imports(tree) for name in _module_names(node)]
    assert names
    assert [name for name in names if name.split(".")[0] in ("", "somos")] == []
