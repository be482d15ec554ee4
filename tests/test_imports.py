"""The package's import graph: every import runs at module load, and
bigint, the exact big-integer arithmetic, and ladder, the division-free
Somos-4/5 terms, are leaves that import nothing from the package."""

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


def _package_imports(filename) -> list[str]:
    """The modules a package file imports from the package itself; it must
    import something, so a parse that finds nothing cannot pass."""
    tree = ast.parse((PACKAGE / filename).read_text(encoding="utf-8"))
    names = [name for node in _imports(tree) for name in _module_names(node)]
    assert names
    return [name for name in names if name.split(".")[0] in ("", "somos")]


def test_bigint_imports_nothing_from_the_package():
    assert _package_imports("bigint.py") == []


def test_ladder_imports_nothing_from_the_package():
    assert _package_imports("ladder.py") == []
