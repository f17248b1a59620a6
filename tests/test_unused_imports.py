"""Lint guard: no module-level import in the package, its tests, scripts,
examples or benchmarks goes unused.

A stand-in for ruff's F401 where ruff is not installed.  An import counts
as used when its bound name appears as a name (an attribute chain's root
included), inside a string annotation, or as an ``__all__`` entry.  Files
whose ``per-file-ignores`` in ``pyproject.toml`` list F401 (the experiment
registry, which imports modules for their registration side effects) are
exempt, as they are for ruff.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "scripts", "examples", "benchmarks")


def _exempt() -> Set[Path]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    ignores = config["tool"]["ruff"]["lint"]["per-file-ignores"]
    return {ROOT / path for path, codes in ignores.items() if "F401" in codes}


def _module_imports(body: List[ast.stmt]) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` of each import outside any def or class."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno
        elif isinstance(node, ast.If):
            yield from _module_imports(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            handlers = [stmt for h in node.handlers for stmt in h.body]
            yield from _module_imports(node.body + handlers + node.orelse + node.finalbody)


def _annotation_names(annotation: ast.expr) -> Iterator[str]:
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed.body)


def _used_names(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                elt.value
                for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return used


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of each module-level import ``source`` never uses."""
    tree = ast.parse(source)
    used = _used_names(tree)
    return [(line, name) for name, line in _module_imports(tree.body) if name not in used]


def test_scan_flags_an_unused_import():
    source = (
        "import os\nimport numpy as np\nfrom typing import List, Optional\n"
        "from . import kept\n__all__ = ['kept']\n"
        "def f(x: 'Optional[int]') -> None:\n    return np.zeros(1)\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "List")]


def test_no_unused_module_imports():
    exempt = _exempt()
    paths = [
        path
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        if path not in exempt
    ]
    assert len(paths) > 100
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
