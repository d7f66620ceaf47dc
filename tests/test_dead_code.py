"""No leftovers in the package: every module of ``src/noseda`` uses each name
it imports (the ``__init__.py`` files, which import to re-export, aside), and
every private top-level name (``_x``) is referenced somewhere in ``src/``.
The sources are parsed with ``ast``, never imported."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "noseda").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names an ``import`` binds that the module never reads."""
    tree = ast.parse(source)
    bound = {}  # name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def _top_level_names(tree: ast.Module) -> list[tuple[str, int]]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return names


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """The private top-level names of ``sources`` (module path -> text) that
    no module reads: as a bare name in its own module, or as an attribute or
    an imported name anywhere."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    elsewhere = set()  # attribute and imported names, from every module
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                elsewhere.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                elsewhere.update(alias.name for alias in node.names)
    unused = []
    for path, tree in trees.items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for name, line in _top_level_names(tree):
            private = name.startswith("_") and not name.startswith("__")
            if private and name not in read and name not in elsewhere:
                unused.append(f"{path}:{line}: {name}")
    return unused


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: str(p.relative_to(SRC))
)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_every_private_name_is_referenced():
    assert unreferenced_private({str(p.relative_to(SRC)): p.read_text() for p in MODULES}) == []


def test_leftovers_are_reported():
    module = """
from __future__ import annotations
import os
import numpy as np
from typing import Sequence, Tuple as T
from .common import used, gone

_LIMIT = 3
_kept = 1


def _helper(x: Sequence[int]) -> int:
    return used(x) + np.sum(x) + _LIMIT


def _dead():
    return _helper([1])
"""
    other = "from .mod import _kept\n"
    assert unused_imports(module) == ["line 3: os", "line 5: T", "line 6: gone"]
    assert unreferenced_private({"mod.py": module, "other.py": other}) == ["mod.py:16: _dead"]
