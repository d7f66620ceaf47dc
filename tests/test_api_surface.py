"""Every package name that the benchmark harness (``perfbench/``) and the
acceptance suite use still exists, so that deleting or renaming one fails
here and not only when the benchmark runs.  Those files are parsed, never
imported or edited."""

import ast
import importlib
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
USERS = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def _resolve(module: str, name: str):
    """``module.name`` (a submodule if it is no attribute), or None."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return None


def package_uses(source: str) -> list[tuple[int, str, str]]:
    """(line, module, name) for every ``from noseda... import name`` and
    every ``alias.name`` where ``alias`` is bound to a noseda module, by
    ``import noseda...`` or by importing a submodule from noseda."""
    tree = ast.parse(source)
    uses, modules = [], {}  # modules: local name -> dotted module path
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "noseda":  # without "as", the name bound is noseda
                    modules[alias.asname or "noseda"] = alias.name if alias.asname else "noseda"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "noseda":
            for alias in node.names:
                uses.append((node.lineno, node.module, alias.name))
                if isinstance(_resolve(node.module, alias.name), types.ModuleType):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            uses.append((node.lineno, modules[node.value.id], node.attr))
    return uses


def missing(source: str) -> list[str]:
    uses = package_uses(source)
    return [f"line {line}: {module}.{name}" for line, module, name in uses if _resolve(module, name) is None]


@pytest.mark.parametrize("path", USERS, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_used_name_exists(path):
    assert missing(path.read_text()) == []


def test_a_deleted_name_is_reported():
    source = """
import noseda
import noseda.pipeline as pipeline_mod
from noseda import pipeline
from noseda.pipeline import fit, gone_entry

noseda.run_experiment, noseda.gone_function, pipeline.fit, pipeline.gone_helper, pipeline_mod.gone_too
"""
    assert missing(source) == [
        "line 5: noseda.pipeline.gone_entry",
        "line 7: noseda.gone_function",
        "line 7: noseda.pipeline.gone_helper",
        "line 7: noseda.pipeline.gone_too",
    ]
