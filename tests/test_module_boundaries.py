"""Module boundaries: no salient module reads another salient module's
private (`_`-prefixed, non-dunder) names. Tests may."""

import ast
from pathlib import Path

import salient

SRC = Path(salient.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(path: Path) -> list:
    """`module.name` for each private name of another salient module that the
    file imports by name or reads as an attribute of an imported module."""
    tree = ast.parse(path.read_text())
    modules = {}  # local name -> salient module it is bound to
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:  # from . import audio [as a]
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):  # from .audio import _name
                    reads.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and _private(node.attr):
                reads.append(f"{modules[node.value.id]}.{node.attr}")
    return reads


def test_no_module_reads_another_modules_private_names():
    reads = {p.name: private_reads(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == {}
