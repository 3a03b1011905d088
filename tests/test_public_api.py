"""Every public name has a caller on an evaluation path or in the bench.

A name in ``motbench.__all__`` that no module of the package (outside
``__init__.py``) and no bench script refers to is API that nothing
evaluates with; it should be deleted, not kept.
"""

import ast
from pathlib import Path

import motbench

ROOT = Path(__file__).resolve().parents[1]


def _referenced(path: Path) -> set[str]:
    """The names, attribute names and imported names that ``path`` refers to."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_exported_name_has_a_caller():
    callers = [path for path in sorted((ROOT / "src" / "motbench").glob("*.py"))
               if path.name != "__init__.py"] + sorted((ROOT / "bench").glob("*.py"))
    referenced = set().union(*map(_referenced, callers))
    assert sorted(set(motbench.__all__) - referenced) == []
