"""Every name a sepnet module imports is used there (or re-exported in
``__all__``). Checked with the standard library's ``ast``. The package's
``__init__`` is left out: its imports are the package's public names."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sepnet"


def _annotation_strings(tree):
    """Expressions written as string annotations, parsed."""
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                yield ast.parse(ann.value, mode="eval")


def _used_names(tree) -> set[str]:
    used = set()
    for root in (tree, *_annotation_strings(tree)):
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                used.add(node.id)
    return used


def _exported(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used_names(tree) | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"line {node.lineno}: {name}")
    return unused


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def test_modules_found():
    assert {p.name for p in MODULES} >= {"codec.py", "harness.py", "separation.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math, os\n"
        "from json import dumps, loads\n"
        "def f(x: 'os.PathLike') -> float:\n"
        "    return math.pi + len(dumps(x))\n"
    )
    assert unused_imports(source) == ["line 3: loads"]
