"""Every name a sepnet module or a test file imports is used there (or
re-exported in ``__all__``), scipy is imported in one place only, and no
sepnet class subclasses another only to define ``__init__``. Checked with
the standard library's ``ast``. The package's ``__init__`` is left out of
the unused-import check: its imports are the package's public names."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "sepnet"


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
TEST_FILES = sorted(TESTS.glob("*.py"))


def test_modules_found():
    assert {p.name for p in MODULES} >= {"codec.py", "harness.py", "separation.py"}
    assert {p.name for p in TEST_FILES} >= {"conftest.py", "test_codec.py", "test_imports.py"}


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: p.name)
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


def scipy_imports(source: str) -> list[tuple[str, str]]:
    """(enclosing function or class, or '<module>'; imported scipy module)
    for each import of scipy in ``source``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.module == "scipy":
                names = [f"scipy.{alias.name}" for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            found.extend((scope, m) for m in names if m == "scipy" or m.startswith("scipy."))
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


PACKAGE = sorted(SRC.glob("*.py"))


def test_no_module_imports_scipy_stats():
    stats = {p.name: [m for _, m in scipy_imports(p.read_text())
                      if m == "scipy.stats" or m.startswith("scipy.stats.")]
             for p in PACKAGE}
    assert {name: mods for name, mods in stats.items() if mods} == {}


def test_scipy_is_imported_only_by_the_chi_square_tail():
    found = {p.name: scipy_imports(p.read_text()) for p in PACKAGE}
    assert {name: imports for name, imports in found.items() if imports} == {
        "probcore.py": [("_chi2_sf", "scipy.special")]}


def constructor_only_subclasses(sources: dict) -> list[str]:
    """``module.Class`` for each class in ``sources`` ({module name:
    source}) that subclasses a class defined there and defines no method
    but ``__init__``: a constructor that only rearranges its arguments
    for the base class, which its callers can build themselves."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    classes = [(name, node) for name, tree in trees.items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    defined = {node.name for _, node in classes}
    found = []
    for name, node in classes:
        bases = {base.id for base in node.bases if isinstance(base, ast.Name)}
        methods = {f.name for f in node.body
                   if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
        if bases & defined and methods == {"__init__"}:
            found.append(f"{name}.{node.name}")
    return found


def test_no_constructor_only_subclasses():
    assert constructor_only_subclasses({p.stem: p.read_text() for p in PACKAGE}) == []


def test_checker_flags_a_constructor_only_subclass():
    sources = {
        "a": "class Base:\n    def f(self): pass\n",
        "b": (
            "from a import Base\n"
            "class Only(Base):\n    def __init__(self): super().__init__()\n"
            "class More(Base):\n    def __init__(self): pass\n    def g(self): pass\n"
            "class Plain(Base):\n    x = 1\n"
            "class Other(ValueError):\n    def __init__(self): pass\n"
        ),
    }
    assert constructor_only_subclasses(sources) == ["b.Only"]
