"""No module of the package, its tests or its demos binds a top-level import
that it never uses (a pyflakes-style check with the standard library's
`ast`).  `__init__.py` files are skipped, since they import to re-export,
and so are `from __future__` imports.  No top-level private function or
class of the package is dead code: each is read somewhere in `src/`
outside its own definition, so a helper whose only callers are tests
fails."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src", "tests", "demos")
               for path in (ROOT / top).rglob("*.py")
               if path.name != "__init__.py")
SRC = sorted((ROOT / "src").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by top-level imports of source that no expression
    of it reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom a import b, c\n"
              "def f():\n    return np.zeros(b)\n")
    assert unused_imports(source) == ["os", "c"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _reads(node) -> set[str]:
    """Names and attribute names that node reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unread_private_defs(sources: dict) -> list[str]:
    """`module:name` of each top-level private function or class of
    sources (a map from module name to source) that no module reads
    outside that definition."""
    tops = [(mod, node, _reads(node)) for mod, src in sources.items()
            for node in ast.parse(src).body]
    return [f"{mod}:{node.name}" for mod, node, _ in tops
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and not any(node.name in reads
                        for _, other, reads in tops if other is not node)]


def test_scan_finds_an_unread_private_def():
    sources = {"a": "def _used():\n    return 1\n"
                    "def _self_only(n):\n    return _self_only(n - 1)\n"
                    "class _Dead:\n    pass\n",
               "b": "from a import _used\nX = a._used() + _used()\n"}
    assert unread_private_defs(sources) == ["a:_self_only", "a:_Dead"]


def test_no_unread_private_defs():
    assert unread_private_defs({str(path.relative_to(ROOT)): path.read_text()
                                for path in SRC}) == []
