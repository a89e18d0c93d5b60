"""No module of the package, its tests or its demos binds a top-level import
that it never uses (a pyflakes-style check with the standard library's
`ast`).  `__init__.py` files are skipped, since they import to re-export,
and so are `from __future__` imports.  No top-level function or class of
the package is dead code: a private one is read somewhere in `src/`
outside its own definition, so a helper whose only callers are tests
fails; a public one is read somewhere in `src/`, `tests/`, `demos/` or
`perfbench/`, so importing it is not enough.  The same holds for the
public methods of the package's classes, matched by attribute name."""
import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src", "tests", "demos")
               for path in (ROOT / top).rglob("*.py")
               if path.name != "__init__.py")


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


def _tops(sources: dict) -> list:
    return [(mod, node) for mod, src in sources.items() for node in ast.parse(src).body]


def unread_defs(sources: dict, readers: dict, private: bool) -> list[str]:
    """`module:name` of each top-level private (or public) function or
    class of sources that no top-level statement of readers reads outside
    that definition; both map module names to source text."""
    reads = [(mod, node.lineno, _reads(node)) for mod, node in _tops(readers)]
    return [f"{mod}:{node.name}" for mod, node in _tops(sources)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private and not node.name.startswith("__")
            and not any(node.name in names for other, line, names in reads
                        if (other, line) != (mod, node.lineno))]


def test_scan_finds_an_unread_private_def():
    sources = {"a": "def _used():\n    return 1\n"
                    "def _self_only(n):\n    return _self_only(n - 1)\n"
                    "class _Dead:\n    pass\n",
               "b": "from a import _used\nX = a._used() + _used()\n"}
    assert unread_defs(sources, sources, private=True) == ["a:_self_only", "a:_Dead"]


def test_scan_finds_an_unread_public_def():
    sources = {"a": "def used():\n    return 1\n"
                    "def self_only(n):\n    return self_only(n - 1)\n"
                    "class Dead:\n    pass\n"
                    "def tested():\n    pass\n"}
    readers = dict(sources, t="from a import used, tested, Dead\n"
                              "def test():\n    assert tested() is used()\n")
    assert unread_defs(sources, readers, private=False) == ["a:self_only", "a:Dead"]


def _attribute_reads(node) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def unread_methods(sources: dict, readers: dict) -> list[str]:
    """`module:Class.name` of each public method of a top-level class of
    sources whose name no attribute of readers reads outside that method;
    both map module names to source text, and readers include sources."""
    reads = sum((_attribute_reads(ast.parse(src)) for src in readers.values()),
                Counter())
    return [f"{mod}:{cls.name}.{node.name}" for mod, cls in _tops(sources)
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and reads[node.name] == _attribute_reads(node)[node.name]]


def test_scan_finds_an_unread_public_method():
    sources = {"a": "class A:\n"
                    "    def used(self):\n        return self.helper()\n"
                    "    def helper(self):\n        return 1\n"
                    "    def self_only(self):\n        return self.self_only()\n"
                    "    @property\n    def dead(self):\n        return 0\n"
                    "    def _private(self):\n        pass\n"
                    "    def __len__(self):\n        return 0\n"}
    readers = dict(sources, t="def test(a):\n    assert a.used() and len(a)\n")
    assert unread_methods(sources, readers) == ["a:A.self_only", "a:A.dead"]


def _texts(tops) -> dict:
    return {str(path.relative_to(ROOT)): path.read_text()
            for top in tops for path in sorted((ROOT / top).rglob("*.py"))}


def test_no_unread_private_defs():
    """Each private helper of src/ is read in src/ itself."""
    src = _texts(["src"])
    assert unread_defs(src, src, private=True) == []


def test_no_unread_public_defs():
    """Each public function, class or method of src/ is read somewhere in
    src/, tests/, demos/ or perfbench/."""
    src = _texts(["src"])
    readers = _texts(["src", "tests", "demos", "perfbench"])
    assert unread_defs(src, readers, private=False) == []
    assert unread_methods(src, readers) == []
