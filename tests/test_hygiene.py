"""Source hygiene, written against :mod:`ast` because pyflakes and ruff
are not dependencies of this project.

* No module under ``src/repro`` imports what it never reads.  A
  module-level import (``__future__`` excepted) must bind a name that
  the module reads somewhere else: as an :class:`ast.Name`, or as a word
  inside a string constant, which covers quoted annotations and
  ``__all__``.  Package ``__init__`` modules re-export by design and are
  skipped.
* A ratchet on definitions that only tests read.  The top-level
  functions and classes of ``src/repro`` that nothing in ``src/``,
  ``benchmarks/`` or ``examples/`` reads are pinned by name, so a new
  one fails the test, and so does deleting one without shrinking the
  list.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
READERS = (ROOT / "src", ROOT / "benchmarks", ROOT / "examples")

_WORD_RE = re.compile(r"\w+")


def _module_imports(tree: ast.Module):
    """Yield ``(lineno, bound_name)`` for each top-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _names_read(tree: ast.Module) -> set:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.update(_WORD_RE.findall(node.value))
    return read


def unused_imports(root: Path = SRC):
    """``path:line: name`` for every unread module-level import."""
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        read = _names_read(tree)
        for lineno, name in _module_imports(tree):
            if name not in read:
                found.append(f"{path.relative_to(root.parent)}:{lineno}: "
                             f"{name}")
    return found


def test_no_unused_module_level_imports():
    found = unused_imports()
    assert not found, (f"{len(found)} unused import(s):\n"
                       + "\n".join(found))


def test_scanner_flags_an_unread_import(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("import os\n")
    (tmp_path / "pkg" / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from typing import List, Dict as D\n"
        "from json import dumps as _dumps\n"
        "__all__ = ['D']\n"
        "def f(x: 'List[int]'):\n"
        "    import sys\n"
        "    return os.sep\n")
    found = unused_imports(tmp_path / "pkg")
    assert found == ["pkg/mod.py:3: sys", "pkg/mod.py:5: _dumps"]


def _prose(tree: ast.Module) -> set:
    """Ids of the string nodes that name a definition without reading
    it: docstrings and the module's ``__all__``."""
    prose = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                prose.add(id(first.value))
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets):
            prose.update(id(sub) for sub in ast.walk(node))
    return prose


def _code_reads(tree: ast.Module) -> set:
    """What a module's code reads: an :class:`ast.Name`, the attribute of
    an :class:`ast.Attribute`, or a word in a string that is not prose."""
    prose = _prose(tree)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in prose):
            read.update(_WORD_RE.findall(node.value))
    return read


def unread_definitions(root: Path = SRC, readers=READERS):
    """Dotted names of the top-level functions and classes in ``root``'s
    non-``__init__`` modules that no module under ``readers`` reads.

    A package ``__init__`` re-export is an import, so it reads nothing.
    Decorated definitions count as read: a decorator such as
    ``@register_scenario`` is how the program reaches them.
    """
    read = set()
    for directory in readers:
        for path in sorted(Path(directory).rglob("*.py")):
            read |= _code_reads(ast.parse(path.read_text(encoding="utf-8"),
                                          str(path)))
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = ".".join(path.relative_to(root.parent).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.decorator_list and node.name not in read):
                found.append(f"{module}.{node.name}")
    return found


#: Top-level definitions that only tests read: the next dead-surface
#: audit's list.  An entry goes when its definition goes or gains a
#: reader; a new entry is a regression.
TESTS_ONLY = {
    "repro.analysis.ecdf.cdf_series",
    "repro.analysis.ecdf.render_cdf",
    "repro.ct.ca.pick_ca",
    "repro.dnscore.name.ancestors",
    "repro.dnscore.name.canonical_order_key",
    "repro.dnscore.name.is_valid",
    "repro.dnscore.name.registrable_guess",
    "repro.dnscore.name.split_sld",
    "repro.dnscore.records.a_rrset",
    "repro.dnscore.records.aaaa_rrset",
    "repro.dnscore.records.serial_gt",
    "repro.netsim.hosting.provider_for_ns_sld",
    "repro.resilience.metrics.reset_resilience_metrics",
    "repro.workload.scenario.small_world",
}


def test_tests_only_definitions_do_not_grow():
    found = set(unread_definitions())
    assert found == TESTS_ONLY, (
        f"read by tests only, not listed: {sorted(found - TESTS_ONLY)}; "
        f"listed, but gone or read: {sorted(TESTS_ONLY - found)}")


def test_scanner_flags_a_tests_only_definition(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from pkg.mod import exported\n"
        "__all__ = ['exported']\n")
    (pkg / "mod.py").write_text(
        '"""Names documented in prose only."""\n'
        "__all__ = ['listed']\n"
        "def called(): pass\n"
        "def exported(): pass\n"
        "def listed(): pass\n"
        "def documented():\n"
        '    """documented, again."""\n'
        "class Attr: pass\n"
        "def quoted(): pass\n"
        "@register\n"
        "def plugin(): pass\n"
        "def _helper(): return called()\n")
    (pkg / "user.py").write_text(
        "from pkg import mod\n"
        "x: 'quoted' = mod._helper\n")
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "b.py").write_text("import pkg.mod\npkg.mod.Attr()\n")
    found = unread_definitions(pkg, readers=(pkg, bench))
    assert found == ["pkg.mod.exported", "pkg.mod.listed",
                     "pkg.mod.documented"]
