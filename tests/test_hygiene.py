"""Source hygiene: no module under ``src/repro`` imports what it never reads.

pyflakes and ruff are not dependencies of this project, so this is the
one lint rule tier-1 enforces, written against :mod:`ast`.  A
module-level import (``__future__`` excepted) must bind a name that the
module reads somewhere else: as an :class:`ast.Name`, or as a word inside
a string constant, which covers quoted annotations and ``__all__``.
Package ``__init__`` modules re-export by design and are skipped.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

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
