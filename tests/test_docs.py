"""The docs/ tree stays navigable and its examples stay runnable.

Two guarantees, also enforced by the CI ``docs`` job:

* every *relative* markdown link in ``docs/*.md`` and ``README.md``
  resolves to a file that exists (and, for in-page anchors, to a
  heading that exists);
* every fenced doctest example in ``docs/*.md`` passes under
  :mod:`doctest` (the CI job runs ``python -m doctest`` over the same
  files).
"""

from __future__ import annotations

import doctest
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"

#: ``[text](target)`` — good enough for these hand-written pages
#: (no nested brackets, no reference-style links).
_LINK_RE = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")

DOC_PAGES = sorted(DOCS_DIR.glob("*.md"))
LINKED_PAGES = DOC_PAGES + [REPO_ROOT / "README.md"]


def _heading_anchors(path: Path) -> set:
    """GitHub-style anchor slugs of every heading in ``path``."""
    anchors = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            title = line.lstrip("#").strip().lower()
            slug = re.sub(r"[^\w\- ]", "", title).replace(" ", "-")
            anchors.add(slug)
    return anchors


def test_docs_tree_exists():
    names = {p.name for p in DOC_PAGES}
    assert {"architecture.md", "serve.md", "scan.md",
            "interned-names.md", "determinism.md",
            "benchmarks.md", "observability.md",
            "scenarios.md"} <= names


@pytest.mark.parametrize("page", LINKED_PAGES,
                         ids=[p.name for p in LINKED_PAGES])
def test_internal_links_resolve(page):
    text = page.read_text(encoding="utf-8")
    problems = []
    for target in _LINK_RE.findall(text):
        if re.match(r"^[a-z][a-z0-9+.-]*:", target):   # external scheme
            continue
        path_part, _, anchor = target.partition("#")
        resolved = page if not path_part else (page.parent / path_part)
        if not resolved.exists():
            problems.append(f"{page.name}: broken link target {target!r}")
            continue
        if anchor and resolved.suffix == ".md":
            if anchor not in _heading_anchors(resolved):
                problems.append(
                    f"{page.name}: no heading {anchor!r} in {path_part or page.name}")
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("page", DOC_PAGES, ids=[p.name for p in DOC_PAGES])
def test_doctest_examples_pass(page):
    # testfile() parses the whole markdown file for ``>>>`` examples —
    # exactly what the CI docs job runs via ``python -m doctest``.
    failures, tests = doctest.testfile(str(page), module_relative=False,
                                       verbose=False)
    assert failures == 0
    if page.name == "determinism.md":
        # The named-streams example must actually be there.
        assert tests > 0
