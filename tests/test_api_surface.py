"""Every exported and documented name resolves.

A deleted function or file can leave a stale name behind in places that
no other test imports: a module's ``__all__``, an import line in the
documentation's code examples, and a file path in the prose.  This
checks all three:

* every name in the ``__all__`` of ``repro`` and of every ``repro.*``
  module resolves with :func:`getattr`;
* every name in a ``from repro... import ...`` statement inside a
  python code block of ``docs/API.md`` or ``README.md`` resolves the way
  the import statement itself would (attribute first, then submodule);
* every repository path (``src/…``, ``benchmarks/…``, ``tests/…``,
  ``examples/…``, ``docs/…`` or a root ``BENCH_*.json``) named in
  ``README.md``, ``DESIGN.md``, ``docs/API.md`` or ``EXPERIMENTS.md``
  exists; a glob must match at least one file.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("docs/API.md", "README.md")

PATH_DOCS = ("README.md", "DESIGN.md", "docs/API.md", "EXPERIMENTS.md")

_CODE_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)
_FROM_IMPORT = re.compile(r"^\s*from\s+repro[\w.]*\s+import\s+(?:\([^)]*\)|.*)$", re.MULTILINE)
_REPO_PATH = re.compile(
    r"(?<![\w./-])(?:(?:src|benchmarks|tests|examples|docs)/[\w./*-]*|BENCH_[\w*]+\.json)"
)


def _modules():
    """``repro`` and every importable ``repro.*`` module except ``__main__``."""
    yield "repro"
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            yield info.name


def _documented_imports():
    """``(doc, module, name)`` for every repro import in a python code block."""
    for doc in DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        for block in _CODE_BLOCK.findall(text):
            for statement in _FROM_IMPORT.findall(block):
                (node,) = ast.parse(statement.strip()).body
                for alias in node.names:
                    yield doc, node.module, alias.name


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("module", list(_modules()))
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_all_is_checked():
    # The walk reaches the top level and the re-exporting subpackages.
    modules = set(_modules())
    assert {"repro", "repro.core", "repro.engine", "repro.serialization"} <= modules


def test_documented_imports_resolve():
    imports = list(_documented_imports())
    assert {doc for doc, _, _ in imports} == set(DOCS)
    missing = [
        f"{doc}: from {module} import {name}"
        for doc, module, name in imports
        if not _resolves(module, name)
    ]
    assert missing == []


def _documented_paths():
    """``(doc, path)`` for every repository path named in a document."""
    for doc in PATH_DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        for match in _REPO_PATH.finditer(text):
            yield doc, match.group(0).rstrip(".")


def test_documented_paths_exist():
    paths = list(_documented_paths())
    assert {doc for doc, _ in paths} == set(PATH_DOCS)
    missing = [
        f"{doc}: {path}"
        for doc, path in paths
        if not (ROOT / path).exists() and not any(ROOT.glob(path))
    ]
    assert missing == []
