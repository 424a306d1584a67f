"""Every exported and documented name resolves.

A deleted function can leave a stale name behind in two places that no
other test imports: a module's ``__all__`` and an import line in the
documentation's code examples.  This checks both:

* every name in the ``__all__`` of ``repro`` and of every ``repro.*``
  module resolves with :func:`getattr`;
* every name in a ``from repro... import ...`` statement inside a
  python code block of ``docs/API.md`` or ``README.md`` resolves the way
  the import statement itself would (attribute first, then submodule).
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

_CODE_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)
_FROM_IMPORT = re.compile(r"^\s*from\s+repro[\w.]*\s+import\s+(?:\([^)]*\)|.*)$", re.MULTILINE)


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
