"""Package re-exports that load their defining module on first use (PEP 562).

A lazy package declares one table mapping each defining module to the
names it re-exports, and binds what :func:`lazy_exports` returns::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".config": ("ExperimentConfig", "quick_config"),
    })

``import`` of the package then runs none of its submodules.  Each access
to an exported name imports the defining module (a dictionary lookup once
it is loaded) and reads the name from it.  The value is never stored in
the package's namespace, so a later rebinding of the name in its defining
module (perfbench's layer tracer wraps functions that way) is seen on the
next access, and nothing stale is left behind when it is undone.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package`` re-exporting ``table``.

    ``table`` maps a module name (relative to ``package`` when it starts
    with ``.``) to the names it exports; ``__all__`` lists them in table
    order, each written once.
    """
    owner = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = owner[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        return getattr(importlib.import_module(module, package), name)

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return list(owner), __getattr__, __dir__
