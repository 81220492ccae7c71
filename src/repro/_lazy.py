"""Lazy re-exports for the package hubs (PEP 562).

A hub declares what it re-exports as one table, ``{module: names}``,
and :func:`lazy_exports` turns it into the hub's ``__all__`` plus a
module ``__getattr__`` that imports a name's module on first access.
``import repro`` therefore loads no subpackage until one of its names
is used.  A name whose module is the hub's own submodule of that name
(``"repro.obs": ("obs",)``) re-exports the submodule itself.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], Any]]:
    """``(__all__, __getattr__)`` for hub ``package`` from its export table."""
    module_of = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = import_module(module_of[name])
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        if module.__name__ == f"{package}.{name}":
            return module
        return getattr(module, name)

    return list(module_of), __getattr__
