"""Lazy package re-exports (PEP 562).

A package ``__init__`` names what it re-exports and from which submodule;
the submodule is imported the first time one of its names is read, so
importing a package compiles none of its planes.  A process loads only
the code its configuration and its command actually reach.
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, exports: dict[str, list[str]]):
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule name, relative to ``package``, to the
    public names it provides.  A name resolves to the submodule's own
    object and is then cached on the package; any other attribute that
    names a submodule imports it, as the eager package did.
    """
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            try:
                return import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return list(where), __getattr__, __dir__
