"""Lazy package exports (PEP 562).

Every package ``__init__`` under :mod:`repro` lists its public names in
one table, each with the module that defines it, and imports nothing
else: a name's module is imported on first access.  Importing a
package, or one of its modules, therefore loads only what that module
itself imports, so a run pays at start-up for what it executes.
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, table: dict[str, str]):
    """``__getattr__``, ``__dir__`` and ``__all__`` for ``package``.

    ``table`` maps each public name to the module defining it, relative
    to ``package`` (``".loop"``).  A resolved value is stored in the
    package, so every later lookup is a plain attribute read.  A name
    outside the table raises ``AttributeError`` as for any module, so
    ``hasattr`` probes and ``from package import missing`` fail as they
    do on a module without the name.
    """

    def __getattr__(name: str):
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *table})

    return __getattr__, __dir__, list(table)
