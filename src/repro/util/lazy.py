"""Lazy package exports: a package root resolves its names on first use.

A package root that re-exports its submodules' API by importing them
makes every import of anything inside the package pay for all of them:
reading one family's Table-4 row used to load numpy, scipy and
networkx.  A root built with :func:`lazy_exports` keeps the same
``__all__`` and the same objects, but imports a name's defining module
only when the name is first read (PEP 562); ``dir()`` and
``from <root> import *`` still see every name.

The rule around it: package roots are lazy, leaf modules import what
they use at their top (so importing a job function loads that job's
whole stack at once), and a process that forks or serves resolves its
job functions before it does (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of a lazy package root.

    ``exports`` maps each defining module to the names ``package``
    re-exports from it.  The first read of a name imports its module and
    caches the object on the package, so later reads are plain
    attribute lookups.  Use as::

        __getattr__, __dir__ = lazy_exports(__name__, {
            "repro.util.intmath": ("ceil_div", "ilog2"),
        })
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
