"""Package exports resolved on first access (PEP 562).

A package init that lists its exports here imports none of its
submodules up front, so importing one submodule (say
``repro.core.thermal``) loads that submodule and what it imports, not
the whole package.
"""

import importlib
import sys


def lazy_exports(package: str, exports: dict):
    """Module-level ``__getattr__`` for ``package``.

    ``exports`` maps each exported name to the module that defines it,
    relative to ``package`` (``".thermal"``) or absolute
    (``"repro.core"``).  A resolved name is cached in the package.
    """

    def __getattr__(name):
        if name not in exports:
            raise AttributeError("module %r has no attribute %r" % (package, name))
        value = getattr(importlib.import_module(exports[name], package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
