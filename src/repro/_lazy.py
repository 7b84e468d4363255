"""Lazy package exports (PEP 562), shared by every ``repro`` package.

A package ``__init__`` declares which submodule each public name lives in
and imports none of them::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {"marzullo": ("fuse",)})

``repro.core.fuse`` (or ``from repro.core import fuse``) then imports
:mod:`repro.core.marzullo` on the first read and caches the name in the
package globals, so later reads are plain attribute lookups.  A cold start
therefore loads only the modules its command reaches (``docs/ARCHITECTURE.md``,
"Import layering").  :func:`lazy_factory` does the same for a registry
entry: the name is registered up front, its class imported on first use.
"""

from __future__ import annotations

import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """Module ``__getattr__``, ``__dir__`` and ``__all__`` for ``package``.

    ``exports`` maps a submodule name (relative to ``package``) to the
    public names it provides; ``__all__`` lists them in map order, so the
    map is the package's only export declaration.
    """
    origin = {name: f"{package}.{module}" for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # The import statement's own path (importlib.import_module is not),
        # so ``python -X importtime`` lists the module under its importer.
        __import__(module)
        value = getattr(sys.modules[module], name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, list(origin)


def lazy_factory(module: str, cls: str):
    """A zero-argument factory that imports ``module`` on its first call and
    returns a new instance of its class ``cls``."""

    def factory():
        __import__(module)
        return getattr(sys.modules[module], cls)()

    return factory
