"""Algebraic geometry over finite semigroups in the multiplication-only language.

Models finite semigroups by their Cayley tables, computes the term
functions they realize, decides whether point sets are algebraic (i.e.
solution sets of equation systems), and assembles machine-checkable
reports showing that over every nontrivial finite semigroup the union of
two diagonal solution sets is not algebraic.

The package exports the names in the ``__all__`` of its modules.  Each is
loaded from its module on first access, so that importing the package (as
every CLI command does) compiles none of them.
"""

import sys

# in their import order: a name is looked up in each until one declares it
_MODULES = ("semigroups", "enumeration", "witnesses", "terms", "geometry")
__version__ = "0.1.0"


def _load(module: str):
    name = f"{__name__}.{module}"
    __import__(name)  # unlike importlib.import_module, listed by -X importtime
    return sys.modules[name]


def __getattr__(name):
    if name in _MODULES or name == "cli":  # ``from eqdomain import cli`` asks before importing
        return _load(name)
    if name == "__all__":  # every module's, which loads them all
        value = [*(n for module in _MODULES for n in _load(module).__all__), *_MODULES]
    else:
        # no module declares a name that starts with "_", so hasattr(eqdomain, "_repr_html_") loads none
        modules = () if name.startswith("_") else map(_load, _MODULES)
        module = next((m for m in modules if name in m.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
