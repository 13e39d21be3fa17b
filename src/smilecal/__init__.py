"""smilecal: volatility smile calibration with risk-neutral density validation.

Fit a three-parameter smile to market vol quotes, extract the implied
return density two independent ways (closed form and
finite-difference second strike-derivative), detect density pathologies
(interior relative minima, negative probability), and enforce the
critical plateau-ratio bound chi <= chi_c that keeps the density unimodal.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them all. ``import smilecal`` loads no module and no numpy: the
first lookup of a public name, of ``__all__`` or of ``dir()`` loads the five
modules (PEP 562), so a command line that imports ``smilecal.cli`` pays only
for the modules its command runs.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("adiabatic", "bs_core", "density", "errors", "smile")


def _load() -> None:
    """Import the five modules, and bind ``__all__`` from their lists and
    each name in it."""
    global __all__
    modules = [importlib.import_module(f"{__name__}.{name}") for name in _MODULES]
    __all__ = [name for module in modules for name in module.__all__]
    globals().update({name: getattr(m, name) for m in modules for name in m.__all__})


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    # the other submodules, cli and the private ones, are left to the import
    # system, which imports one when this lookup fails, and so are dunders
    if name == "__all__" or not (name == "cli" or name.startswith("_")):
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    if "__all__" not in globals():
        _load()
    return sorted(globals())
