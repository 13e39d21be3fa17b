"""The package's public names: each module's ``__all__`` is the one list of
its names, and the package exports exactly their concatenation."""

import importlib

import smilecal

MODULES = ("adiabatic", "bs_core", "density", "errors", "smile")


def test_package_exports_the_module_lists():
    modules = [importlib.import_module(f"smilecal.{name}") for name in MODULES]
    assert smilecal.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(smilecal.__all__)) == len(smilecal.__all__)
    for m in modules:
        for name in m.__all__:
            assert getattr(smilecal, name) is getattr(m, name)
