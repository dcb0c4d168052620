"""Every name that the package and its modules export resolves, and none is
exported twice: a deleted name cannot stay in an ``__all__``."""

import collections
import importlib
import pkgutil

import pytest

import morphwheel

MODULES = ["morphwheel", *(f"morphwheel.{info.name}"
                           for info in pkgutil.iter_modules(morphwheel.__path__))]
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_the_package_and_its_computation_modules_export():
    assert {"morphwheel", "morphwheel.bending", "morphwheel.report",
            "morphwheel.telescopic", "morphwheel.quasistatics"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    missing = []
    for export in module.__all__:
        try:
            getattr(module, export)
        except AttributeError:
            missing.append(export)
    assert missing == []
    counts = collections.Counter(module.__all__)
    assert [export for export, n in counts.items() if n > 1] == []
