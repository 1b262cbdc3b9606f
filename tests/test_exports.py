import importlib
import pkgutil

import pytest

import pptatlas

MODULES = ["pptatlas"] + [f"pptatlas.{info.name}"
                          for info in pkgutil.iter_modules(pptatlas.__path__)]
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_the_public_modules_declare_their_exports():
    assert {"pptatlas", "pptatlas.extremal", "pptatlas.invariants", "pptatlas.prodvec",
            "pptatlas.qstate", "pptatlas.rank4", "pptatlas.ranksearch"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_exists_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", EXPORTING)
def test_star_import_binds_exactly_the_exports(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(importlib.import_module(name).__all__)
