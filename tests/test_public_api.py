"""The package's public surface: every module's star import and every name
in lvkernel.__all__ resolve, so a deletion cannot leave a stale entry."""

import importlib
import pkgutil

import pytest

import lvkernel

MODULES = sorted(m.name for m in pkgutil.iter_modules(lvkernel.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves(module):
    namespace = {}
    exec(f"from lvkernel.{module} import *", namespace)
    exported = importlib.import_module(f"lvkernel.{module}").__all__
    assert len(set(exported)) == len(exported)
    assert set(exported) <= set(namespace)


def test_package_names_resolve_once():
    names = lvkernel.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(lvkernel, name)]
    assert missing == []
