import importlib
import pkgutil

import pytest

import robrsvd

# every module that declares __all__; __main__ runs the CLI on import
MODULES = [robrsvd] + [
    module for module in (importlib.import_module(f"robrsvd.{info.name}")
                          for info in pkgutil.iter_modules(robrsvd.__path__) if info.name != "__main__")
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves_once(module):
    names = module.__all__
    assert len(MODULES) > 1
    assert sorted(name for name in set(names) if names.count(name) > 1) == []
    assert [name for name in names if not hasattr(module, name)] == []
