"""The package namespace is exactly the union of its modules' public names."""

import pitnear
from pitnear import errors, estimators, gpn, models, specfun

MODULES = (errors, estimators, gpn, models, specfun)


def test_package_surface_is_the_union_of_module_surfaces():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(pitnear.__all__) == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(pitnear, name) is getattr(module, name), name
