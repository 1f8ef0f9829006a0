"""The package's exports: every name listed in an ``__all__`` exists."""

import importlib
import pkgutil

import radialift


def _modules():
    yield radialift
    for info in pkgutil.iter_modules(radialift.__path__):
        if info.name != "__main__":  # running it is the CLI
            yield importlib.import_module(f"radialift.{info.name}")


def test_every_exported_name_resolves():
    checked = 0
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
            checked += 1
    assert checked > len(radialift.__all__)


def test_star_import():
    namespace = {}
    exec("from radialift import *", namespace)
    assert set(radialift.__all__) <= set(namespace)
