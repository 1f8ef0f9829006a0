"""The package's exports: every name listed in an ``__all__`` exists, and a
cold process loads only what its command runs."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import radialift

# the lift, the kernel catalog and the battery, and rational arithmetic,
# which nothing in the package uses: the lift's coefficients are integers
NOT_ON_THE_DIRECT_ROUTE = {"radialift.lift", "radialift.kernels",
                           "radialift.checks", "fractions"}


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


def test_lazy_exports_are_the_modules_own():
    from radialift import kernels, lift

    assert radialift.lift_once is lift.lift_once
    assert radialift.CoefficientTable is lift.CoefficientTable
    assert radialift.heat_profile is kernels.heat_profile
    assert set(radialift.__all__) <= set(dir(radialift))
    with pytest.raises(AttributeError, match="'radialift'"):
        radialift.no_such_name


def _imported(*argv):
    """Every module a fresh interpreter running ``argv`` imports."""
    src = str(Path(radialift.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("argv, absent", [
    (("-c", "import radialift"), NOT_ON_THE_DIRECT_ROUTE),
    (("-m", "radialift", "transform", "--profile", "exp(-2*pi*s)", "--dim", "4",
      "--grid", "0:3:16"), NOT_ON_THE_DIRECT_ROUTE | {"json"}),
    (("-m", "radialift", "coeffs", "3"), {"fractions", "decimal"}),
], ids=["import", "transform", "coeffs"])
def test_a_cold_process_loads_only_the_direct_route(argv, absent):
    imported = _imported(*argv)
    assert "radialift.transform" in imported
    assert not imported & absent
