"""The benchmark's layer tracer and the package's exports must name things that exist."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import ptda

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("layer", _layers(), ids=lambda layer: layer[2])
def test_traced_layer_resolves(layer):
    # the tracer silently skips a missing name, which would read as 0 s in
    # the benchmark instead of failing; resolve each target the way it does
    home_name, target, _, _, _ = layer
    home = importlib.import_module(home_name)
    owner_name, _, attr = target.rpartition(".")
    if owner_name:
        owner = getattr(home, owner_name, None)
        assert isinstance(owner, type), f"{home_name}.{owner_name} is not a class"
        assert attr in vars(owner), f"{home_name}.{target} does not exist"
    else:
        assert callable(getattr(home, attr, None)), f"{home_name}.{attr} does not exist"


@pytest.mark.parametrize("module", ["ptda"] + sorted(
    f"ptda.{info.name}" for info in pkgutil.iter_modules(ptda.__path__)))
def test_exported_names_resolve(module):
    # a stale __all__ entry breaks `from module import *` only when someone runs it
    home = importlib.import_module(module)
    missing = [name for name in getattr(home, "__all__", ()) if not hasattr(home, name)]
    assert missing == [], f"{module}.__all__ names missing attributes: {missing}"
