"""The benchmark's layer tracer must name functions that exist in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
