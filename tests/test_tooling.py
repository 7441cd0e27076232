"""The benchmark's layer tracer, its calls into the package and the package's
exports must name things that exist."""

import importlib
import importlib.util
import inspect
import pkgutil
from dataclasses import fields
from pathlib import Path

import pytest

import ptda
from ptda import cvb, dataio, evalharness, simgen

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


# the calls perfbench/run.py makes, bound against the live signatures with
# placeholder values: a renamed or deleted parameter fails here, before a
# benchmark run meets it
BENCHMARK_CALLS = [
    (evalharness.run_simulation_study, (), dict(reps=1, base_seed=0, setting=1, n_train=100,
                                                 n_test=1000, p=200, grid=[(1.0,) * 4])),
    (cvb.fit_model, ("x", "y", 1.0), dict(names=["V1"])),
    (dataio.load_csv, ("train.csv",), dict(label_column="y")),
    (simgen.SimulationSpec, (1,), dict(n_train=100, n_test=300, p=5000, n_discriminative=50,
                                        seed=900)),
    (simgen.generate, ("spec",), {}),
    (cvb.FittedModel.save, ("model", "model.json"), {}),
    (cvb.FittedModel.load, ("model.json",), {}),
    (cvb.update_psi, ("model", "points"), {}),
]


@pytest.mark.parametrize("call", BENCHMARK_CALLS, ids=lambda call: call[0].__qualname__)
def test_benchmark_call_binds(call):
    fn, args, kwargs = call
    inspect.signature(fn).bind(*args, **kwargs)


def test_benchmark_reads_psi():
    assert "psi" in {f.name for f in fields(cvb.ClassProbabilities)}
