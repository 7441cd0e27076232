"""The benchmark's layer tracer, its calls into the package and the package's
exports must name things that exist, and the package must define no
function that only tests reach."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from dataclasses import fields
from pathlib import Path

import pytest

import ptda
from ptda import cvb, dataio, evalharness, simgen

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
SRC = ROOT / "src" / "ptda"

# functions that no program code references and that stay, with the reason
UNREFERENCED = {
    "stats.log_beta": "tests/oracles.py builds its reference log Bayes factors from it",
}


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


def _identifiers(path) -> set:
    """Every name and attribute that appears in a Python file's code."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _defined_functions():
    """module.name of every function and method in the package, dunders aside."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and not (node.name.startswith("__")
                                                          and node.name.endswith("__")):
                yield f"{path.stem}.{node.name}"


def _entry_points() -> set:
    """Function names of the console scripts in pyproject.toml's [project.scripts]
    (read by hand: tomllib is Python 3.11+, and the package supports 3.10)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return {line.rpartition(":")[2].strip().strip('"') for line in section.splitlines() if "=" in line}


def test_every_function_is_referenced():
    # a function only tests reach is code the pipeline does not use.  A
    # reference is a name or attribute in src/ or perfbench/ code (imports
    # and __all__ strings do not count), a LAYERS target, or a console-script
    # entry point.  Names are matched without their owner, so a method that
    # shares a name with another one in use passes
    referenced = set().union(*map(_identifiers, [*SRC.glob("*.py"),
                                                 *(ROOT / "perfbench").glob("*.py")]))
    referenced |= {target.rpartition(".")[2] for _, target, *_ in _layers()}
    referenced |= _entry_points()
    defined = set(_defined_functions())
    unreferenced = sorted(f for f in defined if f.rpartition(".")[2] not in referenced)
    assert unreferenced == sorted(UNREFERENCED), "unreferenced functions differ from the allowlist"
