"""The benchmark's layer tracer, its calls into the package and the package's
exports must name things that exist, the package must define no function
that only tests reach, and the oracles and the test adapters may import
from the package only names that are not the kernels they check.  Blocked
loops take their one block size from `polya_tree`, which alone reads it,
a default that both the CLI and the library state is stated once, no
function takes a parameter named like a private one, only `rng` builds
random streams, and only an allowlist of functions multiplies through BLAS,
whose kernel the golden pins are checked not to depend on."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import platform
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import ptda
from ptda import bnp_test, cli, cvb, dataio, evalharness, polya_tree, rng, simgen, smoothing
from ptda.simgen import SimulationSpec, generate

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
SRC = ROOT / "src" / "ptda"
ORACLES = ROOT / "tests" / "oracles.py"
ADAPTERS = ROOT / "tests" / "adapters.py"

# functions that no program code references and that stay, with the reason
UNREFERENCED: dict = {}

# the package names tests/oracles.py imports, each with the reason it is not
# a kernel that an oracle checks
ORACLE_IMPORTS = {
    "ptda.errors.DomainError": "the exception the Shapiro-Wilk reference raises for a "
                               "constant sample, a type and no computation",
    "ptda.polya_tree.alpha_for_layer": "the prior's definition (1 on layer 1, c (layer - 1)**2 "
                                       "below), which the references must share to score "
                                       "the same model",
    "ptda.stats._kolmogorov_sf": "the KS reference differs in how it finds D; the survival "
                                 "function is checked against scipy.special.kolmogorov "
                                 "in test_stats",
    "ptda.stats.square_safe_shift": "an exact power-of-two rescaling that leaves W unchanged; "
                                    "the Shapiro-Wilk reference needs it to score the same "
                                    "extreme samples",
}

# the functions of the package that multiply through BLAS (`@`, np.dot,
# np.matmul, np.inner, np.vdot), each with the reason; a BLAS product's bits
# depend on the kernel OpenBLAS picks and on where a row falls in its block,
# so every other product is an einsum, summed in one fixed order
BLAS_PRODUCTS = {
    "smoothing._resubstitution_log_odds": "phase 2's (n, bin) x (bin, K) product: einsum there "
                                          "cost 7-10 % of select_c at n=1000, p=1000, and its "
                                          "bits reach only the error counts, through the sign "
                                          "of each score",
    "stats._royston_weights": "one np.dot(m, m) per sample size, cached, outside any block",
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


def test_no_private_parameters():
    # a parameter named like a private one is a second channel into a
    # function that its signature hides from callers; a function takes what
    # it needs in the open, or the work moves to where the data is
    private = sorted(f"{path.stem}.{node.name}({arg.arg})"
                     for path in sorted(SRC.glob("*.py"))
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                     for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                                 *filter(None, (node.args.vararg, node.args.kwarg)))
                     if arg.arg.startswith("_"))
    assert private == []


def test_oracles_import_only_allowed_package_names():
    # an oracle that imports the kernel it checks agrees with it by construction
    imported = set()
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ptda":
            imported |= {f"{node.module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names if alias.name.split(".")[0] == "ptda"}
    assert imported == set(ORACLE_IMPORTS), "the oracles' package imports differ from the allowlist"


def test_adapters_do_not_locate_with_the_package():
    # tree_of builds the reference forests that the package's leaves are
    # checked against, so it finds leaves without the package's locator
    names = set()
    for node in ast.walk(ast.parse(ADAPTERS.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name.rpartition(".")[2] for alias in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & {"leaf_indices", "normal_cdf"}


def _nodes(node, owner="<module>"):
    """(innermost enclosing function, node) of every node under an AST node."""
    for child in ast.iter_child_nodes(node):
        yield owner, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        yield from _nodes(child, inner)


def _calls(node):
    """(innermost enclosing function, call) of every call under an AST node."""
    return ((owner, call) for owner, call in _nodes(node) if isinstance(call, ast.Call))


def _file_write(call):
    """"open" for a call that opens a file for writing, "json.dump" for
    `json.dump`, else None.  An `open` mode that is not a string literal
    counts as a write."""
    target = ast.unparse(call.func)
    if target == "open" or target.endswith(".open"):
        mode = call.args[1] if len(call.args) > 1 else next(
            (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
        reads = isinstance(mode, ast.Constant) and isinstance(mode.value, str) \
            and not set(mode.value) & set("wax+")
        return None if reads else "open"
    if target.endswith((".write_text", ".write_bytes")):
        return "open"
    return "json.dump" if target == "json.dump" else None


def test_only_the_two_writers_write_files():
    # one boundary: every output goes through dataio.write_csv or write_json,
    # so quoting, float formatting and the trailing newline are decided once;
    # json.dump appears nowhere, since it streams into an open file and an
    # encoding error would leave half a document behind
    writes = {(f"{path.stem}.{owner}", kind)
              for path in sorted(SRC.glob("*.py"))
              for owner, call in _calls(ast.parse(path.read_text(encoding="utf-8")))
              if (kind := _file_write(call))}
    assert writes == {("dataio.write_csv", "open"), ("dataio.write_json", "open")}


def test_only_the_reader_and_writers_open_files():
    # input has one boundary too: every file the package reads goes through
    # dataio.load_csv or read_json, so encoding and parse errors are handled once
    opens = {f"{path.stem}.{owner}"
             for path in sorted(SRC.glob("*.py"))
             for owner, call in _calls(ast.parse(path.read_text(encoding="utf-8")))
             if (target := ast.unparse(call.func)) == "open" or target.endswith(".open")}
    assert opens == {"dataio.load_csv", "dataio.read_json", "dataio.write_csv",
                     "dataio.write_json"}


def _module_names(path):
    """Names a module assigns at its top level."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        yield from (name.id for target in targets for name in ast.walk(target)
                    if isinstance(name, ast.Name))


def test_one_block_size():
    # every blocked loop sizes its blocks from polya_tree._BLOCK_VALUES, so
    # the working set of each stage moves with one constant
    own = sorted(f"{path.stem}.{name}" for path in SRC.glob("*.py") for name in _module_names(path)
                 if any(word in name.upper() for word in ("BLOCK", "CHUNK", "BATCH")))
    assert own == ["polya_tree._BLOCK_VALUES"]


def test_only_polya_tree_reads_the_block_size():
    # a module that imported _BLOCK_VALUES would hold its own copy, which a
    # patch of polya_tree._BLOCK_VALUES never reaches; the blocked loops take
    # their slices from polya_tree.blocks instead
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ({alias.name for alias in node.names}
                     if isinstance(node, (ast.Import, ast.ImportFrom))
                     else {node.attr} if isinstance(node, ast.Attribute)
                     else {node.id} if isinstance(node, ast.Name) else set())
            if "_BLOCK_VALUES" in names:
                readers.add(path.stem)
    assert readers == {"polya_tree"}


def test_the_block_size_reaches_every_blocked_loop(monkeypatch):
    # patched smaller, the one block size splits the p-values, the evidence
    # plans, the leaf tables and the scored rows into more blocks, and no
    # output moves a bit.  600 values are 15 columns of 40 points and 10 rows
    # of 60 variables: no sum depends on where its row or column falls
    train, test, _ = generate(SimulationSpec(1, n_train=40, n_test=25, p=60, n_discriminative=5,
                                             seed=3))
    x, y = train.matrix, train.labels.astype(bool)
    ks, plan, walk = smoothing.ks_two_sample_sorted, bnp_test._plan_layers, polya_tree._log_paths

    def run():
        calls = {"p-value blocks": 0, "plans": 0, "table walks": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        def plans(*args):
            for layer in plan(*args):
                calls["plans"] += 1
                yield layer

        monkeypatch.setattr(smoothing, "ks_two_sample_sorted", counted("p-value blocks", ks))
        monkeypatch.setattr(bnp_test, "_plan_layers", plans)
        monkeypatch.setattr(polya_tree, "_log_paths", counted("table walks", walk))
        forest = polya_tree.TreeForest.from_matrix(x, y)
        outputs = (*smoothing.column_pvalues(x, y), forest.leaf1, forest.leaf0,
                   bnp_test.log_bayes_factors(forest, 1.0),
                   polya_tree.leaf_log_odds_table(forest, 1.0))
        counts = dict(calls)
        psi = cvb.update_psi(cvb.fit_model(x, y, 1.0), test.matrix).psi
        return counts, (*outputs, psi, evalharness.gaussian_nb_baseline(train, test))

    calls, outputs = run()
    monkeypatch.setattr(polya_tree, "_BLOCK_VALUES", 600)
    patched, patched_outputs = run()
    assert calls == {"p-value blocks": 1, "plans": 5, "table walks": 2}
    assert patched == {"p-value blocks": 4, "plans": 6, "table walks": 8}
    assert [len(range(25)[b]) for b in polya_tree.blocks(25, 60)] == [10, 10, 5]
    for before, after in zip(outputs, patched_outputs, strict=True):
        assert np.array_equal(before, after)


def test_blas_products_only_where_allowed():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for owner, node in _nodes(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
                    or isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2]
                    in ("dot", "matmul", "inner", "vdot")):
                found.add(f"{path.stem}.{owner}")
    assert found == set(BLAS_PRODUCTS)


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_golden_pins_hold_under_another_blas_kernel():
    """tests/test_golden.py re-run in a subprocess with OpenBLAS held to its
    Sandybridge kernels, about 4 s: no pinned output may depend on the BLAS
    kernel.  numpy's own CPU-feature switch (NPY_DISABLE_CPU_FEATURES) still
    moves psi through np.log and np.exp; this test leaves it out."""
    env = {**os.environ, "OPENBLAS_CORETYPE": "Sandybridge", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC.parent),
                                                       os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          str(ROOT / "tests" / "test_golden.py")],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]


def test_points_are_located_and_columns_summed_once():
    # one tiled locator, polya_tree._locate, serves the build and
    # flat_leaves, and column moments go through polya_tree.column_sums: no
    # module calls .std( or .var(, whose deviations are one (n, p) temporary
    locators, moments = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for owner, call in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            name = ast.unparse(call.func)
            if name.rpartition(".")[2] == "leaf_indices":
                locators.add(f"{path.stem}.{owner}")
            if isinstance(call.func, ast.Attribute) and call.func.attr in ("std", "var"):
                moments.add(f"{path.stem}.{owner}")
    assert locators == {"polya_tree._locate"}
    assert moments == set()


def test_only_rng_builds_random_streams():
    # every stream is a (seed, stream id) Philox key from rng.substreams, so
    # no module builds a bit generator or a Generator of its own
    builders = {f"{path.stem}.{owner}"
                for path in sorted(SRC.glob("*.py"))
                for owner, call in _calls(ast.parse(path.read_text(encoding="utf-8")))
                if ast.unparse(call.func).rpartition(".")[2] in {"Philox", "Generator",
                                                                 "default_rng"}}
    assert builders == {"rng.substreams"}


@pytest.mark.parametrize("seed,ids", [
    (0, [0, 1, 4999]),
    (202000, [rng.LABEL_TRAIN_STREAM, rng.LABEL_TEST_STREAM, 3]),
    (-7, [5, 2]),
    (2**64 + 5, [1, rng.FOLD_STREAM]),
    (3, [4, 4, 0, 4]),
    (3, []),
])
def test_substreams_equal_substream(seed, ids):
    # each re-keyed stream starts where a fresh one does, even after its
    # predecessor left a part-used buffer and a cached 32-bit half behind;
    # and both equal a Philox keyed by (seed, id) directly
    drawn = []
    for stream in rng.substreams(seed, iter(ids)):
        drawn.append(stream.random(1000))
        stream.integers(0, 10, 3, dtype=np.uint32)
    assert len(drawn) == len(ids)
    mask = (1 << 64) - 1
    for stream_id, draws in zip(ids, drawn):
        key = np.array([seed & mask, stream_id & mask], dtype=np.uint64)
        assert np.array_equal(draws, rng.substream(seed, stream_id).random(1000))
        assert np.array_equal(draws, np.random.Generator(np.random.Philox(key=key)).random(1000))


def test_forest_facts_have_one_owner():
    # polya_tree owns the forest: a forest from outside counts is checked in
    # TreeForest.from_leaves, which no bare constructor call skips, and the
    # layers and alphas are read by one walk over branch probabilities,
    # `_log_paths` (whose leaf tables the classifier and the predictive
    # density share), and by bnp_test's evidence only
    constructs, reads, callers = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("TreeForest"):
                constructs.add(path.stem)
            names = ({alias.name for alias in node.names} if isinstance(node, ast.ImportFrom)
                     else {node.attr} if isinstance(node, ast.Attribute) else set())
            if names & {"count_layers", "alpha_for_layer"}:
                reads.add(path.stem)
        for owner, call in _calls(tree):
            if ast.unparse(call.func).rpartition(".")[2] in {"count_layers", "alpha_for_layer"}:
                callers.add(path.stem if path.stem != "polya_tree" else f"polya_tree.{owner}")
    assert constructs == {"polya_tree"}
    assert reads == {"bnp_test"}
    assert callers == {"polya_tree._log_paths", "bnp_test"}


# Config fields whose CLI default differs from the library's on purpose
DEFAULT_EXEMPT = {"threads": "the CLI runs cross-validation on all cores (0), the library "
                             "call `cross_validate` on one thread unless asked"}


@pytest.mark.parametrize("name", sorted(cli._CONFIG_FLAGS))
def test_flag_help_states_the_config_default(name):
    # "(default X)" in a flag's help is what --help tells a user; a numeric X
    # must be the value that Config gives the flag when it is not passed
    stated = re.search(r"\(default ([^)]*)\)", cli._CONFIG_FLAGS[name][1]["help"]).group(1)
    if re.fullmatch(r"[-+0-9.e]+", stated):
        assert float(stated) == getattr(cli.Config(), name)


def test_config_defaults_equal_the_library_defaults():
    config = cli.Config()
    hyper = cvb.Hyperparameters()
    assert (config.u, config.a_y, config.b_y) == (hyper.u, hyper.a_y, hyper.b_y)
    assert config.ladder == smoothing.DEFAULT_LADDER
    for fn in (cvb.fit_model, smoothing.select_c, cvb.update_omega, evalharness.cross_validate):
        parameters = inspect.signature(fn).parameters
        for name in ("tol", "max_iter", "seed", "depth", "threads"):
            if name in parameters and name not in DEFAULT_EXEMPT:
                assert parameters[name].default == getattr(config, name), f"{fn.__name__} {name}"


def test_ladder_help_names_the_default_ladder():
    ladder = ",".join(f"{value:g}" for value in smoothing.DEFAULT_LADDER)
    commands = next(action for action in cli.build_parser()._actions
                    if action.dest == "command").choices
    helps = [action.help for parser in commands.values() for action in parser._actions
             if action.dest == "ladder"]
    assert len(helps) == 3
    assert all(f"(default {ladder})" in text for text in helps)
