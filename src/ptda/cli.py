"""Command-line interface.

One executable, subcommand style: simulate, select-c, fit, predict, cv,
bf, density.  All outputs are machine-readable CSV/JSON, all
randomness flows from --seed, and exit codes are 0 (success), 1 (input
error, including a size too large to allocate), 2 (internal error).

Every command computes all of its outputs before it writes any, and on
failure it leaves none of them behind (`_write_outputs`).  Files are
written only by `dataio.write_csv` and `write_json`.  CSV fields are
quoted where needed; JSON (model, report, cv summary) is compact on one
line and encoded before its file is opened, and `python -m json.tool FILE`
pretty-prints it.

Each subcommand accepts only the flags its handler reads.  Defaults may
be overridden by a JSON config file passed with --config or named by the
PTDA_CONFIG environment variable.  The file is shared: one file serves
every command, every key in it is checked on every command that takes
--config, and each command reads only its own keys (`simulate` the seed,
`bf` the depth, and so on).  `predict` and `density` read no config
value and so load no config file.

`bf`'s two-column mode is its matrix mode on one column: --group-column
is read as the label column, and only the --value-column variable is
scored and printed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .bnp_test import log_bayes_factors
from .cvb import FittedModel, Hyperparameters, classify, fit_model, json_numbers, update_psi
from .dataio import Dataset, load_csv, preprocess, read_json, write_csv, write_json
from .errors import ContractViolation, InputError, PtdaError
from .evalharness import cross_validate, write_rows_csv
from .polya_tree import TreeForest, predictive_density
from .simgen import SimulationSpec, generate
from .smoothing import DEFAULT_LADDER, SmoothingReport, select_c

CONFIG_ENV = "PTDA_CONFIG"


@dataclass
class Config:
    u: float = 1.5
    a_y: float = 1.0
    b_y: float = 1.0
    tol: float = 1e-6
    max_iter: int = 1000
    depth: int | None = None
    ladder: tuple = DEFAULT_LADDER
    seed: int = 0
    threads: int = 0  # 0 means all available cores

    def hyper(self) -> Hyperparameters:
        return Hyperparameters(self.a_y, self.b_y, self.u)

    def worker_count(self) -> int:
        return self.threads if self.threads > 0 else (os.cpu_count() or 1)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    doc = read_json(path, "config file")
    if not isinstance(doc, dict):
        raise InputError(f"config file {path} must hold a JSON object")
    declared = {f.name: f.type for f in fields(Config)}
    unknown = set(doc) - set(declared)
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    for name, value in doc.items():  # each declared type is float, int, int | None or tuple
        if declared[name] == "tuple":
            json_numbers(value, float, f"every entry of config key {name!r}")
        elif not (value is None and declared[name] == "int | None"):
            json_numbers([value], int if declared[name].startswith("int") else float,
                         f"config key {name!r}")
    return doc


def _ladder_value(entry: str) -> float:
    try:
        return float(entry)
    except ValueError:
        raise InputError(f"--ladder entry {entry!r} is not a number") from None


# the Config fields a subcommand may set by flag: flag name and argparse options
_CONFIG_FLAGS = {
    "seed": ("--seed", dict(type=int, help="random seed (default 0)")),
    "u": ("--u", dict(type=float, help="complexity-prior exponent, > 1 (default 1.5)")),
    "a_y": ("--a-y", dict(type=float, help="beta prior a on the group-1 proportion (default 1)")),
    "b_y": ("--b-y", dict(type=float, help="beta prior b on the group-1 proportion (default 1)")),
    "tol": ("--tol", dict(type=float, help="selection convergence tolerance (default 1e-6)")),
    "max_iter": ("--max-iter", dict(type=int, help="maximum selection sweeps (default 1000)")),
    "depth": ("--depth", dict(type=int, help="tree truncation depth (default floor(log2 n))")),
    "threads": ("--threads", dict(type=int, help="worker thread cap, 0 for all cores (default 0)")),
}

# what selecting c and fitting read: the seed (Shapiro-Wilk subsampling),
# the hyperparameters, the sweep controls and the depth
_FIT_SETTINGS = ("seed", "u", "a_y", "b_y", "tol", "max_iter", "depth")


def _config_from(args) -> Config:
    cfg = Config(**_load_config_file(args.config))
    for name in _CONFIG_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    if getattr(args, "ladder", None) is not None:
        cfg.ladder = tuple(_ladder_value(v) for v in args.ladder.split(","))
    cfg.hyper()  # a_y, b_y and u are checked on every command, NaN refused
    if not 0 < cfg.tol < math.inf:  # NaN fails too
        raise InputError(f"--tol must be positive and finite, got {cfg.tol}")
    if cfg.max_iter < 1:
        raise InputError(f"--max-iter must be at least 1, got {cfg.max_iter}")
    if cfg.threads < 0:
        raise InputError(f"--threads must be 0 (all cores) or positive, got {cfg.threads}")
    return cfg


def _add_config(sub, *names):
    """--config plus a flag for each named Config field."""
    sub.add_argument("--config", help="JSON config file (default: $PTDA_CONFIG)")
    for name in names:
        flag, options = _CONFIG_FLAGS[name]
        sub.add_argument(flag, dest=name, **options)


def _add_data(sub):
    sub.add_argument("--data", required=True, help="input CSV path")
    sub.add_argument("--label-column", dest="label_column", help="name of the label column")
    sub.add_argument("--positive-label", dest="positive_label", help="label value mapped to group 1")
    sub.add_argument("--orientation", default="samples-in-rows",
                     choices=["samples-in-rows", "variables-in-rows"],
                     help="CSV layout (default samples-in-rows)")


def _load_dataset(args, need_labels: bool = True) -> Dataset:
    if need_labels and args.label_column is None:
        raise InputError("--label-column is required here")
    ds = load_csv(args.data, label_column=args.label_column, orientation=args.orientation,
                  positive_label=args.positive_label)
    if ds.label_mapping:
        print(f"label mapping: {ds.label_mapping}", file=sys.stderr)
    return ds


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for internal ones."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ptda",
        description="Nonparametric discriminant analysis with tree-based "
                    "variable selection for two-group data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="write seeded benchmark train/test/truth CSVs")
    sim.add_argument("--setting", type=int, required=True, help="benchmark setting, 1-6")
    sim.add_argument("--n-train", dest="n_train", type=int, default=100, help="training rows (default 100)")
    sim.add_argument("--n-test", dest="n_test", type=int, default=1000, help="test rows (default 1000)")
    sim.add_argument("--p", type=int, default=500, help="number of variables (default 500)")
    sim.add_argument("--n-disc", dest="n_disc", type=int, default=50,
                     help="number of discriminative variables (default 50)")
    sim.add_argument("--out-dir", dest="out_dir", required=True, help="output directory")
    _add_config(sim, "seed")

    sel = commands.add_parser("select-c", help="choose smoothing parameters and write the report")
    _add_config(sel, *_FIT_SETTINGS)
    _add_data(sel)
    sel.add_argument("--ladder", help="comma-separated candidate values (default 1,5,10,50,100)")
    sel.add_argument("--out", required=True, help="report JSON path")
    sel.add_argument("--out-csv", dest="out_csv", help="optional per-variable CSV path")

    fit = commands.add_parser("fit", help="fit the model and write model JSON")
    _add_config(fit, *_FIT_SETTINGS)
    _add_data(fit)
    fit.add_argument("--c", type=float, help="single smoothing parameter for every variable")
    fit.add_argument("--c-report", dest="c_report", help="smoothing report JSON from select-c")
    fit.add_argument("--ladder", help="comma-separated candidate values if selecting c here "
                                      "(default 1,5,10,50,100)")
    fit.add_argument("--median-floor", dest="median_floor", type=float,
                     help="drop variables with median <= this")
    fit.add_argument("--variance-floor", dest="variance_floor", type=float,
                     help="drop variables with variance <= this")
    fit.add_argument("--out", required=True, help="model JSON path")

    pred = commands.add_parser("predict", help="class probabilities for new points")
    pred.add_argument("--model", required=True, help="model JSON from fit")
    _add_data(pred)
    pred.add_argument("--threshold", type=float, default=0.5, help="label threshold (default 0.5)")
    pred.add_argument("--out", required=True, help="predictions CSV path")

    cv = commands.add_parser("cv", help="stratified k-fold cross-validation")
    _add_config(cv, *_FIT_SETTINGS, "threads")
    _add_data(cv)
    cv.add_argument("--k", type=int, default=5, help="number of folds (default 5)")
    cv.add_argument("--ladder", help="comma-separated candidate values (default 1,5,10,50,100)")
    cv.add_argument("--median-floor", dest="median_floor", type=float,
                    help="drop variables with median <= this")
    cv.add_argument("--variance-floor", dest="variance_floor", type=float,
                    help="drop variables with variance <= this")
    cv.add_argument("--timings", action="store_true", help="include wall times in the CSV")
    cv.add_argument("--out", required=True, help="fold metrics CSV path")
    cv.add_argument("--out-summary", dest="out_summary", help="optional summary JSON path")

    bf = commands.add_parser("bf", help="per-variable two-sample log Bayes factors")
    _add_config(bf, "depth")
    _add_data(bf)
    bf.add_argument("--c", type=float, default=1.0, help="smoothing parameter (default 1)")
    bf.add_argument("--value-column", dest="value_column",
                    help="two-column mode (matrix mode on this one column): the value column name")
    bf.add_argument("--group-column", dest="group_column",
                    help="two-column mode: the group column name, read as --label-column")

    dens = commands.add_parser("density", help="per-group predictive density grid for one variable")
    dens.add_argument("--model", required=True, help="model JSON from fit")
    dens.add_argument("--variable", required=True, help="variable name")
    dens.add_argument("--grid-points", dest="grid_points", type=int, default=512,
                      help="grid resolution (default 512)")
    dens.add_argument("--x-min", dest="x_min", type=float, help="grid lower end (default mean - 4 sd)")
    dens.add_argument("--x-max", dest="x_max", type=float, help="grid upper end (default mean + 4 sd)")
    dens.add_argument("--out", required=True, help="density CSV path")

    return parser


def _cmd_simulate(args, cfg: Config) -> int:
    spec = SimulationSpec(args.setting, args.n_train, args.n_test, args.p, args.n_disc, cfg.seed)
    train, test, truth = generate(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    _write_outputs(
        *((os.path.join(args.out_dir, f"{tag}.csv"), write_csv, ds.names + ["y"],
           (row.tolist() + [label] for row, label in zip(ds.matrix, ds.labels.tolist())))
          for tag, ds in (("train", train), ("test", test))),
        (os.path.join(args.out_dir, "truth.csv"), write_csv, ["variable", "discriminative"],
         zip(train.names, truth.astype(int).tolist())))
    return 0


def _write_outputs(*outputs):
    """Write each (path, write, *args) as write(path, *args), in order, skipping an
    unset path; if one fails, remove the files the earlier ones wrote, so a
    failed command leaves none of its outputs behind.  A failing writer
    removes its own file: only it knows whether it opened it, and a file it
    could not open is not touched."""
    written = []
    try:
        for path, write, *rest in outputs:
            if path:
                write(path, *rest)
                written.append(path)
    except BaseException:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise


def _cmd_select_c(args, cfg: Config) -> int:
    ds = _load_dataset(args)
    report, _ = select_c(ds.matrix, ds.labels, hyper=cfg.hyper(), grid=cfg.ladder,
                         depth=cfg.depth, tol=cfg.tol, max_iter=cfg.max_iter, seed=cfg.seed)
    report.names = list(ds.names)
    _write_outputs((args.out, report.save), (args.out_csv, report.write_csv))
    print(f"chosen a: {report.chosen_a}  resubstitution error: {report.resubstitution_error}")
    return 0


def _match_names(expected, found, owner: str):
    """Refuse data whose variable names differ from `owner`'s, naming the first mismatch."""
    for j, (want, got) in enumerate(zip(expected, found)):
        if want != got:
            raise InputError(f"variable {j + 1} of the data is {got!r}, the {owner}'s is {want!r}")


def _resolve_c(args, cfg: Config, ds: Dataset) -> FittedModel:
    """The model `fit` saves: at --c, at a --c-report's c, or at a c selected here."""
    if args.c is not None and args.c_report:
        raise InputError("pass either --c or --c-report, not both")
    if args.ladder is not None and (args.c is not None or args.c_report):
        raise InputError("--ladder selects c here; pass it without --c or --c-report")
    options = dict(hyper=cfg.hyper(), depth=cfg.depth, tol=cfg.tol, max_iter=cfg.max_iter)
    if args.c is not None:
        return fit_model(ds.matrix, ds.labels, args.c, **options)
    if args.c_report:
        report = SmoothingReport.load(args.c_report)
        if report.bins.size != ds.p:
            raise InputError(f"the report covers {report.bins.size} variables, the data has {ds.p}")
        _match_names(report.names, ds.names, "report")
        return fit_model(ds.matrix, ds.labels, report.c, **options)
    return select_c(ds.matrix, ds.labels, grid=cfg.ladder, seed=cfg.seed, **options)[1]


def _cmd_fit(args, cfg: Config) -> int:
    ds = preprocess(_load_dataset(args), args.median_floor, args.variance_floor)
    model = _resolve_c(args, cfg, ds)
    if not model.selection.converged:
        raise InputError(f"the selection did not converge within --max-iter {cfg.max_iter} sweeps "
                         f"(--tol {cfg.tol}); raise --max-iter")
    model.names = list(ds.names)
    error = float(np.mean(classify(update_psi(model, ds.matrix)) != ds.labels))
    _write_outputs((args.out, model.save))
    print(f"fitted p={ds.p} n={ds.n}  sweeps={model.selection.iteration} "
          f"converged={model.selection.converged}  resubstitution error: {error}")
    return 0


def _cmd_predict(args, cfg: Config) -> int:
    model = FittedModel.load(args.model)
    ds = _load_dataset(args, need_labels=False)
    if ds.p != model.p:
        raise InputError(f"model has {model.p} variables, data has {ds.p}")
    _match_names(model.names, ds.names, "model")
    psi = update_psi(model, ds.matrix)
    labels = classify(psi, args.threshold)
    _write_outputs((args.out, write_csv, ["row", "psi", "label"],
                    zip(range(labels.size), psi.psi.tolist(), labels.tolist())))
    if ds.labels is not None:
        error = float(np.mean(labels != ds.labels))
        print(f"classification error: {error}")
    return 0


def _cmd_cv(args, cfg: Config) -> int:
    ds = preprocess(_load_dataset(args), args.median_floor, args.variance_floor)
    rows, summary = cross_validate(ds, args.k, hyper=cfg.hyper(), grid=cfg.ladder,
                                   depth=cfg.depth, tol=cfg.tol, max_iter=cfg.max_iter,
                                   seed=cfg.seed, threads=cfg.worker_count())
    _write_outputs((args.out, write_rows_csv, rows, args.timings),
                   (args.out_summary, write_json, summary))
    errors = [r["classification_error"] for r in rows]
    print(f"cv mean classification error: {float(np.mean(errors))}")
    return 0


def _cmd_bf(args, cfg: Config) -> int:
    if (args.value_column is None) != (args.group_column is None):
        raise InputError("two-column mode needs both --value-column and --group-column")
    if args.value_column is not None:
        if args.label_column is not None:
            raise InputError("two-column mode takes its groups from --group-column; "
                             "drop --label-column")
        args.label_column = args.group_column
    ds = _load_dataset(args)
    names, matrix = ds.names, ds.matrix
    if args.value_column is not None:
        if args.value_column not in names:
            raise InputError(f"value column {args.value_column!r} not in the data")
        j = names.index(args.value_column)
        names, matrix = names[j:j + 1], matrix[:, j:j + 1]
    forest = TreeForest.from_matrix(matrix, ds.labels, cfg.depth)
    for name, value in zip(names, log_bayes_factors(forest, args.c)):
        print(f"{name},{float(value)!r}")
    return 0


def _cmd_density(args, cfg: Config) -> int:
    model = FittedModel.load(args.model)
    if args.variable not in model.names:
        raise InputError(f"variable {args.variable!r} not in the model")
    j = model.names.index(args.variable)
    tree, c = model.forest.variables([j]), float(model.c[j])
    mean, sd = float(tree.means[0]), float(tree.sds[0])
    lo = args.x_min if args.x_min is not None else mean - 4.0 * sd
    hi = args.x_max if args.x_max is not None else mean + 4.0 * sd
    if not math.isfinite(hi - lo):  # NaN or inf at an end, or a span past the float range
        raise InputError(f"the grid ends and their span must be finite, got x-min {lo!r}, x-max {hi!r}")
    if args.grid_points < 2 or hi <= lo:
        raise InputError("need at least 2 grid points and x-max > x-min")
    grid = np.linspace(lo, hi, args.grid_points)
    density1, density0 = predictive_density(grid, tree, c)
    rows = zip(grid.tolist(), density1.tolist(), density0.tolist())
    _write_outputs((args.out, write_csv, ["x", "density_group1", "density_group0"], rows))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "select-c": _cmd_select_c,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "cv": _cmd_cv,
    "bf": _cmd_bf,
    "density": _cmd_density,
}


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from(args) if "config" in args else None  # predict, density: no Config
        return _COMMANDS[args.command](args, cfg)
    except ContractViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except PtdaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError, MemoryError) as exc:  # a file or a size the user named
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())
