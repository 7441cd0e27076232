"""Experiment orchestration: repeated simulations, cross-validation and
a Gaussian naive-Bayes foil.

Rows come out as plain dicts (one per rep/fold/method, each written once
by `_row`) so they can be dumped to tidy CSV; summaries aggregate
means/medians and per-variable selection rates.  Cross-validation folds
are independent and may run on a thread pool; results are assembled by
index so the thread count never changes them.  On a 2-vCPU host with one
BLAS thread, ten alternating pairs of k = 5 runs took a median 2.48 s on
one thread and 1.90 s on two at setting 2, n=1000, p=1000 (two faster in
10 of 10 pairs), and 2.75 s against 2.67 s at setting 1, n=100, p=3000
(6 of 10): the pool pays off where n is large and breaks even where p is.
Simulation reps run in turn.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .cvb import Hyperparameters, classify, update_psi
from .dataio import Dataset, split_folds, write_csv
from .errors import InputError
from .polya_tree import blocks, column_sums, integer
from .simgen import SimulationSpec, generate
from .smoothing import select_c
from .stats import square_safe_shift

__all__ = [
    "selection_confusion",
    "run_simulation_study",
    "cross_validate",
    "gaussian_nb_baseline",
    "write_rows_csv",
]

VARIANCE_FLOOR = 1e-8


def selection_confusion(selected, truth) -> tuple[int, int, int, int, float]:
    """(tp, tn, fp, fn, accuracy) of a selection indicator against the truth."""
    selected = np.asarray(selected, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if selected.shape != truth.shape:
        raise InputError("selection and truth vectors must have equal length")
    tp = int(np.sum(selected & truth))
    tn = int(np.sum(~selected & ~truth))
    fp = int(np.sum(selected & ~truth))
    fn = int(np.sum(~selected & truth))
    accuracy = (tp + tn) / truth.size
    return tp, tn, fp, fn, accuracy


def _row(rep: int, method: str, error: float, selected, wall_time: float, truth=None,
         sweeps: int = 0, converged: bool = True, chosen_a: tuple | None = None) -> dict:
    """The tidy row of one rep, fold or method.  The selection counts are
    taken against `truth` when there is one (a rep); without one (a CV
    fold) they are 0 and the selection accuracy is NaN."""
    tp, tn, fp, fn, accuracy = (0, 0, 0, 0, float("nan")) if truth is None \
        else selection_confusion(selected, truth)
    return {
        "rep": rep, "method": method,
        "classification_error": error, "selection_accuracy": accuracy,
        "tp": tp, "tn": tn, "fp": fp, "fn": fn,
        "n_selected": int(np.sum(selected)), "sweeps": sweeps, "converged": converged,
        "chosen_a": "" if chosen_a is None else ":".join(repr(v) for v in chosen_a),
        "wall_time": wall_time,
    }


def _select_and_score(x_train, y_train, x_test, y_test, seed, rep, truth=None, **options):
    """(row, selected) of one rep or fold on raw columns: select c
    (`select_c` with `options`), which fits the model, then classify the
    test points; a variable counts as selected when its omega is at least
    0.5.  The row's wall time covers the selection and the scoring.

    The centring Gaussians are fitted from the training columns, so the
    test points are scored in the same raw units with no transform.
    """
    start = time.perf_counter()
    report, model = select_c(x_train, y_train, seed=seed, **options)
    predicted = classify(update_psi(model, x_test))
    error = float(np.mean(predicted != y_test))
    selected = model.omega >= 0.5
    wall_time = time.perf_counter() - start
    return _row(rep, "ptda", error, selected, wall_time, truth, model.selection.iteration,
                model.selection.converged, report.chosen_a), selected


def gaussian_nb_baseline(train: Dataset, test: Dataset) -> float:
    """Test classification error of Gaussian class-conditionals with pooled
    variance, no selection.

    The comparison foil: empirical prior odds plus per-variable Gaussian
    log-likelihood ratios over all variables.  Each group's training
    moments are summed a tile at a time (`polya_tree.column_sums`) and the
    test points scored in row `polya_tree.blocks`, so the call holds a few
    block-sized temporaries (a few MB) beyond the moments, not (n_g, p) or
    (m, p) arrays; the moments and each row's sum are the same bits as in
    one expression over all rows.  Both sets must be labelled and have the
    same variables, the test set at least one point, and each training
    group two members (InputError).

    A training column whose squares would leave the double range is scaled
    by its power of two (`stats.square_safe_shift`, exact), in training and
    in each test block, as the forest build redoes its moments; other
    columns keep their bits.  A test value far beyond its column's training
    scale can still overflow.
    """
    if train.labels is None or test.labels is None:
        raise InputError("the baseline needs labelled training and test sets")
    if test.p != train.p or test.n == 0:
        raise InputError(f"the baseline scores test points of the {train.p} training variables, "
                         f"got {test.n} points of {test.p}")
    y = train.labels
    n1 = int(np.sum(y == 1))
    n0 = y.size - n1
    if min(n1, n0) < 2:
        raise InputError("the baseline requires at least two members per group")
    groups = (y == 1, y == 0)

    def moments(x):
        mu1, mu0 = (column_sums(x, rows) / size for rows, size in zip(groups, (n1, n0)))
        ss1, ss0 = (column_sums(x, rows, mu) for rows, mu in zip(groups, (mu1, mu0)))
        return mu1, mu0, (ss1 + ss0) / (y.size - 2)

    x = train.matrix
    shift = square_safe_shift(x, axis=0)
    big = np.flatnonzero(shift)
    with np.errstate(over="ignore", invalid="ignore"):  # the big columns are redone below
        mu1, mu0, variance = moments(x)
    if big.size:
        for full, part in zip((mu1, mu0, variance), moments(np.ldexp(x[:, big], -shift[big]))):
            full[big] = part
    pooled = np.maximum(variance, VARIANCE_FLOOR)
    z = test.matrix
    log_odds = np.empty(z.shape[0])
    for rows in blocks(*z.shape):
        block = np.ldexp(z[rows], -shift) if big.size else z[rows]  # ldexp by 0 is exact
        log_odds[rows] = math.log(n1 / n0) + np.sum(
            (-((block - mu1) ** 2) + (block - mu0) ** 2) / (2.0 * pooled), axis=1
        )
    predicted = (log_odds >= 0.0).astype(np.int8)
    return float(np.mean(predicted != test.labels))


def run_simulation_study(setting: int, reps: int, base_seed: int = 0,
                         n_train: int = 100, n_test: int = 1000, p: int = 500,
                         n_discriminative: int = 50, grid=None):
    """Repeat generate/select/fit/score; returns (rows, summary).

    Rep r uses seed base_seed + r.  Each rep selects c over `grid` (None
    means the default ladder) with the default hyperparameters, depth and
    sweep controls, and scores the Gaussian naive-Bayes baseline, which
    selects every variable, on the same datasets.  A variable counts as
    selected when its omega is at least the fixed 0.5; the selection counts
    and rates are taken against the truth at that cut.  Zero reps yields an
    empty table; `reps` must be an integer (InputError).
    """
    reps = integer(reps, "reps")

    def one_rep(r: int):
        spec = SimulationSpec(setting, n_train, n_test, p, n_discriminative, base_seed + r)
        train, test, truth = generate(spec)
        row, selected = _select_and_score(train.matrix, train.labels, test.matrix, test.labels,
                                          spec.seed, r, truth, grid=grid)
        start = time.perf_counter()
        error = gaussian_nb_baseline(train, test)
        foil = _row(r, "gaussian_nb", error, np.ones(train.p, dtype=bool),
                    time.perf_counter() - start, truth)
        return [row, foil], selected

    results = [one_rep(r) for r in range(reps)]
    rows = [row for rep_rows, _ in results for row in rep_rows]
    return rows, _summarize(rows, [sel for _, sel in results])


def cross_validate(dataset: Dataset, k: int, hyper: Hyperparameters | None = None,
                   grid=None, depth: int | None = None, tol: float = 1e-6,
                   max_iter: int = 1000, seed: int = 0, threads: int = 1):
    """Stratified k-fold CV with per-fold c selection; returns (rows, summary).

    Each fold fits on its raw training rows, whose moments alone set the
    centring Gaussians, and scores its raw test rows.  A fold has no true
    selection, so its row's selection counts are 0 and its accuracy NaN.
    `threads` must be an integer (InputError); below 2 the folds run in turn.
    """
    threads = integer(threads, "threads")
    folds = split_folds(dataset, k, seed)

    def one_fold(f: int):
        train_idx, test_idx = folds[f]
        return _select_and_score(dataset.matrix[train_idx], dataset.labels[train_idx],
                                 dataset.matrix[test_idx], dataset.labels[test_idx], seed, f,
                                 hyper=hyper, grid=grid, depth=depth, tol=tol,
                                 max_iter=max_iter)

    results = _map_indexed(one_fold, range(k), threads)
    rows = [row for row, _ in results]
    return rows, _summarize(rows, [sel for _, sel in results])


def _summarize(rows, selections) -> dict:
    """Per-method means and medians, and each variable's rate in `selections`."""
    # every dict's keys in sorted order: the summary JSON is written in dict order
    summary: dict = {"methods": {}}
    for method in sorted({r["method"] for r in rows}):
        sub = [r for r in rows if r["method"] == method]
        errors = np.array([r["classification_error"] for r in sub])
        accs = np.array([r["selection_accuracy"] for r in sub])
        accs = accs[~np.isnan(accs)]
        summary["methods"][method] = {
            "mean_classification_error": float(errors.mean()),
            "mean_selection_accuracy": float(accs.mean()) if accs.size else float("nan"),
            "median_classification_error": float(np.median(errors)),
            "median_selection_accuracy": float(np.median(accs)) if accs.size else float("nan"),
            "reps": len(sub),
        }
    if selections:
        summary["selection_rate"] = np.mean(selections, axis=0).tolist()
    return summary


def _map_indexed(fn, indices, threads: int):
    indices = list(indices)
    if threads > 1 and len(indices) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, indices))
    return [fn(i) for i in indices]


def write_rows_csv(path, rows, include_timings: bool = False):
    """Tidy CSV, one row per rep/fold/method; timings only on request so
    outputs stay byte-reproducible.  No rows write an empty file."""
    fields = [k for k in (rows[0] if rows else ()) if include_timings or k != "wall_time"]
    write_csv(path, fields, ([row[k] for k in fields] for row in rows))
