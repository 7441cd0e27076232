"""Experiment orchestration: repeated simulations, cross-validation and
a Gaussian naive-Bayes foil.

Rows come out as plain dicts (one per rep/fold/method) so they can be
dumped to tidy CSV; summaries aggregate means/medians and per-variable
selection rates.  Reps and folds are independent and may run on a thread
pool; results are assembled by index so thread count never changes them.
The pool pays off where numpy's forest and table work, which releases the
GIL, outweighs the Python omega sweep: on a 2-vCPU host, four setting-2
reps at n=1000, p=1000 took 9.3-10.3 s on one thread and 6.6-7.4 s on
two, while four setting-1 reps at n=100, p=3000 took 8.0-9.0 s either way.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cvb import Hyperparameters, classify, update_psi
from .dataio import Dataset, split_folds
from .errors import InputError
from .simgen import SimulationSpec, generate
from .smoothing import select_c

__all__ = [
    "RunMetrics",
    "selection_confusion",
    "run_simulation_study",
    "cross_validate",
    "gaussian_nb_baseline",
    "write_rows_csv",
    "write_summary_json",
]

VARIANCE_FLOOR = 1e-8


@dataclass
class RunMetrics:
    classification_error: float
    selection_accuracy: float
    tp: int
    tn: int
    fp: int
    fn: int
    selected: np.ndarray
    wall_time: float
    sweeps: int = 0
    converged: bool = True
    chosen_a: tuple | None = None


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


def _select_and_score(x_train, y_train, x_test, y_test, hyper, grid, depth,
                      tol, max_iter, seed) -> RunMetrics:
    """One rep or fold on raw columns: select c, which fits the model, then
    classify the test points; a variable counts as selected when its omega
    is at least 0.5, and the selection counts are left at 0.

    The centring Gaussians are fitted from the training columns, so the
    test points are scored in the same raw units with no transform.
    """
    start = time.perf_counter()
    report, model = select_c(x_train, y_train, hyper=hyper, grid=grid, depth=depth,
                             tol=tol, max_iter=max_iter, seed=seed)
    predicted = classify(update_psi(model, x_test))
    error = float(np.mean(predicted != y_test))
    selected = model.omega >= 0.5
    return RunMetrics(error, float("nan"), 0, 0, 0, 0, selected,
                      time.perf_counter() - start, model.selection.iteration,
                      model.selection.converged, report.chosen_a)


def gaussian_nb_baseline(train: Dataset, test: Dataset) -> RunMetrics:
    """Gaussian class-conditionals with pooled variance, no selection.

    The comparison foil: empirical prior odds plus per-variable Gaussian
    log-likelihood ratios over all variables.
    """
    start = time.perf_counter()
    y = train.labels
    n1 = int(np.sum(y == 1))
    n0 = y.size - n1
    if min(n1, n0) < 2:
        raise InputError("the baseline requires at least two members per group")
    x1 = train.matrix[y == 1]
    x0 = train.matrix[y == 0]
    mu1 = x1.mean(axis=0)
    mu0 = x0.mean(axis=0)
    pooled = (np.sum((x1 - mu1) ** 2, axis=0) + np.sum((x0 - mu0) ** 2, axis=0)) / (y.size - 2)
    pooled = np.maximum(pooled, VARIANCE_FLOOR)
    z = test.matrix
    log_odds = math.log(n1 / n0) + np.sum(
        (-((z - mu1) ** 2) + (z - mu0) ** 2) / (2.0 * pooled), axis=1
    )
    predicted = (log_odds >= 0.0).astype(np.int8)
    error = float(np.mean(predicted != test.labels))
    p = train.p
    selected = np.ones(p, dtype=bool)
    return RunMetrics(error, float("nan"), 0, 0, 0, 0, selected,
                      time.perf_counter() - start)


def run_simulation_study(setting: int, reps: int, base_seed: int = 0,
                         n_train: int = 100, n_test: int = 1000, p: int = 500,
                         n_discriminative: int = 50,
                         hyper: Hyperparameters | None = None, grid=None,
                         depth: int | None = None, tol: float = 1e-6,
                         max_iter: int = 1000, include_baseline: bool = True,
                         threads: int = 1):
    """Repeat generate/select/fit/score; returns (rows, summary).

    Rep r uses seed base_seed + r.  A variable counts as selected when its
    omega is at least the fixed 0.5; the selection counts and rates are
    taken against the truth at that cut.  Baseline metrics are computed on
    the same datasets.  Zero reps yields an empty table.
    """
    hyper = hyper or Hyperparameters()

    def one_rep(r: int):
        spec = SimulationSpec(setting, n_train, n_test, p, n_discriminative, base_seed + r)
        train, test, truth = generate(spec)
        metrics = _select_and_score(train.matrix, train.labels, test.matrix, test.labels, hyper,
                                    grid, depth, tol, max_iter, spec.seed)
        methods = [("ptda", metrics)]
        if include_baseline:
            methods.append(("gaussian_nb", gaussian_nb_baseline(train, test)))
        for _, m in methods:
            m.tp, m.tn, m.fp, m.fn, m.selection_accuracy = selection_confusion(m.selected, truth)
        return [_metrics_row(m, rep=r, method=name) for name, m in methods], metrics.selected

    results = _map_indexed(one_rep, range(reps), threads)
    rows = [row for rep_rows, _ in results for row in rep_rows]
    summary = _summarize(rows)
    if results:
        rates = np.mean([sel for _, sel in results], axis=0)
        summary["selection_rate"] = rates.tolist()
    return rows, summary


def cross_validate(dataset: Dataset, k: int, hyper: Hyperparameters | None = None,
                   grid=None, depth: int | None = None, tol: float = 1e-6,
                   max_iter: int = 1000, seed: int = 0, threads: int = 1):
    """Stratified k-fold CV with per-fold c selection; returns (rows, summary).

    Each fold fits on its raw training rows, whose moments alone set the
    centring Gaussians, and scores its raw test rows.
    """
    hyper = hyper or Hyperparameters()
    folds = split_folds(dataset, k, seed)

    def one_fold(f: int):
        train_idx, test_idx = folds[f]
        metrics = _select_and_score(dataset.matrix[train_idx], dataset.labels[train_idx],
                                    dataset.matrix[test_idx], dataset.labels[test_idx],
                                    hyper, grid, depth, tol, max_iter, seed)
        return _metrics_row(metrics, rep=f, method="ptda"), metrics.selected

    results = _map_indexed(one_fold, range(k), threads)
    rows = [row for row, _ in results]
    summary = _summarize(rows)
    summary["selection_rate"] = np.mean([sel for _, sel in results], axis=0).tolist()
    return rows, summary


def _metrics_row(m: RunMetrics, rep: int, method: str) -> dict:
    return {
        "rep": rep,
        "method": method,
        "classification_error": m.classification_error,
        "selection_accuracy": m.selection_accuracy,
        "tp": m.tp,
        "tn": m.tn,
        "fp": m.fp,
        "fn": m.fn,
        "n_selected": int(np.sum(m.selected)),
        "sweeps": m.sweeps,
        "converged": m.converged,
        "chosen_a": "" if m.chosen_a is None else ":".join(repr(v) for v in m.chosen_a),
        "wall_time": m.wall_time,
    }


def _summarize(rows) -> dict:
    summary: dict = {"methods": {}}
    for method in sorted({r["method"] for r in rows}):
        sub = [r for r in rows if r["method"] == method]
        errors = np.array([r["classification_error"] for r in sub])
        accs = np.array([r["selection_accuracy"] for r in sub])
        accs = accs[~np.isnan(accs)]
        summary["methods"][method] = {
            "reps": len(sub),
            "mean_classification_error": float(errors.mean()),
            "median_classification_error": float(np.median(errors)),
            "mean_selection_accuracy": float(accs.mean()) if accs.size else float("nan"),
            "median_selection_accuracy": float(np.median(accs)) if accs.size else float("nan"),
        }
    return summary


def _map_indexed(fn, indices, threads: int):
    indices = list(indices)
    if threads and threads > 1 and len(indices) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, indices))
    return [fn(i) for i in indices]


def write_rows_csv(path, rows, include_timings: bool = False):
    """Tidy CSV, one row per rep/fold/method; timings only on request so
    outputs stay byte-reproducible."""
    if not rows:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("")
        return
    fields = [k for k in rows[0].keys() if include_timings or k != "wall_time"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in fields})


def write_summary_json(path, summary: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
