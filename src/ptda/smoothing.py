"""A-priori choice of the per-variable smoothing parameters.

Each variable gets two p-values: goodness of fit of the pooled column to
its Gaussian centring (Shapiro-Wilk) and distance between the two group
samples (Kolmogorov-Smirnov).  Both come from the column kernels of
`stats`, run on blocks of columns: one argsort per block serves both
tests.  Their prior-weighted blend ranks the variables into quartile bins,
and a grid of monotone bin-value tuples is searched for the one minimising
resubstitution classification error.

Counts are independent of the smoothing parameters, so the grid search
fits every candidate on one forest, locates the training points once and
keeps evidence and per-leaf log-odds tables per distinct ladder value.  It
runs in two phases over the distinct per-variable c vectors: first one
omega selection per vector, then the resubstitution log-odds of every
converged vector together, one gather per (bin, ladder value) and one
matrix product against the omega columns that use it.  The winning
candidate's model is returned as the fitted one.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .bnp_test import log_bayes_factors
from .cvb import (ETA_CLAMP, FittedModel, Hyperparameters, SelectionState, leaf_log_path_tables,
                  prior_log_odds, update_omega)
from .errors import DomainError, InputError
from .polya_tree import TreeForest, training_data
from .rng import SUBSAMPLE_STREAM, substream
from .stats import ks_two_sample_sorted, shapiro_wilk_sorted

__all__ = [
    "DEFAULT_LADDER",
    "SHAPIRO_MAX_N",
    "SmoothingReport",
    "expected_pvalue",
    "assign_bins",
    "monotone_tuples",
    "select_c",
]

DEFAULT_LADDER = (1.0, 5.0, 10.0, 50.0, 100.0)
SHAPIRO_MAX_N = 5000
# values per column block in column_pvalues: each (columns, n) temporary of
# a block takes about 0.5 MiB
_BLOCK_VALUES = 1 << 16

_log = logging.getLogger(__name__)


@dataclass
class SmoothingReport:
    """Per-variable diagnostics, the chosen bin-value tuple and the variable names."""

    v0: np.ndarray
    v1: np.ndarray
    expected: np.ndarray
    bins: np.ndarray
    chosen_a: tuple
    resubstitution_error: float
    names: list

    @property
    def c(self) -> np.ndarray:
        """Per-variable smoothing parameters implied by bins and chosen_a."""
        ladder = np.asarray(self.chosen_a)
        return ladder[self.bins - 1]

    def to_json_dict(self) -> dict:
        return {
            "chosen_a": list(self.chosen_a),
            "resubstitution_error": self.resubstitution_error,
            "v0": self.v0.tolist(),
            "v1": self.v1.tolist(),
            "expected": self.expected.tolist(),
            "bins": self.bins.tolist(),
            "names": list(self.names),
        }

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SmoothingReport":
        """Report from a JSON file written by `save`; anything malformed raises InputError."""
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
                v0, v1, expected = (np.asarray(doc[k], dtype=float) for k in ("v0", "v1", "expected"))
                bins = np.asarray(doc["bins"])
                chosen_a = np.asarray(doc["chosen_a"], dtype=float)
                error = float(doc["resubstitution_error"])
            except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
                raise InputError(f"malformed smoothing report {path}: {exc!r}") from exc
        if bins.ndim != 1 or bins.dtype.kind != "i" or np.any((bins < 1) | (bins > 4)):
            raise InputError(f"smoothing report {path}: bins must be integers in 1..4")
        if chosen_a.ndim != 1 or not _is_monotone_tuple(tuple(chosen_a.tolist())):
            raise InputError(f"smoothing report {path}: chosen_a must be a monotone 4-tuple in (0, 100]")
        if any(a.shape != bins.shape for a in (v0, v1, expected)):
            raise InputError(f"smoothing report {path}: v0, v1, expected and bins differ in length")
        names = doc.get("names")
        if not (isinstance(names, list) and len(names) == bins.size
                and all(isinstance(v, str) for v in names) and len(set(names)) == len(names)):
            raise InputError(f"smoothing report {path}: names must list the {bins.size} distinct "
                             f"variable names; rerun select-c to write them")
        return cls(v0, v1, expected, bins.astype(np.int64), tuple(chosen_a.tolist()), error, names)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("variable,v0,v1,expected,bin,c\n")
            c = self.c
            for j, name in enumerate(self.names):
                fh.write(f"{name},{float(self.v0[j])!r},{float(self.v1[j])!r},"
                         f"{float(self.expected[j])!r},{int(self.bins[j])},{float(c[j])!r}\n")


def expected_pvalue(v0, v1, p: int, u: float) -> np.ndarray:
    """Prior-expected p-values, (v1 + p**u * v0) / (1 + p**u) elementwise.

    `v0` and `v1` are scalars or arrays of p-values in [0, 1].
    """
    v0 = np.asarray(v0, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    if not (np.all((v0 >= 0.0) & (v0 <= 1.0)) and np.all((v1 >= 0.0) & (v1 <= 1.0))):
        raise DomainError("p-values must lie in [0, 1]")
    if p < 1 or not u > 1.0:
        raise DomainError("requires p >= 1 and u > 1")
    weight = float(p) ** u
    return (v1 + weight * v0) / (1.0 + weight)


def assign_bins(expected) -> np.ndarray:
    """Quartile bins 1-4 from the expected p-values.

    Thresholds are the floor(p/4), floor(p/2), floor(3p/4) order
    statistics; a value below the first threshold gets bin 1, and a value
    at or above the last gets bin 4.  With fewer than four variables every
    variable falls in bin 4.
    """
    e = np.asarray(expected, dtype=float)
    p = e.size
    if p < 4:
        return np.full(p, 4, dtype=np.int64)
    order = np.sort(e)
    t1, t2, t3 = order[p // 4 - 1], order[p // 2 - 1], order[3 * p // 4 - 1]
    return np.where(e < t1, 1, np.where(e < t2, 2, np.where(e < t3, 3, 4))).astype(np.int64)


def _is_monotone_tuple(t: tuple) -> bool:
    """True for a non-decreasing 4-tuple of values in (0, 100]."""
    return len(t) == 4 and all(0.0 < v <= 100.0 for v in t) and list(t) == sorted(t)


def monotone_tuples(ladder) -> list[tuple]:
    """All non-decreasing 4-tuples over the ladder, in lexicographic order."""
    values = sorted(float(v) for v in ladder)
    if not values:
        raise InputError("the candidate ladder is empty")
    if any(not (0.0 < v <= 100.0) for v in values):
        raise DomainError("ladder values must lie in (0, 100]")
    return list(itertools.combinations_with_replacement(values, 4))


def column_pvalues(matrix, labels, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(v0, v1): per-column normality and two-sample p-values.

    v0 is the Shapiro-Wilk p-value of the pooled column and v1 the
    Kolmogorov-Smirnov p-value between the label-1 and label-0 rows.  The
    columns are scored in blocks of about _BLOCK_VALUES values: each block
    is transposed to (columns, n), argsorted once along its rows, and that
    one order gives both the sorted values for `shapiro_wilk_sorted` and
    the group masks for `ks_two_sample_sorted`.  With n > SHAPIRO_MAX_N,
    Shapiro-Wilk runs on one deterministic subsample of SHAPIRO_MAX_N rows
    (the SUBSAMPLE_STREAM substream of `seed`), sorted per block.  A
    constant column, and every column when n < 3, scores v0 = 0.  A
    non-finite value, or an empty group, raises InputError.  Subsampling and
    the count of constant columns are reported at DEBUG on the
    `ptda.smoothing` logger.
    """
    x = np.asarray(matrix, dtype=float)
    y = np.asarray(labels).astype(bool)
    n, p = x.shape
    if not (y.any() and (~y).any()):
        raise InputError("both groups must be non-empty")
    v0 = np.zeros(p)
    v1 = np.empty(p)
    sub = None
    if n > SHAPIRO_MAX_N:
        sub = substream(seed, SUBSAMPLE_STREAM).choice(n, size=SHAPIRO_MAX_N, replace=False)
        sub.sort()
        _log.debug("column_pvalues: Shapiro-Wilk on a subsample of %d of the %d rows (seed %d)",
                   SHAPIRO_MAX_N, n, seed)
    constant = 0
    step = max(1, _BLOCK_VALUES // n)
    for start in range(0, p, step):
        cols = slice(start, start + step)
        block = np.ascontiguousarray(x[:, cols].T)
        if not np.all(np.isfinite(block)):
            raise InputError("the matrix must be finite")
        order = block.argsort(axis=1)
        ordered = np.take_along_axis(block, order, axis=1)
        in1 = y[order]
        del order  # one block-sized temporary fewer while the tests run
        v1[cols] = ks_two_sample_sorted(ordered, in1)[1]
        if n >= 3:
            w_stat, v0[cols] = shapiro_wilk_sorted(
                ordered if sub is None else np.sort(block[:, sub], axis=1))
            constant += int(np.count_nonzero(np.isnan(w_stat)))
    if constant:
        _log.debug("column_pvalues: %d of %d columns are constant and score v0 = 0", constant, p)
    return v0, v1


def _by_bin(by_value: dict, vector: tuple, columns: list, out: np.ndarray) -> np.ndarray:
    """Fill `out`'s rows from per-value arrays: the rows of columns[i] from by_value[vector[i]]."""
    for value, cols in zip(vector, columns):
        out[cols] = by_value[value][cols]
    return out


def _resubstitution_log_odds(flat: np.ndarray, odds: dict, omega: np.ndarray, vectors: list,
                             columns: list) -> np.ndarray:
    """(n, K) omega-weighted sums of the training points' leaf log-odds, one
    column per candidate c vector.

    `flat` holds the points' (n, p) flat leaf indices, `odds` one (p,
    2**depth) leaf log-odds table per ladder value, `omega` the (K, p)
    selection probabilities, and vectors[k][i] candidate k's value on the
    variables columns[i].  For each bin and value the points' leaf log-odds
    on the bin's variables are gathered once and multiplied against the
    omega columns of every candidate that gives the bin that value.
    """
    eta = np.zeros((flat.shape[0], len(vectors)))
    for i, cols in enumerate(columns):
        index = flat[:, cols]
        for value, table in odds.items():
            ks = [k for k, vector in enumerate(vectors) if vector[i] == value]
            if ks:
                eta[:, ks] += np.take(table, index) @ omega[np.ix_(ks, cols)].T
    return eta


def select_c(matrix, labels, hyper: Hyperparameters | None = None, grid=None,
             depth: int | None = None, tol: float = 1e-6, max_iter: int = 1000,
             seed: int = 0) -> tuple[SmoothingReport, FittedModel]:
    """Grid search over bin-value tuples minimising resubstitution error.

    `grid` is either a ladder of candidate values (monotone 4-tuples are
    enumerated) or an explicit iterable of 4-tuples.  Each candidate is
    fitted on one shared forest and its training points are scored the
    way `update_psi` scores new points, and labelled at the fixed
    threshold psi >= 0.5 that `classify` applies by default.  Only
    candidates whose selection converged within `max_iter` sweeps
    compete, and ties in error go to the lexicographically smallest tuple.

    The search runs in two phases over the distinct per-variable c vectors
    the tuples give (tuples that differ only on an empty bin, or repeat a
    ladder value, give one vector).  Phase 1 runs `update_omega` once per
    vector on evidence assembled by bin from one log BF vector per ladder
    value, and keeps only the omegas, sweep counts and converged flags.
    Phase 2 scores every converged vector at once: per (bin, value) the
    training points' leaf log-odds are gathered once and multiplied
    against all the omega columns that use them.  The summation order
    differs from `update_psi`'s one matvec, so a score may differ from it
    in the last bits.  The per-value log BF vectors, the (K, p) omega
    matrix and the per-vector errors stay local to the search; only the
    winner's fit is returned.

    Returns (report, model): `model` is the winning candidate's fit, equal
    to `fit_model(matrix, labels, report.c)` with the same hyperparameters,
    depth, tol and max_iter, and both carry the names V1..Vp.  Skipped
    candidate tuples are counted in a warning on the `ptda.smoothing`
    logger; InputError is raised when no candidate converged.  Data that
    fail `training_data` (labels other than 0 and 1, a non-finite value)
    raise InputError before any p-value is computed.
    """
    hyper = hyper or Hyperparameters()
    x, yb = training_data(matrix, labels)
    p = x.shape[1]
    if grid is None:
        tuples = monotone_tuples(DEFAULT_LADDER)
    elif all(np.isscalar(v) or isinstance(v, float) for v in grid):
        tuples = monotone_tuples(grid)
    else:
        tuples = [tuple(float(v) for v in t) for t in grid]
        if not tuples:
            raise InputError("the candidate grid is empty")
        for t in tuples:
            if not _is_monotone_tuple(t):
                raise DomainError(f"grid tuples must be monotone 4-tuples in (0, 100], got {t}")
        tuples.sort()

    v0, v1 = column_pvalues(x, yb, seed=seed)
    expected = expected_pvalue(v0, v1, p, hyper.u)
    bins = assign_bins(expected)

    forest = TreeForest.from_matrix(x, yb, depth)
    flat = forest.flat_leaves(x)
    names = [f"V{j + 1}" for j in range(p)]
    # the winner's arrays, allocated before the scoring arrays: allocated
    # after them, they raised the peak RSS of a rep at n=100, p=5000 (the
    # test-set scoring that follows) by 10-20 MB
    leaf_log_odds = np.empty((p, 1 << forest.depth))
    winner_omega = np.empty(p)

    # a tuple's c vector is its values on the occupied bins
    occupied = np.unique(bins)
    columns = [np.flatnonzero(bins == b) for b in occupied]
    keys = [tuple(t[b - 1] for b in occupied) for t in tuples]
    vectors = list(dict.fromkeys(keys))
    slot = {vector: k for k, vector in enumerate(vectors)}

    # phase 1: one selection per distinct vector (counts never change, only
    # the alphas do, so the evidence is one log BF vector per ladder value)
    log_bf = {v: log_bayes_factors(forest, v) for v in sorted(set().union(*vectors))}
    omega = np.empty((len(vectors), p))
    sweeps = np.empty(len(vectors), dtype=np.int64)
    converged = np.empty(len(vectors), dtype=bool)
    for k, vector in enumerate(vectors):
        state = update_omega(_by_bin(log_bf, vector, columns, np.empty(p)), hyper,
                             tol=tol, max_iter=max_iter)
        omega[k], sweeps[k], converged[k] = state.omega, state.iteration, state.converged

    # phase 2: resubstitution error of every converged vector
    live = np.flatnonzero(converged)
    odds = {}
    for v in sorted(set().union(*(vectors[k] for k in live))):
        lp1, lp0 = leaf_log_path_tables(forest, v)
        odds[v] = lp1 - lp0
    errors = np.full(len(vectors), math.inf)
    if live.size:
        eta = _resubstitution_log_odds(flat, odds, omega[live], [vectors[k] for k in live], columns)
        eta = np.clip(prior_log_odds(hyper, forest) + eta, -ETA_CLAMP, ETA_CLAMP)
        # expit is monotone: psi >= 0.5 iff eta >= logit(0.5) = 0
        errors[live] = np.mean((eta >= 0.0) != yb[:, None], axis=0)

    best: tuple | None = None  # (candidate, its vector's slot)
    best_error = math.inf
    skipped = 0
    for candidate, key in zip(tuples, keys):
        k = slot[key]
        if not converged[k]:
            skipped += 1
        elif errors[k] < best_error:
            best, best_error = (candidate, k), float(errors[k])
    if skipped:
        _log.warning("select_c skipped %d of %d smoothing candidates whose selection did not "
                     "converge within max_iter=%d sweeps", skipped, len(tuples), max_iter)
    if best is None:
        raise InputError(f"no smoothing candidate's selection converged within max_iter={max_iter} "
                         f"sweeps (tol {tol}); raise max_iter")
    candidate, k = best
    np.copyto(winner_omega, omega[k])
    selection = SelectionState(winner_omega, int(sweeps[k]), True)
    model = FittedModel(hyper, selection, forest, np.asarray(candidate)[bins - 1], names)
    model.leaf_log_odds = _by_bin(odds, vectors[k], columns, leaf_log_odds)
    return SmoothingReport(v0, v1, expected, bins, candidate, best_error, names), model
