"""A-priori choice of the per-variable smoothing parameters.

Each variable gets two p-values: goodness of fit of the pooled column to
its Gaussian centring (Shapiro-Wilk) and distance between the two group
samples (Kolmogorov-Smirnov).  Both come from the column kernels of
`stats`, run on blocks of columns: one argsort per block serves both
tests.  Their prior-weighted blend ranks the variables into quartile bins,
and a grid of monotone bin-value tuples is searched for the one minimising
resubstitution classification error.

Counts are independent of the smoothing parameters, so the grid search
fits every candidate on one forest, and one `log_bayes_factors` call over
that forest gives the log Bayes factors of every ladder value.  The search
runs in two phases over the distinct per-variable c vectors: first one
omega selection per vector, then the resubstitution log-odds of every
converged vector together, bin by bin: the bin's sub-forest locates the
training points in its variables, and one (bin, ladder value) leaf
log-odds table at a time is gathered from.  No (n, p) leaf index is held
between the build and the scores.  The winner is returned as an ordinary
fit, which builds its own table.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import dataio
from .bnp_test import log_bayes_factors
from .cvb import (ETA_CLAMP, FittedModel, Hyperparameters, _checked_hyper, _checked_names,
                  complexity_weight, json_numbers, prior_log_odds, update_omega)
from .errors import DomainError, InputError
from .polya_tree import (TreeForest, blocks, check_smoothing, float_array, integer,
                         leaf_log_odds_table, training_data)
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
        """Write the report as compact JSON on one line, encoded in full before
        the file is opened (`dataio.write_json`); `python -m json.tool`
        pretty-prints it."""
        dataio.write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path) -> "SmoothingReport":
        """Report from a JSON file written by `save`; anything malformed raises
        InputError.  Numbers are checked by exact type, as in model files
        (`cvb.json_numbers`): v0, v1, expected and the error must be numbers
        in [0, 1], the bins integers in 1..4."""
        doc = dataio.read_json(path, "smoothing report")
        try:
            v0, v1, expected, chosen_a = (
                np.array(json_numbers(doc[k], float, f"smoothing report {path}: every {k!r} value"),
                         dtype=float)
                for k in ("v0", "v1", "expected", "chosen_a"))
            [error] = json_numbers([doc["resubstitution_error"]], float,
                                   f"smoothing report {path}: resubstitution_error")
            bins = np.array(json_numbers(doc["bins"], int, f"smoothing report {path}: every bin"),
                            dtype=np.int64)
        except (KeyError, TypeError, OverflowError) as exc:  # OverflowError: a huge integer
            raise InputError(f"malformed smoothing report {path}: {exc!r}") from exc
        if np.any((bins < 1) | (bins > 4)):
            raise InputError(f"smoothing report {path}: bins must be integers in 1..4")
        if not _is_monotone_tuple(tuple(chosen_a.tolist())):
            raise InputError(f"smoothing report {path}: chosen_a must be a monotone 4-tuple in (0, 100]")
        if any(a.shape != bins.shape for a in (v0, v1, expected)):
            raise InputError(f"smoothing report {path}: v0, v1, expected and bins differ in length")
        if not all(np.all((a >= 0.0) & (a <= 1.0)) for a in (v0, v1, expected, error)):  # NaN fails
            raise InputError(f"smoothing report {path}: p-values and the error must lie in [0, 1]")
        try:
            names = _checked_names(doc.get("names"), bins.size)
        except InputError as exc:
            raise InputError(f"smoothing report {path}: {exc} ({bins.size} of them); rerun "
                             f"select-c to write them") from exc
        return cls(v0, v1, expected, bins, tuple(chosen_a.tolist()), float(error), names)

    def write_csv(self, path):
        columns = (self.v0, self.v1, self.expected, self.bins, self.c)
        dataio.write_csv(path, ["variable", "v0", "v1", "expected", "bin", "c"],
                         zip(self.names, *(a.tolist() for a in columns)))


def expected_pvalue(v0, v1, p: int, u: float) -> np.ndarray:
    """Prior-expected p-values, (v1 + p**u * v0) / (1 + p**u) elementwise.

    `v0` and `v1` are scalars or arrays of p-values in [0, 1] (numbers:
    InputError), and p and u as `complexity_weight` takes them.
    """
    v0 = float_array(v0, "p-values")
    v1 = float_array(v1, "p-values")
    if not (np.all((v0 >= 0.0) & (v0 <= 1.0)) and np.all((v1 >= 0.0) & (v1 <= 1.0))):
        raise DomainError("p-values must lie in [0, 1]")
    weight = complexity_weight(p, u)
    return (v1 + weight * v0) / (1.0 + weight)


def assign_bins(expected) -> np.ndarray:
    """Quartile bins 1-4 from the expected p-values.

    Thresholds are the floor(p/4), floor(p/2), floor(3p/4) order
    statistics; a value below the first threshold gets bin 1, and a value
    at or above the last gets bin 4.  With fewer than four variables every
    variable falls in bin 4.  The values must be numbers (InputError).
    """
    e = float_array(expected, "expected p-values")
    p = e.size
    if p < 4:
        return np.full(p, 4, dtype=np.int64)
    order = np.sort(e)
    t1, t2, t3 = order[p // 4 - 1], order[p // 2 - 1], order[3 * p // 4 - 1]
    return np.where(e < t1, 1, np.where(e < t2, 2, np.where(e < t3, 3, 4))).astype(np.int64)


def _is_monotone_tuple(t: tuple) -> bool:
    """True for a non-decreasing 4-tuple of smoothing parameters (`check_smoothing`)."""
    if len(t) != 4 or list(t) != sorted(t):
        return False
    try:
        check_smoothing(t, 4)
    except DomainError:
        return False
    return True


def monotone_tuples(ladder) -> list[tuple]:
    """All non-decreasing 4-tuples over the ladder, in lexicographic order.
    The values must be numbers (InputError) and lie in (0, 100] (`check_smoothing`)."""
    values = list(ladder)
    if not values:
        raise InputError("the candidate ladder is empty")
    values = sorted(check_smoothing(values, len(values)).tolist())
    return list(itertools.combinations_with_replacement(values, 4))


def column_pvalues(matrix, labels, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(v0, v1): per-column normality and two-sample p-values of data that
    passed `training_data` in `select_c` (both groups non-empty, all finite).

    v0 is the Shapiro-Wilk p-value of the pooled column and v1 the
    Kolmogorov-Smirnov p-value between the label-1 and label-0 rows.  The
    columns are scored in `polya_tree.blocks` of n values a column: each block
    is transposed to (columns, n), argsorted once along its rows, and that
    one order gives both the sorted values for `shapiro_wilk_sorted` and
    the group masks for `ks_two_sample_sorted`.  With n > SHAPIRO_MAX_N,
    Shapiro-Wilk runs on one deterministic subsample of SHAPIRO_MAX_N rows
    (the SUBSAMPLE_STREAM substream of `seed`), sorted per block.  A
    constant column, and every column when n < 3, scores v0 = 0.
    Subsampling and the count of constant columns are reported at DEBUG on
    the `ptda.smoothing` logger.  A `seed` that is not an integer raises
    InputError, even where no subsample is drawn.
    """
    seed = integer(seed, "seed")
    x = np.asarray(matrix, dtype=float)
    y = np.asarray(labels).astype(bool)
    n, p = x.shape
    v0 = np.zeros(p)
    v1 = np.empty(p)
    sub = None
    if n > SHAPIRO_MAX_N:
        sub = substream(seed, SUBSAMPLE_STREAM).choice(n, size=SHAPIRO_MAX_N, replace=False)
        sub.sort()
        _log.debug("column_pvalues: Shapiro-Wilk on a subsample of %d of the %d rows (seed %d)",
                   SHAPIRO_MAX_N, n, seed)
    constant = 0
    for cols in blocks(p, n):
        block = np.ascontiguousarray(x[:, cols].T)
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


def _resubstitution_log_odds(forest: TreeForest, x: np.ndarray, omegas: list,
                             vectors: list, columns: list) -> np.ndarray:
    """(n, K) omega-weighted sums of the training points' leaf log-odds, one
    column per candidate c vector.

    `x` holds the (n, p) training points of `forest`, omegas[k] candidate
    k's (p,) selection probabilities, and vectors[k][i] its value on the
    variables columns[i].  Bin by bin, the bin's forest (`variables`)
    locates the points in its own trees; then for each ladder value some
    candidate gives the bin, ascending, the bin's leaf log-odds table is
    built, gathered from and dropped, and the gather multiplied against the
    bin's omegas of every such candidate, one (candidates, bin) array.  So
    each column adds its bins in bin order, whatever its vector.
    """
    eta = np.zeros((x.shape[0], len(vectors)))
    for i, cols in enumerate(columns):
        part = forest.variables(cols)
        flat = part.flat_leaves(x[:, cols])
        for value in sorted({vector[i] for vector in vectors}):
            ks = [k for k, vector in enumerate(vectors) if vector[i] == value]
            eta[:, ks] += (np.take(leaf_log_odds_table(part, value), flat)
                           @ np.array([omegas[k][cols] for k in ks]).T)
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

    The forest is built once.  The search runs in two phases over the
    distinct per-variable c vectors the tuples give (tuples that differ
    only on an empty bin, or repeat a ladder value, give one vector).
    Phase 1 scores the log BF of every distinct ladder value in one
    `log_bayes_factors` call, as a (values, 1) column of settings, gathers
    each vector's evidence from that (values, p) result by its own row
    index, and keeps one `update_omega` selection state per vector.  Phase
    2 scores every converged vector at once, bin by bin in order: it
    locates the points in the bin's trees and holds one table at a time,
    the leaf log-odds of the bin's variables at one ladder value
    (`_resubstitution_log_odds`).  Its summation order, bin by bin through
    BLAS, differs from the one fixed-order sum per row that `update_psi`
    does with the winner's omega, so a score may differ from it in the last
    bits.  The candidate with the least error wins, an unconverged one
    counting as an infinite error.  The winner is returned as an ordinary
    `FittedModel` of its selection state, forest and c, which builds its
    leaf log-odds table on first use, as every model does.

    Returns (report, model): `model` is the winning candidate's fit, equal
    to `fit_model(matrix, labels, report.c)` with the same hyperparameters,
    depth, tol and max_iter, and both carry the names V1..Vp.  Skipped
    candidate tuples are counted in a warning on the `ptda.smoothing`
    logger; InputError is raised when no candidate converged.  Data that
    fail `training_data` (labels other than 0 and 1, a non-finite value),
    and a `hyper` that is neither None nor a Hyperparameters, raise
    InputError before any p-value is computed.
    """
    hyper = _checked_hyper(Hyperparameters() if hyper is None else hyper)
    x, yb = training_data(matrix, labels)
    p = x.shape[1]
    if grid is None:
        tuples = monotone_tuples(DEFAULT_LADDER)
    elif all(np.isscalar(v) for v in grid):
        tuples = monotone_tuples(grid)
    else:
        tuples = [float_array(t, "grid tuples") for t in grid]
        if not tuples:
            raise InputError("the candidate grid is empty")
        if any(t.ndim != 1 for t in tuples):  # a scalar or None beside tuples
            raise InputError("every entry of a grid of tuples must be a tuple of numbers")
        tuples = sorted(tuple(t.tolist()) for t in tuples)
        for t in tuples:
            if not _is_monotone_tuple(t):
                raise DomainError(f"grid tuples must be monotone 4-tuples in (0, 100], got {t}")

    v0, v1 = column_pvalues(x, yb, seed=seed)
    expected = expected_pvalue(v0, v1, p, hyper.u)
    bins = assign_bins(expected)

    forest = TreeForest.from_matrix(x, yb, depth)
    names = [f"V{j + 1}" for j in range(p)]

    # a tuple's c vector is its values on the occupied bins
    occupied = np.unique(bins)
    columns = [np.flatnonzero(bins == b) for b in occupied]
    keys = [tuple(t[b - 1] for b in occupied) for t in tuples]
    vectors = list(dict.fromkeys(keys))
    slot = {vector: k for k, vector in enumerate(vectors)}

    # phase 1: one selection per distinct vector (counts never change, only
    # the alphas do, so the evidence is one log BF row per ladder value)
    values = sorted(set().union(*vectors))
    log_bf = log_bayes_factors(forest, np.array(values)[:, None])
    row = {v: r for r, v in enumerate(values)}
    position = np.searchsorted(occupied, bins)  # each variable's place in a vector
    variables = np.arange(p)
    states = []
    for vector in vectors:  # each vector's evidence row, gathered in turn
        rows = np.array([row[v] for v in vector])[position]
        states.append(update_omega(log_bf[rows, variables], hyper, tol=tol, max_iter=max_iter))

    # phase 2: resubstitution error of every converged vector
    live = [k for k, state in enumerate(states) if state.converged]
    errors = np.full(len(vectors), math.inf)
    if live:
        eta = _resubstitution_log_odds(forest, x, [states[k].omega for k in live],
                                       [vectors[k] for k in live], columns)
        eta = np.clip(prior_log_odds(hyper, forest) + eta, -ETA_CLAMP, ETA_CLAMP)
        # expit is monotone: psi >= 0.5 iff eta >= logit(0.5) = 0
        errors[live] = np.mean((eta >= 0.0) != yb[:, None], axis=0)

    # the first least error over the sorted tuples; inf marks an unconverged one
    scores = [float(errors[slot[key]]) for key in keys]
    best = scores.index(min(scores))
    skipped = scores.count(math.inf)
    if skipped:
        _log.warning("select_c skipped %d of %d smoothing candidates whose selection did not "
                     "converge within max_iter=%d sweeps", skipped, len(tuples), max_iter)
    if skipped == len(tuples):
        raise InputError(f"no smoothing candidate's selection converged within max_iter={max_iter} "
                         f"sweeps (tol {tol}); raise max_iter")
    report = SmoothingReport(v0, v1, expected, bins, tuples[best], scores[best], names)
    return report, FittedModel(hyper, states[slot[keys[best]]], forest, report.c, names)
