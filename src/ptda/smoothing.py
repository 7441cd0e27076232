"""A-priori choice of the per-variable smoothing parameters.

Each variable gets two p-values: goodness of fit of the pooled column to
its Gaussian centring (Shapiro-Wilk) and distance between the two group
samples (Kolmogorov-Smirnov).  Their prior-weighted blend ranks the
variables into quartile bins, and a grid of monotone bin-value tuples is
searched for the one minimising resubstitution classification error.

Counts are independent of the smoothing parameters, so the grid search
reuses one forest and caches evidence and path probabilities per distinct
ladder value.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .bnp_test import log_bayes_factors
from .cvb import ETA_CLAMP, Hyperparameters, log_path_probability_matrix, update_omega
from .errors import DomainError, InputError
from .polya_tree import TreeForest
from .rng import SUBSAMPLE_STREAM, substream
from .stats import ks_two_sample, shapiro_wilk

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


@dataclass
class SmoothingReport:
    """Per-variable diagnostics and the chosen bin-value tuple."""

    v0: np.ndarray
    v1: np.ndarray
    expected: np.ndarray
    bins: np.ndarray
    chosen_a: tuple
    resubstitution_error: float

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
        return cls(v0, v1, expected, bins.astype(np.int64), tuple(chosen_a.tolist()), error)

    def write_csv(self, path, names=None):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("variable,v0,v1,expected,bin,c\n")
            c = self.c
            for j in range(self.v0.size):
                name = names[j] if names is not None else f"V{j + 1}"
                fh.write(f"{name},{float(self.v0[j])!r},{float(self.v1[j])!r},"
                         f"{float(self.expected[j])!r},{int(self.bins[j])},{float(c[j])!r}\n")


def expected_pvalue(v0: float, v1: float, p: int, u: float) -> float:
    """Prior-expected p-value: (v1 + p**u * v0) / (1 + p**u)."""
    if not (0.0 <= v0 <= 1.0 and 0.0 <= v1 <= 1.0):
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

    Columns longer than the Shapiro-Wilk validity range are subsampled
    deterministically; a constant column scores v0 = 0.
    """
    x = np.asarray(matrix, dtype=float)
    y = np.asarray(labels).astype(bool)
    n, p = x.shape
    v0 = np.empty(p)
    v1 = np.empty(p)
    sub = None
    if n > SHAPIRO_MAX_N:
        sub = substream(seed, SUBSAMPLE_STREAM).choice(n, size=SHAPIRO_MAX_N, replace=False)
        sub.sort()
    for j in range(p):
        col = x[:, j]
        try:
            v0[j] = shapiro_wilk(col if sub is None else col[sub]).p_value
        except DomainError:
            v0[j] = 0.0
        v1[j] = ks_two_sample(col[y], col[~y]).p_value
    return v0, v1


def select_c(matrix, labels, hyper: Hyperparameters | None = None, grid=None,
             depth: int | None = None, tol: float = 1e-6, max_iter: int = 1000,
             threshold: float = 0.5, seed: int = 0) -> SmoothingReport:
    """Grid search over bin-value tuples minimising resubstitution error.

    `grid` is either a ladder of candidate values (monotone 4-tuples are
    enumerated) or an explicit iterable of 4-tuples.  Ties in error go to
    the lexicographically smallest tuple.
    """
    hyper = hyper or Hyperparameters()
    x = np.asarray(matrix, dtype=float)
    y = np.asarray(labels)
    if x.ndim != 2:
        raise InputError("matrix must be two-dimensional")
    n, p = x.shape
    yb = np.asarray(y).astype(bool)
    if not (yb.any() and (~yb).any()):
        raise InputError("both groups must be non-empty")
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

    v0, v1 = column_pvalues(x, y, seed=seed)
    expected = (v1 + float(p) ** hyper.u * v0) / (1.0 + float(p) ** hyper.u)
    bins = assign_bins(expected)

    forest = TreeForest.from_matrix(x, y, depth)
    prior = math.log(hyper.a_y + forest.n1) - math.log(hyper.b_y + forest.n0)
    y_int = yb.astype(np.int8)

    # per distinct ladder value: evidence vector and resubstitution log
    # path probabilities (counts never change, only the alphas do)
    bf_cache: dict[float, np.ndarray] = {}
    lp_cache: dict[float, tuple] = {}

    def caches_for(value: float):
        if value not in bf_cache:
            bf_cache[value] = log_bayes_factors(forest, value)
            lp_cache[value] = log_path_probability_matrix(forest, value, x)
        return bf_cache[value], lp_cache[value]

    best: tuple | None = None
    best_error = math.inf
    for candidate in tuples:
        c_vals = np.asarray(candidate)[bins - 1]
        log_bf = np.empty(p)
        lp1 = np.empty((n, p))
        lp0 = np.empty((n, p))
        for value in sorted(set(candidate)):
            bf_v, (lp1_v, lp0_v) = caches_for(value)
            mask = c_vals == value
            log_bf[mask] = bf_v[mask]
            lp1[:, mask] = lp1_v[:, mask]
            lp0[:, mask] = lp0_v[:, mask]
        state = update_omega(log_bf, hyper, tol=tol, max_iter=max_iter)
        eta = prior + (lp1 - lp0) @ state.omega
        eta = np.clip(eta, -ETA_CLAMP, ETA_CLAMP)
        # expit is monotone: psi >= threshold iff eta >= logit(threshold)
        cut = math.log(threshold / (1.0 - threshold))
        predicted = (eta >= cut).astype(np.int8)
        error = float(np.mean(predicted != y_int))
        if error < best_error:
            best, best_error = candidate, error
    return SmoothingReport(v0, v1, expected, bins, best, best_error)
