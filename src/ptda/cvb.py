"""Collapsed variational coordinate ascent for selection and classification.

The selection probabilities omega are updated one coordinate at a time
within a sweep (each update sees the current sweep's earlier coordinates
and the previous sweep's later ones); once omega has converged, each new
point's class probability psi is computed independently from the prior
odds plus an omega-weighted sum of log path-probability ratios.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractViolation, DomainError, InputError
from .polya_tree import TreeForest, alpha_for_layer
from .stats import expit

__all__ = [
    "Hyperparameters",
    "SelectionState",
    "ClassProbabilities",
    "FittedModel",
    "update_omega",
    "update_psi",
    "leaf_log_path_tables",
    "prior_log_odds",
    "classify",
    "fit_model",
]

ETA_CLAMP = 700.0
MODEL_FORMAT = 2
_OPEN_LO = 1e-300
_OPEN_HI = float(np.nextafter(1.0, 0.0))

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Hyperparameters:
    a_y: float = 1.0
    b_y: float = 1.0
    u: float = 1.5

    def __post_init__(self):
        if not (self.a_y > 0.0 and self.b_y > 0.0):
            raise DomainError("a_y and b_y must be positive")
        if not self.u > 1.0:
            raise DomainError(f"the complexity exponent u must exceed 1, got {self.u!r}")


@dataclass
class SelectionState:
    omega: np.ndarray
    iteration: int
    converged: bool


@dataclass
class ClassProbabilities:
    psi: np.ndarray


def _open_unit(values):
    """Clip into the open interval (0, 1); expit(700.0) rounds to 1.0 in doubles."""
    return np.clip(values, _OPEN_LO, _OPEN_HI)


def update_omega(log_bf, hyper: Hyperparameters, tol: float = 1e-6,
                 max_iter: int = 1000, omega0=None) -> SelectionState:
    """Sweep the penalised-evidence update to convergence.

    Each sweep is the paper's coordinate ascent, in variable order: omega_j
    becomes expit(log BF_j + log(1 + S_-j) - log(p**u + p - 1 - S_-j)),
    where S_-j is the sum of the other omegas (current values), with the
    exponent clamped to +-ETA_CLAMP and the result clipped into (0, 1).
    The loop is plain Python over floats, with `expit` and the clamps
    written inline; `tests/oracles.py` keeps the sweep that calls them and
    the two agree bit for bit.  Stops when the squared Euclidean distance
    between consecutive sweeps is at most `tol`; the converged flag records
    whether that happened within `max_iter` sweeps.
    """
    log_bf = np.asarray(log_bf, dtype=float)
    p = log_bf.size
    if p < 1:
        raise InputError("update_omega requires at least one variable")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    if omega0 is None:
        omega = np.full(p, 0.5)
    else:
        omega = np.asarray(omega0, dtype=float).copy()
        if omega.shape != (p,) or np.any(omega < 0.0) or np.any(omega > 1.0):
            raise InputError("omega0 must be a length-p vector in [0, 1]")
    base = float(p) ** hyper.u + p - 1.0
    bf = log_bf.tolist()
    om = omega.tolist()
    s = sum(om)
    log, log1p, exp = math.log, math.log1p, math.exp
    clamp, lo, hi = ETA_CLAMP, _OPEN_LO, _OPEN_HI
    for sweep in range(1, max_iter + 1):
        delta = 0.0
        for j in range(p):
            old = om[j]
            s_minus = s - old
            denom = base - s_minus
            if denom <= 0.0:
                raise ContractViolation("penalty denominator is non-positive")
            eta = bf[j] + log1p(s_minus) - log(denom)
            if not eta < clamp:  # NaN too, as min(clamp, eta) gives
                eta = clamp
            elif eta < -clamp:
                eta = -clamp
            if eta >= 0.0:
                w = 1.0 / (1.0 + exp(-eta))
            else:
                w = exp(eta)
                w = w / (1.0 + w)
            if w < lo:
                w = lo
            elif w > hi:
                w = hi
            d = w - old
            delta += d * d
            s += d
            om[j] = w
        if delta <= tol:
            return SelectionState(np.array(om), sweep, True)
    return SelectionState(np.array(om), max_iter, False)


def leaf_log_path_tables(forest: TreeForest, c) -> tuple[np.ndarray, np.ndarray]:
    """(p, 2**depth) log path probability of every deepest-layer cell, per group.

    One top-down walk over the heap: each layer adds log(alpha + child
    count) - log(2 alpha + parent count) to its parent's sum, the parent
    terms broadcast over the two children by reshape.  `c` is a scalar or
    one value per variable.
    """
    c = np.broadcast_to(np.asarray(c, dtype=float), (forest.p,))
    p = forest.p
    tables = []
    for counts in (forest.count1, forest.count0):
        lp = np.zeros((p, 1))
        for level in range(1, forest.depth + 1):
            a = alpha_for_layer(level, c)[:, None]
            lo = 1 << level
            step = np.log(a + counts[:, lo:2 * lo]).reshape(p, lo // 2, 2)
            step -= np.log(2.0 * a + counts[:, lo // 2:lo])[:, :, None]
            step += lp[:, :, None]  # lp + (child - parent), each parent's sum on both children
            lp = step.reshape(p, lo)
        tables.append(lp)
    return tables[0], tables[1]


def log_path_probability_matrix(forest: TreeForest, c, points) -> tuple[np.ndarray, np.ndarray]:
    """(m, p) log path probabilities of each point, per group: its leaves
    gathered from `leaf_log_path_tables`."""
    flat = forest.flat_leaves(points)
    lp1, lp0 = leaf_log_path_tables(forest, c)
    return np.take(lp1, flat), np.take(lp0, flat)


def prior_log_odds(hyper: Hyperparameters, forest: TreeForest) -> float:
    """Posterior-mean group-1 log-odds before any variable is seen."""
    return math.log(hyper.a_y + forest.n1) - math.log(hyper.b_y + forest.n0)


def _smoothing_vector(c, p: int) -> np.ndarray:
    """Per-variable smoothing parameters, each in (0, 100]."""
    c = np.broadcast_to(np.asarray(c, dtype=float), (p,))
    if not np.all((c > 0.0) & (c <= 100.0)):
        raise DomainError("smoothing parameters must lie in (0, 100]")
    return c


def _leaf_counts(rows, total: int, group: int) -> np.ndarray:
    """Validated (p, 2**depth) leaf counts of one group from a model file."""
    width = len(rows[0]) if isinstance(rows[0], list) else -1
    if any(not isinstance(r, list) or len(r) != width for r in rows):
        raise InputError(f"group-{group} leaf counts must be lists of one length")
    counts = np.array(rows)
    if counts.dtype.kind != "i":
        raise InputError(f"group-{group} leaf counts must be integers")
    if np.any(counts < 0):
        raise InputError(f"group-{group} leaf counts must be non-negative")
    if np.any(counts.sum(axis=1) != total):
        raise InputError(f"group-{group} leaf counts of a variable do not sum to n{group}={total}")
    return counts


def _reals(records, key: str) -> np.ndarray:
    """One number per variable record from a model file; strings, nulls and
    booleans are refused.  The range is the caller's check: `TreeForest.from_leaves`
    refuses a NaN or infinite centring and an sd <= 0."""
    values = [r[key] for r in records]
    # exact types, per value: bool subclasses int, and numpy casts a boolean
    # mixed with floats to 1.0 or 0.0
    if not all(type(v) in (int, float) for v in values):
        raise InputError(f"every variable's {key!r} must be a number")
    return np.array(values, dtype=float)


@dataclass
class FittedModel:
    """Selection state plus everything prediction needs.

    `forest` holds every variable's tree as dense heap-layout counts and
    `c` the per-variable smoothing parameters.  The model lives in the
    units of the matrix it was fitted on: the forest's `means` and `sds`
    arrays are the variables' sample means and sds, the centring Gaussians,
    so new points are passed in those same raw units.
    """

    hyper: Hyperparameters
    selection: SelectionState
    forest: TreeForest
    c: np.ndarray
    names: list

    @property
    def omega(self) -> np.ndarray:
        return self.selection.omega

    @property
    def p(self) -> int:
        return self.forest.p

    @property
    def depth(self) -> int:
        return self.forest.depth

    @property
    def n1(self) -> int:
        return self.forest.n1

    @property
    def n0(self) -> int:
        return self.forest.n0

    @cached_property
    def leaf_log_odds(self) -> np.ndarray:
        """(p, 2**depth) group-1 minus group-0 log path probability of every leaf;
        built on first use and kept, so a model must not change once it has scored."""
        lp1, lp0 = leaf_log_path_tables(self.forest, self.c)
        return lp1 - lp0

    def class_log_odds(self, flat: np.ndarray) -> np.ndarray:
        """Clamped group-1 log-odds of points at (m, p) flat leaf indices
        (`TreeForest.flat_leaves`): the prior odds plus the omega-weighted
        sum of each variable's leaf log-odds."""
        prior = prior_log_odds(self.hyper, self.forest)
        eta = prior + np.take(self.leaf_log_odds, flat) @ self.selection.omega
        return np.clip(eta, -ETA_CLAMP, ETA_CLAMP)

    def to_json_dict(self) -> dict:
        width = 1 << self.depth
        leaf1 = self.forest.count1[:, width:].tolist()
        leaf0 = self.forest.count0[:, width:].tolist()
        means, sds = self.forest.means.tolist(), self.forest.sds.tolist()
        variables = []
        for j, name in enumerate(self.names):
            variables.append({
                "name": name,
                "mean": means[j],
                "sd": sds[j],
                "c": float(self.c[j]),
                "omega": float(self.selection.omega[j]),
                "leaf1": leaf1[j],
                "leaf0": leaf0[j],
            })
        return {
            "format": MODEL_FORMAT,
            "hyperparameters": {"a_y": self.hyper.a_y, "b_y": self.hyper.b_y, "u": self.hyper.u},
            "n1": self.n1,
            "n0": self.n0,
            "iteration": self.selection.iteration,
            "converged": self.selection.converged,
            "variables": variables,
        }

    def save(self, path):
        """Write the model as JSON, format 2.

        Top level: "format" (2), "hyperparameters", the group sizes "n1"
        and "n0", the selection sweep count "iteration" and its
        "converged" flag.  Each entry of "variables" carries the name, the
        raw-unit centring "mean" and "sd", "c", "omega", and the
        deepest-layer cell counts "leaf1" and "leaf0" (2**depth integers
        each, so the depth is their length's log2).  Loading checks the
        counts against n1 and n0 and sums them back up into the internal
        nodes; format-1 files (path-code count maps) are refused.
        """
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FittedModel":
        """Model from a format-2 document; anything malformed raises InputError,
        including an omega that is not a number in [0, 1], names that are
        not distinct strings, an 'iteration' that is not a non-negative
        integer and a 'converged' that is not a boolean."""
        found = doc.get("format") if isinstance(doc, dict) else None
        if found != MODEL_FORMAT:
            raise InputError(f"unsupported model format {found!r}; refit to write format {MODEL_FORMAT}")
        try:
            records = doc["variables"]
            if not isinstance(records, list) or not records:
                raise InputError("the model has no variables")
            forest = TreeForest.from_leaves(
                _reals(records, "mean"), _reals(records, "sd"),
                _leaf_counts([r["leaf1"] for r in records], doc["n1"], 1),
                _leaf_counts([r["leaf0"] for r in records], doc["n0"], 0))
            omega = _reals(records, "omega")
            if not np.all((omega >= 0.0) & (omega <= 1.0)):  # NaN fails both
                raise InputError("every variable's 'omega' must lie in [0, 1]")
            names = [r["name"] for r in records]
            if not (all(isinstance(v, str) for v in names) and len(set(names)) == len(names)):
                raise InputError("the variables' names must be distinct strings")
            iteration, converged = doc["iteration"], doc["converged"]
            if isinstance(iteration, bool) or not isinstance(iteration, int) or iteration < 0:
                raise InputError("'iteration' must be a non-negative integer")
            if not isinstance(converged, bool):
                raise InputError("'converged' must be true or false")
            selection = SelectionState(omega, iteration, converged)
            c = _smoothing_vector(_reals(records, "c"), len(records))
            return cls(Hyperparameters(**doc["hyperparameters"]), selection, forest, c, names)
        except InputError:
            raise
        except (KeyError, TypeError, ValueError) as exc:  # DomainError is a ValueError
            raise InputError(f"malformed model file: {exc!r}") from exc

    @classmethod
    def load(cls, path) -> "FittedModel":
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InputError(f"cannot parse model file {path}: {exc}") from exc
        return cls.from_json_dict(doc)


def update_psi(model: FittedModel, newpoints) -> ClassProbabilities:
    """Class probabilities for new points, in the units the model was fitted in.

    Locates each point's deepest-layer cell in every variable's tree and
    gathers the model's per-leaf log-odds table there; `class_log_odds`
    weights them by omega on top of the prior odds.  A NaN or infinite
    coordinate raises InputError.
    """
    if not model.selection.converged:
        raise ContractViolation("update_psi requires a converged selection state")
    x = np.asarray(newpoints, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.p:
        raise InputError(f"expected an (m, {model.p}) matrix, got shape {x.shape}")
    eta = model.class_log_odds(model.forest.flat_leaves(x))
    return ClassProbabilities(_open_unit(expit(eta)))


def classify(psi: ClassProbabilities, threshold: float = 0.5) -> np.ndarray:
    """Hard labels from class probabilities; a tie at the threshold goes to group 1."""
    if not 0.0 < threshold < 1.0:
        raise InputError(f"threshold must lie in (0, 1), got {threshold!r}")
    values = psi.psi if isinstance(psi, ClassProbabilities) else np.asarray(psi, dtype=float)
    return (values >= threshold).astype(np.int8)


def fit_model(matrix, labels, c, hyper: Hyperparameters | None = None,
              depth: int | None = None, tol: float = 1e-6, max_iter: int = 1000,
              names=None) -> FittedModel:
    """Fit the full model: trees, evidence, and selection state.

    The matrix is taken in raw units; each variable's centring Gaussian
    is fitted from its own column, so no rescaling is needed.  `c` is a
    scalar or per-variable vector of smoothing parameters in (0, 100];
    `depth` None means floor(log2 n).  The returned selection state
    records whether the sweeps converged within `max_iter`; when they did
    not, a warning goes to the `ptda.cvb` logger.
    """
    from .bnp_test import log_bayes_factors

    hyper = hyper or Hyperparameters()
    x = np.asarray(matrix, dtype=float)
    if x.ndim != 2:
        raise InputError("matrix must be two-dimensional")
    c_vec = _smoothing_vector(c, x.shape[1])
    forest = TreeForest.from_matrix(x, labels, depth)
    selection = update_omega(log_bayes_factors(forest, c_vec), hyper, tol=tol, max_iter=max_iter)
    if not selection.converged:
        _log.warning("fit_model: the selection did not converge within max_iter=%d sweeps "
                     "(tol %g)", max_iter, tol)
    if names is None:
        names = [f"V{j + 1}" for j in range(forest.p)]
    return FittedModel(hyper, selection, forest, c_vec, list(names))
