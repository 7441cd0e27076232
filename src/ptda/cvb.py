"""Collapsed variational coordinate ascent for selection and classification.

The selection probabilities omega are updated one coordinate at a time
within a sweep (each update sees the current sweep's earlier coordinates
and the previous sweep's later ones); once omega has converged, each new
point's class probability psi is computed independently from the prior
odds plus an omega-weighted sum of log path-probability ratios, which
`polya_tree` tables, as it checks a model file's counts (`from_leaves`).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .bnp_test import log_bayes_factors
from .dataio import read_json, write_json
from .errors import ContractViolation, DomainError, InputError
from .polya_tree import (TreeForest, blocks, check_smoothing, float_array, integer,
                         leaf_log_odds_table, leaf_log_path_tables, number, training_data)
from .stats import expit

__all__ = [
    "Hyperparameters",
    "SelectionState",
    "ClassProbabilities",
    "FittedModel",
    "complexity_weight",
    "update_omega",
    "update_psi",
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
        for name in ("a_y", "b_y", "u"):
            number(getattr(self, name), name)
        if not (0.0 < self.a_y < math.inf and 0.0 < self.b_y < math.inf):  # NaN fails too
            raise DomainError("a_y and b_y must be positive and finite")
        if not 1.0 < self.u < math.inf:
            raise DomainError(f"the complexity exponent u must be finite and exceed 1, "
                              f"got {self.u!r}")


@dataclass
class SelectionState:
    omega: np.ndarray
    iteration: int
    converged: bool


@dataclass
class ClassProbabilities:
    psi: np.ndarray


def complexity_weight(p: int, u: float) -> float:
    """p**u, the complexity prior's weight, for p >= 1 variables and an
    exponent u > 1.  `expected_pvalue` and `update_omega` both take it from
    here; InputError unless p is an integer and u a number, DomainError when
    p or u is out of range or p**u is not a finite double (at p = 80, from
    u = 162 on)."""
    if integer(p, "p") < 1 or not number(u, "u") > 1.0:
        raise DomainError("requires p >= 1 and u > 1")
    try:
        weight = float(p) ** u
    except OverflowError:
        weight = math.inf
    if weight == math.inf:
        raise DomainError(f"the complexity weight p**u = {p}**{u!r} exceeds the double range")
    return weight


def update_omega(log_bf, hyper: Hyperparameters, tol: float = 1e-6,
                 max_iter: int = 1000) -> SelectionState:
    """Sweep the penalised-evidence update to convergence from omega = 0.5.

    Each sweep is the paper's coordinate ascent, in variable order: omega_j
    becomes expit(log BF_j + log(1 + S_-j) - log(p**u + p - 1 - S_-j)),
    where S_-j is the sum of the other omegas (current values), with the
    exponent clamped to +-ETA_CLAMP and the result clipped into (0, 1).
    The loop is plain Python over floats, with `expit` and the clamps
    written inline; `tests/oracles.py` keeps the sweep that calls them and
    the two agree bit for bit.  Stops when the squared Euclidean distance
    between consecutive sweeps is at most `tol`, finite and positive; the
    converged flag records whether that happened within `max_iter` >= 1
    sweeps.  `log_bf` must be a non-empty 1-D array of numbers with no NaN,
    `hyper` a Hyperparameters, `tol` a number and `max_iter` an integer
    (InputError): `log_bayes_factors` gives no NaN, and a NaN would select
    its variable.  A log BF of +inf or -inf is certain evidence: its exponent
    is clamped, so omega_j goes to the top or the bottom of (0, 1).
    """
    log_bf = float_array(log_bf, "log Bayes factors")
    p = log_bf.size
    if log_bf.ndim != 1 or p < 1:
        raise InputError(f"update_omega requires a non-empty 1-D array of log Bayes factors, "
                         f"got shape {log_bf.shape}")
    if np.isnan(log_bf).any():
        raise InputError("log Bayes factors must not be NaN")
    hyper = _checked_hyper(hyper)
    # NaN fails too; an infinite tol would end any sweep "converged"
    if not 0.0 < number(tol, "tol") < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    if integer(max_iter, "max_iter") < 1:  # no sweep could converge
        raise DomainError(f"max_iter must be at least 1, got {max_iter!r}")
    base = complexity_weight(p, hyper.u) + p - 1.0
    bf = log_bf.tolist()
    om = [0.5] * p
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
            if not eta < clamp:
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


def _checked_hyper(hyper) -> Hyperparameters:
    """`hyper` if it is a Hyperparameters, else InputError."""
    if not isinstance(hyper, Hyperparameters):
        raise InputError(f"hyper must be a Hyperparameters, got {hyper!r}")
    return hyper


def log_path_probability_matrix(forest: TreeForest, c, points) -> tuple[np.ndarray, np.ndarray]:
    """(m, p) log path probabilities of each point, per group: its leaves
    gathered from `leaf_log_path_tables`."""
    flat = forest.flat_leaves(points)
    lp1, lp0 = leaf_log_path_tables(forest, c)
    return np.take(lp1, flat), np.take(lp0, flat)


def prior_log_odds(hyper: Hyperparameters, forest: TreeForest) -> float:
    """Posterior-mean group-1 log-odds before any variable is seen."""
    return math.log(hyper.a_y + forest.n1) - math.log(hyper.b_y + forest.n0)


def _leaf_counts(rows, group: int) -> np.ndarray:
    """One group's (p, 2**depth) leaf counts from a model file's integers, as int64."""
    if not (all(isinstance(r, list) for r in rows)
            and set(map(type, chain.from_iterable(rows))) <= {int}):
        raise InputError(f"every group-{group} leaf count must be an integer")
    if len(set(map(len, rows))) != 1:
        raise InputError(f"group-{group} leaf counts must be lists of one length")
    return np.array(rows, dtype=np.int64)


def json_numbers(values, kind, what: str) -> list:
    """`values` if it is a JSON list of numbers of `kind` (int: integers;
    float: any number), else InputError naming `what`.  Exact types are
    checked in one pass over the distinct ones: a bool (an int subclass), a
    string or a null is refused, and so is a float where integers are asked
    for.  Nothing is converted: the range, and the OverflowError of a huge
    integer put in an array, are the caller's check."""
    types, noun = ({int}, "an integer") if kind is int else ({int, float}, "a number")
    if not (isinstance(values, list) and set(map(type, values)) <= types):
        raise InputError(f"{what} must be {noun}")
    return values


def _checked_names(names, p: int) -> list:
    """`names` as a new list if it is a list or tuple of p distinct strings,
    else InputError; the one rule for a fit's names and a model file's."""
    if not (isinstance(names, (list, tuple)) and len(names) == p
            and all(isinstance(v, str) for v in names) and len(set(names)) == p):
        raise InputError("the variables' names must be distinct strings")
    return list(names)


def _reals(records, key: str) -> np.ndarray:
    """One number per variable record from a model file.  The range is the
    caller's check: `TreeForest.from_leaves` refuses a NaN or infinite
    centring and an sd <= 0."""
    return np.array(json_numbers([r[key] for r in records], float, f"every variable's {key!r}"),
                    dtype=float)


@dataclass
class FittedModel:
    """Selection state plus everything prediction needs.

    `forest` holds every variable's tree as its leaf counts, in the
    narrowest integer type that holds n1 + n0 (uint8 up to 255 points), and
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

    @cached_property
    def leaf_log_odds(self) -> np.ndarray:
        """(p, 2**depth) group-1 minus group-0 log path probability of every leaf;
        built on first use and kept, so a model must not change once it has scored.
        This is the only place a model's table is built, whether the model
        came from `fit_model`, `select_c` or `load` (`leaf_log_odds_table`)."""
        return leaf_log_odds_table(self.forest, self.c)

    def class_log_odds(self, flat: np.ndarray) -> np.ndarray:
        """Clamped group-1 log-odds of points at (m, p) flat leaf indices
        (`TreeForest.flat_leaves`): the prior odds plus the omega-weighted
        sum of each variable's leaf log-odds, added in one fixed order (einsum,
        not BLAS), so each row's bits depend on that row alone."""
        prior = prior_log_odds(self.hyper, self.forest)
        eta = prior + np.einsum("ij,j->i", np.take(self.leaf_log_odds, flat), self.selection.omega)
        return np.clip(eta, -ETA_CLAMP, ETA_CLAMP)

    def to_json_dict(self) -> dict:
        forest = self.forest
        columns = (self.names, forest.means.tolist(), forest.sds.tolist(), self.c.tolist(),
                   self.selection.omega.tolist(), forest.leaf1.tolist(), forest.leaf0.tolist())
        keys = ("name", "mean", "sd", "c", "omega", "leaf1", "leaf0")
        variables = [dict(zip(keys, values)) for values in zip(*columns)]
        return {
            "format": MODEL_FORMAT,
            "hyperparameters": {"a_y": self.hyper.a_y, "b_y": self.hyper.b_y, "u": self.hyper.u},
            "n1": self.forest.n1,
            "n0": self.forest.n0,
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
        each, so the depth is their length's log2), written as plain JSON
        integers whatever type the forest holds them in.  Loading checks
        the counts against n1 and n0 as int64 and keeps them as the
        forest's leaves, in the count type of n1 + n0
        (`TreeForest.from_leaves`); format-1 files (path-code count maps)
        are refused.  The JSON is compact, on one line, and encoded in full
        before the file is opened (`dataio.write_json`); `python -m
        json.tool` pretty-prints it.
        """
        write_json(path, self.to_json_dict())

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FittedModel":
        """Model from a format-2 document; anything malformed raises InputError,
        including a number of the wrong JSON type (`json_numbers`), an omega
        outside [0, 1], names that are not distinct strings, a negative
        'iteration' and a 'converged' that is not a boolean."""
        found = doc.get("format") if isinstance(doc, dict) else None
        if found != MODEL_FORMAT:
            raise InputError(f"unsupported model format {found!r}; refit to write format {MODEL_FORMAT}")
        try:
            records = doc["variables"]
            if not isinstance(records, list) or not records:
                raise InputError("the model has no variables")
            forest = TreeForest.from_leaves(
                _reals(records, "mean"), _reals(records, "sd"),
                _leaf_counts([r["leaf1"] for r in records], 1),
                _leaf_counts([r["leaf0"] for r in records], 0))
            if [forest.n1, forest.n0] != json_numbers([doc["n1"], doc["n0"]], int, "'n1', 'n0'"):
                raise InputError("the leaf counts do not sum to the file's 'n1' and 'n0'")
            omega = _reals(records, "omega")
            if not np.all((omega >= 0.0) & (omega <= 1.0)):  # NaN fails both
                raise InputError("every variable's 'omega' must lie in [0, 1]")
            names = _checked_names([r["name"] for r in records], len(records))
            [iteration] = json_numbers([doc["iteration"]], int, "'iteration'")
            if iteration < 0:
                raise InputError("'iteration' must be a non-negative integer")
            if not isinstance(doc["converged"], bool):
                raise InputError("'converged' must be true or false")
            selection = SelectionState(omega, iteration, doc["converged"])
            c = check_smoothing(_reals(records, "c"), len(records))
            hyper = Hyperparameters(**doc["hyperparameters"])  # refuses non-numbers and bools
            return cls(hyper, selection, forest, c, names)
        except InputError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # DomainError is a ValueError
            raise InputError(f"malformed model file: {exc!r}") from exc

    @classmethod
    def load(cls, path) -> "FittedModel":
        return cls.from_json_dict(read_json(path, "model file"))


def update_psi(model: FittedModel, newpoints) -> ClassProbabilities:
    """Class probabilities for new points, in the units the model was fitted in.

    Locates each point's deepest-layer cell in every variable's tree and
    gathers the model's per-leaf log-odds table there; `class_log_odds`
    weights them by omega on top of the prior odds.  The points are scored
    in row `blocks`, so beyond the (m,) result and the model's leaf log-odds
    table the call holds one block's flat index and gathered log-odds (one
    block of values each, one row past p = 65,536) and one tile's locator
    temporaries (`TreeForest.flat_leaves`); each row's psi is the same bits
    whatever block it falls in.  A model whose selection did not converge,
    or a NaN or infinite coordinate, raises InputError.
    """
    if not model.selection.converged:
        raise InputError("the model's selection did not converge; refit it with a larger max_iter")
    x = float_array(newpoints, "points")
    if x.ndim != 2 or x.shape[1] != model.p:
        raise InputError(f"expected an (m, {model.p}) matrix, got shape {x.shape}")
    eta = np.empty(x.shape[0])
    for rows in blocks(*x.shape):
        eta[rows] = model.class_log_odds(model.forest.flat_leaves(x[rows]))
    # clipped into the open interval (0, 1): expit(700.0) rounds to 1.0 in doubles
    return ClassProbabilities(np.clip(expit(eta), _OPEN_LO, _OPEN_HI))


def classify(psi: ClassProbabilities, threshold: float = 0.5) -> np.ndarray:
    """Hard labels from the class probabilities of `update_psi`; a tie at the
    threshold goes to group 1.  Anything else than ClassProbabilities, or a
    threshold that is not a number, raises InputError."""
    if not isinstance(psi, ClassProbabilities):
        raise InputError(f"classify takes the ClassProbabilities of update_psi, got {psi!r}")
    if not 0.0 < number(threshold, "threshold") < 1.0:
        raise InputError(f"threshold must lie in (0, 1), got {threshold!r}")
    return (psi.psi >= threshold).astype(np.int8)


def fit_model(matrix, labels, c, hyper: Hyperparameters | None = None,
              depth: int | None = None, tol: float = 1e-6, max_iter: int = 1000,
              names=None) -> FittedModel:
    """Fit the full model: trees, evidence, and selection state.

    The matrix is taken in raw units; each variable's centring Gaussian
    is fitted from its own column, so no rescaling is needed.  `c` is a
    scalar or per-variable vector of smoothing parameters in (0, 100];
    `depth` None means floor(log2 n) and `names` None means V1..Vp; given
    names must be p distinct strings; data that fail `training_data`, and a
    `hyper` that is neither None nor a Hyperparameters, raise InputError.
    The returned selection state records whether the sweeps converged
    within `max_iter`; when they did not, a warning goes to the `ptda.cvb`
    logger.
    """
    hyper = _checked_hyper(Hyperparameters() if hyper is None else hyper)
    x, y = training_data(matrix, labels)
    c_vec = check_smoothing(c, x.shape[1])
    names = (_checked_names(names, x.shape[1]) if names is not None
             else [f"V{j + 1}" for j in range(x.shape[1])])
    forest = TreeForest.from_matrix(x, y, depth)
    selection = update_omega(log_bayes_factors(forest, c_vec), hyper, tol=tol, max_iter=max_iter)
    if not selection.converged:
        _log.warning("fit_model: the selection did not converge within max_iter=%d sweeps "
                     "(tol %g)", max_iter, tol)
    return FittedModel(hyper, selection, forest, c_vec, names)
