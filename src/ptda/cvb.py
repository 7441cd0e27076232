"""Collapsed variational coordinate ascent for selection and classification.

The selection probabilities omega are updated one coordinate at a time
within a sweep (each update sees the current sweep's earlier coordinates
and the previous sweep's later ones); once omega has converged, each new
point's class probability psi is computed independently from the prior
odds plus an omega-weighted sum of log path-probability ratios.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DomainError, InputError, PtdaError
from .polya_tree import CentringGaussian, TreeForest
from .stats import expit

__all__ = [
    "Hyperparameters",
    "SelectionState",
    "ClassProbabilities",
    "FittedModel",
    "update_omega",
    "update_psi",
    "path_probability",
    "classify",
    "fit_model",
]

ETA_CLAMP = 700.0
MODEL_FORMAT = 2
_OPEN_LO = 1e-300
_OPEN_HI = float(np.nextafter(1.0, 0.0))


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

    Stops when the squared Euclidean distance between consecutive sweeps
    is at most `tol`; the converged flag records whether that happened
    within `max_iter` sweeps.
    """
    log_bf = np.asarray(log_bf, dtype=float)
    p = log_bf.size
    if p < 1:
        raise InputError("update_omega requires at least one variable")
    if tol <= 0.0:
        raise DomainError("tol must be positive")
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
    for sweep in range(1, max_iter + 1):
        delta = 0.0
        for j in range(p):
            s_minus = s - om[j]
            denom = base - s_minus
            if denom <= 0.0:
                raise ContractViolation("penalty denominator is non-positive")
            eta = bf[j] + math.log1p(s_minus) - math.log(denom)
            eta = max(-ETA_CLAMP, min(ETA_CLAMP, eta))
            w = expit(eta)
            w = min(max(w, _OPEN_LO), _OPEN_HI)
            d = w - om[j]
            delta += d * d
            s += d
            om[j] = w
        if delta <= tol:
            return SelectionState(np.array(om), sweep, True)
    return SelectionState(np.array(om), max_iter, False)


def path_probability(x: float, tree: TreeForest, group: int, c: float) -> float:
    """Probability that a point resembling x takes x's path in group `group`.

    One-variable forest.  Product over layers of (alpha + child count) /
    (2 alpha + parent count); equals 2**(-depth) when the tree holds no
    observations.
    """
    if group not in (0, 1):
        raise InputError("group must be 0 or 1")
    if not math.isfinite(x):
        raise InputError("path_probability requires finite x")
    lp1, lp0 = log_path_probability_matrix(tree, c, [[x]])
    return math.exp((lp1 if group == 1 else lp0)[0, 0])


def log_path_probability_matrix(forest: TreeForest, c, points) -> tuple[np.ndarray, np.ndarray]:
    """(m, p) log path probabilities for both groups, vectorized over a forest.

    Each point's layer-l node is read straight out of the dense count
    arrays at (1 << l) + (leaf >> (depth - l)).
    """
    c = np.broadcast_to(np.asarray(c, dtype=float), (forest.p,))
    leaf = forest.leaves(points)
    m = leaf.shape[0]
    offset = np.arange(forest.p, dtype=np.int64) * forest.count1.shape[1]  # row starts, flat
    lp1 = np.zeros((m, forest.p))
    lp0 = np.zeros((m, forest.p))
    parent1 = np.full((m, forest.p), float(forest.n1))
    parent0 = np.full((m, forest.p), float(forest.n0))
    for level in range(1, forest.depth + 1):
        a = np.ones(forest.p) if level == 1 else c * ((level - 1) ** 2)
        node = offset + (1 << level) + (leaf >> (forest.depth - level))
        c1 = np.take(forest.count1, node)
        c0 = np.take(forest.count0, node)
        lp1 += np.log(a + c1) - np.log(2.0 * a + parent1)
        lp0 += np.log(a + c0) - np.log(2.0 * a + parent0)
        parent1 = c1.astype(float)
        parent0 = c0.astype(float)
    return lp1, lp0


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


@dataclass
class FittedModel:
    """Selection state plus everything prediction needs.

    `forest` holds every variable's tree as dense heap-layout counts and
    `c` the per-variable smoothing parameters.  The model lives in the
    units of the matrix it was fitted on: each tree's centring Gaussian
    carries that variable's sample mean and sd, so new points are passed
    in those same raw units.
    """

    hyper: Hyperparameters
    selection: SelectionState
    forest: TreeForest
    c: np.ndarray
    names: list
    log_bf: np.ndarray | None = None

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

    def to_json_dict(self) -> dict:
        width = 1 << self.depth
        leaf1 = self.forest.count1[:, width:].tolist()
        leaf0 = self.forest.count0[:, width:].tolist()
        variables = []
        for j, (name, g) in enumerate(zip(self.names, self.forest.centrings)):
            variables.append({
                "name": name,
                "mean": g.mean,
                "sd": g.sd,
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
        """Model from a format-2 document; anything malformed raises InputError."""
        found = doc.get("format") if isinstance(doc, dict) else None
        if found != MODEL_FORMAT:
            raise InputError(f"unsupported model format {found!r}; refit to write format {MODEL_FORMAT}")
        try:
            records = doc["variables"]
            if not isinstance(records, list) or not records:
                raise InputError("the model has no variables")
            centrings = [CentringGaussian(r["mean"], r["sd"]) for r in records]
            forest = TreeForest.from_leaves(
                centrings,
                _leaf_counts([r["leaf1"] for r in records], doc["n1"], 1),
                _leaf_counts([r["leaf0"] for r in records], doc["n0"], 0))
            selection = SelectionState(np.array([r["omega"] for r in records], dtype=float),
                                       int(doc["iteration"]), doc["converged"] is True)
            c = _smoothing_vector([r["c"] for r in records], len(records))
            return cls(Hyperparameters(**doc["hyperparameters"]), selection, forest,
                       c, [r["name"] for r in records])
        except PtdaError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
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

    Each point's log path probabilities are gathered from the model's
    dense forest, one node per layer and variable, and their group-1
    minus group-0 ratios are weighted by omega on top of the prior odds.
    """
    if not model.selection.converged:
        raise ContractViolation("update_psi requires a converged selection state")
    x = np.asarray(newpoints, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.p:
        raise InputError(f"expected an (m, {model.p}) matrix, got shape {x.shape}")
    lp1, lp0 = log_path_probability_matrix(model.forest, model.c, x)
    prior = math.log(model.hyper.a_y + model.n1) - math.log(model.hyper.b_y + model.n0)
    eta = prior + (lp1 - lp0) @ model.selection.omega
    eta = np.clip(eta, -ETA_CLAMP, ETA_CLAMP)
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
    records whether the sweeps converged within `max_iter`.
    """
    from .bnp_test import log_bayes_factors

    hyper = hyper or Hyperparameters()
    x = np.asarray(matrix, dtype=float)
    if x.ndim != 2:
        raise InputError("matrix must be two-dimensional")
    c_vec = _smoothing_vector(c, x.shape[1])
    forest = TreeForest.from_matrix(x, labels, depth)
    log_bf = log_bayes_factors(forest, c_vec)
    selection = update_omega(log_bf, hyper, tol=tol, max_iter=max_iter)
    if names is None:
        names = [f"V{j + 1}" for j in range(forest.p)]
    return FittedModel(hyper, selection, forest, c_vec, list(names), log_bf)
