"""Dyadic quantile-partition trees centred on Gaussians, stored as one dense forest.

One tree per variable: layer l splits the real line into 2**l half-open
cells (lower, upper] at the quantiles of the variable's centring Gaussian,
held as its mean and sd, and a point's path through the tree is the
binary expansion of its centring CDF value.  A value on a dyadic boundary
belongs to the left cell, matching the (lower, upper] convention.

The p trees of a dataset share one heap layout: each group holds a
(p, 2**(depth+1)) int64 count array in which node 2**l + k is cell k of
layer l, the children of node i are 2i and 2i+1, node 1 is the root and
node 0 is unused.  Every cell is stored, occupied or not, so a point's
layer-l node is (1 << l) + (leaf >> (depth - l)) for its deepest-layer
cell `leaf`, and count lookups are plain indexing.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import DomainError, InputError
from .stats import normal_cdf, normal_pdf, square_safe_shift

__all__ = [
    "SD_FLOOR",
    "MAX_FOREST_CELLS",
    "TreeForest",
    "training_data",
    "default_depth",
    "check_depth",
    "alpha_for_layer",
    "leaf_indices",
    "predictive_density",
]

# replaces a zero sample standard deviation; keeps a constant column inert
# (every point takes the same path) instead of dividing by zero
SD_FLOOR = 1e-8

_log = logging.getLogger(__name__)

MAX_FOREST_CELLS = 1 << 26
"""Upper bound on p * 2**(depth+1), the nodes of one group's count array.

Two int64 arrays of this many nodes take 1 GiB, the memory budget of a
forest; a depth beyond it raises DomainError before anything is allocated.
"""


def default_depth(n: int) -> int:
    """Default truncation layer, floor(log2 n), never below 1."""
    if n < 1:
        raise DomainError("depth is defined for n >= 1")
    return max(1, int(math.floor(math.log2(n)))) if n > 1 else 1


def check_depth(depth, p: int) -> int:
    """Return `depth` if it is an integer >= 1 whose forest fits MAX_FOREST_CELLS."""
    if isinstance(depth, bool) or not isinstance(depth, (int, np.integer)) or depth < 1:
        raise DomainError(f"depth must be an integer >= 1, got {depth!r}")
    # p * 2**(depth+1) <= MAX_FOREST_CELLS, without forming 2**depth
    if depth + 1 > (MAX_FOREST_CELLS // max(p, 1)).bit_length() - 1:
        raise DomainError(f"depth {depth} with {p} variables exceeds the forest budget of "
                          f"{MAX_FOREST_CELLS} cells per group")
    return int(depth)


def alpha_for_layer(layer: int, c) -> np.ndarray:
    """Beta parameter shared by every cell of `layer` >= 1, shaped like `c`.

    1 on layer 1 (the root's children) and c * (layer - 1)**2 below it;
    `c` is a scalar or an array of per-variable smoothing parameters.
    """
    if layer < 1:
        raise DomainError("the root carries no alpha parameter")
    c = np.asarray(c, dtype=float)
    parent_len = layer - 1
    return np.ones_like(c) if parent_len == 0 else c * (parent_len * parent_len)


def leaf_indices(u, depth: int) -> np.ndarray:
    """Deepest-layer cell index of each CDF value: its first `depth` binary digits.

    That is ceil(u * 2**depth) - 1, floored at 0, so a value on a dyadic
    boundary goes to the left cell.  Multiplying by a power of two only
    moves the exponent, so u * 2**depth is exact and the one step gives
    the digits that `depth` halvings of the interval would.  The layer-l
    cell is the index shifted right by depth - l.
    """
    k = np.array(u, dtype=float)
    k *= float(1 << depth)
    np.ceil(k, out=k)
    k -= 1.0
    np.maximum(k, 0.0, out=k)
    return k.astype(np.int64)


def training_data(matrix, labels) -> tuple[np.ndarray, np.ndarray]:
    """(x, y): the (n, p) float matrix and boolean labels of a training set.

    Raises InputError unless there is one label per row, every label is 0
    or 1, both groups are non-empty, there is at least one variable and
    every value is finite.
    """
    x = np.asarray(matrix, dtype=float)
    y = np.asarray(labels)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise InputError("matrix must be (n, p) with one label per row")
    if x.shape[1] < 1:
        raise InputError("the matrix has no variables")
    if not np.all((y == 0) | (y == 1)):
        raise InputError("labels must be 0 or 1")
    y = y.astype(bool)
    if not (y.any() and (~y).any()):
        raise InputError("fitting requires both groups non-empty")
    # min and max propagate NaN, and they need no n x p temporary
    if not (math.isfinite(x.min()) and math.isfinite(x.max())):
        raise InputError("the matrix must be finite")
    return x, y


def _sum_layers(leaf: np.ndarray) -> np.ndarray:
    """Heap-layout counts from (p, 2**depth) leaf counts; each parent is its children's sum."""
    p, width = leaf.shape
    heap = np.zeros((p, 2 * width), dtype=np.int64)
    heap[:, width:] = leaf
    lo = width // 2
    while lo >= 1:
        heap[:, lo:2 * lo] = heap[:, 2 * lo:4 * lo:2] + heap[:, 2 * lo + 1:4 * lo:2]
        lo //= 2
    return heap


class TreeForest:
    """All p trees of a dataset as two dense heap-layout count arrays.

    `count1` / `count0` are (p, 2**(depth+1)) int64 arrays, one per group,
    laid out as described in the module docstring.  Counts are independent
    of the smoothing parameters, so one forest serves every candidate c.
    A single variable is a forest with p = 1.  Each tree's centring
    Gaussian is its entry of the (p,) float arrays `means` and `sds`: they
    locate points, and a model file stores them.
    """

    def __init__(self, means: np.ndarray, sds: np.ndarray, count1: np.ndarray, count0: np.ndarray):
        self.means = means
        self.sds = sds
        self.count1 = count1
        self.count0 = count0
        self.p = count1.shape[0]
        self.depth = count1.shape[1].bit_length() - 2
        self.n1 = int(count1[0, 1])
        self.n0 = int(count0[0, 1])

    @classmethod
    def from_leaves(cls, means, sds, leaf1, leaf0) -> "TreeForest":
        """Forest from per-variable centring means and sds, each (p,), and the
        (p, 2**depth) deepest-layer counts of each group.

        A centring needs a finite mean and a finite sd > 0 (DomainError).
        """
        means = np.asarray(means, dtype=float)
        sds = np.asarray(sds, dtype=float)
        leaf1 = np.asarray(leaf1, dtype=np.int64)
        leaf0 = np.asarray(leaf0, dtype=np.int64)
        p, width = leaf1.shape
        depth = width.bit_length() - 1
        if (leaf0.shape != leaf1.shape or width < 1 or width != 1 << depth
                or means.shape != (p,) or sds.shape != (p,)):
            raise InputError("leaf counts must be (p, 2**depth) per group with one mean and sd "
                             "per variable")
        if not np.all(np.isfinite(means) & np.isfinite(sds) & (sds > 0.0)):
            raise DomainError("a centring requires a finite mean and a finite sd > 0")
        check_depth(depth, p)
        return cls(means, sds, _sum_layers(leaf1), _sum_layers(leaf0))

    @classmethod
    def from_matrix(cls, matrix, labels, depth: int | None = None) -> "TreeForest":
        """Forest of an (n, p) matrix; depth None means default_depth(n).

        Each variable is centred on its column's mean and ddof-1 sd, computed
        at any finite magnitude; a zero sd, or one beyond the float range,
        is replaced by SD_FLOOR, and the count of such columns is reported
        at DEBUG on the `ptda.polya_tree` logger.  The data must pass
        `training_data`.
        """
        x, y = training_data(matrix, labels)
        n, p = x.shape
        depth = check_depth(default_depth(n) if depth is None else depth, p)
        with np.errstate(over="ignore", invalid="ignore"):
            means = x.mean(axis=0)
            sds = x.std(axis=0, ddof=1)
        # a column whose squares leave the double range is redone at a
        # moderate magnitude, an exact power-of-two scaling
        shift = square_safe_shift(x, axis=0)
        big = np.flatnonzero(shift)
        if big.size:
            moderate = np.ldexp(x[:, big], -shift[big])
            means[big] = np.ldexp(moderate.mean(axis=0), shift[big])
            sds[big] = np.ldexp(moderate.std(axis=0, ddof=1), shift[big])
        floored = ~(np.isfinite(sds) & (sds > 0.0))
        if floored.any():
            _log.debug("TreeForest.from_matrix: %d of %d columns have a zero or non-finite sd "
                       "and are centred with SD_FLOOR = %g", np.count_nonzero(floored), p, SD_FLOOR)
            sds = np.where(floored, SD_FLOOR, sds)
        width = 1 << depth
        flat = leaf_indices(normal_cdf((x - means) / sds), depth) + np.arange(p, dtype=np.int64) * width
        leaf1 = np.bincount(flat[y].ravel(), minlength=p * width).reshape(p, width)
        leaf0 = np.bincount(flat[~y].ravel(), minlength=p * width).reshape(p, width)
        return cls.from_leaves(means, sds, leaf1, leaf0)

    def leaves(self, matrix) -> np.ndarray:
        """(m, p) deepest-layer cell index of each point in each variable's tree;
        the points must be finite."""
        x = np.asarray(matrix, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.p:
            raise InputError(f"expected points with {self.p} variables, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise InputError("points must be finite")
        return leaf_indices(normal_cdf((x - self.means) / self.sds), self.depth)

    def flat_leaves(self, matrix) -> np.ndarray:
        """(m, p) index leaf + j * 2**depth of each point's deepest-layer cell
        in a flattened (p, 2**depth) per-leaf table; `np.take` gathers with it."""
        return self.leaves(matrix) + np.arange(self.p, dtype=np.int64) * (1 << self.depth)

    def variable(self, j: int) -> "TreeForest":
        """One-variable forest (a view) of variable j."""
        sl = slice(j, j + 1)
        return TreeForest(self.means[sl], self.sds[sl], self.count1[sl], self.count0[sl])


def predictive_density(x: float, tree: TreeForest, c: float, group: int) -> float:
    """Posterior-mean density of one group's distribution at x, one-variable forest.

    The centring density times, for each layer, twice the posterior-mean
    branch probability along x's path.  With no observations this is the
    centring density exactly.
    """
    if group not in (0, 1):
        raise InputError("group must be 0 or 1")
    if not math.isfinite(x):
        raise InputError("predictive_density requires finite x")
    counts = (tree.count1 if group == 1 else tree.count0)[0]
    leaf = int(tree.leaves([[x]])[0, 0])
    mean, sd = float(tree.means[0]), float(tree.sds[0])
    value = normal_pdf((x - mean) / sd) / sd
    parent = counts[1]
    for level in range(1, tree.depth + 1):
        child = counts[(1 << level) + (leaf >> (tree.depth - level))]
        a = alpha_for_layer(level, c)
        value *= 2.0 * (a + child) / (2.0 * a + parent)
        parent = child
    return float(value)
