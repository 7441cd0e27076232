"""Dyadic quantile-partition trees centred on Gaussians, stored as one dense forest.

One tree per variable: layer l splits the real line into 2**l half-open
cells (lower, upper] at the quantiles of the centring Gaussian, and a
point's path through the tree is the binary expansion of its centring CDF
value.  A value on a dyadic boundary belongs to the left cell, matching
the (lower, upper] convention.

The p trees of a dataset share one heap layout: each group holds a
(p, 2**(depth+1)) int64 count array in which node 2**l + k is cell k of
layer l, the children of node i are 2i and 2i+1, node 1 is the root and
node 0 is unused.  Every cell is stored, occupied or not, so a point's
layer-l node is (1 << l) + (leaf >> (depth - l)) for its deepest-layer
cell `leaf`, and count lookups are plain indexing.

Path codes are strings of '0'/'1' digits; '0' means branching left.  The
empty string is the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .stats import normal_cdf, normal_pdf, normal_quantile

__all__ = [
    "SD_FLOOR",
    "MAX_FOREST_CELLS",
    "CentringGaussian",
    "TreeForest",
    "default_depth",
    "check_depth",
    "alpha",
    "alpha_for_layer",
    "cell_boundaries",
    "leaf_indices",
    "path_of",
    "predictive_density",
]

# replaces a zero sample standard deviation; keeps a constant column inert
# (every point takes the same path) instead of dividing by zero
SD_FLOOR = 1e-8

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


@dataclass(frozen=True)
class CentringGaussian:
    """Gaussian whose quantiles define the partition; fitted from sample moments."""

    mean: float
    sd: float
    degenerate: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.sd) and self.sd > 0.0):
            raise DomainError(f"centring requires finite mean and sd > 0, got {self.mean!r}, {self.sd!r}")

    @classmethod
    def from_sample(cls, column) -> "CentringGaussian":
        x = np.asarray(column, dtype=float)
        if x.size < 1 or not np.all(np.isfinite(x)):
            raise InputError("centring sample must be non-empty and finite")
        m = float(x.mean())
        s = float(x.std(ddof=1)) if x.size > 1 else 0.0
        if s > 0.0 and math.isfinite(s):
            return cls(m, s)
        return cls(m, SD_FLOOR, degenerate=True)

    def cdf(self, x):
        return normal_cdf((x - self.mean) / self.sd)

    def quantile(self, q: float) -> float:
        return self.mean + self.sd * normal_quantile(q)

    def pdf(self, x):
        return normal_pdf((x - self.mean) / self.sd) / self.sd


def alpha(code: str, c: float) -> float:
    """Beta parameter attached to the cell at `code` (children share it).

    Equals 1 for the two children of the root and c * l**2 when the parent
    code has length l >= 1.
    """
    if len(code) == 0:
        raise DomainError("the root carries no alpha parameter")
    if c <= 0.0:
        raise DomainError("alpha requires c > 0")
    return alpha_for_layer(len(code), c)


def alpha_for_layer(layer: int, c: float) -> float:
    """Alpha shared by all cells at `layer` (parent length is layer - 1)."""
    parent_len = layer - 1
    return 1.0 if parent_len == 0 else c * parent_len * parent_len


def cell_boundaries(code: str, g: CentringGaussian) -> tuple[float, float]:
    """Half-open interval (lower, upper] of the cell at `code`; root covers R."""
    level = len(code)
    if level == 0:
        return (-math.inf, math.inf)
    if any(ch not in "01" for ch in code):
        raise InputError(f"path code must be binary digits, got {code!r}")
    k = int(code, 2)
    scale = 1 << level
    lower = -math.inf if k == 0 else g.quantile(k / scale)
    upper = math.inf if k + 1 == scale else g.quantile((k + 1) / scale)
    return (lower, upper)


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
    A single variable is a forest with p = 1.  `means` / `sds` hold the
    centrings' parameters as (p,) arrays for locating points.
    """

    def __init__(self, centrings, count1: np.ndarray, count0: np.ndarray):
        self.centrings = list(centrings)
        self.count1 = count1
        self.count0 = count0
        self.p = count1.shape[0]
        self.depth = count1.shape[1].bit_length() - 2
        self.n1 = int(count1[0, 1])
        self.n0 = int(count0[0, 1])
        self.means = np.array([g.mean for g in self.centrings])
        self.sds = np.array([g.sd for g in self.centrings])

    @classmethod
    def from_leaves(cls, centrings, leaf1, leaf0) -> "TreeForest":
        """Forest from per-variable (p, 2**depth) deepest-layer counts of each group."""
        leaf1 = np.asarray(leaf1, dtype=np.int64)
        leaf0 = np.asarray(leaf0, dtype=np.int64)
        p, width = leaf1.shape
        depth = width.bit_length() - 1
        if leaf0.shape != leaf1.shape or width < 1 or width != 1 << depth or len(centrings) != p:
            raise InputError("leaf counts must be (p, 2**depth) per group with one centring per variable")
        check_depth(depth, p)
        return cls(centrings, _sum_layers(leaf1), _sum_layers(leaf0))

    @classmethod
    def from_matrix(cls, matrix, labels, depth: int | None = None) -> "TreeForest":
        """Forest of an (n, p) matrix; depth None means default_depth(n)."""
        x = np.asarray(matrix, dtype=float)
        y = np.asarray(labels)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise InputError("matrix must be (n, p) with one label per row")
        n, p = x.shape
        if p < 1:
            raise InputError("the matrix has no variables")
        if not np.all((y == 0) | (y == 1)):
            raise InputError("labels must be 0 or 1")
        y = y.astype(bool)
        if n < 2 or not (y.any() and (~y).any()):
            raise InputError("fitting requires both groups non-empty")
        depth = check_depth(default_depth(n) if depth is None else depth, p)
        if not np.all(np.isfinite(x)):
            raise InputError("the matrix must be finite")
        means = x.mean(axis=0)
        sds = x.std(axis=0, ddof=1)
        degenerate = ~(np.isfinite(sds) & (sds > 0.0))
        sds = np.where(degenerate, SD_FLOOR, sds)
        centrings = [
            CentringGaussian(float(m), float(s), bool(dg))
            for m, s, dg in zip(means, sds, degenerate)
        ]
        width = 1 << depth
        flat = leaf_indices(normal_cdf((x - means) / sds), depth) + np.arange(p, dtype=np.int64) * width
        leaf1 = np.bincount(flat[y].ravel(), minlength=p * width).reshape(p, width)
        leaf0 = np.bincount(flat[~y].ravel(), minlength=p * width).reshape(p, width)
        return cls.from_leaves(centrings, leaf1, leaf0)

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
        return TreeForest(self.centrings[j:j + 1], self.count1[j:j + 1], self.count0[j:j + 1])


def path_of(x: float, tree: TreeForest) -> str:
    """Depth-D path code of a point in a one-variable forest."""
    if not math.isfinite(x):
        raise InputError(f"path_of requires a finite value, got {x!r}")
    return format(int(tree.leaves([[x]])[0, 0]), f"0{tree.depth}b")


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
    value = float(tree.centrings[0].pdf(x))
    parent = counts[1]
    for level in range(1, tree.depth + 1):
        child = counts[(1 << level) + (leaf >> (tree.depth - level))]
        a = alpha_for_layer(level, c)
        value *= 2.0 * (a + child) / (2.0 * a + parent)
        parent = child
    return float(value)
