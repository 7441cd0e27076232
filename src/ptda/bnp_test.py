"""Two-sample nonparametric log Bayes factor from tree cell counts.

Evidence that a variable's two group-conditional distributions differ:
a sum of log-beta contrasts over tree nodes, truncated at the layer above
the tree depth.  Each parent layer is a contiguous block of the dense
heap-layout forest, and its children are the even and odd nodes of the
next block, so a layer is scored with strided slices.  Only nodes that
both groups occupy are scored: a node with zero total count, or with
observations from a single group, contributes exactly zero, which is what
makes the truncated sum equal the infinite one.

Every count is an integer and every node of a layer shares one alpha per
smoothing value, so a layer's log-gamma values come from count-indexed
tables: for each distinct alpha a, lg(a + k) and lg(2a + k) for k up to
the largest parent count scored there.  A contrast's log-beta terms
gather from them in `stats.log_beta`'s order, lg x + lg y - lg(x + y),
and log B(a, a) is one constant per alpha.  For an alpha with an integer
value, 2a + (k1 + k2) is exactly (a + k1) + (a + k2), so the result is
bit-identical to evaluating `log_beta` per node; otherwise the two round
differently in the last bits.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .polya_tree import TreeForest, alpha_for_layer
from .stats import log_gamma

__all__ = ["log_bayes_factor", "log_bayes_factors"]


def _count_table(fn, shift: np.ndarray, width: int, lookups) -> np.ndarray:
    """Flat table holding fn(shift[r] + k) at index r * width + k, k < width.

    `lookups` are the index arrays that will be read; only the entries
    they read are evaluated and the rest stay unset, so rows for many
    distinct alphas cost no more than the nodes they serve.
    """
    need = np.zeros(shift.size * width, dtype=bool)
    for ix in lookups:
        need[ix] = True
    at = np.flatnonzero(need)
    r, k = np.divmod(at, width)
    table = np.empty(need.size)
    table[at] = fn(shift[r] + k)
    return table


def log_bayes_factor(tree: TreeForest, c: float) -> float:
    """ln BF of a one-variable forest; exactly zero when either group is empty."""
    if tree.p != 1:
        raise InputError(f"log_bayes_factor takes a one-variable forest, got p={tree.p}")
    return float(log_bayes_factors(tree, c)[0])


def log_bayes_factors(forest: TreeForest, c) -> np.ndarray:
    """Per-variable ln BF across a whole forest, vectorized.

    `c` is a scalar or a length-p vector of smoothing parameters.  Terms
    are summed per variable in (variable, cell) order.
    """
    c = np.broadcast_to(np.asarray(c, dtype=float), (forest.p,))
    if np.any(c <= 0.0):
        raise InputError("smoothing parameters must be positive")
    k1, k0 = forest.count1, forest.count0
    out = np.zeros(forest.p)
    for level in range(forest.depth):  # parent layers
        lo = 1 << level
        live = (k1[:, lo:2 * lo] > 0) & (k0[:, lo:2 * lo] > 0)
        var = np.nonzero(live)[0]
        if var.size == 0:
            continue
        left, right = slice(2 * lo, 4 * lo, 2), slice(2 * lo + 1, 4 * lo, 2)
        c1l, c1r = k1[:, left][live], k1[:, right][live]
        c0l, c0r = k0[:, left][live], k0[:, right][live]
        n_left, n_right = c1l + c0l, c1r + c0r
        # lg(a + k) and lg(2a + k) tables, one row per distinct alpha of the
        # layer and k up to the largest parent count scored; each contrast
        # reads lg(a + kx), lg(a + ky) and lg(2a + kx + ky), and log B(a, a)
        # is one constant per row, read at k = 0
        alphas, row = np.unique(alpha_for_layer(level + 1, c), return_inverse=True)
        width = int((n_left + n_right).max()) + 1
        base = row[var] * width
        pairs = ((c1l, c1r), (c0l, c0r), (n_left, n_right))
        single = [(base + kx, base + ky) for kx, ky in pairs]
        double = [base + (kx + ky) for kx, ky in pairs]
        rows = np.arange(alphas.size) * width
        lg_a = _count_table(log_gamma, alphas, width, [i for ij in single for i in ij] + [rows])
        lg_2a = _count_table(log_gamma, 2.0 * alphas, width, double + [rows])
        lb1, lb2, lb3 = (lg_a[i] + lg_a[j] - lg_2a[ij] for (i, j), ij in zip(single, double))
        beta_aa = lg_a[rows] + lg_a[rows] - lg_2a[rows]
        terms = lb1 + lb2 - lb3 - beta_aa[row[var]]
        out += np.bincount(var, weights=terms, minlength=forest.p)
    return out
