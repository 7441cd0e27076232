"""Two-sample nonparametric log Bayes factor from tree cell counts.

Evidence that a variable's two group-conditional distributions differ:
a sum of log-beta contrasts over tree nodes, truncated at the layer above
the tree depth.  Each parent layer is a contiguous block of the dense
heap-layout forest, and its children are the even and odd nodes of the
next block, so a layer is scored with strided slices.  Only nodes that
both groups occupy are scored: a node with zero total count, or with
observations from a single group, contributes exactly zero, which is what
makes the truncated sum equal the infinite one.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .polya_tree import TreeForest, alpha_for_layer
from .stats import log_beta

__all__ = ["log_bayes_factor", "log_bayes_factors"]


def _node_terms(a, c1_left, c1_right, c0_left, c0_right):
    """Four-part contrast for parent nodes whose children carry the given counts."""
    n_left = c1_left + c0_left
    n_right = c1_right + c0_right
    return (
        log_beta(a + c1_left, a + c1_right)
        + log_beta(a + c0_left, a + c0_right)
        - log_beta(a + n_left, a + n_right)
        - log_beta(a, a)
    )


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
        a = alpha_for_layer(level + 1, c[var])
        left, right = slice(2 * lo, 4 * lo, 2), slice(2 * lo + 1, 4 * lo, 2)
        terms = _node_terms(a, k1[:, left][live], k1[:, right][live],
                            k0[:, left][live], k0[:, right][live])
        out += np.bincount(var, weights=terms, minlength=forest.p)
    return out
