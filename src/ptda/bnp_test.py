"""Two-sample nonparametric log Bayes factor from tree cell counts.

Evidence that a variable's two group-conditional distributions differ:
a sum of log-beta contrasts over tree nodes, truncated at the layer above
the tree depth.  Each parent layer is a contiguous block of the dense
heap-layout forest, and its children are the even and odd nodes of the
next block.  Only nodes that both groups occupy are scored: a node with
zero total count, or with observations from a single group, contributes
exactly zero, which is what makes the truncated sum equal the infinite one.

The counts never depend on the smoothing parameters c; only each layer's
alpha does.  `log_bayes_factors` therefore plans each parent layer once,
a block of max(1, _BLOCK_VALUES >> level) variables at a time (about
_BLOCK_VALUES parent cells, the `polya_tree` block size), and scores every
row of a stack of c settings from a block's plan before it builds the
next.  A plan gathers the block's live nodes' variables and their four
child counts (c1l, c1r, c0l, c0r), deduplicated into count patterns.  A
pattern's key packs each group's (left, right) pair below (n_g + 1)**2
and the two pairs into one int64; when that product would overflow (n
above about 110,000), it packs the two pairs' ranks instead, below (live
nodes)**2 < 2**52, so any n is keyed exactly.  A row's block terms are
added into the block's variables with one `bincount` in (variable, cell)
order; each variable's live nodes keep their cell order and its layers
are added in layer order, so the sums do not depend on the block size.
With one alpha on the layer, as for a scalar c, there is one term per
pattern and one gather of the terms onto the nodes; with several, one
term per node.  The log-gamma values come from count-indexed tables,
evaluated once per distinct (alpha, count) that a block's terms read.

A contrast's log-beta terms keep one form, lg(a + x) + lg(a + y) -
lg(2a + (x + y)), and log B(a, a) is lg(a) + lg(a) - lg(2a).  For an
alpha with an integer value, 2a + (x + y) is exactly (a + x) + (a + y),
so the result is bit-identical to evaluating that log-beta per node with
`math.lgamma`, which `stats.log_gamma` maps over the tables; otherwise the
two round differently in the last bits.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .polya_tree import _BLOCK_VALUES, TreeForest, alpha_for_layer, check_smoothing
from .stats import log_gamma

__all__ = ["log_bayes_factors"]


class _Layer(NamedTuple):
    """The c-independent part of one parent layer's scoring on a block of variables."""

    level: int           # parent layer; its children carry alpha_for_layer(level + 1, c)
    cols: slice          # the block's variables
    var: np.ndarray      # (L,) block-local variable of each live node, in (variable, cell) order
    pattern: np.ndarray  # (L,) each live node's count pattern
    single: np.ndarray   # (6, P) c1l, c1r, c0l, c0r, n_left, n_right of each pattern
    double: np.ndarray   # (3, P) c1l + c1r, c0l + c0r, n_left + n_right of each pattern


def _ranks(key: np.ndarray) -> tuple[int, np.ndarray]:
    """(number of distinct values, each value's rank among them)."""
    values, rank = np.unique(key, return_inverse=True)
    return values.size, rank


def _plan_layers(forest: TreeForest):
    """The forest's scoring plans, one per (parent layer, block of variables),
    in layer order and, within a layer, in variable order."""
    k1, k0 = forest.count1, forest.count0
    for level in range(forest.depth):  # parent layers
        lo = 1 << level
        step = max(1, _BLOCK_VALUES >> level)  # about _BLOCK_VALUES parent cells a block
        for start in range(0, forest.p, step):
            cols = slice(start, min(start + step, forest.p))
            b1, b0 = k1[cols], k0[cols]
            live = (b1[:, lo:2 * lo] > 0) & (b0[:, lo:2 * lo] > 0)
            var = np.repeat(np.arange(b1.shape[0]), np.count_nonzero(live, axis=1))
            if var.size == 0:
                continue
            left, right = slice(2 * lo, 4 * lo, 2), slice(2 * lo + 1, 4 * lo, 2)
            # int64, so that the keys below cannot wrap
            c1l, c1r, c0l, c0r = (k[:, side][live].astype(np.int64)
                                  for k in (b1, b0) for side in (left, right))
            del live
            # each group's (left, right) pair packs below (n_g + 1)**2, and the
            # two pairs into one int64 while the product fits (n up to ~110,000);
            # past that, the two pair ranks do, below (live nodes)**2 < 2**52
            base1, base0 = forest.n1 + 1, forest.n0 + 1
            key1, key0, span = c1l * base1 + c1r, c0l * base0 + c0r, base0 * base0
            if base1 * base1 * span >= 1 << 63:
                (_, key1), (span, key0) = _ranks(key1), _ranks(key0)
            key1 *= span
            key1 += key0
            del key0
            patterns, pattern = _ranks(key1)
            del key1
            first = np.empty(patterns, dtype=np.int64)
            first[pattern] = np.arange(var.size)  # a node of each pattern
            c1l, c1r, c0l, c0r = c1l[first], c1r[first], c0l[first], c0r[first]
            n_left, n_right = c1l + c0l, c1r + c0r
            yield _Layer(level, cols, var, pattern,
                         np.stack((c1l, c1r, c0l, c0r, n_left, n_right)),
                         np.stack((c1l + c1r, c0l + c0r, n_left + n_right)))


def _log_gamma_table(shift: np.ndarray, row, k: np.ndarray) -> np.ndarray:
    """log_gamma(shift[row] + k) for integer counts k >= 0, evaluated once per
    distinct (row, k) of a count-indexed table; `row` broadcasts against k."""
    width = int(k.max()) + 1
    index = row * width + k
    need = np.zeros(shift.size * width, dtype=bool)
    need[index] = True
    at = np.flatnonzero(need)
    r, count = np.divmod(at, width)
    table = np.empty(need.size)
    table[at] = log_gamma(shift[r] + count)
    return np.take(table, index)


def log_bayes_factors(forest: TreeForest, c) -> np.ndarray:
    """Per-variable ln BF of a forest at one or several smoothing settings.

    `c` is a scalar or a length-p vector, giving a (p,) result, or a (k, 1)
    or (k, p) stack of k such settings, giving a (k, p) result whose row r
    is the ln BF at c[r]; each value lies in (0, C_MAX] (`check_smoothing`).
    Terms are summed per variable in (variable, cell) order.  The forest is
    planned one (parent layer, block of variables) at a time, and every row
    is scored from that block's plan, so only one block's plan is held and
    each row is the same bits as a call with that row alone.
    """
    c = np.asarray(c, dtype=float)
    p = forest.p
    settings = [check_smoothing(c_r, p) for c_r in (c if c.ndim == 2 else [c])]
    out = np.zeros((len(settings), p))
    level = None
    for layer in _plan_layers(forest):
        if layer.level != level:  # each setting's alphas on the layer, for all its blocks
            level = layer.level
            priors = []
            for c_r in settings:
                alphas, row = np.unique(alpha_for_layer(level + 1, c_r), return_inverse=True)
                beta_aa = log_gamma(alphas) + log_gamma(alphas) - log_gamma(2.0 * alphas)
                priors.append((alphas, row, beta_aa))
        block = out[:, layer.cols]
        for r, (alphas, row, beta_aa) in enumerate(priors):
            single, double = layer.single, layer.double
            if alphas.size == 1:  # one term per count pattern
                at, row = layer.pattern, 0
            else:  # one term per live node
                at, row = slice(None), row[layer.cols][layer.var]
                single, double = (np.take(k, layer.pattern, axis=1) for k in (single, double))
            lg_a = _log_gamma_table(alphas, row, single)
            lg_2a = _log_gamma_table(2.0 * alphas, row, double)
            lb1, lb2, lb3 = lg_a[0::2] + lg_a[1::2] - lg_2a
            terms = lb1 + lb2 - lb3 - beta_aa[row]
            block[r] += np.bincount(layer.var, weights=terms[at], minlength=block.shape[1])
    return out if c.ndim == 2 else out[0]
