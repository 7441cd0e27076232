"""Two-sample nonparametric log Bayes factor from tree cell counts.

Evidence that a variable's two group-conditional distributions differ:
a sum of log-beta contrasts over tree nodes, truncated at the layer above
the tree depth.  A parent layer and its child layer are summed from the
forest's leaf counts a block of variables at a time (`count_layers`), and
a parent cell's children are the even and odd cells of the child layer.
Only nodes that both groups occupy are scored: a node with
zero total count, or with observations from a single group, contributes
exactly zero, which is what makes the truncated sum equal the infinite one.

The counts never depend on the smoothing parameters c; only each layer's
alpha does.  A c setting is a set of value groups: a scalar, or each row
of a (k, 1) column of scalars, is one group; a length-p vector has one
per distinct value (at most four for the paper's per-bin c).
`log_bayes_factors` plans each parent layer once, a block of variables
at a time (`polya_tree.blocks` of 2**level parent cells a variable), and
scores every row of c from a block's plan: one term per (value group,
count pattern) of the block's live nodes.  One int64 key
packs a node's group and its four child counts (c1l, c1r, c0l, c0r), each
group's (left, right) pair below (n_g + 1)**2; where that would overflow
(n above about 110,000 for one group), it packs the group and the two
pairs' ranks, so any n is keyed exactly.  A row's terms are added into
the block's variables with one `bincount` in (variable, cell) order, layer
after layer, so the sums depend neither on the block size nor on other
variables' values.  The log-gamma values come from count-indexed tables,
evaluated once per distinct (alpha, count) that a block's terms read.

A contrast's log-beta terms keep one form, lg(a + x) + lg(a + y) -
lg(2a + (x + y)), and log B(a, a) is lg(a) + lg(a) - lg(2a).  For an
alpha with an integer value, 2a + (x + y) is exactly (a + x) + (a + y),
so the result is bit-identical to evaluating that log-beta per node with
`math.lgamma`, which `stats.log_gamma` maps over the tables; otherwise the
two round differently in the last bits.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .polya_tree import TreeForest, alpha_for_layer, blocks, check_smoothing, count_layers
from .stats import log_gamma

__all__ = ["log_bayes_factors"]


class _Layer(NamedTuple):
    """The c-independent part of one parent layer's scoring on a block of variables."""

    level: int           # parent layer; its children carry alpha_for_layer(level + 1, c)
    cols: slice          # the block's variables
    var: np.ndarray      # (L,) block-local variable of each live node, in (variable, cell) order
    pattern: np.ndarray  # (L,) each live node's (value group, count) pattern
    group: np.ndarray    # (P,) value group of each pattern, (1,) if there is one
    single: np.ndarray   # (6, P) c1l, c1r, c0l, c0r, n_left, n_right of each pattern
    double: np.ndarray   # (3, P) c1l + c1r, c0l + c0r, n_left + n_right of each pattern


def _ranks(key: np.ndarray) -> tuple[int, np.ndarray]:
    """(number of distinct values, each value's rank among them)."""
    values, rank = np.unique(key, return_inverse=True)
    return values.size, rank


def _plan_layers(forest: TreeForest, group: np.ndarray, groups: int):
    """The forest's scoring plans, one per (parent layer, block of variables),
    in layer order and, within a layer, in variable order; `group` holds each
    variable's value group, one of `groups`.  A block's plan is made from its
    child and parent layers of each group's counts, and no other layer."""
    for level in range(forest.depth):  # parent layers
        skip = forest.depth - level - 1  # the layers below the child layer
        for cols in blocks(forest.p, 1 << level):  # a block's parent cells
            (child1, parent1), (child0, parent0) = (
                islice(count_layers(leaves[cols]), skip, skip + 2)
                for leaves in (forest.leaf1, forest.leaf0))
            live = (parent1 > 0) & (parent0 > 0)
            var = np.repeat(np.arange(live.shape[0]), np.count_nonzero(live, axis=1))
            if var.size == 0:
                continue
            # int64, so that the keys below cannot wrap: the leaves' own type
            # holds only sums up to n1 + n0
            c1l, c1r, c0l, c0r = (child[:, side::2][live].astype(np.int64)
                                  for child in (child1, child0) for side in (0, 1))
            del live, child1, child0
            # pair ranks are below (live nodes), so the fallback key is below
            # groups * (live nodes)**2 <= p * 2**depth * (live nodes) < 2**52
            base1, base0 = forest.n1 + 1, forest.n0 + 1
            key1, key0 = c1l * base1 + c1r, c0l * base0 + c0r
            span1, span0 = base1 * base1, base0 * base0
            if groups * span1 * span0 >= 1 << 63:
                (span1, key1), (span0, key0) = _ranks(key1), _ranks(key0)
            if groups > 1:  # one value group leaves the key as it is
                key1 += group[cols][var] * span1
            key1 *= span0
            key1 += key0
            del key0
            patterns, pattern = _ranks(key1)
            del key1
            first = np.empty(patterns, dtype=np.int64)
            first[pattern] = np.arange(var.size)  # a node of each pattern
            c1l, c1r, c0l, c0r = c1l[first], c1r[first], c0l[first], c0r[first]
            n_left, n_right = c1l + c0l, c1r + c0r
            # each pattern's value group; one group is broadcast from (1,)
            yield _Layer(level, cols, var, pattern,
                         group[cols][var[first]] if groups > 1 else group[:1],
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
    column of k scalars, giving a (k, p) result whose row r is the ln BF at
    c[r] (another 2-D `c` raises InputError); each value lies in (0, C_MAX]
    (`check_smoothing`).  Only one block's plan is held, and each row, and
    each variable of a vector, is the same bits as a call at its value alone.
    """
    p = forest.p
    stacked = np.ndim(c) == 2
    if stacked:  # one value group per row
        if np.shape(c)[1] != 1:
            raise InputError(f"stacked smoothing settings must be a (k, 1) column, "
                             f"got {np.shape(c)}")
        values, group = check_smoothing(np.ravel(c), len(c))[:, None], np.zeros(p, dtype=np.int64)
    else:  # one value group per distinct value
        values, group = np.unique(check_smoothing(c, p), return_inverse=True)
        values = values[None]
    out = np.zeros((len(values), p))
    level = None
    for layer in _plan_layers(forest, group, values.shape[1]):
        if layer.level != level:  # every row's alphas on the layer, for all its blocks
            level = layer.level
            alphas = alpha_for_layer(level + 1, values)
            beta_aa = log_gamma(alphas) + log_gamma(alphas) - log_gamma(2.0 * alphas)
        block = out[:, layer.cols]
        for r in range(len(values)):  # one term per (value group, count pattern)
            lg_a = _log_gamma_table(alphas[r], layer.group, layer.single)
            lg_2a = _log_gamma_table(2.0 * alphas[r], layer.group, layer.double)
            lb1, lb2, lb3 = lg_a[0::2] + lg_a[1::2] - lg_2a
            terms = lb1 + lb2 - lb3 - np.take(beta_aa[r], layer.group)
            block[r] += np.bincount(layer.var, weights=terms[layer.pattern],
                                    minlength=block.shape[1])
    return out if stacked else out[0]
