"""Test-side adapters between the dense forest and the oracles' inputs.

The oracles take per-variable counts as a {path code: (n1, n0)} map and a
tree spec with `.centring` and `.depth`; these helpers build one-variable
forests and read them back in those terms.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ptda.polya_tree import CentringGaussian, TreeForest, leaf_indices


def tree_of(column, labels, depth: int, centring: CentringGaussian | None = None) -> TreeForest:
    """One-variable forest of a column; unlike from_matrix, a group may be empty."""
    x = np.asarray(column, dtype=float)
    y = np.asarray(labels)
    g = centring or CentringGaussian.from_sample(x)
    leaf = leaf_indices(g.cdf(x), depth)
    width = 1 << depth
    leaf1 = np.bincount(leaf[y == 1], minlength=width)
    leaf0 = np.bincount(leaf[y == 0], minlength=width)
    return TreeForest.from_leaves([g], leaf1[None, :], leaf0[None, :])


def tree_from_leaves(leaf1, leaf0, centring: CentringGaussian) -> TreeForest:
    """One-variable forest from its deepest-layer counts per group."""
    return TreeForest.from_leaves([centring], [leaf1], [leaf0])


def path_map(forest: TreeForest, j: int = 0) -> dict:
    """Occupied nodes of variable j as {path code: (n1, n0)}, root included."""
    out = {}
    for level in range(forest.depth + 1):
        for k in range(1 << level):
            node = (1 << level) + k
            c1, c0 = int(forest.count1[j, node]), int(forest.count0[j, node])
            if level == 0 or c1 + c0 > 0:
                out[format(k, f"0{level}b") if level else ""] = (c1, c0)
    return out


def spec_of(tree: TreeForest, c: float) -> SimpleNamespace:
    """The (centring, c, depth) view of a one-variable forest the oracles read."""
    return SimpleNamespace(centring=tree.centrings[0], c=c, depth=tree.depth)
