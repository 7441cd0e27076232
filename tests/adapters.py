"""Test-side adapters between the dense forest and the oracles' inputs.

The oracles take per-variable counts as a {path code: (n1, n0)} map, a
point's path as a code of '0'/'1' digits ('0' branches left, the empty
code is the root), and a tree spec with `.mean`, `.sd` and `.depth`; these
helpers build one-variable forests and read them back in those terms.  A
centring is a (mean, sd) pair.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from ptda.polya_tree import SD_FLOOR, TreeForest, leaf_indices
from ptda.simgen import SimulationSpec, generate
from ptda.stats import normal_cdf

STD = (0.0, 1.0)
LADDER = (1.0, 5.0, 10.0, 50.0, 100.0)


def simulated_forest(setting: int, n: int = 300, p: int = 40, seed: int = 5) -> TreeForest:
    """Forest of a benchmark-setting training set at its default depth."""
    train, _, _ = generate(SimulationSpec(setting, n, 10, p, 8, seed))
    return TreeForest.from_matrix(train.matrix, train.labels)


def sample_centring(column) -> tuple[float, float]:
    """(mean, ddof-1 sd) of a column, the sd floored as the forest floors it."""
    x = np.asarray(column, dtype=float)
    sd = float(x.std(ddof=1)) if x.size > 1 else 0.0
    return float(x.mean()), (sd if sd > 0.0 and math.isfinite(sd) else SD_FLOOR)


def tree_of(column, labels, depth: int, centring: tuple | None = None) -> TreeForest:
    """One-variable forest of a column, centred on `centring` or on the
    column's own mean and sd; unlike from_matrix, a group may be empty."""
    x = np.asarray(column, dtype=float)
    y = np.asarray(labels)
    mean, sd = centring or sample_centring(x)
    leaf = leaf_indices(normal_cdf((x - mean) / sd), depth)
    width = 1 << depth
    leaf1 = np.bincount(leaf[y == 1], minlength=width)
    leaf0 = np.bincount(leaf[y == 0], minlength=width)
    return TreeForest.from_leaves([mean], [sd], leaf1[None, :], leaf0[None, :])


def tree_from_leaves(leaf1, leaf0, centring: tuple = STD) -> TreeForest:
    """One-variable forest from its deepest-layer counts per group."""
    mean, sd = centring
    return TreeForest.from_leaves([mean], [sd], [leaf1], [leaf0])


def path_code(tree: TreeForest, x: float) -> str:
    """Depth-D path code of a point in a one-variable forest."""
    return format(int(tree.leaves([[x]])[0, 0]), f"0{tree.depth}b")


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
    """The (mean, sd, c, depth) view of a one-variable forest the oracles read."""
    return SimpleNamespace(mean=float(tree.means[0]), sd=float(tree.sds[0]), c=c, depth=tree.depth)
