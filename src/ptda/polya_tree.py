"""Dyadic quantile-partition trees centred on Gaussians, stored as their leaf counts.

One tree per variable: layer l splits the real line into 2**l half-open
cells (lower, upper] at the quantiles of the variable's centring Gaussian,
held as its mean and sd.  A point is located on its standardized value z
= (x - mean) / sd: its deepest-layer cell is the number of standard
normal quantiles inv_cdf(k / 2**depth) strictly below z, so a value on a
boundary belongs to the left cell, and its layer-l cells are the leading
binary digits of that index.

The p trees of a dataset are stored as one forest: each group holds a
(p, 2**depth) array of deepest-layer (leaf) counts, every cell stored,
occupied or not, in the narrowest of uint8, uint16 and int32 that holds
n = n1 + n0 (`_count_dtype`).  Every other count is a sum of leaves: cell k of
layer l has children 2k and 2k + 1 in layer l + 1, and a point's layer-l
cell is leaf >> (depth - l).  Only `bnp_test` and `_log_paths`, the one
walk over branch probabilities (its leaf tables serve the classifier and
the predictive density alike), sum layers (`count_layers`).
`TreeForest.from_leaves` checks counts from outside: a group's sum to its
size in every variable.

One block size, `_BLOCK_VALUES` values, read only here, bounds every
working set: a loop over items of one width takes its slices from
`blocks(count, width)`, and an (m, p) matrix is read a tile at a time
(`_tiles`): `_locate` alone finds points' leaves and `column_sums` alone
sums columns (every column moment), with no (m, p) float temporary.
"""

from __future__ import annotations

import logging
import math
from functools import cache
from statistics import NormalDist

import numpy as np

from .errors import DomainError, InputError
from .stats import normal_pdf, square_safe_shift

__all__ = [
    "SD_FLOOR",
    "MAX_FOREST_CELLS",
    "FOREST_BYTES",
    "TreeForest",
    "training_data",
    "default_depth",
    "check_depth",
    "C_MAX",
    "float_array",
    "integer",
    "number",
    "check_smoothing",
    "alpha_for_layer",
    "leaf_indices",
    "count_layers",
    "blocks",
    "column_sums",
    "leaf_log_path_tables",
    "leaf_log_odds_table",
    "predictive_density",
]

# replaces a zero sample standard deviation; keeps a constant column inert
# (every point takes the same path) instead of dividing by zero
SD_FLOOR = 1e-8

_log = logging.getLogger(__name__)

MAX_FOREST_CELLS = 1 << 26
"""Upper bound on p * 2**(depth+1), the cells of every layer of one group's trees.

A forest keeps the leaves, half of these cells, and sums the layers above
a block of variables at a time (`count_layers`).  Two arrays of this many
cells take at most 512 MiB, at 4 bytes a count, the widest count type.
`check_depth` charges them at that width, and the point
locator's table of the depth (`_locator`, kept for the process: under 30
* 2**depth bytes, 27 * 2**depth at depth 20), to one budget of
FOREST_BYTES; a depth beyond either bound raises DomainError before
anything is allocated.
"""

FOREST_BYTES = 1 << 30
"""Memory budget of a forest: every layer of its two groups' counts at 4
bytes a count, of which it keeps the leaves, plus the locator table."""

# the largest count a forest holds, in its widest count type
_COUNT_MAX = int(np.iinfo(np.int32).max)


def _count_dtype(n: int) -> np.dtype:
    """The count type of a forest of n = n1 + n0 points: uint8 if n <= 255,
    uint16 if n <= 65,535, else int32.  Any sum of a forest's counts, even
    across the groups, is at most n, so it fits the type while n does (and
    int32 holds any one group's sums: `from_leaves`).  numpy array
    arithmetic wraps silently, so a value that can pass n, such as
    `bnp_test`'s pattern keys, is made after a cast to int64."""
    for dtype in (np.uint8, np.uint16):
        if n <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int32)


# the package's one block size, in values (a float64 block takes 0.5 MiB), read here
# only, by `blocks`: its loops are smoothing.column_pvalues, bnp_test's evidence plans,
# `leaf_log_odds_table`, `_locator`, the build's locate-and-count (`_count_leaves`), the
# tiles of `_locate` and `column_sums` (`_tiles`), and the row blocks that
# cvb.update_psi and the naive-Bayes foil score
_BLOCK_VALUES = 1 << 16


def blocks(count: int, width: int) -> list[slice]:
    """Slices over `count` items of `width` values (0 counts as 1), max(1,
    _BLOCK_VALUES // width) items each, the last clipped to `count`."""
    step = max(1, _BLOCK_VALUES // max(1, width))
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _tiles(m: int, p: int) -> list[tuple[slice, slice]]:
    """(rows, cols) slices tiling an (m, p) matrix in at most _BLOCK_VALUES
    values each: `blocks` of rows, each split into `blocks` of columns, which
    is one chunk up to p = _BLOCK_VALUES and one row a tile past it."""
    return [(rows, cols) for rows in blocks(m, p) for cols in blocks(p, 1)]


def column_sums(x: np.ndarray, rows=None, centre=None) -> np.ndarray:
    """(p,) column sums of an (m, p) matrix's rows in the boolean mask `rows`
    (None: all), or of their squared deviations from the (p,) `centre`.  Each
    tile (`_tiles`) is summed after its columns' running totals, row after row
    as numpy sums a C-ordered matrix's axis 0: the bits of one sum over all the
    rows, with no (m, p) temporary, except at p = 1 past one row block.  The
    package's matrices are C-ordered where they enter (`training_data`,
    `dataio.Dataset`); an F-ordered x in a direct call is summed as numpy
    sums its whole columns, pairwise, so its bits may differ."""
    sums, begun = np.zeros(x.shape[1]), np.zeros(x.shape[1], dtype=bool)
    for block, cols in _tiles(*x.shape):
        part = x[block, cols] if rows is None else x[block, cols][rows[block]]
        part = part if centre is None else (part - centre[cols]) ** 2
        if part.shape[0]:  # a column's first rows start its sum, later ones follow its total
            if begun[cols.start]:
                part = np.concatenate((sums[None, cols], part))
            sums[cols], begun[cols] = part.sum(axis=0), True
    return sums


def default_depth(n: int) -> int:
    """Default truncation layer, floor(log2 n), never below 1; n must be an
    integer (InputError) and at least 1 (DomainError)."""
    if integer(n, "n") < 1:
        raise DomainError("depth is defined for n >= 1")
    return max(1, int(n).bit_length() - 1)


def check_depth(depth, p: int) -> int:
    """Return `depth` if it is an integer >= 1 whose trees' cells, every layer
    counted, fit MAX_FOREST_CELLS and, with the locator table of the depth,
    FOREST_BYTES."""
    if isinstance(depth, bool) or not isinstance(depth, (int, np.integer)) or depth < 1:
        raise DomainError(f"depth must be an integer >= 1, got {depth!r}")
    # p * 2**(depth+1) <= MAX_FOREST_CELLS, without forming 2**depth
    if depth + 1 > (MAX_FOREST_CELLS // max(p, 1)).bit_length() - 1:
        raise DomainError(f"depth {depth} with {p} variables exceeds the forest budget of "
                          f"{MAX_FOREST_CELLS} cells per group")
    # depth <= 25 here: two arrays of p * 2**(depth+1) counts at 4 bytes, and the locator table
    needed = (2 * p * 2 * 4 + 30) << depth
    if needed > FOREST_BYTES:
        raise DomainError(f"depth {depth} with {p} variables needs up to {needed} bytes of counts "
                          f"and locator table, beyond the forest budget of {FOREST_BYTES} bytes")
    return int(depth)


C_MAX = 100.0
"""Largest smoothing parameter: every c lies in (0, C_MAX]."""


def float_array(values, what: str) -> np.ndarray:
    """`values` as a float array; InputError naming `what` when numpy cannot
    convert them (TypeError or ValueError: a string, a ragged list)."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{what} must be numbers") from None


def integer(value, what: str) -> int:
    """`value` as an int; InputError naming `what` unless it is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return int(value)


def number(value, what: str):
    """`value`, unchanged; InputError naming `what` unless it is a real number
    (a bool is not).  Its range is the caller's check."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InputError(f"{what} must be a number, got {value!r}")
    return value


def check_smoothing(c, p: int) -> np.ndarray:
    """`c`, a scalar or one value per variable, as a (p,) float array; each
    value must lie in (0, C_MAX] (DomainError, which a NaN fails too).  A
    `c` that is not numbers, or not one value or p of them, raises InputError."""
    c = float_array(c, "smoothing parameters")
    if c.ndim > 1 or c.size not in (1, p):
        raise InputError(f"expected one smoothing parameter or {p}, one per variable, "
                         f"got shape {c.shape}")
    c = np.broadcast_to(c, (p,))
    if not np.all((c > 0.0) & (c <= C_MAX)):
        raise DomainError(f"smoothing parameters must be finite and positive, in (0, {C_MAX:g}]")
    return c


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


@cache
def _locator(depth: int) -> tuple[float, float, np.ndarray, np.ndarray]:
    """(scale, half, cells, bounds) of `depth`, built once per process.

    `bounds` holds the cell boundaries inv_cdf(k / 2**depth), k = 1 ..
    2**depth - 1, then +inf.  Bucket i, 1 / scale = 2**(1 - depth) wide,
    starts at (i - half) / scale, and int32 `cells[i]` counts the boundaries
    strictly below that edge.  The closest boundaries, 0 and inv_cdf(1/2 +
    2**-depth), are over 1.25 buckets apart at every depth, so a bucket
    holds at most one boundary, bounds[cells[i]].
    """
    width = 1 << depth
    inv_cdf = NormalDist().inv_cdf
    lower = np.fromiter((inv_cdf(k / width) for k in range(1, width // 2)), float, width // 2 - 1)
    # 1 - k / 2**depth is exact, and inv_cdf is exactly odd about 1/2
    # there, so the upper boundaries mirror the lower ones
    bounds = np.concatenate((lower, [0.0], -lower[::-1], [math.inf]))
    scale = float(1 << (depth - 1))
    half = math.ceil(bounds[-2] * scale) + 2  # the outer buckets hold no boundary
    cells = np.empty(2 * half, dtype=np.int32)
    for block in blocks(cells.size, 1):
        cells[block] = np.searchsorted(bounds, (np.arange(block.start, block.stop) - half) / scale)
    return scale, float(half), cells, bounds


def leaf_indices(z, depth: int, out: np.ndarray | None = None) -> np.ndarray:
    """Deepest-layer cell index of each standardized value: intp values in
    the shape of `z`, which must hold no NaN, or written into the integer
    array `out` of that shape, which is returned.

    The index counts the cell boundaries inv_cdf(k / 2**depth) strictly
    below z, as np.searchsorted(boundaries, z, side="left") does, so a value
    on a boundary goes to the left cell.  z's bucket in the depth's cached
    grid (`_locator`) is floor(z * scale) + half, exactly, as z is clipped
    into the grid first and scale is a power of two; the bucket's `cells`
    entry misses at most the one boundary the bucket holds, which
    `k += z > bounds[k]` adds.  The layer-l cell is the index shifted right
    by depth - l.
    """
    scale, half, cells, bounds = _locator(depth)
    z = np.asarray(z, dtype=float)
    t = np.clip(z, -half / scale, (half - 1.0) / scale, out=np.empty(z.shape))
    t *= scale
    np.floor(t, out=t)
    k = np.add(t, half, out=np.empty(z.shape, np.intp) if out is None else out, casting="unsafe")
    k[...] = np.take(cells, k, mode="clip")  # in range: "clip" skips the checks of "raise"
    np.take(bounds, k, out=t, mode="clip")
    k += z > t
    return k


def training_data(matrix, labels) -> tuple[np.ndarray, np.ndarray]:
    """(x, y): the (n, p) C-ordered float matrix and boolean labels of a
    training set; C-ordered input is not copied.

    Raises InputError unless there is one label per row, every label is 0
    or 1, both groups are non-empty, there is at least one variable and
    every value is finite.
    """
    x = np.ascontiguousarray(float_array(matrix, "the matrix's values"))
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


def count_layers(leaves: np.ndarray):
    """Each layer of a block of trees, from the leaves up: yields the
    (b, 2**depth) array `leaves`, then each layer above it, (b, 2**l) for l
    = depth - 1 down to 0, each cell the sum of its two children in the
    layer before, in the type of `leaves`: a forest's count type holds
    every such sum (`_count_dtype`).  Only the layer last yielded is held
    here, so a reader that keeps one layer holds no other."""
    layer = leaves
    yield layer
    while layer.shape[1] > 1:
        layer = layer[:, 0::2] + layer[:, 1::2]
        yield layer


def _log_paths(leaves: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(b, 2**depth) log path probability of every leaf of b trees of one
    group, from their leaf counts and checked c.  The layers (`count_layers`)
    are walked top-down: each adds log(alpha + child count) - log(2 alpha +
    parent count) to its parent's sum, through its strided left and right
    halves.  A row's bits depend on its own counts and c alone."""
    layers = list(count_layers(leaves))[::-1]  # layers[l] is layer l
    lp = np.zeros((leaves.shape[0], 1))
    for level in range(1, len(layers)):
        a = alpha_for_layer(level, c)[:, None]
        step = np.add(a, layers[level])
        np.log(step, out=step)
        parent = np.add(2.0 * a, layers[level - 1])
        np.log(parent, out=parent)
        for children in (step[:, 0::2], step[:, 1::2]):
            children -= parent
            children += lp  # lp + (child - parent), each parent's sum on both children
        lp = step
    return lp


def leaf_log_path_tables(forest: TreeForest, c) -> tuple[np.ndarray, np.ndarray]:
    """(p, 2**depth) log path probability of every leaf, per group (`_log_paths`);
    `c` is a scalar or one value per variable (`check_smoothing`)."""
    c = check_smoothing(c, forest.p)
    return _log_paths(forest.leaf1, c), _log_paths(forest.leaf0, c)


def leaf_log_odds_table(forest: TreeForest, c) -> np.ndarray:
    """(p, 2**depth) group-1 minus group-0 log path probability of every leaf;
    `c` is a scalar or one value per variable (`check_smoothing`).  `blocks`
    of 2**depth leaves a variable are walked one at a time (`_log_paths`), so
    only one block's layers are held beside the table."""
    c = check_smoothing(c, forest.p)
    table = np.empty((forest.p, 1 << forest.depth))
    for var in blocks(forest.p, 1 << forest.depth):
        np.subtract(_log_paths(forest.leaf1[var], c[var]),
                    _log_paths(forest.leaf0[var], c[var]), out=table[var])
    return table


def _count_leaves(x, y, means, sds, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """(leaf1, leaf0): the (p, 2**depth) leaf counts of the rows of x in y and
    in ~y, of the count type of all n points (`_count_dtype`).  A block of
    variables at a time (`blocks` of max(n, 2**depth) values a variable), the
    block's points are located (`_locate`) into a block-sized int32 index and
    each group counted from it by one int64 `bincount`, so neither an (n, p)
    index nor a (p, 2**depth) int64 count array is held beside the result."""
    n, p = x.shape
    width = 1 << depth
    leaf1, leaf0 = (np.empty((p, width), dtype=_count_dtype(n)) for _ in range(2))
    for cols in blocks(p, max(n, width)):
        part = x[:, cols]
        flat = _locate(part, means[cols], sds[cols], depth, np.empty(part.shape, np.int32))
        for leaves, rows in ((leaf1, y), (leaf0, ~y)):
            leaves[cols] = np.bincount(flat[rows].ravel(),
                                       minlength=flat.shape[1] * width).reshape(-1, width)
    return leaf1, leaf0


def _locate(x: np.ndarray, means, sds, depth: int, out: np.ndarray) -> np.ndarray:
    """`out`, an (m, p) integer array, filled with the flat leaf index leaf + j * 2**depth of
    each point of x in variable j's tree, a tile (`_tiles`) at a time whatever m and p."""
    offsets = np.arange(0, x.shape[1] << depth, 1 << depth)
    for rows, cols in _tiles(*x.shape):
        tile = out[rows, cols]
        leaf_indices(_standardized(x[rows, cols], means[cols], sds[cols]), depth, tile)
        tile += offsets[cols]
    return out


def _moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x.mean(axis=0) and x.std(axis=0, ddof=1) of an (n, p) x, n >= 2, bit for bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        means = column_sums(x) / x.shape[0]
        return means, np.sqrt(column_sums(x, centre=means) / (x.shape[0] - 1))


def _standardized(x, means, sds) -> np.ndarray:
    """(x - means) / sds, in one buffer.  A value past the double range there
    is the infinity of its sign, which `leaf_indices` puts in the outer cell
    and the centring density maps to 0; that overflow is not warned about."""
    with np.errstate(over="ignore"):
        z = np.subtract(x, means)
        z /= sds
    return z


class TreeForest:
    """All p trees of a dataset as the leaf counts of each group.

    `leaf1` / `leaf0` are (p, 2**depth) arrays, one per group, of
    deepest-layer counts, both of the narrowest type that holds n1 + n0
    (`_count_dtype`: uint8 up to 255 points, a quarter of int32's bytes);
    the layers above are sums of them, derived where they are read
    (`count_layers`).  Counts are independent of the smoothing parameters,
    so one forest serves every candidate c.  A single variable
    is a forest with p = 1.  Each tree's centring Gaussian is its entry of
    the (p,) float arrays `means` and `sds`: they locate points, and a model
    file stores them.  `n1` and `n0` are read from variable 0: both builds,
    `from_matrix` and `from_leaves`, give every variable the same totals.
    """

    def __init__(self, means: np.ndarray, sds: np.ndarray, leaf1: np.ndarray, leaf0: np.ndarray):
        self.means = means
        self.sds = sds
        self.leaf1 = leaf1
        self.leaf0 = leaf0
        self.p = leaf1.shape[0]
        self.depth = leaf1.shape[1].bit_length() - 1
        self.n1 = int(leaf1[0].sum())
        self.n0 = int(leaf0[0].sum())

    @classmethod
    def from_leaves(cls, means, sds, leaf1, leaf0) -> "TreeForest":
        """Forest from per-variable centring means and sds, each (p,), p >= 1, and
        the (p, 2**depth) deepest-layer counts of each group.  The counts are
        checked as int64 and kept in the type of n, the largest variable
        total of group 1 plus that of group 0 (`_count_dtype`).

        A centring needs a finite mean and a finite sd > 0 (DomainError).
        Counts must be non-negative, and a group's counts must sum to its
        size in every variable, at most 2**31 - 1, the largest int32 count
        (InputError, raised before any count is cast).
        """
        means = np.asarray(means, dtype=float)
        sds = np.asarray(sds, dtype=float)
        leaf1 = np.asarray(leaf1, dtype=np.int64)
        leaf0 = np.asarray(leaf0, dtype=np.int64)
        p, width = leaf1.shape if leaf1.ndim == 2 else (0, 0)
        depth = width.bit_length() - 1
        if (leaf0.shape != leaf1.shape or p < 1 or width < 1 or width != 1 << depth
                or means.shape != (p,) or sds.shape != (p,)):
            raise InputError("leaf counts must be (p, 2**depth) per group with one mean and sd "
                             "per variable")
        if not np.all(np.isfinite(means) & np.isfinite(sds) & (sds > 0.0)):
            raise DomainError("a centring requires a finite mean and a finite sd > 0")
        if min(leaf1.min(initial=0), leaf0.min(initial=0)) < 0:
            raise InputError("leaf counts must be non-negative")
        # float sums cannot wrap as int64 ones can, and are exact below 2**53
        totals = [leaf.sum(axis=1, dtype=float) for leaf in (leaf1, leaf0)]
        total1, total0 = (total.max(initial=0.0) for total in totals)
        if max(total1, total0) > _COUNT_MAX:
            raise InputError(f"a variable's counts of a group sum past {_COUNT_MAX}, the largest "
                             f"count a forest holds")
        if any(np.any(total != total[:1]) for total in totals):
            raise InputError("a group's leaf counts must sum to one total in every variable")
        check_depth(depth, p)
        dtype = _count_dtype(int(total1 + total0))
        return cls(means, sds, leaf1.astype(dtype), leaf0.astype(dtype))

    @classmethod
    def from_matrix(cls, matrix, labels, depth: int | None = None) -> "TreeForest":
        """Forest of an (n, p) matrix; depth None means default_depth(n).

        Each variable is centred on its column's mean and ddof-1 sd, computed
        at any finite magnitude; a zero sd, or one beyond the float range,
        is replaced by SD_FLOOR, and the count of such columns is reported
        at DEBUG on the `ptda.polya_tree` logger.  The data must pass
        `training_data`.  The moments read x a tile at a time, and the leaves
        a block of variables at a time (`_count_leaves`), with no (n, p)
        float or index temporary.
        """
        x, y = training_data(matrix, labels)
        n, p = x.shape
        depth = check_depth(default_depth(n) if depth is None else depth, p)
        means, sds = _moments(x)
        # a column whose squares leave the double range is redone at a
        # moderate magnitude, an exact power-of-two scaling
        shift = square_safe_shift(x, axis=0)
        big = np.flatnonzero(shift)
        if big.size:
            scaled = _moments(np.ldexp(x[:, big], -shift[big]))
            means[big], sds[big] = (np.ldexp(m, shift[big]) for m in scaled)
        floored = ~(np.isfinite(sds) & (sds > 0.0))
        if floored.any():
            _log.debug("TreeForest.from_matrix: %d of %d columns have a zero or non-finite sd "
                       "and are centred with SD_FLOOR = %g", np.count_nonzero(floored), p, SD_FLOOR)
            sds = np.where(floored, SD_FLOOR, sds)
        # the centring is finite and the depth checked above
        return cls(means, sds, *_count_leaves(x, y, means, sds, depth))

    def flat_leaves(self, matrix) -> np.ndarray:
        """(m, p) intp index leaf + j * 2**depth of each point's deepest-layer
        cell in variable j's tree, in a flattened (p, 2**depth) per-leaf
        table; `np.take` gathers with it, and leaf is the index less j *
        2**depth.  The points must be finite numbers (InputError)."""
        x = float_array(matrix, "points")
        if x.ndim != 2 or x.shape[1] != self.p:
            raise InputError(f"expected points with {self.p} variables, got shape {x.shape}")
        # min and max propagate NaN, and they need no (m, p) temporary
        if not (math.isfinite(x.min(initial=0.0)) and math.isfinite(x.max(initial=0.0))):
            raise InputError("points must be finite")
        return _locate(x, self.means, self.sds, self.depth, np.empty(x.shape, dtype=np.intp))

    def variables(self, cols) -> "TreeForest":
        """Forest of the variables `cols`, a slice (a view) or an index array
        (a copy) of them; `[j]` is the one-variable forest of variable j."""
        return TreeForest(self.means[cols], self.sds[cols], self.leaf1[cols], self.leaf0[cols])


def predictive_density(points, tree: TreeForest, c) -> tuple[np.ndarray, np.ndarray]:
    """Posterior-mean densities of group 1 and of group 0 at each of `points`,
    for a one-variable forest: two (m,) arrays for the m values of `points`.

    Each is the centring density times 2**depth times the path probability
    of the point's leaf (`leaf_log_path_tables`); with no observations, the
    centring density up to rounding.  The points must be finite numbers
    (InputError) and `c` must lie in (0, C_MAX] (`check_smoothing`).
    """
    if tree.p != 1:
        raise InputError(f"predictive_density takes a one-variable forest, got p={tree.p}")
    tables = leaf_log_path_tables(tree, c)
    x = float_array(points, "points").ravel()
    leaf = tree.flat_leaves(x[:, None])[:, 0]  # variable 0's leaves start at 0
    sd = tree.sds[0]
    centring = normal_pdf(_standardized(x, tree.means[0], sd)) / sd * 2.0 ** tree.depth
    return tuple(centring * np.exp(lp[0, leaf]) for lp in tables)
