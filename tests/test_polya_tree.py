"""Tree structure: partitions, paths, counts, and the predictive density."""

import logging
import math
import sys
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptda.bnp_test import log_bayes_factors
from ptda.cvb import FittedModel, fit_model
from ptda.errors import DomainError, InputError
from ptda.polya_tree import (
    FOREST_BYTES,
    MAX_FOREST_CELLS,
    SD_FLOOR,
    TreeForest,
    _BLOCK_VALUES,
    _locator,
    alpha_for_layer,
    check_depth,
    count_layers,
    default_depth,
    leaf_indices,
    leaf_log_odds_table,
    predictive_density,
    training_data,
)
from ptda.simgen import SimulationSpec, generate
from ptda.stats import normal_pdf

from adapters import (LADDER, STD, leaves_of, path_map, sample_centring, simulated_forest,
                      spec_of, tree_from_leaves, tree_of)
from conftest import traced_peak
from oracles import (
    binary_expansion_leaves,
    cell_bounds,
    integrate_predictive_density,
    node_counts,
    normal_quantile,
    predictive_density_at,
    quantile_boundaries,
)

# the array density is exp of a log path probability, a sum of one log
# ratio per layer, where the per-point reference multiplies the ratios; the
# rounding of that sum grows with the depth and with the largest log term.
# The six fixtures of test_matches_the_per_point_reference are at most 12.5
# ulp (2.8e-15) apart
PDF_RTOL = 64 * 2.0 ** -52


def rule_dtype(n):
    """The count type a forest of n points should hold its counts in."""
    return np.dtype(np.uint8 if n <= 255 else np.uint16 if n <= 65_535 else np.int32)


def empty_tree(depth=3, centring=STD):
    zeros = np.zeros(2 ** depth, dtype=int)
    return tree_from_leaves(zeros, zeros, centring)


def leaf_of(x, tree):
    return int(leaves_of(tree, [[x]])[0, 0])


def density_at(x, tree, spec, group):
    density1, density0 = predictive_density([x], tree, spec.c)
    return float((density1 if group == 1 else density0)[0])


class TestAlpha:
    def test_root_children_are_one(self):
        for c in (0.1, 1.0, 7.5, 100.0):
            assert alpha_for_layer(1, c) == 1.0
        assert alpha_for_layer(1, np.array([0.1, 7.5])).tolist() == [1.0, 1.0]

    def test_quadratic_in_parent_length(self):
        assert alpha_for_layer(3, 2.0) == 8.0  # parent length 2
        assert alpha_for_layer(2, 1.0) == 1.0  # parent length 1, c = 1

    def test_children_share_alpha(self):
        # one value per variable, the shape of c; every cell of a layer shares it
        c = np.array([[0.3, 1.0], [7.7, 100.0]])
        for layer in (1, 2, 4):
            a = alpha_for_layer(layer, c)
            assert a.shape == c.shape
            assert np.array_equal(a, np.ones_like(c) if layer == 1 else c * (layer - 1) ** 2)
        assert alpha_for_layer(3, 2.5).shape == ()

    def test_root_has_no_alpha(self):
        with pytest.raises(DomainError):
            alpha_for_layer(0, 1.0)


class TestCentring:
    def test_validation(self):
        zeros = np.zeros((1, 2), dtype=int)
        for mean, sd in ((0.0, 0.0), (0.0, -1.0), (math.nan, 1.0), (0.0, math.inf)):
            with pytest.raises(DomainError):
                TreeForest.from_leaves([mean], [sd], zeros, zeros)
        with pytest.raises(InputError):
            TreeForest.from_leaves([0.0, 1.0], [1.0, 1.0], zeros, zeros)

    def test_from_sample_moments(self):
        x = np.array([[1.0, 5.0], [2.0, 5.5], [3.0, 4.0], [4.0, 6.0]])
        forest = TreeForest.from_matrix(x, np.array([1, 0, 1, 0]), 1)
        assert forest.means.tolist() == x.mean(axis=0).tolist()
        assert forest.means[0] == pytest.approx(2.5)
        assert forest.sds.tolist() == x.std(axis=0, ddof=1).tolist()

    def test_wide_moments_are_numpys_bits(self):
        # past p = 4096 the moments are summed in tiles of two column chunks,
        # and the last block of 4 rows in one; each column still sums row
        # after row, as x.mean and x.std do
        rng = np.random.default_rng(27)
        x = rng.normal(size=(100, 5000)) * 10.0 ** rng.uniform(-3, 3, size=(100, 5000))
        forest = TreeForest.from_matrix(x, np.arange(100) % 2, 4)
        assert np.array_equal(forest.means, x.mean(axis=0))
        assert np.array_equal(forest.sds, x.std(axis=0, ddof=1))

    def test_degenerate_column_floored(self):
        x = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        forest = TreeForest.from_matrix(x, np.array([1, 0] * 5), 2)
        assert forest.sds[0] == SD_FLOOR == 1e-8
        assert forest.means[0] == 3.0
        assert sample_centring(x[:, 0]) == (3.0, SD_FLOOR)

    def test_floored_columns_reported_at_debug(self, caplog):
        x = np.column_stack([np.full(10, 3.0), np.arange(10.0), np.zeros(10)])
        y = np.array([1, 0] * 5)
        quiet = TreeForest.from_matrix(x, y, 2)
        assert caplog.records == []  # the ptda logger is silent by default
        with caplog.at_level(logging.DEBUG, logger="ptda"):
            loud = TreeForest.from_matrix(x, y, 2)
        [record] = caplog.records
        assert record.name == "ptda.polya_tree" and record.levelno == logging.DEBUG
        assert "2 of 3 columns" in record.getMessage()
        for name in ("means", "sds", "leaf1", "leaf0"):
            assert getattr(loud, name).tobytes() == getattr(quiet, name).tobytes()

    def test_training_data_refusals(self):
        x = np.zeros((4, 2))
        for labels, message in (([1, 0, 1], "one label per row"), ([1, 0, 2, 0], "0 or 1"),
                                ([1, 1, 1, 1], "both groups")):
            with pytest.raises(InputError, match=message):
                training_data(x, np.array(labels))
        x[1, 1] = math.nan
        with pytest.raises(InputError, match="finite"):
            training_data(x, np.array([1, 0, 1, 0]))
        with pytest.raises(InputError, match="no variables"):
            training_data(np.zeros((4, 0)), np.array([1, 0, 1, 0]))

    def test_spec_validation(self):
        x = np.random.default_rng(0).normal(size=(8, 2))
        y = np.array([1, 0] * 4)
        with pytest.raises(DomainError):
            fit_model(x, y, 0.0)
        with pytest.raises(DomainError):
            fit_model(x, y, 101.0)
        with pytest.raises(DomainError):
            TreeForest.from_matrix(x, y, 0)


class TestDefaultDepth:
    def test_log2_floor(self):
        assert default_depth(100) == 6
        assert default_depth(2) == 1
        assert default_depth(1) == 1
        assert default_depth(1024) == 10

    @pytest.mark.parametrize("k", range(1, 63))
    def test_exact_at_powers_of_two(self, k):
        # through a float, log2(2**49 - 1) rounds up to 49
        assert default_depth(2 ** k) == k
        assert default_depth(2 ** k - 1) == max(1, k - 1)


class TestCountLayers:
    """Every layer summed from the leaves, against the oracle's direct sum of
    each cell's leaves."""

    @pytest.mark.parametrize("forest", [
        lambda: simulated_forest(2, p=12),
        lambda: TreeForest.from_leaves([0.0, 1.0], [1.0, 2.0], [[3, 1], [0, 4]], [[2, 2], [1, 3]]),
        lambda: tree_from_leaves([1, 0, 4, 2, 0, 0, 7, 1], [0, 3, 0, 0, 2, 5, 1, 1]),
        lambda: tree_from_leaves([0] * 8, [5, 0, 1, 0, 0, 2, 7, 1]),
        lambda: TreeForest.from_leaves(
            [0.0, 0.0], [1.0, 1.0],
            [[20000, 7000, 3, 0, 1, 2500, 0, 20496], [20496, 0, 2500, 1, 0, 3, 7000, 20000]],
            [[1, 15000, 8000, 2, 0, 4000, 1200, 21797], [21797, 1200, 4000, 0, 2, 8000, 15000, 1]]),
        lambda: TreeForest.from_leaves(  # uint8: the layers climb to n1 = 200 in one cell
            [0.0, 0.0], [1.0, 1.0], [[0, 0, 0, 200, 0, 0, 0, 0], [90, 0, 0, 0, 0, 0, 60, 50]],
            [[0, 0, 55, 0, 0, 0, 0, 0], [0, 0, 0, 1, 54, 0, 0, 0]]),
    ], ids=["simulated", "depth 1", "one variable", "empty group", "n1 = n0 = 50,000",
            "n1 = 200, n0 = 55"])
    def test_every_layer_equals_the_node_sums(self, forest):
        forest = forest()
        assert forest.leaf1.dtype == forest.leaf0.dtype == rule_dtype(forest.n1 + forest.n0)
        for leaves in (forest.leaf1, forest.leaf0):
            heap = node_counts(leaves)
            for cols in (slice(None), slice(forest.p - 1, None)):  # all variables, a block
                layers = list(count_layers(leaves[cols]))
                assert len(layers) == forest.depth + 1
                for level, layer in zip(range(forest.depth, -1, -1), layers):
                    assert layer.dtype == leaves.dtype
                    assert np.array_equal(layer, heap[cols, 1 << level:2 << level])
        assert (forest.n1, forest.n0) == (node_counts(forest.leaf1)[0, 1],
                                          node_counts(forest.leaf0)[0, 1])


class TestDepthValidation:
    def test_none_means_default(self):
        x = np.random.default_rng(1).normal(size=(100, 2))
        forest = TreeForest.from_matrix(x, np.array([1, 0] * 50), None)
        assert forest.depth == default_depth(100) == 6
        assert forest.leaf1.shape == (2, 2 ** 6)

    @pytest.mark.parametrize("depth", [0, -1, 2.0, None])
    def test_non_positive_or_non_integer_rejected(self, depth):
        with pytest.raises(DomainError):
            check_depth(depth, 3)

    @pytest.mark.parametrize("p", [1, 3, 5000])
    def test_budget_cap(self, p):
        # p * 2**(depth+1) may reach the cap but not exceed it, and the two
        # int32 count arrays and the locator table, under 30 * 2**depth bytes,
        # must fit FOREST_BYTES: of the depths the cap allows, that refuses
        # only a one-variable forest at depth 25 (0.5 GiB of counts, ~1 GB
        # of table)
        top = max(d for d in range(1, 64) if p * 2 ** (d + 1) <= MAX_FOREST_CELLS)
        if p == 1:
            assert (top, 2 * 4 * p * 2 ** (top + 1) + 30 * 2 ** top) == (25, 1_543_503_872)
            assert 1_543_503_872 > FOREST_BYTES
            top -= 1
        assert check_depth(top, p) == top
        with pytest.raises(DomainError):
            check_depth(top + 1, p)
        with pytest.raises(DomainError):
            check_depth(10 ** 9, p)

    def test_oversized_depth_rejected_before_allocating(self):
        x = np.random.default_rng(2).normal(size=(6, 3))
        with pytest.raises(DomainError):
            TreeForest.from_matrix(x, np.array([1, 0] * 3), 40)


class TestCellBoundaries:
    """Leaf k holds the points in (q(k / 2**D), q((k + 1) / 2**D)] of the centring."""

    def test_first_layer(self):
        tree = empty_tree(depth=1)
        assert [leaf_of(x, tree) for x in (-1e300, -1.0, -5e-324, -0.0, 0.0)] == [0] * 5
        # cells are bounded in z, so every double above the median goes right,
        # even those whose CDF value rounds to 0.5
        assert [leaf_of(x, tree) for x in (5e-324, 1e-17, 1e-15, 1.0, 1e300)] == [1] * 5
        assert cell_bounds(0.0, 1.0, 1, 0) == (-math.inf, 0.0)
        assert cell_bounds(0.0, 1.0, 1, 1) == (0.0, math.inf)

    def test_quarter_cell(self):
        tree = empty_tree(depth=2)
        lo, hi = cell_bounds(0.0, 1.0, 2, 1)
        assert lo == pytest.approx(-0.6744897501960817, abs=1e-9)
        assert hi == 0.0
        assert leaf_of(0.0, tree) == 1
        assert leaf_of(lo + 1e-9, tree) == 1
        assert leaf_of(lo - 1e-9, tree) == 0
        assert leaf_of(1e-15, tree) == 2

    def test_root_covers_line(self):
        # every finite point falls in one of the 2**depth leaves
        tree = empty_tree(depth=4)
        x = np.array([[-1e308], [-40.0], [-1e-300], [0.0], [3.0], [40.0], [1e308]])
        leaves = leaves_of(tree, x)[:, 0]
        assert leaves.tolist() == [0, 0, 7, 7, 15, 15, 15]

    def test_layer_cells_tile_the_line(self):
        # along a sorted grid the leaves never decrease, and every leaf is
        # reached: the cells are contiguous, disjoint and cover the line
        for level in (1, 2, 3, 4):
            tree = empty_tree(depth=level, centring=(5.0, 2.0))
            uppers = [cell_bounds(5.0, 2.0, level, k)[1] for k in range(2 ** level)]
            assert all(b > a for a, b in zip(uppers, uppers[1:])) and uppers[-1] == math.inf
            x = np.linspace(-5.0, 15.0, 4001)
            leaves = leaves_of(tree, x[:, None])[:, 0]
            assert np.all(np.diff(leaves) >= 0)
            assert set(leaves.tolist()) == set(range(2 ** level))


class TestPathOf:
    """A point's leaf read as its path: its cell's index in binary, the
    leading digits of its centring CDF value."""

    def test_mean_goes_left(self):
        # CDF value 0.5 sits on the layer-1 boundary and belongs to the left cell
        assert leaf_of(0.0, empty_tree(depth=3)) >> 2 == 0

    def test_far_right_tail(self):
        assert leaf_of(50.0, empty_tree(depth=5)) == 0b11111

    def test_binary_expansion(self):
        assert leaf_of(NormalDist().inv_cdf(0.3), empty_tree(depth=2)) == 0b01

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InputError):
                leaves_of(empty_tree(), [[bad]])

    @given(st.floats(-4.0, 4.0), st.integers(1, 8))
    @settings(max_examples=200)
    def test_path_cell_consistency(self, x, depth):
        # exact in x for the standard centring, whose cell bounds are the
        # quantiles themselves; in CDF space up to erfc's rounding
        leaf = leaf_of(x, empty_tree(depth=depth))
        u = 0.5 * math.erfc(-x / math.sqrt(2.0))
        for level in range(1, depth + 1):
            k = leaf >> (depth - level)
            lo, hi = cell_bounds(0.0, 1.0, level, k)
            assert lo < x <= hi
            assert k / 2 ** level - 1e-15 <= u <= (k + 1) / 2 ** level + 1e-15


class TestAccumulateCounts:
    def test_all_mass_one_branch(self):
        col = np.array([-2.0, -2.1, -1.9, -2.05])
        labels = np.array([1, 1, 0, 0])
        tree = tree_of(col, labels, 2, (5.0, 1.0))
        counts = path_map(tree)
        assert (tree.n1, tree.n0) == (2, 2)
        assert counts["0"] == (2, 2)
        assert counts.get("1", (0, 0)) == (0, 0)
        assert counts["00"] == (2, 2)

    def test_two_point_placement(self):
        col = np.array([NormalDist().inv_cdf(0.3), NormalDist().inv_cdf(0.8)])
        counts = path_map(tree_of(col, np.array([1, 0]), 1, STD))
        assert counts["0"] == (1, 0)
        assert counts["1"] == (0, 1)

    def test_empty_column_rejected(self):
        with pytest.raises(InputError):
            TreeForest.from_matrix(np.empty((0, 1)), np.array([]), 3)

    def test_bad_labels_rejected(self):
        with pytest.raises(InputError):
            TreeForest.from_matrix(np.array([[1.0], [2.0]]), np.array([1, 2]), 3)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 40), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_conservation_random_columns(self, seed, n, depth):
        rng = np.random.default_rng(seed)
        col = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n)
        tree = tree_of(col, labels, depth)
        for leaves in (tree.leaf1, tree.leaf0):
            # every cell of a layer holds the sum of its children 2k and
            # 2k + 1 in the layer below, and the root the group's size
            layers = list(count_layers(leaves))[::-1]
            for parent, child in zip(layers, layers[1:]):
                assert np.array_equal(parent[0], child[0, 0::2] + child[0, 1::2])
            assert np.all(leaves >= 0)
        assert (tree.n1, tree.n0) == (int(labels.sum()), int(n - labels.sum()))

    def test_affine_equivariance_of_paths(self):
        rng = np.random.default_rng(42)
        col = rng.normal(size=64)
        a, b = 3.0, 5.0
        labels = np.ones(64, dtype=int)
        k1 = leaves_of(tree_of(col, labels, 6), col[:, None])
        k2 = leaves_of(tree_of(a * col + b, labels, 6), (a * col + b)[:, None])
        assert np.array_equal(k1, k2)

    def test_path_map_round_trip(self):
        rng = np.random.default_rng(3)
        col = rng.normal(size=20)
        labels = rng.integers(0, 2, size=20)
        tree = tree_of(col, labels, 4)
        leaves = [[path_map(tree).get(format(k, "04b"), (0, 0))[i] for k in range(16)]
                  for i in (0, 1)]  # (group 1, group 0)
        back = tree_from_leaves(leaves[0], leaves[1], (tree.means[0], tree.sds[0]))
        assert path_map(back) == path_map(tree)
        assert np.array_equal(back.leaf1, tree.leaf1)
        assert np.array_equal(back.leaf0, tree.leaf0)


class TestPredictiveDensity:
    @pytest.mark.parametrize("c", [math.nan, math.inf, 0.0, -1.0, 200.0])
    def test_non_finite_or_non_positive_c_rejected(self, c):
        # the c domain of check_smoothing, which fit and log_bayes_factors take
        tree = tree_from_leaves([1, 0], [0, 1], STD)
        with pytest.raises(DomainError, match="finite and positive"):
            predictive_density([0.5], tree, c)

    def test_one_variable_forest_and_finite_points_required(self):
        forest = TreeForest.from_matrix(np.random.default_rng(4).normal(size=(8, 2)),
                                        np.array([1, 0] * 4), 2)
        with pytest.raises(InputError, match="one-variable forest, got p=2"):
            predictive_density([0.5], forest, 1.0)
        with pytest.raises(InputError, match="finite"):
            predictive_density([0.5, math.nan], forest.variables([0]), 1.0)

    def test_prior_predictive_is_centring(self):
        tree = empty_tree(depth=3)
        xs = np.array([-2.0, -0.3, 0.0, 1.7])
        for density in predictive_density(xs, tree, 1.0):
            # each layer's log(1/2) is summed and exponentiated: equal up to rounding
            np.testing.assert_allclose(density, normal_pdf(xs), rtol=PDF_RTOL, atol=0.0)

    def test_single_point_depth_one(self):
        # one group-1 point in the left cell lifts it to (4/3) g(x)
        tree = tree_from_leaves([1, 0], [0, 0], STD)
        density1, _ = predictive_density([-0.7, 0.7], tree, 1.0)
        # the other side is down-weighted to (2/3) g(x)
        assert density1 == pytest.approx([(4.0 / 3.0) * normal_pdf(-0.7),
                                           (2.0 / 3.0) * normal_pdf(0.7)], rel=1e-12)

    def test_large_c_pins_to_centring(self):
        rng = np.random.default_rng(8)
        col = rng.normal(size=32)
        labels = np.ones(32, dtype=int)
        mean, sd = sample_centring(col)
        dense = tree_of(col, labels, 5, (mean, sd))
        xs = np.array([-1.0, 0.2])
        density1, _ = predictive_density(xs, dense, 100.0)
        ratio = density1 / (normal_pdf((xs - mean) / sd) / sd)
        assert ratio == pytest.approx([1.0, 1.0], abs=0.25)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_per_point_reference(self, seed):
        rng = np.random.default_rng(seed)
        n, depth = int(rng.integers(2, 60)), int(rng.integers(1, 7))
        col = rng.normal(1.5, 3.0, size=n)
        labels = rng.integers(0, 2, size=n)
        tree = tree_of(col, labels, depth)
        # the training points, fresh draws and a grid reaching into the tails
        xs = np.concatenate([col, rng.normal(1.5, 3.0, size=50), np.linspace(-22.0, 25.0, 41)])
        for c in (1.0, 7.3, float(rng.uniform(0.01, 100.0))):
            density1, density0 = predictive_density(xs, tree, c)
            for group, density in ((1, density1), (0, density0)):
                reference = [predictive_density_at(x, tree, c, group) for x in xs.tolist()]
                np.testing.assert_allclose(density, reference, rtol=PDF_RTOL, atol=0.0)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(11)
        col = rng.normal(size=40)
        labels = rng.integers(0, 2, size=40)
        tree = tree_of(col, labels, 5)
        for group in (0, 1):
            mass = integrate_predictive_density(tree, spec_of(tree, 1.0), group, density_at)
            assert mass == pytest.approx(1.0, abs=1e-3)


class TestTreeForest:
    def test_matches_per_variable_accumulation(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(30, 5))
        y = rng.integers(0, 2, size=30)
        while y.sum() in (0, 30):
            y = rng.integers(0, 2, size=30)
        forest = TreeForest.from_matrix(x, y, 4)
        for j in range(5):
            tree = tree_of(x[:, j], y, 4, sample_centring(x[:, j]))
            assert path_map(forest, j) == path_map(tree)
            assert path_map(forest.variables([j])) == path_map(tree)

    def test_new_point_keys_match_training_paths(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(16, 3))
        y = np.array([1, 0] * 8)
        forest = TreeForest.from_matrix(x, y, 3)
        leaves = leaves_of(forest, x)
        for j in range(3):
            k = leaf_indices((x[:, j] - forest.means[j]) / forest.sds[j], 3)
            assert np.array_equal(leaves[:, j], k)
            # the 8 deepest-layer cells count exactly these training leaves
            assert np.array_equal(forest.leaf1[j], np.bincount(k[y == 1], minlength=8))
            assert np.array_equal(forest.leaf0[j], np.bincount(k[y == 0], minlength=8))

    def test_single_group_rejected(self):
        x = np.random.default_rng(0).normal(size=(8, 2))
        with pytest.raises(InputError):
            TreeForest.from_matrix(x, np.ones(8, dtype=int), 3)


class TestCountType:
    """A forest of n = n1 + n0 points holds its counts in the narrowest of
    uint8, uint16 and int32 that holds n, however it is made, and scores
    them as it would int32 counts."""

    @pytest.mark.parametrize("n", [255, 256, 65_535, 65_536])
    def test_rule_at_the_type_boundaries(self, tmp_path, n):
        y = np.arange(n) % 2
        fitted = fit_model(np.random.default_rng(n).normal(size=(n, 1)), y, 1.0, depth=1)
        fitted.save(tmp_path / "model.json")
        loaded = FittedModel.load(tmp_path / "model.json")
        # the total decides, not a group: at n = 256 neither group passes 255
        direct = TreeForest.from_leaves([0.0], [1.0], [[n - 1, 0]], [[0, 1]])
        for forest in (fitted.forest, loaded.forest, direct):
            assert forest.n1 + forest.n0 == n
            assert forest.leaf1.dtype == forest.leaf0.dtype == rule_dtype(n)

    def test_negative_counts_refused_before_the_cast(self):
        with pytest.raises(InputError, match="non-negative"):
            TreeForest.from_leaves([0.0], [1.0], [[3, -1]], [[1, 1]])

    @pytest.mark.parametrize("leaf1, leaf0", [
        ([[1, 0, 0, 0], [2, 3, 3, 1]], [[0, 0, 0, 1], [1, 1, 1, 1]]),
        ([[1, 0], [0, 1]], [[2, 0], [1, 0]]),
    ], ids=["both groups", "group 0"])
    def test_unequal_totals_refused(self, leaf1, leaf0):
        # n1 and n0 are read from variable 0, and the evidence packs its
        # pattern keys with them, so a variable of other totals would be
        # scored as if its group sizes were variable 0's
        with pytest.raises(InputError, match="one total"):
            TreeForest.from_leaves([0.0, 0.0], [1.0, 1.0], leaf1, leaf0)
        for j in range(2):
            forest = TreeForest.from_leaves([0.0], [1.0], leaf1[j:j + 1], leaf0[j:j + 1])
            assert (forest.n1, forest.n0) == (sum(leaf1[j]), sum(leaf0[j]))

    @pytest.mark.parametrize("n", [255, 300])
    def test_narrow_counts_score_the_bits_of_int32_counts(self, n):
        train, _, _ = generate(SimulationSpec(1, n, 10, 24, 8, 3))
        narrow = TreeForest.from_matrix(train.matrix, train.labels)
        assert narrow.leaf1.dtype == rule_dtype(n)
        wide = TreeForest(narrow.means, narrow.sds, narrow.leaf1.astype(np.int32),
                          narrow.leaf0.astype(np.int32))
        c = np.repeat([1.0, 5.0, 10.0, 50.0], 6)
        for setting in (np.array(LADDER)[:, None], c, 5.0):
            assert np.array_equal(log_bayes_factors(narrow, setting),
                                  log_bayes_factors(wide, setting))
        assert np.array_equal(leaf_log_odds_table(narrow, c), leaf_log_odds_table(wide, c))
        points = np.linspace(-4.0, 4.0, 41)
        for j in (0, 23):
            assert np.array_equal(predictive_density(points, narrow.variables([j]), c[j]),
                                  predictive_density(points, wide.variables([j]), c[j]))


class TestLeafIndicesAgainstBinaryExpansion:
    """The cached grid locator against a search of the quantile boundaries
    and, away from them, against the binary expansion of the CDF value."""

    @pytest.mark.parametrize("depth", [*range(1, 17), 20])
    def test_dyadics_neighbours_and_extremes(self, depth):
        # every boundary q(k / 2**depth) goes to the cell on its left, the
        # doubles one ulp either side of it to the cells they lie in, and
        # the extremes to the end cells, without an overflow warning
        b = quantile_boundaries(depth)
        big = sys.float_info.max
        ends = [-np.inf, -big, -1e300, -40.0, 40.0, 1e300, big, np.inf]
        z = np.concatenate([ends, b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf)])
        leaf = leaf_indices(z, depth)
        assert np.array_equal(leaf, np.searchsorted(b, z, side="left"))
        assert leaf[:8].tolist() == [0] * 4 + [2 ** depth - 1] * 4

    @pytest.mark.parametrize("depth", [*range(1, 17), 20])
    def test_bucket_edges_and_neighbours(self, depth):
        # every bucket's left edge (i - half) / scale, one bucket past each
        # end of the grid, and the doubles one ulp either side of each edge:
        # the values nearest a change of bucket
        scale, half, _, _ = _locator(depth)
        b = quantile_boundaries(depth)
        i = np.arange(-half - 1.0, half + 2.0)
        for block in np.array_split(i, -(-i.size // (1 << 19))):
            e = block / scale
            z = np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf)])
            assert np.array_equal(leaf_indices(z, depth), np.searchsorted(b, z, side="left"))

    @pytest.mark.parametrize("depth", range(1, 26))
    def test_no_bucket_holds_two_boundaries(self, depth):
        # the grid's premise: no two boundaries are as close as a bucket is
        # wide, 2**(1 - depth).  The quantile function is odd about 1/2 and
        # convex above it, so the two gaps beside the centre are the least;
        # every gap is checked up to depth 14, and those near the centre
        # beyond, without building a table
        width = 2 ** depth
        if depth <= 14:
            b = quantile_boundaries(depth)
        else:
            b = np.array([normal_quantile(k / width) for k in range(width // 2 - 8, width // 2 + 9)])
        gaps = np.diff(b)
        assert np.all(gaps * 2.0 ** (depth - 1) > 1.25)
        if depth > 1:
            assert gaps.min() == gaps[b.size // 2 - 1] == gaps[b.size // 2]

    @pytest.mark.parametrize("depth", range(1, 26))
    def test_table_stays_under_its_charge(self, depth):
        # `check_depth` charges the table 30 * 2**depth bytes: int32 cells
        # for 2 * half buckets, half from the outermost boundary (the mirror
        # of the lowest), and 2**depth float boundaries; checked without
        # building a table
        outer = -NormalDist().inv_cdf(2.0 ** -depth)
        half = math.ceil(outer * 2.0 ** (depth - 1)) + 2
        assert 2 * half * 4 + 2 ** depth * 8 < 30 * 2 ** depth

    def test_depth_16_table_does_not_grow(self):
        # int32 cells for 2 * half buckets and 2**16 float boundaries: 1,617,336
        # bytes, about 24.7 * 2**16
        _, _, cells, bounds = _locator(16)
        assert cells.dtype == np.int32 and bounds.dtype == np.float64
        assert cells.nbytes + bounds.nbytes <= 1_617_336

    @pytest.mark.parametrize("depth", [1, 6, 9, 20])
    def test_random_cdf_values(self, depth):
        # the digits of 0.5 erfc(-z / sqrt 2) for values whose CDF lies well
        # inside a leaf, where erfc's rounding cannot cross a boundary; all
        # values against the boundary search
        rng = np.random.default_rng(100 + depth)
        z = np.concatenate([rng.normal(size=5000), rng.normal(scale=4.0, size=5000),
                            [-0.0, 0.0, 5e-324, -5e-324, 1e-17]])
        u = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z.tolist()])
        scaled = u * 2.0 ** depth
        inside = np.abs(scaled - np.round(scaled)) > 1e-6
        assert inside.mean() > 0.8
        leaf = leaf_indices(z, depth)
        assert np.array_equal(leaf[inside], binary_expansion_leaves(u[inside], depth))
        assert np.array_equal(leaf, np.searchsorted(quantile_boundaries(depth), z, side="left"))

    def test_dyadic_boundary_goes_left(self):
        q = NormalDist().inv_cdf
        assert leaf_indices(np.array([q(0.5), q(0.25), q(0.75), -np.inf, np.inf]),
                            2).tolist() == [1, 0, 2, 0, 3]

    def test_shape_kept(self):
        assert leaf_indices(0.3, 3).shape == ()
        assert leaf_indices(np.empty((0, 4)), 3).shape == (0, 4)
        z = NormalDist().inv_cdf(0.7)  # in leaf 5 of 8, (0.625, 0.75]
        assert leaf_indices(np.full((2, 3), z), 3).tolist() == [[5] * 3] * 2

    def test_forest_build_holds_no_point_sized_float(self):
        # the moments are summed a tile at a time and the points located a
        # block of variables at a time: the build holds its leaf counts and
        # a few blocks, under the one (n, p) float that x.std's deviations
        # took when it computed the sds, and no further (n, p) temporaries
        n, p = 4096, 64
        x = np.random.default_rng(24).normal(size=(n, p))
        y = np.arange(n) % 2
        TreeForest.from_matrix(x[:64], y[:64], 6)  # the depth's table, built before tracing
        peak, _ = traced_peak(lambda: TreeForest.from_matrix(x, y, 6))
        assert peak < 1.5 * x.nbytes

    def test_forest_build_holds_one_leaf_array_beside_the_heaps(self):
        # each group's leaves are counted into its leaf array (uint8 at these
        # 32 points) a block of variables at a time, and no layer above them
        # is kept.  The bound is twice both groups' leaves at 4 bytes a
        # count, 10.24 MB: the (n, p) deviations x.std made took 5.12 MB,
        # and whole (p, 2**depth) int64 leaf arrays of both groups beside
        # the leaves would add 10.24 MB more
        n, p, depth = 32, 20000, 5
        x = np.random.default_rng(25).normal(size=(n, p))
        y = np.arange(n) % 2
        TreeForest.from_matrix(x[:, :8], y, depth)  # the depth's table, built before tracing
        peak, forest = traced_peak(lambda: TreeForest.from_matrix(x, y, depth))
        assert forest.leaf1.dtype == np.uint8
        assert peak < 2 * (2 * 4 * p << depth)

    def test_build_holds_no_tile_beyond_its_index_and_leaves(self):
        # the moments are read a tile at a time and the leaves a block of
        # variables at a time, so the build holds its leaf counts (2 x 0.6
        # MiB of uint8 here) and a few blocks, not the (n, p) deviations
        # x.std made (30.5 MiB at these 200 points and 20,000 variables)
        n, p, depth = 200, 20000, 5
        x = np.random.default_rng(28).normal(size=(n, p))
        y = np.arange(n) % 2
        TreeForest.from_matrix(x[:, :8], y, depth)  # the depth's table, built before tracing
        peak, _ = traced_peak(lambda: TreeForest.from_matrix(x, y, depth))
        assert peak < x.nbytes / 3

    def test_wide_rows_are_located_in_tiles(self):
        # at 20,000 variables a tile (`_tiles`) holds the 3 rows that fit
        # _BLOCK_VALUES: the build holds a few block-sized temporaries, not
        # the locator's three (n, p) floats (5.12 MB each here), under the
        # bound that also allowed x.std's one (n, p) float of deviations
        n, p, depth = 32, 20000, 5
        x = np.random.default_rng(26).normal(size=(n, p))
        y = np.arange(n) % 2
        TreeForest.from_matrix(x[:, :8], y, depth)  # the depth's table, built before tracing
        peak, forest = traced_peak(lambda: TreeForest.from_matrix(x, y, depth))
        assert peak < x.nbytes + 4 * 8 * _BLOCK_VALUES
        # the blocks' counts are those of all the points located in one piece
        flat, width = forest.flat_leaves(x), 1 << depth
        for leaves, rows in ((forest.leaf1, y == 1), (forest.leaf0, y == 0)):
            counts = np.bincount(flat[rows].ravel(), minlength=p * width).reshape(p, width)
            assert np.array_equal(leaves, counts)

    def test_build_holds_no_leaf_index(self):
        # each block of variables is located into its own int32 index,
        # counted and dropped: both groups' uint8 leaves take 6.1 MiB at
        # these 32 points and 100,000 variables, and an (n, p) int32 index
        # held through the build would add 12.2 MiB
        n, p, depth = 32, 100000, 5
        x = np.random.default_rng(29).normal(size=(n, p))
        y = np.arange(n) % 2
        TreeForest.from_matrix(x[:, :8], y, depth)  # the depth's table, built before tracing
        peak, forest = traced_peak(lambda: TreeForest.from_matrix(x, y, depth))
        assert forest.leaf1.nbytes + forest.leaf0.nbytes == 2 * p << depth
        assert peak < 12 * 2**20


class TestLocatingPoints:
    def forest(self):
        rng = np.random.default_rng(23)
        return TreeForest.from_matrix(rng.normal(size=(20, 3)), np.array([1, 0] * 10), 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_refused(self, bad):
        x = np.zeros((2, 3))
        x[1, 2] = bad
        with pytest.raises(InputError):
            leaves_of(self.forest(), x)

    def test_flat_leaves_index_a_flattened_table(self):
        forest = self.forest()
        x = np.random.default_rng(24).normal(size=(7, 3))
        leaves = leaves_of(forest, x)
        table = np.arange(3 * 8).reshape(3, 8)
        expected = [[table[j, leaves[i, j]] for j in range(3)] for i in range(7)]
        assert np.take(table, forest.flat_leaves(x)).tolist() == expected
