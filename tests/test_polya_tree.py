"""Tree structure: partitions, paths, counts, and the predictive density."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptda.cvb import fit_model
from ptda.errors import DomainError, InputError
from ptda.polya_tree import (
    MAX_FOREST_CELLS,
    SD_FLOOR,
    TreeForest,
    alpha_for_layer,
    check_depth,
    default_depth,
    leaf_indices,
    predictive_density,
    training_data,
)
from ptda.stats import normal_cdf, normal_pdf, normal_quantile

from adapters import STD, path_map, sample_centring, spec_of, tree_from_leaves, tree_of
from oracles import binary_expansion_leaves, cell_bounds, integrate_predictive_density


def empty_tree(depth=3, centring=STD):
    zeros = np.zeros(2 ** depth, dtype=int)
    return tree_from_leaves(zeros, zeros, centring)


def leaf_of(x, tree):
    return int(tree.leaves([[x]])[0, 0])


def density_at(x, tree, spec, group):
    return predictive_density(x, tree, spec.c, group)


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
        for name in ("means", "sds", "count1", "count0"):
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


class TestDepthValidation:
    def test_none_means_default(self):
        x = np.random.default_rng(1).normal(size=(100, 2))
        forest = TreeForest.from_matrix(x, np.array([1, 0] * 50), None)
        assert forest.depth == default_depth(100) == 6
        assert forest.count1.shape == (2, 2 ** 7)

    @pytest.mark.parametrize("depth", [0, -1, 2.0, None])
    def test_non_positive_or_non_integer_rejected(self, depth):
        with pytest.raises(DomainError):
            check_depth(depth, 3)

    @pytest.mark.parametrize("p", [1, 3, 5000])
    def test_budget_cap(self, p):
        # p * 2**(depth+1) may reach the cap but not exceed it
        top = max(d for d in range(1, 64) if p * 2 ** (d + 1) <= MAX_FOREST_CELLS)
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
        assert [leaf_of(x, tree) for x in (-1e300, -1.0, -5e-324, 0.0)] == [0] * 4
        # the smallest doubles above 0 have CDF value 0.5 and stay left
        assert [leaf_of(x, tree) for x in (1e-15, 1.0, 1e300)] == [1] * 3
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
        leaves = tree.leaves(x)[:, 0]
        assert leaves.tolist() == [0, 0, 7, 7, 15, 15, 15]

    def test_layer_cells_tile_the_line(self):
        # along a sorted grid the leaves never decrease, and every leaf is
        # reached: the cells are contiguous, disjoint and cover the line
        for level in (1, 2, 3, 4):
            tree = empty_tree(depth=level, centring=(5.0, 2.0))
            uppers = [cell_bounds(5.0, 2.0, level, k)[1] for k in range(2 ** level)]
            assert all(b > a for a, b in zip(uppers, uppers[1:])) and uppers[-1] == math.inf
            x = np.linspace(-5.0, 15.0, 4001)
            leaves = tree.leaves(x[:, None])[:, 0]
            assert np.all(np.diff(leaves) >= 0)
            assert set(leaves.tolist()) == set(range(2 ** level))


class TestPathOf:
    """A point's leaf read as its path: the binary digits of its centring CDF value."""

    def test_mean_goes_left(self):
        # CDF value 0.5 sits on the layer-1 boundary and belongs to the left cell
        assert leaf_of(0.0, empty_tree(depth=3)) >> 2 == 0

    def test_far_right_tail(self):
        assert leaf_of(50.0, empty_tree(depth=5)) == 0b11111

    def test_binary_expansion(self):
        assert leaf_of(normal_quantile(0.3), empty_tree(depth=2)) == 0b01

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InputError):
                empty_tree().leaves([[bad]])

    @given(st.floats(-4.0, 4.0), st.integers(1, 8))
    @settings(max_examples=200)
    def test_path_cell_consistency(self, x, depth):
        # exact in CDF space; x-space membership gets one-ulp slack because
        # a point whose CDF value rounds onto a boundary goes to the left cell
        leaf = leaf_of(x, empty_tree(depth=depth))
        u = normal_cdf(x)
        for level in range(1, depth + 1):
            k = leaf >> (depth - level)
            assert k / 2 ** level <= u <= (k + 1) / 2 ** level
            lo, hi = cell_bounds(0.0, 1.0, level, k)
            slack = 1e-9
            assert lo - slack < x <= hi + slack


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
        col = np.array([normal_quantile(0.3), normal_quantile(0.8)])
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
        for counts in (tree.count1[0], tree.count0[0]):
            # every parent node i holds the sum of its children 2i and 2i + 1
            parents = np.arange(1, 2 ** depth)
            assert np.array_equal(counts[parents], counts[2 * parents] + counts[2 * parents + 1])
            assert np.all(counts >= 0)
        assert (tree.n1, tree.n0) == (int(labels.sum()), int(n - labels.sum()))

    def test_affine_equivariance_of_paths(self):
        rng = np.random.default_rng(42)
        col = rng.normal(size=64)
        a, b = 3.0, 5.0
        labels = np.ones(64, dtype=int)
        k1 = tree_of(col, labels, 6).leaves(col[:, None])
        k2 = tree_of(a * col + b, labels, 6).leaves((a * col + b)[:, None])
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
        assert np.array_equal(back.count1, tree.count1)
        assert np.array_equal(back.count0, tree.count0)


class TestPredictiveDensity:
    def test_prior_predictive_is_centring(self):
        tree = empty_tree(depth=3)
        for x in (-2.0, -0.3, 0.0, 1.7):
            assert predictive_density(x, tree, 1.0, 1) == normal_pdf(x)

    def test_single_point_depth_one(self):
        # one group-1 point in the left cell lifts it to (4/3) g(x)
        tree = tree_from_leaves([1, 0], [0, 0], STD)
        x = -0.7
        assert predictive_density(x, tree, 1.0, 1) == pytest.approx(
            (4.0 / 3.0) * normal_pdf(x), rel=1e-12)
        # other side is down-weighted to (2/3) g(x)
        assert predictive_density(0.7, tree, 1.0, 1) == pytest.approx(
            (2.0 / 3.0) * normal_pdf(0.7), rel=1e-12)

    def test_large_c_pins_to_centring(self):
        rng = np.random.default_rng(8)
        col = rng.normal(size=32)
        labels = np.ones(32, dtype=int)
        mean, sd = sample_centring(col)
        dense = tree_of(col, labels, 5, (mean, sd))
        for x in (-1.0, 0.2):
            ratio = predictive_density(x, dense, 100.0, 1) / (normal_pdf((x - mean) / sd) / sd)
            assert ratio == pytest.approx(1.0, abs=0.25)

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
            assert path_map(forest.variable(j)) == path_map(tree)

    def test_new_point_keys_match_training_paths(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(16, 3))
        y = np.array([1, 0] * 8)
        forest = TreeForest.from_matrix(x, y, 3)
        leaves = forest.leaves(x)
        for j in range(3):
            k = leaf_indices(normal_cdf((x[:, j] - forest.means[j]) / forest.sds[j]), 3)
            assert np.array_equal(leaves[:, j], k)
            # the deepest-layer nodes 8..15 count exactly these training leaves
            assert np.array_equal(forest.count1[j, 8:], np.bincount(k[y == 1], minlength=8))
            assert np.array_equal(forest.count0[j, 8:], np.bincount(k[y == 0], minlength=8))

    def test_single_group_rejected(self):
        x = np.random.default_rng(0).normal(size=(8, 2))
        with pytest.raises(InputError):
            TreeForest.from_matrix(x, np.ones(8, dtype=int), 3)


class TestLeafIndicesAgainstBinaryExpansion:
    """The one-step leaf (ceil of u * 2**depth) against the digit-by-digit loop."""

    @staticmethod
    def hard_values(depth, rng):
        # dyadics one layer coarser, at and one finer than the leaves, 0, 1
        # and subnormals, each with its neighbouring doubles
        values = [0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.5 ** 1074 * 3]
        for level in (depth - 1, depth, depth + 1):
            if level < 1:
                continue
            k = np.unique(np.concatenate([
                np.arange(min(2 ** level, 64) + 1),
                2 ** level - np.arange(min(2 ** level, 64) + 1),
                rng.integers(0, 2 ** level + 1, size=500),
            ]))
            values.extend((k / 2.0 ** level).tolist())
        u = np.array(values)
        u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)])
        return u[(u >= 0.0) & (u <= 1.0)]

    @pytest.mark.parametrize("depth", [1, 6, 9, 25])
    def test_dyadics_neighbours_and_extremes(self, depth):
        u = self.hard_values(depth, np.random.default_rng(depth))
        assert np.array_equal(leaf_indices(u, depth), binary_expansion_leaves(u, depth))

    @pytest.mark.parametrize("depth", [1, 6, 9, 25])
    def test_random_cdf_values(self, depth):
        rng = np.random.default_rng(100 + depth)
        u = np.concatenate([rng.uniform(size=5000), normal_cdf(rng.normal(scale=4.0, size=5000))])
        assert np.array_equal(leaf_indices(u, depth), binary_expansion_leaves(u, depth))

    def test_dyadic_boundary_goes_left(self):
        assert leaf_indices(np.array([0.5, 0.25, 0.0, 1.0]), 2).tolist() == [1, 0, 0, 3]

    def test_shape_kept(self):
        assert leaf_indices(0.3, 3).shape == ()
        assert leaf_indices(np.empty((0, 4)), 3).shape == (0, 4)
        assert leaf_indices(np.full((2, 3), 0.7), 3).tolist() == [[5] * 3] * 2


class TestLocatingPoints:
    def forest(self):
        rng = np.random.default_rng(23)
        return TreeForest.from_matrix(rng.normal(size=(20, 3)), np.array([1, 0] * 10), 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_refused(self, bad):
        x = np.zeros((2, 3))
        x[1, 2] = bad
        with pytest.raises(InputError):
            self.forest().leaves(x)

    def test_flat_leaves_index_a_flattened_table(self):
        forest = self.forest()
        x = np.random.default_rng(24).normal(size=(7, 3))
        leaves = forest.leaves(x)
        table = np.arange(3 * 8).reshape(3, 8)
        expected = [[table[j, leaves[i, j]] for j in range(3)] for i in range(7)]
        assert np.take(table, forest.flat_leaves(x)).tolist() == expected
