"""Evidence computation against dense enumeration and analytic identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptda.bnp_test import _count_table, log_bayes_factor, log_bayes_factors
from ptda.cvb import FittedModel, fit_model
from ptda.errors import InputError
from ptda.polya_tree import TreeForest

from adapters import LADDER, STD, path_code, path_map, simulated_forest, tree_from_leaves, tree_of
from oracles import dense_log_bayes_factor, direct_log_bayes_factors, exact_log_bayes_factor_with_point


def random_case(seed, n_max=32, depth_max=5):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    depth = int(rng.integers(1, depth_max + 1))
    c = float(rng.uniform(0.2, 20.0))
    col = rng.normal(size=n)
    labels = rng.integers(0, 2, size=n)
    return col, labels, c, depth


class TestFixtures:
    def test_depth_one_hand_value(self):
        tree = tree_from_leaves([2, 0], [0, 2], STD)
        assert log_bayes_factor(tree, 1.0) == pytest.approx(math.log(10.0 / 3.0), abs=1e-12)

    def test_one_group_empty_is_zero(self):
        rng = np.random.default_rng(1)
        col = rng.normal(size=12)
        tree = tree_of(col, np.ones(12, dtype=int), 3, STD)
        assert log_bayes_factor(tree, 2.0) == 0.0

    def test_no_observations_is_zero(self):
        tree = tree_from_leaves(np.zeros(8, dtype=int), np.zeros(8, dtype=int), STD)
        assert log_bayes_factor(tree, 1.0) == 0.0

    def test_monotone_evidence_under_duplication(self):
        single = tree_from_leaves([2, 0], [0, 2], STD)
        doubled = tree_from_leaves([4, 0], [0, 4], STD)
        assert log_bayes_factor(doubled, 1.0) > log_bayes_factor(single, 1.0)

    def test_inconsistent_counts_rejected(self):
        # the dense build conserves counts by construction; a model file
        # whose leaf counts disagree with its group sizes is refused
        rng = np.random.default_rng(2)
        x = rng.normal(size=(12, 2))
        doc = fit_model(x, np.array([1, 0] * 6), 1.0, depth=1).to_json_dict()
        doc["variables"][0]["leaf1"] = [1, 0]
        with pytest.raises(InputError):
            FittedModel.from_json_dict(doc)


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_sparse_equals_dense(self, seed):
        col, labels, c, depth = random_case(seed)
        tree = tree_of(col, labels, depth)
        ours = log_bayes_factor(tree, c)
        ref = dense_log_bayes_factor(path_map(tree), depth, c)
        assert ours == pytest.approx(ref, abs=1e-10)

    def test_identical_samples_case(self):
        # both groups observe the same values: not zero, but must match
        # the dense enumeration exactly
        rng = np.random.default_rng(77)
        values = rng.normal(size=15)
        col = np.concatenate([values, values])
        labels = np.array([1] * 15 + [0] * 15)
        tree = TreeForest.from_matrix(col[:, None], labels, 4)
        ours = log_bayes_factor(tree, 1.0)
        ref = dense_log_bayes_factor(path_map(tree), 4, 1.0)
        assert ours == pytest.approx(ref, abs=1e-10)


class TestSymmetries:
    @pytest.mark.parametrize("seed", range(10))
    def test_label_swap(self, seed):
        col, labels, c, depth = random_case(seed, n_max=40)
        tree = tree_of(col, labels, depth)
        swapped = tree_of(col, 1 - labels, depth)
        assert log_bayes_factor(tree, c) == pytest.approx(
            log_bayes_factor(swapped, c), abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        col = rng.normal(size=50)
        labels = rng.integers(0, 2, size=50)
        while labels.sum() in (0, 50):
            labels = rng.integers(0, 2, size=50)
        moved = 3.0 * col + 5.0
        tree1 = tree_of(col, labels, 5)
        tree2 = tree_of(moved, labels, 5)
        v1 = log_bayes_factor(tree1, 2.0)
        v2 = log_bayes_factor(tree2, 2.0)
        assert v1 == pytest.approx(v2, abs=1e-9)
        assert np.array_equal(tree1.leaves(col[:10, None]), tree2.leaves(moved[:10, None]))


class TestStirlingDrop:
    @staticmethod
    def _mean_drop(n, seeds=3, draws=8):
        import math as _math

        depth = int(_math.floor(_math.log2(n)))
        total, count = 0.0, 0
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            col = rng.normal(size=n)
            labels = np.array([1, 0] * (n // 2))
            tree = tree_of(col, labels, depth)
            implemented = log_bayes_factor(tree, 1.0)
            for t in range(draws):
                exact = exact_log_bayes_factor_with_point(
                    path_map(tree), depth, 1.0,
                    path_code(tree, float(rng.normal())), t % 2)
                total += abs(exact - implemented)
                count += 1
        return total / count

    def test_extra_point_changes_little_and_shrinks(self):
        # the implemented evidence drops the new observation's indicator
        # terms; the induced error is modest and shrinks with n.  (At
        # n ~ 100 the worst case over new points is ~0.5, so the bound is
        # asserted on the mean at large n where it genuinely holds.)
        small = self._mean_drop(100)
        large = self._mean_drop(1600)
        assert large < 0.15
        assert large < small


class TestBatch:
    def test_batch_matches_per_variable(self):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(40, 7))
        y = rng.integers(0, 2, size=40)
        while y.sum() in (0, 40):
            y = rng.integers(0, 2, size=40)
        c = rng.uniform(0.5, 10.0, size=7)
        forest = TreeForest.from_matrix(x, y, 5)
        batch = log_bayes_factors(forest, c)
        for j in range(7):
            centring = (forest.means[j], forest.sds[j])
            direct = log_bayes_factor(tree_of(x[:, j], y, 5, centring), float(c[j]))
            assert batch[j] == pytest.approx(direct, abs=1e-10)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_batch_label_swap(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(20, 3))
        y = rng.integers(0, 2, size=20)
        if y.sum() in (0, 20):
            y[0] = 1 - y[0]
        f1 = TreeForest.from_matrix(x, y, 4)
        f2 = TreeForest.from_matrix(x, 1 - y, 4)
        np.testing.assert_allclose(log_bayes_factors(f1, 1.0),
                                   log_bayes_factors(f2, 1.0), atol=1e-12)


class TestCountTables:
    """The log-gamma values come from count-indexed tables; the per-node
    `log_beta` evaluation kept in the oracles is the reference."""

    def test_read_entries_hold_the_kernel_value(self):
        # the lookups repeat some entries and leave others unread
        shift = np.array([0.3, 2.0, 7.7])
        width = 9
        rng = np.random.default_rng(4)
        lookups = [rng.integers(0, shift.size * width, size=20) for _ in range(2)]
        table = _count_table(np.log, shift, width, lookups)
        assert table.shape == (shift.size * width,)
        for ix in lookups:
            rows, k = np.divmod(ix, width)
            assert np.array_equal(table[ix], np.log(shift[rows] + k))

    @pytest.mark.parametrize("setting", [1, 2])
    def test_ladder_values_bit_identical(self, setting):
        forest = simulated_forest(setting)
        mixed = np.random.default_rng(0).choice(LADDER, size=forest.p)
        for c in LADDER + (mixed,):
            assert np.array_equal(log_bayes_factors(forest, c), direct_log_bayes_factors(forest, c))

    @pytest.mark.parametrize("kind", ["0.3", "7.7", "p distinct"])
    def test_non_integer_alpha_against_lgamma(self, kind):
        # 2a + (k1 + k2) does not round like (a + k1) + (a + k2) when a is not
        # an integer, so the tables move the last bits, never farther from
        # math.lgamma than the direct evaluation is
        forest = simulated_forest(2)
        c = (np.random.default_rng(1).uniform(0.2, 100.0, size=forest.p) if kind == "p distinct"
             else np.full(forest.p, float(kind)))
        ours = log_bayes_factors(forest, c)
        direct = direct_log_bayes_factors(forest, c)
        oracle = np.array([dense_log_bayes_factor(path_map(forest, j), forest.depth, float(c[j]))
                           for j in range(forest.p)])
        assert np.max(np.abs(ours - direct)) <= 1e-11
        assert np.all(np.abs(ours - oracle) <= np.abs(direct - oracle) + 1e-11)
