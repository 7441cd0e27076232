"""Evidence computation against dense enumeration and analytic identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptda.bnp_test
from ptda.bnp_test import log_bayes_factors
from ptda.cvb import FittedModel, fit_model
from ptda.errors import DomainError, InputError
from ptda.polya_tree import _BLOCK_VALUES, TreeForest

from adapters import (LADDER, STD, leaves_of, path_code, path_map, simulated_forest,
                      tree_from_leaves, tree_of)
from conftest import traced_peak
from oracles import dense_log_bayes_factor, direct_log_bayes_factors, exact_log_bayes_factor_with_point


def log_bf(tree, c):
    """ln BF of a one-variable forest."""
    [value] = log_bayes_factors(tree, c)
    return float(value)


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
        assert log_bf(tree, 1.0) == pytest.approx(math.log(10.0 / 3.0), abs=1e-12)

    def test_one_group_empty_is_zero(self):
        rng = np.random.default_rng(1)
        col = rng.normal(size=12)
        tree = tree_of(col, np.ones(12, dtype=int), 3, STD)
        assert log_bf(tree, 2.0) == 0.0

    def test_no_observations_is_zero(self):
        tree = tree_from_leaves(np.zeros(8, dtype=int), np.zeros(8, dtype=int), STD)
        assert log_bf(tree, 1.0) == 0.0

    def test_monotone_evidence_under_duplication(self):
        single = tree_from_leaves([2, 0], [0, 2], STD)
        doubled = tree_from_leaves([4, 0], [0, 4], STD)
        assert log_bf(doubled, 1.0) > log_bf(single, 1.0)

    def test_inconsistent_counts_rejected(self):
        # the dense build conserves counts by construction; a model file
        # whose leaf counts disagree with its group sizes is refused
        rng = np.random.default_rng(2)
        x = rng.normal(size=(12, 2))
        doc = fit_model(x, np.array([1, 0] * 6), 1.0, depth=1).to_json_dict()
        doc["variables"][0]["leaf1"] = [1, 0]
        with pytest.raises(InputError):
            FittedModel.from_json_dict(doc)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, 0.0, -1.0,
                                   [1.0, math.nan], [math.inf, 1.0],
                                   [[1.0], [math.nan]], [[1.0], [5.0], [math.inf]]],
                             ids=["nan", "inf", "-inf", "zero", "negative",
                                  "vector-nan", "vector-inf", "column-nan", "stack-inf"])
    @pytest.mark.parametrize("depth", [1, 3])
    def test_non_finite_or_non_positive_c_rejected(self, c, depth):
        # at depth 1 the one scored layer has alpha 1, so c never reaches log_gamma's own check
        rng = np.random.default_rng(3)
        forest = TreeForest.from_matrix(rng.normal(size=(16, 2)), np.array([1, 0] * 8), depth)
        with pytest.raises(DomainError, match="finite and positive"):
            log_bayes_factors(forest, c)

    @pytest.mark.parametrize("c", [200.0, np.nextafter(100.0, 101.0), [1.0, 100.5],
                                   [[1.0], [200.0]]],
                             ids=["200", "just-above-100", "vector", "column"])
    def test_c_above_the_fit_range_rejected(self, c):
        # the evidence takes the c that fit, select-c and model files take
        rng = np.random.default_rng(3)
        forest = TreeForest.from_matrix(rng.normal(size=(16, 2)), np.array([1, 0] * 8), 3)
        with pytest.raises(DomainError, match=r"\(0, 100\]"):
            log_bayes_factors(forest, c)
        assert np.all(np.isfinite(log_bayes_factors(forest, 100.0)))

    def test_stack_of_vectors_rejected(self):
        # a stack of settings is a (k, 1) column of scalars; per-variable
        # vectors are scored one call each
        rng = np.random.default_rng(3)
        forest = TreeForest.from_matrix(rng.normal(size=(16, 2)), np.array([1, 0] * 8), 3)
        with pytest.raises(InputError, match=r"\(k, 1\) column"):
            log_bayes_factors(forest, [[1.0, 5.0], [5.0, 1.0]])


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_sparse_equals_dense(self, seed):
        col, labels, c, depth = random_case(seed)
        tree = tree_of(col, labels, depth)
        ours = log_bf(tree, c)
        ref = dense_log_bayes_factor(path_map(tree), depth, c)
        # both sides take math.lgamma; only the order of the sums differs
        assert ours == pytest.approx(ref, abs=1e-13)

    def test_identical_samples_case(self):
        # both groups observe the same values: not zero, but must match
        # the dense enumeration exactly
        rng = np.random.default_rng(77)
        values = rng.normal(size=15)
        col = np.concatenate([values, values])
        labels = np.array([1] * 15 + [0] * 15)
        tree = TreeForest.from_matrix(col[:, None], labels, 4)
        ours = log_bf(tree, 1.0)
        ref = dense_log_bayes_factor(path_map(tree), 4, 1.0)
        assert ours == pytest.approx(ref, abs=1e-13)


class TestSymmetries:
    @pytest.mark.parametrize("seed", range(10))
    def test_label_swap(self, seed):
        col, labels, c, depth = random_case(seed, n_max=40)
        tree = tree_of(col, labels, depth)
        swapped = tree_of(col, 1 - labels, depth)
        assert log_bf(tree, c) == pytest.approx(
            log_bf(swapped, c), abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        col = rng.normal(size=50)
        labels = rng.integers(0, 2, size=50)
        while labels.sum() in (0, 50):
            labels = rng.integers(0, 2, size=50)
        moved = 3.0 * col + 5.0
        tree1 = tree_of(col, labels, 5)
        tree2 = tree_of(moved, labels, 5)
        v1 = log_bf(tree1, 2.0)
        v2 = log_bf(tree2, 2.0)
        assert v1 == pytest.approx(v2, abs=1e-9)
        assert np.array_equal(leaves_of(tree1, col[:10, None]), leaves_of(tree2, moved[:10, None]))


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
            implemented = log_bf(tree, 1.0)
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
            direct = log_bf(tree_of(x[:, j], y, 5, centring), float(c[j]))
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
    """The log-gamma values are taken once per distinct (value group, count)
    of a layer's plan, a scalar c being one group and a vector one per
    distinct value; the per-node `log_beta` evaluation kept in the oracles
    is the reference."""

    @pytest.mark.parametrize("setting, p", [(1, 40), (2, 40), (2, 1100)],
                             ids=["1", "2", "three blocks"])
    def test_ladder_values_bit_identical(self, setting, p):
        # at p = 1100 and depth 8 the deepest parent layer's plans are three
        # blocks of 512, 512 and 76 variables
        forest = simulated_forest(setting, p=p)
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


# smoothing values with at most three fractional bits: alpha = c (l - 1)**2
# and every a + k and 2a + k are exact, so the plan's 2a + (x + y) and the
# oracle's (a + x) + (a + y) are the same double even when alpha is not an
# integer
dyadic_c = st.integers(1, 800).map(lambda m: m / 8.0)


def heavy_tailed_forest(seed, depth, p):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 80))
    return TreeForest.from_matrix(rng.standard_t(3, size=(n, p)), np.arange(n) % 2, depth)


class TestEvidencePlan:
    """Each parent layer is planned once, a block of variables at a time, and
    every setting is scored from each block's plan."""

    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 5), p=st.integers(1, 6),
           c=st.one_of(dyadic_c, st.lists(dyadic_c, min_size=6, max_size=6, unique=True)))
    @settings(max_examples=60, deadline=None)
    def test_plan_equals_the_direct_walk_bit_for_bit(self, seed, depth, p, c):
        # scalar c, and p distinct per-variable values; integer and
        # non-integer alphas both occur
        forest = heavy_tailed_forest(seed, depth, p)
        c = c if np.isscalar(c) else np.asarray(c[:p])
        assert np.array_equal(log_bayes_factors(forest, c), direct_log_bayes_factors(forest, c))

    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 5), p=st.integers(1, 6),
           scalars=st.lists(dyadic_c, min_size=1, max_size=4),
           vectors=st.lists(st.lists(dyadic_c, min_size=6, max_size=6), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_stacked_settings_equal_single_calls_bit_for_bit(self, seed, depth, p, scalars,
                                                             vectors):
        # a (k, 1) column of scalars: row r is the call at row r alone, as a
        # scalar or a broadcast vector; a per-variable vector, one value group
        # per distinct value, takes each variable's bits from the column
        forest = heavy_tailed_forest(seed, depth, p)
        values = sorted(set(scalars).union(*(v[:p] for v in vectors)))
        rows = log_bayes_factors(forest, np.array(values)[:, None])
        assert rows.shape == (len(values), p)
        for row, c in zip(rows, values):
            assert np.array_equal(row, log_bayes_factors(forest, c))
            assert np.array_equal(row, log_bayes_factors(forest, [c] * p))
            assert np.array_equal(row, direct_log_bayes_factors(forest, c))
        for v in vectors:
            ours = log_bayes_factors(forest, v[:p])
            assert np.array_equal(ours, rows[[values.index(x) for x in v[:p]], np.arange(p)])
            assert np.array_equal(ours, direct_log_bayes_factors(forest, v[:p]))

    def test_blocks_of_a_layer_equal_single_calls_bit_for_bit(self):
        # the deepest parent layer spans three blocks of variables (512, 512
        # and 76 at depth 8): each row of a column is still its single call,
        # and a mixed vector each variable's row, bit for bit
        # (test_ladder_values_bit_identical checks this forest's single calls
        # against the direct walk)
        forest = simulated_forest(2, p=1100)
        assert forest.depth == 8 and forest.p > 2 * (_BLOCK_VALUES >> 7)
        values = LADDER + (2.5,)
        rows = log_bayes_factors(forest, np.array(values)[:, None])
        for row, c in zip(rows, values):
            assert np.array_equal(row, log_bayes_factors(forest, c))
            assert np.array_equal(row, log_bayes_factors(forest, np.full(forest.p, c)))
        pick = np.random.default_rng(3).integers(len(values), size=forest.p)
        mixed = np.array(values)[pick]
        assert np.array_equal(log_bayes_factors(forest, mixed), rows[pick, np.arange(forest.p)])

    @pytest.mark.parametrize("c", ["scalar", "per variable"])
    def test_one_block_plan_held_at_a_time(self, c):
        # 3072 variables at depth 8: the deepest parent layer has 393,216
        # nodes, six blocks of 65,536.  A whole layer's plan and terms took
        # 42 MiB (scalar c) and 93 MiB (per-variable c, then scored per node)
        # here; one block's take under 24 MiB with one value group or five
        rng = np.random.default_rng(9)
        p, width = 3072, 256
        leaf1, leaf0 = (rng.multinomial(1000, np.full(width, 1.0 / width), size=p)
                        for _ in range(2))
        forest = TreeForest.from_leaves(np.zeros(p), np.ones(p), leaf1, leaf0)
        del leaf1, leaf0
        c = 5.0 if c == "scalar" else rng.choice(LADDER, size=p)
        peak, _ = traced_peak(lambda: log_bayes_factors(forest, c))
        assert peak < 24 << 20

    @pytest.mark.parametrize("leaf1, leaf0, ranked", [
        ([20000, 7000, 3, 0, 1, 2500, 0, 9], [1, 15000, 8000, 2, 0, 4000, 1200, 77],
         (False, False, False)),
        ([40000, 7000, 3, 0, 1, 2500, 0, 9000], [1, 30000, 8000, 2, 0, 4000, 14000, 77],
         (True, True, True)),
        ([20000, 7000, 3, 0, 1, 2500, 0, 20496], [1, 15000, 8000, 2, 0, 4000, 1200, 21797],
         (False, False, True)),
    ], ids=["pair keys", "pair ranks", "groups past the pair keys"])
    def test_counts_past_the_four_count_packing(self, monkeypatch, leaf1, leaf0, ranked):
        # n1 + n0 >= 55,109: four counts packed with base n + 1 would
        # overflow int64.  The plan packs the value group and each group's
        # (left, right) pair, then the two pair keys, or past 2**63 the two
        # pair ranks: at n1 = n0 = 50,000 one value group (c = 1, 2.5) packs
        # pair keys and two (c = [1, 50]) take the ranks.  The ranks are
        # taken of the two pairs and then of the key, the key alone otherwise
        forest = TreeForest.from_leaves([0.0, 0.0], [1.0, 1.0], [leaf1, leaf1[::-1]],
                                        [leaf0, leaf0[::-1]])
        assert forest.n1 + forest.n0 >= 55_109
        calls = []
        ranks = ptda.bnp_test._ranks
        monkeypatch.setattr(ptda.bnp_test, "_ranks", lambda key: calls.append(1) or ranks(key))
        for c, by_rank in zip((1.0, 2.5, [1.0, 50.0]), ranked):
            calls.clear()
            ours = log_bayes_factors(forest, c)
            assert len(calls) == forest.depth * (3 if by_rank else 1)
            assert np.array_equal(ours, direct_log_bayes_factors(forest, c))
            cs = np.broadcast_to(c, (2,))
            oracle = [dense_log_bayes_factor(path_map(forest, j), 3, float(cs[j])) for j in range(2)]
            # log-gamma terms of magnitude ~1e5 sum to an evidence of ~2e4,
            # in a different order on each side: an ulp or so apart
            assert ours == pytest.approx(oracle, rel=1e-15)
