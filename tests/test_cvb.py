"""Selection sweeps, class probabilities, and model round-trips."""

import json
import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptda
from ptda.cvb import (
    ClassProbabilities,
    FittedModel,
    Hyperparameters,
    classify,
    complexity_weight,
    fit_model,
    log_path_probability_matrix,
    prior_log_odds,
    update_omega,
    update_psi,
)
from ptda.bnp_test import log_bayes_factors
from ptda.errors import DomainError, InputError
from ptda.polya_tree import (_BLOCK_VALUES, TreeForest, blocks, default_depth,
                             leaf_log_odds_table, leaf_log_path_tables, predictive_density)
from ptda.dataio import Dataset, preprocess, split_folds
from ptda.evalharness import cross_validate, run_simulation_study
from ptda.simgen import SimulationSpec, generate
from ptda.smoothing import assign_bins, expected_pvalue, select_c

from adapters import LADDER, leaves_of, simulated_forest, tree_from_leaves
from conftest import traced_peak
from oracles import direct_leaf_log_path_tables, jacobi_omega, node_counts, sweep_omega


def training_model(seed=0, n=40, p=6, c=1.0, shift=1.5, **kwargs):
    rng = np.random.default_rng(seed)
    y = np.array([1, 0] * (n // 2))
    x = rng.normal(size=(n, p))
    x[:, 0] += shift * y  # one informative variable
    return x, y, fit_model(x, y, c, **kwargs)


class TestHyperparameters:
    def test_validation(self):
        with pytest.raises(DomainError):
            Hyperparameters(u=1.0)
        with pytest.raises(DomainError):
            Hyperparameters(a_y=0.0)
        for name in ("u", "a_y", "b_y"):
            with pytest.raises(DomainError, match="finite"):
                Hyperparameters(**{name: math.inf})
        assert Hyperparameters().u == 1.5

    def test_complexity_weight_beyond_the_double_range_refused(self):
        # 80**162 is about 2e308; both of its users raise the same error
        assert complexity_weight(80, 2.0) == 6400.0
        assert complexity_weight(80, 161.0) == 80.0 ** 161
        for u in (162.0, 200.0):
            with pytest.raises(DomainError, match="double range"):
                complexity_weight(80, u)
        with pytest.raises(DomainError, match="double range"):
            update_omega(np.zeros(80), Hyperparameters(u=200.0))
        with pytest.raises(DomainError, match="double range"):
            expected_pvalue(np.full(80, 0.5), np.full(80, 0.5), 80, 200.0)


class TestUpdateOmega:
    def test_zero_evidence_first_sweep(self):
        # with zero evidence each update is (1 + S_-j) / (p**u + p), here / 20
        state = update_omega(np.zeros(4), Hyperparameters(u=2.0), tol=1e-30, max_iter=1)
        assert state.omega[0] == pytest.approx(2.5 / 20.0, abs=1e-15)
        # later coordinates see the updated earlier ones within the sweep
        assert state.omega[1] == pytest.approx(2.125 / 20.0, abs=1e-15)

    def test_huge_evidence_saturates_open(self):
        state = update_omega(np.array([1e6]), Hyperparameters())
        assert 0.0 < state.omega[0] < 1.0
        assert state.omega[0] > 1.0 - 1e-12

    def test_matches_independent_fixed_point(self):
        # frozen from a Jacobi iteration and a root finder agreeing to 1e-16
        state = update_omega(np.array([2.0, -2.0]), Hyperparameters(u=1.5),
                             tol=1e-28, max_iter=10000)
        assert state.converged
        assert state.omega[0] == pytest.approx(0.6770553230012388, abs=1e-8)
        assert state.omega[1] == pytest.approx(0.0671823997359901, abs=1e-8)
        live = jacobi_omega([2.0, -2.0], 2, 1.5, [0.5, 0.5])
        np.testing.assert_allclose(state.omega, live, atol=1e-10)

    def test_determinism(self):
        rng = np.random.default_rng(2)
        bf = rng.normal(size=30)
        a = update_omega(bf, Hyperparameters())
        b = update_omega(bf, Hyperparameters())
        assert np.array_equal(a.omega, b.omega)
        assert a.iteration == b.iteration

    @given(st.floats(-5.0, 5.0), st.floats(0.1, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_evidence(self, bf, bump):
        base = update_omega(np.array([bf, 0.3]), Hyperparameters(), max_iter=1)
        more = update_omega(np.array([bf + bump, 0.3]), Hyperparameters(), max_iter=1)
        assert more.omega[0] > base.omega[0]

    def test_penalty_decreasing_in_u(self):
        low = update_omega(np.full(5, 1.0), Hyperparameters(u=1.2), max_iter=1)
        high = update_omega(np.full(5, 1.0), Hyperparameters(u=3.0), max_iter=1)
        assert np.all(high.omega < low.omega)

    def test_open_interval_invariant(self):
        state = update_omega(np.array([800.0, -800.0]), Hyperparameters())
        assert np.all(state.omega > 0.0) and np.all(state.omega < 1.0)

    def test_nan_evidence_refused_and_infinite_evidence_clamped(self):
        # a NaN would otherwise select its variable (omega 1 - 2**-53); an
        # infinite log BF is clamped like any beyond ETA_CLAMP
        with pytest.raises(InputError, match="must not be NaN"):
            update_omega([math.nan, 1.0], Hyperparameters())
        infinite = update_omega([math.inf, -math.inf, 1.0], Hyperparameters())
        clamped = update_omega([800.0, -800.0, 1.0], Hyperparameters())
        assert np.array_equal(infinite.omega, clamped.omega)

    def test_preconditions(self):
        with pytest.raises(InputError):
            update_omega(np.array([]), Hyperparameters())
        # an infinite tol would end the first sweep as converged
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="positive and finite"):
                update_omega(np.zeros(3), Hyperparameters(), tol=tol)


class TestUpdateOmegaAgainstSweepOracle:
    """The inlined sweep against the one written with expit and min/max: bitwise."""

    @staticmethod
    def assert_same(log_bf, hyper, **kwargs):
        state = update_omega(log_bf, hyper, **kwargs)
        omega, sweeps, converged = sweep_omega(log_bf, hyper.u, **kwargs)
        assert np.array_equal(state.omega, np.array(omega))
        assert (state.iteration, state.converged) == (sweeps, converged)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_evidence(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 400))
        scale = (0.5, 3.0, 30.0, 2000.0)[seed % 4]  # the last reaches past the 700 clamp
        log_bf = rng.normal(scale=scale, size=p)
        hyper = Hyperparameters(u=float(rng.uniform(1.05, 3.0)))
        self.assert_same(log_bf, hyper)
        self.assert_same(log_bf, hyper, tol=1e-30, max_iter=7)
        self.assert_same(log_bf, hyper, tol=1e-12)

    def test_clamp_and_open_interval(self):
        log_bf = np.array([701.0, -701.0, 1e6, -1e6, 700.0, -700.0, 0.0, 36.9, -745.0])
        self.assert_same(log_bf, Hyperparameters())
        self.assert_same(log_bf, Hyperparameters(), tol=1e-30, max_iter=3)


def path_probability(x, tree, group, c):
    """Probability that a point resembling x takes x's path in a one-variable forest."""
    lp1, lp0 = log_path_probability_matrix(tree, c, [[x]])
    return math.exp((lp1 if group == 1 else lp0)[0, 0])


class TestPathProbability:
    def test_empty_counts_halving(self):
        tree = tree_from_leaves(np.zeros(8, dtype=int), np.zeros(8, dtype=int))
        assert path_probability(0.4, tree, 1, 1.0) == pytest.approx(0.125, rel=1e-12)

    def test_single_shared_point(self):
        tree = tree_from_leaves([1, 0], [0, 0])
        # alpha at layer 1 is 1 regardless of c
        assert path_probability(-0.5, tree, 1, 7.0) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_single_opposite_point(self):
        tree = tree_from_leaves([0, 1], [0, 0])
        assert path_probability(-0.5, tree, 1, 7.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_batch_matches_scalar(self):
        x, y, model = training_model(seed=3)
        rng = np.random.default_rng(9)
        new = rng.normal(size=(8, model.p))
        lp1, lp0 = log_path_probability_matrix(model.forest, model.c, new)
        for r in range(8):
            for j in range(model.p):
                tree, c = model.forest.variables([j]), model.c[j]
                # the product form of the path probability, layer by layer
                leaf = int(leaves_of(tree, [[new[r, j]]])[0, 0])
                for group, lp in ((1, lp1), (0, lp0)):
                    counts = node_counts(tree.leaf1 if group == 1 else tree.leaf0)[0]
                    prob, parent = 1.0, counts[1]
                    for level in range(1, tree.depth + 1):
                        child = counts[(1 << level) + (leaf >> (tree.depth - level))]
                        a = 1.0 if level == 1 else c * (level - 1) ** 2
                        prob *= (a + child) / (2.0 * a + parent)
                        parent = child
                    assert math.exp(lp[r, j]) == pytest.approx(prob, rel=1e-10)
                    assert path_probability(new[r, j], tree, group, c) == pytest.approx(prob, rel=1e-10)


class TestLeafLogPathTables:
    @pytest.mark.parametrize("setting", [1, 2])
    def test_bit_identical_to_the_direct_walk(self, setting):
        # the parent terms are broadcast by reshape instead of repeated, in
        # the direct walk's association, so at any c
        forest = simulated_forest(setting)
        rng = np.random.default_rng(2)
        for c in LADDER + (0.3, 7.7, rng.choice(LADDER, size=forest.p),
                           rng.uniform(0.2, 100.0, size=forest.p)):
            ours, ref = leaf_log_path_tables(forest, c), direct_leaf_log_path_tables(forest, c)
            assert np.array_equal(ours[0], ref[0]) and np.array_equal(ours[1], ref[1])


class TestLeafLogOddsTable:
    @pytest.mark.parametrize("c, rows", [("scalar", None), ("per variable", None),
                                         ("per variable", "subset")])
    def test_blocks_equal_one_walk_bit_for_bit(self, c, rows):
        # 1100 variables at depth 8 fill five blocks of 256 (the last 76):
        # the blocked table is the one walk's lp1 - lp0 on every row
        forest = simulated_forest(2, p=1100)
        assert forest.depth == 8 and forest.p > 4 * (_BLOCK_VALUES >> 8)
        rng = np.random.default_rng(4)
        c = 5.0 if c == "scalar" else rng.choice(LADDER, size=forest.p)
        lp1, lp0 = leaf_log_path_tables(forest, c)
        if rows is None:
            assert np.array_equal(leaf_log_odds_table(forest, c), lp1 - lp0)
        else:  # a sub-forest of 700 variables in any order, each with its own c
            rows = rng.permutation(forest.p)[:700]
            assert np.array_equal(leaf_log_odds_table(forest.variables(rows), c[rows]),
                                  (lp1 - lp0)[rows])

    def test_model_table_build_holds_one_block(self):
        # a (1000, 1024) table is 7.8 MiB; the walk over all variables held
        # both groups' tables and a layer's temporaries, about three tables
        # (25.5 MiB), while the blocked build holds the table and one block's
        # walk, under twelve float64 blocks of _BLOCK_VALUES (6 MiB)
        _, _, model = training_model(n=64, p=1000, depth=10)
        peak, table = traced_peak(lambda: model.leaf_log_odds)
        assert table.shape == (1000, 1024)
        assert peak < table.nbytes + 12 * _BLOCK_VALUES * 8


class TestUpdatePsi:
    def _zero_omega_model(self, n1, n0, a_y=1.0, b_y=1.0):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(n1 + n0, 3))
        y = np.array([1] * n1 + [0] * n0)
        model = fit_model(x, y, 1.0, hyper=Hyperparameters(a_y, b_y, 1.5))
        model.selection.omega = np.zeros(model.p)
        return model

    def test_balanced_no_signal_is_half(self):
        model = self._zero_omega_model(12, 12)
        psi = update_psi(model, np.zeros((5, 3)))
        np.testing.assert_allclose(psi.psi, 0.5, atol=1e-15)

    def test_prior_odds_only_rule(self):
        model = self._zero_omega_model(300, 100)
        psi = update_psi(model, np.zeros((1, 3)))
        exact = 1.0 / (1.0 + (1.0 + 100) / (1.0 + 300))
        assert psi.psi[0] == pytest.approx(exact, abs=1e-14)
        assert psi.psi[0] == pytest.approx(0.75, abs=0.005)

    def test_single_variable_hand_evaluation(self):
        # depth-2 tree, one variable, omega forced to 1: psi must equal the
        # hand-evaluated expit of prior odds + log path-probability ratio
        x = np.array([[-1.2], [-0.8], [-1.0], [0.9], [1.1], [1.3]])
        y = np.array([1, 1, 1, 0, 0, 0])
        model = fit_model(x, y, 1.0, depth=2)
        model.selection.omega = np.ones(1)
        x_new = np.array([[-1.0]])
        tree, c = model.forest.variables([0]), model.c[0]
        pi1 = path_probability(-1.0, tree, 1, c)
        pi0 = path_probability(-1.0, tree, 0, c)
        expected = 1.0 / (1.0 + math.exp(-(math.log(4.0 / 4.0) + math.log(pi1) - math.log(pi0))))
        psi = update_psi(model, x_new)
        assert psi.psi[0] == pytest.approx(expected, rel=1e-12)
        assert psi.psi[0] > 0.8  # the new point sits with group 1

    def test_dimension_mismatch(self):
        _, _, model = training_model()
        with pytest.raises(InputError):
            update_psi(model, np.zeros((2, model.p + 1)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_refused(self, bad):
        x, _, model = training_model()
        points = x[:3].copy()
        points[1, 2] = bad
        with pytest.raises(InputError):
            update_psi(model, points)


    def _blocked(self, monkeypatch):
        # blocks of 16 rows: 53 points span three full blocks and a ragged one of 5
        x, _, model = training_model(shift=3.0)
        monkeypatch.setattr(ptda.polya_tree, "_BLOCK_VALUES", 16 * model.p)
        points = np.random.default_rng(8).normal(size=(53, model.p)) + x[:1]
        assert [len(range(53)[b]) for b in blocks(53, model.p)] == [16, 16, 16, 5]
        return model, points

    def test_blocked_rows_match_one_call(self, monkeypatch):
        model, points = self._blocked(monkeypatch)
        flat = model.forest.flat_leaves(points)
        prior = prior_log_odds(model.hyper, model.forest)
        eta = prior + np.take(model.leaf_log_odds, flat) @ model.omega
        reference = ClassProbabilities(1.0 / (1.0 + np.exp(-eta)))
        psi = update_psi(model, points)
        np.testing.assert_allclose(psi.psi, reference.psi, rtol=1e-12, atol=0)
        # each row's psi is the bits it has in one block of all 53 rows
        monkeypatch.setattr(ptda.polya_tree, "_BLOCK_VALUES", 53 * model.p)
        assert np.array_equal(psi.psi, update_psi(model, points).psi)
        assert np.array_equal(classify(psi), classify(reference))
        assert 0 < classify(psi).sum() < len(points)

    def test_non_finite_point_in_the_last_block_refused(self, monkeypatch):
        model, points = self._blocked(monkeypatch)
        points[-1, 0] = math.nan
        with pytest.raises(InputError, match="finite"):
            update_psi(model, points)

    def test_no_points_give_no_probabilities(self, monkeypatch):
        model, _ = self._blocked(monkeypatch)
        assert update_psi(model, np.zeros((0, model.p))).psi.shape == (0,)

    def test_scoring_holds_no_point_sized_temporary(self):
        # one (m, p) temporary is 8 MiB here; the blocked path holds about
        # 1.8 MiB whatever m is (the (m,) result, three 0.5-MiB block arrays:
        # the standardized values, the clip buffer that then takes the
        # gathered boundaries, the bucket index that becomes the leaf, and
        # the 0.25-MiB int32 gather of the bucket's cells)
        m, p = 4096, 256
        _, _, model = training_model(n=64, p=p)
        model.leaf_log_odds  # built and kept before the scoring is traced
        points = np.random.default_rng(6).normal(size=(m, p))
        peak, _ = traced_peak(lambda: update_psi(model, points))
        assert peak < m * p * 8 / 4

    def test_wide_points_are_located_in_tiles(self):
        # 16 points of 50,000 variables are scored in blocks of one row, each
        # located a tile of about _BLOCK_VALUES values at a time, so neither
        # the (16, p) flat index nor the gather of log-odds (6.1 MiB at
        # float64) is held, nor a (16, p) float temporary of the locator
        m, p = 16, 50000
        _, _, model = training_model(n=32, p=p)
        model.leaf_log_odds  # built and kept before the scoring is traced
        points = np.random.default_rng(9).normal(size=(m, p))
        peak, _ = traced_peak(lambda: update_psi(model, points))
        assert peak < 0.5 * points.nbytes

    def test_far_finite_point_goes_to_the_outer_cell_without_warning(self):
        # with sds near 0.1, (x - mean) / sd at 1e308 passes the double range:
        # z is +-inf, in the outer cell, where a point at 1e3 also is
        rng = np.random.default_rng(6)
        model = fit_model(rng.normal(scale=0.1, size=(40, 3)), np.arange(40) % 2, 1.0)
        far = np.array([[1e308, -1e308, 1.7e308]])
        top = (1 << model.forest.depth) - 1
        assert leaves_of(model.forest, far).tolist() == [[top, 0, top]]
        near = np.array([[1e3, -1e3, 1e3]])
        assert np.array_equal(update_psi(model, far).psi, update_psi(model, near).psi)

    def test_unconverged_model_refused(self):
        # max_iter is the caller's to choose, so its outcome is an input error
        x, _, model = training_model(max_iter=1, tol=1e-30)
        assert not model.selection.converged
        with pytest.raises(InputError, match="did not converge.*larger max_iter"):
            update_psi(model, x[:3])

class TestConvergenceWarning:
    def test_unconverged_fit_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="ptda"):
            _, _, model = training_model(max_iter=1, tol=1e-30)
        assert not model.selection.converged
        [record] = caplog.records
        assert record.name == "ptda.cvb" and record.levelno == logging.WARNING
        assert "max_iter=1" in record.getMessage()

    def test_converged_fit_is_silent(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="ptda"):
            _, _, model = training_model()
        assert model.selection.converged
        assert caplog.records == []

    def test_silent_by_default(self):
        # a fresh interpreter with no logging configuration prints nothing
        script = ("import numpy as np\n"
                  "from ptda.cvb import fit_model\n"
                  "x = np.random.default_rng(0).normal(size=(20, 3))\n"
                  "fit_model(x, np.array([1, 0] * 10), 1.0, max_iter=1, tol=1e-30)\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ptda.__file__)))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "" and done.stderr == ""


class TestClassify:
    def test_tie_goes_to_group_one(self):
        assert classify(ClassProbabilities(np.array([0.5])))[0] == 1

    def test_threshold(self):
        out = classify(ClassProbabilities(np.array([0.49, 0.51])))
        assert out.tolist() == [0, 1]

    def test_threshold_domain(self):
        with pytest.raises(InputError):
            classify(ClassProbabilities(np.array([0.5])), threshold=0.0)
        with pytest.raises(InputError):
            classify(ClassProbabilities(np.array([0.5])), threshold=1.0)


class TestSmoothingShape:
    @pytest.mark.parametrize("c, message", [
        ([1.0, 2.0], "or 3, one per variable"), (np.ones((1, 1, 3)), "or 3, one per variable"),
        ("a", "must be numbers"), ([1.0, "a", 2.0], "must be numbers"),
    ], ids=["wrong length", "3-D", "string", "a string among numbers"])
    def test_fit_evidence_and_leaf_table_raise_input_error(self, c, message):
        # a c that is not one number or p of them is refused as input, naming p
        x, y, model = training_model(p=3)
        for call in (lambda: fit_model(x, y, c), lambda: log_bayes_factors(model.forest, c),
                     lambda: leaf_log_odds_table(model.forest, c)):
            with pytest.raises(InputError, match=message):
                call()


class TestFittedModel:
    def test_models_hold_only_the_leaf_counts(self, tmp_path):
        # a fitted, a selected and a loaded model each keep their counts as
        # the two (p, 2**depth) leaf arrays, uint8 at these 50 points, also
        # once they have scored: the layers above the leaves are summed where
        # they are read
        train, test, _ = generate(SimulationSpec(3, 50, 10, 20, 4, 5))
        fitted = fit_model(train.matrix, train.labels, 5.0)
        _, selected = select_c(train.matrix, train.labels, grid=(1.0, 5.0), seed=5)
        fitted.save(tmp_path / "model.json")
        loaded = FittedModel.load(tmp_path / "model.json")
        for model in (fitted, selected, loaded):
            update_psi(model, test.matrix)
            forest = model.forest
            counts = [v for v in vars(forest).values()
                      if isinstance(v, np.ndarray) and v.ndim == 2]
            assert [v.dtype for v in counts] == [np.uint8] * 2
            assert sum(v.size for v in counts) == 2 * forest.p << forest.depth
            assert [v.shape for v in counts] == [(forest.p, 1 << forest.depth)] * 2

    def test_json_round_trip_preserves_reals(self, tmp_path):
        x, y, model = training_model(seed=8, n=30, p=4, c=2.5)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = FittedModel.load(path)
        np.testing.assert_allclose(loaded.omega, model.omega, rtol=1e-15)
        # json round-trips repr floats exactly
        doc = json.loads(path.read_text())
        assert doc["variables"][0]["omega"] == model.omega[0]
        assert np.array_equal(loaded.forest.leaf1, model.forest.leaf1)
        assert np.array_equal(loaded.forest.leaf0, model.forest.leaf0)
        assert np.array_equal(loaded.c, model.c)

    def test_loaded_model_predicts_identically(self, tmp_path):
        x, y, model = training_model(seed=12, n=40, p=5)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = FittedModel.load(path)
        rng = np.random.default_rng(1)
        new = rng.normal(size=(12, 5))
        a = update_psi(model, new)
        b = update_psi(loaded, new)
        np.testing.assert_allclose(a.psi, b.psi, rtol=1e-12)

    def test_standardization_folded_into_saved_centring(self, tmp_path):
        # the centring Gaussian is the model's only scale: it is saved as the
        # raw columns' exact sample moments and nothing else rescales a point
        rng = np.random.default_rng(3)
        raw = rng.normal(loc=50.0, scale=9.0, size=(30, 2))
        y = np.array([1, 0] * 15)
        model = fit_model(raw, y, 1.0)
        path = tmp_path / "m.json"
        model.save(path)
        saved = json.loads(path.read_text())["variables"]
        assert [v["mean"] for v in saved] == raw.mean(axis=0).tolist()
        assert [v["sd"] for v in saved] == raw.std(axis=0, ddof=1).tolist()
        loaded = FittedModel.load(path)
        new = rng.normal(loc=50.0, scale=9.0, size=(6, 2))
        assert np.array_equal(update_psi(loaded, new).psi, update_psi(model, new).psi)

    def test_round_trip_psi_is_bitwise(self, tmp_path):
        x, y, model = training_model(seed=14, n=40, p=5, c=[1.0, 5.0, 10.0, 50.0, 100.0])
        path = tmp_path / "model.json"
        model.save(path)
        loaded = FittedModel.load(path)
        new = np.random.default_rng(2).normal(size=(20, 5))
        assert np.array_equal(update_psi(loaded, new).psi, update_psi(model, new).psi)

    def test_selection_state_persisted(self, tmp_path):
        x, y, model = training_model(seed=15, max_iter=1, tol=1e-30)
        assert not model.selection.converged
        path = tmp_path / "model.json"
        model.save(path)
        loaded = FittedModel.load(path)
        assert loaded.selection.iteration == model.selection.iteration == 1
        assert loaded.selection.converged is False

    @pytest.mark.parametrize("names", [["a"], ["a"] * 5, [1, 2, 3, 4, 5], "abcde"],
                             ids=["too-few", "duplicate", "not-strings", "one-string"])
    def test_fit_refuses_names_a_model_file_cannot_hold(self, names):
        # the loader's rule at fit time: save would drop the unnamed variables,
        # or write a file that load refuses
        x, y, _ = training_model(seed=8, n=30, p=5)
        with pytest.raises(InputError, match="^the variables' names must be distinct strings$"):
            fit_model(x, y, 1.0, names=names)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("format"),
        lambda doc: doc.update(format=1),
        lambda doc: doc["variables"][0]["leaf1"].__setitem__(0, -1),
        lambda doc: doc["variables"][0]["leaf1"].__setitem__(0, 1.5),
        lambda doc: doc["variables"][0]["leaf0"].append(0),
        lambda doc: doc.update(n1=-5),
        lambda doc: doc["variables"][1].pop("leaf0"),
        lambda doc: doc["variables"][0].update(mean="0.5"),
        lambda doc: doc["variables"][1].update(mean=True),
        lambda doc: doc["variables"][1].update(sd=None),
        lambda doc: doc["variables"][2].update(sd=0.0),
        lambda doc: doc["variables"][0].update(sd=math.nan),
        lambda doc: doc["variables"][0].update(c="1.0"),
        lambda doc: doc["variables"][1].update(c=True),
        lambda doc: doc["variables"][0].update(omega=math.nan),
        lambda doc: doc["variables"][1].update(omega=math.inf),
        lambda doc: doc["variables"][1].update(omega=5.0),
        lambda doc: doc["variables"][2].update(omega=-2.0),
        lambda doc: doc["variables"][0].update(omega="0.5"),
        lambda doc: doc["variables"][0].update(omega=True),
        lambda doc: doc["variables"][2].update(name=doc["variables"][0]["name"]),
        lambda doc: doc["variables"][1].update(name=7),
        lambda doc: doc["variables"][1].update(name=None),
        lambda doc: doc.update(iteration="7"),
        lambda doc: doc.update(iteration=7.9),
        lambda doc: doc.update(iteration=True),
        lambda doc: doc.update(iteration=-3),
        lambda doc: doc.update(converged="yes"),
        lambda doc: doc.update(converged=1),
        lambda doc: doc.update(converged=None),
        lambda doc: doc["variables"][0].update(mean=10 ** 400),
        lambda doc: (lambda row: row.__setitem__(row.index(1), True))(doc["variables"][0]["leaf1"]),
        lambda doc: doc["variables"][0]["leaf0"].__setitem__(0, 2 ** 64),
        lambda doc: doc.update(n1=float(doc["n1"])),
        lambda doc: doc["hyperparameters"].update(a_y=True),
        # four counts 2**62 larger each: the int64 sums wrap back to n1
        lambda doc: [doc["variables"][0]["leaf1"].__setitem__(k, doc["variables"][0]["leaf1"][k]
                                                              + 2 ** 62) for k in range(4)],
    ], ids=["no-format", "format-1", "negative", "non-integer", "wrong-length",
            "sum-differs", "missing-key", "mean-string", "mean-bool", "sd-null", "sd-zero", "sd-nan",
            "c-string", "c-bool", "omega-nan", "omega-inf", "omega-above-1", "omega-negative", "omega-string",
            "omega-bool", "duplicate-names", "name-int", "name-null", "iteration-string",
            "iteration-float", "iteration-bool", "iteration-negative", "converged-string",
            "converged-int", "converged-null", "mean-huge-integer", "leaf-count-true",
            "leaf-count-huge-integer", "n1-float", "a_y-bool", "leaf-sum-wraps-int64"])
    def test_loader_rejects_malformed(self, edit):
        _, _, model = training_model(seed=16, n=20, p=3)
        doc = json.loads(json.dumps(model.to_json_dict()))
        edit(doc)
        with pytest.raises(InputError):
            FittedModel.from_json_dict(doc)

    @pytest.mark.parametrize("value", [True, 1.0, "1", None], ids=["bool", "float", "string", "null"])
    @pytest.mark.parametrize("group", [1, 0])
    def test_loader_refuses_a_non_integer_count_in_the_last_variable(self, group, value):
        # the rows are type-checked in one pass over all their values, so the
        # last variable's last count is reached, with the same message
        _, _, model = training_model(seed=16, n=20, p=3)
        doc = json.loads(json.dumps(model.to_json_dict()))
        doc["variables"][-1][f"leaf{group}"][-1] = value
        with pytest.raises(InputError, match=f"^every group-{group} leaf count must be an integer$"):
            FittedModel.from_json_dict(doc)

    @pytest.mark.parametrize("group", [1, 0])
    def test_loader_refuses_a_count_past_int32(self, group):
        # counts past 65,535 points are held as int32: n_g = 2**31 passes the
        # int64 sum check, then is refused before any count is cast; 2**31 - 1
        # loads unwrapped
        _, _, model = training_model(seed=16, n=20, p=3)
        doc = json.loads(json.dumps(model.to_json_dict()))
        key = f"n{group}"
        for total in (2 ** 31 - 1, 2 ** 31):
            for record in doc["variables"]:
                record[f"leaf{group}"][0] += total - doc[key]
            doc[key] = total
            if total < 2 ** 31:
                loaded = FittedModel.from_json_dict(doc)
                assert (loaded.forest.n1, loaded.forest.n0)[1 - group] == total
                continue
            with pytest.raises(InputError, match="sum past 2147483647, the largest count"):
                FittedModel.from_json_dict(doc)

    def test_loader_accepts_omega_at_the_ends(self):
        _, _, model = training_model(seed=16, n=20, p=3)
        doc = json.loads(json.dumps(model.to_json_dict()))
        doc["variables"][0]["omega"], doc["variables"][1]["omega"] = 0, 1.0
        assert FittedModel.from_json_dict(doc).omega.tolist()[:2] == [0.0, 1.0]

    def test_fit_converges_and_selects_signal(self):
        x, y, model = training_model(seed=5, n=60, p=8, shift=2.5)
        assert model.selection.converged
        assert model.selection.iteration <= 100
        assert model.omega[0] == max(model.omega)


# calls at the library boundary with inputs numpy cannot take as numbers, or
# of the wrong type or shape: each is refused as InputError naming the input,
# not as a bare ValueError, TypeError, AttributeError or IndexError from inside
MALFORMED_CALLS = {
    "fit_model, strings": (lambda x, y, model: fit_model([["a", "b"]] * 4, [1, 0] * 2, 1.0),
                           "matrix's values"),
    "update_psi, strings": (lambda x, y, model: update_psi(model, [["a"] * model.p]), "points"),
    "predictive_density, strings": (
        lambda x, y, model: predictive_density(["a"], model.forest.variables([0]), 1.0), "points"),
    "select_c, string grid": (lambda x, y, model: select_c(x, y, grid="abc"),
                              "smoothing parameters"),
    "update_omega, 2-D": (lambda x, y, model: update_omega(np.zeros((2, 2)), Hyperparameters()),
                          "log Bayes factors"),
    "update_omega, strings": (lambda x, y, model: update_omega(["a"], Hyperparameters()),
                              "log Bayes factors"),
    "from_leaves, 1-D counts": (
        lambda x, y, model: TreeForest.from_leaves([0.0], [1.0], [1, 1], [1, 1]), "leaf counts"),
    "from_leaves, p = 0": (
        lambda x, y, model: TreeForest.from_leaves([], [], np.zeros((0, 2)), np.zeros((0, 2))),
        "leaf counts"),
    "classify, a list": (lambda x, y, model: classify([0.5]), "ClassProbabilities"),
    "classify, string threshold": (
        lambda x, y, model: classify(update_psi(model, x), "a"), "threshold"),
    "Hyperparameters, string": (lambda x, y, model: Hyperparameters("a"), "a_y"),
    "update_omega, int hyper": (lambda x, y, model: update_omega(np.zeros(3), 1), "hyper"),
    "fit_model, int hyper": (lambda x, y, model: fit_model(x, y, 1.0, hyper=1), "hyper"),
    "select_c, int hyper": (lambda x, y, model: select_c(x, y, hyper=1), "hyper"),
    "expected_pvalue, string p-value": (lambda x, y, model: expected_pvalue("a", 0.5, 5, 1.5),
                                        "p-values"),
    "expected_pvalue, string p": (lambda x, y, model: expected_pvalue(0.5, 0.5, "a", 1.5),
                                  "p must be an integer"),
    "assign_bins, strings": (lambda x, y, model: assign_bins(["a"] * 5), "expected p-values"),
    "default_depth, string": (lambda x, y, model: default_depth("a"), "n must be an integer"),
    "default_depth, 2.5": (lambda x, y, model: default_depth(2.5), "n must be an integer"),
    "split_folds, string k": (
        lambda x, y, model: split_folds(Dataset(x, y, model.names), "a"), "k must be an integer"),
    "split_folds, string seed": (
        lambda x, y, model: split_folds(Dataset(x, y, model.names), 2, seed="a"),
        "seed must be an integer"),
    "Dataset, no names": (lambda x, y, model: Dataset(x, y, None), "names"),
    "cross_validate, string threads": (
        lambda x, y, model: cross_validate(Dataset(x, y, model.names), 2, threads="a"),
        "threads must be an integer"),
    "run_simulation_study, string reps": (lambda x, y, model: run_simulation_study(1, "a"),
                                          "reps must be an integer"),
    "SimulationSpec, string p": (lambda x, y, model: SimulationSpec(1, p="a"),
                                 "p must be an integer"),
    "SimulationSpec, n_train 4.5": (
        lambda x, y, model: SimulationSpec(1, n_train=4.5, n_test=10, p=20), "n_train"),
    "preprocess, string floor": (
        lambda x, y, model: preprocess(Dataset(x, y, model.names), "a"), "median_floor"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CALLS))
def test_malformed_input_is_an_input_error(case):
    call, named = MALFORMED_CALLS[case]
    x, y, model = training_model(seed=3, n=12, p=4)
    with pytest.raises(InputError, match=named):
        call(x, y, model)
