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
    fit_model,
    leaf_log_path_tables,
    log_path_probability_matrix,
    update_omega,
    update_psi,
)
from ptda.errors import DomainError, InputError

from adapters import LADDER, simulated_forest, tree_from_leaves
from oracles import direct_leaf_log_path_tables, jacobi_omega, sweep_omega


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
        assert Hyperparameters().u == 1.5


class TestUpdateOmega:
    def test_zero_evidence_first_sweep(self):
        state = update_omega(np.zeros(4), Hyperparameters(u=2.0), tol=1e-30,
                             max_iter=1, omega0=np.zeros(4))
        assert state.omega[0] == pytest.approx(0.05, abs=1e-15)
        # later coordinates see the updated earlier ones within the sweep
        assert state.omega[1] == pytest.approx(1.05 / 20.0, abs=1e-12)

    def test_huge_evidence_saturates_open(self):
        state = update_omega(np.array([1e6]), Hyperparameters())
        assert 0.0 < state.omega[0] < 1.0
        assert state.omega[0] > 1.0 - 1e-12

    def test_matches_independent_fixed_point(self):
        # frozen from a Jacobi iteration and a root finder agreeing to 1e-16
        state = update_omega(np.array([2.0, -2.0]), Hyperparameters(u=1.5),
                             tol=1e-28, max_iter=10000, omega0=np.array([0.5, 0.5]))
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
        base = update_omega(np.array([bf, 0.3]), Hyperparameters(), max_iter=1,
                            omega0=np.array([0.5, 0.5]))
        more = update_omega(np.array([bf + bump, 0.3]), Hyperparameters(), max_iter=1,
                            omega0=np.array([0.5, 0.5]))
        assert more.omega[0] > base.omega[0]

    def test_penalty_decreasing_in_u(self):
        low = update_omega(np.full(5, 1.0), Hyperparameters(u=1.2), max_iter=1,
                           omega0=np.full(5, 0.5))
        high = update_omega(np.full(5, 1.0), Hyperparameters(u=3.0), max_iter=1,
                            omega0=np.full(5, 0.5))
        assert np.all(high.omega < low.omega)

    def test_open_interval_invariant(self):
        state = update_omega(np.array([800.0, -800.0]), Hyperparameters())
        assert np.all(state.omega > 0.0) and np.all(state.omega < 1.0)

    def test_preconditions(self):
        with pytest.raises(InputError):
            update_omega(np.array([]), Hyperparameters())
        with pytest.raises(DomainError):
            update_omega(np.zeros(3), Hyperparameters(), tol=0.0)
        with pytest.raises(DomainError):
            update_omega(np.zeros(3), Hyperparameters(), tol=float("nan"))


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
        self.assert_same(log_bf, hyper, omega0=rng.uniform(size=p))

    def test_clamp_and_open_interval(self):
        log_bf = np.array([701.0, -701.0, 1e6, -1e6, 700.0, -700.0, 0.0, 36.9, -745.0])
        self.assert_same(log_bf, Hyperparameters())
        self.assert_same(log_bf, Hyperparameters(), omega0=np.array([0.0, 1.0] * 4 + [0.5]))


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
                tree, c = model.forest.variable(j), model.c[j]
                # the product form of the path probability, layer by layer
                leaf = int(tree.leaves([[new[r, j]]])[0, 0])
                for group, lp in ((1, lp1), (0, lp0)):
                    counts = (tree.count1 if group == 1 else tree.count0)[0]
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
        tree, c = model.forest.variable(0), model.c[0]
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


class TestFittedModel:
    def test_json_round_trip_preserves_reals(self, tmp_path):
        x, y, model = training_model(seed=8, n=30, p=4, c=2.5)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = FittedModel.load(path)
        np.testing.assert_allclose(loaded.omega, model.omega, rtol=1e-15)
        # json round-trips repr floats exactly
        doc = json.loads(path.read_text())
        assert doc["variables"][0]["omega"] == model.omega[0]
        assert np.array_equal(loaded.forest.count1, model.forest.count1)
        assert np.array_equal(loaded.forest.count0, model.forest.count0)
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
    ], ids=["no-format", "format-1", "negative", "non-integer", "wrong-length",
            "sum-differs", "missing-key", "mean-string", "mean-bool", "sd-null", "sd-zero", "sd-nan",
            "c-string", "c-bool", "omega-nan", "omega-inf", "omega-above-1", "omega-negative", "omega-string",
            "omega-bool", "duplicate-names", "name-int", "name-null", "iteration-string",
            "iteration-float", "iteration-bool", "iteration-negative", "converged-string",
            "converged-int", "converged-null"])
    def test_loader_rejects_malformed(self, edit):
        _, _, model = training_model(seed=16, n=20, p=3)
        doc = json.loads(json.dumps(model.to_json_dict()))
        edit(doc)
        with pytest.raises(InputError):
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
