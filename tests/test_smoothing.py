"""Smoothing-parameter selection: blending, binning, and the grid search."""

import json
import logging
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ptda.smoothing
from ptda.bnp_test import log_bayes_factors
from ptda.cvb import Hyperparameters, classify, fit_model, leaf_log_path_tables, update_psi
from ptda.errors import DomainError, InputError
from ptda.polya_tree import TreeForest
from ptda.rng import SUBSAMPLE_STREAM, substream
from ptda.smoothing import (
    DEFAULT_LADDER,
    SHAPIRO_MAX_N,
    SmoothingReport,
    assign_bins,
    column_pvalues,
    expected_pvalue,
    monotone_tuples,
    select_c,
)
from ptda.stats import ks_two_sample_sorted

import oracles
from oracles import brute_force_ks_distance

# v0 of the column kernels against the per-column oracle: the weight
# matvec and the sum of squares run in another order, and the array CDF is
# within 4 ulp of math.erfc; the largest difference seen at the benchmark
# shapes was 1.3e-12
V0_TOL = 1e-11


def two_group_data(seed=0, n=40, p=6, shift=2.0):
    rng = np.random.default_rng(seed)
    y = np.array([1, 0] * (n // 2))
    x = rng.normal(size=(n, p))
    x[:, 0] += shift * y
    x[:, 1] = rng.exponential(size=n) + 0.5 * y
    return x, y


class TestExpectedPvalue:
    def test_equal_inputs(self):
        for p, u in ((10, 1.5), (500, 2.0)):
            assert expected_pvalue(0.5, 0.5, p, u) == 0.5

    def test_arithmetic_fixture(self):
        got = expected_pvalue(0.9, 0.01, 100, 2.0)
        assert got == pytest.approx((0.01 + 10000 * 0.9) / 10001, rel=1e-14)
        assert got == pytest.approx(0.899911, abs=1e-6)

    def test_large_p_limit(self):
        assert expected_pvalue(0.0, 1.0, 10 ** 6, 2.0) == pytest.approx(0.0, abs=1e-11)

    def test_limit_is_v0_as_u_grows(self):
        assert expected_pvalue(0.3, 0.9, 50, 30.0) == pytest.approx(0.3, abs=1e-12)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 0.5))
    @settings(max_examples=100)
    def test_monotone_in_both(self, v0, v1, bump):
        base = expected_pvalue(v0, v1, 20, 1.5)
        assert expected_pvalue(min(v0 + bump, 1.0), v1, 20, 1.5) >= base
        assert expected_pvalue(v0, min(v1 + bump, 1.0), 20, 1.5) >= base

    def test_domain(self):
        with pytest.raises(DomainError):
            expected_pvalue(-0.1, 0.5, 10, 1.5)
        with pytest.raises(DomainError):
            expected_pvalue(0.5, 0.5, 10, 1.0)
        with pytest.raises(DomainError):
            expected_pvalue(0.5, 0.5, 0, 1.5)
        for bad in (1.5, -0.1, math.nan):
            with pytest.raises(DomainError):
                expected_pvalue(np.array([0.5, bad]), np.full(2, 0.5), 10, 1.5)
            with pytest.raises(DomainError):
                expected_pvalue(np.full(2, 0.5), np.array([bad, 0.5]), 10, 1.5)

    def test_arrays_elementwise(self):
        v0 = np.array([0.0, 0.2, 0.9, 1.0, 0.5])
        v1 = np.array([1.0, 0.5, 0.01, 0.0, 0.5])
        got = expected_pvalue(v0, v1, 100, 2.0)
        assert got.shape == (5,)
        assert got.tolist() == [expected_pvalue(a, b, 100, 2.0) for a, b in zip(v0, v1)]

    def test_select_c_reports_the_formula(self):
        x, y = two_group_data(seed=3)
        report, _ = select_c(x, y, grid=[1.0], hyper=Hyperparameters(u=2.0))
        v0, v1 = column_pvalues(x, y)
        assert np.array_equal(report.expected, expected_pvalue(v0, v1, x.shape[1], 2.0))


class TestAssignBins:
    def test_sorted_eight(self):
        bins = assign_bins([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        assert bins.tolist() == [1, 2, 2, 3, 3, 4, 4, 4]

    def test_all_equal_ties(self):
        assert assign_bins([0.4] * 10).tolist() == [4] * 10

    def test_four_values_literal_rule(self):
        # the minimum is never strictly below the first order statistic,
        # so nothing lands in bin 1 at p = 4 under the literal inequalities
        assert assign_bins([0.1, 0.2, 0.3, 0.4]).tolist() == [2, 3, 4, 4]

    def test_small_p_fallback(self):
        assert assign_bins([0.5, 0.9]).tolist() == [4, 4]

    @given(st.lists(st.floats(0.001, 0.999), min_size=4, max_size=30, unique=True))
    @settings(max_examples=100)
    def test_rank_invariance(self, values):
        e = np.array(values)
        transformed = np.exp(3.0 * e) - 0.5  # strictly increasing map
        # in doubles the map can round two close inputs onto one value, and
        # a tie it created itself rightly changes the bins
        assume(np.unique(transformed).size == e.size)
        assert assign_bins(e).tolist() == assign_bins(transformed).tolist()

    def test_permutation_consistency(self):
        e = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        perm = np.array([3, 0, 7, 2, 5, 1, 6, 4])
        assert assign_bins(e[perm]).tolist() == assign_bins(e)[perm].tolist()


class TestMonotoneTuples:
    def test_default_ladder_count(self):
        tuples = monotone_tuples(DEFAULT_LADDER)
        assert len(tuples) == 70  # C(5 + 4 - 1, 4)
        assert tuples[0] == (1.0, 1.0, 1.0, 1.0)
        assert tuples == sorted(tuples)
        assert all(list(t) == sorted(t) for t in tuples)

    def test_validation(self):
        with pytest.raises(InputError):
            monotone_tuples([])
        with pytest.raises(DomainError):
            monotone_tuples([0.0, 1.0])
        with pytest.raises(DomainError):
            monotone_tuples([1.0, 200.0])


def assert_matches_oracle(x, y, v0, v1, rows=None):
    """v1 bit for bit and v0 within V0_TOL of the per-column oracle."""
    r0, r1 = oracles.column_pvalues(x, y, rows)
    assert np.array_equal(v1, r1)
    np.testing.assert_allclose(v0, r0, rtol=0, atol=V0_TOL)


class TestColumnPvalues:
    def test_constant_column_scores_zero(self, caplog):
        x, y = two_group_data(seed=1)
        x[:, 3] = 2.0
        x[:, 5] = -0.1
        with caplog.at_level(logging.DEBUG, logger="ptda"):
            v0, v1 = column_pvalues(x, y)
        assert v0[3] == v0[5] == 0.0
        assert np.all((0.0 <= v0) & (v0 <= 1.0))
        assert np.all((0.0 <= v1) & (v1 <= 1.0))
        assert_matches_oracle(x, y, v0, v1)
        [record] = caplog.records
        assert record.name == "ptda.smoothing" and record.levelno == logging.DEBUG
        assert "2 of 6 columns are constant" in record.getMessage()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 11, 12, 40])
    def test_matches_the_per_column_oracle(self, n):
        # n = 3 and 4..11 take their own p-value branches; n = 2 scores v0 = 0
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 7))
        x[:, 1] = rng.exponential(size=n)
        x[:, 2] = rng.standard_cauchy(size=n)
        x[:, 3] = np.arange(n, dtype=float)
        y = np.arange(n) % 2
        v0, v1 = column_pvalues(x, y)
        assert_matches_oracle(x, y, v0, v1)
        assert np.all(v0 == 0.0) == (n == 2)

    def test_ties_are_scored_at_the_last_tied_value(self):
        rng = np.random.default_rng(21)
        x = np.round(2.0 * rng.normal(size=(30, 6))) / 2.0  # a coarse grid: many ties
        x[:, 5] = np.repeat([0.0, 1.0, 2.0], 10)
        y = np.array([1, 0] * 15)
        v0, v1 = column_pvalues(x, y)
        assert_matches_oracle(x, y, v0, v1)
        rows = x.T.copy()
        order = rows.argsort(axis=1)
        d, _ = ks_two_sample_sorted(np.take_along_axis(rows, order, axis=1), y.astype(bool)[order])
        for j in range(x.shape[1]):
            assert d[j] == brute_force_ks_distance(x[y == 1, j], x[y == 0, j])

    def test_tie_order_does_not_move_d(self):
        # at the tied 1s, F_a = 1 and F_b = 1/3 whichever copy sorts first;
        # an earlier copy would read F_a = 1 against F_b = 0 in the first row
        rows = np.array([[1.0, 1.0, 1.0, 1.0, 2.0, 3.0]] * 2)
        in_a = np.array([[1, 1, 1, 0, 0, 0], [0, 1, 1, 1, 0, 0]], dtype=bool)
        d, p = ks_two_sample_sorted(rows, in_a)
        assert d.tolist() == [3 / 3 - 1 / 3] * 2
        assert p[0] == p[1]

    @given(st.integers(2, 45), st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["normal", "ties", "skewed"]))
    @settings(max_examples=60, deadline=None)
    def test_blocks_match_the_oracle(self, n, p, seed, kind):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, p))
        if kind == "ties":
            x = np.round(x)
        elif kind == "skewed":
            x = np.exp(2.0 * x)
        y = rng.permutation(np.arange(n) % 2)
        v0, v1 = column_pvalues(x, y)
        assert_matches_oracle(x, y, v0, v1)

    def test_common_offset_leaves_v0(self):
        # dyadic values, so the offset copy is exact; the per-column oracle's
        # uncentred weight sum loses about 1e-6 of v0 to cancellation here
        x, y = two_group_data(seed=5)
        x = np.round(x * 1024.0) / 1024.0
        v0, v1 = column_pvalues(x, y)
        s0, s1 = column_pvalues(x + 2.0 ** 30, y)
        assert np.array_equal(s1, v1)
        np.testing.assert_allclose(s0, v0, rtol=0, atol=V0_TOL)

    @pytest.mark.parametrize("factor", [1e200, 1e-200])
    def test_extreme_magnitude_scores_like_the_unscaled_column(self, factor):
        # Shapiro-Wilk W and the centring sd square the values, which would
        # overflow near 1e200 and underflow near 1e-200; both are scale-free
        x, y = two_group_data(seed=3)
        scaled = x.copy()
        scaled[:, 2] *= factor
        v0, v1 = column_pvalues(x, y)
        s0, s1 = column_pvalues(scaled, y)
        leaves = TreeForest.from_matrix(x, y).leaves(x)
        assert np.array_equal(TreeForest.from_matrix(scaled, y).leaves(scaled), leaves)
        assert np.array_equal(s1, v1)
        np.testing.assert_allclose(s0, v0, rtol=0, atol=1e-12)
        assert_matches_oracle(scaled, y, s0, s1)

    def test_signal_column_has_small_v1(self):
        x, y = two_group_data(seed=2, shift=3.0)
        _, v1 = column_pvalues(x, y)
        assert v1[0] < 0.01
        assert np.median(v1[2:]) > 0.05

    def test_blocks_cover_every_column(self, monkeypatch):
        # blocks of two columns at n = 40: the last block is a single column
        monkeypatch.setattr(ptda.smoothing, "_BLOCK_VALUES", 80)
        x, y = two_group_data(seed=4, p=7)
        v0, v1 = column_pvalues(x, y)
        assert_matches_oracle(x, y, v0, v1)

    def test_subsampled_shapiro_uses_the_subsample_stream(self, caplog):
        n = SHAPIRO_MAX_N + 1
        rng = np.random.default_rng(31)
        x = rng.normal(size=(n, 3))
        x[:, 1] = rng.exponential(size=n)
        x[:, 2] = rng.uniform(size=n)
        y = np.arange(n) % 2
        rows = np.sort(substream(5, SUBSAMPLE_STREAM).choice(n, size=SHAPIRO_MAX_N, replace=False))
        with caplog.at_level(logging.DEBUG, logger="ptda"):
            v0, v1 = column_pvalues(x, y, seed=5)
        [record] = caplog.records
        assert record.name == "ptda.smoothing" and record.levelno == logging.DEBUG
        assert f"subsample of {SHAPIRO_MAX_N} of the {n} rows" in record.getMessage()
        assert_matches_oracle(x, y, v0, v1, rows)
        again = column_pvalues(x, y, seed=5)
        assert np.array_equal(again[0], v0) and np.array_equal(again[1], v1)
        other = column_pvalues(x, y, seed=6)
        assert np.array_equal(other[1], v1) and not np.array_equal(other[0], v0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_refused(self, bad):
        x, y = two_group_data(seed=1)
        x[7, 4] = bad
        with pytest.raises(InputError, match="finite"):
            column_pvalues(x, y)


class TestSelectC:
    def test_single_tuple_grid(self):
        x, y = two_group_data(seed=3)
        report, _ = select_c(x, y, grid=[(2.0, 2.0, 5.0, 10.0)])
        assert report.chosen_a == (2.0, 2.0, 5.0, 10.0)
        assert report.v0.size == x.shape[1]
        assert set(report.bins.tolist()) <= {1, 2, 3, 4}
        assert np.all(np.isin(report.c, [2.0, 5.0, 10.0]))

    def test_tie_break_lexicographic(self):
        # strong signal: every tuple reaches zero resubstitution error
        x, y = two_group_data(seed=4, shift=8.0)
        report, _ = select_c(x, y, grid=[(5.0, 5.0, 5.0, 5.0), (1.0, 1.0, 1.0, 1.0)])
        assert report.resubstitution_error == 0.0
        assert report.chosen_a == (1.0, 1.0, 1.0, 1.0)

    def test_empty_grid_rejected(self):
        x, y = two_group_data()
        with pytest.raises(InputError):
            select_c(x, y, grid=[])

    def test_invalid_tuple_rejected(self):
        x, y = two_group_data()
        with pytest.raises(DomainError):
            select_c(x, y, grid=[(5.0, 1.0, 1.0, 1.0)])

    def test_monotone_range_guaranteed(self):
        x, y = two_group_data(seed=5)
        report, _ = select_c(x, y, grid=(1.0, 10.0))
        a = report.chosen_a
        assert list(a) == sorted(a)
        assert all(0.0 < v <= 100.0 for v in a)

    def test_exhaustive_oracle_on_small_grid(self):
        # independently refit every tuple through the public fit path and
        # check the cached grid search returns the minimiser
        x, y = two_group_data(seed=6, n=30, p=5)
        ladder = (1.0, 10.0)
        report, _ = select_c(x, y, grid=ladder)
        hyper = Hyperparameters()
        errors = {}
        for candidate in monotone_tuples(ladder):
            c = np.asarray(candidate)[report.bins - 1]
            model = fit_model(x, y, c, hyper=hyper)
            predicted = classify(update_psi(model, x))
            errors[candidate] = float(np.mean(predicted != y))
        assert report.resubstitution_error == pytest.approx(errors[report.chosen_a], abs=1e-12)
        assert all(errors[report.chosen_a] <= e for e in errors.values())
        winners = sorted(t for t, e in errors.items() if e == errors[report.chosen_a])
        assert report.chosen_a == winners[0]

    @pytest.mark.parametrize("bad,message", [("labels 0 and 2", "labels must be 0 or 1"),
                                             ("nan", "the matrix must be finite"),
                                             ("inf", "the matrix must be finite")])
    def test_bad_data_refused_before_the_pvalue_pass(self, monkeypatch, bad, message):
        x, y = two_group_data(seed=3)
        if bad == "labels 0 and 2":
            y = 2 * y
        else:
            x[4, 2] = float(bad)
        calls = []
        monkeypatch.setattr(ptda.smoothing, "column_pvalues", lambda *a, **k: calls.append(a))
        with pytest.raises(InputError, match=message):
            select_c(x, y, grid=[1.0])
        assert calls == []

    def test_debug_reports_leave_outputs_unchanged(self, caplog):
        x, y = two_group_data(seed=1)
        x[:, 3] = 2.0
        quiet_report, quiet_model = select_c(x, y, grid=(1.0, 5.0))
        assert caplog.records == []  # the ptda logger is silent by default
        with caplog.at_level(logging.DEBUG, logger="ptda"):
            loud_report, loud_model = select_c(x, y, grid=(1.0, 5.0))
        assert [r.name for r in caplog.records] == ["ptda.smoothing", "ptda.polya_tree"]
        for quiet, loud in ((quiet_report, loud_report), (quiet_model, loud_model)):
            assert json.dumps(loud.to_json_dict()) == json.dumps(quiet.to_json_dict())

    def test_report_round_trip(self, tmp_path):
        x, y = two_group_data(seed=7)
        report, _ = select_c(x, y, grid=(1.0, 5.0))
        path = tmp_path / "report.json"
        report.save(path)
        loaded = SmoothingReport.load(path)
        assert loaded.chosen_a == report.chosen_a
        np.testing.assert_allclose(loaded.expected, report.expected, rtol=1e-15)
        assert loaded.bins.tolist() == report.bins.tolist()
        csv_path = tmp_path / "report.csv"
        report.write_csv(csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "variable,v0,v1,expected,bin,c"
        assert len(lines) == x.shape[1] + 1


class TestReportLoad:
    """`SmoothingReport.load` checks numbers by exact type, as the model loader does."""

    @staticmethod
    def load(tmp_path, edit=None):
        doc = {"chosen_a": [1.0, 5.0, 10.0, 50.0], "resubstitution_error": 0.25,
               "v0": [0.5, 0.1, 0.0, 1.0], "v1": [0.5, 0.2, 1.0, 0.0], "expected": [0.5] * 4,
               "bins": [1, 2, 3, 4], "names": ["V1", "V2", "V3", "V4"]}
        if edit is not None:
            edit(doc)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return SmoothingReport.load(path)

    def test_valid_document_loads(self, tmp_path):
        report = self.load(tmp_path)
        assert report.c.tolist() == [1.0, 5.0, 10.0, 50.0]
        assert report.bins.dtype == np.int64
        assert report.resubstitution_error == 0.25 and type(report.resubstitution_error) is float

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["bins"].__setitem__(0, True),
        lambda doc: doc["chosen_a"].__setitem__(0, True),
        lambda doc: doc["chosen_a"].__setitem__(1, "5"),
        lambda doc: doc["bins"].__setitem__(1, "2"),
        lambda doc: doc.update(resubstitution_error="0.25"),
        lambda doc: doc.update(resubstitution_error=True),
        lambda doc: doc.update(resubstitution_error=math.nan),
        lambda doc: doc["v0"].__setitem__(0, math.nan),
        lambda doc: doc["v1"].__setitem__(2, -0.1),
        lambda doc: doc["expected"].__setitem__(3, 1.5),
        lambda doc: doc["v0"].__setitem__(0, None),
        lambda doc: doc["v0"].__setitem__(0, 10 ** 400),
        lambda doc: doc.update(v1="0.5"),
    ], ids=["bin-true", "a-true", "a-numeric-string", "bin-numeric-string", "error-numeric-string",
            "error-true", "error-nan", "v0-nan", "v1-negative", "expected-above-1", "v0-null",
            "v0-huge-integer", "v1-string"])
    def test_malformed_numbers_refused(self, tmp_path, edit):
        with pytest.raises(InputError, match="smoothing report"):
            self.load(tmp_path, edit)


class TestSkippedCandidatesWarning:
    GRID = (1.0, 10.0, 100.0)

    def sweeps_per_candidate(self, x, y):
        # one independent fit per tuple: select_c runs one selection per
        # distinct c vector, and at p = 6 bin 1 is empty, so several tuples
        # share a vector, yet the warning counts tuples
        report, _ = select_c(x, y, grid=self.GRID)
        return [fit_model(x, y, np.asarray(t)[report.bins - 1]).selection.iteration
                for t in monotone_tuples(self.GRID)]

    def test_warning_counts_skipped_candidates(self, caplog):
        x, y = two_group_data(seed=2)
        sweeps = self.sweeps_per_candidate(x, y)
        cap = min(sweeps)
        skipped = sum(s > cap for s in sweeps)
        assert 0 < skipped < len(sweeps)
        with caplog.at_level(logging.WARNING, logger="ptda"):
            _, model = select_c(x, y, grid=self.GRID, max_iter=cap)
        assert model.selection.converged
        [record] = caplog.records
        assert record.name == "ptda.smoothing"
        assert f"skipped {skipped} of {len(sweeps)}" in record.getMessage()

    def test_warning_precedes_refusal_when_none_converged(self, caplog):
        x, y = two_group_data(seed=2)
        with caplog.at_level(logging.WARNING, logger="ptda"), pytest.raises(InputError):
            select_c(x, y, grid=self.GRID, max_iter=1, tol=1e-30)
        [record] = caplog.records
        assert "skipped 15 of 15" in record.getMessage()

    def test_silent_when_all_converged(self, caplog):
        x, y = two_group_data(seed=2)
        with caplog.at_level(logging.DEBUG, logger="ptda"):
            select_c(x, y, grid=self.GRID)
        assert caplog.records == []


def per_candidate_choice(x, y, tuples, bins, max_iter=1000):
    """(chosen tuple, its error) of a search that fits each tuple on its own
    and scores it with `class_log_odds`'s one gather and matvec."""
    best, best_error = None, math.inf
    for t in sorted(tuples):
        model = fit_model(x, y, np.asarray(t)[bins - 1], max_iter=max_iter)
        if not model.selection.converged:
            continue
        eta = model.class_log_odds(model.forest.flat_leaves(x))
        error = float(np.mean((eta >= 0.0) != y))  # threshold 0.5
        if error < best_error:
            best, best_error = t, error
    return best, best_error


class TestTwoPhaseScores:
    # (data, ladder, max_iter): bin 1 empty at p = 6 and only bin 4 at p = 3;
    # a repeated ladder value repeats tuples; a low max_iter skips candidates
    CASES = {
        "p=3": (dict(seed=8, p=3), (1.0, 10.0, 100.0), 1000),
        "repeated value": (dict(seed=9, p=12), (1.0, 5.0, 5.0, 50.0), 1000),
        "skipped": (dict(seed=2), (1.0, 10.0, 100.0), 4),
    }

    def run(self, monkeypatch, case):
        data, ladder, max_iter = self.CASES[case]
        x, y = two_group_data(**data)
        calls = []
        scored = {}
        count_omega, score = ptda.smoothing.update_omega, ptda.smoothing._resubstitution_log_odds

        def counting(*args, **kwargs):
            calls.append(1)
            return count_omega(*args, **kwargs)

        def keeping(flat, odds, omega, vectors, columns):
            scored.update(omega=omega, vectors=vectors, columns=columns,
                          eta=score(flat, odds, omega, vectors, columns))
            return scored["eta"]

        monkeypatch.setattr(ptda.smoothing, "update_omega", counting)
        monkeypatch.setattr(ptda.smoothing, "_resubstitution_log_odds", keeping)
        report, model = select_c(x, y, grid=ladder, max_iter=max_iter)
        monkeypatch.undo()
        return x, y, monotone_tuples(ladder), max_iter, report, model, len(calls), scored

    @pytest.mark.parametrize("case", list(CASES))
    def test_one_selection_per_distinct_c_vector(self, monkeypatch, case):
        x, y, tuples, _, report, _, calls, _ = self.run(monkeypatch, case)
        distinct = {tuple(np.asarray(t)[report.bins - 1].tolist()) for t in tuples}
        assert calls == len(distinct) < len(tuples)

    @pytest.mark.parametrize("case", list(CASES))
    def test_scores_match_one_gather_per_candidate(self, monkeypatch, case):
        x, y, _, _, report, model, _, scored = self.run(monkeypatch, case)
        flat = model.forest.flat_leaves(x)
        for k, vector in enumerate(scored["vectors"]):
            c = np.empty(x.shape[1])
            for value, cols in zip(vector, scored["columns"]):
                c[cols] = value
            lp1, lp0 = leaf_log_path_tables(model.forest, c)
            terms = np.take(lp1 - lp0, flat)
            ref = terms @ scored["omega"][k]
            bound = 1e-12 * (np.abs(terms) @ scored["omega"][k])
            assert np.all(np.abs(scored["eta"][:, k] - ref) <= bound)

    @pytest.mark.parametrize("case", list(CASES))
    def test_choice_matches_the_per_candidate_search(self, monkeypatch, case):
        x, y, tuples, max_iter, report, model, _, _ = self.run(monkeypatch, case)
        chosen, error = per_candidate_choice(x, y, tuples, report.bins, max_iter)
        assert report.chosen_a == chosen
        assert report.resubstitution_error == error
        refit = fit_model(x, y, report.c, max_iter=max_iter)
        assert np.array_equal(model.omega, refit.omega)
        assert np.array_equal(log_bayes_factors(model.forest, model.c),
                              log_bayes_factors(refit.forest, refit.c))
        assert np.array_equal(model.leaf_log_odds, refit.leaf_log_odds)
        assert model.selection.iteration == refit.selection.iteration
