"""Harness behavior: metrics arithmetic, determinism, baseline, CV."""

import functools
import math
import warnings

import numpy as np
import pytest

import ptda.cvb
import ptda.evalharness
from ptda.dataio import Dataset
from ptda.errors import InputError
from ptda.evalharness import (
    cross_validate,
    gaussian_nb_baseline,
    run_simulation_study,
    selection_confusion,
    write_rows_csv,
)
from ptda.polya_tree import blocks, column_sums
from ptda.simgen import SimulationSpec, generate
from ptda.smoothing import select_c
from ptda.stats import square_safe_shift

from conftest import traced_peak


def strip_times(rows):
    return [{k: v for k, v in r.items() if k != "wall_time"} for r in rows]


class TestSelectionConfusion:
    def test_counts_sum_to_p(self):
        rng = np.random.default_rng(0)
        selected = rng.random(37) < 0.3
        truth = rng.random(37) < 0.2
        tp, tn, fp, fn, acc = selection_confusion(selected, truth)
        assert tp + tn + fp + fn == 37
        assert acc == (tp + tn) / 37

    def test_perfect_selection(self):
        truth = np.array([True, False, True])
        assert selection_confusion(truth, truth)[4] == 1.0

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            selection_confusion(np.ones(3, bool), np.ones(4, bool))


class TestGaussianBaseline:
    def _blobs(self, sep, n=60, p=4, seed=0):
        rng = np.random.default_rng(seed)
        y_train = np.array([1, 0] * (n // 2))
        y_test = np.array([1, 0] * (n // 2))
        x_train = rng.normal(size=(n, p)) + sep * y_train[:, None]
        x_test = rng.normal(size=(n, p)) + sep * y_test[:, None]
        names = [f"V{j}" for j in range(p)]
        return (Dataset(x_train, y_train, names), Dataset(x_test, y_test, names))

    def test_separated_blobs_near_zero_error(self):
        train, test = self._blobs(6.0)
        assert gaussian_nb_baseline(train, test) < 0.02

    def test_identical_distributions_near_chance(self):
        train, test = self._blobs(0.0, n=400)
        err = gaussian_nb_baseline(train, test)
        assert 0.35 < err < 0.65

    def test_degenerate_variance_floored(self):
        train, test = self._blobs(2.0)
        train.matrix[:, 1] = 3.0
        test.matrix[:, 1] = 3.0
        assert np.isfinite(gaussian_nb_baseline(train, test))  # must not divide by zero

    @pytest.mark.parametrize("case", ["test-p", "unlabelled-test", "unlabelled-train",
                                      "no-test-points"])
    def test_refuses_what_it_cannot_score(self, case):
        train, test = self._blobs(2.0)
        if case == "test-p":
            test = Dataset(test.matrix[:, :3], test.labels, test.names[:3])
        elif case == "unlabelled-test":
            test = Dataset(test.matrix, None, test.names)
        elif case == "unlabelled-train":
            train = Dataset(train.matrix, None, train.names)
        else:
            test = Dataset(test.matrix[:0], test.labels[:0], test.names)
        with pytest.raises(InputError):
            gaussian_nb_baseline(train, test)

    def test_blocked_rows_give_the_one_expression_error(self, monkeypatch):
        # blocks of 16 rows: 70 test points span four full blocks and a ragged one of 6
        monkeypatch.setattr(ptda.polya_tree, "_BLOCK_VALUES", 16 * 5)
        assert [len(range(70)[b]) for b in blocks(70, 5)] == [16, 16, 16, 16, 6]
        train, test = self._blobs(0.4, n=70, p=5, seed=3)
        y, z = train.labels, test.matrix
        x1, x0 = train.matrix[y == 1], train.matrix[y == 0]
        mu1, mu0 = x1.mean(axis=0), x0.mean(axis=0)
        pooled = np.maximum((np.sum((x1 - mu1) ** 2, axis=0) + np.sum((x0 - mu0) ** 2, axis=0))
                            / (y.size - 2), ptda.evalharness.VARIANCE_FLOOR)
        n1 = int(np.sum(y == 1))
        log_odds = math.log(n1 / (y.size - n1)) + np.sum(
            (-((z - mu1) ** 2) + (z - mu0) ** 2) / (2.0 * pooled), axis=1)
        error = float(np.mean((log_odds >= 0.0).astype(np.int8) != test.labels))
        assert 0.0 < error < 0.5
        assert gaussian_nb_baseline(train, test) == error

    def test_columns_at_any_magnitude(self):
        # a 1e200 column's squares leave the double range; it and a 1e-200
        # column are scaled by their power of two, so the error is the one on
        # data with those two columns pre-scaled, and nothing warns.  4097
        # columns: the training moments run in column chunks
        rng = np.random.default_rng(12)
        y = np.arange(120) % 2
        x = rng.normal(size=(120, 4097))
        x[:, :40] += 0.6 * y[:, None]
        x[:, 7] *= 1e200
        x[:, 4000] *= 1e-200
        shift = square_safe_shift(x[:60], axis=0)
        assert np.flatnonzero(shift).tolist() == [7, 4000]
        names = [f"V{j}" for j in range(x.shape[1])]
        scaled = np.ldexp(x, -shift)
        expected = gaussian_nb_baseline(Dataset(scaled[:60], y[:60], names),
                                        Dataset(scaled[60:], y[60:], names))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            error = gaussian_nb_baseline(Dataset(x[:60], y[:60], names),
                                         Dataset(x[60:], y[60:], names))
        assert error == expected and 0.0 < error < 0.5

    def test_scoring_holds_no_test_sized_temporary(self):
        # one (m, p) temporary is 8 MiB here; the blocked path holds about 1.2 MiB
        m, p = 4096, 256
        train, _ = self._blobs(1.0, n=64, p=p)
        rng = np.random.default_rng(5)
        test = Dataset(rng.normal(size=(m, p)), np.arange(m) % 2, train.names)
        peak, _ = traced_peak(lambda: gaussian_nb_baseline(train, test))
        assert peak < m * p * 8 / 4

    @pytest.mark.parametrize("n, p, block_values, head", [
        pytest.param(1000, 1000, None, 0, id="1000-1000-None"),
        pytest.param(100, 5000, None, 0, id="100-5000-None"),
        pytest.param(37, 300, None, 0, id="37-300-None"),
        pytest.param(70, 5, 16, 0, id="70-5-16"),
        pytest.param(3000, 2, None, 0, id="3000-2-None"),
        pytest.param(100, 5000, 4096, 0, id="100-5000-4096"),
        pytest.param(40, 7, 16, 0, id="40-7-16"),
        pytest.param(70, 5, 16, 16, id="70-5-16-no-group-1-row-in-block-1")])
    def test_moments_are_the_one_expression_bits(self, monkeypatch, n, p, block_values, head):
        # the group sums a tile at a time equal numpy's sums over copies of
        # each group's rows, which the foil took before, bit for bit: in
        # blocks of a few rows (at _BLOCK_VALUES 16), in column chunks (at
        # _BLOCK_VALUES 4096, one-row tiles of 4096 and 904 columns), and
        # when group 1 has none of the first block's `head` rows
        if block_values:
            monkeypatch.setattr(ptda.polya_tree, "_BLOCK_VALUES", block_values)
        rng = np.random.default_rng(n + p)
        x = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-3, 3, size=(n, p))
        y = (rng.random(n) < 0.4).astype(np.int8)
        y[:head] = 0
        x1, x0 = x[y == 1], x[y == 0]
        mu1, mu0 = x1.mean(axis=0), x0.mean(axis=0)
        assert np.array_equal(column_sums(x, y == 1) / x1.shape[0], mu1)
        assert np.array_equal(column_sums(x, y == 0) / x0.shape[0], mu0)
        assert np.array_equal(column_sums(x, y == 1, mu1) + column_sums(x, y == 0, mu0),
                              np.sum((x1 - mu1) ** 2, axis=0) + np.sum((x0 - mu0) ** 2, axis=0))

    def test_training_moments_copy_no_group(self):
        # a copy of one group's rows is 4 MiB here; the foil held both groups'
        # copies and a squared-deviation array, 12 MiB, and now ~0.8 MiB
        n, p = 2048, 512
        rng = np.random.default_rng(6)
        names = [f"V{j}" for j in range(p)]
        train = Dataset(rng.normal(size=(n, p)), np.arange(n) % 2, names)
        test = Dataset(rng.normal(size=(16, p)), np.arange(16) % 2, names)
        peak, _ = traced_peak(lambda: gaussian_nb_baseline(train, test))
        assert peak < (n // 2) * p * 8 / 2

    def test_tiny_group_rejected(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.normal(size=(5, 2)), np.array([1, 0, 0, 0, 0]), ["a", "b"])
        with pytest.raises(InputError):
            gaussian_nb_baseline(ds, ds)


class TestSimulationStudy:
    def test_zero_reps_empty_table(self):
        rows, summary = run_simulation_study(1, reps=0)
        assert rows == []
        assert summary["methods"] == {}

    def test_rows_shape_and_determinism(self):
        kwargs = dict(n_train=24, n_test=30, p=20, n_discriminative=4,
                      grid=[(1.0, 1.0, 1.0, 1.0)], base_seed=5)
        rows_a, summary_a = run_simulation_study(3, reps=2, **kwargs)
        rows_b, summary_b = run_simulation_study(3, reps=2, **kwargs)
        assert strip_times(rows_a) == strip_times(rows_b)
        assert len(rows_a) == 4  # 2 reps x 2 methods
        assert summary_a["methods"].keys() == {"ptda", "gaussian_nb"}
        for row in rows_a:
            if row["method"] == "ptda":
                assert row["tp"] + row["tn"] + row["fp"] + row["fn"] == 20
                assert row["converged"]
            else:
                # the foil selects every variable and scores the rep's own data
                train, test, truth = generate(SimulationSpec(3, 24, 30, 20, 4, 5 + row["rep"]))
                assert row["classification_error"] == gaussian_nb_baseline(train, test)
                assert row["n_selected"] == 20
                assert (row["tp"], row["fp"]) == (int(truth.sum()), int((~truth).sum()))

    def test_thread_count_does_not_change_results(self):
        # the thread pool serves cross_validate's folds; simulation reps run in turn
        train, _, _ = generate(SimulationSpec(1, n_train=36, n_test=10, p=15,
                                              n_discriminative=3, seed=2))
        seq, seq_summary = cross_validate(train, 3, grid=[(1.0, 1.0, 1.0, 1.0)], threads=1)
        par, par_summary = cross_validate(train, 3, grid=[(1.0, 1.0, 1.0, 1.0)], threads=3)
        # compared by repr: a CV row's selection accuracy is NaN, which equals nothing
        assert repr(strip_times(seq)) == repr(strip_times(par))
        assert repr(seq_summary) == repr(par_summary)

    def test_no_converged_candidate_is_an_input_error(self, monkeypatch):
        # a rep's selection that cannot converge surfaces as select_c's InputError
        monkeypatch.setattr(ptda.evalharness, "select_c", functools.partial(select_c, max_iter=1))
        with pytest.raises(InputError, match="max_iter"):
            run_simulation_study(1, reps=1, n_train=24, n_test=10, p=12, n_discriminative=3)

    def test_selection_rates_in_unit_interval(self):
        _, summary = run_simulation_study(1, reps=2, n_train=24, n_test=10, p=12,
                                          n_discriminative=3, grid=[(1.0, 1.0, 1.0, 1.0)])
        rates = np.array(summary["selection_rate"])
        assert rates.shape == (12,)
        assert np.all((0.0 <= rates) & (rates <= 1.0))


class TestCrossValidate:
    def _separable(self, n=40, seed=0):
        rng = np.random.default_rng(seed)
        y = np.array([1, 0] * (n // 2))
        x = rng.normal(size=(n, 1))
        x[:, 0] = y * 10.0 + rng.normal(scale=0.1, size=n)
        return Dataset(x, y, ["signal"])

    def test_perfectly_separable_zero_error(self):
        ds = self._separable()
        rows, summary = cross_validate(ds, 5, grid=[(1.0, 1.0, 1.0, 1.0)], seed=1)
        assert summary["methods"]["ptda"]["mean_classification_error"] == 0.0
        assert len(rows) == 5
        for row in rows:
            # a fold has no true selection: no counts, NaN accuracy, the chosen c still set
            assert (row["tp"], row["tn"], row["fp"], row["fn"]) == (0, 0, 0, 0)
            assert math.isnan(row["selection_accuracy"])
            assert row["chosen_a"] == "1.0:1.0:1.0:1.0"

    def test_permuted_labels_near_chance(self):
        rng = np.random.default_rng(3)
        errors = []
        for seed in range(20):
            sub = np.random.default_rng(seed)
            x = sub.normal(size=(40, 3))
            y = np.array([1, 0] * 20)  # labels independent of x
            ds = Dataset(x, y, ["a", "b", "c"])
            _, summary = cross_validate(ds, 4, grid=[(1.0, 1.0, 1.0, 1.0)], seed=seed)
            errors.append(summary["methods"]["ptda"]["mean_classification_error"])
        assert abs(float(np.mean(errors)) - 0.5) < 0.10

    def test_infeasible_k_rejected(self):
        ds = self._separable(n=8)  # 4 per group
        with pytest.raises(InputError):
            cross_validate(ds, 5, grid=[(1.0, 1.0, 1.0, 1.0)])


class TestCsvOutput:
    def test_wall_time_excluded_by_default(self, tmp_path):
        rows, _ = run_simulation_study(1, reps=1, n_train=24, n_test=10, p=10,
                                       n_discriminative=2, grid=[(1.0, 1.0, 1.0, 1.0)])
        path = tmp_path / "rows.csv"
        write_rows_csv(path, rows)
        header = path.read_text().splitlines()[0]
        assert "wall_time" not in header
        write_rows_csv(path, rows, include_timings=True)
        assert "wall_time" in path.read_text().splitlines()[0]
