"""Harness behavior: metrics arithmetic, determinism, baseline, CV."""

import numpy as np
import pytest

from ptda.dataio import Dataset
from ptda.errors import InputError
from ptda.evalharness import (
    cross_validate,
    gaussian_nb_baseline,
    run_simulation_study,
    selection_confusion,
    write_rows_csv,
)


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
        assert gaussian_nb_baseline(train, test).classification_error < 0.02

    def test_identical_distributions_near_chance(self):
        train, test = self._blobs(0.0, n=400)
        err = gaussian_nb_baseline(train, test).classification_error
        assert 0.35 < err < 0.65

    def test_degenerate_variance_floored(self):
        train, test = self._blobs(2.0)
        train.matrix[:, 1] = 3.0
        test.matrix[:, 1] = 3.0
        metrics = gaussian_nb_baseline(train, test)  # must not divide by zero
        assert np.isfinite(metrics.classification_error)

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

    def test_thread_count_does_not_change_results(self):
        kwargs = dict(n_train=24, n_test=30, p=15, n_discriminative=3,
                      grid=[(1.0, 1.0, 1.0, 1.0)], base_seed=2)
        seq, _ = run_simulation_study(1, reps=3, threads=1, **kwargs)
        par, _ = run_simulation_study(1, reps=3, threads=3, **kwargs)
        assert strip_times(seq) == strip_times(par)

    def test_no_converged_candidate_is_an_input_error(self):
        with pytest.raises(InputError, match="max_iter"):
            run_simulation_study(1, reps=1, n_train=24, n_test=10, p=12, n_discriminative=3,
                                 max_iter=1)

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
