"""CSV ingestion, preprocessing protocol, and fold plumbing."""

import numpy as np
import pytest

from ptda.cvb import fit_model, update_psi
from ptda.dataio import (
    Dataset,
    load_csv,
    preprocess,
    split_folds,
    write_predictions_csv,
)
from ptda.errors import InputError
from ptda.simgen import SimulationSpec, generate


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic_three_by_two(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b,y\n1,2,0\n3,4,1\n5,6,0\n")
        ds = load_csv(path, label_column="y")
        assert (ds.n, ds.p) == (3, 2)
        assert ds.names == ["a", "b"]
        assert ds.labels.tolist() == [0, 1, 0]

    def test_string_labels_with_positive_flag(self, tmp_path):
        path = write(tmp_path, "d.csv", "g1,y\n1,good\n2,poor\n3,good\n4,poor\n")
        ds = load_csv(path, label_column="y", positive_label="poor")
        assert ds.labels.tolist() == [0, 1, 0, 1]
        assert ds.label_mapping == {"good": 0, "poor": 1}

    def test_string_labels_default_mapping(self, tmp_path):
        path = write(tmp_path, "d.csv", "g1,y\n1,b\n2,a\n")
        ds = load_csv(path, label_column="y")
        assert ds.label_mapping == {"a": 0, "b": 1}

    def test_three_label_values_rejected(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,y\n1,0\n2,1\n3,2\n")
        with pytest.raises(InputError, match="two distinct"):
            load_csv(path, label_column="y")

    def test_non_numeric_cell_reported_with_row(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b,y\n1,2,0\n3,oops,1\n5,6,0\n")
        with pytest.raises(InputError, match="row 3"):
            load_csv(path, label_column="y")

    def test_duplicate_names_rejected(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,a,y\n1,2,0\n3,4,1\n")
        with pytest.raises(InputError, match="duplicate"):
            load_csv(path, label_column="y")

    def test_unlabelled_matrix(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n3,4\n")
        ds = load_csv(path)
        assert ds.labels is None
        assert ds.matrix.shape == (2, 2)

    def test_variables_in_rows(self, tmp_path):
        text = "id,s1,s2,s3\ny,0,1,0\ngeneA,1,2,3\ngeneB,4,5,6\n"
        path = write(tmp_path, "d.csv", text)
        ds = load_csv(path, label_column="y", orientation="variables-in-rows")
        assert ds.names == ["geneA", "geneB"]
        assert ds.matrix.shape == (3, 2)
        assert ds.labels.tolist() == [0, 1, 0]
        np.testing.assert_allclose(ds.matrix[:, 0], [1, 2, 3])

    def test_unknown_orientation(self, tmp_path):
        path = write(tmp_path, "d.csv", "a\n1\n")
        with pytest.raises(InputError):
            load_csv(path, orientation="diagonal")


class TestPreprocess:
    def test_variance_floor_drops_constant(self):
        x = np.column_stack([np.arange(10.0), np.full(10, 3.0)])
        ds = Dataset(x, np.array([0, 1] * 5), ["a", "b"])
        out = preprocess(ds, variance_floor=0.1)
        assert out.names == ["a"]
        assert out.p == 1

    def test_median_boundary_is_inclusive(self):
        # median exactly at the floor is dropped (<= convention)
        x = np.column_stack([np.array([6.0, 7.0, 7.0, 8.0]),
                             np.array([6.1, 7.1, 7.1, 8.1])])
        ds = Dataset(x, np.array([0, 1, 0, 1]), ["low", "high"])
        out = preprocess(ds, median_floor=7.0)
        assert out.names == ["high"]

    def test_no_floors_returns_raw_matrix(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 3.0, size=(50, 4))
        ds = Dataset(x, np.array([0, 1] * 25), list("abcd"))
        out = preprocess(ds)
        assert np.array_equal(out.matrix, x)
        assert out.names == list("abcd")
        assert np.array_equal(out.labels, ds.labels)

    def test_everything_filtered_is_an_error(self):
        x = np.full((5, 2), 1.0)
        ds = Dataset(x, np.array([0, 1, 0, 1, 0]), ["a", "b"])
        with pytest.raises(InputError):
            preprocess(ds, variance_floor=0.1)

    def test_gene_scale_shapes(self):
        # the protocol must hold up at real-data shapes
        rng = np.random.default_rng(123)
        x = rng.normal(8.0, 2.0, size=(47, 2000))
        x[:, :100] = rng.normal(2.0, 0.1, size=(47, 100))  # underexpressed block
        ds = Dataset(x, np.array([0, 1] * 23 + [0]), [f"g{i}" for i in range(2000)])
        out = preprocess(ds, median_floor=7.0, variance_floor=0.1)
        assert out.p < 2000
        assert all(name not in out.names for name in (f"g{i}" for i in range(100)))
        keep = [int(name[1:]) for name in out.names]
        assert np.array_equal(out.matrix, x[:, keep])  # kept columns stay raw


class TestAffineInvariance:
    def test_fit_ignores_per_column_affine_maps(self):
        # fixed simulated data rather than generated examples, so no value
        # is pushed onto a dyadic cell boundary by the test itself
        train, test, _ = generate(SimulationSpec(2, n_train=60, n_test=40, p=8,
                                                 n_discriminative=3, seed=31))
        a = np.array([0.001, 0.5, 1.0, 3.0, 7.25, 40.0, 1e3, 2.5e5])
        b = np.array([-1e4, -3.0, 0.0, 0.125, 12.0, 99.5, 5e3, -2e6])
        c = [1.0, 5.0, 10.0, 50.0, 100.0, 1.0, 5.0, 10.0]
        raw = fit_model(train.matrix, train.labels, c)
        mapped = fit_model(a * train.matrix + b, train.labels, c)
        assert np.array_equal(raw.forest.count1, mapped.forest.count1)
        assert np.array_equal(raw.forest.count0, mapped.forest.count0)
        assert np.array_equal(raw.omega, mapped.omega)
        assert np.array_equal(update_psi(raw, test.matrix).psi,
                              update_psi(mapped, a * test.matrix + b).psi)


class TestSplitFolds:
    def _dataset(self, n1, n0):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(n1 + n0, 2))
        y = np.array([1] * n1 + [0] * n0)
        return Dataset(x, y, ["a", "b"])

    def test_balanced_five_fold(self):
        ds = self._dataset(5, 5)
        folds = split_folds(ds, 5, seed=3)
        for train_idx, test_idx in folds:
            y_test = ds.labels[test_idx]
            assert y_test.sum() == 1 and y_test.size == 2

    def test_partition_property(self):
        ds = self._dataset(13, 17)
        folds = split_folds(ds, 4, seed=9)
        all_test = np.concatenate([t for _, t in folds])
        assert sorted(all_test.tolist()) == list(range(30))
        for train_idx, test_idx in folds:
            assert set(train_idx) & set(test_idx) == set()
            assert len(train_idx) + len(test_idx) == 30

    def test_stratification_within_one(self):
        ds = self._dataset(11, 29)
        for train_idx, test_idx in split_folds(ds, 5, seed=2):
            ones = int(ds.labels[test_idx].sum())
            assert abs(ones - 11 / 5) <= 1.0

    def test_determinism(self):
        ds = self._dataset(10, 10)
        a = split_folds(ds, 5, seed=7)
        b = split_folds(ds, 5, seed=7)
        for (ta, sa), (tb, sb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(sa, sb)

    def test_small_group_rejected(self):
        ds = self._dataset(3, 20)
        with pytest.raises(InputError):
            split_folds(ds, 5, seed=0)


class TestPredictionsCsv:
    def test_format(self, tmp_path):
        path = tmp_path / "pred.csv"
        write_predictions_csv(path, np.array([0.2, 0.8]))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "row,psi,label"
        assert lines[1] == "0,0.2,0"
        assert lines[2] == "1,0.8,1"
