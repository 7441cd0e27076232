"""CSV ingestion, preprocessing protocol, fold plumbing and the two writers."""

import json

import numpy as np
import pytest

from ptda.cvb import FittedModel, fit_model, update_psi
from ptda.dataio import (
    Dataset,
    load_csv,
    preprocess,
    split_folds,
    write_csv,
    write_json,
)
from ptda.errors import InputError
from ptda.evalharness import cross_validate
from ptda.polya_tree import TreeForest, column_sums
from ptda.simgen import SimulationSpec, generate
from ptda.smoothing import select_c

from conftest import traced_peak

SAMPLES, VARIABLES = "samples-in-rows", "variables-in-rows"


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

    @pytest.mark.parametrize("orientation, text, rows", [
        (SAMPLES, "a,b,y\n1,2,0\n3,oops,1\n5,6,0\n7,8\n",
         "row 3: non-numeric cell; row 5: wrong field count"),
        (VARIABLES, "id,s1,s2,s3\ny,0,1,0\ny,0\na,1,2,3\nb,4,oops,6\n",
         "row 3: wrong field count; row 5: non-numeric cell"),
    ], ids=[SAMPLES, VARIABLES])
    def test_non_numeric_cell_reported_with_row(self, tmp_path, orientation, text, rows):
        # row numbers are 1-based and count the header
        path = write(tmp_path, "d.csv", text)
        with pytest.raises(InputError) as refused:
            load_csv(path, label_column="y", orientation=orientation)
        assert str(refused.value) == f"{path}: 2 unparseable row(s): {rows}"

    @pytest.mark.parametrize("orientation, text", [
        (SAMPLES, "a,a,y\n1,2,0\n3,4,1\n"),
        (VARIABLES, "id,s1,s2\na,1,3\ny,0,1\na,2,4\n"),
    ], ids=[SAMPLES, VARIABLES])
    def test_duplicate_names_rejected(self, tmp_path, orientation, text):
        path = write(tmp_path, "d.csv", text)
        with pytest.raises(InputError) as refused:
            load_csv(path, label_column="y", orientation=orientation)
        assert str(refused.value) == "duplicate variable names: ['a']"

    @pytest.mark.parametrize("orientation, text", [
        (SAMPLES, "a,y,y\n1,0,1\n2,1,0\n"),
        (VARIABLES, "id,s1,s2,s3,s4\ny,0,1,0,1\na,1,2,3,4\ny,1,1,0,0\n"),
    ], ids=[SAMPLES, VARIABLES])
    def test_label_named_twice_rejected(self, tmp_path, orientation, text):
        path = write(tmp_path, "d.csv", text)
        with pytest.raises(InputError) as refused:
            load_csv(path, label_column="y", orientation=orientation)
        assert str(refused.value) == "label 'y' is named 2 times; name it once"

    @pytest.mark.parametrize("orientation, text, missing", [
        (SAMPLES, "a,b\n1,2\n3,4\n", "label column 'y' not in header"),
        (VARIABLES, "id,s1,s2\na,1,3\nb,2,4\n", "label row 'y' not found"),
    ], ids=[SAMPLES, VARIABLES])
    def test_unlabelled_matrix(self, tmp_path, orientation, text, missing):
        path = write(tmp_path, "d.csv", text)
        ds = load_csv(path, orientation=orientation)
        assert ds.labels is None
        assert ds.names == ["a", "b"]
        assert ds.matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(InputError) as refused:
            load_csv(path, label_column="y", orientation=orientation)
        assert str(refused.value) == missing

    def test_variables_in_rows(self, tmp_path):
        text = "id,s1,s2,s3\ny,0,1,0\ngeneA,1,2,3\ngeneB,4,5,6\n"
        path = write(tmp_path, "d.csv", text)
        ds = load_csv(path, label_column="y", orientation="variables-in-rows")
        assert ds.names == ["geneA", "geneB"]
        assert ds.matrix.shape == (3, 2)
        assert ds.labels.tolist() == [0, 1, 0]
        np.testing.assert_allclose(ds.matrix[:, 0], [1, 2, 3])
        # a file holding only the label row has samples but no variables
        path = write(tmp_path, "label-only.csv", "id,s1,s2,s3\ny,0,1,0\n")
        ds = load_csv(path, label_column="y", orientation="variables-in-rows")
        assert (ds.matrix.shape, ds.names, ds.labels.tolist()) == ((3, 0), [], [0, 1, 0])

    # each file read with label "y" in both orientations, and what the loader
    # gives for it: a Dataset as (matrix, names, labels, mapping), or the
    # message of its InputError with the path as PATH
    STREAMED = {
        (SAMPLES, "header only"): ("a,b,y\n", "PATH: need a header row and at least one data row"),
        (SAMPLES, "header only, no label column"): (
            "a,b\n", "PATH: need a header row and at least one data row"),
        (SAMPLES, "empty file"): ("", "PATH: need a header row and at least one data row"),
        (SAMPLES, "blank lines"): ("\na,b,y\n\n1,2,g\n\n\n3,4.5,h\n\n", (
            [[1.0, 2.0], [3.0, 4.5]], ["a", "b"], [0, 1], {"g": 0, "h": 1})),
        (SAMPLES, "wrong field count"): (
            "a,b,y\n1,2,g\n\n3,h\n5,6,g,7\n8,9,h\n",
            "PATH: 2 unparseable row(s): row 3: wrong field count; row 4: wrong field count"),
        (SAMPLES, "non-numeric cell mid-file"): (
            "a,b,y\n1,2,g\n\n3,x,h\n5,6,g\n", "PATH: 1 unparseable row(s): row 3: non-numeric cell"),
        (SAMPLES, "quoted comma"): ('"a,1",b,y\n1,"2",g\n3,4,"h,1"\n', (
            [[1.0, 2.0], [3.0, 4.0]], ["a,1", "b"], [0, 1], {"g": 0, "h,1": 1})),
        (VARIABLES, "header only"): ("id,s1,s2,s3\n", "PATH: need a header row and at least one data row"),
        (VARIABLES, "empty file"): ("", "PATH: need a header row and at least one data row"),
        (VARIABLES, "blank lines"): ("\nid,s1,s2\n\ny,g,h\n\nv1,1,2\n\nv2,3,4.5\n\n", (
            [[1.0, 3.0], [2.0, 4.5]], ["v1", "v2"], [0, 1], {"g": 0, "h": 1})),
        (VARIABLES, "wrong field count"): (
            "id,s1,s2\ny,g,h\n\nv1,1\nv2,3,4,5\nv3,6,7\n",
            "PATH: 2 unparseable row(s): row 3: wrong field count; row 4: wrong field count"),
        (VARIABLES, "non-numeric cell mid-file"): (
            "id,s1,s2\ny,g,h\nv1,1,2\n\nv2,x,4\nv3,5,6\n",
            "PATH: 1 unparseable row(s): row 4: non-numeric cell"),
        (VARIABLES, "quoted comma"): ('id,s1,s2\ny,"g,1",h\n"v,1",1,"2"\nv2,3,4\n', (
            [[1.0, 3.0], [2.0, 4.0]], ["v,1", "v2"], [0, 1], {"g,1": 0, "h": 1})),
    }

    @pytest.mark.parametrize("orientation, case", STREAMED, ids=[" / ".join(k) for k in STREAMED])
    def test_streamed_rows(self, tmp_path, orientation, case):
        text, expected = self.STREAMED[orientation, case]
        path = write(tmp_path, "d.csv", text)
        if isinstance(expected, str):
            with pytest.raises(InputError) as refused:
                load_csv(path, label_column="y", orientation=orientation)
            assert str(refused.value) == expected.replace("PATH", str(path))
            return
        ds = load_csv(path, label_column="y", orientation=orientation)
        matrix, names, labels, mapping = expected
        assert ds.matrix.dtype == np.float64 and np.array_equal(ds.matrix, matrix)
        assert ds.matrix.shape == (2, 2)
        assert ds.labels.dtype == np.int8 and ds.labels.tolist() == labels
        assert (ds.names, ds.label_mapping) == (names, mapping)

    def test_load_holds_no_list_of_rows(self, tmp_path):
        # a list of the rows' strings and floats took ~14 times the matrix;
        # streamed, the loader holds one row and the growing float buffer
        n, p = 100, 5000
        x = np.random.default_rng(8).normal(size=(n, p))
        path = tmp_path / "wide.csv"
        np.savetxt(path, np.column_stack([x, np.arange(n) % 2]), delimiter=",", fmt="%.17g",
                   header=",".join([f"V{j + 1}" for j in range(p)] + ["y"]), comments="")
        peak, ds = traced_peak(lambda: load_csv(path, label_column="y"))
        assert np.array_equal(ds.matrix, x)
        assert peak < 3 * x.nbytes

    def test_unknown_orientation(self, tmp_path):
        path = write(tmp_path, "d.csv", "a\n1\n")
        with pytest.raises(InputError):
            load_csv(path, orientation="diagonal")


class TestDataset:
    @pytest.mark.parametrize("label", [256, 0.5, -255, 1.9, 2, np.nan])
    def test_labels_checked_before_the_int8_cast(self, label):
        # int8 would wrap 256 to 0 and -255 to 1, and truncate 0.5 to 0 and 1.9 to 1
        with pytest.raises(InputError, match="^labels must be 0 or 1$"):
            Dataset(np.zeros((3, 1)), [1, 0, label], ["a"])

    @pytest.mark.parametrize("labels", [[True, False, True], [1.0, 0.0, 1.0],
                                        np.array([1, 0, 1], dtype=np.uint8)])
    def test_binary_labels_cast_to_int8(self, labels):
        ds = Dataset(np.zeros((3, 1)), labels, ["a"])
        assert ds.labels.dtype == np.int8
        assert ds.labels.tolist() == [1, 0, 1]


class TestCOrder:
    def test_orientations_and_fortran_order_give_one_fit(self, tmp_path):
        # numpy sums an F-ordered matrix's columns pairwise and a C-ordered
        # one's row after row; the matrix is C-ordered where it enters, so
        # neither the file's orientation nor the caller's order moves a bit
        train, _, _ = generate(SimulationSpec(3, n_train=100, n_test=10, p=400, seed=5))
        x, y = train.matrix, train.labels
        write_csv(tmp_path / "samples.csv", train.names + ["y"],
                  (row + [label] for row, label in zip(x.tolist(), y.tolist())))
        write_csv(tmp_path / "variables.csv", ["id"] + [f"s{i}" for i in range(y.size)],
                  [["y"] + y.tolist()] + [[name] + column
                                          for name, column in zip(train.names, x.T.tolist())])
        reads = (load_csv(tmp_path / "samples.csv", label_column="y"),
                 load_csv(tmp_path / "variables.csv", label_column="y", orientation=VARIABLES))
        assert all(ds.matrix.flags.c_contiguous for ds in reads)
        forests = [TreeForest.from_matrix(ds.matrix, ds.labels) for ds in reads]
        fits = [fit_model(np.asfortranarray(x), y, 1.0).forest, fit_model(x, y, 1.0).forest]
        for first, second in (forests, fits):
            for part in ("means", "sds", "leaf1", "leaf0"):
                assert np.array_equal(getattr(first, part), getattr(second, part)), part
        assert np.array_equal(forests[0].means, fits[1].means)


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

    @pytest.mark.parametrize("n, p", [(20, 6), (100, 5000), (1000, 1000), (5000, 300),
                                      (70000, 2), (200, 50), (37, 4097)])
    def test_variances_are_the_bits_of_var(self, n, p):
        # the floor compares column_sums' variances, which equal numpy's
        # x.var on a C-ordered matrix bit for bit; at a floor equal to one
        # column's variance, that column is dropped and every larger one kept
        x = np.random.default_rng(n + p).normal(size=(n, p)) * np.geomspace(1e-3, 1e3, p)
        variances = x.var(axis=0, ddof=1)
        assert np.array_equal(column_sums(x, centre=column_sums(x) / n) / (n - 1), variances)
        floor = float(np.sort(variances)[(p - 1) // 2])
        out = preprocess(Dataset(x, np.arange(n) % 2, [f"g{j}" for j in range(p)]),
                         variance_floor=floor)
        assert out.names == [f"g{j}" for j in np.flatnonzero(variances > floor)]


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
        assert np.array_equal(raw.forest.leaf1, mapped.forest.leaf1)
        assert np.array_equal(raw.forest.leaf0, mapped.forest.leaf0)
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
        write_csv(path, ["row", "psi", "label"], zip(range(2), [0.2, 0.8], [0, 1]))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "row,psi,label"
        assert lines[1] == "0,0.2,0"
        assert lines[2] == "1,0.8,1"


@pytest.fixture(scope="module")
def wide_model():
    """An n=100, p=5000 model, the size `ptda predict` loads, and test points."""
    train, test, _ = generate(SimulationSpec(1, n_train=100, n_test=20, p=5000,
                                             n_discriminative=50, seed=3))
    return fit_model(train.matrix, train.labels, 1.0, names=train.names), test.matrix


class TestJsonWriter:
    def test_non_json_value_raises_before_any_file(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError):
            write_json(path, {"a": 1, "b": np.int64(2)})
        assert not path.exists()

    def test_compact_on_one_line(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"a": [1, 2.5, -0.0], "b": {"c": "d"}, "e": True})
        assert path.read_text(encoding="utf-8") == '{"a":[1,2.5,-0.0],"b":{"c":"d"},"e":true}\n'

    def test_outputs_parse_to_the_indented_document(self, tmp_path, wide_model):
        # the compact text differs from json.dump(doc, fh, indent=1) only in
        # whitespace: both give every float its repr, so the documents parse
        # equal and re-encode to the same indented text
        train, _, _ = generate(SimulationSpec(3, n_train=40, n_test=10, p=30,
                                              n_discriminative=5, seed=5))
        model, _ = wide_model
        report, _ = select_c(train.matrix, train.labels, grid=[(1.0, 1.0, 5.0, 10.0)])
        report.names = list(train.names)
        _, summary = cross_validate(train, 4, grid=[(1.0, 1.0, 1.0, 1.0)], seed=5, threads=1)
        path = tmp_path / "out.json"
        for doc, save in ((model.to_json_dict(), model.save), (report.to_json_dict(), report.save),
                          (summary, lambda out: write_json(out, summary))):
            save(path)
            text = path.read_text(encoding="utf-8")
            assert text.endswith("}\n") and text.count("\n") == 1
            indented = json.dumps(doc, indent=1)
            assert json.loads(text) == json.loads(indented)
            assert json.dumps(json.loads(text), indent=1) == indented

    def test_reloaded_model_is_bit_identical(self, tmp_path, wide_model):
        model, points = wide_model
        path = tmp_path / "model.json"
        model.save(path)
        loaded = FittedModel.load(path)
        for got, want in ((loaded.omega, model.omega), (loaded.forest.means, model.forest.means),
                          (loaded.forest.sds, model.forest.sds), (loaded.c, model.c),
                          (loaded.forest.leaf1, model.forest.leaf1),
                          (loaded.forest.leaf0, model.forest.leaf0),
                          (update_psi(loaded, points).psi, update_psi(model, points).psi)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
