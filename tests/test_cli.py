"""End-to-end CLI behavior: pipelines, determinism, exit codes, help text."""

import csv
import json
import os

import numpy as np
import pytest

import ptda.cli
from ptda.cli import build_parser, dispatch
from ptda.dataio import write_csv, write_json
from ptda.errors import ContractViolation

from adapters import path_map, tree_of
from conftest import traced_peak
from oracles import dense_log_bayes_factor


def run(argv, capsys=None):
    code = dispatch(argv)
    if capsys is not None:
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return code


def simulate_small(tmp_path, seed=7, setting=1):
    out = tmp_path / f"sim{seed}"
    code = dispatch([
        "simulate", "--setting", str(setting), "--seed", str(seed),
        "--n-train", "40", "--n-test", "20", "--p", "12", "--n-disc", "3",
        "--out-dir", str(out),
    ])
    assert code == 0
    return out


FIT_FLAGS = "--seed --u --a-y --b-y --tol --max-iter --depth"
DATA_FLAGS = "--data --label-column --positive-label --orientation"

# each subcommand's flags, in registration order: only the settings its handler reads
FLAGS = {
    "simulate": "--setting --n-train --n-test --p --n-disc --out-dir --config --seed",
    "select-c": f"--config {FIT_FLAGS} {DATA_FLAGS} --ladder --out --out-csv",
    "fit": f"--config {FIT_FLAGS} {DATA_FLAGS} --c --c-report --ladder --median-floor "
           "--variance-floor --out",
    "predict": f"--model {DATA_FLAGS} --threshold --out",
    "cv": f"--config {FIT_FLAGS} --threads {DATA_FLAGS} --k --ladder --median-floor "
          "--variance-floor --timings --out --out-summary",
    "bf": f"--config --depth {DATA_FLAGS} --c --value-column --group-column",
    "density": "--model --variable --grid-points --x-min --x-max --out",
}


def subcommand_flags(command):
    """The option strings a subcommand registers, in order, without --help."""
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    return [flag for action in commands.choices[command]._actions
            for flag in action.option_strings if flag not in ("-h", "--help")]


class TestHelp:
    def test_top_level_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for name in ("simulate", "select-c", "fit", "predict", "cv", "bf", "density"):
            assert name in text

    @pytest.mark.parametrize("command,flags", [
        ("simulate", ["--setting", "--n-train", "--n-test", "--p", "--n-disc", "--out-dir", "--seed"]),
        ("select-c", ["--data", "--label-column", "--ladder", "--out", "--u", "--tol"]),
        ("fit", ["--c", "--c-report", "--median-floor", "--variance-floor", "--out"]),
        ("predict", ["--model", "--threshold", "--out"]),
        ("cv", ["--k", "--timings", "--out"]),
        ("bf", ["--c", "--value-column", "--group-column"]),
        ("density", ["--variable", "--grid-points", "--x-min", "--x-max"]),
    ])
    def test_subcommand_help_enumerates_flags(self, capsys, command, flags):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text
        if command == "cv":
            assert "default 5" in text  # defaults are documented

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_subcommand_takes_exactly_the_flags_it_reads(self, command):
        assert subcommand_flags(command) == FLAGS[command].split()

    @pytest.mark.parametrize("argv", [
        ["fit", "--data", "d.csv", "--label-column", "y", "--out", "m.json", "--no-standardize"],
        ["cv", "--data", "d.csv", "--label-column", "y", "--out", "f.csv", "--paper-protocol"],
        ["predict", "--model", "m.json", "--data", "d.csv", "--out", "p.csv", "--seed", "9"],
        ["bf", "--data", "d.csv", "--label-column", "y", "--u", "7"],
        ["simulate", "--setting", "1", "--out-dir", "sim", "--tol", "1e-3"],
        ["select-c", "--data", "d.csv", "--label-column", "y", "--out", "r.json",
         "--threads", "2"],
    ], ids=["fit-no-standardize", "cv-paper-protocol", "predict-seed", "bf-u", "simulate-tol",
            "select-c-threads"])
    def test_removed_flags_exit_one(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert dispatch(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_removed_bench_subcommand_exits_one(self, capsys):
        assert dispatch(["bench", "--out", "b.csv"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        code = dispatch(["simulate", "--setting", "1", "--no-such-flag", "--out-dir", "x"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        a = simulate_small(tmp_path / "a", seed=7)
        b = simulate_small(tmp_path / "b", seed=7)
        for name in ("train.csv", "test.csv", "truth.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_truth_layout(self, tmp_path):
        out = simulate_small(tmp_path, seed=3)
        lines = (out / "truth.csv").read_text().strip().splitlines()[1:]
        flags = [int(l.split(",")[1]) for l in lines]
        assert flags == [1, 1, 1] + [0] * 9

    def test_bad_setting_exits_one(self, tmp_path, capsys):
        code = dispatch(["simulate", "--setting", "9", "--out-dir", str(tmp_path / "x")])
        assert code == 1

    @pytest.mark.parametrize("bad", [["--n-disc", "-1"], ["--p", "0", "--n-disc", "0"]],
                             ids=["n-disc-negative", "p-zero"])
    def test_bad_counts_exit_one_without_files(self, tmp_path, capsys, bad):
        code, _, err = run(["simulate", "--setting", "1", *bad, "--out-dir", str(tmp_path / "x")],
                           capsys)
        assert code == 1
        assert "must" in err
        assert not (tmp_path / "x").exists()


class TestSelectC:
    def test_failed_csv_leaves_no_report(self, tmp_path, capsys):
        out = simulate_small(tmp_path, seed=13)
        report = tmp_path / "report.json"
        code, _, err = run(["select-c", "--data", str(out / "train.csv"), "--label-column", "y",
                            "--ladder", "1", "--out", str(report),
                            "--out-csv", str(tmp_path / "missing-dir" / "report.csv")], capsys)
        assert code == 1
        assert "report.csv" in err
        assert not report.exists()


    def test_csv_quotes_a_name_holding_a_comma(self, tmp_path, capsys):
        out = simulate_small(tmp_path, seed=13)
        lines = (out / "train.csv").read_text().splitlines()
        data = tmp_path / "comma.csv"
        data.write_text("\n".join(['"a,b"' + lines[0][len("V1"):], *lines[1:]]) + "\n")
        report_csv = tmp_path / "report.csv"
        code, _, err = run(["select-c", "--data", str(data), "--label-column", "y", "--ladder", "1",
                            "--out", str(tmp_path / "report.json"), "--out-csv", str(report_csv)],
                           capsys)
        assert code == 0, err
        with open(report_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {6}
        assert rows[1][0] == "a,b"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "label 2"])
    def test_bad_data_exits_one_without_report(self, tmp_path, capsys, cell):
        out = simulate_small(tmp_path, seed=13)
        lines = (out / "train.csv").read_text().splitlines()
        fields = lines[3].split(",")
        if cell == "label 2":
            fields[-1] = "2"
        else:
            fields[1] = cell
        lines[3] = ",".join(fields)
        data = tmp_path / "bad.csv"
        data.write_text("\n".join(lines) + "\n")
        report = tmp_path / "report.json"
        code, _, err = run(["select-c", "--data", str(data), "--label-column", "y",
                            "--ladder", "1", "--out", str(report)], capsys)
        assert code == 1
        assert ("two distinct values" if cell == "label 2" else "the matrix must be finite") in err
        assert not report.exists()


class TestFitPredictPipeline:
    def test_round_trip(self, tmp_path, capsys):
        out = simulate_small(tmp_path, seed=11)
        model_path = tmp_path / "model.json"
        code, stdout, _ = run([
            "fit", "--data", str(out / "train.csv"), "--label-column", "y",
            "--c", "1.0", "--out", str(model_path)], capsys)
        assert code == 0
        assert "resubstitution error" in stdout
        assert model_path.exists()

        pred_path = tmp_path / "pred.csv"
        code, stdout, _ = run([
            "predict", "--model", str(model_path), "--data", str(out / "test.csv"),
            "--label-column", "y", "--out", str(pred_path)], capsys)
        assert code == 0
        assert "classification error" in stdout
        lines = pred_path.read_text().strip().splitlines()
        assert lines[0] == "row,psi,label"
        assert len(lines) == 21
        psis = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(0.0 < v < 1.0 for v in psis)

    def test_fit_resubstitution_matches_select_c(self, tmp_path, capsys):
        out = simulate_small(tmp_path, seed=13)
        report_path = tmp_path / "report.json"
        code, stdout, _ = run([
            "select-c", "--data", str(out / "train.csv"), "--label-column", "y",
            "--ladder", "1,5", "--out", str(report_path)], capsys)
        assert code == 0
        reported = float(stdout.split("resubstitution error:")[1].strip())

        code, stdout, _ = run([
            "fit", "--data", str(out / "train.csv"), "--label-column", "y",
            "--c-report", str(report_path), "--out", str(tmp_path / "m.json")], capsys)
        assert code == 0
        refit = float(stdout.split("resubstitution error:")[1].strip())
        assert refit == pytest.approx(reported, abs=1e-12)

    def test_predict_refuses_reordered_variables(self, tmp_path, capsys):
        out = simulate_small(tmp_path, seed=67)
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", str(out / "train.csv"), "--label-column", "y",
                    "--c", "1.0", "--out", str(model_path)]) == 0
        rows = [line.split(",") for line in (out / "test.csv").read_text().splitlines()]
        reordered = tmp_path / "reordered.csv"
        reordered.write_text("".join(",".join(r[-2::-1] + r[-1:]) + "\n" for r in rows),
                             encoding="utf-8")
        pred_path = tmp_path / "pred.csv"
        code, _, err = run(["predict", "--model", str(model_path), "--data", str(reordered),
                            "--label-column", "y", "--out", str(pred_path)], capsys)
        assert code == 1
        assert "'V12'" in err and "'V1'" in err
        assert not pred_path.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_predict_refuses_non_finite_points(self, tmp_path, capsys, bad):
        out = simulate_small(tmp_path, seed=71)
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", str(out / "train.csv"), "--label-column", "y",
                    "--c", "1.0", "--out", str(model_path)]) == 0
        lines = (out / "test.csv").read_text().splitlines()
        cells = lines[2].split(",")
        cells[0] = cells[4] = bad
        lines[2] = ",".join(cells)
        query = tmp_path / "query.csv"
        query.write_text("\n".join(lines) + "\n", encoding="utf-8")
        pred_path = tmp_path / "pred.csv"
        code, _, err = run(["predict", "--model", str(model_path), "--data", str(query),
                            "--label-column", "y", "--out", str(pred_path)], capsys)
        assert code == 1
        assert "finite" in err
        assert not pred_path.exists()

    @pytest.mark.parametrize("omega", [float("nan"), float("inf"), 5.0, -2.0])
    def test_predict_refuses_model_with_bad_omega(self, tmp_path, capsys, omega):
        out = simulate_small(tmp_path, seed=73)
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", str(out / "train.csv"), "--label-column", "y",
                    "--c", "1.0", "--out", str(model_path)]) == 0
        doc = json.loads(model_path.read_text())
        doc["variables"][3]["omega"] = omega
        # json writes NaN and Infinity, and json.load reads them back
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        pred_path = tmp_path / "pred.csv"
        code, _, err = run(["predict", "--model", str(model_path), "--data", str(out / "test.csv"),
                            "--label-column", "y", "--out", str(pred_path)], capsys)
        assert code == 1
        assert "omega" in err
        assert not pred_path.exists()

    def test_fit_outputs_reproducible(self, tmp_path, capsys):
        out = simulate_small(tmp_path, seed=17)
        paths = []
        for tag in ("x", "y"):
            model_path = tmp_path / f"model_{tag}.json"
            assert run(["fit", "--data", str(out / "train.csv"), "--label-column", "y",
                        "--c", "2.0", "--out", str(model_path)]) == 0
            paths.append(model_path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestBf:
    def test_two_column_mode_matches_dense_oracle(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        values = np.round(rng.normal(size=16), 6)
        rows = ["value,group"] + [f"{float(v)!r},{i % 2}" for i, v in enumerate(values)]
        data = tmp_path / "pairs.csv"
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, stdout, _ = run([
            "bf", "--data", str(data), "--value-column", "value",
            "--group-column", "group", "--c", "1.0", "--depth", "3"], capsys)
        assert code == 0
        printed = float(stdout.strip().split(",")[1])

        labels = np.array([i % 2 for i in range(16)])
        tree = tree_of(values, labels, 3)
        assert printed == pytest.approx(
            dense_log_bayes_factor(path_map(tree), 3, 1.0), abs=1e-13)

    def test_matrix_mode_prints_per_variable(self, tmp_path, capsys):
        out = simulate_small(tmp_path, seed=19)
        code, stdout, _ = run([
            "bf", "--data", str(out / "train.csv"), "--label-column", "y"], capsys)
        assert code == 0
        lines = stdout.strip().splitlines()
        assert len(lines) == 12
        assert lines[0].startswith("V1,")

    @staticmethod
    def _pairs(tmp_path):
        """Two-column files of one sample, samples in rows and variables in rows."""
        rng = np.random.default_rng(6)
        values = [repr(float(v)) for v in np.round(rng.normal(size=12), 6)]
        groups = [str(i % 2) for i in range(12)]
        by_rows = tmp_path / "pairs.csv"
        by_rows.write_text("\n".join(["v,g", *map(",".join, zip(values, groups))]) + "\n",
                           encoding="utf-8")
        by_columns = tmp_path / "pairs-t.csv"
        ids = [f"s{i}" for i in range(12)]
        by_columns.write_text("\n".join(",".join(row) for row in (
            ["id", *ids], ["v", *values], ["g", *groups])) + "\n", encoding="utf-8")
        return by_rows, by_columns

    def test_two_column_mode_reads_variables_in_rows(self, tmp_path, capsys):
        by_rows, by_columns = self._pairs(tmp_path)
        two_column = ["bf", "--value-column", "v", "--group-column", "g", "--depth", "3"]
        code, expected, _ = run([*two_column, "--data", str(by_rows)], capsys)
        assert code == 0
        code, stdout, _ = run([*two_column, "--data", str(by_columns),
                               "--orientation", "variables-in-rows"], capsys)
        assert code == 0
        assert stdout == expected

    @pytest.mark.parametrize("orientation", ["samples-in-rows", "variables-in-rows"])
    @pytest.mark.parametrize("c", ["1", "7.3", "100"])
    def test_two_column_line_is_the_matrix_line(self, tmp_path, capsys, orientation, c):
        # two-column mode is matrix mode on one column, so it prints that line byte for byte
        train = simulate_small(tmp_path, seed=17) / "train.csv"
        if orientation == "variables-in-rows":
            rows = list(csv.reader(train.read_text(encoding="utf-8").splitlines()))
            train = tmp_path / "train-t.csv"
            ids = [f"s{i}" for i in range(len(rows) - 1)]
            train.write_text("\n".join(map(",".join, [["id", *ids], *zip(*rows)])) + "\n",
                             encoding="utf-8")
        common = ["bf", "--data", str(train), "--orientation", orientation, "--c", c]
        code, stdout, _ = run([*common, "--label-column", "y"], capsys)
        assert code == 0
        matrix_lines = stdout.splitlines(keepends=True)
        assert len(matrix_lines) == 12
        for j in (0, 6, 11):
            code, line, _ = run([*common, "--value-column", f"V{j + 1}", "--group-column", "y"],
                                capsys)
            assert code == 0
            assert line == matrix_lines[j]

    def test_label_column_in_two_column_mode_exits_one(self, tmp_path, capsys):
        by_rows, _ = self._pairs(tmp_path)
        code, stdout, err = run(["bf", "--data", str(by_rows), "--value-column", "v",
                                 "--group-column", "g", "--label-column", "g"], capsys)
        assert code == 1
        assert stdout == ""
        assert "--label-column" in err

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf", "0", "-2"])
    @pytest.mark.parametrize("depth", [["--depth", "1"], []], ids=["depth-1", "default-depth"])
    @pytest.mark.parametrize("two_column", [False, True], ids=["matrix", "two-column"])
    def test_non_finite_or_non_positive_c_exits_one(self, tmp_path, capsys, c, depth,
                                                    two_column):
        by_rows, _ = self._pairs(tmp_path)
        mode = ["--value-column", "v", "--group-column", "g"] if two_column else \
            ["--label-column", "g"]
        code, stdout, err = run(["bf", "--data", str(by_rows), *mode, f"--c={c}", *depth],
                                capsys)
        assert code == 1
        assert stdout == ""
        assert "finite and positive" in err

    @pytest.mark.parametrize("c, code", [("200", 1), ("100", 0)])
    @pytest.mark.parametrize("two_column", [False, True], ids=["matrix", "two-column"])
    def test_c_takes_the_range_fit_takes(self, tmp_path, capsys, c, code, two_column):
        # fit --c 200 exits 1, and so does bf; 100 is the largest c either takes
        by_rows, _ = self._pairs(tmp_path)
        mode = ["--value-column", "v", "--group-column", "g"] if two_column else \
            ["--label-column", "g"]
        got, stdout, err = run(["bf", "--data", str(by_rows), *mode, "--c", c], capsys)
        assert got == code
        if code:
            assert stdout == ""
            assert "(0, 100]" in err
        else:
            assert len(stdout.strip().splitlines()) == 1


class TestDensity:
    def test_grid_output(self, tmp_path, capsys):
        out = simulate_small(tmp_path, seed=23)
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", str(out / "train.csv"), "--label-column", "y",
                    "--c", "1.0", "--out", str(model_path)]) == 0
        grid_path = tmp_path / "density.csv"
        code, _, _ = run(["density", "--model", str(model_path), "--variable", "V1",
                          "--grid-points", "64", "--out", str(grid_path)], capsys)
        assert code == 0
        lines = grid_path.read_text().strip().splitlines()
        assert lines[0] == "x,density_group1,density_group0"
        assert len(lines) == 65
        xs, f1s, f0s = zip(*(map(float, l.split(",")) for l in lines[1:]))
        assert all(b > a for a, b in zip(xs, xs[1:]))
        assert min(f1s) >= 0.0 and min(f0s) >= 0.0

    def test_unknown_variable_exits_one(self, tmp_path, capsys):
        out = simulate_small(tmp_path, seed=29)
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", str(out / "train.csv"), "--label-column", "y",
                    "--c", "1.0", "--out", str(model_path)]) == 0
        code = dispatch(["density", "--model", str(model_path), "--variable", "nope",
                         "--out", str(tmp_path / "d.csv")])
        assert code == 1

    @pytest.mark.parametrize("bounds", [
        ["--x-min", "nan"], ["--x-min=-inf"], ["--x-max", "inf"], ["--x-max", "nan"],
        ["--x-min", "-1", "--x-max", "inf"], ["--x-min=-1e308", "--x-max=1e308"],
    ], ids=["min-nan", "min-minus-inf", "max-inf", "max-nan", "finite-min-inf-max",
            "span-overflows"])
    def test_non_finite_grid_end_exits_one_without_output(self, tmp_path, capsys, bounds):
        out = simulate_small(tmp_path, seed=29)
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", str(out / "train.csv"), "--label-column", "y",
                    "--c", "1.0", "--out", str(model_path)]) == 0
        grid_path = tmp_path / "d.csv"
        code, _, err = run(["density", "--model", str(model_path), "--variable", "V1",
                            *bounds, "--out", str(grid_path)], capsys)
        assert code == 1
        assert "finite" in err
        assert not grid_path.exists()

    def test_far_finite_grid_gives_zero_density_without_warning(self, tmp_path, capsys):
        # at 1e308 and beyond, (x - mean) / sd and its square pass the double
        # range: the point is in the outer cell and its density is 0.0; with
        # warnings as errors an overflow warning would exit 2
        out = tmp_path / "sim"
        assert run(["simulate", "--setting", "2", "--seed", "7", "--n-train", "40",
                    "--n-test", "10", "--p", "4", "--n-disc", "2", "--out-dir", str(out)]) == 0
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", str(out / "train.csv"), "--label-column", "y",
                    "--c", "1.0", "--out", str(model_path)]) == 0
        grid_path = tmp_path / "d.csv"
        code, _, err = run(["density", "--model", str(model_path), "--variable", "V1",
                            "--x-min", "1e308", "--x-max", "1.7e308", "--grid-points", "3",
                            "--out", str(grid_path)], capsys)
        assert code == 0 and "Warning" not in err
        rows = [line.split(",") for line in grid_path.read_text().strip().splitlines()[1:]]
        assert [float(row[0]) for row in rows] == [1e308, 1.35e308, 1.7e308]
        assert [float(v) for row in rows for v in row[1:]] == [0.0] * 6


class TestCv:
    def test_fold_metrics_csv(self, tmp_path, capsys):
        out = simulate_small(tmp_path, seed=31)
        cv_path = tmp_path / "folds.csv"
        code, stdout, _ = run([
            "cv", "--data", str(out / "train.csv"), "--label-column", "y",
            "--k", "4", "--ladder", "1", "--seed", "1",
            "--out", str(cv_path), "--out-summary", str(tmp_path / "summary.json")], capsys)
        assert code == 0
        lines = cv_path.read_text().strip().splitlines()
        assert len(lines) == 5
        assert "wall_time" not in lines[0]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "ptda" in summary["methods"]

    def test_failed_summary_leaves_no_rows(self, tmp_path, capsys):
        out = simulate_small(tmp_path, seed=31)
        cv_path = tmp_path / "folds.csv"
        code, _, err = run([
            "cv", "--data", str(out / "train.csv"), "--label-column", "y",
            "--k", "4", "--ladder", "1", "--seed", "1", "--out", str(cv_path),
            "--out-summary", str(tmp_path / "missing-dir" / "summary.json")], capsys)
        assert code == 1
        assert "summary.json" in err
        assert not cv_path.exists()

    @pytest.mark.parametrize("threads", ["-1", "-3"])
    def test_negative_threads_exits_one_without_output(self, tmp_path, capsys, threads):
        out = simulate_small(tmp_path, seed=37)
        cv_path = tmp_path / "folds.csv"
        code, _, err = run(["cv", "--data", str(out / "train.csv"), "--label-column", "y",
                            "--threads", threads, "--out", str(cv_path)], capsys)
        assert code == 1
        assert "--threads" in err
        assert not cv_path.exists()

    def test_reruns_byte_identical(self, tmp_path):
        out = simulate_small(tmp_path, seed=37)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path, threads in ((a, "1"), (b, "3")):
            assert dispatch([
                "cv", "--data", str(out / "train.csv"), "--label-column", "y",
                "--k", "4", "--ladder", "1", "--seed", "1", "--threads", threads,
                "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestNoPartialOutput:
    @staticmethod
    def _argv(command, tmp_path):
        """`command`'s argv, its inputs under tmp_path and its outputs under
        tmp_path/out, where the last output's path is a directory."""
        data = simulate_small(tmp_path, seed=73)
        model = tmp_path / "model.json"
        assert dispatch(["fit", "--data", str(data / "train.csv"), "--label-column", "y",
                         "--c", "1.0", "--out", str(model)]) == 0
        out = tmp_path / "out"
        train = ["--data", str(data / "train.csv"), "--label-column", "y"]
        argv, last = {
            "simulate": (["simulate", "--setting", "1", "--n-train", "8", "--n-test", "4", "--p", "8",
                          "--n-disc", "2", "--out-dir", str(out)], "truth.csv"),
            "select-c": (["select-c", *train, "--ladder", "1", "--out", str(out / "report.json"),
                          "--out-csv", str(out / "report.csv")], "report.csv"),
            "fit": (["fit", *train, "--c", "1.0", "--out", str(out / "model.json")], "model.json"),
            "predict": (["predict", "--model", str(model), "--data", str(data / "test.csv"),
                         "--out", str(out / "pred.csv")], "pred.csv"),
            "cv": (["cv", *train, "--k", "4", "--ladder", "1", "--out", str(out / "folds.csv"),
                    "--out-summary", str(out / "summary.json")], "summary.json"),
            "density": (["density", "--model", str(model), "--variable", "V1",
                         "--out", str(out / "density.csv")], "density.csv"),
        }[command]
        (out / last).mkdir(parents=True)
        return argv, out

    @pytest.mark.parametrize("command", ["simulate", "select-c", "fit", "predict", "cv", "density"])
    def test_failed_last_output_leaves_the_directory_unchanged(self, tmp_path, capsys, command):
        argv, out = self._argv(command, tmp_path)
        before = sorted(out.rglob("*"))
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "error" in err and "internal error" not in err
        assert sorted(out.rglob("*")) == before

    @pytest.mark.parametrize("failing", ["csv", "json"])
    def test_failed_write_leaves_no_file(self, tmp_path, failing):
        # the output whose own write raises is removed as well as the ones before it
        def rows():
            yield [1, 2.5]
            raise RuntimeError("row source failed")

        first, second = tmp_path / "first.csv", tmp_path / f"second.{failing}"
        last = {"csv": (second, write_csv, ["a", "b"], rows()),
                "json": (second, write_json, {"a": 1, "b": np.int64(2)})}[failing]
        with pytest.raises((RuntimeError, TypeError)):
            ptda.cli._write_outputs((first, write_csv, ["a"], [[1]]), last)
        assert sorted(tmp_path.iterdir()) == []


def simulate_tiny(cfg, out_dir):
    """A quick command that parses every common option, config file included."""
    return ["simulate", "--config", str(cfg), "--setting", "1", "--n-train", "8",
            "--n-test", "4", "--p", "8", "--n-disc", "2", "--out-dir", str(out_dir)]


class TestConfig:
    def test_config_file_and_env(self, tmp_path, capsys, monkeypatch):
        out = simulate_small(tmp_path, seed=41)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"u": 2.5, "seed": 41}), encoding="utf-8")
        monkeypatch.setenv("PTDA_CONFIG", str(cfg))
        code, stdout, _ = run([
            "select-c", "--data", str(out / "train.csv"), "--label-column", "y",
            "--ladder", "1", "--out", str(tmp_path / "r.json")], capsys)
        assert code == 0

    def test_bad_u_exits_one(self, tmp_path, capsys):
        out = simulate_small(tmp_path, seed=43)
        code = dispatch(["fit", "--data", str(out / "train.csv"), "--label-column", "y",
                         "--u", "0.9", "--c", "1.0", "--out", str(tmp_path / "m.json")])
        assert code == 1

    @pytest.mark.parametrize("doc", [
        {"u": float("nan")}, {"a_y": -1.0}, {"a_y": 0}, {"b_y": 0.0}, {"b_y": -2},
        {"u": float("inf")}, {"a_y": float("inf")}, {"b_y": float("inf")},
    ], ids=["u-nan", "a-y-negative", "a-y-zero", "b-y-zero", "b-y-negative",
            "u-inf", "a-y-inf", "b-y-inf"])
    def test_bad_hyperparameter_config_exits_one(self, tmp_path, capsys, doc):
        # checked on every command that takes --config, even those that never use them
        data = simulate_small(tmp_path, seed=43) / "train.csv"
        cfg = tmp_path / "cfg.json"
        # NaN and infinity are written as the literals NaN and Infinity
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(simulate_tiny(cfg, tmp_path / "out"), capsys)
        assert code == 1
        assert "must" in err
        assert not (tmp_path / "out").exists()
        code, stdout, _ = run(["bf", "--config", str(cfg), "--data", str(data),
                               "--label-column", "y"], capsys)
        assert code == 1
        assert stdout == ""

    @pytest.mark.parametrize("command", [
        ["fit", "--c", "1.0"], ["fit", "--ladder", "1,10"],
        ["select-c", "--ladder", "1,10", "--out-csv", "{out}.csv"],
        ["cv", "--ladder", "1,10", "--k", "2", "--out-summary", "{out}.json"],
    ], ids=["fit-at-c", "fit-selecting", "select-c", "cv"])
    def test_complexity_weight_beyond_the_double_range_exits_one(self, tmp_path, capsys,
                                                                 command):
        # 80**200 overflows a double: a user's --u, refused as input (fit at
        # a given c takes no --ladder)
        sim = tmp_path / "sim"
        assert run(["simulate", "--setting", "3", "--seed", "5", "--n-train", "30", "--n-test",
                    "4", "--p", "80", "--n-disc", "4", "--out-dir", str(sim)]) == 0
        out = tmp_path / "out"
        argv = [a.format(out=out) for a in command] + [
            "--data", str(sim / "train.csv"), "--label-column", "y", "--u", "200",
            "--out", str(out)]
        code, stdout, err = run(argv, capsys)
        assert code == 1
        assert "complexity weight" in err
        assert stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sim"]

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for doc in ({"nope": 1}, {"paper_protocol": True}):
            cfg.write_text(json.dumps(doc), encoding="utf-8")
            code = dispatch(simulate_tiny(cfg, tmp_path / "out"))
            assert code == 1
            assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"threads": "a"}, {"tol": "x"}, {"ladder": "1,5"}, {"max_iter": 2.5},
        {"u": True}, {"seed": False}, {"depth": 2.0}, {"ladder": [1, "5"]}, [1],
    ], ids=["threads-str", "tol-str", "ladder-str", "max-iter-float", "u-bool",
            "seed-bool", "depth-float", "ladder-str-item", "not-an-object"])
    def test_wrongly_typed_config_value_exits_one(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(simulate_tiny(cfg, tmp_path / "out"), capsys)
        assert code == 1
        assert "config" in err
        assert not (tmp_path / "out").exists()

    def test_negative_threads_config_value_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threads": -3}), encoding="utf-8")
        code, _, err = run(simulate_tiny(cfg, tmp_path / "out"), capsys)
        assert code == 1
        assert "--threads" in err
        assert not (tmp_path / "out").exists()

    def test_predict_and_density_load_no_config(self, tmp_path, capsys, monkeypatch):
        out = simulate_small(tmp_path, seed=41)
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", str(out / "train.csv"), "--label-column", "y",
                    "--c", "1.0", "--out", str(model_path)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}), encoding="utf-8")
        monkeypatch.setenv("PTDA_CONFIG", str(cfg))
        assert run(["predict", "--model", str(model_path), "--data", str(out / "test.csv"),
                    "--label-column", "y", "--out", str(tmp_path / "p.csv")]) == 0
        assert run(["density", "--model", str(model_path), "--variable", "V1",
                    "--out", str(tmp_path / "d.csv")]) == 0

    def test_well_typed_config_values_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"u": 2, "tol": 1e-6, "max_iter": 50, "depth": None,
                                   "ladder": [1, 5.0], "threads": 1, "seed": 3}),
                       encoding="utf-8")
        code = dispatch(simulate_tiny(cfg, tmp_path / "out"))
        assert code == 0

    def test_seed_beyond_int64_accepted(self, tmp_path, capsys):
        # a seed is any integer, from the config file or --seed: the random
        # streams take it modulo 2**64, so it is never converted to int64
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 2 ** 64 + 5}), encoding="utf-8")
        assert dispatch(simulate_tiny(cfg, tmp_path / "a")) == 0
        assert dispatch([*simulate_tiny(cfg, tmp_path / "b"), "--seed", str(2 ** 63)]) == 0


class TestExitCodes:
    def test_contract_violation_exits_two(self, tmp_path, monkeypatch, capsys):
        def broken(args, cfg):
            raise ContractViolation("a broken invariant")

        monkeypatch.setitem(ptda.cli._COMMANDS, "simulate", broken)
        code, _, err = run(["simulate", "--setting", "1", "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "internal error" in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--setting", "1", "--p", "1000000000000", "--out-dir", "{tmp}/sim"],
        ["density", "--model", "{tmp}/model.json", "--variable", "V1",
         "--grid-points", "1000000000000", "--out", "{tmp}/density.csv"],
    ], ids=["simulate", "density"])
    def test_memory_error_exits_one_without_output(self, tmp_path, monkeypatch, capsys, argv):
        # a size the user asked for that cannot be allocated is an input error;
        # the handler raises as numpy does, without allocating
        def unallocatable(args, cfg):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setitem(ptda.cli._COMMANDS, argv[0], unallocatable)
        code, _, err = run([a.format(tmp=tmp_path) for a in argv], capsys)
        assert code == 1
        assert "error: Unable to allocate" in err and "internal error" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["config", "model", "report", "data"])
    def test_non_utf8_input_exits_one(self, tmp_path, capsys, kind):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe{")
        train = simulate_small(tmp_path, seed=79) / "train.csv"
        argv = {
            "config": simulate_tiny(bad, tmp_path / "sim"),
            "model": ["density", "--model", str(bad), "--variable", "V1",
                      "--out", str(tmp_path / "d.csv")],
            "report": ["fit", "--data", str(train), "--label-column", "y", "--c-report", str(bad),
                       "--out", str(tmp_path / "m.json")],
            "data": ["bf", "--data", str(bad), "--label-column", "y"],
        }[kind]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "error" in err and "internal error" not in err
        assert not any((tmp_path / name).exists() for name in ("sim", "d.csv", "m.json"))

    def test_unconverged_fit_exits_one_without_output(self, tmp_path, capsys):
        out = simulate_small(tmp_path, seed=47)
        model_path = tmp_path / "model.json"
        code, _, err = run(["fit", "--data", str(out / "train.csv"), "--label-column", "y",
                            "--c", "1.0", "--max-iter", "1", "--tol", "1e-30",
                            "--out", str(model_path)], capsys)
        assert code == 1
        assert "--max-iter" in err
        assert not model_path.exists()

    def test_nan_tol_exits_one_without_output(self, tmp_path, capsys):
        out = simulate_small(tmp_path, seed=47)
        model_path = tmp_path / "model.json"
        code, _, err = run(["fit", "--data", str(out / "train.csv"), "--label-column", "y",
                            "--c", "1.0", "--tol", "nan", "--out", str(model_path)], capsys)
        assert code == 1
        assert "--tol" in err
        assert not model_path.exists()

    def test_infinite_tol_exits_one_without_output(self, tmp_path, capsys):
        # with tol = inf the first sweep would end as converged
        out = simulate_small(tmp_path, seed=47)
        model_path = tmp_path / "model.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tol": Infinity}', encoding="utf-8")
        for extra in (["--tol", "inf"], ["--config", str(cfg)]):
            code, _, err = run(["fit", "--data", str(out / "train.csv"), "--label-column", "y",
                                "--c", "1.0", *extra, "--out", str(model_path)], capsys)
            assert code == 1
            assert "--tol must be positive and finite" in err
            assert not model_path.exists()

    def test_unconverged_grid_search_exits_one_without_output(self, tmp_path, capsys):
        out = simulate_small(tmp_path, seed=47)
        cv_path = tmp_path / "folds.csv"
        code, _, err = run(["cv", "--data", str(out / "train.csv"), "--label-column", "y",
                            "--k", "4", "--max-iter", "1", "--out", str(cv_path)], capsys)
        assert code == 1
        assert "max_iter" in err
        assert not cv_path.exists()

    def test_unconverged_model_predict_exits_one(self, tmp_path, capsys):
        from ptda.cvb import fit_model
        from ptda.dataio import load_csv

        out = simulate_small(tmp_path, seed=61)
        ds = load_csv(out / "train.csv", label_column="y")
        model_path = tmp_path / "model.json"
        fit_model(ds.matrix, ds.labels, 1.0, max_iter=1, tol=1e-30, names=ds.names).save(model_path)
        pred_path = tmp_path / "pred.csv"
        code, _, err = run(["predict", "--model", str(model_path), "--data", str(out / "test.csv"),
                            "--label-column", "y", "--out", str(pred_path)], capsys)
        assert code == 1
        assert "did not converge" in err
        assert not pred_path.exists()

    def test_labels_only_data_exits_one_without_output(self, tmp_path, capsys):
        # with no variable, the blocks of the (n, 0) moments are empty, not a
        # division by zero: preprocessing reports that nothing is left
        data = tmp_path / "labels.csv"
        data.write_text("y\n0\n1\n0\n1\n", encoding="utf-8")
        model_path = tmp_path / "m.json"
        code, _, err = run(["fit", "--data", str(data), "--label-column", "y",
                            "--variance-floor", "0", "--out", str(model_path)], capsys)
        assert code == 1
        assert "filtered out every variable" in err
        assert not model_path.exists()


class TestLadderOption:
    @pytest.mark.parametrize("ladder", ["1,x", "1,,5"])
    @pytest.mark.parametrize("command", ["select-c", "fit", "cv"])
    def test_non_numeric_entry_exits_one_without_output(self, tmp_path, capsys, command, ladder):
        out = simulate_small(tmp_path, seed=67)
        out_path = tmp_path / "out"
        code, _, err = run([command, "--data", str(out / "train.csv"), "--label-column", "y",
                            "--ladder", ladder, "--out", str(out_path)], capsys)
        assert code == 1
        bad = ladder.split(",")[1]
        assert f"--ladder entry {bad!r}" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["select-c", "fit", "cv"])
    def test_empty_ladder_exits_one_without_output(self, tmp_path, capsys, command):
        # an empty flag is read, not taken for an absent one
        out = simulate_small(tmp_path, seed=2, setting=2)
        out_path = tmp_path / "out"
        code, _, err = run([command, "--data", str(out / "train.csv"), "--label-column", "y",
                            "--ladder", "", "--out", str(out_path)], capsys)
        assert code == 1
        assert "--ladder entry '' is not a number" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("given", ["--c", "--c-report"])
    def test_fit_refuses_ladder_beside_a_given_c(self, tmp_path, capsys, given):
        # the ladder selects c, so beside a given c it would be ignored
        out = simulate_small(tmp_path, seed=2, setting=2)
        report = tmp_path / "report.json"
        report.write_text(json.dumps(valid_report()), encoding="utf-8")
        model_path = tmp_path / "model.json"
        code, _, err = run(["fit", "--data", str(out / "train.csv"), "--label-column", "y",
                            given, "5" if given == "--c" else str(report),
                            "--ladder", "7000", "--out", str(model_path)], capsys)
        assert code == 1
        assert "--ladder" in err
        assert not model_path.exists()


class TestDoubledLabel:
    def test_fit_exits_one_without_model(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("id,s1,s2,s3,s4\ny,0,1,0,1\na,1,2,3,4\ny,1,1,0,0\n", encoding="utf-8")
        model = tmp_path / "m.json"
        code, _, err = run(["fit", "--data", str(data), "--label-column", "y",
                            "--orientation", "variables-in-rows", "--c", "1.0",
                            "--out", str(model)], capsys)
        assert code == 1
        assert "label 'y' is named 2 times" in err
        assert not model.exists()


class TestLargeMagnitudeColumn:
    @staticmethod
    def select_c_exits_zero(tmp_path, capsys, x):
        y = np.array([1, 0] * 20)
        data = tmp_path / "big.csv"
        with open(data, "w", encoding="utf-8") as fh:
            fh.write("a,b,c,y\n")
            for row, label in zip(x, y):
                fh.write(",".join(repr(float(v)) for v in row) + f",{label}\n")
        report = tmp_path / "report.json"
        code, _, err = run(["select-c", "--data", str(data), "--label-column", "y",
                            "--out", str(report)], capsys)
        assert code == 0, err
        assert report.exists()

    def test_select_c_accepts_a_column_near_1e200(self, tmp_path, capsys):
        x = np.random.default_rng(71).normal(size=(40, 3))
        x[:, 1] *= 1e200
        self.select_c_exits_zero(tmp_path, capsys, x)

    def test_select_c_accepts_a_column_spanning_past_the_double_range(self, tmp_path, capsys):
        # column b runs from -1.7e308 to 1.7e308, so its range is not a
        # double; a RuntimeWarning, an error in this suite, would exit 2
        rng = np.random.default_rng(72)
        x = rng.normal(size=(40, 3))
        x[:, 1] = rng.permutation(np.linspace(-1.7, 1.7, 40)) * 1e308
        self.select_c_exits_zero(tmp_path, capsys, x)


class TestDepthOption:
    @pytest.mark.parametrize("command", ["bf", "fit"])
    def test_depth_zero_exits_one(self, tmp_path, capsys, command):
        out = simulate_small(tmp_path, seed=53)
        argv = [command, "--data", str(out / "train.csv"), "--label-column", "y",
                "--depth", "0"]
        if command == "fit":
            argv += ["--c", "1.0", "--out", str(tmp_path / "m.json")]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "depth" in err
        assert not (tmp_path / "m.json").exists()

    def test_oversized_depth_exits_one_without_allocating(self, tmp_path, capsys):
        out = simulate_small(tmp_path, seed=59)
        argv = ["bf", "--data", str(out / "train.csv"), "--label-column", "y", "--depth", "40"]
        peak, (code, _, err) = traced_peak(lambda: run(argv, capsys))
        assert code == 1
        assert "depth" in err
        assert peak < 10 * 2 ** 20  # a depth-40 forest would need 2**41 cells per variable

    def test_locator_beyond_the_budget_exits_one_without_allocating(self, tmp_path, capsys):
        # depth 25 fits one variable's cell budget, but its locator table
        # (~1 GB, ~16 s to build) beside 0.5 GiB of counts does not
        path = tmp_path / "one.csv"
        write_csv(path, ["x", "y"], [[0.5 * i, i % 2] for i in range(20)])
        argv = ["bf", "--data", str(path), "--label-column", "y", "--depth", "25"]
        peak, (code, _, err) = traced_peak(lambda: run(argv, capsys))
        assert code == 1
        assert "depth" in err
        assert peak < 10 * 2 ** 20


class TestCountRange:
    def test_model_with_a_group_past_int32_exits_one(self, tmp_path, capsys):
        out = simulate_small(tmp_path, seed=61)
        model = tmp_path / "m.json"
        assert run(["fit", "--data", str(out / "train.csv"), "--label-column", "y", "--c", "1",
                    "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        for record in doc["variables"]:
            record["leaf1"][0] += 2 ** 31 - doc["n1"]
        doc["n1"] = 2 ** 31
        write_json(model, doc)
        code, _, err = run(["predict", "--model", str(model), "--data", str(out / "test.csv"),
                            "--out", str(tmp_path / "p.csv")], capsys)
        assert code == 1
        assert "2147483647" in err
        assert not (tmp_path / "p.csv").exists()


def valid_report(p=12):
    return {"chosen_a": [1.0, 5.0, 10.0, 50.0], "resubstitution_error": 0.1,
            "v0": [0.5] * p, "v1": [0.5] * p, "expected": [0.5] * p,
            "bins": [1, 2, 3, 4] * (p // 4), "names": [f"V{j + 1}" for j in range(p)]}


def edited_report(edit):
    doc = valid_report()
    edit(doc)
    return json.dumps(doc)


class TestCReport:
    def _fit(self, tmp_path, capsys, report_text):
        out = simulate_small(tmp_path, seed=71)
        report = tmp_path / "report.json"
        report.write_text(report_text, encoding="utf-8")
        model_path = tmp_path / "model.json"
        code, _, err = run(["fit", "--data", str(out / "train.csv"), "--label-column", "y",
                            "--c-report", str(report), "--out", str(model_path)], capsys)
        return code, err, model_path

    def test_valid_report_fits(self, tmp_path, capsys):
        code, _, model_path = self._fit(tmp_path, capsys, json.dumps(valid_report()))
        assert code == 0
        c = [v["c"] for v in json.loads(model_path.read_text())["variables"]]
        assert c == [1.0, 5.0, 10.0, 50.0] * 3

    @pytest.mark.parametrize("text", [
        "{not json",
        edited_report(lambda doc: doc.pop("bins")),
        edited_report(lambda doc: doc.update(chosen_a=[1.0, 5.0])),
        edited_report(lambda doc: doc["bins"].__setitem__(0, 0)),
        edited_report(lambda doc: doc["bins"].__setitem__(0, 5)),
        edited_report(lambda doc: doc["bins"].__setitem__(0, 1.5)),
        edited_report(lambda doc: doc.update(chosen_a=[5.0, 1.0, 10.0, 50.0])),
        edited_report(lambda doc: doc.update(chosen_a=[0.0, 5.0, 10.0, 50.0])),
        edited_report(lambda doc: doc.update(chosen_a=[1.0, 5.0, 10.0, 101.0])),
        edited_report(lambda doc: doc.update(chosen_a=[1.0, "a", 10.0, 50.0])),
        edited_report(lambda doc: doc.update(chosen_a="1555")),
        edited_report(lambda doc: doc.update(chosen_a=[[1.0, 5.0], [10.0, 50.0]] * 2)),
        edited_report(lambda doc: doc["v0"].pop()),
        edited_report(lambda doc: doc.update(expected=[0.5] * 13)),
        edited_report(lambda doc: doc["names"].pop()),
        edited_report(lambda doc: doc["names"].__setitem__(1, "V1")),
        edited_report(lambda doc: doc["names"].__setitem__(0, 1)),
        edited_report(lambda doc: doc.update(names="V1")),
        edited_report(lambda doc: doc["bins"].__setitem__(0, True)),
        edited_report(lambda doc: doc["chosen_a"].__setitem__(0, True)),
        edited_report(lambda doc: doc["chosen_a"].__setitem__(1, "5")),
        edited_report(lambda doc: doc.update(resubstitution_error="0.25")),
        edited_report(lambda doc: doc["v0"].__setitem__(0, float("nan"))),
        edited_report(lambda doc: doc["v1"].__setitem__(0, -0.5)),
        edited_report(lambda doc: doc["v0"].__setitem__(0, 10 ** 400)),
    ], ids=["unparsable", "missing-bins", "two-values", "bin-zero", "bin-five",
            "bin-not-integer", "not-monotone", "a-zero", "a-above-100", "a-not-number",
            "a-string", "a-nested", "short-v0", "long-expected", "short-names", "duplicate-names",
            "name-not-string", "names-string", "bin-true", "a-true", "a-numeric-string",
            "error-numeric-string", "v0-nan", "v1-negative", "v0-huge-integer"])
    def test_malformed_report_exits_one_without_model(self, tmp_path, capsys, text):
        code, err, model_path = self._fit(tmp_path, capsys, text)
        assert code == 1
        assert "smoothing report" in err
        assert not model_path.exists()

    def test_report_without_names_asks_for_select_c(self, tmp_path, capsys):
        code, err, model_path = self._fit(tmp_path, capsys,
                                          edited_report(lambda doc: doc.pop("names")))
        assert code == 1
        assert "rerun select-c" in err
        assert not model_path.exists()

    def test_report_of_reordered_variables_refused(self, tmp_path, capsys):
        out = simulate_small(tmp_path, seed=71)
        report = tmp_path / "report.json"
        assert run(["select-c", "--data", str(out / "train.csv"), "--label-column", "y",
                    "--ladder", "1,5", "--out", str(report)]) == 0
        assert json.loads(report.read_text())["names"] == [f"V{j + 1}" for j in range(12)]
        rows = [line.split(",") for line in (out / "train.csv").read_text().splitlines()]
        reordered = tmp_path / "reordered.csv"
        reordered.write_text("".join(",".join(r[-2::-1] + r[-1:]) + "\n" for r in rows),
                             encoding="utf-8")
        model_path = tmp_path / "model.json"
        code, _, err = run(["fit", "--data", str(reordered), "--label-column", "y",
                            "--c-report", str(report), "--out", str(model_path)], capsys)
        assert code == 1
        assert "'V12'" in err and "'V1'" in err
        assert not model_path.exists()
