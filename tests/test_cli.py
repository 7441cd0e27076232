"""End-to-end CLI behavior: pipelines, determinism, exit codes, help text."""

import json
import os

import numpy as np
import pytest

import ptda.cli
from ptda.cli import build_parser, dispatch
from ptda.errors import ContractViolation

from adapters import path_map, tree_of
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
            dense_log_bayes_factor(path_map(tree), 3, 1.0), abs=1e-10)

    def test_matrix_mode_prints_per_variable(self, tmp_path, capsys):
        out = simulate_small(tmp_path, seed=19)
        code, stdout, _ = run([
            "bf", "--data", str(out / "train.csv"), "--label-column", "y"], capsys)
        assert code == 0
        lines = stdout.strip().splitlines()
        assert len(lines) == 12
        assert lines[0].startswith("V1,")


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
        ["--x-min", "-1", "--x-max", "inf"],
    ], ids=["min-nan", "min-minus-inf", "max-inf", "max-nan", "finite-min-inf-max"])
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


class TestExitCodes:
    def test_contract_violation_exits_two(self, tmp_path, monkeypatch, capsys):
        def broken(args, cfg):
            raise ContractViolation("a broken invariant")

        monkeypatch.setitem(ptda.cli._COMMANDS, "simulate", broken)
        code, _, err = run(["simulate", "--setting", "1", "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "internal error" in err

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


class TestLargeMagnitudeColumn:
    def test_select_c_accepts_a_column_near_1e200(self, tmp_path, capsys):
        rng = np.random.default_rng(71)
        x = rng.normal(size=(40, 3))
        x[:, 1] *= 1e200
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
        import tracemalloc

        out = simulate_small(tmp_path, seed=59)
        argv = ["bf", "--data", str(out / "train.csv"), "--label-column", "y", "--depth", "40"]
        tracemalloc.start()
        try:
            code, _, err = run(argv, capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "depth" in err
        assert peak < 10 * 2 ** 20  # a depth-40 forest would need 2**41 cells per variable


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
    ], ids=["unparsable", "missing-bins", "two-values", "bin-zero", "bin-five",
            "bin-not-integer", "not-monotone", "a-zero", "a-above-100", "a-not-number",
            "a-string", "a-nested", "short-v0", "long-expected", "short-names", "duplicate-names", "name-not-string", "names-string"])
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
