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


class TestHelp:
    def test_top_level_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for name in ("simulate", "select-c", "fit", "predict", "cv", "bf", "density", "bench"):
            assert name in text

    @pytest.mark.parametrize("command,flags", [
        ("simulate", ["--setting", "--n-train", "--n-test", "--p", "--n-disc", "--out-dir", "--seed"]),
        ("select-c", ["--data", "--label-column", "--ladder", "--out", "--u", "--tol"]),
        ("fit", ["--c", "--c-report", "--median-floor", "--variance-floor", "--no-standardize", "--out"]),
        ("predict", ["--model", "--threshold", "--out"]),
        ("cv", ["--k", "--paper-protocol", "--timings", "--out"]),
        ("bf", ["--c", "--value-column", "--group-column"]),
        ("density", ["--variable", "--grid-points", "--x-min", "--x-max"]),
        ("bench", ["--p-values", "--n", "--repeats", "--out"]),
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

    def test_reruns_byte_identical(self, tmp_path):
        out = simulate_small(tmp_path, seed=37)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path, threads in ((a, "1"), (b, "3")):
            assert dispatch([
                "cv", "--data", str(out / "train.csv"), "--label-column", "y",
                "--k", "4", "--ladder", "1", "--seed", "1", "--threads", threads,
                "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestBench:
    def test_writes_timings(self, tmp_path, capsys):
        path = tmp_path / "bench.csv"
        code, stdout, _ = run(["bench", "--p-values", "16,32", "--n", "16",
                               "--repeats", "1", "--out", str(path)], capsys)
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "p,n,seconds"
        assert len(lines) == 3


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
        cfg.write_text(json.dumps({"nope": 1}), encoding="utf-8")
        code = dispatch(["bench", "--config", str(cfg), "--p-values", "8",
                         "--n", "8", "--out", str(tmp_path / "b.csv")])
        assert code == 1


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
