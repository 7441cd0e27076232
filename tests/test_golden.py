"""Pinned outputs of whole reps, so that refactors of the fit and scoring path
must reproduce them bit for bit."""

import hashlib

import numpy as np
import pytest

from ptda.bnp_test import log_bayes_factors
from ptda.cli import dispatch
from ptda.cvb import FittedModel, fit_model, update_psi
from ptda.evalharness import run_simulation_study
from ptda.polya_tree import TreeForest, blocks
from ptda.simgen import SimulationSpec, generate
from ptda.smoothing import select_c

COLUMNS = ("rep", "method", "classification_error", "selection_accuracy", "tp", "tn", "fp", "fn",
           "n_selected", "sweeps", "converged", "chosen_a")

SHAPE_1 = dict(n_train=40, n_test=30, p=24, n_discriminative=4, base_seed=11)
SHAPE_2 = dict(n_train=60, n_test=30, p=16, n_discriminative=4, base_seed=13)
# 300 test points at p=600 are scored in row blocks of 109, 109 and 82
SHAPE_3 = dict(n_train=80, n_test=300, p=600, n_discriminative=60, base_seed=17)

ROWS_1 = [
    (0, 'ptda', 0.4, 0.8333333333333334, 0, 20, 0, 4, 0, 5, True, '1.0:1.0:1.0:5.0'),
    (0, 'gaussian_nb', 0.5666666666666667, 0.16666666666666666, 4, 0, 20, 0, 24, 0, True, ''),
    (1, 'ptda', 0.3333333333333333, 0.875, 1, 20, 0, 3, 1, 5, True, '1.0:1.0:1.0:1.0'),
    (1, 'gaussian_nb', 0.43333333333333335, 0.16666666666666666, 4, 0, 20, 0, 24, 0, True, ''),
]

ROWS_2 = [
    (0, 'ptda', 0.43333333333333335, 0.8125, 1, 12, 0, 3, 1, 5, True, '1.0:1.0:1.0:1.0'),
    (0, 'gaussian_nb', 0.26666666666666666, 0.25, 4, 0, 12, 0, 16, 0, True, ''),
    (1, 'ptda', 0.43333333333333335, 0.75, 0, 12, 0, 4, 0, 5, True, '1.0:1.0:1.0:1.0'),
    (1, 'gaussian_nb', 0.43333333333333335, 0.25, 4, 0, 12, 0, 16, 0, True, ''),
]

ROWS_3 = [
    (0, 'ptda', 0.18, 0.9083333333333333, 5, 540, 0, 55, 5, 7, True, '1.0:1.0:1.0:1.0'),
    (0, 'gaussian_nb', 0.12, 0.1, 60, 0, 540, 0, 600, 0, True, ''),
]

# SHA-256 of the little-endian float64 test-set psi of rep 0 of SHAPE_3 (setting 2, seed 17)
PSI_3_SHA256 = "bf7eae59a91af210cc783ccd718f4a9675a6d1c7df2d76b16c78306cd5049f8f"

# SHA-256 of the little-endian int64 flat leaves and the float64 psi of the
# 300 test points of the predict_stream shape (setting 1, n=100, p=5000, seed
# 1900), fitted at c=1
STREAM_FLAT_SHA256 = "15fbb9929c03a8b5671e529da9265df078f246d5794d9f67f874a384a81f3253"
STREAM_PSI_SHA256 = "68ac3edc953e629202c57eea01d3edb1116b05009c2bbc93ed7090b724d44ac3"

# SHA-256 of the little-endian float64 omega of the selected fit of rep 0 of
# SHAPE_1 (setting 1, seed 11), and of its test-set psi
OMEGA_SHA256 = "7a2d4693f3cd5c86de7d22944a3dda7f8b8c76977452c26ce5bf323c87a65431"
PSI_SHA256 = "d5b687ccbba633da86181e0600fe70dc8b3b6775db82e1ee85fce4198de3d7e4"

# the same omega and psi as first pinned, from a Lanczos log-gamma series
# (g = 7, 9 terms); math.lgamma moved them by up to 1.2e-12 relative, and
# the bit pins above may drift from them by no more than DRIFT
DRIFT = 1e-10
OMEGA = [
    0.046209071760733404, 0.08782249915893561, 0.09529510521554102, 0.0537410996134058,
    0.001037521894888571, 2.252255512411301e-06, 0.0006284223901943437,
    0.00014084895334272256, 3.2833836417307195e-07, 0.015069014965178849,
    0.015398716057964657, 0.0007626144460912655, 0.002799759052967587,
    0.0023595188036891618, 0.00927524286871624, 0.003727865127205745, 0.002489657557166239,
    0.0008639918644527399, 0.00022291267618703494, 0.000817072611619404,
    0.0055246106390772045, 0.0005353398978421984, 0.00011728165850619173,
    0.0006146903562175321,
]

PSI = [
    0.47654820043456186, 0.46496041008991257, 0.5137744464708135, 0.4884036484327676,
    0.4916144632527083, 0.5219025377395753, 0.5098235273676294, 0.4761339107746898,
    0.4947830423824254, 0.5074058536037575, 0.5094834245200964, 0.4622086939836812,
    0.4968410405958181, 0.49648539961491545, 0.5524040221940365, 0.5433871078320721,
    0.5265026209220557, 0.5527824416309419, 0.4953998917655584, 0.4654070715997252,
    0.46632620226723015, 0.5038612213229531, 0.4905202955104906, 0.4857233197375099,
    0.5143861816454756, 0.5387814986913717, 0.5129417309094951, 0.5244901091139239,
    0.5160004702207985, 0.4903812055844021,
]


def sha256_f8(values):
    return hashlib.sha256(np.asarray(values).astype("<f8").tobytes()).hexdigest()


def table(rows):
    assert all(list(r) == list(COLUMNS) + ["wall_time"] for r in rows)
    return [tuple(r[k] for k in COLUMNS) for r in rows]


# SHA-256 of generate's train matrix, test matrix, train labels and test
# labels (little-endian float64, then int8), fed in that order, of each
# setting at 30 training and 20 test points, p=40, 10 discriminative, seed 7
GENERATE_SHA256 = {
    1: "3905c9824f6f3e386330838e92c7fe29fcb8fc5eb82b172280824d37f64cd671",
    2: "4f15174229184d7b76b95fb8dfc19a374b3db89774113c38bb32eb36d3c12ba6",
    3: "e7be6a4067d0edb8d9353b51d91222ffef37bcf624dae2ae262915498100982c",
    4: "b96618f576133a8c6e6bd6db5d0b9a8fe027fe0a50f646ab8462f2748351f478",
    5: "da7002973360b4ac951507f2664f11ba89b624d4d59da7c411f0cda9e20c6523",
    6: "126c0787951876f894768ba7d4f10da3f67c335108b36ebf3691df61a810d86d",
}


class TestGoldenGenerator:
    @pytest.mark.parametrize("setting", sorted(GENERATE_SHA256))
    def test_setting_bits(self, setting):
        train, test, _ = generate(SimulationSpec(setting, 30, 20, 40, 10, 7))
        digest = hashlib.sha256()
        for values in (train.matrix.astype("<f8"), test.matrix.astype("<f8"),
                       train.labels.astype("<i1"), test.labels.astype("<i1")):
            digest.update(values.tobytes())
        assert digest.hexdigest() == GENERATE_SHA256[setting]


class TestGoldenReps:
    def test_setting_1_rows(self):
        rows, _ = run_simulation_study(1, reps=2, **SHAPE_1)
        assert table(rows) == ROWS_1

    def test_setting_2_rows(self):
        rows, _ = run_simulation_study(2, reps=2, **SHAPE_2)
        assert table(rows) == ROWS_2

    def test_omega_and_test_psi(self):
        train, test, _ = generate(SimulationSpec(1, 40, 30, 24, 4, 11))
        _, model = select_c(train.matrix, train.labels, seed=11)
        psi = update_psi(model, test.matrix).psi
        assert sha256_f8(model.omega) == OMEGA_SHA256
        assert sha256_f8(psi) == PSI_SHA256
        assert model.omega == pytest.approx(OMEGA, rel=DRIFT, abs=0.0)
        assert psi == pytest.approx(PSI, rel=DRIFT, abs=0.0)


class TestGoldenRowBlocks:
    def test_shape_spans_blocks_with_a_ragged_tail(self):
        assert [len(range(300)[b]) for b in blocks(300, 600)] == [109, 109, 82]

    def test_setting_2_rows(self):
        rows, _ = run_simulation_study(2, reps=1, **SHAPE_3)
        assert table(rows) == ROWS_3

    def test_test_psi(self):
        train, test, _ = generate(SimulationSpec(2, 80, 300, 600, 60, 17))
        _, model = select_c(train.matrix, train.labels, seed=17)
        assert sha256_f8(update_psi(model, test.matrix).psi) == PSI_3_SHA256


class TestGoldenStream:
    def test_flat_leaves_and_psi_in_memory_and_loaded(self, tmp_path):
        train, test, _ = generate(SimulationSpec(1, 100, 300, 5000, 50, 1900))
        model = fit_model(train.matrix, train.labels, 1.0)
        model.save(tmp_path / "model.json")
        for scored in (model, FittedModel.load(tmp_path / "model.json")):
            flat = scored.forest.flat_leaves(test.matrix).astype("<i8")
            assert hashlib.sha256(flat.tobytes()).hexdigest() == STREAM_FLAT_SHA256
            assert sha256_f8(update_psi(scored, test.matrix).psi) == STREAM_PSI_SHA256


# SHA-256 of every file of one CLI pipeline (setting 3, seed 5, 100 training
# and 200 test points, p=400), and of the standard output of its `bf` call.
# The three model files hold the centring means and sds of the C-ordered
# matrix, summed row after row, as `select-c` and the library fit them
PIPELINE_SHA256 = {
    "sim/train.csv": "fd1e712a582474afead15f6c8c3b608a684f903c834b2bc543156d4351f92b6c",
    "sim/test.csv": "79cc1b3b42dd2466869c07b34cdbc1f7f972304f5383d631661160e20b60e0b8",
    "sim/truth.csv": "00a17942face7ac6956d872cc8fa1dd7eef75ca4bc29e227b6fd9fad911ec39d",
    "report.json": "2fe0ef98e911e78a84731ef45e0f5187dab28c579667f9eba72e5833833871d4",
    "report.csv": "b2b6ec7a162f4ec4c1b817193dac3332ff3ce12f4f968f39c039b9c14fd72029",
    "selected.json": "33a054fc00dbe8178e9cb7f7ce46d78346e2713e9526ff5f5a32cff853e561c4",
    "reported.json": "33a054fc00dbe8178e9cb7f7ce46d78346e2713e9526ff5f5a32cff853e561c4",
    "c5.json": "c6615c05d319edecaa57b713d88283347b7c7d3e2c82e36e9e5c10f2e9628c5c",
    "predictions.csv": "7bd7c635298eaa8dfb8b3e874d01b018e6eccd9937fbf8860e8651bef931c974",
    "cv.csv": "fb8dbcb8835efa993edf4fd76a94dca96c8f29813feec8e41b9e3b9f9800b0c4",
    "cv.json": "79de2b3da04b6ae288c87f7932917df281ae402f252c18be5ff1d60c5f3e6e2e",
    "density.csv": "38e62953013fc6f2297a78cd298f4267fa17c9700c42066b787eee26361ace4c",
    "bf stdout": "ea85ca20c3ef193f6c5cd1048c124b3c6be1af2e6f1f2de26a147c43d4d9eeb3",
}


class TestGoldenPipeline:
    def test_every_output_of_the_cli_pipeline(self, tmp_path, capsys):
        def run(*argv):
            assert dispatch(list(argv)) == 0, argv
            return capsys.readouterr().out

        train, test = str(tmp_path / "sim" / "train.csv"), str(tmp_path / "sim" / "test.csv")
        data = ("--data", train, "--label-column", "y", "--seed", "5")
        out = {name: str(tmp_path / name) for name in PIPELINE_SHA256}
        run("simulate", "--setting", "3", "--seed", "5", "--n-train", "100", "--n-test", "200",
            "--p", "400", "--out-dir", str(tmp_path / "sim"))
        run("select-c", *data, "--out", out["report.json"], "--out-csv", out["report.csv"])
        run("fit", *data, "--out", out["selected.json"])
        run("fit", *data, "--c-report", out["report.json"], "--out", out["reported.json"])
        run("fit", *data, "--c", "5", "--out", out["c5.json"])
        run("predict", "--model", out["selected.json"], "--data", test, "--label-column", "y",
            "--out", out["predictions.csv"])
        run("cv", *data, "--k", "4", "--out", out["cv.csv"], "--out-summary", out["cv.json"])
        bf = run("bf", "--data", train, "--label-column", "y")
        run("density", "--model", out["selected.json"], "--variable", "V1", "--out", out["density.csv"])
        found = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in PIPELINE_SHA256 if name != "bf stdout"}
        found["bf stdout"] = hashlib.sha256(bf.encode()).hexdigest()
        assert found == PIPELINE_SHA256


class TestOneFitPerRep:
    def test_rep_builds_one_forest(self, monkeypatch):
        build = TreeForest.from_matrix.__func__
        calls = []

        def counted(cls, *args, **kwargs):
            calls.append(1)
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(TreeForest, "from_matrix", classmethod(counted))
        run_simulation_study(2, reps=1, n_train=30, n_test=10, p=8, n_discriminative=2,
                             grid=(1.0, 10.0))
        assert len(calls) == 1

    def test_selected_model_equals_refit(self):
        train, _, _ = generate(SimulationSpec(3, 50, 1, 20, 4, 5))
        report, model = select_c(train.matrix, train.labels, grid=(1.0, 5.0, 50.0), seed=5)
        refit = fit_model(train.matrix, train.labels, report.c)
        assert np.array_equal(model.c, refit.c)
        assert np.array_equal(log_bayes_factors(model.forest, model.c),
                              log_bayes_factors(refit.forest, refit.c))
        assert np.array_equal(model.omega, refit.omega)
        assert np.array_equal(model.forest.leaf1, refit.forest.leaf1)
        assert np.array_equal(model.forest.leaf0, refit.forest.leaf0)
        assert model.selection.iteration == refit.selection.iteration
        assert model.selection.converged and refit.selection.converged
