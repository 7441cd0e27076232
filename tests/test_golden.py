"""Pinned outputs of whole reps, so that refactors of the fit and scoring path
must reproduce them bit for bit."""

import numpy as np

from ptda.bnp_test import log_bayes_factors
from ptda.cvb import fit_model, update_psi
from ptda.evalharness import run_simulation_study
from ptda.polya_tree import TreeForest
from ptda.simgen import SimulationSpec, generate
from ptda.smoothing import select_c

COLUMNS = ("rep", "method", "classification_error", "selection_accuracy", "tp", "tn", "fp", "fn",
           "n_selected", "sweeps", "converged", "chosen_a")

SHAPE_1 = dict(n_train=40, n_test=30, p=24, n_discriminative=4, base_seed=11)
SHAPE_2 = dict(n_train=60, n_test=30, p=16, n_discriminative=4, base_seed=13)

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

# rep 0 of SHAPE_1 (setting 1, seed 11): omega of the selected fit and its test-set psi
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


def table(rows):
    assert all(list(r) == list(COLUMNS) + ["wall_time"] for r in rows)
    return [tuple(r[k] for k in COLUMNS) for r in rows]


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
        assert model.omega.tolist() == OMEGA
        assert update_psi(model, test.matrix).psi.tolist() == PSI


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
        assert np.array_equal(model.forest.count1, refit.forest.count1)
        assert np.array_equal(model.forest.count0, refit.forest.count0)
        assert model.selection.iteration == refit.selection.iteration
        assert model.selection.converged and refit.selection.converged
