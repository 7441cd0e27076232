"""Nonparametric discriminant analysis with tree-based variable selection.

Group-conditional distributions are modelled with recursive dyadic
quantile trees centred on Gaussians; a collapsed variational coordinate
ascent turns per-variable two-sample evidence into selection
probabilities and classifies new points from omega-weighted path
probability ratios.
"""

__version__ = "0.1.0"

import logging

from .bnp_test import log_bayes_factors
from .cvb import (
    ClassProbabilities,
    FittedModel,
    Hyperparameters,
    SelectionState,
    classify,
    fit_model,
    update_omega,
    update_psi,
)
from .dataio import Dataset, load_csv, preprocess, split_folds
from .errors import ContractViolation, DomainError, InputError, PtdaError
from .polya_tree import TreeForest, default_depth, predictive_density
from .simgen import SimulationSpec, generate
from .smoothing import SmoothingReport, assign_bins, expected_pvalue, select_c

# warnings such as an unconverged selection go to the "ptda" logger, which
# stays silent unless the application configures logging
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "__version__",
    "ClassProbabilities",
    "ContractViolation",
    "Dataset",
    "DomainError",
    "FittedModel",
    "Hyperparameters",
    "InputError",
    "PtdaError",
    "SelectionState",
    "SimulationSpec",
    "SmoothingReport",
    "TreeForest",
    "assign_bins",
    "classify",
    "default_depth",
    "expected_pvalue",
    "fit_model",
    "generate",
    "load_csv",
    "log_bayes_factors",
    "predictive_density",
    "preprocess",
    "select_c",
    "split_folds",
    "update_omega",
    "update_psi",
]
