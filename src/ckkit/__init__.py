"""Workbench for the constructive and intuitionistic modal logics CK, CKB, IK, IKB.

Parse modal formulas, validate and classify birelational Kripke models
with fallible worlds, evaluate formulas, search for bounded
countermodels, and check Hilbert-style proofs.
"""

from importlib import resources

from .formula import (
    Atom,
    And,
    Box,
    Diamond,
    FALSE,
    Falsum,
    Formula,
    Implies,
    Or,
    TRUE,
    analyze,
    parse,
    render,
    substitute,
)
from .kripke import (
    FrameReport,
    KripkeModel,
    ModelDescription,
    ModelValidationError,
    figure2_model,
    frame_report,
    load_model,
    validate_model,
)
from .proofkit import ProofScript, builtin_scripts, check_proof, ipc_valid
from .search import (
    ClassComparison,
    Counterexample,
    EnumParams,
    NoneFound,
    compare_classes,
    enumerate_models,
    find_countermodel,
)
from .semantics import eval_diamond_unguarded, eval_formula, valid_in_model

__version__ = "0.1.0"

# The evaluation kernel is numpy and pure Python, with no compiled variant;
# the name is kept because benchmark result files record it.
KERNEL_BACKEND = "python"


def data_path(name: str):
    """Path to a shipped data file (fig2.km, n_in_ckb.proof)."""
    return resources.files(__name__) / "data" / name
