"""Threshold calibration and evaluation for binary detectors under low
false-positive-rate budgets, driven by ensemble uncertainty.

Each exported name loads its module on first use (PEP 562), so a command
process imports only the modules it runs.
"""

import importlib

_MODULE_EXPORTS = {
    "adjust": "COORDINATE_BRACKETS AdjustmentParams CalibrationEvaluation CalibrationResult Variant brent_minimize"
    " evaluate_calibration fit_global fit_local load_calibration save_calibration",
    "analysis": "ComparisonRow GroupSplit WilcoxonResult ensemble_vs_members uncertainty_by_correctness"
    " uncertainty_by_novelty wilcoxon_signed_rank",
    "data": "DatasetError PredictionDataset filter_split load_dataset save_dataset",
    "protocol": "ProtocolCurvePoint StudyRow relative_error_curve subsampling_study",
    "rocmetrics": "OperatingPoint RocCurve accuracy auc combined_metric evaluate_at_threshold partial_auc roc_curve"
    " select_threshold",
    "synth": "SynthConfig default_scenario generate heteroscedastic_scenario noisy_fp_scenario novelty_scenario",
    "uncertainty": "UncertaintyTable compute_uncertainties",
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names.split()}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
