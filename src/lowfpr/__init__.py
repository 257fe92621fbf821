"""Threshold calibration and evaluation for binary detectors under low
false-positive-rate budgets, driven by ensemble uncertainty.
"""

from .adjust import (
    COORDINATE_BRACKETS,
    AdjustmentParams,
    CalibrationEvaluation,
    CalibrationResult,
    Variant,
    brent_minimize,
    evaluate_calibration,
    fit_global,
    fit_local,
    load_calibration,
    save_calibration,
)
from .analysis import (
    ComparisonRow,
    GroupSplit,
    WilcoxonResult,
    ensemble_vs_members,
    uncertainty_by_correctness,
    uncertainty_by_novelty,
    wilcoxon_signed_rank,
)
from .data import (
    DatasetError,
    PredictionDataset,
    filter_split,
    load_dataset,
    save_dataset,
)
from .protocol import (
    ProtocolCurvePoint,
    StudyRow,
    relative_error_curve,
    subsampling_study,
)
from .rocmetrics import (
    OperatingPoint,
    RocCurve,
    accuracy,
    auc,
    combined_metric,
    evaluate_at_threshold,
    partial_auc,
    roc_curve,
    select_threshold,
)
from .synth import (
    SynthConfig,
    default_scenario,
    generate,
    heteroscedastic_scenario,
    noisy_fp_scenario,
    novelty_scenario,
)
from .uncertainty import (
    UncertaintyTable,
    compute_uncertainties,
)

__version__ = "0.1.0"
