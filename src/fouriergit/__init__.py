"""Fourier-moment Gaussian integral transforms of discrete spectra.

The package reconstructs Gaussian-smoothed response functions of discrete
spectra from a finite set of Fourier-phase moments and plans the extension
period, harmonic count, and shot counts needed to meet a dimensionless
error budget, exploiting known energy moments to shrink every cost.
"""

from ._backend import active_backend
from .kernel import (
    KernelSpec,
    PeriodicKernelParams,
    fourier_coefficient,
    gaussian_kernel,
    lambda_from_resolution,
    replica_wrap_count,
)
from .moments import (
    FourierMomentSet,
    exact_moments,
    sampled_moments,
)
from .planner import (
    ErrorBudget,
    ExtensionPlan,
    FormulaValidityError,
    FrequencyWindow,
    NoSavingWarning,
    PeriodChoice,
    chi_general,
    chi_with_central_moment,
    chi_with_variance,
    make_plan,
    n_terms,
    shots_value,
    tail_leakage_bound,
    truncation_bound,
)
from .spectrum import (
    DiscreteSpectrum,
    MomentSummary,
    PeakParams,
    TailParams,
    central_moment,
    energy_moment,
    eval_peak,
    eval_tail,
    make_model,
    midpoint_grid,
    summarize,
)
from .transform import (
    ErrorReport,
    TransformCurve,
    error_report,
    exact_transform,
    reconstruct,
)

__version__ = "0.1.0"

__all__ = [
    "DiscreteSpectrum",
    "ErrorBudget",
    "ErrorReport",
    "ExtensionPlan",
    "FormulaValidityError",
    "FourierMomentSet",
    "FrequencyWindow",
    "KernelSpec",
    "MomentSummary",
    "NoSavingWarning",
    "PeakParams",
    "PeriodChoice",
    "PeriodicKernelParams",
    "TailParams",
    "TransformCurve",
    "active_backend",
    "central_moment",
    "chi_general",
    "chi_with_central_moment",
    "chi_with_variance",
    "energy_moment",
    "error_report",
    "eval_peak",
    "eval_tail",
    "exact_moments",
    "exact_transform",
    "fourier_coefficient",
    "gaussian_kernel",
    "lambda_from_resolution",
    "make_model",
    "make_plan",
    "midpoint_grid",
    "n_terms",
    "reconstruct",
    "replica_wrap_count",
    "sampled_moments",
    "shots_value",
    "summarize",
    "tail_leakage_bound",
    "truncation_bound",
]
