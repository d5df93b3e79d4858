"""Fair classification toolkit: margin-based classifiers trained under
decision-boundary covariance constraints, fairness metrics, synthetic and UCI
data handling, and an experiment sweep harness."""

from .data import Dataset, SplitPlan, append_bias, encode_sensitive, split
from .metrics import FairnessReport, audit, boundary_covariance, cv_score, p_percent_rule
from .models import (
    FitSpec,
    KernelModel,
    KernelSpec,
    LinearModel,
    decision_values,
    fit,
    fit_kernel_svm_fair,
    fit_linear_svm_fair,
    fit_logreg,
    fit_logreg_fair,
    fit_logreg_fairness_max,
    fit_logreg_fine_grained,
    predict,
    protected_rows,
)
from .solvers import (
    QuadraticProblem,
    SmoothProblem,
    SolverResult,
    SolverSettings,
    kkt_residuals,
    minimize_smooth,
    solve_qp,
)
from .synth import SynthConfig, gen_linear_synthetic, gen_nonlinear_synthetic

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "FairnessReport",
    "FitSpec",
    "KernelModel",
    "KernelSpec",
    "LinearModel",
    "QuadraticProblem",
    "SmoothProblem",
    "SolverResult",
    "SolverSettings",
    "SplitPlan",
    "SynthConfig",
    "append_bias",
    "audit",
    "boundary_covariance",
    "cv_score",
    "decision_values",
    "encode_sensitive",
    "fit",
    "fit_kernel_svm_fair",
    "fit_linear_svm_fair",
    "fit_logreg",
    "fit_logreg_fair",
    "fit_logreg_fairness_max",
    "fit_logreg_fine_grained",
    "gen_linear_synthetic",
    "gen_nonlinear_synthetic",
    "kkt_residuals",
    "minimize_smooth",
    "p_percent_rule",
    "predict",
    "protected_rows",
    "solve_qp",
    "split",
]
