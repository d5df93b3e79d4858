"""Margin-based classifiers trained under boundary-covariance fairness constraints.

Four training modes are supported for logistic regression, linear SVM and
kernel SVM:

* ``unconstrained`` - plain loss minimization.
* ``fairness_constrained`` - loss minimization subject to a per-sensitive-
  column bound on the absolute empirical covariance between the column and
  the signed distances to the boundary.
* ``accuracy_constrained`` - minimize the summed absolute boundary covariance
  subject to the training loss staying within a (1 + gamma) factor of the
  unconstrained optimum.
* ``fine_grained`` - minimize the summed absolute boundary covariance subject
  to per-point loss budgets and hard "stay on the positive side" constraints
  for a chosen set of rows.

Models expose signed distances through :func:`decision_values` and ±1 labels
through :func:`predict`; neither reads the sensitive block, so the sensitive
attributes never participate in decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Literal, Sequence

import numpy as np
from scipy.special import expit

from .data import Dataset
from .solvers import (
    ConstraintBlock,
    KKTResiduals,
    QuadraticProblem,
    SmoothProblem,
    SolverResult,
    SolverSettings,
    minimize_smooth,
    solve_qp,
)

__all__ = [
    "FitSpec",
    "KernelModel",
    "KernelSpec",
    "LinearModel",
    "decision_values",
    "fit",
    "fit_kernel_svm_fair",
    "fit_linear_svm_fair",
    "fit_logreg",
    "fit_logreg_fair",
    "fit_logreg_fairness_max",
    "fit_logreg_fine_grained",
    "model_from_dict",
    "model_to_dict",
    "predict",
    "protected_rows",
]

Mode = Literal["unconstrained", "fairness_constrained", "accuracy_constrained", "fine_grained"]

# margin used for the hard non-flip constraints: keeping the constrained rows
# strictly on the positive side (rather than at exactly zero) guarantees a
# zero flip count even after the solver's last rounding error
_NOFLIP_MARGIN = 1e-8

# auto-ridge trigger: a near-zero optimum of the unregularized logistic loss
# means the data is separable and the unpenalized problem has no minimizer
_SEPARABLE_LOSS = 1e-3
_AUTO_RIDGE = 1e-8


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice for the SVM dual; gamma defaults to 1/(d * var(X)) at fit."""

    kind: Literal["linear", "rbf"] = "rbf"
    rbf_gamma: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise ValueError("kernel kind must be 'linear' or 'rbf'")
        if self.rbf_gamma is not None and self.rbf_gamma <= 0:
            raise ValueError("rbf_gamma must be positive")


@dataclass(frozen=True)
class FitSpec:
    """Training mode plus the parameters that mode requires.

    Fields irrelevant to the chosen mode must be left at their defaults;
    passing, say, a gamma to a fairness-constrained fit is rejected so a
    misconfigured sweep fails loudly instead of silently ignoring inputs.
    """

    mode: Mode
    covariance_thresholds: float | Sequence[float] | None = None
    gamma: float | None = None
    per_point_gammas: Sequence[float] | None = None
    protected_index_set: Sequence[int] | None = None
    svm_cost: float | None = None
    l2_penalty: float = 0.0
    kernel: KernelSpec | None = None
    svm_hinge: Literal["squared", "exact"] = "squared"

    def __post_init__(self):
        if self.mode not in ("unconstrained", "fairness_constrained", "accuracy_constrained", "fine_grained"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.l2_penalty < 0:
            raise ValueError("l2_penalty must be >= 0")
        if self.svm_cost is not None and self.svm_cost <= 0:
            raise ValueError("svm_cost must be positive")
        need = {
            "fairness_constrained": ("covariance_thresholds",),
            "accuracy_constrained": ("gamma",),
            "fine_grained": ("per_point_gammas", "protected_index_set"),
            "unconstrained": (),
        }[self.mode]
        mode_fields = ("covariance_thresholds", "gamma", "per_point_gammas", "protected_index_set")
        for name in mode_fields:
            value = getattr(self, name)
            if name in need and value is None:
                raise ValueError(f"mode {self.mode!r} requires {name}")
            if name not in need and value is not None:
                raise ValueError(f"{name} is not used by mode {self.mode!r}")
        if self.gamma is not None and self.gamma < 0:
            raise ValueError("gamma must be >= 0")

    def thresholds_for(self, n_sensitive: int) -> np.ndarray:
        c = np.broadcast_to(np.asarray(self.covariance_thresholds, dtype=float), (n_sensitive,)).copy()
        if np.any(np.isnan(c)) or np.any(c < 0):
            raise ValueError("covariance thresholds must be >= 0")
        return c


@dataclass(frozen=True)
class LinearModel:
    """Trained linear boundary; the bias is folded in as the last coordinate."""

    theta: np.ndarray
    training_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 1 or not np.all(np.isfinite(theta)):
            raise ValueError("theta must be a finite vector")
        theta = theta.copy()
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True)
class KernelModel:
    """Dual SVM solution: coefficients over the training rows plus the kernel."""

    alphas: np.ndarray
    support_points: np.ndarray
    support_labels: np.ndarray
    kernel: KernelSpec
    svm_cost: float
    training_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=float)
        y = np.asarray(self.support_labels, dtype=float)
        if np.any(alphas < -1e-12) or np.any(alphas > self.svm_cost + 1e-12):
            raise ValueError("dual coefficients must lie in [0, C]")
        if abs(float(alphas @ y)) > 1e-8:
            raise ValueError("dual coefficients must satisfy sum(alpha * y) = 0")
        for name, arr in (("alphas", alphas), ("support_points", np.asarray(self.support_points, dtype=float)), ("support_labels", y)):
            frozen = arr.copy()
            frozen.setflags(write=False)
            object.__setattr__(self, name, frozen)


# ---------------------------------------------------------------------------
# loss pieces


def _log1pexp(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t > 0
    out[pos] = t[pos] + np.log1p(np.exp(-t[pos]))
    out[~pos] = np.log1p(np.exp(t[~pos]))
    return out


def logistic_loss(theta: np.ndarray, features: np.ndarray, labels: np.ndarray, l2_penalty: float = 0.0) -> float:
    """Negative log-likelihood of ±1 labels, plus l2_penalty * ||theta||^2."""
    margins = labels * (features @ theta)
    value = float(np.sum(_log1pexp(-margins)))
    if l2_penalty:
        value += l2_penalty * float(theta @ theta)
    return value


def logistic_loss_gradient(theta, features, labels, l2_penalty: float = 0.0) -> np.ndarray:
    s = expit(-labels * (features @ theta))
    grad = -(features.T @ (labels * s))
    if l2_penalty:
        grad = grad + 2.0 * l2_penalty * theta
    return grad


def per_point_logistic_loss(theta, features, labels) -> np.ndarray:
    """Vector of per-row negative log-likelihoods."""
    return _log1pexp(-(labels * (features @ theta)))


def covariance_vectors(dataset: Dataset) -> np.ndarray:
    """(K, d) matrix W with W[k] . theta = boundary covariance of column k."""
    z = dataset.sensitive
    centered = z - z.mean(axis=0, keepdims=True)
    return centered.T @ dataset.features / dataset.n


# ---------------------------------------------------------------------------
# kernels


def gram_matrix(kernel: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if kernel.kind == "linear":
        return a @ b.T
    if kernel.rbf_gamma is None:
        raise ValueError("rbf kernel needs a resolved rbf_gamma")
    sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-kernel.rbf_gamma * sq)


def resolve_kernel(kernel: KernelSpec | None, features: np.ndarray) -> KernelSpec:
    """Fill in the default rbf width 1/(d * var(features)) when unset."""
    if kernel is None:
        kernel = KernelSpec()
    if kernel.kind == "rbf" and kernel.rbf_gamma is None:
        var = float(features.var())
        gamma = 1.0 / (features.shape[1] * var) if var > 0 else 1.0
        kernel = replace(kernel, rbf_gamma=gamma)
    return kernel


# ---------------------------------------------------------------------------
# shared fit plumbing


def _require_bias(train: Dataset, op: str) -> None:
    if not train.has_bias_column:
        raise ValueError(f"{op} expects a dataset with the bias column appended")


def _default_settings(**overrides) -> SolverSettings:
    base = dict(max_iterations=10_000, objective_tolerance=1e-7, kkt_tolerance=1e-6, feasibility_tolerance=1e-8)
    base.update(overrides)
    return SolverSettings(**base)


def _meta(mode: str, result: SolverResult, **extra) -> dict:
    meta = {
        "mode": mode,
        "converged": result.status == "converged",
        "status": result.status,
        "objective": result.objective_value,
        "iterations": result.iterations,
        "kkt": {
            "stationarity_norm": result.kkt.stationarity_norm,
            "max_violation": result.kkt.max_violation,
            "max_comp_slack": result.kkt.max_comp_slack,
        },
    }
    meta.update(extra)
    return meta


def _normalized_rows(rows: list[tuple[np.ndarray, float]]) -> list[tuple[np.ndarray, float]]:
    out = []
    for a, b in rows:
        r = float(np.linalg.norm(a))
        r = r if r > 0 else 1.0
        out.append((a / r, b / r))
    return out


def _covariance_rows(w: np.ndarray, c: np.ndarray, n_extra: int = 0) -> list[tuple[np.ndarray, float]]:
    """Linear rows encoding |W theta| <= c, padded with n_extra zero columns."""
    rows = []
    for k in range(w.shape[0]):
        if not np.isfinite(c[k]):
            continue
        a = np.concatenate([w[k], np.zeros(n_extra)])
        rows.append((a, float(c[k])))
        rows.append((-a, float(c[k])))
    return _normalized_rows(rows)


def _epigraph_rows(w: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """Rows encoding |W theta| <= t in stacked (theta, t) variables."""
    n_k, d = w.shape
    rows = []
    for k in range(n_k):
        e = np.zeros(n_k)
        e[k] = 1.0
        rows.append((np.concatenate([w[k], -e]), 0.0))
        rows.append((np.concatenate([-w[k], -e]), 0.0))
    return _normalized_rows(rows)


# ---------------------------------------------------------------------------
# logistic regression fits


def _fit_logreg_core(features, labels, l2_penalty, settings, constraints=None) -> SolverResult:
    # optimized on mean-loss scale so the stationarity tolerance is
    # independent of the row count; reported objectives are totals
    n, d = features.shape
    inv_n = 1.0 / n

    def objective(theta):
        return logistic_loss(theta, features, labels, l2_penalty) * inv_n

    def gradient(theta):
        return logistic_loss_gradient(theta, features, labels, l2_penalty) * inv_n

    problem = SmoothProblem(
        dimension=d,
        objective=objective,
        gradient=gradient,
        linear_constraints=constraints or (),
        initial_point=np.zeros(d),
    )
    return minimize_smooth(problem, settings)


def fit_logreg(train: Dataset, spec: FitSpec, settings: SolverSettings | None = None) -> LinearModel:
    """Unconstrained logistic regression (mode ``unconstrained``).

    Perfectly separable data makes the unpenalized problem unbounded; that
    case is detected by the optimum collapsing to (numerically) zero loss and
    resolved by refitting with a tiny ridge, recorded in ``training_meta``.
    """
    if spec.mode != "unconstrained":
        raise ValueError("fit_logreg requires mode 'unconstrained'")
    _require_bias(train, "fit_logreg")
    settings = settings or _default_settings()
    ridge = spec.l2_penalty
    result = _fit_logreg_core(train.features, train.labels, ridge, settings)
    auto_ridge = False
    if spec.l2_penalty == 0.0 and result.objective_value < _SEPARABLE_LOSS:
        ridge = _AUTO_RIDGE
        result = _fit_logreg_core(train.features, train.labels, ridge, settings)
        auto_ridge = True
    meta = _meta(
        "unconstrained",
        result,
        l2_penalty=ridge,
        auto_ridge=auto_ridge,
        objective=logistic_loss(result.point, train.features, train.labels, ridge),
    )
    return LinearModel(theta=result.point, training_meta=meta)


def fit_logreg_fair(train: Dataset, spec: FitSpec, settings: SolverSettings | None = None) -> LinearModel:
    """Logistic regression under |covariance_k| <= c_k (mode ``fairness_constrained``)."""
    if spec.mode != "fairness_constrained":
        raise ValueError("fit_logreg_fair requires mode 'fairness_constrained'")
    _require_bias(train, "fit_logreg_fair")
    settings = settings or _default_settings()
    c = spec.thresholds_for(train.n_sensitive)
    w = covariance_vectors(train)
    rows = _covariance_rows(w, c)
    result = _fit_logreg_core(train.features, train.labels, spec.l2_penalty, settings, constraints=rows)
    meta = _meta(
        "fairness_constrained",
        result,
        l2_penalty=spec.l2_penalty,
        covariance_thresholds=c.tolist(),
        covariance=(w @ result.point).tolist(),
        objective=logistic_loss(result.point, train.features, train.labels, spec.l2_penalty),
    )
    return LinearModel(theta=result.point, training_meta=meta)


def _covariance_objective_problem(
    train: Dataset,
    extra_blocks: list,
    extra_rows: list,
    theta_start: np.ndarray,
) -> tuple[SmoothProblem, int, np.ndarray]:
    """Epigraph problem: minimize sum_k t_k over (theta, t) with |cov_k| <= t_k.

    Warm-started at the supplied theta (the unconstrained optimum, which is
    feasible for the loss budgets) with the epigraph variables strictly above
    the initial absolute covariances.
    """
    d = train.n_features
    n_k = train.n_sensitive
    w = covariance_vectors(train)
    rows = _epigraph_rows(w) + extra_rows
    grad_obj = np.concatenate([np.zeros(d), np.ones(n_k)])
    start = np.concatenate([theta_start, np.abs(w @ theta_start) + 1e-6])

    problem = SmoothProblem(
        dimension=d + n_k,
        objective=lambda v: float(grad_obj @ v),
        gradient=lambda v: grad_obj,
        linear_constraints=rows,
        convex_constraints=extra_blocks,
        initial_point=start,
    )
    return problem, d, w


def fit_logreg_fairness_max(train: Dataset, spec: FitSpec, settings: SolverSettings | None = None) -> LinearModel:
    """Minimize summed |covariance| under a total-loss budget (mode ``accuracy_constrained``).

    The unconstrained optimum is fitted first; the budget is
    (1 + gamma) times its loss. The absolute values are handled by an
    epigraph reformulation, keeping the problem smooth.
    """
    if spec.mode != "accuracy_constrained":
        raise ValueError("fit_logreg_fairness_max requires mode 'accuracy_constrained'")
    _require_bias(train, "fit_logreg_fairness_max")
    settings = settings or _default_settings(feasibility_tolerance=3e-9)
    base = fit_logreg(train, FitSpec(mode="unconstrained", l2_penalty=spec.l2_penalty), _default_settings())
    ridge = base.training_meta["l2_penalty"]
    loss_star = base.training_meta["objective"]
    # microscopic headroom keeps the budget set full-dimensional at gamma = 0
    # while staying far inside the documented (1 + 1e-8) budget factor
    budget = max((1.0 + spec.gamma) * loss_star, 1e-12) * (1.0 + 5e-9)
    features, labels = train.features, train.labels

    def loss_block(v: np.ndarray) -> np.ndarray:
        # normalized so the feasibility tolerance bounds the relative
        # exceedance of the loss budget
        theta = v[:features.shape[1]]
        return np.array([logistic_loss(theta, features, labels, ridge) / budget - 1.0])

    def loss_jac(v: np.ndarray) -> np.ndarray:
        theta = v[:features.shape[1]]
        g = logistic_loss_gradient(theta, features, labels, ridge) / budget
        return np.concatenate([g, np.zeros(v.size - g.size)])[None, :]

    # once the budget admits the all-zero boundary, that boundary is an exact
    # optimum (its covariance is identically zero in every column), so the
    # numerical solve is skipped; every row then sits on the positive side of
    # the tie and both groups share the same positive rate
    zero_theta = np.zeros(train.n_features)
    zero_loss = logistic_loss(zero_theta, features, labels, ridge)
    if zero_loss <= budget:
        exact = SolverResult(
            point=zero_theta, objective_value=0.0, status="converged", kkt=KKTResiduals(0.0, 0.0, 0.0), iterations=0
        )
        meta = _meta(
            "accuracy_constrained",
            exact,
            gamma=spec.gamma,
            l2_penalty=ridge,
            loss_star=loss_star,
            loss=zero_loss,
            covariance=(covariance_vectors(train) @ zero_theta).tolist(),
            closed_form=True,
        )
        return LinearModel(theta=zero_theta, training_meta=meta)

    block = ConstraintBlock(value=loss_block, jacobian=loss_jac, size=1)
    problem, d, w = _covariance_objective_problem(train, [block], [], theta_start=np.asarray(base.theta))
    result = minimize_smooth(problem, settings)
    theta = result.point[:d]
    meta = _meta(
        "accuracy_constrained",
        result,
        gamma=spec.gamma,
        l2_penalty=ridge,
        loss_star=loss_star,
        loss=logistic_loss(theta, features, labels, ridge),
        covariance=(w @ theta).tolist(),
        objective=float(np.sum(np.abs(w @ theta))),
        closed_form=False,
    )
    return LinearModel(theta=theta, training_meta=meta)


def fit_logreg_fine_grained(train: Dataset, spec: FitSpec, settings: SolverSettings | None = None) -> LinearModel:
    """Minimize summed |covariance| under per-point loss budgets (mode ``fine_grained``).

    Rows in ``protected_index_set`` get a hard constraint keeping their signed
    distance non-negative (no positive-to-negative flip relative to the
    unconstrained model); every other row i keeps its loss within
    (1 + gamma_i) of its unconstrained per-point loss. A gamma of infinity
    drops that row's constraint.
    """
    if spec.mode != "fine_grained":
        raise ValueError("fit_logreg_fine_grained requires mode 'fine_grained'")
    _require_bias(train, "fit_logreg_fine_grained")
    settings = settings or _default_settings(feasibility_tolerance=1e-10, max_iterations=20_000)
    gammas = np.asarray(spec.per_point_gammas, dtype=float)
    if gammas.shape != (train.n,):
        raise ValueError("per_point_gammas must have one entry per training row")
    if np.any(gammas < 0):
        raise ValueError("per_point_gammas must be >= 0")
    protected = np.asarray(sorted(set(int(i) for i in spec.protected_index_set)), dtype=int)
    if protected.size and (protected.min() < 0 or protected.max() >= train.n):
        raise ValueError("protected_index_set out of range")

    base = fit_logreg(train, FitSpec(mode="unconstrained", l2_penalty=spec.l2_penalty), _default_settings())
    features, labels = train.features, train.labels
    loss_star_i = per_point_logistic_loss(base.theta, features, labels)

    is_protected = np.zeros(train.n, dtype=bool)
    is_protected[protected] = True
    budgeted = ~is_protected & np.isfinite(gammas)
    idx = np.flatnonzero(budgeted)
    # additive headroom well below the 1e-9 per-point slack keeps the
    # gamma = 0 budget set full-dimensional around the unconstrained optimum
    bounds = (1.0 + gammas[idx]) * loss_star_i[idx] + 2e-10
    scales = np.clip(bounds, 1e-3, 5.0)

    d = features.shape[1]
    extra_rows = []
    for i in protected:
        a = np.concatenate([-features[i], np.zeros(train.n_sensitive)])
        extra_rows.append((a, -_NOFLIP_MARGIN))
    extra_rows = _normalized_rows(extra_rows)

    blocks = []
    if idx.size:
        sub_x = features[idx]
        sub_y = labels[idx]

        def point_values(v: np.ndarray) -> np.ndarray:
            theta = v[:d]
            return (per_point_logistic_loss(theta, sub_x, sub_y) - bounds) / scales

        def point_jacobian(v: np.ndarray) -> np.ndarray:
            theta = v[:d]
            s = expit(-sub_y * (sub_x @ theta))
            jac_theta = -(sub_y * s / scales)[:, None] * sub_x
            return np.hstack([jac_theta, np.zeros((idx.size, v.size - d))])

        blocks.append(ConstraintBlock(value=point_values, jacobian=point_jacobian, size=idx.size))

    problem, d, w = _covariance_objective_problem(train, blocks, extra_rows, theta_start=np.asarray(base.theta))
    result = minimize_smooth(problem, settings)
    theta = result.point[:d]
    meta = _meta(
        "fine_grained",
        result,
        n_protected=int(protected.size),
        l2_penalty=base.training_meta["l2_penalty"],
        covariance=(w @ theta).tolist(),
        objective=float(np.sum(np.abs(w @ theta))),
    )
    return LinearModel(theta=theta, training_meta=meta)


# ---------------------------------------------------------------------------
# SVM fits


def hinge_objective(theta, features, labels, svm_cost) -> float:
    """Exact soft-margin objective ||theta||^2 + C * sum max(0, 1 - y m)."""
    slack = np.maximum(0.0, 1.0 - labels * (features @ theta))
    return float(theta @ theta + svm_cost * slack.sum())


def _squared_hinge(theta, features, labels, svm_cost) -> tuple[float, np.ndarray]:
    margins = labels * (features @ theta)
    gap = np.maximum(0.0, 1.0 - margins)
    value = float(theta @ theta + svm_cost * (gap @ gap))
    grad = 2.0 * theta - 2.0 * svm_cost * (features.T @ (labels * gap))
    return value, grad


def _svm_thresholds(train: Dataset, spec: FitSpec, op: str) -> np.ndarray:
    """Covariance thresholds of an SVM fit: the spec's c, or inf when unconstrained."""
    if spec.mode not in ("unconstrained", "fairness_constrained"):
        raise ValueError(f"{op} supports the unconstrained and fairness_constrained modes")
    if spec.svm_cost is None:
        raise ValueError(f"{op} requires svm_cost")
    if spec.mode == "unconstrained":
        return np.full(train.n_sensitive, np.inf)
    return spec.thresholds_for(train.n_sensitive)


def fit_linear_svm_fair(train: Dataset, spec: FitSpec, settings: SolverSettings | None = None) -> LinearModel:
    """Linear soft-margin SVM under covariance bounds.

    The default route minimizes the smooth squared-hinge surrogate
    ||theta||^2 + C * sum max(0, 1 - y m)^2 with the covariance rows as
    linear constraints. ``svm_hinge="exact"`` instead solves the exact-hinge
    quadratic program in (theta, xi); in both cases the reported slack values
    are max(0, 1 - y m) at the solution.
    """
    c = _svm_thresholds(train, spec, "fit_linear_svm_fair")
    _require_bias(train, "fit_linear_svm_fair")
    settings = settings or _default_settings()
    features, labels = train.features, train.labels
    n, d = features.shape
    w = covariance_vectors(train)

    if spec.svm_hinge == "squared":
        rows = _covariance_rows(w, c)
        inv_n = 1.0 / n  # mean scale keeps the stationarity tolerance row-count-free
        problem = SmoothProblem(
            dimension=d,
            objective=lambda t: _squared_hinge(t, features, labels, spec.svm_cost)[0] * inv_n,
            gradient=lambda t: _squared_hinge(t, features, labels, spec.svm_cost)[1] * inv_n,
            linear_constraints=rows,
            initial_point=np.zeros(d),
        )
        result = minimize_smooth(problem, settings)
        theta = result.point
    else:
        # exact hinge: variables (theta, xi), objective ||theta||^2 + C sum xi,
        # solved on mean scale (the 1/n leaves the minimizer unchanged)
        dim = d + n
        q_matrix = np.zeros((dim, dim))
        q_matrix[:d, :d] = 2.0 * np.eye(d) / n
        q_vector = np.concatenate([np.zeros(d), np.full(n, float(spec.svm_cost) / n)])
        lower = np.concatenate([np.full(d, -np.inf), np.zeros(n)])
        rows = []
        for i in range(n):
            a = np.zeros(dim)
            a[:d] = -labels[i] * features[i]
            a[d + i] = -1.0
            rows.append((a, -1.0))
        rows = _normalized_rows(rows) + _covariance_rows(w, c, n_extra=n)
        problem = QuadraticProblem(
            q_matrix=q_matrix,
            q_vector=q_vector,
            box=(lower, None),
            linear_constraints=rows,
        )
        result = solve_qp(problem, settings)
        theta = result.point[:d]

    slack = np.maximum(0.0, 1.0 - labels * (features @ theta))
    primal = (
        _squared_hinge(theta, features, labels, spec.svm_cost)[0]
        if spec.svm_hinge == "squared"
        else hinge_objective(theta, features, labels, spec.svm_cost)
    )
    meta = _meta(
        spec.mode,
        result,
        classifier="linear_svm",
        svm_hinge=spec.svm_hinge,
        svm_cost=spec.svm_cost,
        covariance_thresholds=[v if math.isfinite(v) else None for v in c],
        covariance=(w @ theta).tolist(),
        objective=primal,
        hinge_objective=hinge_objective(theta, features, labels, spec.svm_cost),
        total_slack=float(slack.sum()),
    )
    return LinearModel(theta=theta, training_meta=meta)


def fit_kernel_svm_fair(train: Dataset, spec: FitSpec, settings: SolverSettings | None = None) -> KernelModel:
    """Kernel soft-margin SVM dual under covariance bounds on the kernel distances.

    Solves: minimize 0.5 a'Qa - sum(a) with Q_ij = y_i y_j (k(x_i, x_j) +
    delta_ij / C) over 0 <= a <= C with sum(a * y) = 0, plus per-column
    bounds |cov(z_k, g(x_i))| <= c_k where g is the kernel expansion of the
    signed distance over the training rows. A Gram matrix that fails the
    positive-semidefiniteness check is rejected.
    """
    c = _svm_thresholds(train, spec, "fit_kernel_svm_fair")
    settings = settings or _default_settings(max_iterations=50_000, feasibility_tolerance=1e-10)
    features, labels = train.features, train.labels
    n = train.n
    kernel = resolve_kernel(spec.kernel, features)
    gram = gram_matrix(kernel, features, features)
    # the 1/n factor puts the dual objective on mean scale, keeping the
    # stationarity tolerance meaningful independent of the training size
    q_matrix = (labels[:, None] * labels[None, :]) * (gram + np.eye(n) / spec.svm_cost) / n
    q_vector = -np.ones(n) / n

    centered = train.sensitive - train.sensitive.mean(axis=0, keepdims=True)
    cov_rows = (gram @ centered / n).T * labels[None, :]  # row k: cov_k = row . alpha

    problem = QuadraticProblem(
        q_matrix=q_matrix,
        q_vector=q_vector,
        box=(np.zeros(n), np.full(n, float(spec.svm_cost))),
        equality=(labels / math.sqrt(n), 0.0),
        linear_constraints=_covariance_rows(cov_rows, c),
    )
    result = solve_qp(problem, settings)
    alphas = np.clip(result.point, 0.0, spec.svm_cost)
    # the equality is enforced to ~1e-9; absorb any residual into the most
    # box-interior coefficient so the model invariant holds exactly
    residual = float(alphas @ labels)
    if abs(residual) > 1e-10:
        j = int(np.argmax(np.minimum(alphas, spec.svm_cost - alphas)))
        alphas = alphas.copy()
        alphas[j] = np.clip(alphas[j] - residual * labels[j], 0.0, spec.svm_cost)
    dual_objective = float(0.5 * alphas @ (q_matrix @ alphas) + q_vector @ alphas) * n
    meta = _meta(
        spec.mode,
        result,
        classifier="kernel_svm",
        svm_cost=spec.svm_cost,
        kernel_kind=kernel.kind,
        rbf_gamma=kernel.rbf_gamma,
        covariance_thresholds=[v if math.isfinite(v) else None for v in c],
        covariance=(cov_rows @ alphas).tolist(),
        objective=dual_objective,
    )
    return KernelModel(
        alphas=alphas,
        support_points=features,
        support_labels=labels,
        kernel=kernel,
        svm_cost=spec.svm_cost,
        training_meta=meta,
    )


# ---------------------------------------------------------------------------
# dispatch

# logistic fit per mode, by name
_LOGREG_FITS = {
    "unconstrained": "fit_logreg",
    "fairness_constrained": "fit_logreg_fair",
    "accuracy_constrained": "fit_logreg_fairness_max",
    "fine_grained": "fit_logreg_fine_grained",
}


def fit(train: Dataset, classifier: str, spec: FitSpec, settings: SolverSettings | None = None):
    """Fit ``classifier`` (logreg, linear_svm or kernel_svm) in ``spec.mode``.

    Calls the public fit function of the pair, looked up by name at call time
    so that a rebinding of that name is the one called.
    """
    if classifier == "logreg":
        name = _LOGREG_FITS[spec.mode]
    elif classifier in ("linear_svm", "kernel_svm"):
        name = f"fit_{classifier}_fair"
    else:
        raise ValueError(f"unknown classifier {classifier!r}")
    return globals()[name](train, spec, settings)


def protected_rows(baseline: LinearModel | KernelModel, train: Dataset, group: int) -> np.ndarray:
    """Rows of ``group`` (first sensitive column) that ``baseline`` classifies as positive."""
    positive = decision_values(baseline, train.features) >= 0
    return np.flatnonzero(positive & (train.sensitive[:, 0] == group))


# ---------------------------------------------------------------------------
# prediction


def decision_values(model: LinearModel | KernelModel, features: np.ndarray) -> np.ndarray:
    """Signed distances of the rows of ``features`` to the model boundary."""
    features = np.asarray(features, dtype=float)
    if isinstance(model, LinearModel):
        if features.shape[1] != model.theta.size:
            raise ValueError("feature width does not match model dimension")
        return features @ model.theta
    if isinstance(model, KernelModel):
        if features.shape[1] != model.support_points.shape[1]:
            raise ValueError("feature width does not match model dimension")
        gram = gram_matrix(model.kernel, features, model.support_points)
        return gram @ (model.alphas * model.support_labels)
    raise TypeError("model must be LinearModel or KernelModel")


def predict(model: LinearModel | KernelModel, features: np.ndarray) -> np.ndarray:
    """±1 predictions; a distance of exactly zero maps to +1."""
    return np.where(decision_values(model, features) >= 0, 1, -1)


# ---------------------------------------------------------------------------
# serialization


def model_to_dict(model: LinearModel | KernelModel) -> dict:
    if isinstance(model, LinearModel):
        return {"kind": "linear", "theta": model.theta.tolist(), "training_meta": model.training_meta}
    if isinstance(model, KernelModel):
        return {
            "kind": "kernel",
            "alphas": model.alphas.tolist(),
            "support_points": model.support_points.tolist(),
            "support_labels": model.support_labels.tolist(),
            "kernel": {"kind": model.kernel.kind, "rbf_gamma": model.kernel.rbf_gamma},
            "svm_cost": model.svm_cost,
            "training_meta": model.training_meta,
        }
    raise TypeError("model must be LinearModel or KernelModel")


def model_from_dict(payload: dict) -> LinearModel | KernelModel:
    kind = payload.get("kind")
    if kind == "linear":
        return LinearModel(theta=np.asarray(payload["theta"], dtype=float), training_meta=payload.get("training_meta", {}))
    if kind == "kernel":
        spec = KernelSpec(kind=payload["kernel"]["kind"], rbf_gamma=payload["kernel"]["rbf_gamma"])
        return KernelModel(
            alphas=np.asarray(payload["alphas"], dtype=float),
            support_points=np.asarray(payload["support_points"], dtype=float),
            support_labels=np.asarray(payload["support_labels"], dtype=float),
            kernel=spec,
            svm_cost=float(payload["svm_cost"]),
            training_meta=payload.get("training_meta", {}),
        )
    raise ValueError(f"unknown model kind {kind!r}")
