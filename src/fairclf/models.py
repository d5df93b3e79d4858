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
  for a chosen set of rows. The per-point loss log(1 + e^-m) is strictly
  decreasing in the margin m = y x.theta, so the budget loss <= b holds
  exactly when y x.theta >= -log(expm1(b)), and each budget is passed to the
  solver as that linear row, next to the stay-positive rows
  x.theta >= 1e-8. Each budget b is exactly (1 + gamma) times the
  unconstrained loss of its row.

Models expose signed distances through :func:`decision_values` and ±1 labels
through :func:`predict`; neither reads the sensitive block, so the sensitive
attributes never participate in decisions.
"""

from __future__ import annotations

import copy
import logging
import math
import weakref
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
    matvec,
    minimize_smooth,
    rmatvec,
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

_log = logging.getLogger(__name__)

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
        if self.rbf_gamma is not None and not 0 < self.rbf_gamma < math.inf:
            raise ValueError("rbf_gamma must be positive and finite")


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
        # each range test is written so that NaN fails it
        if not 0 <= self.l2_penalty < math.inf:
            raise ValueError("l2_penalty must be finite and >= 0")
        if self.svm_cost is not None and not 0 < self.svm_cost < math.inf:
            raise ValueError("svm_cost must be positive and finite")
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
        if self.gamma is not None and not 0 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and >= 0")
        # infinity drops a row's budget; NaN means nothing
        if self.per_point_gammas is not None and not np.all(np.asarray(self.per_point_gammas, dtype=float) >= 0):
            raise ValueError("per_point_gammas must be >= 0 (or inf), not NaN")

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
    """Dual SVM solution: positive coefficients over its support vectors plus the kernel.

    ``support_points`` and ``support_labels`` are the training rows with
    alpha > 0 and their labels; the rows at alpha = 0 add nothing to a
    decision value and are not stored.
    """

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
    """log(1 + e^t) without overflow: max(t, 0) + log1p(e^-|t|), in one pass with no masks."""
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def _loss_at(theta, scores, labels, l2_penalty: float) -> float:
    """Logistic loss from the scores X @ theta."""
    value = float(np.sum(_log1pexp(-(labels * scores))))
    if l2_penalty:
        value += l2_penalty * float(theta @ theta)
    return value


def _gradient_at(theta, scores, features, labels, l2_penalty: float) -> np.ndarray:
    """Logistic loss gradient from the scores X @ theta."""
    s = expit(-labels * scores)
    grad = -rmatvec(features, labels * s)
    if l2_penalty:
        grad = grad + 2.0 * l2_penalty * theta
    return grad


def logistic_loss(theta: np.ndarray, features: np.ndarray, labels: np.ndarray, l2_penalty: float = 0.0) -> float:
    """Negative log-likelihood of ±1 labels, plus l2_penalty * ||theta||^2."""
    return _loss_at(theta, matvec(features, theta), labels, l2_penalty)


def logistic_loss_gradient(theta, features, labels, l2_penalty: float = 0.0) -> np.ndarray:
    return _gradient_at(theta, matvec(features, theta), features, labels, l2_penalty)


def per_point_logistic_loss(theta, features, labels) -> np.ndarray:
    """Vector of per-row negative log-likelihoods."""
    return _log1pexp(-(labels * matvec(features, theta)))


def _at_last_point(fn):
    """``fn`` of one float vector, reusing its result while called again at the same point.

    The solver asks for a value and a gradient at the same point, so the two
    share one pass over the rows instead of making one each. Points are
    compared by their bytes, which costs less than the d=3 products it
    saves. The result is shared, so callers must not modify it.
    """
    key, result = None, None

    def cached(x: np.ndarray):
        nonlocal key, result
        x_key = x.tobytes()
        if x_key != key:
            key, result = x_key, fn(x)
        return result

    return cached


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


# the pivoted Cholesky of a Gram stops once the trace it leaves out is at most
# this fraction of the Gram's trace
_GRAM_FACTOR_TOLERANCE = 1e-12
_GRAM_FACTOR_BLOCK = 64  # columns of the factor allocated at a time


def _gram_factor(gram: np.ndarray) -> np.ndarray:
    """L of shape (n, r) with gram ~ L L', by pivoted incomplete Cholesky (Fine & Scheinberg 2001).

    Each step pivots on the row with the largest residual diagonal, the
    diagonal of gram - L L', and computes the new column from that row of
    ``gram`` and the earlier columns with :func:`~fairclf.solvers.matvec`.
    It stops once the residual trace is at most ``_GRAM_FACTOR_TOLERANCE``
    of the Gram's trace. Columns are allocated ``_GRAM_FACTOR_BLOCK`` at a
    time, so no n x n array is made.
    """
    n = gram.shape[0]
    residual = np.diag(gram).astype(float)
    stop = _GRAM_FACTOR_TOLERANCE * residual.sum()
    blocks: list[np.ndarray] = []
    rank = 0
    while rank < n and residual.sum() > stop:
        pivot = int(np.argmax(residual))
        if rank % _GRAM_FACTOR_BLOCK == 0:
            blocks.append(np.zeros((n, min(_GRAM_FACTOR_BLOCK, n - rank)), order="F"))
        column = gram[pivot].astype(float)
        for block in blocks:  # the columns not yet filled are zeros
            column -= matvec(block, block[pivot])
        column /= math.sqrt(residual[pivot])
        blocks[-1][:, rank % _GRAM_FACTOR_BLOCK] = column
        residual -= column * column
        np.maximum(residual, 0.0, out=residual)
        rank += 1
    return np.hstack(blocks)[:, :rank] if blocks else np.zeros((n, 0))


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
    base = dict(max_iterations=10_000, kkt_tolerance=1e-6, feasibility_tolerance=1e-8)
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


def _unit_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The constraints A x <= b with each row of A, and its entry of b, divided by the row's norm.

    Each norm is ``np.linalg.norm`` of the row alone: ``norm(axis=1)``
    differs from it in the last bit on some rows, and the solvers' iterates
    follow those bits. A row of zeros is left as it is.
    """
    r = np.array([np.linalg.norm(row) for row in a])
    r[r == 0] = 1.0
    return a / r[:, None], b / r


def _interleave(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The rows first[0], second[0], first[1], second[1], ..."""
    return np.stack([first, second], axis=1).reshape(-1, first.shape[1])


def _padded(w: np.ndarray, n_extra: int) -> np.ndarray:
    return np.hstack([w, np.zeros((w.shape[0], n_extra))])


def _covariance_rows(w: np.ndarray, c: np.ndarray, n_extra: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) encoding |W theta| <= c for the finite c_k, padded with n_extra zero columns.

    Column k gives the rows +w_k and -w_k, in that order.
    """
    finite = np.isfinite(c)
    a = _padded(w[finite], n_extra)
    return _unit_rows(_interleave(a, -a), np.repeat(c[finite], 2))


def _covariance_split(w: np.ndarray, c: np.ndarray, n_extra: int = 0) -> tuple[tuple, np.ndarray]:
    """|W theta| <= c as ((A, b), E): c_k > 0 rows in A x <= b, c_k = 0 rows in E x = 0.

    A row of zeros holds at every point (a constant sensitive column gives
    one), so a c_k = 0 row of zeros is left out; in E it would make the
    equality system singular.
    """
    zero = (c == 0) & np.any(w != 0, axis=1)
    e, _ = _unit_rows(_padded(w[zero], n_extra), np.zeros(np.count_nonzero(zero)))
    return _covariance_rows(w[c > 0], c[c > 0], n_extra), e


def _epigraph_rows(w: np.ndarray, n_extra: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) encoding |W theta| <= t in stacked (theta, t) variables, then n_extra rows of zeros.

    Column k gives the rows (w_k, -e_k) and (-w_k, -e_k), in that order. The
    trailing rows are for the caller to fill in place, so a fit with more
    rows allocates its constraint matrix once.
    """
    minus_t = -np.eye(w.shape[0])
    a = _interleave(np.hstack([w, minus_t]), np.hstack([-w, minus_t]))
    a, _ = _unit_rows(a, np.zeros(a.shape[0]))
    return np.pad(a, ((0, n_extra), (0, 0))), np.zeros(a.shape[0] + n_extra)


# ---------------------------------------------------------------------------
# logistic regression fits


def _mean_loss_problem(features, value_at, gradient_at, constraints=None, equality=None) -> SmoothProblem:
    """A loss of (theta, scores X @ theta) as a ``SmoothProblem`` divided by n, started at theta = 0.

    ``value_at`` and ``gradient_at`` share one product X @ theta per point.
    The mean scale makes the stationarity tolerance independent of the row
    count; reported objectives are totals.
    """
    n, d = features.shape
    inv_n = 1.0 / n
    scores = _at_last_point(lambda theta: matvec(features, theta))
    return SmoothProblem(
        dimension=d,
        objective=lambda theta: value_at(theta, scores(theta)) * inv_n,
        gradient=lambda theta: gradient_at(theta, scores(theta)) * inv_n,
        equality=equality,
        linear_constraints=constraints,
        initial_point=np.zeros(d),
    )


def _fit_logreg_core(features, labels, l2_penalty, settings, constraints=None, equality=None) -> SolverResult:
    problem = _mean_loss_problem(
        features,
        lambda theta, scores: _loss_at(theta, scores, labels, l2_penalty),
        lambda theta, scores: _gradient_at(theta, scores, features, labels, l2_penalty),
        constraints,
        equality,
    )
    return minimize_smooth(problem, settings)


# the last unconstrained fit: (weak reference to its training set, spec, settings, model)
_last_fit: tuple | None = None


def _handed_out(model: LinearModel) -> LinearModel:
    """A copy of ``model`` whose ``training_meta`` a caller may change freely."""
    return replace(model, training_meta=copy.deepcopy(model.training_meta))


def fit_logreg(train: Dataset, spec: FitSpec, settings: SolverSettings | None = None) -> LinearModel:
    """Unconstrained logistic regression (mode ``unconstrained``).

    Perfectly separable data makes the unpenalized problem unbounded; that
    case is detected by the optimum collapsing to (numerically) zero loss and
    resolved by refitting with a tiny ridge, recorded in ``training_meta``.

    The last fit is remembered: a call on the same ``Dataset`` object with an
    equal spec and equal settings (after defaulting) returns its optimum
    without solving again. A ``Dataset`` is frozen and its arrays are
    read-only, so the same object means the same rows. The training set is
    held by a weak reference and is not kept alive by the memo. This is how
    the gamma-mode fits, which start from the unconstrained optimum, reuse
    the baseline that a sweep or a caller has just fitted.
    """
    global _last_fit
    if spec.mode != "unconstrained":
        raise ValueError("fit_logreg requires mode 'unconstrained'")
    _require_bias(train, "fit_logreg")
    settings = settings or _default_settings()
    if _last_fit is not None:
        train_ref, last_spec, last_settings, model = _last_fit
        if train_ref() is train and last_spec == spec and last_settings == settings:
            _log.debug("fit_logreg: reusing the optimum fitted last on this training set")
            return _handed_out(model)
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
    model = LinearModel(theta=result.point, training_meta=meta)
    _last_fit = (weakref.ref(train), spec, settings, model)
    return _handed_out(model)


def fit_logreg_fair(train: Dataset, spec: FitSpec, settings: SolverSettings | None = None) -> LinearModel:
    """Logistic regression under |covariance_k| <= c_k (mode ``fairness_constrained``).

    A c_k > 0 column gives the inequality rows w_k . theta <= c_k and
    -w_k . theta <= c_k; a c_k = 0 column gives the equality w_k . theta = 0,
    which the solver eliminates exactly, so such a covariance is zero to
    rounding. With every c_k = 0 the fit is one quasi-Newton run on the null
    space of W.
    """
    if spec.mode != "fairness_constrained":
        raise ValueError("fit_logreg_fair requires mode 'fairness_constrained'")
    _require_bias(train, "fit_logreg_fair")
    settings = settings or _default_settings()
    c = spec.thresholds_for(train.n_sensitive)
    w = covariance_vectors(train)
    rows, e = _covariance_split(w, c)
    equality = (e, np.zeros(e.shape[0]))
    result = _fit_logreg_core(train.features, train.labels, spec.l2_penalty, settings, rows, equality)
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
    w: np.ndarray,
    rows: tuple[np.ndarray, np.ndarray],
    blocks: list,
    theta_start: np.ndarray,
) -> SmoothProblem:
    """Epigraph problem: minimize sum_k t_k over (theta, t) with |cov_k| <= t_k.

    ``rows`` are the linear rows (A, b), starting with :func:`_epigraph_rows`
    of W. Warm-started at the supplied theta (the unconstrained optimum,
    which is feasible for the loss budgets) with the epigraph variables
    strictly above the initial absolute covariances.
    """
    d = theta_start.size
    n_k = w.shape[0]
    grad_obj = np.concatenate([np.zeros(d), np.ones(n_k)])
    start = np.concatenate([theta_start, np.abs(w @ theta_start) + 1e-6])
    return SmoothProblem(
        dimension=d + n_k,
        objective=lambda v: float(grad_obj @ v),
        gradient=lambda v: grad_obj,
        linear_constraints=rows,
        convex_constraints=blocks,
        initial_point=start,
    )


def fit_logreg_fairness_max(train: Dataset, spec: FitSpec, settings: SolverSettings | None = None) -> LinearModel:
    """Minimize summed |covariance| under a total-loss budget (mode ``accuracy_constrained``).

    The unconstrained optimum theta* is fitted first (or taken from
    :func:`fit_logreg`'s memo); the budget is L(theta) <= (1 + gamma) L*
    with L* = L(theta*), with no headroom, so a converged fit certifies that
    budget. The absolute values are handled by an epigraph reformulation,
    keeping the problem smooth.

    At gamma = 0 the result is theta* itself, without a solve, marked
    ``closed_form``. This is exact: the feasible points are the minimizers
    of L. The log-loss is strictly convex in the scores X theta, so all
    minimizers share X theta, and the covariances W theta depend on theta
    only through X theta. Every feasible point has the same objective, so
    theta* is optimal, and its status is that of the unconstrained fit.
    """
    if spec.mode != "accuracy_constrained":
        raise ValueError("fit_logreg_fairness_max requires mode 'accuracy_constrained'")
    _require_bias(train, "fit_logreg_fairness_max")
    settings = settings or _default_settings(feasibility_tolerance=3e-9)
    base = fit_logreg(train, FitSpec(mode="unconstrained", l2_penalty=spec.l2_penalty), _default_settings())
    ridge = base.training_meta["l2_penalty"]
    loss_star = base.training_meta["objective"]
    budget = max((1.0 + spec.gamma) * loss_star, 1e-12)
    features, labels = train.features, train.labels

    def closed_form(theta: np.ndarray, loss: float, status: str, kkt: KKTResiduals) -> LinearModel:
        w = covariance_vectors(train)
        objective = float(np.sum(np.abs(w @ theta)))
        exact = SolverResult(point=theta, objective_value=objective, status=status, kkt=kkt, iterations=0)
        meta = _meta(
            "accuracy_constrained",
            exact,
            gamma=spec.gamma,
            l2_penalty=ridge,
            loss_star=loss_star,
            loss=loss,
            covariance=(w @ theta).tolist(),
            closed_form=True,
        )
        return LinearModel(theta=theta, training_meta=meta)

    # once the budget admits the all-zero boundary, that boundary is an exact
    # optimum (its covariance is identically zero in every column), so the
    # numerical solve is skipped; every row then sits on the positive side of
    # the tie and both groups share the same positive rate
    zero_theta = np.zeros(train.n_features)
    zero_loss = logistic_loss(zero_theta, features, labels, ridge)
    if zero_loss <= budget:
        return closed_form(zero_theta, zero_loss, "converged", KKTResiduals(0.0, 0.0, 0.0))
    if spec.gamma == 0.0:
        kkt = base.training_meta["kkt"]
        residuals = KKTResiduals(kkt["stationarity_norm"], kkt["max_violation"], kkt["max_comp_slack"])
        return closed_form(np.asarray(base.theta), loss_star, base.training_meta["status"], residuals)

    d = features.shape[1]
    scores = _at_last_point(lambda v: matvec(features, v[:d]))

    def loss_block(v: np.ndarray) -> np.ndarray:
        # normalized so the feasibility tolerance bounds the relative
        # exceedance of the loss budget
        return np.array([_loss_at(v[:d], scores(v), labels, ridge) / budget - 1.0])

    def loss_jac(v: np.ndarray) -> np.ndarray:
        g = _gradient_at(v[:d], scores(v), features, labels, ridge) / budget
        return np.concatenate([g, np.zeros(v.size - d)])[None, :]

    block = ConstraintBlock(value=loss_block, jacobian=loss_jac, size=1)
    w = covariance_vectors(train)
    problem = _covariance_objective_problem(w, _epigraph_rows(w), [block], theta_start=np.asarray(base.theta))
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


def _margin_bound(budget: np.ndarray) -> np.ndarray:
    """The least margin m with log(1 + e^-m) <= budget, for budget > 0: m = -log(expm1(budget)).

    Evaluated as -b - log(-expm1(-b)), the same number since
    expm1(b) = -e^b expm1(-b). expm1 keeps the digits of a small b, and for
    a large b this form stays finite where expm1(b) overflows (past
    b ~ 710) and the naive bound is -inf.
    """
    return -budget - np.log(-np.expm1(-budget))


# rows filled per chunk of the fine-grained constraint matrix: the chunk's
# gathered features are the only temporary copy of X
_ROW_CHUNK = 1024


def _margin_rows(w, features, rows, signs, margins) -> tuple[np.ndarray, np.ndarray]:
    """(A, b): the epigraph rows of W, then s_i x_i . theta >= m_i for each listed row i.

    Each margin row is -s_i x_i / ||x_i|| . theta <= -m_i / ||x_i||, divided
    by the norm as :func:`_unit_rows` divides. The matrix is allocated once
    and its feature block filled and scaled in place, a chunk of rows at a
    time.
    """
    a, b = _epigraph_rows(w, n_extra=rows.size)
    top = b.size - rows.size
    d = features.shape[1]
    for start in range(0, rows.size, _ROW_CHUNK):
        stop = min(start + _ROW_CHUNK, rows.size)
        block = a[top + start : top + stop, :d]
        block[...] = features[rows[start:stop]]
        norms = np.sqrt(np.einsum("ij,ij->i", block, block))
        block /= norms[:, None]
        block *= -signs[start:stop, None]
        b[top + start : top + stop] = -margins[start:stop] / norms
    return a, b


def fit_logreg_fine_grained(train: Dataset, spec: FitSpec, settings: SolverSettings | None = None) -> LinearModel:
    """Minimize summed |covariance| under per-point loss budgets (mode ``fine_grained``).

    Rows in ``protected_index_set`` get a hard constraint keeping their signed
    distance non-negative (no positive-to-negative flip relative to the
    unconstrained model); every other row i keeps its loss within
    (1 + gamma_i) of its unconstrained per-point loss. A gamma of infinity
    drops that row's constraint.

    The problem solved, over (theta, t), is: minimize sum_k t_k subject to
    |cov_k(theta)| <= t_k, x_i . theta >= 1e-8 for each protected row, and
    y_i x_i . theta >= m(b_i) for each budgeted row, with the budget
    b_i = (1 + gamma_i) loss_i(theta*) and m(b) = -log(expm1(b)).
    The loss log(1 + e^-m) of a row with margin m = y_i x_i . theta is
    strictly decreasing in m and equals b at m(b), so the margin row holds
    exactly when loss_i(theta) <= b_i: the rows are the loss budgets, and a
    ``converged`` status certifies them.
    """
    if spec.mode != "fine_grained":
        raise ValueError("fit_logreg_fine_grained requires mode 'fine_grained'")
    _require_bias(train, "fit_logreg_fine_grained")
    settings = settings or _default_settings(feasibility_tolerance=1e-10)
    gammas = np.asarray(spec.per_point_gammas, dtype=float)
    if gammas.shape != (train.n,):
        raise ValueError("per_point_gammas must have one entry per training row")
    index = spec.protected_index_set
    protected = np.unique(np.asarray(list(index) if isinstance(index, (set, frozenset)) else index).astype(int))
    if protected.size and (protected.min() < 0 or protected.max() >= train.n):
        raise ValueError("protected_index_set out of range")

    base = fit_logreg(train, FitSpec(mode="unconstrained", l2_penalty=spec.l2_penalty), _default_settings())
    features, labels = train.features, train.labels
    loss_star_i = per_point_logistic_loss(base.theta, features, labels)

    # the protected rows, then the budgeted rows, each as s_i x_i . theta >= m_i
    budgeted = np.setdiff1d(np.flatnonzero(np.isfinite(gammas)), protected)
    rows = np.concatenate([protected, budgeted])
    signs = np.concatenate([np.ones(protected.size), labels[budgeted]])
    bounds = (1.0 + gammas[budgeted]) * loss_star_i[budgeted]
    margins = np.concatenate([np.full(protected.size, _NOFLIP_MARGIN), _margin_bound(bounds)])

    w = covariance_vectors(train)
    constraints = _margin_rows(w, features, rows, signs, margins)
    problem = _covariance_objective_problem(w, constraints, [], theta_start=np.asarray(base.theta))
    result = minimize_smooth(problem, settings)
    theta = result.point[: train.n_features]
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


def _squared_hinge_at(theta, scores, labels, svm_cost) -> float:
    """Squared-hinge objective ||theta||^2 + C * sum max(0, 1 - y m)^2 from the scores m = X @ theta."""
    gap = np.maximum(0.0, 1.0 - labels * scores)
    return float(theta @ theta + svm_cost * (gap @ gap))


def _squared_hinge_gradient_at(theta, scores, features, labels, svm_cost) -> np.ndarray:
    gap = np.maximum(0.0, 1.0 - labels * scores)
    return 2.0 * theta - 2.0 * svm_cost * rmatvec(features, labels * gap)


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
    ||theta||^2 + C * sum max(0, 1 - y m)^2 with the covariance bounds as
    linear rows: a c_k > 0 column as two inequalities, a c_k = 0 column as
    an equality that the solver eliminates. ``svm_hinge="exact"`` instead
    solves the exact-hinge quadratic program in (theta, xi), with the same
    split of the rows; in both cases the reported slack values are
    max(0, 1 - y m) at the solution.

    In the exact-hinge program each xi_i is a slack column of
    :func:`~fairclf.solvers.solve_qp`, so an interior-point iteration factors
    a d x d matrix. Building the program and the products with its dense
    (n + K) x (d + n) constraint matrix and (d + n) x (d + n) Q still cost
    O(n^2) time and memory per iteration.
    """
    c = _svm_thresholds(train, spec, "fit_linear_svm_fair")
    _require_bias(train, "fit_linear_svm_fair")
    settings = settings or _default_settings()
    features, labels = train.features, train.labels
    n, d = features.shape
    w = covariance_vectors(train)

    if spec.svm_hinge == "squared":
        rows, e = _covariance_split(w, c)
        problem = _mean_loss_problem(
            features,
            lambda t, scores: _squared_hinge_at(t, scores, labels, spec.svm_cost),
            lambda t, scores: _squared_hinge_gradient_at(t, scores, features, labels, spec.svm_cost),
            rows,
            (e, np.zeros(e.shape[0])),
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
        # margin rows -y_i x_i . theta - xi_i <= -1, then the covariance rows
        margin = np.zeros((n, dim))
        margin[:, :d] = -labels[:, None] * features
        margin[np.arange(n), d + np.arange(n)] = -1.0
        margin_a, margin_b = _unit_rows(margin, np.full(n, -1.0))
        (cov_a, cov_b), cov_e = _covariance_split(w, c, n_extra=n)
        problem = QuadraticProblem(
            q_matrix=q_matrix,
            q_vector=q_vector,
            box=(lower, None),
            equality=(cov_e, np.zeros(cov_e.shape[0])),
            linear_constraints=(np.vstack([margin_a, cov_a]), np.concatenate([margin_b, cov_b])),
        )
        result = solve_qp(problem, settings)
        theta = result.point[:d]

    slack = np.maximum(0.0, 1.0 - labels * (features @ theta))
    primal = (
        _squared_hinge_at(theta, matvec(features, theta), labels, spec.svm_cost)
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

    The problem carries the factor Q ~ diag(1 / (C n)) + V V' with
    V = diag(y) L / sqrt(n), where L L' is a pivoted incomplete Cholesky of
    the Gram, stopped once its residual trace is at most 1e-12 of the Gram's
    trace (``_GRAM_FACTOR_TOLERANCE``). Each interior-point step is then solved
    through that diagonal-plus-low-rank model by Woodbury, in O(n r^2)
    instead of a dense O(n^3) Cholesky; the residuals and the ``converged``
    certificate are still those of the exact Q. The model keeps the rows
    with alpha > 1e-8 C, the support vectors; ``covariance`` and
    ``objective`` in its ``training_meta`` are those of the stored
    coefficients.
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

    # sum(alpha * y) = 0 and the c_k = 0 bounds are the equalities
    (cov_a, cov_b), cov_e = _covariance_split(cov_rows, c)
    problem = QuadraticProblem(
        q_matrix=q_matrix,
        q_vector=q_vector,
        box=(np.zeros(n), np.full(n, float(spec.svm_cost))),
        equality=(np.vstack([labels / math.sqrt(n), cov_e]), np.zeros(1 + cov_e.shape[0])),
        linear_constraints=(cov_a, cov_b),
        q_factor=(1.0 / (spec.svm_cost * n), _gram_factor(gram) * (labels / math.sqrt(n))[:, None]),
    )
    result = solve_qp(problem, settings)
    alphas = np.clip(result.point, 0.0, spec.svm_cost)
    # keep the support vectors. The interior-point method leaves a
    # coefficient at its lower bound at about mu / z, not at zero; the cut
    # at 1e-8 C falls in the gap between those and the support vectors in
    # the C10-shaped fits (at 600 rows below 1e-11 C and above 5e-4 C, at
    # 2000 rows below 4.6e-9 C and above 1.09e-8 C)
    support = np.flatnonzero(alphas > 1e-8 * spec.svm_cost)
    alphas, sv_labels = alphas[support], labels[support]
    # the equality is enforced to ~1e-9; absorb any residual into the most
    # box-interior coefficient so the model invariant holds exactly
    residual = float(alphas @ sv_labels)
    if abs(residual) > 1e-10:
        j = int(np.argmax(np.minimum(alphas, spec.svm_cost - alphas)))
        alphas[j] = np.clip(alphas[j] - residual * sv_labels[j], 0.0, spec.svm_cost)
    q_support = q_matrix[np.ix_(support, support)]
    dual_objective = float(0.5 * alphas @ (q_support @ alphas) + q_vector[support] @ alphas) * n
    meta = _meta(
        spec.mode,
        result,
        classifier="kernel_svm",
        svm_cost=spec.svm_cost,
        kernel_kind=kernel.kind,
        rbf_gamma=kernel.rbf_gamma,
        covariance_thresholds=[v if math.isfinite(v) else None for v in c],
        covariance=(cov_rows[:, support] @ alphas).tolist(),
        objective=dual_objective,
    )
    return KernelModel(
        alphas=alphas,
        support_points=features[support],
        support_labels=sv_labels,
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
