"""Margin-based classifiers trained under boundary-covariance fairness constraints.

Four training modes; the table :data:`CLASSIFIERS` gives all four to
logistic regression and the first two to the linear and the kernel SVM:

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
through :func:`predict`, by the sign rule of :mod:`fairclf.metrics`; neither
reads the sensitive block, so the sensitive attributes never participate in
decisions.
"""

from __future__ import annotations

import logging
import math
import weakref
from dataclasses import dataclass, field, replace
from typing import Literal, Sequence

import numpy as np

from .data import Dataset
from .metrics import sign_rule
from .solvers import (
    ConstraintBlock,
    KKTResiduals,
    QuadraticProblem,
    SmoothProblem,
    SolverResult,
    SolverSettings,
    _null_space_svd,
    minimize_smooth,
    solve_qp,
    weighted_gram,
)

__all__ = [
    "CLASSIFIERS",
    "MODES",
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
    "fit_spec",
    "model_from_dict",
    "model_to_dict",
    "predict",
    "protected_rows",
]

_log = logging.getLogger(__name__)

Mode = Literal["unconstrained", "fairness_constrained", "accuracy_constrained", "fine_grained"]

# the FitSpec fields that each mode requires and every other mode leaves unset
_MODE_FIELDS = {
    "unconstrained": (),
    "fairness_constrained": ("covariance_thresholds",),
    "accuracy_constrained": ("gamma",),
    "fine_grained": ("per_point_gammas", "protected_index_set"),
}
MODES = tuple(_MODE_FIELDS)

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
    So are another classifier's fields, as :data:`CLASSIFIERS` assigns them.
    """

    mode: Mode
    covariance_thresholds: float | Sequence[float] | None = None
    gamma: float | None = None
    per_point_gammas: Sequence[float] | None = None
    protected_index_set: Sequence[int] | None = None
    svm_cost: float | None = None
    l2_penalty: float = 0.0
    kernel: KernelSpec | None = None
    # the linear SVM fits the exact hinge only; the field is kept so that
    # callers passing svm_hinge="exact" keep working
    svm_hinge: Literal["exact"] = "exact"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        # each range test is written so that NaN fails it
        if not 0 <= self.l2_penalty < math.inf:
            raise ValueError("l2_penalty must be finite and >= 0")
        if self.svm_cost is not None and not 0 < self.svm_cost < math.inf:
            raise ValueError("svm_cost must be positive and finite")
        if self.svm_hinge != "exact":
            raise ValueError(f"svm_hinge must be 'exact', not {self.svm_hinge!r}: the squared-hinge surrogate was removed")
        need = _MODE_FIELDS[self.mode]
        for name in sum(_MODE_FIELDS.values(), ()):
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
        """The bound c_k of each of ``n_sensitive`` columns: the spec's thresholds, or inf (no bound) without them."""
        given = np.inf if self.covariance_thresholds is None else self.covariance_thresholds
        c = np.broadcast_to(np.asarray(given, dtype=float), (n_sensitive,)).copy()
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
        points = np.asarray(self.support_points, dtype=float)
        y = np.asarray(self.support_labels, dtype=float)
        # each test is written so that NaN fails it; a model may come from JSON
        if not 0 < self.svm_cost < math.inf:
            raise ValueError("svm_cost must be positive and finite")
        if alphas.ndim != 1 or points.ndim != 2 or y.shape != alphas.shape or points.shape[0] != alphas.size:
            raise ValueError("alphas and support_labels must be vectors with one entry per row of support_points")
        if not np.all(np.isfinite(alphas)):
            raise ValueError("alphas must be finite")
        if not np.all(np.isfinite(points)):
            raise ValueError("support_points must be finite")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("support_labels must take values in {-1, +1}")
        if np.any(alphas < -1e-12) or np.any(alphas > self.svm_cost + 1e-12):
            raise ValueError("dual coefficients must lie in [0, C]")
        if abs(float(alphas @ y)) > 1e-8:
            raise ValueError("dual coefficients must satisfy sum(alpha * y) = 0")
        for name, arr in (("alphas", alphas), ("support_points", points), ("support_labels", y)):
            frozen = arr.copy()
            frozen.setflags(write=False)
            object.__setattr__(self, name, frozen)


# ---------------------------------------------------------------------------
# loss pieces


def _margins(theta, features, labels) -> tuple[np.ndarray, np.ndarray]:
    """The margins m = y * (X @ theta) and e = e^-|m|, the one exp per point that the loss and its derivatives read."""
    margins = labels * (features @ theta)
    return margins, np.exp(-np.abs(margins))


def _point_losses(margins, e) -> np.ndarray:
    """The per-point logistic loss log(1 + e^-m) from the margins and e = e^-|m|: max(-m, 0) + log1p(e), with no masks."""
    return np.maximum(-margins, 0.0) + np.log1p(e)


def _loss_from(theta, margins, e, l2_penalty: float) -> float:
    """Logistic loss from the margins and e = e^-|m|: the sum of :func:`_point_losses`, plus the penalty."""
    value = float(np.sum(_point_losses(margins, e)))
    if l2_penalty:
        value += l2_penalty * float(theta @ theta)
    return value


def _gradient_from(theta, margins, e, features, labels, l2_penalty: float) -> np.ndarray:
    """Logistic loss gradient -X'(y sigma(-m)) + 2 l2_penalty theta from the margins and e = e^-|m|.

    sigma(-m) = 1 / (1 + e^m) is where(m <= 0, 1, e) / (1 + e), which
    never overflows.
    """
    grad = -(features.T @ (labels * (np.where(margins <= 0, 1.0, e) / (1.0 + e))))
    if l2_penalty:
        grad = grad + 2.0 * l2_penalty * theta
    return grad


def logistic_loss(theta: np.ndarray, features: np.ndarray, labels: np.ndarray, l2_penalty: float = 0.0) -> float:
    """Negative log-likelihood of ±1 labels, plus l2_penalty * ||theta||^2."""
    return _loss_from(theta, *_margins(theta, features, labels), l2_penalty)


def logistic_loss_gradient(theta, features, labels, l2_penalty: float = 0.0) -> np.ndarray:
    return _gradient_from(theta, *_margins(theta, features, labels), features, labels, l2_penalty)


def per_point_logistic_loss(theta, features, labels) -> np.ndarray:
    """Vector of per-row negative log-likelihoods."""
    return _point_losses(*_margins(theta, features, labels))


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
    return _rbf(kernel.rbf_gamma, a, b, np.sum(a * a, axis=1), np.sum(b * b, axis=1))


def _rbf(gamma: float, a: np.ndarray, b: np.ndarray, a_sq: np.ndarray, b_sq: np.ndarray) -> np.ndarray:
    """exp(-gamma ||a_i - b_j||^2) from the squared row norms, in one array updated in place."""
    sq = a_sq[:, None] + b_sq[None, :]
    sq -= 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    sq *= -gamma
    return np.exp(sq, out=sq)


# entries of the kernel block that one step of :func:`_kernel_product` forms:
# 512 KB, so a block and the temporaries of its construction stay in cache.
# On 2 CPUs, scoring 20,000 rows against 155 support vectors right after a
# fit took 15-22 ms with blocks of 2**15 to 2**17 entries, against 40-100 ms
# with 2**18 and about 50 ms with the whole 20,000 x 155 kernel at once
_KERNEL_BLOCK_ENTRIES = 2**16


def _kernel_product(kernel: KernelSpec, a: np.ndarray, b: np.ndarray, m: np.ndarray) -> np.ndarray:
    """K(a, b) @ m, formed over blocks of rows of ``a``.

    Each block of K has at most ``_KERNEL_BLOCK_ENTRIES`` entries, so the
    product never holds the len(a) x len(b) kernel. The blocks come from
    :func:`gram_matrix`.
    """
    rows = max(1, _KERNEL_BLOCK_ENTRIES // max(b.shape[0], 1))
    out = np.empty((a.shape[0],) + m.shape[1:])
    for start in range(0, a.shape[0], rows):
        out[start : start + rows] = gram_matrix(kernel, a[start : start + rows], b) @ m
    return out


# the pivoted Cholesky of a Gram stops once the trace it leaves out is at most
# this fraction of the Gram's trace
_GRAM_FACTOR_TOLERANCE = 1e-12
_GRAM_FACTOR_BLOCK = 64  # columns of the factor allocated at a time


def _gram_factor(kernel: KernelSpec, features: np.ndarray) -> np.ndarray:
    """L of shape (n, r) with K ~ L L' for the Gram K of ``features``, by pivoted incomplete Cholesky.

    (Fine & Scheinberg 2001.) The residual diagonal, the diagonal of K - L L',
    starts from the kernel's diagonal: 1 for the RBF kernel, ||x||^2 for the
    linear one. Each step pivots on the row with the largest residual
    diagonal and computes the new column from that row of K (for the RBF
    kernel from the squared row norms, computed once for the whole factor;
    the values are those of :func:`gram_matrix`), and the earlier columns
    with numpy's ``@``, like every product in this module. It stops once the
    residual trace is at most ``_GRAM_FACTOR_TOLERANCE`` of the
    Gram's trace, and logs the rank and the residual trace at DEBUG level.
    The work is O(n r (r + d)), and columns are allocated
    ``_GRAM_FACTOR_BLOCK`` at a time, so the Gram is never formed and no
    n x n array is made.
    """
    n = features.shape[0]
    if kernel.kind == "linear":
        residual = np.einsum("ij,ij->i", features, features)
    else:
        sq = np.sum(features * features, axis=1)
        residual = np.ones(n)
    stop = _GRAM_FACTOR_TOLERANCE * residual.sum()
    blocks: list[np.ndarray] = []
    rank = 0
    while rank < n and residual.sum() > stop:
        pivot = int(np.argmax(residual))
        if rank % _GRAM_FACTOR_BLOCK == 0:
            blocks.append(np.zeros((n, min(_GRAM_FACTOR_BLOCK, n - rank)), order="F"))
        if kernel.kind == "linear":
            column = gram_matrix(kernel, features[pivot : pivot + 1], features)[0]
        else:
            column = _rbf(kernel.rbf_gamma, features[pivot : pivot + 1], features, sq[pivot : pivot + 1], sq)[0]
        for block in blocks:  # the columns not yet filled are zeros
            column -= block @ block[pivot]
        column /= math.sqrt(residual[pivot])
        blocks[-1][:, rank % _GRAM_FACTOR_BLOCK] = column
        residual -= column * column
        np.maximum(residual, 0.0, out=residual)
        rank += 1
    _log.debug("q_factor rank=%d residual trace=%.3e", rank, residual.sum())
    if not blocks:
        return np.zeros((n, 0))
    blocks[-1] = blocks[-1][:, : rank - _GRAM_FACTOR_BLOCK * (len(blocks) - 1)]
    return np.hstack(blocks)


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
# the classifier/mode table and shared fit plumbing


@dataclass(frozen=True)
class _Classifier:
    """One row of :data:`CLASSIFIERS`: the fit function's name by mode, and the FitSpec fields only this classifier reads."""

    fits: dict
    fields: tuple


# which classifier fits which mode, by which public function, with which
# FitSpec fields; fit, the fits' input checks, fit_spec, the sweep's config
# and the command line all read this table
CLASSIFIERS = {
    "logreg": _Classifier(
        dict(zip(MODES, ("fit_logreg", "fit_logreg_fair", "fit_logreg_fairness_max", "fit_logreg_fine_grained"))), ("l2_penalty",)
    ),
    "linear_svm": _Classifier(dict.fromkeys(MODES[:2], "fit_linear_svm_fair"), ("svm_cost",)),
    "kernel_svm": _Classifier(dict.fromkeys(MODES[:2], "fit_kernel_svm_fair"), ("svm_cost", "kernel")),
}


def _unsupported(who: str, modes) -> ValueError:
    return ValueError(f"{who} supports the {' and '.join(modes)} mode" + "s" * (len(modes) > 1))


def fit_spec(classifier, mode, value=None, *, l2_penalty, svm_cost, kernel, protected=None, n_rows=0) -> FitSpec:
    """The FitSpec of one fit of ``classifier``: ``mode`` at the value ``value``.

    ``value`` is the covariance threshold (or vector of thresholds) of a
    fairness-constrained fit and the loss-budget factor gamma of the two
    gamma modes; a fine-grained fit gives every one of its ``n_rows`` rows
    that gamma and keeps the ``protected`` rows positive. Of ``l2_penalty``,
    ``svm_cost`` and ``kernel`` the spec takes the fields that
    :data:`CLASSIFIERS` gives the classifier, and of the mode's fields those
    that ``_MODE_FIELDS`` gives the mode.
    """
    given = {"l2_penalty": l2_penalty, "svm_cost": svm_cost, "kernel": kernel}
    spec = {name: given[name] for name in CLASSIFIERS[classifier].fields}
    values = (np.full(n_rows, value), protected) if mode == "fine_grained" else (value,)
    spec.update(zip(_MODE_FIELDS[mode], values))
    return FitSpec(mode=mode, **spec)


def _check_inputs(train: Dataset, spec: FitSpec, op: str) -> None:
    """Raise ValueError unless :data:`CLASSIFIERS` gives ``spec.mode`` to the fit ``op``.

    Also for another classifier's field, an SVM without ``svm_cost``, and a
    linear fit without the bias column.
    """
    classifier, own = next((name, entry) for name, entry in CLASSIFIERS.items() if op in entry.fits.values())
    modes = [mode for mode, name in own.fits.items() if name == op]
    if spec.mode not in modes:
        raise _unsupported(op, modes)
    if "svm_cost" in own.fields and spec.svm_cost is None:
        raise ValueError(f"{op} requires svm_cost")
    if classifier != "kernel_svm" and not train.has_bias_column:
        raise ValueError(f"{op} expects a dataset with the bias column appended")
    for entry in CLASSIFIERS.values():  # FitSpec keeps each default as a class attribute
        for name in entry.fields:
            if name not in own.fields and getattr(spec, name) != getattr(FitSpec, name):
                raise ValueError(f"{name} is not used by {classifier}")


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


def _covariance_split(w: np.ndarray, c: np.ndarray) -> tuple[tuple, np.ndarray]:
    """|W theta| <= c as ((A, b), E) in unit rows: A x <= b for the finite c_k > 0, E x = 0 for the c_k = 0.

    A holds the one side w_k . theta <= c_k of each bound; a fit that poses
    both sides takes the pairs ``_interleave(A, -A)`` and ``np.repeat(b, 2)``,
    bitwise the pairs divided by their own norms. A row of zeros holds at
    every point (a constant sensitive column gives one), so a c_k = 0 row of
    zeros is left out; in E it would make the equality system singular.
    """
    zero = (c == 0) & np.any(w != 0, axis=1)
    e, _ = _unit_rows(w[zero], np.zeros(np.count_nonzero(zero)))
    bounded = (c > 0) & np.isfinite(c)
    return _unit_rows(w[bounded], c[bounded]), e


def _epigraph_rows(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) encoding |W theta| <= t in stacked (theta, t) variables.

    Column k gives the rows (w_k, -e_k) and (-w_k, -e_k), in that order.
    """
    minus_t = -np.eye(w.shape[0])
    a = _interleave(np.hstack([w, minus_t]), np.hstack([-w, minus_t]))
    return _unit_rows(a, np.zeros(a.shape[0]))


# ---------------------------------------------------------------------------
# logistic regression fits


def _logistic_problem(features, labels, l2_penalty, constraints=None, equality=None) -> SmoothProblem:
    """The logistic loss with l2_penalty as a ``SmoothProblem`` divided by n, started at theta = 0.

    The one place the loss is bound to X. Each new point costs one product
    X @ theta and one exp per row: the margins m = y * (X @ theta) and
    e = e^-|m| are kept for the point, with the value, which a constraint
    row built on the loss asks for up to three times at one point. From
    them the gradient weight is sigma(-m) = where(m <= 0, 1, e) / (1 + e),
    and the Hessian weight sigma(m) sigma(-m) = e / (1 + e)^2, which keeps
    its digits where 1 - sigma would round to zero. The value and gradient
    are :func:`logistic_loss` and :func:`logistic_loss_gradient` times
    1 / n, bit for bit. The Hessian X' diag(e / (1 + e)^2) X / n +
    2 l2_penalty / n I is written into one (d, d) buffer that every call
    reuses. Every product is numpy's, the BLAS pool that
    :func:`~fairclf.solvers.minimize_smooth` runs on. The mean scale makes
    the stationarity tolerance independent of the row count; reported
    objectives are totals.
    """
    n, d = features.shape
    inv_n = 1.0 / n

    @_at_last_point
    def point(theta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        margins, e = _margins(theta, features, labels)
        return _loss_from(theta, margins, e, l2_penalty) * inv_n, margins, e

    buffer = np.zeros((d, d))

    def gradient(theta: np.ndarray) -> np.ndarray:
        _, margins, e = point(theta)
        return _gradient_from(theta, margins, e, features, labels, l2_penalty) * inv_n

    def hessian(theta: np.ndarray) -> np.ndarray:
        _, _, e = point(theta)
        buffer.fill(0.0)
        h = weighted_gram(features, e / ((1.0 + e) * (1.0 + e)), buffer)
        if l2_penalty:
            h[np.diag_indices(d)] += 2.0 * l2_penalty
        h *= inv_n
        return h

    return SmoothProblem(
        dimension=d,
        objective=lambda theta: point(theta)[0],
        gradient=gradient,
        hessian=hessian,
        equality=equality,
        linear_constraints=constraints,
        initial_point=np.zeros(d),
    )


@dataclass(frozen=True)
class _ThetaStar:
    """The unconstrained optimum theta* of one training set and ``l2_penalty``.

    ``ridge`` is the penalty theta* minimizes, auto-ridge included, ``loss``
    is L* = L(theta*) at that ridge and ``result`` the solve that found it.
    ``train`` is a weak reference, so the record keeps no dataset alive.
    """

    train: weakref.ref
    l2_penalty: float
    theta: np.ndarray
    ridge: float
    loss: float
    result: SolverResult


# the theta* of the last fit_logreg with the default settings; only
# _theta_star reads it
_theta_star_record: _ThetaStar | None = None


def fit_logreg(train: Dataset, spec: FitSpec, settings: SolverSettings | None = None) -> LinearModel:
    """Unconstrained logistic regression (mode ``unconstrained``).

    Perfectly separable data makes the unpenalized problem unbounded; that
    case is detected by the optimum collapsing to (numerically) zero loss and
    resolved by refitting with a tiny ridge, recorded in ``training_meta``.

    Every call solves. A fit with the default settings (``settings`` None)
    also replaces the one theta* record: the training set, by weak
    reference, ``l2_penalty``, theta*, its ridge, L* and the solve's result.
    The three constrained logistic fits read theta* from that record when it
    is of their ``Dataset`` object and ``l2_penalty``, and otherwise call
    this function first. A ``Dataset`` is frozen and its arrays are
    read-only, so the same object means the same rows.
    """
    global _theta_star_record
    _check_inputs(train, spec, "fit_logreg")
    writes_record = settings is None
    settings = settings or _default_settings()
    ridge = spec.l2_penalty
    result = minimize_smooth(_logistic_problem(train.features, train.labels, ridge), settings)
    auto_ridge = False
    if spec.l2_penalty == 0.0 and result.objective_value < _SEPARABLE_LOSS:
        ridge = _AUTO_RIDGE
        result = minimize_smooth(_logistic_problem(train.features, train.labels, ridge), settings)
        auto_ridge = True
    loss = logistic_loss(result.point, train.features, train.labels, ridge)
    model = LinearModel(result.point, _meta("unconstrained", result, l2_penalty=ridge, auto_ridge=auto_ridge, objective=loss))
    if writes_record:
        # the result's point is the model's read-only theta, so no array in the record can be written
        _theta_star_record = _ThetaStar(weakref.ref(train), spec.l2_penalty, model.theta, ridge, loss, replace(result, point=model.theta))
    return model


def fit_logreg_fair(train: Dataset, spec: FitSpec, settings: SolverSettings | None = None) -> LinearModel:
    """Logistic regression under |covariance_k| <= c_k (mode ``fairness_constrained``).

    A c_k > 0 column gives the inequality rows w_k . theta <= c_k and
    -w_k . theta <= c_k; a c_k = 0 column gives the equality w_k . theta = 0,
    which the solver eliminates exactly, so such a covariance is zero to
    rounding. With every c_k = 0 the fit is one damped Newton run on the
    null space of W, with the loss Hessian X' diag(s(1 - s)) X / n +
    2 l2_penalty / n I projected onto it; otherwise each augmented-Lagrangian
    subproblem adds rho A_S' A_S for the active covariance rows S.

    The solve starts at the unconstrained optimum theta*, read from the
    theta* record that :func:`fit_logreg` writes. If the record is of
    another training set or ``l2_penalty``, theta* is fitted first, at the
    cost of one unconstrained fit. theta* always comes from a fit with the
    default settings, so the result depends only on (train, spec, settings).
    Where theta* meets every row it is the optimum, and the fit certifies it
    without a step. On separable data theta* is the auto-ridge refit's, far
    from every constrained optimum; when its ridge is not ``l2_penalty``,
    the solve starts at theta = 0 instead.
    """
    _check_inputs(train, spec, "fit_logreg_fair")
    settings = settings or _default_settings()
    c = spec.thresholds_for(train.n_sensitive)
    w = covariance_vectors(train)
    (a, b), e = _covariance_split(w, c)
    rows, equality = (_interleave(a, -a), np.repeat(b, 2)), (e, np.zeros(e.shape[0]))
    problem = _logistic_problem(train.features, train.labels, spec.l2_penalty, rows, equality)
    star = _theta_star(train, spec.l2_penalty)
    if star.ridge == spec.l2_penalty:
        problem = replace(problem, initial_point=star.theta)
    result = minimize_smooth(problem, settings)
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

    The objective is linear, so its Hessian is zero.

    ``rows`` are the linear rows (A, b), starting with :func:`_epigraph_rows`
    of W. Warm-started at the supplied theta (the unconstrained optimum,
    which is feasible for the loss budgets) with the epigraph variables
    strictly above the initial absolute covariances.
    """
    d = theta_start.size
    n_k = w.shape[0]
    grad_obj = np.concatenate([np.zeros(d), np.ones(n_k)])
    zero = np.zeros((d + n_k, d + n_k))
    start = np.concatenate([theta_start, np.abs(w @ theta_start) + 1e-6])
    return SmoothProblem(
        dimension=d + n_k,
        objective=lambda v: float(grad_obj @ v),
        gradient=lambda v: grad_obj,
        hessian=lambda v: zero,
        linear_constraints=rows,
        convex_constraints=blocks,
        initial_point=start,
    )


def _theta_star(train: Dataset, l2_penalty: float) -> _ThetaStar:
    """The theta* record of ``train`` and ``l2_penalty``; on a miss, :func:`fit_logreg` writes it first."""
    record = _theta_star_record
    if record is None or record.train() is not train or record.l2_penalty != l2_penalty:
        fit_logreg(train, FitSpec(mode="unconstrained", l2_penalty=l2_penalty))
    return _theta_star_record


def _loss_budget_model(train: Dataset, w: np.ndarray, theta: np.ndarray, ridge: float) -> dict:
    """The report of a loss-budget fit at theta: ``l2_penalty``, ``loss``, ``covariance`` W theta and ``objective`` sum |W theta|."""
    covariance = w @ theta
    return {
        "l2_penalty": ridge,
        "loss": logistic_loss(theta, train.features, train.labels, ridge),
        "covariance": covariance.tolist(),
        "objective": float(np.sum(np.abs(covariance))),
    }


def _budget_row(loss: SmoothProblem, scale: float, n_epigraph: int) -> ConstraintBlock:
    """The row scale * loss(theta) - 1 <= 0 over (theta, t), from the oracle ``loss`` of theta.

    Its value, gradient and Hessian are the oracle's times ``scale``, and
    zero in the ``n_epigraph`` variables t. The oracle is read at theta
    alone, so a line-search trial that moves only t reuses its X theta.
    """
    d, zeros, pad = loss.dimension, np.zeros(n_epigraph), ((0, n_epigraph), (0, n_epigraph))
    return ConstraintBlock(
        value=lambda v: np.array([loss.objective(v[:d]) * scale - 1.0]),
        jacobian=lambda v: np.concatenate([loss.gradient(v[:d]) * scale, zeros])[None, :],
        size=1,
        hessian=lambda v, t: np.pad(loss.hessian(v[:d]) * (t[0] * scale), pad),
    )


def fit_logreg_fairness_max(train: Dataset, spec: FitSpec, settings: SolverSettings | None = None) -> LinearModel:
    """Minimize summed |covariance| under a total-loss budget (mode ``accuracy_constrained``).

    theta*, its ridge and L* = L(theta*) are read from :func:`fit_logreg`'s
    theta* record, which is fitted first when it is of another training set
    or ``l2_penalty``. The budget is L(theta) <= (1 + gamma) L*, with no
    headroom, so a converged fit certifies that budget. The absolute values
    are handled by an epigraph reformulation, keeping the problem smooth. The budget row L(theta) / B - 1 <= 0, with
    B = (1 + gamma) L*, reads the logistic oracle that :func:`fit_logreg`
    minimizes (:func:`_logistic_problem`): its value, gradient and Hessian
    scaled by n / B, and zero in the epigraph variables.

    At gamma = 0 the result is theta* itself, without a solve, marked
    ``closed_form``. This is exact: the feasible points are the minimizers
    of L. The log-loss is strictly convex in the scores X theta, so all
    minimizers share X theta, and the covariances W theta depend on theta
    only through X theta. Every feasible point has the same objective, so
    theta* is optimal. The status, KKT residuals and iterations are the
    record's, those of the unconstrained fit.
    """
    _check_inputs(train, spec, "fit_logreg_fairness_max")
    settings = settings or _default_settings(feasibility_tolerance=3e-9)
    star = _theta_star(train, spec.l2_penalty)
    budget = max((1.0 + spec.gamma) * star.loss, 1e-12)
    features, labels = train.features, train.labels
    w = covariance_vectors(train)
    d = train.n_features

    # once the budget admits the all-zero boundary, that boundary is an exact
    # optimum (its covariance is identically zero in every column), so the
    # numerical solve is skipped; every row then sits on the positive side of
    # the tie and both groups share the same positive rate
    zero_fits = logistic_loss(np.zeros(d), features, labels, star.ridge) <= budget
    closed_form = zero_fits or spec.gamma == 0.0
    if zero_fits:
        theta = np.zeros(d)
        result = SolverResult(theta, 0.0, "converged", KKTResiduals(0.0, 0.0, 0.0), 0)
    elif spec.gamma == 0.0:
        theta, result = star.theta, star.result
    else:
        # the row is L / B - 1, so the feasibility tolerance bounds the
        # relative exceedance of the budget
        block = _budget_row(_logistic_problem(features, labels, star.ridge), train.n / budget, w.shape[0])
        problem = _covariance_objective_problem(w, _epigraph_rows(w), [block], theta_start=star.theta)
        result = minimize_smooth(problem, settings)
        theta = result.point[:d]
    # the report's objective, sum |W theta|, replaces the result's
    meta = _meta(
        "accuracy_constrained",
        result,
        gamma=spec.gamma,
        loss_star=star.loss,
        closed_form=closed_form,
        **_loss_budget_model(train, w, theta, star.ridge),
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


# rows gathered per chunk of the fine-grained constraint matrix: the chunk's
# buffer is the only temporary copy of X
_ROW_CHUNK = 1024


def _margin_rows(w, features, rows, signs, margins) -> tuple[np.ndarray, np.ndarray]:
    """(A, b): the epigraph rows of W, then s_i x_i . theta >= m_i for each listed row i.

    Each margin row is -s_i x_i / ||x_i|| . theta <= -m_i / ||x_i||, divided
    by the norm as :func:`_unit_rows` divides (up to the last bit, as x_i
    is multiplied by -s_i / ||x_i||). The matrix is allocated once; a chunk
    of rows at a time is gathered into one contiguous buffer, scaled there
    and copied into its feature block.
    """
    epigraph, _ = _epigraph_rows(w)
    top = epigraph.shape[0]
    d = features.shape[1]
    a = np.zeros((top + rows.size, epigraph.shape[1]))
    b = np.zeros(top + rows.size)
    a[:top] = epigraph
    buffer = np.empty((min(_ROW_CHUNK, rows.size), d))
    for start in range(0, rows.size, _ROW_CHUNK):
        stop = min(start + _ROW_CHUNK, rows.size)
        block = buffer[: stop - start]
        np.take(features, rows[start:stop], axis=0, out=block)
        norms = np.sqrt(np.einsum("ij,ij->i", block, block))
        block *= (-signs[start:stop] / norms)[:, None]
        a[top + start : top + stop, :d] = block
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
    ``converged`` status certifies them. ``training_meta`` holds the summed
    |covariance| as ``objective`` and the logistic loss at theta, with the
    baseline's ``l2_penalty``, as ``loss``.

    theta*, which gives the per-row budgets and the start, is read from
    :func:`fit_logreg`'s theta* record, and fitted first when the record is
    of another training set or ``l2_penalty``.
    """
    _check_inputs(train, spec, "fit_logreg_fine_grained")
    settings = settings or _default_settings(feasibility_tolerance=1e-10)
    gammas = np.asarray(spec.per_point_gammas, dtype=float)
    if gammas.shape != (train.n,):
        raise ValueError("per_point_gammas must have one entry per training row")
    index = spec.protected_index_set
    index = np.asarray(list(index) if isinstance(index, (set, frozenset)) else index)
    # a boolean mask or a fractional index would be misread by a cast to int
    if index.dtype.kind not in "iuf" or np.any(index != np.floor(index)):
        raise ValueError("protected_index_set must list integer row indices, not a boolean mask")
    if index.size and (index.min() < 0 or index.max() >= train.n):
        raise ValueError("protected_index_set out of range")
    index = index.astype(int)
    # a row mask, not np.unique/np.setdiff1d, which import numpy.ma on
    # their first call; the rows come out sorted
    is_protected = np.zeros(train.n, dtype=bool)
    is_protected[index] = True
    protected = np.flatnonzero(is_protected)

    star = _theta_star(train, spec.l2_penalty)
    features, labels = train.features, train.labels
    loss_star_i = per_point_logistic_loss(star.theta, features, labels)

    # the protected rows, then the budgeted rows, each as s_i x_i . theta >= m_i
    budgeted = np.flatnonzero(np.isfinite(gammas) & ~is_protected)
    rows = np.concatenate([protected, budgeted])
    signs = np.concatenate([np.ones(protected.size), labels[budgeted]])
    bounds = (1.0 + gammas[budgeted]) * loss_star_i[budgeted]
    margins = np.concatenate([np.full(protected.size, _NOFLIP_MARGIN), _margin_bound(bounds)])

    w = covariance_vectors(train)
    constraints = _margin_rows(w, features, rows, signs, margins)
    problem = _covariance_objective_problem(w, constraints, [], theta_start=star.theta)
    result = minimize_smooth(problem, settings)
    theta = result.point[: train.n_features]
    meta = _meta("fine_grained", result, n_protected=int(protected.size), **_loss_budget_model(train, w, theta, star.ridge))
    return LinearModel(theta=theta, training_meta=meta)


# ---------------------------------------------------------------------------
# SVM fits


def _exact_hinge(features, labels, w, c, svm_cost, settings) -> tuple[np.ndarray, SolverResult]:
    """theta of the exact-hinge program with its covariance bounds, solved as its Lagrangian dual.

    The program, on mean scale, is: minimize (||theta||^2 + C sum xi) / n
    over (theta, xi) with xi >= 0, xi_i >= 1 - y_i x_i . theta, A theta <= b
    (the c_k > 0 rows) and E theta = 0 (the c_k = 0 rows). With N an
    orthonormal basis of the null space of E, theta = N phi, and its dual in
    lambda = (alpha, nu) is

        minimize 0.5 lambda' V V' lambda - sum(alpha) + b . nu
        over 0 <= alpha <= C / n and nu >= 0,

    with V = sqrt(n / 2) [diag(y) X; -A] N and theta = sqrt(n / 2) N V' lambda.
    No dual variable is free, so Q is given by its factor alone,
    ``q_factor=(0, V)``: the (n + m) x (n + m) matrix V V' is never formed,
    and every Newton step is a Woodbury solve through an r x r core, r <= d.
    """
    n = features.shape[0]
    (cov_a, cov_b), cov_e = _covariance_split(w, c)
    cov_a, cov_b = _interleave(cov_a, -cov_a), np.repeat(cov_b, 2)
    *_, basis = _null_space_svd(cov_e)
    scale = math.sqrt(n / 2.0)
    v = (np.vstack([labels[:, None] * features, -cov_a]) @ basis) * scale
    m = cov_b.size
    problem = QuadraticProblem(
        q_factor=(0.0, v),
        q_vector=np.concatenate([np.full(n, -1.0), cov_b]),
        box=(np.zeros(n + m), np.concatenate([np.full(n, svm_cost / n), np.full(m, np.inf)])),
    )
    result = solve_qp(problem, settings)
    return scale * (basis @ (v.T @ result.point)), result


def fit_linear_svm_fair(train: Dataset, spec: FitSpec, settings: SolverSettings | None = None) -> LinearModel:
    """Linear soft-margin SVM on the hinge loss under covariance bounds.

    Solves ||theta||^2 + C * sum xi under the margin rows
    y_i x_i . theta >= 1 - xi_i, xi >= 0, and the covariance bounds (a
    c_k > 0 column as two inequalities, a c_k = 0 column as an equality),
    through its Lagrangian dual (see :func:`_exact_hinge`). ``status``,
    ``iterations`` and ``kkt`` in ``training_meta`` are those of the dual;
    ``objective`` is the hinge objective at theta, and ``total_slack`` the
    sum of max(0, 1 - y m) there.
    """
    _check_inputs(train, spec, "fit_linear_svm_fair")
    c = spec.thresholds_for(train.n_sensitive)
    settings = settings or _default_settings()
    features, labels = train.features, train.labels
    w = covariance_vectors(train)
    theta, result = _exact_hinge(features, labels, w, c, spec.svm_cost, settings)
    slack = np.maximum(0.0, 1.0 - labels * (features @ theta))
    meta = _meta(
        spec.mode,
        result,
        classifier="linear_svm",
        svm_cost=spec.svm_cost,
        covariance_thresholds=[v if math.isfinite(v) else None for v in c],
        covariance=(w @ theta).tolist(),
        objective=float(theta @ theta + spec.svm_cost * slack.sum()),
        total_slack=float(slack.sum()),
    )
    return LinearModel(theta=theta, training_meta=meta)


def fit_kernel_svm_fair(train: Dataset, spec: FitSpec, settings: SolverSettings | None = None) -> KernelModel:
    """Kernel soft-margin SVM dual under covariance bounds on the kernel distances.

    The dual is: minimize 0.5 a'Qa - sum(a) / n over 0 <= a <= C with
    sum(a * y) = 0, plus per-column bounds |cov(z_k, g(x_i))| <= c_k where g
    is the kernel expansion of the signed distance over the training rows.
    The 1/n puts the objective on mean scale, so the stationarity tolerance
    does not depend on the training size. With a_k = cov_k / ||cov_k|| and
    b_k = c_k / ||cov_k||, a c_k = 0 bound is the equality a_k . a = 0 and a
    c_k > 0 bound the equality a_k . a - s_k = 0 on a slack variable s_k in
    [-b_k, b_k] with no curvature, which only a c_k > 0 fit has.

    Q is posed on a low-rank factor of the Gram, never on the Gram itself:
    Q = diag(1 / (C n)) + V V' with V = diag(y) L / sqrt(n), where L L' is a
    pivoted incomplete Cholesky of the Gram K built from kernel rows
    (:func:`_gram_factor`), stopped once its residual trace is at most 1e-12
    of the trace of K (``_GRAM_FACTOR_TOLERANCE``). So the problem solved,
    and certified as ``converged``, is the dual with L L' in place of K,
    which is within that residual of yy'(K + I/C)/n. Each interior-point
    step goes through the factor by Woodbury, in O(n r^2), and no n x n
    array is made. The covariance rows and prediction use the exact kernel,
    through products formed over blocks of rows. The model keeps the rows
    with alpha > 1e-8 C, the support vectors; ``covariance`` and
    ``objective`` in its ``training_meta`` are those of the stored
    coefficients, the objective on the factor.
    """
    _check_inputs(train, spec, "fit_kernel_svm_fair")
    c = spec.thresholds_for(train.n_sensitive)
    settings = settings or _default_settings(feasibility_tolerance=1e-10)
    features, labels = train.features, train.labels
    n = train.n
    kernel = resolve_kernel(spec.kernel, features)
    delta = 1.0 / (spec.svm_cost * n)
    v = _gram_factor(kernel, features)
    v *= (labels / math.sqrt(n))[:, None]
    q_vector = -np.ones(n) / n

    centered = train.sensitive - train.sensitive.mean(axis=0, keepdims=True)
    # row k: cov_k = row . alpha
    cov_rows = (_kernel_product(kernel, features, features, centered) / n).T * labels[None, :]

    # sum(alpha * y) = 0 and the c_k = 0 bounds are equalities; a c_k > 0
    # bound is a_k . alpha - s_k = 0 on a slack s_k in [-b_k, b_k]. Without
    # slacks V goes unpadded: a padded copy changes its memory layout, and
    # the iterates' last bits with it
    (a, b), cov_e = _covariance_split(cov_rows, c)
    m = b.size
    equality = np.vstack([labels / math.sqrt(n), cov_e])
    q_factor = (delta, v)
    if m:
        equality = np.block([[equality, np.zeros((equality.shape[0], m))], [a, -np.eye(m)]])
        q_factor = (np.concatenate([np.full(n, delta), np.zeros(m)]), np.vstack([v, np.zeros((m, v.shape[1]))]))
    problem = QuadraticProblem(
        q_factor=q_factor,
        q_vector=np.concatenate([q_vector, np.zeros(m)]),
        box=(np.concatenate([np.zeros(n), -b]), np.concatenate([np.full(n, float(spec.svm_cost)), b])),
        equality=(equality, np.zeros(equality.shape[0])),
    )
    result = solve_qp(problem, settings)
    alphas = np.clip(result.point[:n], 0.0, spec.svm_cost)
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
    projected = v[support].T @ alphas
    dual_objective = float(0.5 * (delta * (alphas @ alphas) + projected @ projected) + q_vector[support] @ alphas) * n
    meta = _meta(
        spec.mode,
        result,
        classifier="kernel_svm",
        svm_cost=spec.svm_cost,
        kernel_kind=kernel.kind,
        rbf_gamma=kernel.rbf_gamma,
        covariance_thresholds=[bound if math.isfinite(bound) else None for bound in c],
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


def fit(train: Dataset, classifier: str, spec: FitSpec, settings: SolverSettings | None = None):
    """Fit ``classifier`` (logreg, linear_svm or kernel_svm) in ``spec.mode``.

    Calls the public fit function that :data:`CLASSIFIERS` names for the
    pair, looked up by name at call time so that a rebinding of that name is
    the one called.
    """
    if classifier not in CLASSIFIERS:
        raise ValueError(f"unknown classifier {classifier!r}")
    fits = CLASSIFIERS[classifier].fits
    if spec.mode not in fits:
        raise _unsupported(classifier, fits)
    return globals()[fits[spec.mode]](train, spec, settings)


def protected_rows(baseline: LinearModel | KernelModel, train: Dataset, group: int) -> np.ndarray:
    """Rows of ``group`` (first sensitive column) that ``baseline`` classifies as positive."""
    positive = sign_rule(decision_values(baseline, train.features)) == 1
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
        return _kernel_product(model.kernel, features, model.support_points, model.alphas * model.support_labels)
    raise TypeError("model must be LinearModel or KernelModel")


def predict(model: LinearModel | KernelModel, features: np.ndarray) -> np.ndarray:
    """±1 predictions by :func:`~fairclf.metrics.sign_rule`; a distance of exactly zero maps to +1."""
    return sign_rule(decision_values(model, features))


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
