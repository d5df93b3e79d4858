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

import copy
import logging
import math
import weakref
from dataclasses import dataclass, field, replace
from typing import Literal, Sequence

import numpy as np

from .data import Dataset
from .metrics import sign_rule
from .solvers import (
    KKTResiduals,
    QuadraticProblem,
    SmoothProblem,
    SolverResult,
    SolverSettings,
    _null_space_svd,
    kkt_residuals,
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
        """The bound c_k of each of ``n_sensitive`` columns: the spec's thresholds, or inf (no bound) without them.

        One value serves every column; otherwise there must be one per
        column, in a flat list.
        """
        given = np.asarray(np.inf if self.covariance_thresholds is None else self.covariance_thresholds, dtype=float)
        if given.ndim > 1 or given.size not in (1, n_sensitive):
            raise ValueError(
                f"{given.size} covariance thresholds given (shape {given.shape}) for {n_sensitive} sensitive columns: "
                "give one value, or a flat list of one per column"
            )
        c = np.broadcast_to(given, (n_sensitive,)).copy()
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


def _bounded(c: np.ndarray) -> np.ndarray:
    """The columns whose bound |w_k . theta| <= c_k is an inequality: finite c_k > 0."""
    return (c > 0) & np.isfinite(c)


def _covariance_split(w: np.ndarray, c: np.ndarray, sides: np.ndarray | None = None) -> tuple[tuple, tuple]:
    """|W theta| <= c as ((A, b), (E, f)) in unit rows: A x <= b for the finite c_k > 0, E x = f for the c_k = 0.

    A holds the one side w_k . theta <= c_k of each bound; a fit that poses
    both sides takes the pairs ``_interleave(A, -A)`` and ``np.repeat(b, 2)``,
    bitwise the pairs divided by their own norms. A row of zeros holds at
    every point (a constant sensitive column gives one), so a c_k = 0 row of
    zeros is left out; in E it would make the equality system singular.

    ``sides``, one entry per column, pins each bounded column k with
    sides[k] = s_k = +-1 to the face s_k w_k . theta = c_k: its unit row,
    times s_k, leaves A and follows the c_k = 0 rows in E, in column order,
    with c_k over the norm in f. Without pins f is zero.
    """
    zero = (c == 0) & np.any(w != 0, axis=1)
    e, f = _unit_rows(w[zero], np.zeros(np.count_nonzero(zero)))
    pinned = np.zeros(c.shape, dtype=bool) if sides is None else sides != 0
    free = _bounded(c) & ~pinned
    if pinned.any():
        face, bound = _unit_rows(w[pinned], c[pinned])
        e, f = np.vstack([e, face * sides[pinned, None]]), np.concatenate([f, bound])
    return _unit_rows(w[free], c[free]), (e, f)


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
    """The unconstrained optimum theta* of one training set and ``l2_penalty``, and its c = 0 fit.

    ``ridge`` is the penalty theta* minimizes, auto-ridge included, ``loss``
    is L* = L(theta*) at that ridge and ``result`` the solve that found it.
    ``train`` is a weak reference, so the record keeps no dataset alive.
    ``zero_fit`` is None, or the pair (key, result) of the last
    :func:`_zero_covariance_fit` solved from this theta*: key is the
    solve's (kkt_tolerance, max_iterations), and result has a read-only
    point and its own multipliers.
    """

    train: weakref.ref
    l2_penalty: float
    theta: np.ndarray
    ridge: float
    loss: float
    result: SolverResult
    zero_fit: tuple | None = None


# the theta* of the last fit_logreg with the default settings, with the c = 0
# fit solved from it; only _theta_star and _zero_covariance_fit read it, and
# only _keep writes it
_theta_star_record: _ThetaStar | None = None


def _keep(record: _ThetaStar) -> None:
    """Make ``record`` the theta* record."""
    global _theta_star_record
    _theta_star_record = record


def fit_logreg(train: Dataset, spec: FitSpec, settings: SolverSettings | None = None) -> LinearModel:
    """Unconstrained logistic regression (mode ``unconstrained``).

    Perfectly separable data makes the unpenalized problem unbounded; that
    case is detected by the optimum collapsing to (numerically) zero loss and
    resolved by refitting with a tiny ridge, recorded in ``training_meta``.

    Every call solves. A fit with the default settings (``settings`` None)
    also replaces the one theta* record: the training set, by weak
    reference, ``l2_penalty``, theta*, its ridge, L* and the solve's result.
    The new record holds no c = 0 fit; the first constrained fit that needs
    one adds it (:func:`fit_logreg_fair`). The three constrained logistic
    fits read theta* from that record when it is of their ``Dataset`` object
    and ``l2_penalty``, and otherwise call this function first. A
    ``Dataset`` is frozen and its arrays are read-only, so the same object
    means the same rows.
    """
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
        _keep(_ThetaStar(weakref.ref(train), spec.l2_penalty, model.theta, ridge, loss, replace(result, point=model.theta)))
    return model


def fit_logreg_fair(train: Dataset, spec: FitSpec, settings: SolverSettings | None = None) -> LinearModel:
    """Logistic regression under |covariance_k| <= c_k (mode ``fairness_constrained``).

    The problem stated, solved and certified: minimize the logistic loss
    with ``l2_penalty`` subject to the inequality rows w_k . theta <= c_k
    and -w_k . theta <= c_k for each finite c_k > 0, and the equality
    w_k . theta = 0 for each c_k = 0, which the solver eliminates exactly,
    so such a covariance is zero to rounding. The rows are unit rows
    (:func:`_covariance_split`).

    The solve starts at the unconstrained optimum theta*, read from the
    theta* record that :func:`fit_logreg` writes. If the record is of
    another training set or ``l2_penalty``, theta* is fitted first, at the
    cost of one unconstrained fit. theta* always comes from a fit with the
    default settings, so the result depends only on (train, spec, settings).
    Where theta* meets every row it is the optimum, and the fit certifies it
    without a step. On separable data theta* is the auto-ridge refit's, far
    from every constrained optimum; when its ridge is not ``l2_penalty``,
    the solve starts at theta = 0 instead.

    With every threshold 0 and theta*'s ridge ``l2_penalty``, the fit is
    the c = 0 fit that :func:`fit_logreg_fairness_max` also opens with, and
    :func:`_zero_covariance_fit` poses and solves it once per theta* record
    and solver settings; a later call reads the solve from the record, and
    returns the same theta and ``training_meta``.

    A bound that theta* breaks, on its unit row by more than the
    feasibility tolerance, is pinned to the face it breaks: s_k w_k . theta
    = c_k with s_k the sign of w_k . theta*, an equality that the solver
    eliminates like the c_k = 0 rows (Nocedal & Wright, Numerical
    Optimization, sec. 15.3 and ch. 16). With one bound, the optimum of a
    convex problem lies on the face its unconstrained optimum breaks. Every
    other finite bound stays a +/- row pair. Without such rows the solve is
    one damped Newton run on the null space of the equalities, with the
    loss Hessian X' diag(s(1 - s)) X / n + 2 l2_penalty / n I projected
    onto it; otherwise each augmented-Lagrangian subproblem adds
    rho A_S' A_S for the active covariance rows S. A pinned face is right
    when its equality multiplier mu_k, in the convention grad L + E' mu = 0,
    is >= 0. A column whose mu_k < 0 leaves the pinned set, as does every
    column after a pinned solve that ends ``infeasible``, and the fit solves
    again, so there are at most K + 1 solves, the last possible one with no
    pins. ``max_iterations`` bounds all of them together, and
    ``iterations`` sums them.

    When the last solve pinned a face, its ``status`` and ``kkt`` are those
    of :func:`~fairclf.solvers.kkt_residuals` on the problem stated above,
    with the multiplier mu_k on the pinned side's row and zero on the
    other, so ``converged`` certifies the stated problem. One DEBUG record
    on this module's logger names the pinned columns with their sides, the
    number of solves and the columns unpinned.
    """
    _check_inputs(train, spec, "fit_logreg_fair")
    settings = settings or _default_settings()
    c = spec.thresholds_for(train.n_sensitive)
    w = covariance_vectors(train)
    star = _theta_star(train, spec.l2_penalty)
    stated = _covariance_split(w, c)
    # the faces theta* breaks, read on the unit rows the solver is given
    (a, b), _ = stated
    cov_star = a @ star.theta
    sides = np.zeros(c.size)
    sides[_bounded(c)] = np.where(np.abs(cov_star) - b > settings.feas_tol, np.sign(cov_star), 0.0)
    pinned_first = sides.copy()
    from_star = star.ridge == spec.l2_penalty

    def problem(rows):
        (a, b), equality = rows
        posed = _logistic_problem(train.features, train.labels, spec.l2_penalty, (_interleave(a, -a), np.repeat(b, 2)), equality)
        return replace(posed, initial_point=star.theta) if from_star else posed

    used = solves = 0
    while True:
        if from_star and not c.any():  # nothing to pin: the c = 0 fit
            result = _zero_covariance_fit(train, w, star, settings)
        else:
            rows = _covariance_split(w, c, sides) if sides.any() else stated
            result = minimize_smooth(problem(rows), replace(settings, max_iterations=settings.max_iterations - used))
        used += result.iterations
        solves += 1
        faces = np.flatnonzero(sides)
        if not faces.size:
            break
        mu = result.multipliers["equality"][-faces.size :]
        leaving = faces if result.status == "infeasible" else faces[mu < 0]
        if not leaving.size or used >= settings.max_iterations:
            break
        sides[leaving] = 0.0
    if faces.size:
        result = _certified_on_pairs(problem(stated), result, c, sides, settings)
    names = train.sensitive_names
    _log.debug(
        "fairness fit pinned=[%s] solves=%d unpinned=[%s]",
        ", ".join(f"{names[k]}:{int(pinned_first[k]):+d}" for k in np.flatnonzero(pinned_first)),
        solves,
        ", ".join(names[k] for k in np.flatnonzero(pinned_first != sides)),
    )
    meta = _meta(
        "fairness_constrained",
        replace(result, iterations=used),
        l2_penalty=spec.l2_penalty,
        covariance_thresholds=c.tolist(),
        covariance=(w @ result.point).tolist(),
        objective=logistic_loss(result.point, train.features, train.labels, spec.l2_penalty),
    )
    return LinearModel(theta=result.point, training_meta=meta)


def _certified_on_pairs(
    stated: SmoothProblem, result: SolverResult, c: np.ndarray, sides: np.ndarray, settings: SolverSettings
) -> SolverResult:
    """``result`` of a solve with the faces ``sides`` pinned, with the status and residuals of the ``stated`` +/- pair problem.

    Each pinned face's multiplier mu_k goes to the row of its side, and zero
    to the other; a negative mu_k is cut to zero, so it shows in the
    stationarity. The c_k = 0 rows keep theirs, and the free pairs theirs.
    """
    mu = result.multipliers["equality"]
    zero_rows = mu.size - np.count_nonzero(sides)
    faces = np.flatnonzero(sides)
    pairs = np.zeros((c.size, 2))
    free = _bounded(c) & (sides == 0)
    if free.any():
        pairs[free] = result.multipliers["inequality"][0].reshape(-1, 2)
    pairs[faces, (sides[faces] < 0).astype(int)] = np.maximum(mu[zero_rows:], 0.0)
    kkt = kkt_residuals(stated, result.point, {"inequality": [pairs[_bounded(c)].ravel()], "equality": mu[:zero_rows]})
    return replace(result, status="converged" if kkt.within(settings) else "max_iter", kkt=kkt)


def _covariance_objective_problem(w: np.ndarray, rows: tuple[np.ndarray, np.ndarray], theta_start: np.ndarray) -> SmoothProblem:
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
        initial_point=start,
    )


def _theta_star(train: Dataset, l2_penalty: float) -> _ThetaStar:
    """The theta* record of ``train`` and ``l2_penalty``; on a miss, :func:`fit_logreg` writes it first."""
    record = _theta_star_record
    if record is None or record.train() is not train or record.l2_penalty != l2_penalty:
        fit_logreg(train, FitSpec(mode="unconstrained", l2_penalty=l2_penalty))
    return _theta_star_record


def _zero_covariance_fit(train: Dataset, w: np.ndarray, star: _ThetaStar, settings: SolverSettings) -> SolverResult:
    """The c = 0 fit of ``train``: the least loss at theta*'s ridge with W theta = 0, started at theta*.

    ``star`` is the current theta* record of ``train``. The rows W theta = 0
    are the unit equality rows of :func:`_covariance_split` at c = 0, which
    the solver eliminates. The first solve is kept in the record, keyed on
    the settings its path reads, ``kkt_tolerance`` and ``max_iterations``;
    a call with the same key reads it instead of solving, and logs one
    DEBUG record with its iterations. The feasibility tolerance decides
    only the status: the rows have f = 0, so the solver's particular point
    is 0 and never infeasible, and it sets the status from the residuals.
    A read sets it the same way with its own settings, so fits with
    another feasibility tolerance share the solve and match a fresh one.
    """
    key = (settings.kkt_tolerance, settings.max_iterations)
    if star.zero_fit is not None and star.zero_fit[0] == key:
        kept = star.zero_fit[1]
        _log.debug("c=0 fit read from the theta* record: iterations=%d", kept.iterations)
        return replace(kept, status="converged" if kept.kkt.within(settings) else "max_iter")
    _, rows = _covariance_split(w, np.zeros(w.shape[0]))
    result = minimize_smooth(replace(_logistic_problem(train.features, train.labels, star.ridge), equality=rows, initial_point=star.theta), settings)
    point = result.point.copy()
    point.setflags(write=False)
    _keep(replace(star, zero_fit=(key, replace(result, point=point, multipliers=copy.deepcopy(result.multipliers)))))
    return result


def _loss_budget_model(train: Dataset, w: np.ndarray, theta: np.ndarray, ridge: float) -> dict:
    """The report of a loss-budget fit at theta: ``l2_penalty``, ``loss``, ``covariance`` W theta and ``objective`` sum |W theta|."""
    covariance = w @ theta
    return {
        "l2_penalty": ridge,
        "loss": logistic_loss(theta, train.features, train.labels, ridge),
        "covariance": covariance.tolist(),
        "objective": float(np.sum(np.abs(covariance))),
    }


def _budget_face(loss: SmoothProblem, w, sides, unpinned, c: float, theta) -> tuple[SmoothProblem, float]:
    """The least ``loss`` on the face sum_P s_k w_k . theta + sum_U t_k = c, and the norm of the face's row.

    P are the columns with sides[k] = s_k != 0. Each column k in U
    (``unpinned``) has its own t_k, which the loss does not read (its
    Hessian is padded with zeros), with the +/- rows |w_k . theta| <= t_k
    of :func:`_epigraph_rows`. The face is posed as one unit row, and the
    solve starts at theta with t = |W_U theta|.
    """
    d, k = loss.dimension, np.count_nonzero(unpinned)
    row = np.concatenate([sides @ w, np.ones(k)])
    norm = float(np.linalg.norm(row))
    face = SmoothProblem(
        dimension=d + k,
        objective=lambda v: loss.objective(v[:d]),
        gradient=lambda v: np.concatenate([loss.gradient(v[:d]), np.zeros(k)]),
        hessian=lambda v: np.pad(loss.hessian(v[:d]), ((0, k), (0, k))),
        equality=(row / norm, c / norm),
        linear_constraints=_epigraph_rows(w[unpinned]),
        initial_point=np.concatenate([theta, np.abs(w[unpinned] @ theta)]),
    )
    return face, norm


def _certified_on_budget(train: Dataset, w, theta, ridge: float, budget: float, pairs, nu: float, settings) -> tuple[str, KKTResiduals]:
    """Status and residuals of (theta, |W theta|) on the stated problem: min sum t s.t. |W theta| <= t, L(theta) / B - 1 <= 0.

    The rows are the unit rows of :func:`_epigraph_rows` and the budget row
    L / B - 1, so the feasibility tolerance bounds the relative budget
    excess. At theta the budget row has the value and gradient of its
    linearization (grad L / B) . (x - theta) + L / B - 1, a linear row,
    so :func:`~fairclf.solvers.kkt_residuals` reads the residuals. ``pairs``
    are the (K, 2) multipliers of each column's two epigraph rows, and
    ``nu`` is the budget row's.
    """
    d, k = theta.size, w.shape[0]
    row = np.concatenate([logistic_loss_gradient(theta, train.features, train.labels, ridge) / budget, np.zeros(k)])
    value = logistic_loss(theta, train.features, train.labels, ridge) / budget - 1.0
    rows = (np.vstack([_epigraph_rows(w)[0], row]), np.append(np.zeros(2 * k), row[:d] @ theta - value))
    point = np.concatenate([theta, np.abs(w @ theta)])
    kkt = kkt_residuals(_covariance_objective_problem(w, rows, theta), point, {"inequality": [np.append(pairs.ravel(), nu)]})
    return ("converged" if kkt.within(settings) else "max_iter"), kkt


def fit_logreg_fairness_max(train: Dataset, spec: FitSpec, settings: SolverSettings | None = None) -> LinearModel:
    """Minimize summed |covariance| under a total-loss budget (mode ``accuracy_constrained``).

    The problem stated and certified: minimize sum_k |w_k . theta| subject
    to L(theta) <= B, with B = (1 + gamma) L* and L the logistic loss at
    theta*'s ridge. theta*, its ridge and L* = L(theta*) are read from
    :func:`fit_logreg`'s theta* record, which is fitted first when it is of
    another training set or ``l2_penalty``. There is no headroom, so a
    converged fit certifies the budget.

    Two closed forms come first. At gamma = 0 the result is theta* itself,
    without a solve: the feasible points are the minimizers of L, which
    all share X theta (the log-loss is strictly convex in the scores), and
    so W theta. Where the budget admits theta = 0, whose covariance is zero
    in every column, the result is theta = 0. Both are marked
    ``closed_form``; gamma = 0 reports the unconstrained fit's status,
    residuals and iterations.

    Otherwise the fit has two stages. Stage one is the c = 0 fit, the least
    loss with W theta = 0 at theta*'s ridge and from theta*
    (:func:`_zero_covariance_fit`), the fit :func:`fit_logreg_fair` makes at
    c = 0. It is read from the theta* record when an earlier fit of the
    record, of either mode, solved it with the same ``kkt_tolerance`` and
    ``max_iterations``; it still counts as one solve. If its loss is within
    the budget, the budget admits zero covariance, and every zero-covariance
    point inside it is optimal; the tie goes to the least loss, the c = 0
    fit itself, marked ``tied``, with the c = 0 solve's status and
    residuals.

    Stage two, where the budget binds: phi(c), the least loss at summed
    covariance c, is convex and decreasing up to theta*'s, and the optimum
    is at the root of phi(c) = B, whose slope is minus the budget's
    multiplier (Boyd & Vandenberghe, Convex Optimization, sec. 5.6). Newton
    runs from c = 0, c <- c + (phi(c) - B) / |phi'(c)|, so it stays left of
    the root and every iterate is over budget until the last. At c = 0 the
    slope is -max_k |mu_k| / ||w_k||, from the c = 0 fit's unit-row
    multipliers in the convention grad L + E' mu = 0. Each later phi(c) is
    one solve on the signed face sum_P s_k w_k . theta + sum_U t_k = c,
    warm-started at the last point, with s_k the sign of w_k . theta* and
    |w_k . theta| <= t_k for the columns in U; its slope is minus the face
    multiplier over the row's norm. With one column the face is one
    eliminated equality. The face is a relaxation, exact once no pinned
    sign is contradicted, so a column in P whose s_k w_k . theta falls below
    minus the feasibility tolerance (on its unit row) moves to U and the
    same c is solved again; with K columns at most K move (the path is
    piecewise by sign pattern; Rosset & Zhu, Ann. Statist. 35, 2007).
    Newton stops once |phi(c) - B| <= B feasibility_tolerance / 32.
    ``max_iterations`` bounds all the solves together and ``iterations``
    sums them, as in :func:`fit_logreg_fair`.

    The status and ``kkt`` of stage two are those of the stated problem at
    theta, with t = |W theta|, in the epigraph form with unit rows and the
    budget row L / B - 1 (:func:`_certified_on_budget`), so the
    feasibility tolerance bounds the relative budget excess. Its
    multipliers come from the last face solve's: the budget's is
    B ||row|| / (n mu), each pinned column's subgradient is s_k, and the
    columns in U keep their row multipliers. One DEBUG record on this
    module's logger names the stage, the number of solves, the Newton steps
    in c, the pinned columns with their signs and the columns unpinned.
    """
    _check_inputs(train, spec, "fit_logreg_fairness_max")
    settings = settings or _default_settings(feasibility_tolerance=3e-9)
    star = _theta_star(train, spec.l2_penalty)
    budget = max((1.0 + spec.gamma) * star.loss, 1e-12)
    features, labels, n, d = train.features, train.labels, train.n, train.n_features
    w = covariance_vectors(train)
    sides = pinned_first = np.zeros(w.shape[0])
    solves = steps = 0

    if logistic_loss(np.zeros(d), features, labels, star.ridge) <= budget:
        stage, theta = "zero", np.zeros(d)
        result = SolverResult(theta, 0.0, "converged", KKTResiduals(0.0, 0.0, 0.0), 0)
    elif spec.gamma == 0.0:
        stage, theta, result = "theta_star", star.theta, star.result
    else:
        result = _zero_covariance_fit(train, w, star, settings)
        theta, used, solves = result.point, result.iterations, 1
        stage = "tied" if logistic_loss(theta, features, labels, star.ridge) <= budget else "binding"
    if stage == "binding":
        loss = _logistic_problem(features, labels, star.ridge)
        nonzero = np.any(w != 0, axis=1)
        sides = np.sign(w @ star.theta)
        pinned_first = sides.copy()
        norms = np.array([np.linalg.norm(row) for row in w])
        # phi on the mean scale of the solves
        target = budget / n
        c, phi = 0.0, result.objective_value
        slope = float(np.max(np.abs(result.multipliers["equality"]) / norms[nonzero]))
        while slope > 0.0 and used < settings.max_iterations:
            step = (phi - target) / slope
            if c + step == c:
                break
            c += step
            steps += 1
            while True:
                # a column of U is one unpinned since theta*, or one with w_k . theta* = 0
                face, norm = _budget_face(loss, w, sides, nonzero & (sides == 0), c, theta)
                result = minimize_smooth(face, replace(settings, max_iterations=settings.max_iterations - used))
                used, solves, theta = used + result.iterations, solves + 1, result.point[:d]
                contradicted = sides * (w @ theta) < -settings.feas_tol * norms
                if not contradicted.any() or result.status == "infeasible" or used >= settings.max_iterations:
                    break
                sides[contradicted] = 0.0
            mu = float(result.multipliers["equality"][0])
            phi, slope = result.objective_value, mu / norm
            if abs(phi - target) <= settings.feas_tol * target / 32.0 or result.status == "infeasible":
                break
        if steps and mu > 0.0:
            # the stated problem's multipliers from the face's: its stationarity
            # times ||row|| / mu is sum_k u_k w_k + nu grad L / B, with u_k = s_k
            # on the faces (0 on a column of zeros) and, on the rows of U, their
            # multipliers times ||row|| / mu; rho_k (1 +- u_k) / 2 on the unit
            # epigraph rows, of norms rho_k, gives each column's t_k its 1
            pairs = 0.5 * np.hypot(norms, 1.0)[:, None] * (1.0 + np.outer(sides, [1.0, -1.0]))
            unpinned = nonzero & (sides == 0)
            if unpinned.any():
                pairs[unpinned] = result.multipliers["inequality"][0].reshape(-1, 2) * (norm / mu)
            nu = budget * norm / (n * mu)
            status, kkt = _certified_on_budget(train, w, theta, star.ridge, budget, pairs, nu, settings)
            result = SolverResult(theta, result.objective_value, status, kkt, used)
        else:  # no step, or a face without slope: theta is not the stated problem's optimum
            result = replace(result, status="max_iter")

    names = train.sensitive_names
    pinned = ", ".join(f"{names[k]}:{int(pinned_first[k]):+d}" for k in np.flatnonzero(pinned_first))
    left = ", ".join(names[k] for k in np.flatnonzero(pinned_first != sides))
    _log.debug("gamma fit stage=%s solves=%d steps=%d pinned=[%s] unpinned=[%s]", stage, solves, steps, pinned, left)
    # the report's objective, sum |W theta|, replaces the result's
    meta = _meta(
        "accuracy_constrained",
        result,
        gamma=spec.gamma,
        loss_star=star.loss,
        closed_form=stage in ("zero", "theta_star"),
        tied=stage == "tied",
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
    problem = _covariance_objective_problem(w, constraints, theta_start=star.theta)
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
    (cov_a, cov_b), (cov_e, _) = _covariance_split(w, c)
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
    (a, b), (cov_e, _) = _covariance_split(cov_rows, c)
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
    # the C10-shaped fits at C = 100 (at 600 rows the dropped ones are below
    # 1.7e-10 C and the kept ones above 5e-4 C; at 2000 rows below 4.7e-9 C
    # and above 2.8e-8 C)
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
