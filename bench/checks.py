"""Correctness checks on every fitted model, recomputed from the model alone.

Each check states a property the fit promises on its own training rows, with a
tolerance relative to the scale of the decision values, so it holds at any
thread count and pins no value measured on one machine:

* a fairness fit keeps |cov_k| <= c_k + tol for every sensitive column;
* an accuracy fit keeps its loss <= (1 + gamma) * loss* (loss* being the
  unconstrained optimum the fit reports);
* a fine-grained fit leaves no protected row on the negative side.

Uncertified fits are checked too: a fit may fail to certify its KKT point,
but it must not break the constraints it reports.
"""

from __future__ import annotations

import numpy as np

COV_TOL = 1e-6  # relative to the mean absolute decision value
LOSS_TOL = 1e-6  # relative to the loss budget


def _distances(model, features: np.ndarray) -> np.ndarray:
    if hasattr(model, "theta"):
        return features @ np.asarray(model.theta)
    if model.kernel.kind == "linear":
        gram = features @ model.support_points.T
    else:
        sq = ((features[:, None, :] - model.support_points[None, :, :]) ** 2).sum(axis=2)
        gram = np.exp(-model.kernel.rbf_gamma * sq)
    return gram @ (model.alphas * model.support_labels)


def check_fit(train, spec, model) -> str | None:
    """None when the fit keeps its constraints, else a description of the breach."""
    d = _distances(model, np.asarray(train.features))
    if not np.all(np.isfinite(d)):
        return "non-finite decision values"
    if spec.mode == "fairness_constrained":
        c = spec.thresholds_for(train.n_sensitive)
        z = np.asarray(train.sensitive)
        cov = ((z - z.mean(axis=0)) * d[:, None]).mean(axis=0)
        tol = COV_TOL * max(1.0, float(np.abs(d).mean()))
        worst = float(np.max(np.abs(cov) - c))
        if worst > tol:
            return f"|cov| exceeds its threshold by {worst:.3g} (tolerance {tol:.3g})"
    elif spec.mode == "accuracy_constrained":
        meta = model.training_meta
        theta = np.asarray(model.theta)
        margins = np.asarray(train.labels) * d
        loss = float(np.logaddexp(0.0, -margins).sum()) + meta["l2_penalty"] * float(theta @ theta)
        budget = (1.0 + spec.gamma) * meta["loss_star"]
        if loss > budget * (1.0 + LOSS_TOL):
            return f"loss {loss:.10g} exceeds (1 + gamma) * loss* = {budget:.10g}"
    elif spec.mode == "fine_grained":
        protected = np.asarray(spec.protected_index_set, dtype=int)
        flips = int(np.sum(d[protected] < 0))
        if flips:
            return f"{flips} of {protected.size} protected rows flipped"
    return None
