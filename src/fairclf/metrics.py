"""Fairness quantities for a trained decision boundary.

All metrics are computed from the signed distances of the rows to the
boundary. ``boundary_covariance`` is the convex surrogate used by the
constrained trainers; the p%-rule and the absolute rate gap (CV score) are the
audit-facing measures derived from the sign of the distances. The sign rule
that turns a distance into a decision, with a tie at the boundary counted as
positive, is :func:`sign_rule`, and every decision in the package is made by
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FairnessReport",
    "audit",
    "boundary_covariance",
    "cv_score",
    "p_percent_rule",
    "score",
    "sign_rule",
]


def sign_rule(distances) -> np.ndarray:
    """The ±1 decisions of signed distances: a distance >= 0, the boundary included, maps to +1."""
    return np.where(np.asarray(distances) >= 0, 1, -1)


def boundary_covariance(z, distances) -> float:
    """Empirical covariance (1/N) * sum((z_i - mean(z)) * d_i).

    The mean-distance term of the usual covariance cancels because z is
    centered, so this one-sided form is exact.
    """
    z = np.asarray(z, dtype=float)
    d = np.asarray(distances, dtype=float)
    if z.shape != d.shape or z.ndim != 1:
        raise ValueError("z and distances must be 1-D vectors of equal length")
    if z.size == 0:
        raise ValueError("need at least one observation")
    return float(np.mean((z - z.mean()) * d))


def _group_rates(predictions: np.ndarray, z: np.ndarray) -> tuple[float, float, int]:
    """(positive rate in z==1, positive rate in z==0, size of z==1); both groups must be non-empty."""
    pos = predictions == 1
    in1 = z == 1
    n1 = int(in1.sum())
    n0 = int(z.size - n1)
    if n1 == 0 or n0 == 0:
        raise ValueError("both sensitive groups must be non-empty")
    return float(pos[in1].mean()), float(pos[~in1].mean()), n1


def _p_percent(r1: float, r0: float) -> float:
    """The p%-rule of the group positive rates r1 and r0 (see :func:`p_percent_rule`)."""
    if r1 == 0.0 and r0 == 0.0:
        return 100.0
    if r1 == 0.0 or r0 == 0.0:
        return 0.0
    return 100.0 * min(r1 / r0, r0 / r1)


def p_percent_rule(predictions, z) -> float:
    """100 * min(r1/r0, r0/r1) where rg is the positive rate of group g.

    If exactly one group has rate zero the rule is 0; if both are zero the
    groups are treated alike and the rule is 100.
    """
    r1, r0, _ = _group_rates(np.asarray(predictions), np.asarray(z))
    return _p_percent(r1, r0)


def cv_score(predictions, z) -> float:
    """Absolute difference of group positive rates, in [0, 1]."""
    r1, r0, _ = _group_rates(np.asarray(predictions), np.asarray(z))
    return abs(r0 - r1)


@dataclass(frozen=True)
class FairnessReport:
    """Per-sensitive-column fairness audit of one set of decision values.

    Every sensitive column is 0/1 (one-hot members of a polyvalent attribute
    are audited value-vs-rest), so the rule-based metrics are defined for each
    column. ``group_positive_rates`` maps a column name to
    (rate given z=1, rate given z=0) and ``n_per_group`` to the matching
    group sizes.
    """

    covariance_per_column: dict[str, float]
    p_percent: dict[str, float]
    cv_score: dict[str, float]
    group_positive_rates: dict[str, tuple[float, float]]
    n_per_group: dict[str, tuple[int, int]] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "covariance_per_column": dict(self.covariance_per_column),
            "p_percent": dict(self.p_percent),
            "cv_score": dict(self.cv_score),
            "group_positive_rates": {k: list(v) for k, v in self.group_positive_rates.items()},
            "n_per_group": {k: list(v) for k, v in self.n_per_group.items()},
        }


def audit(model_distances, dataset) -> FairnessReport:
    """Full fairness report of the given signed distances against a dataset.

    Predictions follow the sign rule (distance >= 0 maps to +1). Raises if the
    distances are not aligned with the dataset rows, are not all finite (a
    NaN has no sign) or some group is empty.
    """
    d = np.asarray(model_distances, dtype=float)
    if d.shape != (dataset.n,):
        raise ValueError("model_distances must align with dataset rows")
    if not np.all(np.isfinite(d)):
        raise ValueError("model_distances must be finite (no NaN or inf)")
    predictions = sign_rule(d)
    cov: dict[str, float] = {}
    p_pct: dict[str, float] = {}
    cv: dict[str, float] = {}
    rates: dict[str, tuple[float, float]] = {}
    counts: dict[str, tuple[int, int]] = {}
    for k, name in enumerate(dataset.sensitive_names):
        z = dataset.sensitive[:, k]
        cov[name] = boundary_covariance(z, d)
        r1, r0, n1 = _group_rates(predictions, z)
        p_pct[name] = _p_percent(r1, r0)
        cv[name] = abs(r0 - r1)
        rates[name] = (r1, r0)
        counts[name] = (n1, dataset.n - n1)
    return FairnessReport(
        covariance_per_column=cov,
        p_percent=p_pct,
        cv_score=cv,
        group_positive_rates=rates,
        n_per_group=counts,
    )


def score(distances, dataset) -> tuple[float, FairnessReport]:
    """(accuracy of the sign-rule decisions against the dataset's labels, :func:`audit` of the distances)."""
    report = audit(distances, dataset)
    return float(np.mean(sign_rule(distances) == dataset.labels)), report
