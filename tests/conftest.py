import numpy as np
import pytest

from fairclf.data import Dataset, append_bias


@pytest.fixture
def toy_dataset() -> Dataset:
    """Eight rows, two features plus bias, one binary sensitive column."""
    rng = np.random.default_rng(0)
    features = rng.normal(size=(8, 2))
    labels = np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=float)
    sensitive = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=float).reshape(-1, 1)
    ds = Dataset(
        features=features,
        labels=labels,
        sensitive=sensitive,
        sensitive_names=("z",),
        feature_names=("x1", "x2"),
    )
    return append_bias(ds)


def random_instance(seed: int, n: int = 40, min_w: float = 0.25):
    """Small 1-feature-plus-bias instance whose sensitive column is informative.

    The sensitive attribute is drawn from a logistic model of the feature so
    the covariance direction w is bounded away from zero (reseeding until the
    first coordinate of w clears ``min_w``), which keeps the feasible slabs of
    the constrained fits well-scaled.
    """
    from fairclf.models import covariance_vectors

    while True:
        rng = np.random.default_rng(seed)
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        x1 = rng.normal(1.5 * labels, 1.0)
        z = (rng.random(n) < 1.0 / (1.0 + np.exp(-x1))).astype(float)
        features = np.column_stack([x1, np.ones(n)])
        if len(np.unique(z)) < 2 or len(np.unique(labels)) < 2:
            seed += 10_000
            continue
        ds = Dataset(
            features=features,
            labels=labels,
            sensitive=z.reshape(-1, 1),
            sensitive_names=("z",),
            feature_names=("x1", "bias"),
            has_bias_column=True,
        )
        w = covariance_vectors(ds)[0]
        if abs(w[0]) >= min_w:
            return ds, w
        seed += 10_000


def count_smooth_solves(monkeypatch) -> list:
    """Record each problem that fairclf.models hands to minimize_smooth from now on."""
    import fairclf.models

    calls = []
    original = fairclf.models.minimize_smooth

    def counting(problem, settings=None):
        calls.append(problem)
        return original(problem, settings)

    monkeypatch.setattr(fairclf.models, "minimize_smooth", counting)
    return calls


def recording_solves(monkeypatch) -> list:
    """Record each (problem, result) of the minimize_smooth calls that fairclf.models makes from now on."""
    import fairclf.models

    calls = []
    original = fairclf.models.minimize_smooth

    def recording(problem, settings=None):
        calls.append((problem, original(problem, settings)))
        return calls[-1][1]

    monkeypatch.setattr(fairclf.models, "minimize_smooth", recording)
    return calls


def count_theta_star_fits(monkeypatch) -> list:
    """Record each fit_logreg call that fairclf.models makes from now on, each one a theta* record written."""
    import fairclf.models

    calls = []
    original = fairclf.models.fit_logreg
    monkeypatch.setattr(fairclf.models, "fit_logreg", lambda *args: calls.append(args) or original(*args))
    return calls


def crossing_instance(seed: int = 3, n: int = 2000):
    """A two-column linear synthetic instance (phi = pi/4) whose second column's covariance the loss-budget fit drives through zero.

    z1 is the generator's sensitive column. z2 copies it on about 3% of
    the rows and is a fair coin on the rest, so its covariance at theta* is
    small and of the sign of z1's; at gamma = 0.7 (seed 3) the optimum
    holds it at zero.
    """
    from fairclf.synth import SynthConfig, gen_linear_synthetic

    base = gen_linear_synthetic(SynthConfig(n=n, phi=np.pi / 4, seed=seed))
    rng = np.random.default_rng(seed + 100)
    z = base.sensitive[:, 0]
    coin = rng.integers(0, 2, n).astype(float)
    z2 = np.where(rng.random(n) < 0.03, z, coin)
    return append_bias(
        Dataset(
            features=base.features,
            labels=base.labels,
            sensitive=np.column_stack([z, z2]),
            sensitive_names=("z1", "z2"),
            feature_names=base.feature_names,
        )
    )
