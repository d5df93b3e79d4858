"""Acceptance suite: one test per release criterion, each printing a PASS line.

Criteria that require the full UCI census/marketing files look for them under
``FAIRCLF_DATA_DIR`` (default: ``<repo>/data``) and skip with an explanation
when the files are absent; everything else runs self-contained. Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from fairclf.data import Dataset, SplitPlan, append_bias, split, standardize_columns
from fairclf.ingest import load_adult, load_bank
from fairclf.metrics import audit
from fairclf.models import (
    FitSpec,
    KernelSpec,
    covariance_vectors,
    decision_values,
    fit_kernel_svm_fair,
    fit_linear_svm_fair,
    fit_logreg,
    fit_logreg_fair,
    fit_logreg_fairness_max,
    fit_logreg_fine_grained,
    logistic_loss,
    logistic_loss_gradient,
    per_point_logistic_loss,
    predict,
)
from fairclf.sweep import ExperimentConfig, run_sweep
from fairclf.synth import SynthConfig, gen_linear_synthetic, gen_nonlinear_synthetic

from conftest import random_instance
from oracles import active_set_svm, finite_difference_gradient, grid_logistic_fair, hinge_objective, logistic_objective

DATA_DIR = Path(os.environ.get("FAIRCLF_DATA_DIR", Path(__file__).resolve().parent.parent / "data"))

ADULT_TOTALS = {"total": 45_222, "positive": 11_208}
ADULT_GENDER = {
    "sex=Male": {"total": 30_527, "positive": 9_539},
    "sex=Female": {"total": 14_695, "positive": 1_669},
}
ADULT_RACE = {
    "race=White": {"total": 38_903, "positive": 10_207},
    "race=Black": {"total": 4_228, "positive": 534},
    "race=Asian-Pac-Islander": {"total": 1_303, "positive": 369},
    "race=Amer-Indian-Eskimo": {"total": 435, "positive": 53},
    "race=Other": {"total": 353, "positive": 45},
}
BANK_TOTALS = {"total": 41_188, "positive": 4_640}
BANK_GROUPS = {
    "age=25-60": {"total": 39_210, "positive": 3_970},
    "age=other": {"total": 1_978, "positive": 670},
}


def _pass(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {message}")


# ---------------------------------------------------------------------------
# real-data discovery


def adult_file(tmp_path_factory) -> Path | None:
    combined = DATA_DIR / "adult.all"
    if combined.exists():
        return combined
    train = DATA_DIR / "adult.data"
    test = DATA_DIR / "adult.test"
    if train.exists() and test.exists():
        cache = tmp_path_factory.getbasetemp() / "adult.all"
        if not cache.exists():
            cache.write_text(train.read_text() + test.read_text())
        return cache
    return None


def bank_file() -> Path | None:
    path = DATA_DIR / "bank-additional-full.csv"
    return path if path.exists() else None


def require_adult(tmp_path_factory) -> Path:
    path = adult_file(tmp_path_factory)
    if path is None:
        pytest.skip(
            f"UCI Adult file not found under {DATA_DIR} (expected adult.all, or adult.data plus "
            "adult.test); set FAIRCLF_DATA_DIR to run the real-data criteria"
        )
    return path


def require_bank() -> Path:
    path = bank_file()
    if path is None:
        pytest.skip(
            f"UCI Bank file not found under {DATA_DIR} (expected bank-additional-full.csv); "
            "set FAIRCLF_DATA_DIR to run the real-data criteria"
        )
    return path


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def linear_4000_pi8():
    return append_bias(gen_linear_synthetic(SynthConfig(n=4000, phi=np.pi / 8, seed=1)))


@pytest.fixture(scope="module")
def linear_4000_pi4():
    return append_bias(gen_linear_synthetic(SynthConfig(n=4000, phi=np.pi / 4, seed=1)))


@pytest.fixture(scope="module")
def synthetic_sweep():
    config = ExperimentConfig(
        dataset={"kind": "synthetic", "variant": "linear", "phi": float(np.pi / 4), "n": 2000, "seed": 2},
        classifier="logreg",
        mode="fairness_constrained",
        split=SplitPlan(train_fraction=0.7, repeats=2, seed=0),
        a_factors=(1.0, 0.8, 0.6, 0.4, 0.2, 0.0),
    )
    return run_sweep(config)


# ---------------------------------------------------------------------------
# criterion 1: dataset fidelity


class TestC01DatasetFidelity:
    def test_adult_counts_exact(self, tmp_path_factory):
        path = require_adult(tmp_path_factory)
        start = time.perf_counter()
        _, report = load_adult(path, "gender+race")
        elapsed = time.perf_counter() - start
        assert report.rows_kept == ADULT_TOTALS["total"]
        assert report.label_positive == ADULT_TOTALS["positive"]
        for name, expected in {**ADULT_GENDER, **ADULT_RACE}.items():
            assert report.group_stats[name]["total"] == expected["total"], name
            assert report.group_stats[name]["positive"] == expected["positive"], name
        assert elapsed < 30.0
        _pass(1, f"census counts reproduced exactly in {elapsed:.1f}s")

    def test_bank_counts_exact(self):
        path = require_bank()
        start = time.perf_counter()
        _, report = load_bank(path)
        elapsed = time.perf_counter() - start
        assert report.rows_kept == BANK_TOTALS["total"]
        assert report.label_positive == BANK_TOTALS["positive"]
        for name, expected in BANK_GROUPS.items():
            assert report.group_stats[name]["total"] == expected["total"], name
            assert report.group_stats[name]["positive"] == expected["positive"], name
        assert elapsed < 30.0
        _pass(1, f"marketing counts reproduced exactly in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: gradient correctness


class TestC02Gradients:
    def test_all_gradients_match_finite_differences(self):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        for draw in range(20):
            ds, w = random_instance(100 + draw, n=int(rng.integers(10, 40)))
            theta = rng.normal(scale=1.5, size=2)

            analytic = logistic_loss_gradient(theta, ds.features, ds.labels, 1e-3)
            numeric = finite_difference_gradient(
                lambda t: logistic_loss(t, ds.features, ds.labels, 1e-3), theta, step=1e-6
            )
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)

            numeric_w = finite_difference_gradient(lambda t: float(w @ t), theta, step=1e-6)
            np.testing.assert_allclose(w, numeric_w, rtol=1e-5, atol=1e-9)

            for i in rng.integers(0, ds.n, size=3):
                xi, yi = ds.features[int(i)], ds.labels[int(i)]

                def point_loss(t):
                    return float(per_point_logistic_loss(t, xi[None, :], np.array([yi]))[0])

                margin = yi * (xi @ theta)
                analytic_i = -yi * (1.0 / (1.0 + np.exp(margin))) * xi
                numeric_i = finite_difference_gradient(point_loss, theta, step=1e-6)
                np.testing.assert_allclose(analytic_i, numeric_i, rtol=1e-5, atol=1e-7)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        _pass(2, f"20 draws of loss/constraint/per-point gradients match central differences ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 3: constraint feasibility across the mode x classifier matrix


class TestC03ConstraintFeasibility:
    def test_matrix(self):
        ds = append_bias(gen_linear_synthetic(SynthConfig(n=500, phi=np.pi / 4, seed=3)))
        w = covariance_vectors(ds)[0]
        checked = []

        for c in (0.0, 0.05):
            model = fit_logreg_fair(ds, FitSpec(mode="fairness_constrained", covariance_thresholds=c))
            assert model.training_meta["converged"]
            assert abs(float(w @ model.theta)) <= c + 1e-5
            checked.append(f"logreg c={c}")

        small = append_bias(gen_linear_synthetic(SynthConfig(n=200, phi=np.pi / 4, seed=4)))
        w_small = covariance_vectors(small)[0]
        model = fit_linear_svm_fair(
            small, FitSpec(mode="fairness_constrained", covariance_thresholds=0.0, svm_cost=1.0)
        )
        assert model.training_meta["converged"]
        assert abs(float(w_small @ model.theta)) <= 1e-5
        checked.append("linear_svm c=0")

        kernel_ds = append_bias(gen_nonlinear_synthetic(SynthConfig(n=200, phi=np.pi / 4, seed=5, variant="nonlinear")))
        model = fit_kernel_svm_fair(
            kernel_ds,
            FitSpec(mode="fairness_constrained", covariance_thresholds=0.0, svm_cost=1.0, kernel=KernelSpec(kind="rbf")),
        )
        assert model.training_meta["converged"]
        assert abs(model.training_meta["covariance"][0]) <= 1e-5
        checked.append("kernel_svm c=0")

        gamma = 0.1
        base = fit_logreg(ds, FitSpec(mode="unconstrained"))
        loss_star = base.training_meta["objective"]
        model = fit_logreg_fairness_max(ds, FitSpec(mode="accuracy_constrained", gamma=gamma))
        loss = logistic_loss(np.asarray(model.theta), ds.features, ds.labels, model.training_meta["l2_penalty"])
        assert loss <= (1 + gamma) * loss_star * (1 + 1e-6)
        checked.append(f"logreg gamma={gamma}")

        base_positive = decision_values(base, ds.features) >= 0
        protected = np.flatnonzero(base_positive & (ds.sensitive[:, 0] == 1))
        gammas = np.full(ds.n, 0.3)
        model = fit_logreg_fine_grained(
            ds, FitSpec(mode="fine_grained", per_point_gammas=gammas, protected_index_set=protected)
        )
        assert model.training_meta["converged"]
        theta = np.asarray(model.theta)
        loss_i = per_point_logistic_loss(theta, ds.features, ds.labels)
        loss_star_i = per_point_logistic_loss(np.asarray(base.theta), ds.features, ds.labels)
        unprotected = np.setdiff1d(np.arange(ds.n), protected)
        assert np.all(loss_i[unprotected] <= (1 + 0.3) * loss_star_i[unprotected] + 1e-9)
        assert np.all(ds.features[protected] @ theta >= -1e-9)
        checked.append("logreg fine_grained")

        _pass(3, f"constraints hold at stated slacks for: {', '.join(checked)}")


# ---------------------------------------------------------------------------
# criterion 4: unconstrained recovery


class TestC04UnconstrainedRecovery:
    def test_loose_thresholds_recover_baseline(self):
        results = []
        ds = append_bias(gen_linear_synthetic(SynthConfig(n=400, phi=np.pi / 4, seed=6)))
        base = fit_logreg(ds, FitSpec(mode="unconstrained"))
        c_star = np.abs(covariance_vectors(ds) @ base.theta)
        fair = fit_logreg_fair(ds, FitSpec(mode="fairness_constrained", covariance_thresholds=1.01 * c_star))
        rel = abs(fair.training_meta["objective"] - base.training_meta["objective"]) / base.training_meta["objective"]
        assert rel <= 1e-6
        results.append(f"logreg rel={rel:.1e}")

        small = append_bias(gen_linear_synthetic(SynthConfig(n=200, phi=np.pi / 4, seed=7)))
        base = fit_linear_svm_fair(small, FitSpec(mode="unconstrained", svm_cost=1.0))
        c_star = np.abs(covariance_vectors(small) @ base.theta)
        fair = fit_linear_svm_fair(
            small, FitSpec(mode="fairness_constrained", covariance_thresholds=1.01 * c_star, svm_cost=1.0)
        )
        rel = abs(fair.training_meta["objective"] - base.training_meta["objective"]) / abs(
            base.training_meta["objective"]
        )
        assert rel <= 1e-6
        results.append(f"linear_svm rel={rel:.1e}")

        kernel_ds = append_bias(
            gen_nonlinear_synthetic(SynthConfig(n=200, phi=np.pi / 4, seed=8, variant="nonlinear"))
        )
        kernel = KernelSpec(kind="rbf")
        base = fit_kernel_svm_fair(kernel_ds, FitSpec(mode="unconstrained", svm_cost=1.0, kernel=kernel))
        c_star = np.abs(np.asarray(base.training_meta["covariance"]))
        fair = fit_kernel_svm_fair(
            kernel_ds,
            FitSpec(
                mode="fairness_constrained",
                covariance_thresholds=1.01 * c_star + 1e-9,
                svm_cost=1.0,
                kernel=kernel,
            ),
        )
        rel = abs(fair.training_meta["objective"] - base.training_meta["objective"]) / abs(
            base.training_meta["objective"]
        )
        assert rel <= 1e-6
        results.append(f"kernel_svm rel={rel:.1e}")
        _pass(4, "; ".join(results))


# ---------------------------------------------------------------------------
# criterion 5: zero covariance <-> 100%-rule on synthetic data


class TestC05ZeroCovarianceRule:
    def test_both_rotations(self, linear_4000_pi4, linear_4000_pi8):
        start = time.perf_counter()
        fair_p = {}
        for phi_name, ds in (("pi/4", linear_4000_pi4), ("pi/8", linear_4000_pi8)):
            w = covariance_vectors(ds)[0]
            fair = fit_logreg_fair(ds, FitSpec(mode="fairness_constrained", covariance_thresholds=0.0))
            report = audit(decision_values(fair, ds.features), ds)
            assert abs(float(w @ fair.theta)) <= 1e-4
            assert report.p_percent["z"] >= 95.0
            fair_p[phi_name] = report.p_percent["z"]

        base = fit_logreg(linear_4000_pi8, FitSpec(mode="unconstrained"))
        base_p = audit(decision_values(base, linear_4000_pi8.features), linear_4000_pi8).p_percent["z"]
        assert base_p <= fair_p["pi/8"] - 15.0
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        _pass(
            5,
            f"c=0 gives p%={fair_p['pi/4']:.1f} (pi/4) and {fair_p['pi/8']:.1f} (pi/8) vs "
            f"unconstrained {base_p:.1f} at pi/8 ({elapsed:.0f}s)",
        )


# ---------------------------------------------------------------------------
# criterion 6: monotone trade-off along the threshold sweep


def _assert_monotone_tradeoff(result, label: str) -> str:
    name = result.sensitive_names[0]
    by_cell = {}
    for cell in result.cells:
        assert not cell.status.startswith("error"), cell.status
        by_cell.setdefault(cell.cell_index, []).append(cell)
    covs, losses, prules = [], [], []
    for index in sorted(by_cell):
        group = by_cell[index]
        covs.append(np.mean([abs(c.train_report.covariance_per_column[name]) for c in group]))
        losses.append(np.mean([c.train_loss for c in group]))
        prules.append(np.mean([c.train_report.p_percent[name] for c in group]))
    for tighter, looser in zip(covs[1:], covs[:-1]):
        assert tighter <= looser + 1e-8
    for tighter, looser in zip(losses[1:], losses[:-1]):
        assert tighter >= looser * (1 - 1e-8)
    for tighter, looser in zip(prules[1:], prules[:-1]):
        assert tighter >= looser - 2.0
    return f"{label}: |cov| {covs[0]:.3f}->{covs[-1]:.1e}, p% {prules[0]:.0f}->{prules[-1]:.0f}"


class TestC06MonotoneTradeoff:
    def test_synthetic(self, synthetic_sweep):
        message = _assert_monotone_tradeoff(synthetic_sweep, "synthetic")
        _pass(6, message)

    def test_adult_gender(self, tmp_path_factory):
        path = require_adult(tmp_path_factory)
        config = ExperimentConfig(
            dataset={"kind": "adult", "path": str(path), "sensitive_choice": "gender"},
            classifier="logreg",
            mode="fairness_constrained",
            split=SplitPlan(train_fraction=0.7, repeats=2, seed=0),
            a_factors=(1.0, 0.8, 0.6, 0.4, 0.2, 0.0),
        )
        result = run_sweep(config)
        message = _assert_monotone_tradeoff(result, "adult-gender")
        _pass(6, message)


# ---------------------------------------------------------------------------
# criterion 7: oracle equivalence on small instances


def _oracle_instances(count: int, n_max: int = 50):
    """Instances whose constrained optima stay inside the oracle's grid box."""
    collected = []
    seed = 0
    rng = np.random.default_rng(2024)
    while len(collected) < count:
        n = int(rng.integers(20, n_max + 1))
        ds, w = random_instance(300 + seed, n=n)
        seed += 1
        good = True
        fits = {}
        for c in (0.0, 0.1):
            fair = fit_logreg_fair(
                ds, FitSpec(mode="fairness_constrained", covariance_thresholds=c, l2_penalty=1e-3)
            )
            if not fair.training_meta["converged"] or np.abs(fair.theta).max() > 4.5:
                good = False
                break
            fits[c] = fair
        if good:
            collected.append((ds, w, fits))
    return collected


class TestC07OracleEquivalence:
    def test_fair_logreg_against_grid(self):
        start = time.perf_counter()
        instances = _oracle_instances(25)
        worst = 0.0
        for ds, w, fits in instances:
            for c, fair in fits.items():
                oracle = grid_logistic_fair(ds.features, ds.labels, 1e-3, w, c)
                total = logistic_objective(np.asarray(fair.theta), ds.features, ds.labels, 1e-3)
                worst = max(worst, abs(total - oracle))
                assert total == pytest.approx(oracle, abs=1e-4)
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0
        _pass(7, f"25 instances x (c=0, c=0.1) within 1e-4 of the dense feasible grid (worst {worst:.1e}, {elapsed:.0f}s)")

    def test_grid_bisection_matches_every_point(self):
        # the oracle's line bisection against its every-point enumeration
        ds, w, fits = _oracle_instances(1)[0]
        for c in fits:
            fast = grid_logistic_fair(ds.features, ds.labels, 1e-3, w, c)
            brute = grid_logistic_fair(ds.features, ds.labels, 1e-3, w, c, brute_force=True)
            assert fast == pytest.approx(brute, rel=0.0, abs=1e-12)

    def test_fair_svm_against_active_set(self):
        checked = 0
        worst = 0.0
        for seed in range(5):
            ds, w = random_instance(400 + seed, n=8, min_w=0.2)
            for c in (np.inf, 0.05):
                spec = FitSpec(
                    mode="fairness_constrained" if np.isfinite(c) else "unconstrained",
                    covariance_thresholds=c if np.isfinite(c) else None,
                    svm_cost=1.0,
                )
                model = fit_linear_svm_fair(ds, spec)
                oracle_value, _ = active_set_svm(ds.features, ds.labels, 1.0, w=w, c=c)
                achieved = hinge_objective(np.asarray(model.theta), ds.features, ds.labels, 1.0)
                worst = max(worst, abs(achieved - oracle_value))
                assert achieved == pytest.approx(oracle_value, abs=1e-5)
                checked += 1
        _pass(7, f"{checked} exact-hinge programs within 1e-5 of the active-set enumeration (worst {worst:.1e})")


# ---------------------------------------------------------------------------
# criterion 8: loss-budget endpoints


class TestC08GammaEndpoints:
    def test_gamma_zero(self):
        ds = append_bias(gen_linear_synthetic(SynthConfig(n=800, phi=np.pi / 4, seed=9)))
        base = fit_logreg(ds, FitSpec(mode="unconstrained"))
        w = covariance_vectors(ds)
        cov_star = float(np.sum(np.abs(w @ base.theta)))
        model = fit_logreg_fairness_max(ds, FitSpec(mode="accuracy_constrained", gamma=0.0))
        loss = logistic_loss(np.asarray(model.theta), ds.features, ds.labels, model.training_meta["l2_penalty"])
        assert loss <= base.training_meta["objective"] * (1 + 1e-6)
        achieved = float(np.sum(np.abs(w @ model.theta)))
        assert achieved <= cov_star
        _pass(8, f"gamma=0: loss factor {loss / base.training_meta['objective']:.9f}, |cov| {achieved:.5f} <= {cov_star:.5f}")

    def test_gamma_sweep_reaches_full_rule_synthetic(self):
        ds = append_bias(gen_linear_synthetic(SynthConfig(n=2000, phi=np.pi / 4, seed=10)))
        reached = None
        for gamma in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
            model = fit_logreg_fairness_max(ds, FitSpec(mode="accuracy_constrained", gamma=gamma))
            report = audit(decision_values(model, ds.features), ds)
            if report.p_percent["z"] >= 100.0 - 1e-9:
                reached = gamma
                break
        assert reached is not None
        _pass(8, f"synthetic gamma sweep reaches the 100%-rule at gamma={reached}")

    def test_gamma_sweep_reaches_full_rule_adult(self, tmp_path_factory):
        path = require_adult(tmp_path_factory)
        dataset, _ = load_adult(path, "gender")
        train, _ = split(dataset, SplitPlan(train_fraction=0.7, repeats=1, seed=0), 0)
        train, _ = standardize_columns(train, None)
        reached = None
        for gamma in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
            model = fit_logreg_fairness_max(train, FitSpec(mode="accuracy_constrained", gamma=gamma))
            report = audit(decision_values(model, train.features), train)
            if report.p_percent["sex=Male"] >= 100.0 - 1e-9:
                reached = gamma
                break
        assert reached is not None
        _pass(8, f"census gamma sweep reaches the 100%-rule at gamma={reached}")


# ---------------------------------------------------------------------------
# criterion 9: hard non-flip guarantee


class TestC09NonFlip:
    def test_zero_flips(self, linear_4000_pi4):
        ds = linear_4000_pi4
        base = fit_logreg(ds, FitSpec(mode="unconstrained"))
        base_positive = decision_values(base, ds.features) >= 0
        protected = np.flatnonzero(base_positive & (ds.sensitive[:, 0] == 1))
        model = fit_logreg_fine_grained(
            ds,
            FitSpec(
                mode="fine_grained",
                per_point_gammas=np.full(ds.n, 1.0),
                protected_index_set=protected,
            ),
        )
        d_new = decision_values(model, ds.features)
        flips = int(np.sum(d_new[protected] < 0))
        assert flips == 0
        _pass(9, f"0 of {protected.size} protected rows flipped to the negative side")


# ---------------------------------------------------------------------------
# criterion 10: kernel behavior on the nonlinear data


class TestC10KernelBehavior:
    def test_constrained_rbf(self):
        start = time.perf_counter()
        ds = append_bias(gen_nonlinear_synthetic(SynthConfig(n=2000, phi=np.pi / 4, seed=1, variant="nonlinear")))
        kernel = KernelSpec(kind="rbf", rbf_gamma=0.04)
        unconstrained = fit_kernel_svm_fair(ds, FitSpec(mode="unconstrained", svm_cost=100.0, kernel=kernel))
        constrained = fit_kernel_svm_fair(
            ds,
            FitSpec(mode="fairness_constrained", covariance_thresholds=0.0, svm_cost=100.0, kernel=kernel),
        )
        p_unc = audit(decision_values(unconstrained, ds.features), ds).p_percent["z"]
        p_fair = audit(decision_values(constrained, ds.features), ds).p_percent["z"]
        acc_fair = float(np.mean(predict(constrained, ds.features) == ds.labels))
        linear = fit_logreg(ds, FitSpec(mode="unconstrained"))
        acc_linear = float(np.mean(predict(linear, ds.features) == ds.labels))
        assert unconstrained.training_meta["status"] == "converged"
        assert constrained.training_meta["status"] == "converged"
        assert p_fair >= 90.0
        assert p_fair > p_unc
        assert acc_fair > acc_linear
        elapsed = time.perf_counter() - start
        _pass(
            10,
            f"rbf c=0: p%={p_fair:.1f} (unconstrained {p_unc:.1f}), accuracy {acc_fair:.3f} vs linear "
            f"{acc_linear:.3f} ({elapsed:.0f}s)",
        )


# ---------------------------------------------------------------------------
# criterion 11: metric consistency


class TestC11MetricConsistency:
    def test_cv_iff_p100_and_trend_agreement(self, synthetic_sweep):
        name = synthetic_sweep.sensitive_names[0]
        for cell in synthetic_sweep.cells:
            for report in (cell.train_report, cell.test_report):
                r1, r0 = report.group_positive_rates[name]
                is_equal = abs(r1 - r0) <= 1e-9
                is_full = report.p_percent[name] >= 100.0 - 1e-7
                assert is_equal == is_full
                assert report.cv_score[name] == pytest.approx(abs(r1 - r0), abs=1e-12)
        by_cell = {}
        for cell in synthetic_sweep.cells:
            by_cell.setdefault(cell.cell_index, []).append(cell)
        prules = [
            np.mean([c.train_report.p_percent[name] for c in by_cell[i]]) for i in sorted(by_cell)
        ]
        cvs = [np.mean([c.train_report.cv_score[name] for c in by_cell[i]]) for i in sorted(by_cell)]
        for dp, dcv in zip(np.diff(prules), np.diff(cvs)):
            if abs(dcv) > 0.01:
                assert np.sign(dp) == -np.sign(dcv)
        _pass(11, "cv=0 <=> p%=100 on every audit; p% and CV trends agree in direction across the sweep")


# ---------------------------------------------------------------------------
# criterion 12: multi-attribute sweep


class TestC12MultiAttribute:
    def test_adult_gender_plus_race(self, tmp_path_factory):
        path = require_adult(tmp_path_factory)
        config = ExperimentConfig(
            dataset={"kind": "adult", "path": str(path), "sensitive_choice": "gender+race"},
            classifier="logreg",
            mode="fairness_constrained",
            split=SplitPlan(train_fraction=0.7, repeats=1, seed=0),
            a_factors=(1.0, 0.5, 0.0),
        )
        result = run_sweep(config)
        names = result.sensitive_names

        def max_gap(cell):
            rates = [cell.train_report.group_positive_rates[name][0] for name in names]
            return max(rates) - min(rates)

        first = next(c for c in result.cells if c.cell_index == 0)
        last = next(c for c in result.cells if c.cell_index == len(config.grid) - 1)
        gap_start, gap_end = max_gap(first), max_gap(last)
        assert gap_end < 0.5 * gap_start
        accuracy_drop = first.test_accuracy - last.test_accuracy
        assert accuracy_drop < 0.5  # recorded, not pinned
        _pass(
            12,
            f"positive-rate gap {gap_start:.3f} -> {gap_end:.3f} as a -> 0; accuracy drop {accuracy_drop:.3f}",
        )
