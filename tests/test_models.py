import json
import logging
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fairclf import models
from fairclf.data import Dataset, append_bias
from fairclf.metrics import audit
from fairclf.models import (
    FitSpec,
    _covariance_split,
    _epigraph_rows,
    _interleave,
    _margin_bound,
    _margin_rows,
    KernelModel,
    KernelSpec,
    LinearModel,
    covariance_vectors,
    decision_values,
    fit,
    fit_kernel_svm_fair,
    fit_linear_svm_fair,
    fit_logreg,
    fit_logreg_fair,
    fit_logreg_fairness_max,
    fit_logreg_fine_grained,
    gram_matrix,
    logistic_loss,
    logistic_loss_gradient,
    model_from_dict,
    model_to_dict,
    per_point_logistic_loss,
    predict,
    protected_rows,
)
from fairclf.solvers import SolverSettings, solve_qp
from fairclf.synth import SynthConfig, gen_linear_synthetic, gen_nonlinear_synthetic

from conftest import count_smooth_solves, random_instance
from oracles import (
    active_set_svm,
    exact_hinge_primal,
    finite_difference_gradient,
    grid_logistic_fair,
    hinge_objective,
    logistic_objective,
    margin_rows_reference,
    qp_kkt_reference,
    rbf_kernel_dual_reference,
    unit_rows_reference,
)


def two_point_dataset():
    return Dataset(
        features=np.array([[1.0, 1.0], [-1.0, 1.0]]),
        labels=np.array([1.0, -1.0]),
        sensitive=np.array([[1.0], [0.0]]),
        sensitive_names=("z",),
        feature_names=("x1", "bias"),
        has_bias_column=True,
    )


class TestFitSpecValidation:
    def test_mode_requires_fields(self):
        with pytest.raises(ValueError, match="requires covariance_thresholds"):
            FitSpec(mode="fairness_constrained")
        with pytest.raises(ValueError, match="requires gamma"):
            FitSpec(mode="accuracy_constrained")

    def test_extraneous_fields_rejected(self):
        with pytest.raises(ValueError, match="not used"):
            FitSpec(mode="unconstrained", gamma=0.5)
        with pytest.raises(ValueError, match="not used"):
            FitSpec(mode="accuracy_constrained", gamma=0.1, covariance_thresholds=0.0)

    def test_unknown_hinge_rejected(self):
        # the exact hinge is the only linear SVM; the squared-hinge surrogate is gone
        for hinge in ("exakt", "squared"):
            with pytest.raises(ValueError, match="svm_hinge"):
                FitSpec(mode="unconstrained", svm_cost=1.0, svm_hinge=hinge)
        assert FitSpec(mode="unconstrained", svm_cost=1.0, svm_hinge="exact") == FitSpec(mode="unconstrained", svm_cost=1.0)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            FitSpec(mode="accuracy_constrained", gamma=-0.1)
        with pytest.raises(ValueError):
            FitSpec(mode="unconstrained", l2_penalty=-1.0)
        spec = FitSpec(mode="fairness_constrained", covariance_thresholds=-0.5)
        with pytest.raises(ValueError):
            spec.thresholds_for(1)

    @pytest.mark.parametrize(
        "fields",
        [
            {"mode": "accuracy_constrained", "gamma": float("nan")},
            {"mode": "accuracy_constrained", "gamma": float("inf")},
            {"mode": "unconstrained", "svm_cost": float("nan")},
            {"mode": "unconstrained", "svm_cost": float("inf")},
            {"mode": "unconstrained", "l2_penalty": float("nan")},
            {"mode": "unconstrained", "l2_penalty": float("inf")},
            {"mode": "fine_grained", "per_point_gammas": [0.5, float("nan")], "protected_index_set": []},
        ],
    )
    def test_malformed_numbers_rejected(self, fields):
        with pytest.raises(ValueError):
            FitSpec(**fields)

    def test_infinity_kept_where_it_has_a_meaning(self):
        # an infinite per-point gamma drops that row's budget, an infinite
        # threshold drops that column's bound
        FitSpec(mode="fine_grained", per_point_gammas=[0.5, float("inf")], protected_index_set=[])
        spec = FitSpec(mode="fairness_constrained", covariance_thresholds=[0.1, float("inf")])
        assert np.isinf(spec.thresholds_for(2)[1])
        with pytest.raises(ValueError):
            FitSpec(mode="fairness_constrained", covariance_thresholds=float("nan")).thresholds_for(1)

    @pytest.mark.parametrize(
        "fit_name, field",
        [
            (fit_name, field)
            for fit_name, fields in (
                ("fit_logreg", ("svm_cost", "kernel")),
                ("fit_logreg_fair", ("svm_cost", "kernel")),
                ("fit_logreg_fairness_max", ("svm_cost", "kernel")),
                ("fit_logreg_fine_grained", ("svm_cost", "kernel")),
                ("fit_linear_svm_fair", ("l2_penalty", "kernel")),
                ("fit_kernel_svm_fair", ("l2_penalty",)),
            )
            for field in fields
        ],
    )
    def test_another_classifiers_field_rejected(self, fit_name, field):
        # each public fit refuses the fields it does not read, also when
        # called directly rather than through models.fit
        ds, _ = random_instance(3, n=20)
        own = {
            "fit_logreg": {"mode": "unconstrained"},
            "fit_logreg_fair": {"mode": "fairness_constrained", "covariance_thresholds": 0.1},
            "fit_logreg_fairness_max": {"mode": "accuracy_constrained", "gamma": 0.1},
            "fit_logreg_fine_grained": {"mode": "fine_grained", "per_point_gammas": [0.5] * ds.n, "protected_index_set": []},
            "fit_linear_svm_fair": {"mode": "unconstrained", "svm_cost": 1.0},
            "fit_kernel_svm_fair": {"mode": "unconstrained", "svm_cost": 1.0},
        }[fit_name]
        foreign = {"svm_cost": 5.0, "kernel": KernelSpec(), "l2_penalty": 3.0}[field]
        with pytest.raises(ValueError, match=f"{field} is not used by"):
            getattr(models, fit_name)(ds, FitSpec(**own, **{field: foreign}))

    def test_kernel_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(kind="poly")
        with pytest.raises(ValueError):
            KernelSpec(kind="rbf", rbf_gamma=float("nan"))
        with pytest.raises(ValueError):
            KernelSpec(kind="rbf", rbf_gamma=0.0)


class TestGradients:
    def test_loss_and_constraint_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            ds, w = random_instance(trial, n=20)
            theta = rng.normal(size=2)
            analytic = logistic_loss_gradient(theta, ds.features, ds.labels, 1e-3)
            numeric = finite_difference_gradient(
                lambda t: logistic_loss(t, ds.features, ds.labels, 1e-3), theta
            )
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)
            # covariance constraint value w . theta has constant gradient w
            numeric_w = finite_difference_gradient(lambda t: float(w @ t), theta)
            np.testing.assert_allclose(w, numeric_w, rtol=1e-6, atol=1e-10)

    def test_posed_hessians_match_finite_differences(self, monkeypatch):
        # the Newton steps trust the Hessians the fits pose: the upper
        # triangle of each must be the derivative of the gradient posed with it
        ds, _ = random_instance(23, n=40)
        problems = count_smooth_solves(monkeypatch)
        fit_logreg(ds, FitSpec(mode="unconstrained", l2_penalty=0.01))
        fit_linear_svm_fair(ds, FitSpec(mode="unconstrained", svm_cost=2.0))
        fit_logreg_fairness_max(ds, FitSpec(mode="accuracy_constrained", gamma=0.1))
        assert any(problem.convex_constraints for problem in problems)
        rng = np.random.default_rng(5)

        def derivative(fn, x, step=1e-6):
            columns = []
            for j in range(x.size):
                e = np.zeros_like(x)
                e[j] = step
                columns.append((np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2.0 * step))
            return np.stack(columns, axis=-1)

        for problem in problems:
            x = rng.normal(size=problem.dimension)
            hessian = np.array(problem.hessian(x))
            np.testing.assert_allclose(np.triu(hessian), np.triu(derivative(problem.gradient, x)), rtol=1e-5, atol=1e-7)
            for block in problem.convex_constraints:
                t = rng.random(block.size)
                numeric = np.tensordot(t, derivative(block.jacobian, x), axes=1)
                np.testing.assert_allclose(np.triu(block.hessian(x, t)), np.triu(numeric), rtol=1e-5, atol=1e-7)

    def test_per_point_losses_sum_to_total(self):
        ds, _ = random_instance(3, n=15)
        theta = np.array([0.4, -0.2])
        per_point = per_point_logistic_loss(theta, ds.features, ds.labels)
        total = logistic_loss(theta, ds.features, ds.labels)
        assert per_point.sum() == pytest.approx(total)


class TestLogisticOracle:
    """_logistic_problem reads one product X @ theta and one exp per row at each point."""

    @staticmethod
    def wide_margins(seed: int, n: int = 400, d: int = 6) -> tuple:
        # |X @ theta| spread from 1e-3 to 4,000, both signs, so that e^-|m|
        # underflows to zero on the largest margins
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(n, d))
        theta = rng.normal(size=d)
        features *= (rng.permutation(np.geomspace(1e-3, 4e3, n)) / np.abs(features @ theta))[:, None]
        labels = rng.choice([-1.0, 1.0], size=n)
        return features, labels, theta

    @pytest.mark.parametrize("l2_penalty", [0.0, 0.3])
    def test_value_and_gradient_are_the_loss_over_n_bit_for_bit(self, l2_penalty):
        features, labels, theta = self.wide_margins(31)
        assert np.max(np.abs(features @ theta)) == pytest.approx(4e3)
        problem = models._logistic_problem(features, labels, l2_penalty)
        inv_n = 1.0 / labels.size
        for point in (theta, -0.5 * theta, np.zeros_like(theta)):
            gradient = problem.gradient(point)  # a new point read by its gradient first
            assert problem.objective(point) == logistic_loss(point, features, labels, l2_penalty) * inv_n
            want = logistic_loss_gradient(point, features, labels, l2_penalty) * inv_n
            np.testing.assert_array_equal(gradient.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("l2_penalty", [0.0, 0.3])
    def test_hessian_is_the_sigmoid_weighted_gram(self, l2_penalty):
        features, labels, theta = self.wide_margins(32)
        n, d = features.shape
        problem = models._logistic_problem(features, labels, l2_penalty)
        for point in (theta, 0.25 * theta):
            m = features @ point
            with np.errstate(over="ignore"):
                weight = 1.0 / (1.0 + np.exp(-m)) / (1.0 + np.exp(m))
            want = (features.T * weight) @ features / n + 2.0 * l2_penalty / n * np.eye(d)
            problem.objective(point)
            got = np.array(problem.hessian(point))
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_one_exp_per_point(self, monkeypatch):
        features, labels, theta = self.wide_margins(33)
        problem = models._logistic_problem(features, labels, 0.3)
        sizes = []
        exp = np.exp
        monkeypatch.setattr(np, "exp", lambda x, *args, **kwargs: sizes.append(np.size(x)) or exp(x, *args, **kwargs))
        for point in (theta, 0.5 * theta):
            problem.objective(point)
            problem.gradient(point)
            problem.hessian(point)
            problem.objective(point)
        assert sizes == [labels.size, labels.size]


class TestLog1pExp:
    """The per-point loss log(1 + e^t), at t = -m, of :func:`per_point_logistic_loss`."""

    def test_bitwise_equal_to_two_branch_formula(self):
        def two_branch(t):
            out = np.empty_like(t)
            pos = t > 0
            out[pos] = t[pos] + np.log1p(np.exp(-t[pos]))
            out[~pos] = np.log1p(np.exp(t[~pos]))
            return out

        edges = np.array([0.0, 5e-324, 1e-300, 709.0, 745.0, 1e308])
        edges = np.concatenate([edges, -edges, [np.inf, -np.inf]])
        draw = np.random.default_rng(0).normal(scale=30.0, size=100_000)
        for t in (edges, draw):
            # one feature of value t with theta = 1 and label -1: the margin is exactly -t
            losses = per_point_logistic_loss(np.ones(1), t[:, None], -np.ones(t.size))
            np.testing.assert_array_equal(losses.view(np.int64), two_branch(t).view(np.int64))


class TestMarginBound:
    def test_inverts_the_per_row_loss(self):
        # log(1 + e^-m(b)) = b from b = 1e-12 to 1e3; the naive -log(expm1(b))
        # is -inf past b ~ 710
        budget = np.logspace(-12, 3, 2001)
        margin = _margin_bound(budget)
        losses = per_point_logistic_loss(np.ones(1), margin[:, None], np.ones(margin.size))
        np.testing.assert_allclose(losses, budget, rtol=1e-12, atol=0.0)
        assert np.all(np.diff(margin) < 0)


class TestBaselineMemo:
    def test_gamma_fit_reuses_the_baseline(self, monkeypatch):
        ds, _ = random_instance(10, n=80)
        fit_logreg(ds, FitSpec(mode="unconstrained"))
        calls = count_smooth_solves(monkeypatch)
        model = fit_logreg_fairness_max(ds, FitSpec(mode="accuracy_constrained", gamma=0.5))
        assert len(calls) == 1
        assert not model.training_meta["closed_form"]

    def test_other_inputs_refit(self, monkeypatch):
        ds, _ = random_instance(10, n=80)
        spec = FitSpec(mode="unconstrained", l2_penalty=1e-3)
        fair = FitSpec(mode="fairness_constrained", covariance_thresholds=0.0, l2_penalty=1e-3)
        calls = count_smooth_solves(monkeypatch)
        first = fit_logreg(ds, spec)
        assert np.array_equal(fit_logreg(ds, spec).theta, first.theta)
        assert len(calls) == 2  # fit_logreg solves on every call
        before = len(calls)
        expected = fit_logreg_fair(ds, fair)
        assert len(calls) == before + 1  # theta* is read from the record
        copy = replace(ds)  # equal rows, another object
        for train, other_spec, settings in (
            (copy, spec, None),
            (ds, FitSpec(mode="unconstrained", l2_penalty=1e-2), None),
            (ds, spec, SolverSettings(kkt_tolerance=1e-7, feasibility_tolerance=1e-8)),
        ):
            monkeypatch.setattr(models, "_theta_star_record", None)
            fit_logreg(train, other_spec, settings)
            before = len(calls)
            got = fit_logreg_fair(ds, fair)
            assert len(calls) == before + 2  # theta* of (ds, 1e-3) first, then the constrained fit
            assert got.theta.tobytes() == expected.theta.tobytes()
        np.testing.assert_array_equal(fit_logreg(copy, spec).theta, first.theta)

    def test_hit_is_not_changed_by_caller_edits(self, monkeypatch):
        # the constrained fits read theta*, L*, status and KKT from the
        # record, not from the meta of the model fit_logreg returned
        ds, _ = random_instance(11, n=60)
        spec = FitSpec(mode="unconstrained")
        gammas = (0.0, 0.5)
        expected = [fit_logreg_fairness_max(ds, FitSpec(mode="accuracy_constrained", gamma=g)) for g in gammas]
        first = fit_logreg(ds, spec)
        meta = first.training_meta
        meta.update(objective=-1.0, status="edited", l2_penalty=1.0)
        meta["kkt"]["stationarity_norm"] = -1.0
        calls = count_smooth_solves(monkeypatch)
        for g, want in zip(gammas, expected):
            got = fit_logreg_fairness_max(ds, FitSpec(mode="accuracy_constrained", gamma=g))
            assert got.theta.tobytes() == want.theta.tobytes()
            assert got.training_meta == want.training_meta
        assert len(calls) == 1  # the gamma = 0.5 fit; gamma = 0 is theta* itself
        assert fit_logreg(ds, spec).training_meta["status"] != "edited"

    def test_gamma_zero_is_the_baseline(self, monkeypatch):
        ds, _ = random_instance(10, n=80)
        base = fit_logreg(ds, FitSpec(mode="unconstrained"))
        calls = count_smooth_solves(monkeypatch)
        model = fit_logreg_fairness_max(ds, FitSpec(mode="accuracy_constrained", gamma=0.0))
        assert not calls
        meta = model.training_meta
        np.testing.assert_array_equal(model.theta.view(np.int64), base.theta.view(np.int64))
        assert meta["closed_form"]
        assert meta["loss"] == meta["loss_star"] == base.training_meta["objective"]
        assert meta["status"] == base.training_meta["status"]
        assert meta["iterations"] == base.training_meta["iterations"]
        assert meta["kkt"] == base.training_meta["kkt"]
        assert meta["objective"] == float(np.sum(np.abs(covariance_vectors(ds) @ base.theta)))


class TestFitLogreg:
    def test_two_point_example(self):
        ds = two_point_dataset()
        model = fit_logreg(ds, FitSpec(mode="unconstrained", l2_penalty=1e-4))
        assert model.theta[0] > 0
        np.testing.assert_array_equal(predict(model, ds.features), [1, -1])

    def test_stationarity_at_optimum(self):
        ds, _ = random_instance(1, n=30)
        model = fit_logreg(ds, FitSpec(mode="unconstrained", l2_penalty=1e-3))
        assert model.training_meta["converged"]
        grad = logistic_loss_gradient(np.asarray(model.theta), ds.features, ds.labels, 1e-3)
        assert np.linalg.norm(grad) / ds.n <= 1e-5

    def test_requires_bias(self):
        ds, _ = random_instance(1, n=10)
        stripped = Dataset(
            features=ds.features[:, :1],
            labels=ds.labels,
            sensitive=ds.sensitive,
            sensitive_names=ds.sensitive_names,
            feature_names=("x1",),
        )
        with pytest.raises(ValueError, match="bias"):
            fit_logreg(stripped, FitSpec(mode="unconstrained"))

    def test_separable_data_auto_ridge(self):
        ds = two_point_dataset()
        model = fit_logreg(ds, FitSpec(mode="unconstrained"))
        assert model.training_meta["auto_ridge"]
        assert model.training_meta["l2_penalty"] > 0
        assert np.all(np.isfinite(model.theta))

    def test_matches_frozen_grid_value(self):
        # frozen from one run of oracles.grid_logistic_unconstrained at
        # resolution 1e-3 over [-5, 5]^2 on this exact instance (~5 min);
        # set FAIRCLF_FULL_GRID=1 to recompute live
        import os

        # instance chosen so the optimum lies inside the grid box
        ds, _ = random_instance(2, n=40)
        frozen = 8.737366748879454
        if os.environ.get("FAIRCLF_FULL_GRID"):
            from oracles import grid_logistic_unconstrained

            frozen = grid_logistic_unconstrained(ds.features, ds.labels, l2=1e-3)
        model = fit_logreg(ds, FitSpec(mode="unconstrained", l2_penalty=1e-3))
        total = logistic_objective(np.asarray(model.theta), ds.features, ds.labels, 1e-3)
        assert total == pytest.approx(frozen, abs=1e-4)


class TestFitLogregFair:
    def test_huge_threshold_matches_unconstrained(self):
        ds, _ = random_instance(4, n=50)
        base = fit_logreg(ds, FitSpec(mode="unconstrained", l2_penalty=1e-3))
        fair = fit_logreg_fair(
            ds, FitSpec(mode="fairness_constrained", covariance_thresholds=1e9, l2_penalty=1e-3)
        )
        assert fair.training_meta["objective"] == pytest.approx(
            base.training_meta["objective"], abs=1e-6
        )

    def test_threshold_respected(self):
        ds, w = random_instance(6, n=50)
        for c in (0.0, 0.05):
            fair = fit_logreg_fair(
                ds, FitSpec(mode="fairness_constrained", covariance_thresholds=c, l2_penalty=1e-3)
            )
            assert fair.training_meta["converged"]
            cov = abs(float(w @ fair.theta))
            assert cov <= c + 1e-5

    def test_against_feasible_grid_oracle(self):
        ds, w = random_instance(8, n=40)
        l2 = 1e-3
        for c in (0.0, 0.1):
            fair = fit_logreg_fair(
                ds, FitSpec(mode="fairness_constrained", covariance_thresholds=c, l2_penalty=l2)
            )
            oracle = grid_logistic_fair(ds.features, ds.labels, l2, w, c)
            total = logistic_objective(np.asarray(fair.theta), ds.features, ds.labels, l2)
            assert total == pytest.approx(oracle, abs=1e-4)

    def test_starts_at_theta_star_with_or_without_the_memo(self, monkeypatch):
        # "the memo" is the theta* record that fit_logreg writes
        ds, w = random_instance(12, n=80)
        base_spec = FitSpec(mode="unconstrained", l2_penalty=1e-3)
        theta_star = fit_logreg(ds, base_spec).theta
        c_star = abs(float(w @ theta_star))
        calls = count_smooth_solves(monkeypatch)
        for c in (0.0, 0.3 * c_star):
            spec = FitSpec(mode="fairness_constrained", covariance_thresholds=c, l2_penalty=1e-3)
            monkeypatch.setattr(models, "_theta_star_record", None)
            before = len(calls)
            cold = fit_logreg_fair(ds, spec)
            assert len(calls) == before + 2  # theta*, then the constrained fit from it
            np.testing.assert_array_equal(calls[-1].initial_point, theta_star)
            fit_logreg(ds, base_spec)
            before = len(calls)
            warm = fit_logreg_fair(ds, spec)
            assert len(calls) == before + 1
            np.testing.assert_array_equal(calls[-1].initial_point, theta_star)
            assert warm.theta.tobytes() == cold.theta.tobytes()
            assert warm.training_meta == cold.training_meta

    def test_feasible_theta_star_is_the_fit(self):
        ds, w = random_instance(13, n=80)
        base = fit_logreg(ds, FitSpec(mode="unconstrained", l2_penalty=1e-3))
        c_star = abs(float(w @ base.theta))
        for c in (c_star, 2.0 * c_star, np.inf):
            fair = fit_logreg_fair(ds, FitSpec(mode="fairness_constrained", covariance_thresholds=c, l2_penalty=1e-3))
            assert fair.training_meta["status"] == "converged"
            assert fair.training_meta["iterations"] <= 1
            np.testing.assert_array_equal(fair.theta, base.theta)

    def test_auto_ridge_theta_star_is_not_the_start(self, monkeypatch):
        # separable: theta* comes from the auto-ridge refit, ||theta*|| ~ 645,
        # far from every constrained optimum; from it the fits took 14, 14, 16
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 2))
        labels = np.where(x[:, 0] + 0.3 * x[:, 1] > 0, 1.0, -1.0)
        z = (x[:, 1] + rng.normal(size=60) > 0).astype(float)
        ds = Dataset(np.column_stack([x, np.ones(60)]), labels, z.reshape(-1, 1), ("z",), ("x0", "x1", "bias"), has_bias_column=True)
        base = fit_logreg(ds, FitSpec(mode="unconstrained"))
        assert base.training_meta["auto_ridge"]
        solve = models.minimize_smooth
        calls = count_smooth_solves(monkeypatch)
        for c, most in ((0.0, 11), (0.05, 12), (0.5, 14)):
            fair = fit_logreg_fair(ds, FitSpec(mode="fairness_constrained", covariance_thresholds=c))
            assert fair.training_meta["status"] == "converged"
            assert fair.training_meta["iterations"] <= most
            np.testing.assert_array_equal(calls[-1].initial_point, np.zeros(3))
            from_star = solve(replace(calls[-1], initial_point=base.theta), models._default_settings())
            assert from_star.status == "converged"
            loss = logistic_loss(from_star.point, ds.features, ds.labels, 0.0)
            assert fair.training_meta["objective"] == pytest.approx(loss, rel=1e-8)

    def test_pareto_loss_path(self):
        ds, w = random_instance(9, n=60)
        c_star = None
        losses = []
        base = fit_logreg(ds, FitSpec(mode="unconstrained", l2_penalty=1e-3))
        c_star = abs(float(w @ base.theta))
        for a in (1.0, 0.8, 0.6, 0.4, 0.2, 0.0):
            fair = fit_logreg_fair(
                ds,
                FitSpec(mode="fairness_constrained", covariance_thresholds=a * c_star, l2_penalty=1e-3),
            )
            losses.append(fair.training_meta["objective"])
        for tighter, looser in zip(losses[1:], losses[:-1]):
            assert tighter >= looser * (1.0 - 1e-8)


class TestFairnessMax:
    def test_gamma_zero_endpoints(self):
        ds, w = random_instance(10, n=80)
        base = fit_logreg(ds, FitSpec(mode="unconstrained"))
        loss_star = base.training_meta["objective"]
        cov_star = abs(float(w @ base.theta))
        model = fit_logreg_fairness_max(ds, FitSpec(mode="accuracy_constrained", gamma=0.0))
        assert model.training_meta["loss"] <= loss_star * (1.0 + 1e-6)
        assert abs(float(w @ model.theta)) <= cov_star + 1e-9

    def test_larger_gamma_reduces_covariance(self):
        ds = append_bias(gen_linear_synthetic(SynthConfig(n=1000, phi=np.pi / 4, seed=3)))
        w = covariance_vectors(ds)
        covs = []
        for gamma in (0.0, 0.2, 1.0):
            model = fit_logreg_fairness_max(ds, FitSpec(mode="accuracy_constrained", gamma=gamma))
            covs.append(float(np.sum(np.abs(w @ model.theta))))
        assert covs[1] < covs[0]
        assert covs[2] < covs[1]

    def test_independent_sensitive_already_fair(self):
        rng = np.random.default_rng(12)
        n = 400
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        x1 = rng.normal(1.5 * labels, 1.0)
        z = (rng.random(n) < 0.5).astype(float)  # independent of everything
        ds = Dataset(
            features=np.column_stack([x1, np.ones(n)]),
            labels=labels,
            sensitive=z.reshape(-1, 1),
            sensitive_names=("z",),
            feature_names=("x1", "bias"),
            has_bias_column=True,
        )
        base = fit_logreg(ds, FitSpec(mode="unconstrained"))
        w = covariance_vectors(ds)[0]
        cov_star = abs(float(w @ base.theta))
        assert cov_star < 0.3  # independence keeps the raw covariance small
        model = fit_logreg_fairness_max(ds, FitSpec(mode="accuracy_constrained", gamma=0.1))
        assert model.training_meta["loss"] <= (1.1) * base.training_meta["objective"] * (1 + 1e-8)
        assert abs(float(w @ model.theta)) <= cov_star


class TestLossBudgetReport:
    @staticmethod
    def zero_boundary_gamma(ds):
        # (1 + gamma) L* = L* + n log 2 admits theta = 0, whose loss is n log 2
        base = fit_logreg(ds, FitSpec(mode="unconstrained"))
        return ds.n * math.log(2.0) / base.training_meta["objective"]

    def test_zero_boundary_is_closed_form(self, monkeypatch):
        ds, _ = random_instance(10, n=80)
        gamma = self.zero_boundary_gamma(ds)
        calls = count_smooth_solves(monkeypatch)
        model = fit_logreg_fairness_max(ds, FitSpec(mode="accuracy_constrained", gamma=gamma))
        assert not calls
        meta = model.training_meta
        np.testing.assert_array_equal(model.theta, np.zeros(ds.n_features))
        assert meta["closed_form"] and meta["converged"]
        assert meta["iterations"] == 0
        assert meta["objective"] == 0.0
        assert meta["loss"] == pytest.approx(ds.n * math.log(2.0), rel=1e-14)

    def test_every_outcome_reports_the_same_fields(self):
        ds = append_bias(gen_linear_synthetic(SynthConfig(n=400, phi=np.pi / 4, seed=3)))
        w = covariance_vectors(ds)
        outcomes = [
            fit_logreg_fairness_max(ds, FitSpec(mode="accuracy_constrained", gamma=gamma))
            for gamma in (0.0, 0.2, self.zero_boundary_gamma(ds))
        ]
        assert [model.training_meta["closed_form"] for model in outcomes] == [True, False, True]
        assert not outcomes[2].theta.any()
        assert len({frozenset(model.training_meta) for model in outcomes}) == 1
        fine = fit_logreg_fine_grained(
            ds, FitSpec(mode="fine_grained", per_point_gammas=np.ones(ds.n), protected_index_set=[])
        )
        for model in outcomes + [fine]:
            meta = model.training_meta
            assert meta["converged"]
            covariance = w @ model.theta
            assert meta["covariance"] == covariance.tolist()
            assert meta["objective"] == float(np.sum(np.abs(covariance)))
            assert meta["loss"] == logistic_loss(model.theta, ds.features, ds.labels, meta["l2_penalty"])


class TestFineGrained:
    def test_unconstrained_reduction(self):
        ds, w = random_instance(13, n=50)
        spec = FitSpec(
            mode="fine_grained",
            per_point_gammas=np.full(ds.n, np.inf),
            protected_index_set=[],
        )
        model = fit_logreg_fine_grained(ds, spec)
        assert float(np.sum(np.abs(w @ model.theta))) <= 1e-6

    def test_gamma_zero_keeps_every_likelihood(self):
        ds, _ = random_instance(14, n=60)
        base = fit_logreg(ds, FitSpec(mode="unconstrained"))
        loss_star_i = per_point_logistic_loss(np.asarray(base.theta), ds.features, ds.labels)
        spec = FitSpec(
            mode="fine_grained",
            per_point_gammas=np.zeros(ds.n),
            protected_index_set=[],
        )
        model = fit_logreg_fine_grained(ds, spec)
        loss_i = per_point_logistic_loss(np.asarray(model.theta), ds.features, ds.labels)
        assert np.all(loss_i <= loss_star_i + 1e-9)

    def test_protected_rows_never_flip(self):
        ds = append_bias(gen_linear_synthetic(SynthConfig(n=1500, phi=np.pi / 4, seed=5)))
        base = fit_logreg(ds, FitSpec(mode="unconstrained"))
        base_positive = decision_values(base, ds.features) >= 0
        protected = np.flatnonzero(base_positive & (ds.sensitive[:, 0] == 1))
        spec = FitSpec(
            mode="fine_grained",
            per_point_gammas=np.full(ds.n, 1.0),
            protected_index_set=protected,
        )
        model = fit_logreg_fine_grained(ds, spec)
        d_new = decision_values(model, ds.features)
        assert int(np.sum(d_new[protected] < 0)) == 0

    def test_mixed_budgets_hold_in_loss_form(self):
        # per-row gamma 0, finite or infinite, and some protected rows: the
        # margin rows must keep each budget as a bound on the row's loss. The
        # gamma = 0 rows leave no interior around theta*, which the solver
        # need not certify, so the status is not asserted; the budgets must
        # hold either way.
        ds = append_bias(gen_linear_synthetic(SynthConfig(n=1200, phi=np.pi / 4, seed=7)))
        base = fit_logreg(ds, FitSpec(mode="unconstrained"))
        protected = protected_rows(base, ds, group=1)[::2]
        gammas = np.random.default_rng(7).choice([0.0, 0.3, 2.0, np.inf], size=ds.n)
        spec = FitSpec(mode="fine_grained", per_point_gammas=gammas, protected_index_set=protected)
        model = fit_logreg_fine_grained(ds, spec)
        loss_star_i = per_point_logistic_loss(np.asarray(base.theta), ds.features, ds.labels)
        loss_i = per_point_logistic_loss(np.asarray(model.theta), ds.features, ds.labels)
        budgeted = np.isfinite(gammas)
        budgeted[protected] = False
        excess = loss_i[budgeted] - (1.0 + gammas[budgeted]) * loss_star_i[budgeted]
        assert np.all(excess <= 1e-9)
        assert np.max(excess) > -1e-9  # some budget binds
        assert np.all(decision_values(model, ds.features)[protected] >= 0)

    def test_bad_inputs(self):
        ds, _ = random_instance(15, n=20)
        with pytest.raises(ValueError, match="per_point_gammas"):
            fit_logreg_fine_grained(
                ds,
                FitSpec(mode="fine_grained", per_point_gammas=np.zeros(3), protected_index_set=[]),
            )
        # a negative index is refused, not wrapped round to a row from the end
        for bad in ([ds.n + 3], [2, -1], [-1], np.array([ds.n]), np.array([-ds.n]), {0, ds.n}):
            with pytest.raises(ValueError, match="out of range"):
                fit_logreg_fine_grained(
                    ds,
                    FitSpec(mode="fine_grained", per_point_gammas=np.zeros(ds.n), protected_index_set=bad),
                )

    def test_protected_set_forms_agree(self):
        # a sorted array, an unsorted list or array with repeats and a Python
        # set are the same protected rows; an empty list and an empty array
        # are none
        ds = append_bias(gen_linear_synthetic(SynthConfig(n=400, phi=np.pi / 4, seed=9)))
        base = fit_logreg(ds, FitSpec(mode="unconstrained"))
        rows = protected_rows(base, ds, group=1)[::3]
        shuffled = list(np.random.default_rng(9).permutation(rows)) + [int(rows[0]), int(rows[-1])]

        def fitted(index):
            spec = FitSpec(mode="fine_grained", per_point_gammas=np.full(ds.n, 1.0), protected_index_set=index)
            model = fit_logreg_fine_grained(ds, spec)
            return model.theta.tobytes(), model.training_meta["n_protected"]

        want = fitted(rows)
        assert want[1] == rows.size
        assert fitted(shuffled) == want
        assert fitted(np.array(shuffled)) == want
        assert fitted({int(i) for i in rows}) == want
        assert fitted([]) == fitted(np.array([], dtype=int))
        assert fitted([])[1] == 0
        assert fitted(rows.astype(float)) == want  # integral floats are row numbers

    @pytest.mark.parametrize("index", ["mask", [2.7], [np.nan]], ids=["mask", "fraction", "nan"])
    def test_rejects_an_index_that_is_not_row_numbers(self, index):
        # a cast to int read the mask of rows 5, 7 and 9 as rows 0 and 1, and 2.7 as row 2
        ds = append_bias(gen_linear_synthetic(SynthConfig(n=200, phi=np.pi / 4, seed=9)))
        if index == "mask":
            index = np.zeros(ds.n, dtype=bool)
            index[[5, 7, 9]] = True
        spec = FitSpec(mode="fine_grained", per_point_gammas=np.full(ds.n, 1.0), protected_index_set=index)
        with pytest.raises(ValueError, match="integer row indices"):
            fit_logreg_fine_grained(ds, spec)


def wide_dataset(n: int, d: int, seed: int) -> Dataset:
    """Gaussian features plus bias; z follows x0, the label mostly x1..x5."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    z = (rng.random(n) < 1.0 / (1.0 + np.exp(-2.0 * x[:, 0]))).astype(float)
    score = x[:, 1:6] @ rng.normal(size=5) + 0.3 * x[:, 0]
    labels = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-score)), 1.0, -1.0)
    ds = Dataset(
        features=x,
        labels=labels,
        sensitive=z[:, None],
        sensitive_names=("z",),
        feature_names=tuple(f"x{j}" for j in range(d)),
    )
    return append_bias(ds)


class TestPointLossBlock:
    def test_fine_grained_fit_forms_no_dense_jacobian(self):
        # an n x (d+K) Jacobian per evaluation took the parent's peak to 3.1x X
        ds = wide_dataset(3000, 60, seed=12)
        base = fit_logreg(ds, FitSpec(mode="unconstrained"))
        spec = FitSpec(
            mode="fine_grained",
            per_point_gammas=np.full(ds.n, 3.0),
            protected_index_set=protected_rows(base, ds, group=1),
        )
        tracemalloc.start()
        try:
            model = fit_logreg_fine_grained(ds, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.training_meta["status"] == "converged"
        assert peak < 2.0 * ds.features.nbytes

    @pytest.mark.parametrize("n", [4000, 5000])
    def test_wide_fit_certifies_at_gamma_one(self, n):
        # the summed covariance cannot reach zero within these budgets, so
        # many budget rows bind at the optimum: the fit certifies only when
        # each subproblem is solved past the rounding of its value
        ds = wide_dataset(n, 60, seed=12)
        base = fit_logreg(ds, FitSpec(mode="unconstrained"))
        spec = FitSpec(
            mode="fine_grained",
            per_point_gammas=np.full(ds.n, 1.0),
            protected_index_set=protected_rows(base, ds, group=1),
        )
        meta = fit_logreg_fine_grained(ds, spec).training_meta
        assert meta["status"] == "converged"
        assert meta["iterations"] < 500


class TestLinearSvm:
    def test_two_point_max_margin(self):
        ds = two_point_dataset()
        model = fit_linear_svm_fair(
            ds, FitSpec(mode="unconstrained", svm_cost=1e9)
        )
        margins = ds.labels * (ds.features @ model.theta)
        np.testing.assert_allclose(margins, 1.0, atol=1e-5)
        assert abs(model.theta[1]) < 1e-5  # boundary through the origin in x1

    def test_infinite_threshold_matches_unconstrained(self):
        ds, _ = random_instance(16, n=30)
        unconstrained = fit_linear_svm_fair(ds, FitSpec(mode="unconstrained", svm_cost=2.0))
        fair = fit_linear_svm_fair(
            ds, FitSpec(mode="fairness_constrained", covariance_thresholds=np.inf, svm_cost=2.0)
        )
        assert fair.training_meta["objective"] == pytest.approx(
            unconstrained.training_meta["objective"], rel=1e-5, abs=1e-5
        )

    def test_exact_hinge_against_active_set_oracle(self):
        ds, w = random_instance(17, n=8, min_w=0.2)
        for c in (np.inf, 0.05):
            model = fit_linear_svm_fair(
                ds,
                FitSpec(
                    mode="fairness_constrained" if np.isfinite(c) else "unconstrained",
                    covariance_thresholds=c if np.isfinite(c) else None,
                    svm_cost=1.0,
                ),
            )
            oracle_value, _ = active_set_svm(ds.features, ds.labels, 1.0, w=w, c=c)
            achieved = hinge_objective(np.asarray(model.theta), ds.features, ds.labels, 1.0)
            assert achieved == pytest.approx(oracle_value, abs=1e-5)

    def test_exact_hinge_factors_only_theta_sized_matrices(self, monkeypatch):
        # the xi columns are eliminated: no Newton matrix grows with n
        import fairclf.solvers

        sizes = []
        cholesky = fairclf.solvers._cholesky
        monkeypatch.setattr(
            fairclf.solvers, "_cholesky", lambda m, *args, **kwargs: sizes.append(m.shape[0]) or cholesky(m, *args, **kwargs)
        )
        ds = append_bias(gen_linear_synthetic(SynthConfig(n=400, phi=np.pi / 4, seed=1)))
        for spec in (
            FitSpec(mode="unconstrained", svm_cost=1.0),
            FitSpec(mode="fairness_constrained", covariance_thresholds=0.0, svm_cost=1.0),
        ):
            sizes.clear()
            model = fit_linear_svm_fair(ds, spec)
            assert model.training_meta["status"] == "converged"
            assert sizes and max(sizes) <= ds.features.shape[1]

        small, w = random_instance(17, n=8, min_w=0.2)
        sizes.clear()
        spec = FitSpec(mode="fairness_constrained", covariance_thresholds=0.05, svm_cost=1.0)
        model = fit_linear_svm_fair(small, spec)
        assert max(sizes) <= small.features.shape[1]
        oracle_value, _ = active_set_svm(small.features, small.labels, 1.0, w=w, c=0.05)
        assert model.training_meta["objective"] == pytest.approx(oracle_value, abs=1e-5)

    def test_zero_threshold_covariance_and_rule(self):
        from fairclf.metrics import audit

        ds = append_bias(gen_linear_synthetic(SynthConfig(n=800, phi=np.pi / 8, seed=2)))
        w = covariance_vectors(ds)[0]
        model = fit_linear_svm_fair(
            ds, FitSpec(mode="fairness_constrained", covariance_thresholds=0.0, svm_cost=1.0)
        )
        assert abs(float(w @ model.theta)) <= 1e-5
        report = audit(decision_values(model, ds.features), ds)
        assert report.p_percent["z"] >= 95.0


class TestExactHingeDual:
    """The exact hinge, fitted through its dual, against the (theta, xi) primal of ``oracles.exact_hinge_primal``."""

    @staticmethod
    def check(ds, spec, c, monkeypatch):
        duals = []
        monkeypatch.setattr(models, "solve_qp", lambda p, s=None: duals.append(solve_qp(p, s)) or duals[-1])
        model = fit_linear_svm_fair(ds, spec)
        assert model.training_meta["status"] == "converged"
        theta = exact_hinge_primal(ds.features, ds.labels, ds.sensitive, spec.svm_cost, c)
        np.testing.assert_allclose(model.theta, theta, rtol=0, atol=1e-6)
        # the dual minimizes the negated dual function of the mean-scaled primal
        primal = model.training_meta["objective"] / ds.n
        assert abs(primal + duals[0].objective_value) <= 1e-6 * primal
        return model

    @pytest.mark.parametrize("n", [60, 400])
    @pytest.mark.parametrize("c", [np.inf, 0.0, 0.05])
    def test_matches_the_primal(self, n, c, monkeypatch):
        ds = append_bias(gen_linear_synthetic(SynthConfig(n=n, phi=np.pi / 4, seed=1)))
        if np.isfinite(c):
            spec = FitSpec(mode="fairness_constrained", covariance_thresholds=c, svm_cost=1.0)
        else:
            spec = FitSpec(mode="unconstrained", svm_cost=1.0)
        self.check(ds, spec, c, monkeypatch)

    def test_large_cost_with_a_binding_row(self, monkeypatch):
        # the nu of the binding c > 0 row ends inside its box, so its Newton
        # weight tends to zero; without the proximal term in the Woodbury
        # solve this fit took 6,983 iterations
        ds = append_bias(gen_linear_synthetic(SynthConfig(n=400, phi=np.pi / 4, seed=1)))
        spec = FitSpec(mode="fairness_constrained", covariance_thresholds=0.05, svm_cost=1000.0)
        assert self.check(ds, spec, 0.05, monkeypatch).training_meta["iterations"] <= 100

    def test_two_columns(self, monkeypatch):
        two, _ = two_column_datasets()
        free = fit_linear_svm_fair(two, FitSpec(mode="unconstrained", svm_cost=1.0))
        c = [0.0, 0.5 * abs(free.training_meta["covariance"][1])]
        spec = FitSpec(mode="fairness_constrained", covariance_thresholds=c, svm_cost=1.0)
        self.check(two, spec, c, monkeypatch)


class TestConstraintRows:
    """The fits' constraint matrices equal a row-by-row construction bit for bit.

    The solvers' iterates follow the last bits of the rows, so a change in
    how the rows are scaled or ordered changes the fitted models.
    """

    def test_covariance_rows(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(4, 37))
        w[3] = 0.0  # a constant sensitive column
        c = np.array([0.0, 0.3, np.inf, 0.0])
        rows = []
        for k in (0, 1, 3):
            rows += [(w[k], c[k]), (-w[k], c[k])]
        want_a, want_b = unit_rows_reference(rows)
        # c > 0 rows stay inequalities, one side each; the c = 0 row of zeros is left out of E
        (ineq_a, ineq_b), e = _covariance_split(w, c)
        assert ineq_a.tobytes() == want_a[2:3].tobytes() and ineq_b.tobytes() == want_b[2:3].tobytes()
        assert e.tobytes() == want_a[:1].tobytes()
        # the +/- pairs the fits pose are the pairs divided by their own norms, bit for bit
        pairs_a, pairs_b = _interleave(ineq_a, -ineq_a), np.repeat(ineq_b, 2)
        assert pairs_a.tobytes() == want_a[2:4].tobytes() and pairs_b.tobytes() == want_b[2:4].tobytes()

    def test_epigraph_rows(self):
        w = np.random.default_rng(13).normal(size=(3, 9))
        rows = []
        for k in range(3):
            t = np.zeros(3)
            t[k] = 1.0
            rows += [(np.concatenate([w[k], -t]), 0.0), (np.concatenate([-w[k], -t]), 0.0)]
        want_a, want_b = unit_rows_reference(rows)
        got_a, got_b = _epigraph_rows(w)
        assert got_a.tobytes() == want_a.tobytes() and got_b.tobytes() == want_b.tobytes()

    def test_margin_rows(self):
        # more rows than one chunk of the builder, in no particular order;
        # the builder scales once by -s_i / ||x_i||, so entries may differ in the last bit
        rng = np.random.default_rng(14)
        w, features = rng.normal(size=(2, 9)), rng.normal(size=(3000, 9))
        rows = rng.permutation(3000)[:2500]
        signs, margins = np.where(rng.random(2500) < 0.5, 1.0, -1.0), rng.normal(size=2500)
        want_a, want_b = margin_rows_reference(w, features, rows, signs, margins)
        got_a, got_b = _margin_rows(w, features, rows, signs, margins)
        assert got_a.shape == want_a.shape and got_b.shape == want_b.shape
        np.testing.assert_allclose(got_a, want_a, rtol=0, atol=1e-15)
        np.testing.assert_allclose(got_b, want_b, rtol=0, atol=1e-15)


def race_dataset(n: int = 1500, seed: int = 3) -> Dataset:
    """Five features plus bias with a five-category one-hot sensitive block that x0 predicts."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 5))
    race = np.clip(np.floor(1.5 * x[:, 0] + rng.normal(size=n) + 2.5), 0, 4).astype(int)
    score = x[:, 1:4] @ np.array([1.0, -0.7, 0.5]) + 0.8 * x[:, 0]
    labels = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-score)), 1.0, -1.0)
    return append_bias(
        Dataset(
            features=x,
            labels=labels,
            sensitive=np.eye(5)[race],
            sensitive_names=tuple(f"race={k}" for k in range(5)),
            feature_names=tuple(f"x{j}" for j in range(5)),
        )
    )


class TestRankDeficientEqualities:
    def test_race_one_hot_at_zero(self, caplog):
        # the centred one-hot columns sum to zero, so the five rows of W have rank 4
        ds = race_dataset()
        w = covariance_vectors(ds)
        assert np.linalg.matrix_rank(w) == 4
        with caplog.at_level(logging.DEBUG, logger="fairclf.solvers"):
            model = fit_logreg_fair(ds, FitSpec(mode="fairness_constrained", covariance_thresholds=0.0))
        assert "equality rows=5 rank=4" in caplog.text
        meta = model.training_meta
        assert meta["converged"], meta["status"]
        assert np.max(np.abs(w @ model.theta)) <= 1e-12
        free = fit_logreg(ds, FitSpec(mode="unconstrained"))
        assert np.max(np.abs(w @ free.theta)) > 1e-2  # the bound changes the fit


def two_column_datasets() -> tuple[Dataset, Dataset]:
    """Nonlinear synthetic rows with two sensitive columns: z and a noisy copy, or z and a constant."""
    base = gen_nonlinear_synthetic(SynthConfig(n=300, phi=np.pi / 4, seed=7, variant="nonlinear"))
    z = base.sensitive[:, 0]
    z2 = (np.random.default_rng(0).random(base.n) < 0.3 + 0.4 * z).astype(float)

    def with_columns(second: np.ndarray, name: str) -> Dataset:
        return append_bias(
            Dataset(base.features, base.labels, np.column_stack([z, second]), ("z", name), base.feature_names)
        )

    return with_columns(z2, "z2"), with_columns(np.ones(base.n), "one")


# fit, its options, and the bound on a c_k = 0 covariance: the linear SVM
# eliminates that row exactly, the kernel dual keeps it as an equality row
# of its interior-point solve
SVM_FITS = {
    "exact_hinge": (fit_linear_svm_fair, {"svm_cost": 1.0}, 1e-12),
    "rbf_kernel": (fit_kernel_svm_fair, {"svm_cost": 10.0, "kernel": KernelSpec(kind="rbf", rbf_gamma=0.5)}, 1e-8),
}


class TestTwoColumnThresholds:
    """Fits with K = 2: a c_k = 0 column is an equality, a c_k > 0 column a pair of inequalities."""

    @staticmethod
    def check(model, c):
        meta = model.training_meta
        assert meta["converged"], meta["status"]
        assert np.all(np.abs(meta["covariance"]) <= np.asarray(c) + 1e-8)

    @pytest.mark.parametrize("name", sorted(SVM_FITS))
    def test_zero_and_binding_thresholds(self, name):
        fit_fn, options, zero_tolerance = SVM_FITS[name]
        two, _ = two_column_datasets()
        free = fit_fn(two, FitSpec(mode="unconstrained", **options))
        c = [0.0, 0.5 * abs(free.training_meta["covariance"][1])]
        model = fit_fn(two, FitSpec(mode="fairness_constrained", covariance_thresholds=c, **options))
        self.check(model, c)
        cov = model.training_meta["covariance"]
        assert abs(cov[0]) <= zero_tolerance
        # the c_1 row binds
        assert abs(cov[1]) == pytest.approx(c[1], rel=1e-6)
        assert abs(cov[1]) == pytest.approx(c[1], abs=1e-8)

    @pytest.mark.parametrize("c1, binds", [(0.1, False), (0.002, True)])
    def test_logistic_equality_with_inequalities(self, c1, binds):
        # c_0 = 0 is eliminated exactly; c_1 stays two inequality rows. With
        # c_0 = 0 alone, |cov_1| is about 0.0044, so 0.1 is slack and 0.002 binds
        two, _ = two_column_datasets()
        model = fit_logreg_fair(two, FitSpec(mode="fairness_constrained", covariance_thresholds=[0.0, c1]))
        self.check(model, [0.0, c1])
        cov = model.training_meta["covariance"]
        assert abs(cov[0]) <= 1e-12
        if binds:
            assert abs(cov[1]) == pytest.approx(c1, rel=1e-6)
        else:
            assert abs(cov[1]) < 0.5 * c1

    @pytest.mark.parametrize("name", sorted(SVM_FITS))
    def test_constant_column_at_zero(self, name):
        # the constant column's covariance row is all zeros and holds everywhere
        fit_fn, options, zero_tolerance = SVM_FITS[name]
        _, constant = two_column_datasets()
        model = fit_fn(constant, FitSpec(mode="fairness_constrained", covariance_thresholds=[0.0, 0.0], **options))
        self.check(model, [0.0, 0.0])
        assert abs(model.training_meta["covariance"][0]) <= zero_tolerance


C10_KERNEL = KernelSpec(kind="rbf", rbf_gamma=0.04)


def c10_rows(n: int, seed: int = 1) -> Dataset:
    """Rows of the C10 shape: the nonlinear synthetic generator with the bias column appended."""
    return append_bias(gen_nonlinear_synthetic(SynthConfig(n=n, phi=np.pi / 4, seed=seed, variant="nonlinear")))


def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc saw allocated while fn ran)."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


class TestGramFactor:
    """The pivoted incomplete Cholesky that gives the kernel dual its factor, built from kernel rows."""

    def test_rbf_residual_trace_within_tolerance(self):
        features = c10_rows(400).features
        gram = gram_matrix(C10_KERNEL, features, features)
        factor = models._gram_factor(C10_KERNEL, features)
        residual = gram - factor @ factor.T
        assert factor.shape[0] == 400
        assert factor.shape[1] < 400
        assert 0 <= np.trace(residual) <= models._GRAM_FACTOR_TOLERANCE * np.trace(gram)
        # the residual of a pivoted Cholesky is PSD, so its entries are bounded by its trace
        assert np.abs(residual).max() <= models._GRAM_FACTOR_TOLERANCE * np.trace(gram)

    def test_linear_kernel_is_exact_at_its_rank(self):
        features = np.random.default_rng(3).normal(size=(150, 3))
        kernel = KernelSpec(kind="linear")
        factor = models._gram_factor(kernel, features)
        assert factor.shape == (150, 3)
        np.testing.assert_allclose(factor @ factor.T, gram_matrix(kernel, features, features), rtol=0, atol=1e-10)

    def test_columns_come_from_the_kernel_rows(self):
        # the first pivot of an RBF Gram is row 0, whose kernel row is the
        # first column as it is: the same values as gram_matrix gives
        features = c10_rows(300).features
        factor = models._gram_factor(C10_KERNEL, features)
        assert np.array_equal(factor[:, 0], gram_matrix(C10_KERNEL, features[:1], features)[0])

    def test_zero_gram_has_rank_zero(self):
        assert models._gram_factor(KernelSpec(kind="linear"), np.zeros((5, 2))).shape == (5, 0)

    def test_allocates_no_square_array(self):
        features = c10_rows(1500).features
        factor, peak = traced_peak(lambda: models._gram_factor(C10_KERNEL, features))
        assert peak < 0.5 * 1500 * 1500 * 8
        assert peak < 4 * factor.nbytes

    def test_logs_rank_and_residual_trace_once(self, caplog):
        features = np.random.default_rng(4).normal(size=(60, 6))
        with caplog.at_level(logging.DEBUG, logger="fairclf.models"):
            models._gram_factor(KernelSpec(kind="linear"), features)
        records = [r.getMessage() for r in caplog.records if r.getMessage().startswith("q_factor")]
        assert len(records) == 1
        rank, trace = records[0].removeprefix("q_factor rank=").split(" residual trace=")
        assert int(rank) == 6
        assert 0 <= float(trace) <= models._GRAM_FACTOR_TOLERANCE * float(np.sum(features * features))


class TestKernelProduct:
    """K(a, b) @ m over row blocks of a, against the whole kernel at once."""

    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    @pytest.mark.parametrize("kind", ["rbf", "linear"])
    def test_matches_the_whole_kernel(self, kind, offset):
        kernel = C10_KERNEL if kind == "rbf" else KernelSpec(kind="linear")
        rng = np.random.default_rng(6)
        b = rng.normal(size=(600, 3))
        block = models._KERNEL_BLOCK_ENTRIES // b.shape[0]
        rows = 1 if offset is None else block + offset
        for n_rows in (0, rows):
            a = rng.normal(size=(n_rows, 3))
            for m in (rng.normal(size=600), rng.normal(size=(600, 2))):
                got = models._kernel_product(kernel, a, b, m)
                want = gram_matrix(kernel, a, b) @ m
                assert got.shape == want.shape
                scale = max(1.0, float(np.abs(want).max(initial=0.0)))
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    def test_blocks_are_bounded_by_entries(self, monkeypatch):
        entries = []
        gram = models.gram_matrix

        def counted(kernel, a, b):
            entries.append(a.shape[0] * b.shape[0])
            return gram(kernel, a, b)

        monkeypatch.setattr(models, "gram_matrix", counted)
        rng = np.random.default_rng(7)
        models._kernel_product(C10_KERNEL, rng.normal(size=(5000, 3)), rng.normal(size=(2000, 3)), np.ones(2000))
        assert len(entries) == -(-5000 // (models._KERNEL_BLOCK_ENTRIES // 2000))
        assert max(entries) <= models._KERNEL_BLOCK_ENTRIES


class TestKernelDualOracle:
    """The kernel fit, posed on L L', against the exact dual of ``oracles.rbf_kernel_dual_reference``."""

    TIGHT = SolverSettings(max_iterations=200, kkt_tolerance=1e-10, feasibility_tolerance=1e-12)

    @staticmethod
    def fit_and_problem(ds, spec, settings, monkeypatch):
        solves = []
        monkeypatch.setattr(models, "solve_qp", lambda p, s=None: solves.append((solve_qp(p, s), s)) or solves[-1][0])
        model = fit_kernel_svm_fair(ds, spec, settings)
        return model, *solves[0]

    @pytest.mark.parametrize("n", [60, 200])
    @pytest.mark.parametrize("c", [np.inf, 0.0, "half"])
    def test_matches_the_exact_dual(self, n, c, monkeypatch):
        ds = c10_rows(n)
        cost = 10.0
        binding = c == "half"
        if binding:
            # half the unconstrained fit's |covariance|, so that the row binds
            unconstrained = fit_kernel_svm_fair(ds, FitSpec(mode="unconstrained", svm_cost=cost, kernel=C10_KERNEL))
            c = 0.5 * abs(unconstrained.training_meta["covariance"][0])
        if np.isfinite(c):
            spec = FitSpec(mode="fairness_constrained", covariance_thresholds=c, svm_cost=cost, kernel=C10_KERNEL)
        else:
            spec = FitSpec(mode="unconstrained", svm_cost=cost, kernel=C10_KERNEL)
        q_exact, exact, rows, reference = rbf_kernel_dual_reference(ds.features, ds.labels, ds.sensitive, 0.04, cost, c)
        model, result, _ = self.fit_and_problem(ds, spec, self.TIGHT, monkeypatch)
        np.testing.assert_allclose(result.point, reference.point, rtol=0, atol=1e-7)
        assert abs(result.objective_value - reference.objective_value) <= 1e-9 * abs(reference.objective_value)
        stored = model.training_meta["objective"] / n
        assert abs(stored - reference.objective_value) <= 1e-9 * abs(reference.objective_value)
        if binding:
            assert abs(model.training_meta["covariance"][0]) == pytest.approx(c, rel=1e-6)
        # at its own settings, a converged fit is a KKT point of the exact
        # dual too, posed with its c > 0 bounds as inequality rows over alpha:
        # slack row k's multiplier y_k is max(y_k, 0) on the row +a_k and
        # max(-y_k, 0) on the row -a_k
        model, result, settings = self.fit_and_problem(ds, spec, None, monkeypatch)
        assert result.status == "converged"
        m = rows[1].size // 2
        e, f = exact.equality
        y = result.multipliers["equality"]
        slack_y = y[y.size - m :]
        stationarity, violation, comp_slack = qp_kkt_reference(
            q_exact,
            exact.q_vector[:n],
            (exact.box[0][:n], exact.box[1][:n]),
            (e[: f.size - m, :n], f[: f.size - m]),
            rows,
            result.point[:n],
            {"inequality": [np.column_stack([slack_y, -slack_y]).clip(0.0).ravel()], "equality": y[: y.size - m]},
        )
        assert stationarity <= settings.kkt_tolerance
        assert violation <= settings.feas_tol
        assert comp_slack <= settings.kkt_tolerance


class TestKernelMemory:
    """Traced allocation peaks of the kernel path, far below one n x n or n x m kernel array."""

    def test_c10_fit_and_scoring(self):
        ds = c10_rows(2000)
        spec = FitSpec(mode="fairness_constrained", covariance_thresholds=0.0, svm_cost=100.0, kernel=C10_KERNEL)
        model, peak = traced_peak(lambda: fit_kernel_svm_fair(ds, spec))
        assert model.training_meta["status"] == "converged"
        assert peak < 20e6  # the Gram alone is 32 MB
        assert 500 < model.alphas.size < 650
        scoring = c10_rows(20_000, seed=5).features
        values, peak = traced_peak(lambda: decision_values(model, scoring))
        assert values.shape == (20_000,)
        assert peak < 16e6  # the 20,000 x ~576 kernel alone is 92 MB

    @pytest.mark.parametrize("c", [np.inf, 0.0, 0.05])
    def test_exact_hinge_at_4000_rows(self, c):
        ds = append_bias(gen_linear_synthetic(SynthConfig(n=4000, phi=np.pi / 4, seed=1)))
        if np.isfinite(c):
            spec = FitSpec(mode="fairness_constrained", covariance_thresholds=c, svm_cost=1.0)
        else:
            spec = FitSpec(mode="unconstrained", svm_cost=1.0)
        model, peak = traced_peak(lambda: fit_linear_svm_fair(ds, spec))
        assert model.training_meta["status"] == "converged"
        assert peak < 8e6  # the dual's Q would be 128 MB


class TestKernelSvm:
    def xor_dataset(self):
        return Dataset(
            features=np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
            labels=np.array([-1.0, -1.0, 1.0, 1.0]),
            sensitive=np.array([[0.0], [1.0], [0.0], [1.0]]),
            sensitive_names=("z",),
            feature_names=("a", "b"),
        )

    def test_xor_with_rbf(self):
        ds = self.xor_dataset()
        model = fit_kernel_svm_fair(
            ds,
            FitSpec(mode="unconstrained", svm_cost=10.0, kernel=KernelSpec(kind="rbf", rbf_gamma=1.0)),
        )
        np.testing.assert_array_equal(predict(model, ds.features), ds.labels)

    def test_infinite_threshold_matches_unconstrained(self):
        ds, _ = random_instance(18, n=40)
        kernel = KernelSpec(kind="rbf", rbf_gamma=0.5)
        unconstrained = fit_kernel_svm_fair(ds, FitSpec(mode="unconstrained", svm_cost=2.0, kernel=kernel))
        fair = fit_kernel_svm_fair(
            ds,
            FitSpec(
                mode="fairness_constrained",
                covariance_thresholds=np.inf,
                svm_cost=2.0,
                kernel=kernel,
            ),
        )
        assert fair.training_meta["objective"] == pytest.approx(
            unconstrained.training_meta["objective"], rel=1e-5, abs=1e-5
        )

    def test_linear_kernel_matches_linear_model(self):
        ds, _ = random_instance(19, n=25)
        dual = fit_kernel_svm_fair(
            ds, FitSpec(mode="unconstrained", svm_cost=5.0, kernel=KernelSpec(kind="linear"))
        )
        theta = dual.support_points.T @ (dual.alphas * dual.support_labels)
        linear = LinearModel(theta=theta)
        np.testing.assert_allclose(
            decision_values(dual, ds.features), decision_values(linear, ds.features), atol=1e-8
        )

    def test_dual_primal_prediction_agreement(self):
        ds, _ = random_instance(23, n=30)
        dual = fit_kernel_svm_fair(
            ds, FitSpec(mode="unconstrained", svm_cost=10.0, kernel=KernelSpec(kind="linear"))
        )
        primal = fit_linear_svm_fair(ds, FitSpec(mode="unconstrained", svm_cost=10.0))
        np.testing.assert_array_equal(predict(dual, ds.features), predict(primal, ds.features))

    def test_dual_invariants(self):
        ds, _ = random_instance(21, n=30)
        model = fit_kernel_svm_fair(
            ds, FitSpec(mode="unconstrained", svm_cost=3.0, kernel=KernelSpec(kind="rbf"))
        )
        assert np.all(model.alphas >= 0.0)
        assert np.all(model.alphas <= 3.0)
        assert abs(float(model.alphas @ model.support_labels)) <= 1e-8

    def test_stores_only_support_vectors(self, monkeypatch):
        # the benchmark's C10 shape at 600 rows: about a quarter of the rows have alpha > 0
        import fairclf.models

        results = []
        solve = fairclf.models.solve_qp
        monkeypatch.setattr(fairclf.models, "solve_qp", lambda *args: results.append(solve(*args)) or results[-1])
        ds = append_bias(gen_nonlinear_synthetic(SynthConfig(n=600, phi=np.pi / 4, seed=1, variant="nonlinear")))
        kernel = KernelSpec(kind="rbf", rbf_gamma=0.04)
        model = fit_kernel_svm_fair(ds, FitSpec(mode="unconstrained", svm_cost=100.0, kernel=kernel))
        full = np.clip(results[0].point, 0.0, 100.0)
        support = full > 1e-8 * 100.0
        assert np.all(model.alphas > 0.0)
        assert model.alphas.size == np.count_nonzero(support) < ds.n / 2
        np.testing.assert_array_equal(model.support_points, ds.features[support])
        np.testing.assert_array_equal(model.support_labels, ds.labels[support])

        scoring = append_bias(gen_nonlinear_synthetic(SynthConfig(n=2000, phi=np.pi / 4, seed=9, variant="nonlinear")))
        # the expansion over all 600 training rows
        reference = gram_matrix(kernel, scoring.features, ds.features) @ (full * ds.labels)
        values = decision_values(model, scoring.features)
        assert np.max(np.abs(values - reference)) <= 1e-7 * np.mean(np.abs(reference))

        back = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        np.testing.assert_array_equal(back.alphas, model.alphas)
        np.testing.assert_array_equal(back.support_points, model.support_points)
        np.testing.assert_array_equal(decision_values(back, scoring.features), values)

    def test_model_invariant_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            KernelModel(
                alphas=np.array([1.0, 0.5]),
                support_points=np.eye(2),
                support_labels=np.array([1.0, -1.0]),
                kernel=KernelSpec(kind="linear"),
                svm_cost=2.0,
            )


class TestKernelModelInput:
    GOOD = {
        "kind": "kernel",
        "alphas": [0.5, 0.5],
        "support_points": [[0.0, 1.0], [1.0, 0.0]],
        "support_labels": [1.0, -1.0],
        "kernel": {"kind": "rbf", "rbf_gamma": 0.5},
        "svm_cost": 1.0,
    }

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alphas", [float("nan"), 0.5]),
            ("support_points", [[0.0, float("inf")], [1.0, 0.0]]),
            ("support_labels", [3.0, -3.0]),
            ("support_labels", [1.0, -1.0, 1.0]),
            ("alphas", [0.5, 0.5, 0.0]),
            ("support_points", [[0.0, 1.0]]),
            ("svm_cost", float("nan")),
        ],
    )
    def test_load_rejects_and_names_the_field(self, field, value):
        assert decision_values(model_from_dict(self.GOOD), np.eye(2)).shape == (2,)
        with pytest.raises(ValueError, match=field):
            model_from_dict({**self.GOOD, field: value})


class TestFitDispatch:
    def test_unknown_classifier(self):
        with pytest.raises(ValueError, match="unknown classifier"):
            fit(two_point_dataset(), "forest", FitSpec(mode="unconstrained"))

    def test_svm_rejects_gamma_modes(self):
        spec = FitSpec(mode="accuracy_constrained", gamma=0.1, svm_cost=1.0)
        for classifier in ("linear_svm", "kernel_svm"):
            with pytest.raises(ValueError, match="supports the unconstrained and fairness_constrained"):
                fit(two_point_dataset(), classifier, spec)

    def test_looks_up_the_fit_at_call_time(self, monkeypatch):
        import fairclf.models

        calls = []
        monkeypatch.setattr(fairclf.models, "fit_logreg_fair", lambda *args: calls.append(args) or "model")
        spec = FitSpec(mode="fairness_constrained", covariance_thresholds=0.0)
        ds = two_point_dataset()
        assert fit(ds, "logreg", spec) == "model"
        assert calls == [(ds, spec, None)]

    def test_protected_rows(self):
        ds = Dataset(
            features=np.array([[1.0, 1.0], [-1.0, 1.0], [2.0, 1.0], [-2.0, 1.0]]),
            labels=np.array([1.0, -1.0, 1.0, -1.0]),
            sensitive=np.array([[1.0], [1.0], [0.0], [0.0]]),
            sensitive_names=("z",),
            feature_names=("x1", "bias"),
            has_bias_column=True,
        )
        baseline = LinearModel(theta=np.array([1.0, 0.0]))
        np.testing.assert_array_equal(protected_rows(baseline, ds, 1), [0])
        np.testing.assert_array_equal(protected_rows(baseline, ds, 0), [2])


class TestPrediction:
    def test_dot_product(self):
        model = LinearModel(theta=np.array([1.0, 0.0]))
        assert decision_values(model, np.array([[3.0, 1.0]]))[0] == pytest.approx(3.0)

    def test_zero_alphas_give_zero(self):
        model = KernelModel(
            alphas=np.zeros(3),
            support_points=np.arange(6, dtype=float).reshape(3, 2),
            support_labels=np.array([1.0, -1.0, 1.0]),
            kernel=KernelSpec(kind="rbf", rbf_gamma=0.7),
            svm_cost=1.0,
        )
        np.testing.assert_array_equal(decision_values(model, np.ones((4, 2))), np.zeros(4))

    def test_sign_rule_with_tie(self):
        model = LinearModel(theta=np.array([1.0]))
        preds = predict(model, np.array([[-0.1], [0.0], [2.5]]))
        np.testing.assert_array_equal(preds, [-1, 1, 1])

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 3))
        theta = rng.normal(size=3)
        a = predict(LinearModel(theta=theta), x)
        b = predict(LinearModel(theta=3.0 * theta), x)
        np.testing.assert_array_equal(a, b)

    def test_dimension_mismatch(self):
        model = LinearModel(theta=np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="width"):
            decision_values(model, np.ones((3, 3)))


class TestSerialization:
    def test_linear_round_trip(self):
        ds = two_point_dataset()
        model = fit_logreg(ds, FitSpec(mode="unconstrained", l2_penalty=1e-4))
        back = model_from_dict(model_to_dict(model))
        np.testing.assert_allclose(back.theta, model.theta)
        assert back.training_meta["mode"] == "unconstrained"

    def test_linear_svm_saved_with_the_squared_hinge_loads(self):
        # the meta is free-form, so a model written while the squared-hinge
        # surrogate existed still loads and predicts
        saved = json.dumps(
            {
                "kind": "linear",
                "theta": [1.0, -2.0, 0.5],
                "training_meta": {"mode": "unconstrained", "classifier": "linear_svm", "svm_hinge": "squared"},
            }
        )
        model = model_from_dict(json.loads(saved))
        assert model.training_meta["svm_hinge"] == "squared"
        features = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        np.testing.assert_array_equal(decision_values(model, features), [1.5, -1.5])
        np.testing.assert_array_equal(predict(model, features), [1, -1])

    def test_kernel_round_trip(self):
        ds, _ = random_instance(22, n=15)
        model = fit_kernel_svm_fair(
            ds, FitSpec(mode="unconstrained", svm_cost=2.0, kernel=KernelSpec(kind="rbf"))
        )
        back = model_from_dict(model_to_dict(model))
        np.testing.assert_allclose(
            decision_values(back, ds.features), decision_values(model, ds.features), atol=1e-12
        )
