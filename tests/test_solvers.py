import ctypes
import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest

from fairclf import models, solvers
from fairclf.data import append_bias
from fairclf.models import (
    FitSpec,
    fit_logreg,
    fit_logreg_fair,
    fit_logreg_fairness_max,
    fit_logreg_fine_grained,
    protected_rows,
)
from fairclf.solvers import (
    QuadraticProblem,
    SmoothProblem,
    SolverSettings,
    _dot,
    _matvec,
    _rmatvec,
    kkt_residuals,
    minimize_smooth,
    solve_qp,
)
from fairclf.synth import SynthConfig, gen_linear_synthetic

from conftest import random_instance
from oracles import (
    finite_difference_gradient,
    grid_logistic_fair,
    logistic_objective,
    qp_box_equality_reference,
    qp_kkt_reference,
)

TIGHT = SolverSettings(kkt_tolerance=1e-7, feasibility_tolerance=1e-9)


def quadratic_bowl(center):
    """Value, gradient and Hessian of ||x - center||^2."""
    center = np.asarray(center, dtype=float)
    return (
        lambda x: float((x - center) @ (x - center)),
        lambda x: 2.0 * (x - center),
        lambda x: 2.0 * np.eye(center.size),
    )


def logistic_hessian(features, l2, scale=1.0):
    """Hessian of ``scale`` times logistic_objective(theta, features, labels, l2), whatever the labels."""

    def hessian(theta):
        p = 1.0 / (1.0 + np.exp(-(features @ theta)))
        return scale * ((features.T * (p * (1.0 - p))) @ features + 2.0 * l2 * np.eye(features.shape[1]))

    return hessian


class TestSolverSettings:
    @pytest.mark.parametrize(
        "fields",
        [
            {"kkt_tolerance": float("nan")},
            {"kkt_tolerance": float("inf")},
            {"kkt_tolerance": 0.0},
            {"feasibility_tolerance": float("nan")},
            {"feasibility_tolerance": -1e-9},
            {"max_iterations": 0},
        ],
    )
    def test_malformed_settings_rejected(self, fields):
        with pytest.raises(ValueError):
            SolverSettings(**fields)


class TestMinimizeSmooth:
    def test_unconstrained_identity(self):
        f, g, h = quadratic_bowl([0.0, 0.0])
        result = minimize_smooth(
            SmoothProblem(dimension=2, objective=f, gradient=g, hessian=h, initial_point=np.array([3.0, -4.0])),
            TIGHT,
        )
        assert result.status == "converged"
        np.testing.assert_allclose(result.point, 0.0, atol=1e-7)
        assert result.objective_value == pytest.approx(0.0, abs=1e-12)

    def test_projection_onto_halfspace(self):
        f, g, h = quadratic_bowl([2.0, 0.0])
        problem = SmoothProblem(
            dimension=2,
            objective=f,
            gradient=g,
            hessian=h,
            linear_constraints=(np.array([[1.0, 0.0]]), np.array([1.0])),
        )
        result = minimize_smooth(problem, TIGHT)
        assert result.status == "converged"
        np.testing.assert_allclose(result.point, [1.0, 0.0], atol=1e-6)
        assert result.multipliers["inequality"][0][0] == pytest.approx(2.0, abs=1e-5)

    def test_fair_logistic_against_feasible_grid(self):
        # 2-D constrained logistic instance vs. dense exact-feasible grid
        ds, w = random_instance(2, n=40)
        l2 = 1e-3
        c = 0.1

        def objective(theta):
            return logistic_objective(theta, ds.features, ds.labels, l2) / ds.n

        def gradient(theta):
            margins = ds.labels * (ds.features @ theta)
            s = 1.0 / (1.0 + np.exp(margins))
            return (-(ds.features.T @ (ds.labels * s)) + 2 * l2 * theta) / ds.n

        norm = np.linalg.norm(w)
        problem = SmoothProblem(
            dimension=2,
            objective=objective,
            gradient=gradient,
            hessian=logistic_hessian(ds.features, l2, 1.0 / ds.n),
            linear_constraints=(np.array([w, -w]) / norm, np.full(2, c / norm)),
        )
        result = minimize_smooth(problem, SolverSettings(kkt_tolerance=1e-8, feasibility_tolerance=1e-10))
        assert result.status == "converged"
        oracle = grid_logistic_fair(ds.features, ds.labels, l2, w, c, resolution=2e-3)
        solver_total = logistic_objective(result.point, ds.features, ds.labels, l2)
        assert solver_total == pytest.approx(oracle, abs=1e-4)

    def test_infeasible_detected(self):
        f, g, h = quadratic_bowl([0.0])
        problem = SmoothProblem(
            dimension=1,
            objective=f,
            gradient=g,
            hessian=h,
            linear_constraints=(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0])),
        )
        result = minimize_smooth(problem, SolverSettings(kkt_tolerance=1e-6))
        assert result.status == "infeasible"

    def test_max_iteration_budget(self):
        f, g, h = quadratic_bowl([2.0, 0.0])
        problem = SmoothProblem(
            dimension=2,
            objective=f,
            gradient=g,
            hessian=h,
            linear_constraints=(np.array([[1.0, 0.0]]), np.array([1.0])),
        )
        result = minimize_smooth(problem, SolverSettings(max_iterations=2, kkt_tolerance=1e-10))
        assert result.status in ("max_iter", "converged")  # tiny problems may finish in 2 steps
        assert result.iterations <= 4

    def test_logs_outer_iterations(self, caplog):
        f, g, h = quadratic_bowl([2.0, 0.0])
        problem = SmoothProblem(
            dimension=2,
            objective=f,
            gradient=g,
            hessian=h,
            linear_constraints=(np.array([[1.0, 0.0]]), np.array([1.0])),
        )
        with caplog.at_level(logging.DEBUG, logger="fairclf.solvers"):
            result = minimize_smooth(problem, TIGHT)
        assert caplog.records
        assert all("rho=" in r.getMessage() and "viol=" in r.getMessage() for r in caplog.records)
        # each record counts its subproblem's Newton steps, line-search
        # halvings and factorisations; the steps add up to the inner
        # iterations, and a subproblem factors at least once and at most once
        # a step
        steps = [int(r.getMessage().split("newton=")[1].split()[0]) for r in caplog.records]
        factors = [int(r.getMessage().split("factors=")[1].split()[0]) for r in caplog.records]
        assert all("halvings=" in r.getMessage() for r in caplog.records)
        assert sum(max(s, 1) for s in steps) == result.iterations
        assert all(1 <= f <= max(s, 1) for s, f in zip(steps, factors))

    def test_deterministic_bitwise(self):
        ds, w = random_instance(5, n=30)

        def objective(theta):
            return logistic_objective(theta, ds.features, ds.labels, 1e-3)

        def gradient(theta):
            margins = ds.labels * (ds.features @ theta)
            s = 1.0 / (1.0 + np.exp(margins))
            return -(ds.features.T @ (ds.labels * s)) + 2e-3 * theta

        problem = SmoothProblem(
            dimension=2,
            objective=objective,
            gradient=gradient,
            hessian=logistic_hessian(ds.features, 1e-3),
            linear_constraints=(w, 0.05),
        )
        first = minimize_smooth(problem, TIGHT)
        second = minimize_smooth(problem, TIGHT)
        assert np.array_equal(first.point, second.point)
        assert first.objective_value == second.objective_value
        assert first.iterations == second.iterations

    def test_convexity_certificate(self):
        # converged objective beats 100 random feasible points
        ds, w = random_instance(7, n=30)
        l2 = 1e-3
        c = 0.2

        def objective(theta):
            return logistic_objective(theta, ds.features, ds.labels, l2)

        def gradient(theta):
            margins = ds.labels * (ds.features @ theta)
            s = 1.0 / (1.0 + np.exp(margins))
            return -(ds.features.T @ (ds.labels * s)) + 2 * l2 * theta

        problem = SmoothProblem(
            dimension=2,
            objective=objective,
            gradient=gradient,
            hessian=logistic_hessian(ds.features, l2),
            linear_constraints=(np.array([w, -w]), np.array([c, c])),
        )
        result = minimize_smooth(problem, TIGHT)
        assert result.status == "converged"
        rng = np.random.default_rng(0)
        found = 0
        while found < 100:
            candidate = rng.uniform(-5, 5, size=2)
            if abs(w @ candidate) <= c:
                found += 1
                assert objective(candidate) >= result.objective_value - 1e-9

    def test_requires_hessians(self):
        f, g, h = quadratic_bowl([2.0, 0.0])
        with pytest.raises(ValueError, match="Hessian"):
            minimize_smooth(SmoothProblem(dimension=2, objective=f, gradient=g))

    def test_convex_constraints_are_rejected(self):
        # the solvers take linear rows only; the field is kept as an inert name
        f, g, h = quadratic_bowl([2.0, 0.0])
        for entry in (solvers.ConstraintBlock(), (lambda x: x[0], lambda x: np.array([1.0, 0.0]))):
            for extra in ({}, {"equality": (np.array([1.0, -1.0]), 0.0)}):
                problem = SmoothProblem(dimension=2, objective=f, gradient=g, hessian=h, convex_constraints=[entry], **extra)
                with pytest.raises(ValueError, match="convex_constraints"):
                    minimize_smooth(problem, TIGHT)
                with pytest.raises(ValueError, match="convex_constraints"):
                    kkt_residuals(problem, np.zeros(2), {})

    def test_many_inactive_rows_change_nothing(self):
        # a box |x_j| <= 1 and 40 rows a.x <= 0.8 near the optimum, mixed in
        # among 4,950 rows with a slack of at least 1 on the whole box
        rng = np.random.default_rng(41)
        d = 8
        f, g, h = random_logistic(rng, n=500, d=d)
        near = np.vstack([np.eye(d), -np.eye(d), rng.normal(size=(40, d))])
        far = rng.normal(size=(4_950, d))
        a = np.vstack([near, far])
        a /= np.linalg.norm(a, axis=1)[:, None]
        b = np.concatenate([np.ones(2 * d), np.full(40, 0.8), math.sqrt(d) + 1.0 + rng.random(4_950)])
        order = rng.permutation(b.size)
        a, b = a[order], b[order]
        kept = np.flatnonzero(order < near.shape[0])
        results = [
            minimize_smooth(SmoothProblem(dimension=d, objective=f, gradient=g, hessian=h, linear_constraints=rows), TIGHT)
            for rows in ((a, b), (a[kept], b[kept]))
        ]
        for result in results:
            assert result.status == "converged"
        full, reduced = results
        lam = full.multipliers["inequality"][0]
        assert 0 < np.count_nonzero(lam) < 0.05 * b.size
        assert not lam[order >= near.shape[0]].any()
        np.testing.assert_allclose(full.point, reduced.point, rtol=0, atol=1e-8)
        np.testing.assert_allclose(lam[kept], reduced.multipliers["inequality"][0], rtol=0, atol=1e-8)


def random_logistic(rng: np.random.Generator, n: int, d: int, l2: float = 1e-3) -> tuple:
    """Mean logistic loss plus l2 ||theta||^2 on Gaussian features drawn from ``rng``: (objective, gradient, Hessian)."""
    features = rng.normal(size=(n, d))
    truth = rng.normal(size=d) * 3.0
    labels = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-(features @ truth))), 1.0, -1.0)

    def objective(theta):
        return logistic_objective(theta, features, labels, l2 * n) / n

    def gradient(theta):
        s = 1.0 / (1.0 + np.exp(labels * (features @ theta)))
        return -(features.T @ (labels * s)) / n + 2.0 * l2 * theta

    return objective, gradient, logistic_hessian(features, l2 * n, 1.0 / n)


def recorded(problem: SmoothProblem) -> tuple[SmoothProblem, list]:
    """``problem`` with each objective, gradient and Hessian call appended to a list as (kind, point)."""
    events = []

    def wrap(kind, fn):
        return lambda x: events.append((kind, x.copy())) or fn(x)

    replaced = dataclasses.replace(
        problem,
        objective=wrap("f", problem.objective),
        gradient=wrap("g", problem.gradient),
        hessian=wrap("h", problem.hessian),
    )
    return replaced, events


def newton_steps(problem: SmoothProblem, lam_rows: np.ndarray, rho: float) -> list[dict]:
    """One augmented-Lagrangian subproblem from the problem's initial point, one entry per gradient read.

    Each entry has the point, whether the Newton matrix was factored there
    (``fresh``) and the number of line-search trials that followed (0 where
    the subproblem ended, 2 or more after a halving).
    """
    problem, events = recorded(problem)
    comp = solvers._compile_smooth(problem)
    solvers._newton_al(comp, comp.x0, lam_rows, rho, 1e-10, 100)
    steps = []
    for kind, x in events:
        if kind == "g":
            steps.append({"x": x, "fresh": False, "trials": 0})
        elif steps:  # the value at the start comes before any gradient
            steps[-1]["fresh"] |= kind == "h"
            steps[-1]["trials"] += kind == "f"
    return steps


class TestChordSteps:
    """A Newton step reuses its subproblem's factor unless the rule in _newton_al asks for a fresh one."""

    def test_unconstrained_logistic_reuses_its_factor(self):
        f, g, h = random_logistic(np.random.default_rng(40), n=400, d=24)
        problem, events = recorded(SmoothProblem(dimension=24, objective=f, gradient=g, hessian=h))
        result = minimize_smooth(problem, TIGHT)
        assert result.status == "converged"
        assert result.kkt.within(TIGHT)
        hessians = sum(kind == "h" for kind, _ in events)
        assert 1 <= hessians < result.iterations

    def test_changed_active_rows_refactor(self):
        # the first subproblem at lam = 0: row i is active where A x > b
        rng = np.random.default_rng(5)
        f, g, h = random_logistic(rng, n=300, d=6)
        a, b = rng.normal(size=(3, 6)), np.full(3, 0.3)
        problem = SmoothProblem(dimension=6, objective=f, gradient=g, hessian=h, linear_constraints=(a, b))
        steps = newton_steps(problem, np.zeros(3), 10.0)
        active = [tuple(a @ step["x"] > b) for step in steps]
        changed = [k for k in range(1, len(steps)) if active[k] != active[k - 1] and steps[k]["trials"]]
        assert changed
        assert all(steps[k]["fresh"] for k in changed)
        assert not all(step["fresh"] for step in steps if step["trials"])  # other steps reuse

    def test_slow_contraction_refactors(self):
        # a step that shrank the gradient's largest entry by less than 4x is
        # followed by a fresh factor
        f, g, h = random_logistic(np.random.default_rng(40), n=400, d=24)
        steps = newton_steps(SmoothProblem(dimension=24, objective=f, gradient=g, hessian=h), np.zeros(0), 10.0)
        sizes = [np.max(np.abs(g(step["x"]))) for step in steps]
        slow = [k for k in range(1, len(steps)) if sizes[k] > 0.25 * sizes[k - 1] and steps[k]["trials"]]
        assert slow
        assert all(steps[k]["fresh"] for k in slow)
        assert not all(step["fresh"] for step in steps if step["trials"])

    def test_halved_step_refactors(self):
        # sum sqrt(1 + x_i^2) from 1.05: the full Newton step overshoots to
        # -1.15, one halving lands at -0.05, and the gradient has shrunk
        # 14-fold, so only the halving asks for the fresh factor there
        def objective(x):
            return float(np.sum(np.sqrt(1.0 + x * x)))

        problem = SmoothProblem(
            dimension=2,
            objective=objective,
            gradient=lambda x: x / np.sqrt(1.0 + x * x),
            hessian=lambda x: np.diag((1.0 + x * x) ** -1.5),
            initial_point=np.array([1.05, -1.05]),
        )
        steps = newton_steps(problem, np.zeros(0), 10.0)
        assert steps[0]["trials"] == 2
        assert abs(steps[1]["x"][0]) < 0.1
        assert steps[1]["trials"] and steps[1]["fresh"]
        halved = [k + 1 for k in range(len(steps) - 1) if steps[k]["trials"] > 1 and steps[k + 1]["trials"]]
        assert all(steps[k]["fresh"] for k in halved)
        assert not all(step["fresh"] for step in steps if step["trials"])

    def test_deterministic_bitwise_with_reuse(self):
        f, g, h = random_logistic(np.random.default_rng(41), n=300, d=20)
        runs = []
        for _ in range(2):
            problem, events = recorded(SmoothProblem(dimension=20, objective=f, gradient=g, hessian=h))
            runs.append((minimize_smooth(problem, TIGHT), sum(kind == "h" for kind, _ in events)))
        (first, first_hessians), (second, second_hessians) = runs
        assert first_hessians < first.iterations  # the factor was reused
        assert np.array_equal(first.point, second.point)
        assert first.objective_value == second.objective_value
        assert (first.iterations, first_hessians) == (second.iterations, second_hessians)


def record_directions(monkeypatch) -> list:
    """Each Newton factor as "factor" and each reused factor's direction as (pairs, slope), in the order made."""
    events = []
    cholesky, bfgs_direction = solvers._cholesky, solvers._bfgs_direction

    def factor(*args, **kwargs):
        events.append("factor")
        return cholesky(*args, **kwargs)

    def direction(solve, pairs, q):
        dx = bfgs_direction(solve, pairs, q)
        events.append((len(pairs), -float(q @ dx)))  # q is -gradient
        return dx

    monkeypatch.setattr(solvers, "_cholesky", factor)
    monkeypatch.setattr(solvers, "_bfgs_direction", direction)
    return events


def logged_counts(records, key: str) -> list[int]:
    return [int(r.getMessage().split(f"{key}=")[1].split()[0]) for r in records]


class TestQuasiNewtonCorrections:
    """Where L is the objective alone, a reused factor's direction is corrected by the BFGS pairs since that factor."""

    @staticmethod
    def logistic(with_equality: bool) -> SmoothProblem:
        f, g, h = random_logistic(np.random.default_rng(40), n=400, d=24)
        equality = (np.random.default_rng(42).normal(size=(2, 24)), np.zeros(2)) if with_equality else None
        return SmoothProblem(dimension=24, objective=f, gradient=g, hessian=h, equality=equality)

    @pytest.mark.parametrize("with_equality", [False, True])
    def test_corrected_directions_descend(self, monkeypatch, caplog, with_equality):
        events = record_directions(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="fairclf.solvers"):
            result = minimize_smooth(self.logistic(with_equality), TIGHT)
        assert result.status == "converged"
        corrected = [slope for pairs, slope in (event for event in events if event != "factor") if pairs]
        assert corrected
        assert all(slope < 0.0 for slope in corrected)
        # the record counts the corrected steps after the factors
        (record,) = [r for r in caplog.records if r.getMessage().startswith("newton steps=")]
        assert record.getMessage().index("factors=") < record.getMessage().index("corrected=")
        assert logged_counts([record], "corrected") == [len(corrected)]

    def test_pairs_are_dropped_at_each_fresh_factor(self, monkeypatch):
        # the loss is strictly convex, so every step's pair has s'y > 0 and
        # enters: the k-th direction after a factor reads k pairs
        events = record_directions(monkeypatch)
        minimize_smooth(self.logistic(False), TIGHT)
        assert events.count("factor") >= 2
        since_factor = 0
        for event in events:
            if event == "factor":
                since_factor = 0
            else:
                since_factor += 1
                assert event[0] == since_factor

    def test_ends_at_the_tightly_solved_optimum(self):
        problem = self.logistic(False)
        reference = np.zeros(24)
        for _ in range(40):  # plain Newton steps, each on its own Hessian
            reference -= np.linalg.solve(problem.hessian(reference), problem.gradient(reference))
        assert np.max(np.abs(problem.gradient(reference))) < 1e-15
        result = minimize_smooth(problem, SolverSettings(kkt_tolerance=1e-12))
        assert result.status == "converged"
        np.testing.assert_allclose(result.point, reference, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("constraint", ["row"])
    def test_rows_or_blocks_take_plain_chord_steps(self, monkeypatch, constraint):
        # one subproblem at lam = 0, rho = 10 under a row that cuts the
        # unconstrained optimum's norm in half
        f, g, h = random_logistic(np.random.default_rng(40), n=400, d=24)
        optimum = minimize_smooth(SmoothProblem(dimension=24, objective=f, gradient=g, hessian=h), TIGHT).point
        radius = 0.5 * np.linalg.norm(optimum)
        rows = (optimum[None, :] / np.linalg.norm(optimum), np.array([radius]))
        comp = solvers._compile_smooth(SmoothProblem(dimension=24, objective=f, gradient=g, hessian=h, linear_constraints=rows))
        events = record_directions(monkeypatch)
        x, *_, corrected = solvers._newton_al(comp, comp.x0, np.zeros(1), 10.0, 1e-10, 100)
        assert np.linalg.norm(x) > radius  # the penalty is active at the end
        reused = [event for event in events if event != "factor"]
        assert reused  # chord steps were taken
        assert all(pairs == 0 for pairs, _ in reused)
        assert corrected == 0


class CountedRows(np.ndarray):
    """A constraint matrix A that counts its products A @ v with every row; a gathered subset of rows is not counted."""

    rows = 0
    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and isinstance(inputs[0], CountedRows) and inputs[0].shape[0] == CountedRows.rows:
            CountedRows.products += 1
        inputs = [x.view(np.ndarray) if isinstance(x, CountedRows) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestOneRowProductPerOuterIteration:
    def test_fine_grained_fit(self, monkeypatch, caplog):
        # A x - b is formed once at the start and once per outer iteration,
        # and A dx once per Newton step; nothing else reads every row
        ds = append_bias(gen_linear_synthetic(SynthConfig(n=600, phi=np.pi / 4, seed=3)))
        base = fit_logreg(ds, FitSpec(mode="unconstrained"))
        spec = FitSpec(mode="fine_grained", per_point_gammas=np.ones(ds.n), protected_index_set=protected_rows(base, ds, 1))
        linear_arrays, minimize = solvers._linear_arrays, models.minimize_smooth

        def counted(rows, n):
            a, b = linear_arrays(rows, n)
            if not b.size:  # the fit has no equality rows
                return a, b
            CountedRows.rows = a.shape[0]
            return a.view(CountedRows), b

        solves = []

        def recorded_minimize(problem, settings):
            solves.append((problem, minimize(problem, settings)))
            return solves[-1][1]

        monkeypatch.setattr(solvers, "_linear_arrays", counted)
        monkeypatch.setattr(models, "minimize_smooth", recorded_minimize)
        CountedRows.products = 0
        with caplog.at_level(logging.DEBUG, logger="fairclf.solvers"):
            fit_logreg_fine_grained(ds, spec)
        monkeypatch.undo()
        (problem, result), = solves
        assert result.status == "converged"
        assert problem.linear_constraints[0].shape[0] > ds.n  # a margin row per point, and the epigraph rows
        records = [r for r in caplog.records if r.getMessage().startswith("al outer=")]
        assert CountedRows.products == sum(logged_counts(records, "newton")) + len(records) + 1
        # the residuals read the rows' values of the multiplier update; recomputed from the problem they agree
        assert kkt_residuals(problem, result.point, result.multipliers) == result.kkt


def _layouts() -> dict:
    rng = np.random.default_rng(3)
    # non-negative entries, so no sum cancels and rtol alone is a fair test
    x = rng.random((300, 40))
    frozen = x.copy()
    frozen.setflags(write=False)  # Dataset features are read-only
    return {
        "C": frozen,
        "F": np.asfortranarray(x),
        "row_subset": x[rng.permutation(300)[:120]],
        "zero_rows": np.zeros((0, 40)),
    }


class TestBlasHelpers:
    """_matvec, _rmatvec and _dot: solve_qp's products on scipy's BLAS."""

    @pytest.mark.parametrize("layout", ["C", "F", "row_subset", "zero_rows"])
    def test_match_numpy(self, layout):
        a = _layouts()[layout]
        rng = np.random.default_rng(4)
        theta, v = rng.random(a.shape[1]), rng.random(a.shape[0])
        for got, want in ((_matvec(a, theta), a @ theta), (_rmatvec(a, v), a.T @ v)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert _dot(v, v) == pytest.approx(float(v @ v), rel=1e-12, abs=0)

    @pytest.mark.parametrize("layout", ["C", "F", "row_subset"])
    def test_no_copy_of_the_matrix(self, layout):
        a = _layouts()[layout]
        theta, v = np.ones(a.shape[1]), np.ones(a.shape[0])
        tracemalloc.start()
        try:
            _matvec(a, theta)
            _rmatvec(a, v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes / 4


class TestSmoothPathOnNumpysPool:
    """minimize_smooth and the logistic oracle never call scipy's BLAS; only the Newton factor and its one-vector solves are scipy's LAPACK.

    numpy's and scipy's BLAS each keep a thread pool whose threads spin after
    each call, so a fit that alternated between them would make the two
    pools fight over the cores.
    """

    @pytest.fixture
    def factorisations(self, monkeypatch) -> list:
        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"the smooth path called scipy's {name}")

            return call

        for name in ("ddot", "dgemv", "dgemm", "dsymm", "dsyrk"):
            monkeypatch.setattr(solvers, name, refuse(name), raising=False)
        calls = []
        dpotrf, dpotrs = solvers.dpotrf, solvers.dpotrs
        monkeypatch.setattr(solvers, "dpotrf", lambda *args, **kwargs: calls.append(1) or dpotrf(*args, **kwargs))

        def solve_one_vector(factor, rhs, **kwargs):
            # a matrix right-hand side (the inverse by solve(np.eye(d)), say)
            # runs a multi-column solve on scipy's BLAS pool
            assert np.ndim(rhs) == 1, f"the smooth path solved for {np.shape(rhs)} right-hand sides"
            return dpotrs(factor, rhs, **kwargs)

        monkeypatch.setattr(solvers, "dpotrs", solve_one_vector)
        return calls

    def test_logistic_fits(self, factorisations):
        ds = append_bias(gen_linear_synthetic(SynthConfig(n=600, phi=np.pi / 4, seed=3)))
        base = fit_logreg(ds, FitSpec(mode="unconstrained"))
        protected = protected_rows(base, ds, group=1)
        fits = [
            base,
            fit_logreg_fair(ds, FitSpec(mode="fairness_constrained", covariance_thresholds=0.0)),
            fit_logreg_fair(ds, FitSpec(mode="fairness_constrained", covariance_thresholds=0.05)),
            fit_logreg_fairness_max(ds, FitSpec(mode="accuracy_constrained", gamma=0.5)),
            fit_logreg_fine_grained(
                ds, FitSpec(mode="fine_grained", per_point_gammas=np.ones(ds.n), protected_index_set=protected)
            ),
        ]
        assert [model.training_meta["status"] for model in fits] == ["converged"] * 5
        assert factorisations

    def test_equality_rows(self, factorisations):
        *_, f, g, h = TestEqualityRows.quadratic(5, seed=35)
        problem = SmoothProblem(
            dimension=5,
            objective=f,
            gradient=g,
            hessian=h,
            equality=(np.random.default_rng(36).normal(size=(2, 5)), np.array([0.4, -0.3])),
            linear_constraints=(np.ones((1, 5)), np.array([0.5])),
        )
        assert minimize_smooth(problem, TIGHT).status == "converged"
        assert factorisations


class TestEqualityRows:
    """minimize_smooth with E x = f, eliminated on the null space of E."""

    @staticmethod
    def quadratic(n: int, seed: int):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n))
        q = m @ m.T + n * np.eye(n)
        c = rng.normal(size=n)
        return q, c, (lambda x: float(0.5 * x @ q @ x + c @ x)), (lambda x: q @ x + c), (lambda x: q)

    def test_convex_block_with_equality_rows_is_rejected(self):
        # a convex block posed together with equality rows meets the same
        # refusal as any other non-empty convex_constraints
        f, g, h = quadratic_bowl([2.0, 0.0])
        problem = SmoothProblem(
            dimension=2,
            objective=f,
            gradient=g,
            hessian=h,
            convex_constraints=[solvers.ConstraintBlock()],
            equality=(np.array([1.0, -1.0]), 0.0),
        )
        with pytest.raises(ValueError, match="convex_constraints"):
            minimize_smooth(problem, TIGHT)

    def test_quadratic_matches_reference(self):
        q, c, f, g, h = self.quadratic(4, seed=31)
        e = np.random.default_rng(32).normal(size=(2, 4))
        rhs = np.array([0.7, -1.2])
        problem = SmoothProblem(dimension=4, objective=f, gradient=g, hessian=h, equality=(e, rhs))
        result = minimize_smooth(problem, TIGHT)
        assert result.status == "converged"
        with np.errstate(all="ignore"):  # the reference also tries the infinite bounds
            _, ref_x, ref_mu = qp_box_equality_reference(
                q, c, np.full(4, -np.inf), np.full(4, np.inf), equality=(e, rhs), with_multipliers=True
            )
        np.testing.assert_allclose(result.point, ref_x, atol=1e-7)
        assert result.multipliers["equality"].shape == (2,)
        np.testing.assert_allclose(result.multipliers["equality"], ref_mu, atol=1e-6)
        assert np.max(np.abs(e @ result.point - rhs)) <= 1e-14

    def test_kkt_residuals_round_trip(self):
        _, _, f, g, h = self.quadratic(3, seed=33)
        problem = SmoothProblem(
            dimension=3,
            objective=f,
            gradient=g,
            hessian=h,
            equality=(np.array([1.0, 1.0, 1.0]), 1.0),
            linear_constraints=(np.array([[1.0, 0.0, 0.0]]), np.array([-0.5])),
        )
        result = minimize_smooth(problem, TIGHT)
        assert result.status == "converged"
        assert result.multipliers["inequality"][0][0] > 1e-3  # the inequality binds
        res = kkt_residuals(problem, result.point, result.multipliers)
        assert res.within(TIGHT)
        assert res == result.kkt
        no_mu = kkt_residuals(problem, result.point, {"inequality": result.multipliers["inequality"]})
        assert no_mu.stationarity_norm > 1e-3
        with pytest.raises(ValueError, match="equality multipliers"):
            kkt_residuals(problem, result.point, {**result.multipliers, "equality": np.zeros(2)})

    def test_duplicate_rows_reduce_by_rank(self, caplog):
        q, c, f, g, h = self.quadratic(4, seed=34)
        e = np.array([[1.0, 2.0, 0.0, -1.0], [0.0, 1.0, 1.0, 0.0]])
        rhs = np.array([0.5, -0.25])
        repeated = (np.vstack([e, e[0], 3.0 * e[1]]), np.concatenate([rhs, [rhs[0], 3.0 * rhs[1]]]))
        plain = minimize_smooth(SmoothProblem(dimension=4, objective=f, gradient=g, hessian=h, equality=(e, rhs)), TIGHT)
        with caplog.at_level(logging.DEBUG, logger="fairclf.solvers"):
            result = minimize_smooth(SmoothProblem(dimension=4, objective=f, gradient=g, hessian=h, equality=repeated), TIGHT)
        assert "equality rows=4 rank=2" in caplog.text
        assert result.status == "converged"
        np.testing.assert_allclose(result.point, plain.point, atol=1e-9)
        assert np.max(np.abs(repeated[0] @ result.point - repeated[1])) <= 1e-12
        assert result.multipliers["equality"].shape == (4,)
        # the least-norm multipliers split the plain ones over the copies, in
        # proportion to each copy's scale
        mu = result.multipliers["equality"]
        np.testing.assert_allclose(repeated[0].T @ mu, e.T @ plain.multipliers["equality"], atol=1e-6)
        np.testing.assert_allclose([mu[2], mu[3]], [mu[0], 3.0 * mu[1]], rtol=1e-9)

    def test_fully_determined(self):
        _, _, f, g, h = self.quadratic(2, seed=35)
        problem = SmoothProblem(dimension=2, objective=f, gradient=g, hessian=h, equality=(np.eye(2), np.array([1.0, -2.0])))
        result = minimize_smooth(problem, TIGHT)
        assert result.status == "converged"
        np.testing.assert_allclose(result.point, [1.0, -2.0], atol=1e-15)

    def test_inconsistent_rows_are_infeasible(self):
        _, _, f, g, h = self.quadratic(3, seed=36)
        e = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
        problem = SmoothProblem(dimension=3, objective=f, gradient=g, hessian=h, equality=(e, np.array([1.0, 1.0])))
        result = minimize_smooth(problem, TIGHT)
        assert result.status == "infeasible"
        assert result.kkt.max_violation > 0.1

    def test_no_rows_is_no_equality(self):
        f, g, h = quadratic_bowl([2.0, 1.0, -1.0])
        rows = (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), np.array([1.0, 0.5]))
        base = dict(dimension=3, objective=f, gradient=g, hessian=h, linear_constraints=rows)
        none = minimize_smooth(SmoothProblem(**base), TIGHT)
        empty = minimize_smooth(SmoothProblem(**base, equality=(np.zeros((0, 3)), np.zeros(0))), TIGHT)
        assert np.array_equal(none.point, empty.point)
        assert none.status == empty.status and none.iterations == empty.iterations
        assert "equality" not in empty.multipliers


def identity(n: int) -> tuple[float, np.ndarray]:
    """The factor (1, V with no columns) of Q = I."""
    return 1.0, np.zeros((n, 0))


class TestSolveQp:
    def test_separable_box(self):
        problem = QuadraticProblem(
            q_factor=identity(4),
            q_vector=-np.ones(4),
            box=(np.zeros(4), np.full(4, 10.0)),
        )
        result = solve_qp(problem, TIGHT)
        assert result.status == "converged"
        np.testing.assert_allclose(result.point, 1.0, atol=1e-7)

    def test_symmetric_pair_with_equality(self):
        problem = QuadraticProblem(
            q_factor=identity(2),
            q_vector=-np.ones(2),
            box=(np.zeros(2), np.full(2, 10.0)),
            equality=(np.array([1.0, -1.0]), 0.0),
        )
        result = solve_qp(problem, TIGHT)
        assert result.status == "converged"
        np.testing.assert_allclose(result.point, [1.0, 1.0], atol=1e-7)

    def test_six_point_svm_dual_against_active_set(self):
        # linear-kernel soft-margin dual on a small separable set
        x = np.array([[-1.0, 2.0], [0.0, 2.2], [1.0, 2.0], [-1.0, -2.0], [0.0, -2.1], [1.0, -2.0]])
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        svm_cost = 5.0
        q = (y[:, None] * y[None, :]) * (x @ x.T + np.eye(6) / svm_cost)
        problem = QuadraticProblem(
            q_factor=(1.0 / svm_cost, y[:, None] * x),
            q_vector=-np.ones(6),
            box=(np.zeros(6), np.full(6, svm_cost)),
            equality=(y, 0.0),
        )
        result = solve_qp(problem, SolverSettings(kkt_tolerance=1e-8, feasibility_tolerance=1e-10))
        assert result.status == "converged"
        ref_value, ref_alpha = qp_box_equality_reference(
            q, -np.ones(6), np.zeros(6), np.full(6, svm_cost), equality=(y, 0.0)
        )
        assert result.objective_value == pytest.approx(ref_value, abs=1e-5)
        np.testing.assert_allclose(result.point, ref_alpha, atol=1e-4)

    def test_two_row_equality_matches_reference(self):
        # sum(x) = s and a.x = 0, the shape of a kernel dual with one c=0
        # covariance bound, against the exhaustive active-set reference
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 4))
        q = m @ m.T + 0.1 * np.eye(4)
        c = rng.normal(size=4)
        a = rng.normal(size=4)
        a /= np.linalg.norm(a)
        e, f = np.array([np.ones(4), a]), np.array([1.5, 0.0])
        problem = QuadraticProblem(q_factor=(0.1, m), q_vector=c, box=(np.zeros(4), np.full(4, 2.0)), equality=(e, f))
        result = solve_qp(problem, SolverSettings(kkt_tolerance=1e-8, feasibility_tolerance=1e-10))
        assert result.status == "converged"
        ref_value, ref_x, ref_mu = qp_box_equality_reference(
            q, c, np.zeros(4), np.full(4, 2.0), equality=(e, f), with_multipliers=True
        )
        assert result.objective_value == pytest.approx(ref_value, abs=1e-7)
        np.testing.assert_allclose(result.point, ref_x, atol=1e-6)
        np.testing.assert_allclose(e @ result.point, f, atol=1e-10)
        assert result.multipliers["equality"].shape == (2,)
        np.testing.assert_allclose(result.multipliers["equality"], ref_mu, atol=1e-5)
        assert result.multipliers["inequality"] == []

    def test_one_dimensional_equality_is_one_row(self):
        c = -np.array([3.0, 1.0, -2.0])
        box = (np.zeros(3), np.ones(3))
        vector = solve_qp(QuadraticProblem(q_factor=identity(3), q_vector=c, box=box, equality=(np.ones(3), 1.5)), TIGHT)
        matrix = solve_qp(
            QuadraticProblem(q_factor=identity(3), q_vector=c, box=box, equality=(np.ones((1, 3)), np.array([1.5]))),
            TIGHT,
        )
        assert vector.status == matrix.status == "converged"
        assert np.array_equal(vector.point, matrix.point)
        assert vector.multipliers["equality"].shape == (1,)

    def test_rejects_mismatched_constraint_shapes(self):
        with pytest.raises(ValueError, match="shapes"):
            solve_qp(
                QuadraticProblem(q_factor=identity(2), q_vector=np.zeros(2), equality=(np.ones((2, 2)), np.zeros(3)))
            )
        f, g, h = quadratic_bowl([0.0, 0.0])
        with pytest.raises(ValueError, match="shapes"):
            minimize_smooth(
                SmoothProblem(dimension=2, objective=f, gradient=g, hessian=h, linear_constraints=(np.ones((1, 3)), np.ones(1)))
            )

    def test_rejects_constraint_that_is_not_a_block(self):
        f, g, h = quadratic_bowl([0.0, 0.0])
        problem = SmoothProblem(
            dimension=2, objective=f, gradient=g, hessian=h, convex_constraints=[(lambda x: x[0], lambda x: np.array([1.0, 0.0]))]
        )
        with pytest.raises(ValueError, match="convex_constraints"):
            minimize_smooth(problem)

    def test_infeasible_rows_detected(self):
        # the box [0, 1]^2 and the row x1 + x2 <= -1, posed as x1 + x2 - s = 0
        # on a slack s <= -1, have no common point
        problem = QuadraticProblem(
            q_factor=(np.array([1.0, 1.0, 0.0]), np.zeros((3, 0))),
            q_vector=np.array([-1.0, -1.0, 0.0]),
            box=(np.array([0.0, 0.0, -np.inf]), np.array([1.0, 1.0, -1.0])),
            equality=(np.array([1.0, 1.0, -1.0]), 0.0),
        )
        result = solve_qp(problem, TIGHT)
        assert result.status == "infeasible"
        assert result.kkt.max_violation > 0.5

    def test_max_iteration_budget(self):
        problem = QuadraticProblem(
            q_factor=identity(3),
            q_vector=-np.array([3.0, 1.0, -2.0]),
            box=(np.zeros(3), np.ones(3)),
            equality=(np.ones(3), 1.5),
        )
        result = solve_qp(problem, SolverSettings(max_iterations=1, kkt_tolerance=1e-10))
        assert result.status == "max_iter"
        assert result.iterations <= 1

    def test_multipliers_reproduce_certificate(self):
        # Q = m m' by its factor (0, m); every x ends inside [-1, 1]. The
        # one-sided rows r_i . x <= b_i are r_i . x - s_i = 0 on slacks s_i
        # with the upper bound b_i only
        rng = np.random.default_rng(8)
        m = rng.normal(size=(5, 5))
        q_vector = rng.normal(size=5)
        rows = np.array([rng.normal(size=5), rng.normal(size=5)])
        problem = QuadraticProblem(
            q_factor=(0.0, np.vstack([m, np.zeros((2, 5))])),
            q_vector=np.concatenate([q_vector, np.zeros(2)]),
            box=(np.concatenate([np.full(5, -1.0), np.full(2, -np.inf)]), np.concatenate([np.ones(5), [0.2, 0.1]])),
            equality=(
                np.vstack([np.concatenate([np.ones(5), np.zeros(2)]), np.hstack([rows, -np.eye(2)])]),
                np.array([0.5, 0.0, 0.0]),
            ),
        )
        result = solve_qp(problem, TIGHT)
        assert result.status == "converged"
        assert kkt_residuals(problem, result.point, result.multipliers) == result.kkt
        TestFactoredNewton.assert_certified(problem, result)

    def test_logs_one_record_per_iteration(self, caplog):
        problem = QuadraticProblem(
            q_factor=identity(4),
            q_vector=-np.ones(4),
            box=(np.zeros(4), np.full(4, 0.5)),
        )
        with caplog.at_level(logging.DEBUG, logger="fairclf.solvers"):
            result = solve_qp(problem, TIGHT)
        # one record per iterate checked: the start and each iteration's result
        assert len(caplog.records) == result.iterations + 1
        assert all("mu=" in r.getMessage() and "stat=" in r.getMessage() for r in caplog.records)

    def test_logs_the_start_scale_once(self, caplog):
        # variables 0-2 boxed with widths 0.5, 50 and 5e4 (capped), variable 3 bounded on one side
        problem = QuadraticProblem(
            q_factor=identity(4),
            q_vector=-np.ones(4),
            box=(np.array([0.0, 0.0, 0.0, 0.0]), np.array([0.5, 50.0, 5e4, np.inf])),
        )
        with caplog.at_level(logging.DEBUG, logger="fairclf.solvers"):
            result = solve_qp(problem, TIGHT)
        assert result.status == "converged"
        messages = [r.getMessage() for r in caplog.records]
        assert [m for m in messages if "sigma_max=" in m] == messages[:1]
        fields = dict(field.split("=") for field in messages[0].split()[1:])
        assert fields["iter"] == "0" and fields["bound_rows"] == "7"
        assert float(fields["sigma_max"]) == solvers._START_SCALE_CAP
        assert float(fields["mu"]) > 0.0

    def test_empty_problem_is_silent(self, capfd):
        # a V without rows once reached dsyrk, whose OpenBLAS error handler
        # printed "** On entry to DSYRK ..." through C stdio, which buffers
        # it until flushed
        problem = QuadraticProblem(q_factor=(0.0, np.zeros((0, 2))), q_vector=np.zeros(0), box=(np.zeros(0), np.ones(0)))
        result = solve_qp(problem)
        ctypes.CDLL(None).fflush(None)
        assert result.status == "converged"
        assert result.point.shape == (0,) and result.iterations == 0
        assert capfd.readouterr() == ("", "")

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(5, 5))
        problem = QuadraticProblem(
            q_factor=(1.0, m),
            q_vector=rng.normal(size=5),
            box=(np.zeros(5), np.full(5, 2.0)),
            equality=(np.ones(5), 1.0),
        )
        a = solve_qp(problem, TIGHT)
        b = solve_qp(problem, TIGHT)
        assert np.array_equal(a.point, b.point)
        assert a.iterations == b.iterations

    def test_each_row_bounds_one_variable(self):
        # minimize |x|^2 / 2 - 2 sum(x) over x >= 0 and x <= b: rows that each
        # bound one variable are the box's upper bounds
        problem = QuadraticProblem(
            q_factor=identity(3),
            q_vector=np.full(3, -2.0),
            box=(np.zeros(3), np.array([0.5, 1.0, 3.0])),
        )
        result = solve_qp(problem, TIGHT)
        assert result.status == "converged"
        np.testing.assert_allclose(result.point, [0.5, 1.0, 2.0], atol=1e-7)


class TestScaledStart:
    """The interior-point start reads each variable on the scale of its box."""

    @staticmethod
    def unit_box(seed: int, n: int = 40) -> QuadraticProblem:
        """A QP over [0, 1]^n with Q = I + V V' and one equality row."""
        rng = np.random.default_rng(seed)
        return QuadraticProblem(
            q_factor=(1.0, rng.normal(size=(n, 5))),
            q_vector=2.0 * rng.normal(size=n),
            box=(np.zeros(n), np.ones(n)),
            equality=(rng.normal(size=n), 0.0),
        )

    @staticmethod
    def stretched(problem: QuadraticProblem, k: float) -> QuadraticProblem:
        """The same QP in u = k x: box [0, k], Q / k^2 and c / k, E / k."""
        delta, v = problem.q_factor
        e, f = problem.equality
        lower, upper = problem.box
        return QuadraticProblem(
            q_factor=(delta / k**2, v / k), q_vector=problem.q_vector / k, box=(lower * k, upper * k), equality=(e / k, f)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_a_stretched_copy_takes_the_same_steps(self, seed):
        # from a start on the unit scale the copy took 2-4 more iterations;
        # only the stop test, which reads the gradient in u, still differs
        problem = self.unit_box(seed)
        unit = solve_qp(problem, TIGHT)
        copy = solve_qp(self.stretched(problem, 100.0), TIGHT)
        assert unit.status == copy.status == "converged"
        assert copy.iterations <= unit.iterations + 1
        # each point is within the stop tolerance of the optimum
        np.testing.assert_allclose(copy.point / 100.0, unit.point, rtol=0, atol=2 * TIGHT.kkt_tolerance)


class TestCholesky:
    """The shifted Cholesky that both solvers factor their Newton matrices with."""

    @pytest.mark.parametrize("lower", [True, False])
    def test_singular_matrix_factors_after_a_raised_shift(self, lower):
        # singular PSD: the unshifted factorisation fails and 1e-12 suffices
        matrix = np.ones((3, 3), order="F")
        x = solvers._cholesky(matrix, lower=lower)(np.full(3, 3.0))
        shift = matrix[0, 0] - 1.0  # the diagonal keeps the shift that factored
        assert 0.0 < shift <= 2e-12
        np.testing.assert_array_equal(np.diag(matrix), 1.0 + shift)
        np.testing.assert_allclose((np.ones((3, 3)) + shift * np.eye(3)) @ x, 3.0, rtol=0, atol=1e-12)

    def test_indefinite_matrix_raises(self):
        # eigenvalues 4 and -2: the eighth and last shift tried, 1e-12 * 100^6
        # = 1, leaves one at -1
        with pytest.raises(np.linalg.LinAlgError, match="not positive semidefinite"):
            solvers._cholesky(np.array([[1.0, 3.0], [3.0, 1.0]]), lower=True)

    def test_non_finite_right_hand_side_raises(self):
        solve = solvers._cholesky(np.eye(2), lower=True)
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            solve(np.array([1.0, np.inf]))


class TestFactoredNewton:
    """``solve_qp``'s Newton steps by Woodbury through diag(delta) + V V'."""

    @staticmethod
    def dense(problem: QuadraticProblem) -> np.ndarray:
        """Q = diag(delta) + V V' formed as a dense matrix."""
        delta, v = problem.q_factor
        return np.diag(np.broadcast_to(np.asarray(delta, dtype=float), (v.shape[0],))) + v @ v.T

    @classmethod
    def certificate(cls, problem: QuadraticProblem, result) -> tuple[float, float, float]:
        """The plain-numpy KKT residuals of the result on the problem with Q formed densely."""
        return qp_kkt_reference(
            cls.dense(problem),
            problem.q_vector,
            problem.box,
            problem.equality,
            None,
            result.point,
            result.multipliers,
        )

    @staticmethod
    def rotated(problem: QuadraticProblem) -> QuadraticProblem:
        """The same Q through a second factor, (delta, V R) for an orthogonal R."""
        delta, v = problem.q_factor
        r, _ = np.linalg.qr(np.random.default_rng(40).normal(size=(v.shape[1], v.shape[1])))
        return dataclasses.replace(problem, q_factor=(delta, v @ r))

    @staticmethod
    def kernel_dual(seed: int, n: int = 60) -> QuadraticProblem:
        """A kernel-SVM-dual-shaped QP given by its factor.

        Q = diag(1/(C n)) + V V' with V = diag(y) F / sqrt(n) for an n x 6
        feature map F, over the box [0, C]. sum(alpha y) = 0 and one c = 0
        covariance row are equalities; two covariance rows bounded by
        c = 2e-4 on both sides are the rows cov_k . alpha - s_k = 0 on two
        slack variables s_k in [-c, c], the last two variables, with
        delta = 0 and zero rows in V. alpha = 0 is feasible.
        """
        rng = np.random.default_rng(seed)
        cost = 2.0
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        features = rng.normal(size=(n, 6))
        features[:, 0] += labels
        v = features * (labels / np.sqrt(n))[:, None]
        delta = np.full(n, 1.0 / (cost * n))
        centered = (rng.random((n, 3)) < 1.0 / (1.0 + np.exp(-2.0 * labels[:, None]))).astype(float)
        centered -= centered.mean(axis=0)
        cov = ((features @ features.T) @ centered / n).T * labels
        cov /= np.linalg.norm(cov, axis=1, keepdims=True)
        equality = np.block([[np.vstack([labels / np.sqrt(n), cov[0]]), np.zeros((2, 2))], [cov[1:], -np.eye(2)]])
        return QuadraticProblem(
            q_factor=(np.concatenate([delta, np.zeros(2)]), np.vstack([v, np.zeros((2, 6))])),
            q_vector=np.concatenate([-np.ones(n) / n, np.zeros(2)]),
            box=(np.concatenate([np.zeros(n), np.full(2, -2e-4)]), np.concatenate([np.full(n, cost), np.full(2, 2e-4)])),
            equality=(equality, np.zeros(4)),
        )

    @classmethod
    def assert_certified(cls, problem: QuadraticProblem, result, settings: SolverSettings = TIGHT):
        stationarity, violation, comp_slack = cls.certificate(problem, result)
        assert stationarity <= settings.kkt_tolerance
        assert violation <= settings.feas_tol
        assert comp_slack <= settings.kkt_tolerance

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_dense_solve(self, seed):
        # the dense problem's solution is the point its plain-numpy KKT
        # certificate accepts, and a second factor of Q takes the same steps
        problem = self.kernel_dual(seed)
        factored = solve_qp(problem, TIGHT)
        rotated = solve_qp(self.rotated(problem), TIGHT)
        assert factored.status == rotated.status == "converged"
        self.assert_certified(problem, factored)
        assert factored.iterations == rotated.iterations
        np.testing.assert_allclose(factored.point, rotated.point, rtol=0, atol=1e-9)
        assert np.max(np.abs(factored.point[-2:])) > 2e-4 - 1e-9  # a c > 0 row binds: its slack is at its bound

    @pytest.mark.parametrize("thresholds", [0.0, 0.05])
    def test_kernel_dual_keeps_the_plain_iterates(self, monkeypatch, thresholds):
        import fairclf.models
        from fairclf.models import FitSpec, KernelSpec, fit_kernel_svm_fair

        problems = []
        monkeypatch.setattr(fairclf.models, "solve_qp", lambda p, s=None: problems.append((p, s)) or solve_qp(p, s))
        ds, _ = random_instance(21, n=30)
        spec = FitSpec(
            mode="fairness_constrained", covariance_thresholds=thresholds, svm_cost=3.0, kernel=KernelSpec(kind="rbf")
        )
        fit_kernel_svm_fair(ds, spec)
        problem, settings = problems[0]
        factored = solve_qp(problem, settings)
        rotated = solve_qp(self.rotated(problem), settings)
        # the fit's factor and a second factor of the same Q take the same steps
        assert factored.status == rotated.status == "converged"
        assert factored.iterations == rotated.iterations
        np.testing.assert_allclose(factored.point, rotated.point, rtol=0, atol=1e-9)
        self.assert_certified(problem, factored, settings)

    def test_rank_zero_factor_is_the_diagonal(self):
        problem = self.kernel_dual(2)
        delta = problem.q_factor[0]
        diagonal = dataclasses.replace(problem, q_factor=(delta, np.zeros((delta.size, 0))))
        factored = solve_qp(diagonal, TIGHT)
        # the same diagonal Q, half of it through a full-rank V
        full = solve_qp(dataclasses.replace(diagonal, q_factor=(delta / 2, np.diag(np.sqrt(delta / 2)))), TIGHT)
        assert factored.status == full.status == "converged"
        self.assert_certified(diagonal, factored)
        np.testing.assert_allclose(factored.point, full.point, rtol=0, atol=1e-9)

    def test_objective_and_certificate_read_the_factor(self):
        # the factored problem's objective and KKT residuals are those of Q formed densely
        problem = self.kernel_dual(4)
        result = solve_qp(problem, TIGHT)
        x = result.point
        value = 0.5 * x @ self.dense(problem) @ x + problem.q_vector @ x
        np.testing.assert_allclose(result.objective_value, value, rtol=1e-12)
        factored = kkt_residuals(problem, x, result.multipliers)
        np.testing.assert_allclose(
            [factored.stationarity_norm, factored.max_violation, factored.max_comp_slack],
            self.certificate(problem, result),
            rtol=1e-6,
            atol=1e-14,
        )
        assert factored.within(TIGHT)

    @pytest.mark.parametrize(
        "factor",
        [(0.0, "v"), (-1.0, "v"), (np.nan, "v"), (1.0, "short"), (1.0, "nan")],
        ids=["zero-delta", "negative-delta", "nan-delta", "short-v", "nan-v"],
    )
    def test_malformed_factor_rejected(self, factor):
        # variable 0 has no finite bound, so a zero delta on it is malformed
        problem = self.kernel_dual(0)
        lower, upper = problem.box
        lower, upper = lower.copy(), upper.copy()
        lower[0], upper[0] = -np.inf, np.inf
        problem = dataclasses.replace(problem, box=(lower, upper))
        v = problem.q_factor[1]
        v = {"v": v, "short": v[1:], "nan": np.where(np.arange(v.size).reshape(v.shape) == 3, np.nan, v)}[factor[1]]
        with pytest.raises(ValueError, match="q_factor"):
            solve_qp(dataclasses.replace(problem, q_factor=(factor[0], v)))

    def test_zero_delta_on_bounded_variables(self):
        # Q = V V' exactly, every variable boxed: D is the box weights alone
        problem = self.kernel_dual(3)
        exact = dataclasses.replace(problem, q_factor=(0.0, problem.q_factor[1]))
        factored = solve_qp(exact, TIGHT)
        rotated = solve_qp(self.rotated(exact), TIGHT)
        assert factored.status == rotated.status == "converged"
        self.assert_certified(exact, factored)
        np.testing.assert_allclose(factored.point, rotated.point, rtol=0, atol=1e-7)


class TestKktResiduals:
    def test_unconstrained_optimum(self):
        f, g, h = quadratic_bowl([1.0, -1.0])
        problem = SmoothProblem(dimension=2, objective=f, gradient=g, hessian=h)
        res = kkt_residuals(problem, np.array([1.0, -1.0]), {"inequality": []})
        assert res.stationarity_norm == pytest.approx(0.0, abs=1e-12)
        assert res.max_violation == 0.0
        assert res.max_comp_slack == 0.0

    def test_projection_kkt_point(self):
        f, g, h = quadratic_bowl([2.0, 0.0])
        problem = SmoothProblem(
            dimension=2,
            objective=f,
            gradient=g,
            hessian=h,
            linear_constraints=(np.array([[1.0, 0.0]]), np.array([1.0])),
        )
        res = kkt_residuals(problem, np.array([1.0, 0.0]), {"inequality": [2.0]})
        assert res.stationarity_norm == pytest.approx(0.0, abs=1e-12)
        assert res.max_violation == pytest.approx(0.0, abs=1e-12)
        assert res.max_comp_slack == pytest.approx(0.0, abs=1e-12)

    def test_non_optimal_point_has_residual(self):
        f, g, h = quadratic_bowl([2.0, 0.0])
        problem = SmoothProblem(
            dimension=2,
            objective=f,
            gradient=g,
            hessian=h,
            linear_constraints=(np.array([[1.0, 0.0]]), np.array([1.0])),
        )
        res = kkt_residuals(problem, np.array([0.2, 0.5]), {"inequality": [0.3]})
        assert res.stationarity_norm > 0.1

    def test_negative_multiplier_rejected(self):
        f, g, h = quadratic_bowl([0.0, 0.0])
        problem = SmoothProblem(
            dimension=2, objective=f, gradient=g, hessian=h, linear_constraints=(np.array([[1.0, 0.0]]), np.array([1.0]))
        )
        with pytest.raises(ValueError, match="non-negative"):
            kkt_residuals(problem, np.zeros(2), {"inequality": [-0.5]})

    def test_quadratic_problem_takes_no_inequality_multipliers(self):
        # a QP's only inequalities are its box, whose multipliers are not inputs
        problem = QuadraticProblem(q_factor=identity(2), q_vector=np.array([-1.0, 0.0]), box=(np.zeros(2), np.ones(2)))
        point = np.array([1.0, 0.0])
        assert kkt_residuals(problem, point, {"inequality": []}) == kkt_residuals(problem, point, {})
        with pytest.raises(ValueError, match="no inequality multipliers"):
            kkt_residuals(problem, point, {"inequality": [np.array([0.5])]})

    def test_quadratic_point_outside_its_box_is_a_violation(self):
        # the box is a constraint of the problem: (3, 0) lies 2 above x1 <= 1
        problem = QuadraticProblem(q_factor=identity(2), q_vector=np.array([-3.0, 0.0]), box=(np.zeros(2), np.ones(2)))
        assert kkt_residuals(problem, np.array([3.0, 0.0]), {}).max_violation == 2.0
        assert kkt_residuals(problem, np.array([0.5, -0.25]), {}).max_violation == 0.25
        assert kkt_residuals(problem, np.array([1.0, 0.0]), {}).max_violation == 0.0

    def test_equality_multipliers_are_a_vector(self):
        # min 0.5|x|^2 - x1 subject to x1 + x2 = 1 and x1 - x2 = 0: x = (1/2, 1/2)
        problem = QuadraticProblem(
            q_factor=identity(2),
            q_vector=np.array([-1.0, 0.0]),
            equality=(np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([1.0, 0.0])),
        )
        point = np.array([0.5, 0.5])
        res = kkt_residuals(problem, point, {"equality": np.array([0.0, 0.5])})
        assert res.stationarity_norm == pytest.approx(0.0, abs=1e-15)
        assert res.max_violation == 0.0
        assert kkt_residuals(problem, point, {"equality": np.zeros(2)}).stationarity_norm > 0.1
        with pytest.raises(ValueError, match="equality multipliers"):
            kkt_residuals(problem, point, {"equality": 0.5})


class TestGradientOracleConsistency:
    def test_solver_sees_consistent_gradients(self):
        # the solver trusts caller gradients; verify the test objectives obey
        # the same finite-difference contract the fits are held to
        ds, w = random_instance(11, n=25)
        rng = np.random.default_rng(4)
        for _ in range(5):
            theta = rng.normal(size=2)

            def objective(t):
                return logistic_objective(t, ds.features, ds.labels, 1e-3)

            margins = ds.labels * (ds.features @ theta)
            s = 1.0 / (1.0 + np.exp(margins))
            analytic = -(ds.features.T @ (ds.labels * s)) + 2e-3 * theta
            numeric = finite_difference_gradient(objective, theta)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)
