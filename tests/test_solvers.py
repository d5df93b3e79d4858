import dataclasses
import logging
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.linalg.blas import dgemm

from fairclf import solvers
from fairclf.solvers import (
    ConstraintBlock,
    QuadraticProblem,
    SmoothProblem,
    SolverSettings,
    dot,
    kkt_residuals,
    matvec,
    minimize_smooth,
    rmatvec,
    solve_qp,
)

from conftest import random_instance
from oracles import (
    finite_difference_gradient,
    grid_logistic_fair,
    logistic_objective,
    qp_box_equality_reference,
)

TIGHT = SolverSettings(kkt_tolerance=1e-7, feasibility_tolerance=1e-9)


def quadratic_bowl(center):
    center = np.asarray(center, dtype=float)
    return (
        lambda x: float((x - center) @ (x - center)),
        lambda x: 2.0 * (x - center),
    )


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
        f, g = quadratic_bowl([0.0, 0.0])
        result = minimize_smooth(
            SmoothProblem(dimension=2, objective=f, gradient=g, initial_point=np.array([3.0, -4.0])),
            TIGHT,
        )
        assert result.status == "converged"
        np.testing.assert_allclose(result.point, 0.0, atol=1e-7)
        assert result.objective_value == pytest.approx(0.0, abs=1e-12)

    def test_projection_onto_halfspace(self):
        f, g = quadratic_bowl([2.0, 0.0])
        problem = SmoothProblem(
            dimension=2,
            objective=f,
            gradient=g,
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
            linear_constraints=(np.array([w, -w]) / norm, np.full(2, c / norm)),
        )
        result = minimize_smooth(problem, SolverSettings(kkt_tolerance=1e-8, feasibility_tolerance=1e-10))
        assert result.status == "converged"
        oracle = grid_logistic_fair(ds.features, ds.labels, l2, w, c, resolution=2e-3)
        solver_total = logistic_objective(result.point, ds.features, ds.labels, l2)
        assert solver_total == pytest.approx(oracle, abs=1e-4)

    def test_infeasible_detected(self):
        f, g = quadratic_bowl([0.0])
        problem = SmoothProblem(
            dimension=1,
            objective=f,
            gradient=g,
            linear_constraints=(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0])),
        )
        result = minimize_smooth(problem, SolverSettings(kkt_tolerance=1e-6))
        assert result.status == "infeasible"

    def test_max_iteration_budget(self):
        f, g = quadratic_bowl([2.0, 0.0])
        problem = SmoothProblem(
            dimension=2,
            objective=f,
            gradient=g,
            linear_constraints=(np.array([[1.0, 0.0]]), np.array([1.0])),
        )
        result = minimize_smooth(problem, SolverSettings(max_iterations=2, kkt_tolerance=1e-10))
        assert result.status in ("max_iter", "converged")  # tiny problems may finish in 2 steps
        assert result.iterations <= 4

    def test_logs_outer_iterations(self, caplog):
        f, g = quadratic_bowl([2.0, 0.0])
        problem = SmoothProblem(
            dimension=2,
            objective=f,
            gradient=g,
            linear_constraints=(np.array([[1.0, 0.0]]), np.array([1.0])),
        )
        with caplog.at_level(logging.DEBUG, logger="fairclf.solvers"):
            minimize_smooth(problem, TIGHT)
        assert caplog.records
        assert all("rho=" in r.getMessage() and "viol=" in r.getMessage() for r in caplog.records)

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

    def test_vector_block_constraints(self):
        # same halfspace expressed through a ConstraintBlock
        f, g = quadratic_bowl([2.0, 0.0])
        block = ConstraintBlock(
            value=lambda x: np.array([x[0] - 1.0]),
            jacobian=lambda x: np.array([[1.0, 0.0]]),
            size=1,
        )
        problem = SmoothProblem(dimension=2, objective=f, gradient=g, convex_constraints=[block])
        result = minimize_smooth(problem, TIGHT)
        np.testing.assert_allclose(result.point, [1.0, 0.0], atol=1e-6)


class TestArrayJacobian:
    """A convex block whose (m, n) Jacobian array binds at the optimum."""

    @staticmethod
    def ball_problem() -> SmoothProblem:
        # six balls that all contain the origin, a halfspace, and a bowl
        # centred outside their intersection, so the constraints bind
        rng = np.random.default_rng(21)
        centers = rng.normal(size=(6, 3))
        radii = np.linalg.norm(centers, axis=1) + 0.5
        block = ConstraintBlock(
            value=lambda x: np.sum((x - centers) ** 2, axis=1) - radii**2,
            jacobian=lambda x: 2.0 * (x - centers),
            size=6,
        )
        f, g = quadratic_bowl([4.0, -3.0, 2.0])
        return SmoothProblem(
            dimension=3,
            objective=f,
            gradient=g,
            linear_constraints=(np.array([[1.0, 1.0, 1.0]]), np.array([0.5])),
            convex_constraints=[block],
        )

    def test_minimize_smooth_converges(self):
        result = minimize_smooth(self.ball_problem(), TIGHT)
        assert result.status == "converged"
        assert np.max(result.multipliers["inequality"][1]) > 1e-3  # the block binds

    def test_kkt_residuals_agree(self):
        # the residuals recomputed from the problem equal the solver's own
        problem = self.ball_problem()
        result = minimize_smooth(problem, TIGHT)
        residuals = kkt_residuals(problem, result.point, result.multipliers)
        assert residuals.within(TIGHT)
        np.testing.assert_allclose(
            [residuals.stationarity_norm, residuals.max_violation, residuals.max_comp_slack],
            [result.kkt.stationarity_norm, result.kkt.max_violation, result.kkt.max_comp_slack],
            rtol=1e-8,
            atol=1e-14,
        )


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
    @pytest.mark.parametrize("layout", ["C", "F", "row_subset", "zero_rows"])
    def test_match_numpy(self, layout):
        a = _layouts()[layout]
        rng = np.random.default_rng(4)
        theta, v = rng.random(a.shape[1]), rng.random(a.shape[0])
        for got, want in ((matvec(a, theta), a @ theta), (rmatvec(a, v), a.T @ v)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert dot(v, v) == pytest.approx(float(v @ v), rel=1e-12, abs=0)

    @pytest.mark.parametrize("layout", ["C", "F", "row_subset"])
    def test_no_copy_of_the_matrix(self, layout):
        a = _layouts()[layout]
        theta, v = np.ones(a.shape[1]), np.ones(a.shape[0])
        tracemalloc.start()
        try:
            matvec(a, theta)
            rmatvec(a, v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes / 4


class TestEqualityRows:
    """minimize_smooth with E x = f, eliminated on the null space of E."""

    @staticmethod
    def quadratic(n: int, seed: int):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n))
        q = m @ m.T + n * np.eye(n)
        c = rng.normal(size=n)
        return q, c, (lambda x: float(0.5 * x @ q @ x + c @ x)), (lambda x: q @ x + c)

    def test_quadratic_matches_reference(self):
        q, c, f, g = self.quadratic(4, seed=31)
        e = np.random.default_rng(32).normal(size=(2, 4))
        rhs = np.array([0.7, -1.2])
        problem = SmoothProblem(dimension=4, objective=f, gradient=g, equality=(e, rhs))
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
        _, _, f, g = self.quadratic(3, seed=33)
        problem = SmoothProblem(
            dimension=3,
            objective=f,
            gradient=g,
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
        q, c, f, g = self.quadratic(4, seed=34)
        e = np.array([[1.0, 2.0, 0.0, -1.0], [0.0, 1.0, 1.0, 0.0]])
        rhs = np.array([0.5, -0.25])
        repeated = (np.vstack([e, e[0], 3.0 * e[1]]), np.concatenate([rhs, [rhs[0], 3.0 * rhs[1]]]))
        plain = minimize_smooth(SmoothProblem(dimension=4, objective=f, gradient=g, equality=(e, rhs)), TIGHT)
        with caplog.at_level(logging.DEBUG, logger="fairclf.solvers"):
            result = minimize_smooth(SmoothProblem(dimension=4, objective=f, gradient=g, equality=repeated), TIGHT)
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
        _, _, f, g = self.quadratic(2, seed=35)
        problem = SmoothProblem(dimension=2, objective=f, gradient=g, equality=(np.eye(2), np.array([1.0, -2.0])))
        result = minimize_smooth(problem, TIGHT)
        assert result.status == "converged"
        np.testing.assert_allclose(result.point, [1.0, -2.0], atol=1e-15)

    def test_inconsistent_rows_are_infeasible(self):
        _, _, f, g = self.quadratic(3, seed=36)
        e = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
        problem = SmoothProblem(dimension=3, objective=f, gradient=g, equality=(e, np.array([1.0, 1.0])))
        result = minimize_smooth(problem, TIGHT)
        assert result.status == "infeasible"
        assert result.kkt.max_violation > 0.1

    def test_no_rows_is_no_equality(self):
        f, g = quadratic_bowl([2.0, 1.0, -1.0])
        rows = (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), np.array([1.0, 0.5]))
        base = dict(dimension=3, objective=f, gradient=g, linear_constraints=rows)
        none = minimize_smooth(SmoothProblem(**base), TIGHT)
        empty = minimize_smooth(SmoothProblem(**base, equality=(np.zeros((0, 3)), np.zeros(0))), TIGHT)
        assert np.array_equal(none.point, empty.point)
        assert none.status == empty.status and none.iterations == empty.iterations
        assert "equality" not in empty.multipliers

    def test_convex_block_with_equality_rows_is_rejected(self):
        # the ball problem restricted to the plane x0 = x1: no fit poses a
        # convex block together with equality rows, and the solver refuses it
        problem = dataclasses.replace(TestArrayJacobian.ball_problem(), equality=(np.array([1.0, -1.0, 0.0]), 0.0))
        with pytest.raises(ValueError, match="equality rows together with convex constraint blocks"):
            minimize_smooth(problem, TIGHT)


class TestSolveQp:
    def test_separable_box(self):
        problem = QuadraticProblem(
            q_matrix=np.eye(4),
            q_vector=-np.ones(4),
            box=(np.zeros(4), np.full(4, 10.0)),
        )
        result = solve_qp(problem, TIGHT)
        assert result.status == "converged"
        np.testing.assert_allclose(result.point, 1.0, atol=1e-7)

    def test_symmetric_pair_with_equality(self):
        problem = QuadraticProblem(
            q_matrix=np.eye(2),
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
            q_matrix=q,
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
        problem = QuadraticProblem(q_matrix=q, q_vector=c, box=(np.zeros(4), np.full(4, 2.0)), equality=(e, f))
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
        q, c = np.eye(3), -np.array([3.0, 1.0, -2.0])
        box = (np.zeros(3), np.ones(3))
        vector = solve_qp(QuadraticProblem(q_matrix=q, q_vector=c, box=box, equality=(np.ones(3), 1.5)), TIGHT)
        matrix = solve_qp(
            QuadraticProblem(q_matrix=q, q_vector=c, box=box, equality=(np.ones((1, 3)), np.array([1.5]))), TIGHT
        )
        assert vector.status == matrix.status == "converged"
        assert np.array_equal(vector.point, matrix.point)
        assert vector.multipliers["equality"].shape == (1,)

    def test_rejects_mismatched_constraint_shapes(self):
        with pytest.raises(ValueError, match="shapes"):
            solve_qp(
                QuadraticProblem(q_matrix=np.eye(2), q_vector=np.zeros(2), equality=(np.ones((2, 2)), np.zeros(3)))
            )
        f, g = quadratic_bowl([0.0, 0.0])
        with pytest.raises(ValueError, match="shapes"):
            minimize_smooth(
                SmoothProblem(dimension=2, objective=f, gradient=g, linear_constraints=(np.ones((1, 3)), np.ones(1)))
            )

    def test_rejects_constraint_that_is_not_a_block(self):
        f, g = quadratic_bowl([0.0, 0.0])
        problem = SmoothProblem(
            dimension=2, objective=f, gradient=g, convex_constraints=[(lambda x: x[0], lambda x: np.array([1.0, 0.0]))]
        )
        with pytest.raises(TypeError, match="ConstraintBlock"):
            minimize_smooth(problem)

    def test_infeasible_rows_detected(self):
        # the box [0, 1]^2 and the row x1 + x2 <= -1 have no common point
        problem = QuadraticProblem(
            q_matrix=np.eye(2),
            q_vector=-np.ones(2),
            box=(np.zeros(2), np.ones(2)),
            linear_constraints=(np.array([[1.0, 1.0]]), np.array([-1.0])),
        )
        result = solve_qp(problem, TIGHT)
        assert result.status == "infeasible"
        assert result.kkt.max_violation > 0.5

    def test_max_iteration_budget(self):
        problem = QuadraticProblem(
            q_matrix=np.eye(3),
            q_vector=-np.array([3.0, 1.0, -2.0]),
            box=(np.zeros(3), np.ones(3)),
            equality=(np.ones(3), 1.5),
        )
        result = solve_qp(problem, SolverSettings(max_iterations=1, kkt_tolerance=1e-10))
        assert result.status == "max_iter"
        assert result.iterations <= 1

    def test_multipliers_reproduce_certificate(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(5, 5))
        problem = QuadraticProblem(
            q_matrix=m @ m.T,
            q_vector=rng.normal(size=5),
            box=(np.full(5, -1.0), np.ones(5)),
            equality=(np.ones(5), 0.5),
            linear_constraints=(np.array([rng.normal(size=5), rng.normal(size=5)]), np.array([0.2, 0.1])),
        )
        result = solve_qp(problem, TIGHT)
        assert result.status == "converged"
        assert kkt_residuals(problem, result.point, result.multipliers) == result.kkt

    def test_logs_one_record_per_iteration(self, caplog):
        problem = QuadraticProblem(
            q_matrix=np.eye(4),
            q_vector=-np.ones(4),
            box=(np.zeros(4), np.full(4, 0.5)),
        )
        with caplog.at_level(logging.DEBUG, logger="fairclf.solvers"):
            result = solve_qp(problem, TIGHT)
        # one record per iterate checked: the start and each iteration's result
        assert len(caplog.records) == result.iterations + 1
        assert all("mu=" in r.getMessage() and "stat=" in r.getMessage() for r in caplog.records)

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="semidefinite"):
            solve_qp(QuadraticProblem(q_matrix=np.array([[1.0, 0.0], [0.0, -1.0]]), q_vector=np.zeros(2)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            solve_qp(QuadraticProblem(q_matrix=np.array([[1.0, 0.5], [0.0, 1.0]]), q_vector=np.zeros(2)))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(5, 5))
        q = m @ m.T + np.eye(5)
        problem = QuadraticProblem(
            q_matrix=q,
            q_vector=rng.normal(size=5),
            box=(np.zeros(5), np.full(5, 2.0)),
            equality=(np.ones(5), 1.0),
        )
        a = solve_qp(problem, TIGHT)
        b = solve_qp(problem, TIGHT)
        assert np.array_equal(a.point, b.point)
        assert a.iterations == b.iterations


class TestSlackElimination:
    """The Newton systems of ``solve_qp`` with the slack columns eliminated."""

    @staticmethod
    def slack_problem(seed: int) -> tuple[QuadraticProblem, np.ndarray]:
        """A QP on 4 coupled columns and 7 slack-shaped ones, and the 6 of those that are slack columns.

        Slack-shaped columns 4..9 each own one row of A; column 10 shares
        column 9's row, so only the first of the two is eliminated. The box
        is two-sided, one-sided or absent per column, E has two rows over the
        coupled columns and A two more rows over them; x = 0 is strictly
        feasible.
        """
        rng = np.random.default_rng(seed)
        kept, shaped = 4, 7
        n = kept + shaped
        m = rng.normal(size=(kept, kept))
        q = np.zeros((n, n))
        q[:kept, :kept] = m @ m.T + 0.1 * np.eye(kept)
        q[kept:, kept:] = np.diag(np.where(rng.random(shaped) < 0.5, 0.0, rng.random(shaped)))
        a = np.zeros((shaped + 1, n))
        a[:, :kept] = rng.normal(size=(shaped + 1, kept))
        own = np.arange(shaped - 1)
        a[own, kept + own] = rng.choice([-1.0, 1.0], own.size) * rng.uniform(0.5, 2.0, own.size)
        a[shaped - 2, n - 1] = 0.7  # column 10 in column 9's row
        lower = np.where(rng.random(n) < 0.7, -rng.random(n) - 0.5, -np.inf)
        upper = np.where(rng.random(n) < 0.5, rng.random(n) + 0.5, np.inf)
        e = np.zeros((2, n))
        e[:, :kept] = rng.normal(size=(2, kept))
        problem = QuadraticProblem(
            q_matrix=q,
            q_vector=rng.normal(size=n),
            box=(lower, upper),
            equality=(e, np.zeros(2)),
            linear_constraints=(a, rng.uniform(0.1, 1.0, shaped + 1)),
        )
        return problem, kept + own

    @pytest.mark.parametrize("seed", range(5))
    def test_reduced_solve_matches_full_kkt(self, seed):
        problem, expected = self.slack_problem(seed)
        qp = solvers._compile_qp(problem)
        np.testing.assert_array_equal(np.sort(qp.slack), expected)
        g = solvers._Inequalities(qp)
        rng = np.random.default_rng(100 + seed)
        d = rng.uniform(0.1, 10.0, g.h.size)
        rhs, r_e = rng.normal(size=qp.comp.n), rng.normal(size=2)
        dx, dy = solvers._NewtonSystem(g, d).solve(rhs, r_e)

        # the full system: H = Q + G' diag(d) G with G = [-I_lower; I_upper; A]
        identity = np.eye(qp.comp.n)
        rows = np.vstack([-identity[g.lower], identity[g.upper], qp.a])
        h = qp.q + rows.T @ (d[:, None] * rows)
        e = qp.comp.equality[0]
        kkt = np.block([[h, e.T], [e, np.zeros((2, 2))]])
        full = np.linalg.solve(kkt, np.concatenate([rhs, -r_e]))
        np.testing.assert_allclose(np.concatenate([dx, dy]), full, rtol=1e-10, atol=1e-10)

    def test_solution_matches_the_problem_without_slack_structure(self):
        # the same QP with a 1e-300 coupling in Q, which no arithmetic sees but
        # which disqualifies every slack column
        problem, _ = self.slack_problem(7)
        reduced = solve_qp(problem, TIGHT)
        q = problem.q_matrix.copy()
        q[4:, 0] = q[0, 4:] = 1e-300
        plain = solve_qp(dataclasses.replace(problem, q_matrix=q), TIGHT)
        assert solvers._compile_qp(dataclasses.replace(problem, q_matrix=q)).slack.size == 0
        assert reduced.status == plain.status == "converged"
        assert reduced.iterations == plain.iterations
        np.testing.assert_allclose(reduced.point, plain.point, atol=1e-9)

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
        assert problem.q_factor is not None
        dense = dataclasses.replace(problem, q_factor=None)
        assert solvers._compile_qp(dense).slack.size == 0

        class PlainNewtonSystem:
            """H = Q + G' diag(d) G formed whole, in the order of the unreduced method."""

            def __init__(self, g, d):
                d_lo, d_hi, d_a = np.split(d, g.split)
                gram = (g.a.T * d_a) @ g.a
                gram[g.lower, g.lower] += d_lo
                gram[g.upper, g.upper] += d_hi
                self.factor = solvers._cholesky(problem.q_matrix + gram)
                self.e = solvers._linear_arrays(problem.equality, g.n)[0]
                self.h_inv_et = cho_solve(self.factor, self.e.T)
                self.schur = solvers._cholesky(dgemm(1.0, self.e.T, self.h_inv_et, trans_a=1))

            def solve(self, rhs, r_e):
                u = cho_solve(self.factor, rhs)
                dy = cho_solve(self.schur, matvec(self.e, u) + r_e)
                return u - matvec(self.h_inv_et, dy), dy

        reduced = solve_qp(dense, settings)
        factored = solve_qp(problem, settings)
        monkeypatch.setattr(solvers, "_NewtonSystem", PlainNewtonSystem)
        plain = solve_qp(dense, settings)
        # the dense path: slack elimination leaves the plain iterates bit for bit
        assert reduced.iterations == plain.iterations
        assert np.array_equal(reduced.point, plain.point)
        assert np.array_equal(reduced.multipliers["equality"], plain.multipliers["equality"])
        # the factored path: Woodbury steps on a model of Q, certified on Q itself
        assert factored.status == plain.status == "converged"
        assert factored.iterations == plain.iterations
        np.testing.assert_allclose(factored.point, plain.point, rtol=0, atol=1e-9)

    def test_every_column_a_slack_column(self):
        # minimize |x|^2 / 2 - 2 sum(x) over x >= 0 and x <= b: nothing is left to factor
        problem = QuadraticProblem(
            q_matrix=np.eye(3),
            q_vector=np.full(3, -2.0),
            box=(np.zeros(3), None),
            linear_constraints=(np.eye(3), np.array([0.5, 1.0, 3.0])),
        )
        assert solvers._compile_qp(problem).keep.size == 0
        result = solve_qp(problem, TIGHT)
        assert result.status == "converged"
        np.testing.assert_allclose(result.point, [0.5, 1.0, 2.0], atol=1e-7)

    def test_psd_check_reads_both_blocks(self):
        problem, _ = self.slack_problem(3)
        q = problem.q_matrix.copy()
        q[6, 6] = -1e-3  # a slack column's diagonal entry
        with pytest.raises(ValueError, match="semidefinite"):
            solve_qp(dataclasses.replace(problem, q_matrix=q))
        q = problem.q_matrix.copy()
        q[0, 0] = -10.0  # the coupled block
        with pytest.raises(ValueError, match="semidefinite"):
            solve_qp(dataclasses.replace(problem, q_matrix=q))
        q = problem.q_matrix.copy()
        q[0, 1] += 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            solve_qp(dataclasses.replace(problem, q_matrix=q))


class TestFactoredNewton:
    """``solve_qp`` with a ``q_factor``: Newton steps by Woodbury through diag(delta) + V V'."""

    @staticmethod
    def kernel_dual(seed: int, n: int = 60) -> QuadraticProblem:
        """A kernel-SVM-dual-shaped QP carrying its exact factor.

        Q = diag(1/(C n)) + V V' with V = diag(y) F / sqrt(n) for an n x 6
        feature map F, over the box [0, C]. sum(alpha y) = 0 and one c = 0
        covariance row are equalities; two covariance rows bounded by
        c = 2e-4 on both sides are inequalities. alpha = 0 is feasible.
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
        return QuadraticProblem(
            q_matrix=np.diag(delta) + v @ v.T,
            q_vector=-np.ones(n) / n,
            box=(np.zeros(n), np.full(n, cost)),
            equality=(np.vstack([labels / np.sqrt(n), cov[0]]), np.zeros(2)),
            linear_constraints=(np.vstack([cov[1:], -cov[1:]]), np.full(4, 2e-4)),
            q_factor=(delta, v),
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_dense_solve(self, seed):
        problem = self.kernel_dual(seed)
        factored = solve_qp(problem, TIGHT)
        dense = solve_qp(dataclasses.replace(problem, q_factor=None), TIGHT)
        assert factored.status == dense.status == "converged"
        assert factored.iterations == dense.iterations
        np.testing.assert_allclose(factored.point, dense.point, rtol=0, atol=1e-9)
        assert np.max(problem.linear_constraints[0] @ dense.point) > 2e-4 - 1e-9  # a c > 0 row binds

    @pytest.mark.parametrize("seed", range(3))
    def test_poor_factor_certifies_only_the_exact_problem(self, seed):
        problem = self.kernel_dual(seed)
        delta, v = problem.q_factor
        settings = SolverSettings(max_iterations=200, kkt_tolerance=1e-7, feasibility_tolerance=1e-9)
        result = solve_qp(dataclasses.replace(problem, q_factor=(delta, v[:, :1])), settings)
        exact = kkt_residuals(dataclasses.replace(problem, q_factor=None), result.point, result.multipliers)
        if result.status == "converged":
            assert exact.within(settings)
        else:
            assert result.status == "max_iter"
            assert not exact.within(settings)

    def test_rank_zero_factor_is_the_diagonal(self):
        problem = self.kernel_dual(2)
        delta = problem.q_factor[0]
        diagonal = dataclasses.replace(problem, q_matrix=np.diag(delta), q_factor=(delta, np.zeros((delta.size, 0))))
        factored = solve_qp(diagonal, TIGHT)
        dense = solve_qp(dataclasses.replace(diagonal, q_factor=None), TIGHT)
        assert factored.status == dense.status == "converged"
        np.testing.assert_allclose(factored.point, dense.point, rtol=0, atol=1e-9)

    def test_indefinite_q_rejected_despite_a_psd_factor(self):
        problem = self.kernel_dual(0)
        q = problem.q_matrix.copy()
        q[0, 0] = -1.0
        with pytest.raises(ValueError, match="semidefinite"):
            solve_qp(dataclasses.replace(problem, q_matrix=q))

    @pytest.mark.parametrize(
        "factor",
        [(0.0, "v"), (-1.0, "v"), (np.nan, "v"), (1.0, "short"), (1.0, "nan")],
        ids=["zero-delta", "negative-delta", "nan-delta", "short-v", "nan-v"],
    )
    def test_malformed_factor_rejected(self, factor):
        problem = self.kernel_dual(0)
        v = problem.q_factor[1]
        v = {"v": v, "short": v[1:], "nan": np.where(np.arange(v.size).reshape(v.shape) == 3, np.nan, v)}[factor[1]]
        with pytest.raises(ValueError, match="q_factor"):
            solve_qp(dataclasses.replace(problem, q_factor=(factor[0], v)))

    def test_logs_rank_and_residual_trace_once(self, caplog):
        problem = self.kernel_dual(1)
        with caplog.at_level(logging.DEBUG, logger="fairclf.solvers"):
            solve_qp(problem, TIGHT)
        records = [r.getMessage() for r in caplog.records if r.getMessage().startswith("q_factor")]
        assert len(records) == 1
        rank, trace = records[0].removeprefix("q_factor rank=").split(" residual trace=")
        assert int(rank) == 6
        assert abs(float(trace)) < 1e-12


class TestKktResiduals:
    def test_unconstrained_optimum(self):
        f, g = quadratic_bowl([1.0, -1.0])
        problem = SmoothProblem(dimension=2, objective=f, gradient=g)
        res = kkt_residuals(problem, np.array([1.0, -1.0]), {"inequality": []})
        assert res.stationarity_norm == pytest.approx(0.0, abs=1e-12)
        assert res.max_violation == 0.0
        assert res.max_comp_slack == 0.0

    def test_projection_kkt_point(self):
        f, g = quadratic_bowl([2.0, 0.0])
        problem = SmoothProblem(
            dimension=2,
            objective=f,
            gradient=g,
            linear_constraints=(np.array([[1.0, 0.0]]), np.array([1.0])),
        )
        res = kkt_residuals(problem, np.array([1.0, 0.0]), {"inequality": [2.0]})
        assert res.stationarity_norm == pytest.approx(0.0, abs=1e-12)
        assert res.max_violation == pytest.approx(0.0, abs=1e-12)
        assert res.max_comp_slack == pytest.approx(0.0, abs=1e-12)

    def test_non_optimal_point_has_residual(self):
        f, g = quadratic_bowl([2.0, 0.0])
        problem = SmoothProblem(
            dimension=2,
            objective=f,
            gradient=g,
            linear_constraints=(np.array([[1.0, 0.0]]), np.array([1.0])),
        )
        res = kkt_residuals(problem, np.array([0.2, 0.5]), {"inequality": [0.3]})
        assert res.stationarity_norm > 0.1

    def test_negative_multiplier_rejected(self):
        f, g = quadratic_bowl([0.0, 0.0])
        problem = SmoothProblem(
            dimension=2, objective=f, gradient=g, linear_constraints=(np.array([[1.0, 0.0]]), np.array([1.0]))
        )
        with pytest.raises(ValueError, match="non-negative"):
            kkt_residuals(problem, np.zeros(2), {"inequality": [-0.5]})

    def test_equality_multipliers_are_a_vector(self):
        # min 0.5|x|^2 - x1 subject to x1 + x2 = 1 and x1 - x2 = 0: x = (1/2, 1/2)
        problem = QuadraticProblem(
            q_matrix=np.eye(2),
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
