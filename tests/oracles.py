"""Independent reference implementations used to check the library.

Most of them are deliberately brute-force and share no code with the solver
paths under test: central finite differences for gradients, dense grid
enumeration (in exact-feasible coordinates) for the constrained logistic
fits, exhaustive active-set enumeration for the small hinge-loss SVM
programs and box QPs, and a plain-numpy KKT certificate of a QP on its dense
Q. The feasible grid's minimum is found line by line through the convexity
of the sampled losses; its every-point enumeration is kept and the two are
checked against each other. Two references run the library's solvers on
another formulation than the fits do. The exact-hinge primal in
(theta, xi) goes through ``minimize_smooth``, while the fit solves its dual
with ``solve_qp``, so the two share neither the iteration nor the Newton
solve. The RBF kernel dual goes through ``solve_qp`` on a full-rank factor
of its exact Q from an eigendecomposition of the full Gram, where the fit
poses a pivoted incomplete Cholesky, so the two share the interior-point
loop but not the Q. Its covariance bounds are posed as the fit poses them,
on slack variables; ``qp_kkt_reference`` certifies a fit on the same bounds
as inequality rows over alpha alone.

The two loss-budget modes are checked against scipy's general solvers on
their dense forms, built from the problem statement: the total-loss budget
by SLSQP on the epigraph (theta, t), whose KKT residuals are computed here
from non-negative least-squares multipliers rather than read from its
``success`` flag, and the per-point budgets by the HiGHS linear program.

The UCI loaders are checked against their per-line form: each file read in
text mode, one Python string per field, and each categorical column compared
with each of its values.
"""

from __future__ import annotations

import csv
import itertools

import numpy as np
from scipy.optimize import linprog, minimize, nnls

from fairclf.data import Dataset, append_bias
from fairclf.ingest import (
    ADULT_COLUMNS,
    ADULT_NUMERIC,
    BANK_AGE_NAME,
    BANK_LABEL,
    BANK_NUMERIC,
    IngestReport,
)


def finite_difference_gradient(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for j in range(x.size):
        up = x.copy()
        down = x.copy()
        up[j] += step
        down[j] -= step
        grad[j] = (f(up) - f(down)) / (2.0 * step)
    return grad


def logistic_objective(theta: np.ndarray, features: np.ndarray, labels: np.ndarray, l2: float) -> float:
    margins = labels * (features @ theta)
    return float(np.sum(np.logaddexp(0.0, -margins)) + l2 * theta @ theta)


def _grid_losses(thetas: np.ndarray, features: np.ndarray, labels: np.ndarray, l2: float) -> np.ndarray:
    """Total logistic loss at each candidate parameter row."""
    margins = labels[None, :] * (thetas @ features.T)
    return np.logaddexp(0.0, -margins).sum(axis=1) + l2 * np.sum(thetas * thetas, axis=1)


def _grid_eval_min(thetas: np.ndarray, features: np.ndarray, labels: np.ndarray, l2: float) -> float:
    """Minimum total logistic loss over the candidate parameter rows, tiled."""
    best = np.inf
    for start in range(0, thetas.shape[0], 200_000):
        best = min(best, float(_grid_losses(thetas[start : start + 200_000], features, labels, l2).min()))
    return best


def _line_minima(points, first, last, features, labels, l2) -> np.ndarray:
    """Minimum sampled loss on each grid line j over its samples first[j]..last[j].

    ``points(j, k)`` are the parameter rows of sample k[i] on line j[i]. The
    samples of a convex function at evenly spaced points form a convex
    sequence, so the first k whose forward difference is >= 0 is a minimizer;
    all lines are bisected for it together.
    """
    lo, hi = first.copy(), last.copy()
    while True:
        lines = np.flatnonzero(lo < hi)
        if not lines.size:
            break
        mid = (lo[lines] + hi[lines]) // 2
        after = _grid_losses(points(lines, mid + 1), features, labels, l2)
        rising = after >= _grid_losses(points(lines, mid), features, labels, l2)
        hi[lines[rising]] = mid[rising]
        lo[lines[~rising]] = mid[~rising] + 1
    return _grid_losses(points(np.arange(lo.size), lo), features, labels, l2)


def grid_logistic_unconstrained(features, labels, l2, box=5.0, resolution=1e-3) -> float:
    """Dense 2-D grid search of the logistic loss over [-box, box]^2.

    Evaluated in slabs of the first coordinate to bound memory; at the
    default resolution this enumerates ~1e8 parameter pairs and takes on the
    order of a minute, so tests normally compare against values frozen from
    one such run.
    """
    axis = np.arange(-box, box + resolution / 2, resolution)
    best = np.inf
    chunk = max(1, 200_000 // axis.size)
    for start in range(0, axis.size, chunk):
        a_block = axis[start : start + chunk]
        thetas = np.column_stack(
            [np.repeat(a_block, axis.size), np.tile(axis, a_block.size)]
        )
        best = min(best, _grid_eval_min(thetas, features, labels, l2))
    return best


def grid_logistic_fair(features, labels, l2, w, c, box=5.0, resolution=1e-3, brute_force=False) -> float:
    """Grid minimum of the logistic loss restricted to the exact feasible set |w . theta| <= c.

    The grid lives in rotated coordinates (u along w, v orthogonal), so every
    candidate satisfies the constraint exactly; the slab boundary lines
    u = +-c/||w|| are included explicitly. Grid spacing in the rotated frame
    equals ``resolution`` in parameter space.

    On a line of fixed u the in-box samples are one run of v (the box is
    convex) and their losses a convex sequence (the loss is convex), so each
    line's minimum is found by bisection with O(log) evaluations.
    ``brute_force`` evaluates every grid point instead, about 14,000 per line.
    """
    w = np.asarray(w, dtype=float)
    norm = float(np.linalg.norm(w))
    if norm == 0:
        return grid_logistic_unconstrained(features, labels, l2, box, resolution)
    u_hat = w / norm
    v_hat = np.array([-u_hat[1], u_hat[0]])
    reach = box * np.sqrt(2.0)
    v_axis = np.arange(-reach, reach + resolution / 2, resolution)
    u_max = c / norm
    if u_max == 0.0:
        u_axis = np.array([0.0])
    else:
        u_axis = np.arange(-u_max, u_max + resolution / 2, resolution)
        u_axis = u_axis[np.abs(u_axis) <= u_max]  # arange can overshoot the slab
        u_axis = np.unique(np.concatenate([u_axis, [-u_max, u_max]]))
    best = np.inf
    lines, first, last = [], [], []
    for u in u_axis:
        thetas = u * u_hat[None, :] + v_axis[:, None] * v_hat[None, :]
        inside = np.flatnonzero(np.all(np.abs(thetas) <= box + 1e-12, axis=1))
        if not inside.size:
            continue
        if brute_force:
            best = min(best, _grid_eval_min(thetas[inside], features, labels, l2))
            continue
        if inside[-1] - inside[0] + 1 != inside.size:
            raise AssertionError("the in-box samples of a grid line are not one run")
        lines.append(u)
        first.append(inside[0])
        last.append(inside[-1])
    if brute_force or not lines:
        return best
    u_lines = np.array(lines)

    def points(j, k):
        return u_lines[j, None] * u_hat[None, :] + v_axis[k][:, None] * v_hat[None, :]

    return float(_line_minima(points, np.array(first), np.array(last), features, labels, l2).min())


def hinge_objective(theta, features, labels, svm_cost) -> float:
    slack = np.maximum(0.0, 1.0 - labels * (features @ theta))
    return float(theta @ theta + svm_cost * slack.sum())


def active_set_svm(features, labels, svm_cost, w=None, c=np.inf) -> tuple[float, np.ndarray]:
    """Exhaustive active-set solve of the hinge SVM with an optional covariance bound.

    minimize ||theta||^2 + C sum max(0, 1 - y theta.x) subject to
    |w . theta| <= c. Every point is assigned one of three states (outside the
    margin, exactly on it, or inside/violating) and the covariance constraint
    one of three (inactive, active at +c, active at -c); each assignment gives
    a linear KKT system whose solution is kept when it satisfies all the
    sign and feasibility conditions. Returns (objective, theta).
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    n, d = features.shape
    signed = labels[:, None] * features
    cov_states = [0] if not np.isfinite(c) or w is None else [0, 1, -1]
    best = (np.inf, None)
    tol = 1e-9

    for states in itertools.product((0, 1, 2), repeat=n):
        on_margin = [i for i in range(n) if states[i] == 1]
        violating = [i for i in range(n) if states[i] == 2]
        for cov_state in cov_states:
            m = len(on_margin)
            extra = 1 if cov_state else 0
            size = d + m + extra
            a = np.zeros((size, size))
            b = np.zeros(size)
            # stationarity: 2 theta - sum_{violating} C y_i x_i - sum_margin beta_i y_i x_i + nu * sgn * w = 0
            a[:d, :d] = 2.0 * np.eye(d)
            for col, i in enumerate(on_margin):
                a[:d, d + col] = -signed[i]
            if cov_state:
                a[:d, d + m] = cov_state * w
            b[:d] = svm_cost * signed[violating].sum(axis=0) if violating else 0.0
            # margin equalities y_i theta.x_i = 1
            for row, i in enumerate(on_margin):
                a[d + row, :d] = signed[i]
                b[d + row] = 1.0
            if cov_state:
                a[d + m, :d] = w
                b[d + m] = cov_state * c
            try:
                sol = np.linalg.solve(a, b)
            except np.linalg.LinAlgError:
                continue
            theta = sol[:d]
            beta = sol[d : d + m]
            nu = sol[d + m] if cov_state else 0.0
            if np.any(beta < -tol) or np.any(beta > svm_cost + tol) or nu < -tol:
                continue
            margins = labels * (features @ theta)
            ok = True
            for i in range(n):
                if states[i] == 0 and margins[i] < 1.0 - 1e-7:
                    ok = False
                elif states[i] == 2 and margins[i] > 1.0 + 1e-7:
                    ok = False
            if not ok:
                continue
            if w is not None and np.isfinite(c) and abs(float(w @ theta)) > c + 1e-7:
                continue
            value = hinge_objective(theta, features, labels, svm_cost)
            if value < best[0]:
                best = (value, theta)
    return best


def exact_hinge_primal(features, labels, sensitive, svm_cost, c) -> np.ndarray:
    """theta of the exact-hinge program in (theta, xi), solved by ``minimize_smooth``.

    minimize (||theta||^2 + C sum xi) / n over xi >= 0 and
    y_i x_i . theta >= 1 - xi_i, with |w_k . theta| <= c_k for w_k the
    boundary-covariance vector of sensitive column k: an infinite c_k gives
    no row, c_k > 0 two inequality rows and c_k = 0 one equality row (a row
    of zeros is left out). The hinge and xi >= 0 are linear rows of the
    augmented-Lagrangian solve, whose Newton matrix is (d + n) x (d + n), so
    this is for small n only. The library fits the exact hinge through its
    dual on ``solve_qp``, so the two share neither the iteration nor the
    Newton solve.
    """
    from fairclf.solvers import SmoothProblem, SolverSettings, minimize_smooth

    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    n, d = features.shape
    centered = sensitive - sensitive.mean(axis=0)
    w = centered.T @ features / n
    c = np.broadcast_to(np.asarray(c, dtype=float), (w.shape[0],))
    cost = np.full(n, svm_cost / n)
    curvature = np.diag(np.concatenate([np.full(d, 2.0 / n), np.zeros(n)]))
    rows = [np.hstack([-labels[:, None] * features, -np.eye(n)]), np.hstack([np.zeros((n, d)), -np.eye(n)])]
    bounds = [np.full(n, -1.0), np.zeros(n)]
    for k in np.flatnonzero((c > 0) & np.isfinite(c)):
        rows.append(np.concatenate([w[k], np.zeros(n)]) * np.array([[1.0], [-1.0]]))
        bounds.append(np.full(2, c[k]))
    zero = np.flatnonzero((c == 0) & np.any(w != 0, axis=1))
    result = minimize_smooth(
        SmoothProblem(
            dimension=d + n,
            objective=lambda v: float(v[:d] @ v[:d] / n + cost @ v[d:]),
            gradient=lambda v: np.concatenate([2.0 * v[:d] / n, cost]),
            hessian=lambda v: curvature,
            equality=(np.hstack([w[zero], np.zeros((zero.size, n))]), np.zeros(zero.size)),
            linear_constraints=(np.vstack(rows), np.concatenate(bounds)),
        ),
        SolverSettings(max_iterations=2000, kkt_tolerance=1e-8, feasibility_tolerance=1e-12),
    )
    assert result.status == "converged", result.status
    return result.point[:d]


def rbf_kernel_dual_reference(features, labels, sensitive, rbf_gamma, svm_cost, c):
    """The RBF kernel-SVM dual with its exact Q, and its ``solve_qp`` result through a full-rank factor.

    Q = yy' * (K + I/C) / n with K the full Gram exp(-gamma ||x_i - x_j||^2),
    over 0 <= alpha <= C. The equality rows are sum(alpha y) / sqrt(n) = 0
    and then, for each c_k = 0, the covariance row cov_k . alpha = 0 with
    cov_k = y * (K (z_k - mean z_k)) / n divided by its norm. A c_k > 0 bounds
    |a_k . alpha| <= b_k, with a_k = cov_k / ||cov_k|| and b_k =
    c_k / ||cov_k||: the problem poses it as the equality row
    a_k . alpha - s_k = 0 on a slack variable s_k in [-b_k, b_k] with no
    curvature, after the c_k = 0 rows. These are the variables and rows of
    ``fit_kernel_svm_fair`` in its order, so its multipliers apply. The
    problem is posed on the factor delta = 1/(C n),
    V = diag(y) U sqrt(max(L, 0)) / sqrt(n) of the eigendecomposition
    K = U diag(L) U', which is Q to rounding, where the fit uses a pivoted
    incomplete Cholesky of K. Returns (Q, problem, rows, result): Q as a
    dense n x n matrix, and rows the (A, b) pair of the same bounds as
    inequalities over alpha alone, the rows +a_k and -a_k, each bounded by
    b_k.
    """
    from fairclf.solvers import QuadraticProblem, SolverSettings, solve_qp

    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    n = labels.size
    gram = np.exp(-rbf_gamma * ((features[:, None, :] - features[None, :, :]) ** 2).sum(axis=2))
    q_dense = np.outer(labels, labels) * (gram + np.eye(n) / svm_cost) / n
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    v = labels[:, None] * eigenvectors * np.sqrt(np.maximum(eigenvalues, 0.0) / n)
    centered = sensitive - sensitive.mean(axis=0)
    cov = (gram @ centered / n).T * labels
    c = np.broadcast_to(np.asarray(c, dtype=float), (cov.shape[0],))
    equality = [labels / np.sqrt(n)]
    rows, bounds = [], []
    for k in range(cov.shape[0]):
        norm = float(np.linalg.norm(cov[k]))
        if c[k] == 0 and norm > 0:
            equality.append(cov[k] / norm)
        elif 0 < c[k] < np.inf:
            rows += [cov[k] / norm, -cov[k] / norm]
            bounds += [c[k] / norm] * 2
    a, b = np.array(rows).reshape(-1, n), np.array(bounds)
    slack_rows, slack_bounds = a[::2], b[::2]
    m = slack_bounds.size
    e = np.vstack([np.hstack([np.array(equality), np.zeros((len(equality), m))]), np.hstack([slack_rows, -np.eye(m)])])
    problem = QuadraticProblem(
        q_factor=(np.concatenate([np.full(n, 1.0 / (svm_cost * n)), np.zeros(m)]), np.vstack([v, np.zeros((m, n))])),
        q_vector=np.concatenate([-np.ones(n) / n, np.zeros(m)]),
        box=(np.concatenate([np.zeros(n), -slack_bounds]), np.concatenate([np.full(n, float(svm_cost)), slack_bounds])),
        equality=(e, np.zeros(e.shape[0])),
    )
    result = solve_qp(problem, SolverSettings(max_iterations=200, kkt_tolerance=1e-10, feasibility_tolerance=1e-12))
    assert result.status == "converged", result.status
    return q_dense, problem, (a, b), result


def qp_box_equality_reference(q_matrix, q_vector, lower, upper, equality=None, with_multipliers=False):
    """Exhaustive active-set solve of a small box QP with optional equalities E x = f.

    ``equality`` is an (E, f) pair with any number of rows; a 1-D E with a
    scalar f is one row. Each variable is free, at its lower bound or at its
    upper bound; the resulting equality-constrained KKT systems are solved and
    screened by the KKT sign conditions. Returns (value, x), plus the
    multipliers of the rows of E when ``with_multipliers`` is set.
    """
    q_matrix = np.asarray(q_matrix, dtype=float)
    q_vector = np.asarray(q_vector, dtype=float)
    n = q_vector.size
    if equality is None:
        e, f = np.zeros((0, n)), np.zeros(0)
    else:
        e = np.atleast_2d(np.asarray(equality[0], dtype=float))
        f = np.atleast_1d(np.asarray(equality[1], dtype=float))
    m = f.size
    best = (np.inf, None, None)
    for states in itertools.product((0, 1, 2), repeat=n):
        free = [i for i in range(n) if states[i] == 0]
        fixed = np.array([lower[i] if states[i] == 1 else (upper[i] if states[i] == 2 else 0.0) for i in range(n)])
        k = len(free)
        x, mu = fixed, np.zeros(m)
        if k + m:
            # [Q_ff E_f'; E_f 0] [x_f; mu] = [-q_f - Q_f. x_fixed; f - E x_fixed]
            a = np.zeros((k + m, k + m))
            a[:k, :k] = q_matrix[np.ix_(free, free)]
            a[:k, k:] = e[:, free].T
            a[k:, :k] = e[:, free]
            b = np.concatenate([-q_vector[free] - q_matrix[free] @ fixed, f - e @ fixed])
            try:
                sol = np.linalg.solve(a, b)
            except np.linalg.LinAlgError:
                continue
            x = fixed.copy()
            x[free] = sol[:k]
            mu = sol[k:]
        grad = q_matrix @ x + q_vector + e.T @ mu
        ok = True
        for i in range(n):
            if states[i] == 0 and not (lower[i] - 1e-9 <= x[i] <= upper[i] + 1e-9):
                ok = False
            if states[i] == 1 and grad[i] < -1e-8:
                ok = False
            if states[i] == 2 and grad[i] > 1e-8:
                ok = False
            if states[i] == 0 and abs(grad[i]) > 1e-7:
                ok = False
        if not ok:
            continue
        value = float(0.5 * x @ q_matrix @ x + q_vector @ x)
        if value < best[0]:
            best = (value, x, mu)
    return best if with_multipliers else best[:2]


def qp_kkt_reference(q_dense, q_vector, box, equality, rows, point, multipliers) -> tuple[float, float, float]:
    """KKT residuals of a QP at (point, multipliers), from its dense Q in plain numpy.

    The QP is minimize 0.5 x'Qx + c.x over lower <= x <= upper (``box``, a
    (lower, upper) pair, either side None for none), E x = f (``equality``,
    an (E, f) pair or None) and A x <= b (``rows``, an (A, b) pair or None).
    ``multipliers`` is laid out as ``SolverResult.multipliers``: under
    "inequality" a list with the multipliers lam of the rows of A, if any,
    and under "equality" the multipliers mu of the rows of E. Returns
    (stationarity, violation, comp_slack): the largest entry of
    x - clip(x - g, lower, upper) with g = Q x + c + A'lam + E'mu, the worst
    violation of the box, the rows and the equalities, and the largest
    |lam_i (A x - b)_i|.
    """
    x = np.asarray(point, dtype=float)
    n = x.size
    lower = np.full(n, -np.inf) if box[0] is None else np.broadcast_to(np.asarray(box[0], dtype=float), (n,))
    upper = np.full(n, np.inf) if box[1] is None else np.broadcast_to(np.asarray(box[1], dtype=float), (n,))
    grad = np.asarray(q_dense, dtype=float) @ x + q_vector
    violation = max(float(np.max(lower - x)), float(np.max(x - upper)), 0.0)
    comp_slack = 0.0
    if rows is not None:
        a, b = np.atleast_2d(rows[0]), np.atleast_1d(rows[1])
        parts = [np.ravel(part) for part in multipliers["inequality"]]
        lam = np.concatenate(parts) if parts else np.zeros(0)
        assert lam.shape == b.shape and np.all(lam >= 0)
        grad = grad + a.T @ lam
        slack = a @ x - b
        violation = max(violation, float(np.max(slack, initial=0.0)))
        comp_slack = float(np.max(np.abs(lam * slack), initial=0.0))
    if equality is not None:
        e, f = np.atleast_2d(equality[0]), np.atleast_1d(equality[1])
        grad = grad + e.T @ multipliers["equality"]
        violation = max(violation, float(np.max(np.abs(e @ x - f), initial=0.0)))
    stationarity = float(np.max(np.abs(x - np.clip(x - grad, lower, upper))))
    return stationarity, violation, comp_slack


def unit_rows_reference(rows) -> tuple[np.ndarray, np.ndarray]:
    """Stack (a, b) constraint rows one at a time, each divided by ``np.linalg.norm(a)`` (1 for zeros)."""
    scaled = []
    for a, b in rows:
        r = float(np.linalg.norm(a))
        r = r if r > 0 else 1.0
        scaled.append((a / r, b / r))
    return np.array([a for a, _ in scaled]), np.array([b for _, b in scaled])


def margin_rows_reference(w, features, rows, signs, margins) -> tuple[np.ndarray, np.ndarray]:
    """The fine-grained (A, b): the epigraph rows of W, then -s_i x_i / ||x_i|| . theta <= -m_i / ||x_i||.

    The arithmetic of the first in-place builder: each margin row divided by
    its norm, then multiplied by -s_i.
    """
    k = w.shape[0]
    epigraph = []
    for j in range(k):
        t = np.zeros(k)
        t[j] = 1.0
        epigraph += [(np.concatenate([w[j], -t]), 0.0), (np.concatenate([-w[j], -t]), 0.0)]
    top_a, top_b = unit_rows_reference(epigraph)
    block = features[rows]
    norms = np.sqrt(np.einsum("ij,ij->i", block, block))
    block = block / norms[:, None]
    block *= -signs[:, None]
    a = np.vstack([top_a, np.hstack([block, np.zeros((rows.size, k))])])
    return a, np.concatenate([top_b, -margins / norms])


# ---------------------------------------------------------------------------
# the loss-budget modes on scipy's general solvers


def _total_loss(theta, features, labels, l2) -> tuple[float, np.ndarray]:
    """The logistic loss sum log(1 + e^-y x.theta) + l2 ||theta||^2 and its gradient, by logaddexp."""
    margins = labels * (features @ theta)
    weights = np.exp(-np.logaddexp(0.0, margins))  # sigma(-m)
    return float(np.logaddexp(0.0, -margins).sum() + l2 * theta @ theta), -(features.T @ (labels * weights)) + 2.0 * l2 * theta


def zero_covariance_reference(features, labels, w, l2) -> tuple[np.ndarray, float]:
    """(theta, loss) of the least logistic loss with W theta = 0, by BFGS over a null-space basis of W from numpy's SVD."""
    _, s, vt = np.linalg.svd(np.atleast_2d(w))
    basis = vt[int(np.count_nonzero(s > 1e-12 * s.max())) :].T

    def loss(phi):
        value, gradient = _total_loss(basis @ phi, features, labels, l2)
        return value, basis.T @ gradient

    found = minimize(loss, np.zeros(basis.shape[1]), jac=True, method="BFGS", options={"gtol": 1e-10, "maxiter": 10_000})
    theta = basis @ found.x
    return theta, _total_loss(theta, features, labels, l2)[0]


def loss_budget_reference(features, labels, w, l2, budget) -> tuple[np.ndarray, dict]:
    """theta of min sum_k |w_k . theta| s.t. L(theta) <= budget, by SLSQP on the dense epigraph form, and its KKT residuals.

    The variables are (theta, t) with the constraints t - W theta >= 0,
    t + W theta >= 0 and 1 - L(theta) / budget >= 0, from the unconstrained
    optimum (by BFGS) with t = |W theta|. SLSQP's ``success`` flag is not
    read. The residuals are computed at its point: multipliers >= 0 on the
    constraints within 1e-7 of active, by non-negative least squares on
    the stationarity grad sum t = J_A' lambda, whose residual norm is
    ``stationarity``; ``violation`` is the worst constraint value below
    zero and ``comp_slack`` the worst lambda_i g_i.
    """
    w = np.atleast_2d(np.asarray(w, dtype=float))
    k, d = w.shape
    start = minimize(lambda theta: _total_loss(theta, features, labels, l2), np.zeros(d), jac=True, method="BFGS", options={"gtol": 1e-10}).x
    objective = np.concatenate([np.zeros(d), np.ones(k)])

    def values(x):
        theta, t = x[:d], x[d:]
        return np.concatenate([t - w @ theta, t + w @ theta, [1.0 - _total_loss(theta, features, labels, l2)[0] / budget]])

    def jacobian(x):
        eye = np.eye(k)
        budget_row = np.concatenate([-_total_loss(x[:d], features, labels, l2)[1] / budget, np.zeros(k)])
        return np.vstack([np.hstack([-w, eye]), np.hstack([w, eye]), budget_row])

    found = minimize(
        lambda x: float(objective @ x),
        np.concatenate([start, np.abs(w @ start)]),
        jac=lambda x: objective,
        method="SLSQP",
        constraints=[{"type": "ineq", "fun": values, "jac": jacobian}],
        options={"ftol": 1e-15, "maxiter": 1_000},
    )
    g, jac = values(found.x), jacobian(found.x)
    active = np.flatnonzero(g <= 1e-7)
    lam, stationarity = nnls(jac[active].T, objective)
    residuals = {
        "stationarity": float(stationarity),
        "violation": float(max(0.0, -g.min())),
        "comp_slack": float(np.max(np.abs(lam * g[active]), initial=0.0)),
    }
    return found.x[:d], residuals


def fine_grained_reference(features, labels, w, protected, bounds) -> np.ndarray:
    """theta of the fine-grained linear program, by HiGHS on rows built from its statement.

    Minimize sum_k t_k over (theta, t) subject to -t_k <= w_k . theta <= t_k,
    x_i . theta >= 1e-8 for each ``protected`` row i, and, for every other
    row i with a finite ``bounds[i]``, the loss budget log(1 + e^-m) <= b_i
    as its margin y_i x_i . theta >= -log(e^b_i - 1). Each row is passed as
    written, without scaling.
    """
    w = np.atleast_2d(np.asarray(w, dtype=float))
    k, d = w.shape
    n = features.shape[0]
    is_protected = np.zeros(n, dtype=bool)
    is_protected[protected] = True
    budgeted = np.flatnonzero(~is_protected & np.isfinite(bounds))
    rows = [np.hstack([w, -np.eye(k)]), np.hstack([-w, -np.eye(k)])]
    rhs = [np.zeros(k), np.zeros(k)]
    rows.append(np.hstack([-features[is_protected], np.zeros((int(is_protected.sum()), k))]))
    rhs.append(np.full(int(is_protected.sum()), -1e-8))
    rows.append(np.hstack([-(labels[budgeted, None] * features[budgeted]), np.zeros((budgeted.size, k))]))
    rhs.append(np.log(np.expm1(bounds[budgeted])))
    found = linprog(
        np.concatenate([np.zeros(d), np.ones(k)]),
        A_ub=np.vstack(rows),
        b_ub=np.concatenate(rhs),
        bounds=[(None, None)] * d + [(0, None)] * k,
        method="highs",
    )
    assert found.status == 0, found.message
    return found.x[:d]


# ---------------------------------------------------------------------------
# the UCI loaders, line by line


def loop_encode_sensitive(raw, name, positive_value=None):
    """``encode_sensitive`` as one pass over the rows per distinct value."""
    values = [str(v) for v in raw]
    distinct = sorted(set(values))
    if len(distinct) < 2:
        raise ValueError(f"sensitive column {name!r} is constant; encoding would be vacuous")
    if len(distinct) == 2:
        if positive_value is not None:
            pos = str(positive_value)
            if pos not in distinct:
                raise ValueError(f"positive_value {pos!r} not among values {distinct}")
        else:
            pos = distinct[1]
        column = np.array([1.0 if v == pos else 0.0 for v in values])
        return column.reshape(-1, 1), (f"{name}={pos}",)
    if positive_value is not None:
        raise ValueError("positive_value only applies to binary attributes")
    columns = np.zeros((len(values), len(distinct)))
    for j, val in enumerate(distinct):
        columns[:, j] = [1.0 if v == val else 0.0 for v in values]
    return columns, tuple(f"{name}={val}" for val in distinct)


def loop_labels(path, column, tokens, line_numbers, positive, negative):
    labels = np.empty(len(tokens))
    for i, (token, line) in enumerate(zip(tokens, line_numbers)):
        if token == positive:
            labels[i] = 1.0
        elif token == negative:
            labels[i] = -1.0
        else:
            raise ValueError(f"{path}:{line}: unknown label token in the {column} column: {token!r}")
    return labels


def loop_floats(path, column, values, line_numbers):
    numbers = []
    for value, line in zip(values, line_numbers):
        try:
            numbers.append(float(value))
        except ValueError:
            raise ValueError(f"{path}:{line}: non-numeric {column} field {value!r}") from None
    return numbers


def loop_group_stats(groups, labels):
    stats = {}
    for column, values in groups.items():
        for value in sorted(set(values)):
            mask = np.array([v == value for v in values])
            positive = int(np.sum(labels[mask] == 1))
            stats[f"{column}={value}"] = {
                "total": int(mask.sum()),
                "positive": positive,
                "negative": int(mask.sum()) - positive,
            }
    return stats


def per_value_features(numeric, categorical):
    """The one-hot assembly as one comparison of the whole column per distinct value."""
    blocks, names = [], []
    for column, values in numeric.items():
        arr = np.asarray(values, dtype=float)
        sd = arr.std()
        blocks.append(((arr - arr.mean()) / (sd if sd > 0 else 1.0)).reshape(-1, 1))
        names.append(column)
    for column, values in categorical.items():
        # compared as Python strings: a numpy string array would drop a
        # value's trailing NUL characters
        distinct = sorted(set(values))
        onehot = np.zeros((len(values), len(distinct)))
        for j, val in enumerate(distinct):
            onehot[:, j] = [v == val for v in values]
        blocks.append(onehot)
        names.extend(f"{column}={val}" for val in distinct)
    return np.hstack(blocks), tuple(names), tuple(range(len(numeric)))


def reference_dataset(path, columns, numeric, line_numbers, labels, sensitive, sensitive_names, groups, rows_dropped):
    """The loaders' shared pipeline as stacked blocks, a ``Dataset`` without bias, then ``append_bias``."""
    numbers = {c: loop_floats(path, c, columns[c], line_numbers) for c in numeric}
    categorical = {c: values for c, values in columns.items() if c not in numeric}
    features, names, scale_columns = per_value_features(numbers, categorical)
    dataset = Dataset(
        features=features,
        labels=labels,
        sensitive=sensitive,
        sensitive_names=sensitive_names,
        feature_names=names,
        scale_columns=scale_columns,
    )
    report = IngestReport(
        rows_read=len(labels) + rows_dropped,
        rows_dropped_missing=rows_dropped,
        rows_kept=len(labels),
        label_positive=int(np.sum(labels == 1)),
        label_negative=int(np.sum(labels == -1)),
        group_stats=loop_group_stats(groups, labels),
    )
    return append_bias(dataset), report


def reference_load_adult(path, sensitive_choice="gender"):
    """``load_adult`` as a text-mode loop over the lines: each stripped, split at commas, each field stripped."""
    rows, line_numbers = [], []
    dropped = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("|"):
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) != len(ADULT_COLUMNS):
                raise ValueError(f"{path}:{lineno}: expected {len(ADULT_COLUMNS)} fields, got {len(fields)}")
            if "?" in fields:
                dropped += 1
                continue
            rows.append(fields)
            line_numbers.append(lineno)
    if not rows:
        raise ValueError(f"{path}: no usable rows")
    columns = dict(zip(ADULT_COLUMNS, zip(*rows)))
    del rows

    tokens = [token.rstrip(".") for token in columns.pop("income")]
    labels = loop_labels(path, "income", tokens, line_numbers, ">50K", "<=50K")
    groups = {"sex": columns["sex"], "race": columns["race"]}
    sources = {"gender": ["sex"], "race": ["race"], "gender+race": ["sex", "race"]}[sensitive_choice]
    blocks = [loop_encode_sensitive(columns.pop(source), source) for source in sources]
    return reference_dataset(
        path,
        columns,
        ADULT_NUMERIC,
        line_numbers,
        labels,
        np.hstack([block for block, _ in blocks]),
        sum((names for _, names in blocks), ()),
        groups,
        dropped,
    )


def reference_load_bank(path):
    """``load_bank`` with its ``csv`` parse, each column kept as strings."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=";", quotechar='"')
        try:
            header = [h.strip().strip('"') for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        for column in (BANK_LABEL, "age"):
            if column not in header:
                raise ValueError(f"{path}: no '{column}' column in header")
        rows, line_numbers = [], []
        for fields in reader:
            if not fields:
                continue
            if len(fields) != len(header):
                raise ValueError(f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(fields)}")
            rows.append([f.strip().strip('"') for f in fields])
            line_numbers.append(reader.line_num)
    if not rows:
        raise ValueError(f"{path}: no usable rows")
    columns = dict(zip(header, zip(*rows)))
    del rows

    labels = loop_labels(path, BANK_LABEL, columns.pop(BANK_LABEL), line_numbers, "yes", "no")
    ages = np.array(loop_floats(path, "age", columns.pop("age"), line_numbers))
    in_group = (ages >= 25) & (ages <= 60)
    return reference_dataset(
        path,
        columns,
        [c for c in BANK_NUMERIC if c in columns],
        line_numbers,
        labels,
        in_group.astype(float).reshape(-1, 1),
        (BANK_AGE_NAME,),
        {"age": ["25-60" if g else "other" for g in in_group]},
        0,
    )
