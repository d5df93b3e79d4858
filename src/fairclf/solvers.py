"""Generic constrained convex solvers with KKT diagnostics.

Two entry points, each with its own method:

* :func:`minimize_smooth` - smooth convex objective under linear equalities
  E x = f, linear inequality constraints A x <= b and differentiable convex
  inequality blocks g(x) <= 0, but not equalities and convex blocks
  together. The equalities are eliminated exactly: with x_p a point of
  E x = f and N an orthonormal basis of the null space of E, both from one
  SVD of E, the solve runs over phi in x = x_p + N phi. An
  augmented-Lagrangian loop then handles the inequalities, updating
  multipliers and the penalty weight and handing each subproblem to a
  limited-memory quasi-Newton solve (L-BFGS-B). Without inequalities that is
  a single L-BFGS-B run.
* :func:`solve_qp` - convex quadratic objective under a variable box, linear
  equalities E x = f and linear inequalities A x <= b. A primal-dual
  interior-point method (Mehrotra's predictor-corrector) solves one Newton
  system per iteration. Slack columns - variables that Q couples to no
  other variable, E leaves out and one row of A alone uses, such as the xi
  of an exact-hinge SVM - are eliminated from each Newton system through
  their diagonal block. The remaining columns are factored by a dense
  Cholesky, or, when the problem carries a factor Q ~ diag(delta) + V V'
  (a kernel dual's low-rank Gram), the Newton matrix is diagonal plus low
  rank and is solved by Sherman-Morrison-Woodbury through one small
  Cholesky (Fine & Scheinberg 2001; Ferris & Munson 2002). The factor only
  steers the steps: residuals and the certificate use Q itself.

Linear constraints are handed over as matrices, one row per constraint. The
caller decides which bounds are equalities and puts their rows in E; the
solvers take every row of A as an inequality. E may repeat a row or have
rows that depend on others: both solvers reduce it by its numerical rank.

Both check their iterates with the same residual routine: stationarity,
worst primal violation and worst complementary-slackness product. A run only
claims convergence when all three are inside tolerance. Each
augmented-Lagrangian outer iteration and each interior-point iteration is
logged at DEBUG level on this module's logger.

numpy and scipy each link their own BLAS, each with its own thread pool, and
L-BFGS-B and the Cholesky factorisations run on scipy's. Products with an
n-row operand inside :func:`minimize_smooth`'s loop and throughout
:func:`solve_qp` therefore go through :func:`matvec`, :func:`rmatvec` and
:func:`dot`, which call scipy's BLAS, and the positive-semidefiniteness check
factors on scipy's LAPACK, so that a fit wakes one pool instead of two that
fight over the cores.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import ddot, dgemm, dgemv, dsyrk
from scipy.linalg.lapack import dpotrf
from scipy.optimize import minimize as _scipy_minimize

__all__ = [
    "ConstraintBlock",
    "KKTResiduals",
    "QuadraticProblem",
    "SmoothProblem",
    "SolverResult",
    "SolverSettings",
    "dot",
    "kkt_residuals",
    "matvec",
    "minimize_smooth",
    "rmatvec",
    "solve_qp",
]

_log = logging.getLogger(__name__)

_RHO_INIT = 10.0
_RHO_GROWTH = 10.0
_RHO_MAX = 1e12

_STEP_TO_BOUNDARY = 0.995


@dataclass(frozen=True)
class SolverSettings:
    """Stopping controls; ``max_iterations`` caps total inner iterations.

    An inner iteration is one L-BFGS-B iteration in :func:`minimize_smooth`
    and one interior-point iteration (one factorisation) in :func:`solve_qp`.
    ``feasibility_tolerance`` bounds the worst constraint violation at a
    converged point separately from the stationarity/comp-slack tolerance; it
    defaults to ``kkt_tolerance`` and can be set much tighter for problems
    whose constraints must hold to near machine precision.
    """

    max_iterations: int = 10_000
    kkt_tolerance: float = 1e-5
    feasibility_tolerance: float | None = None

    def __post_init__(self):
        for tolerance in (self.kkt_tolerance, self.feasibility_tolerance):
            # written so that NaN fails too
            if tolerance is not None and not 0 < tolerance < np.inf:
                raise ValueError("tolerances must be positive and finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")

    @property
    def feas_tol(self) -> float:
        return self.feasibility_tolerance if self.feasibility_tolerance is not None else self.kkt_tolerance


@dataclass(frozen=True)
class KKTResiduals:
    stationarity_norm: float
    max_violation: float
    max_comp_slack: float

    def within(self, settings: SolverSettings) -> bool:
        return (
            self.stationarity_norm <= settings.kkt_tolerance
            and self.max_violation <= settings.feas_tol
            and self.max_comp_slack <= settings.kkt_tolerance
        )


@dataclass(frozen=True)
class SolverResult:
    point: np.ndarray
    objective_value: float
    status: Literal["converged", "max_iter", "infeasible"]
    kkt: KKTResiduals
    iterations: int
    multipliers: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ConstraintBlock:
    """Vectorized convex inequality block g(x) <= 0 with m rows.

    The one form of a nonlinear constraint. ``value`` maps x to a length-m
    vector, ``jacobian`` to the (m, n) Jacobian as an array. The solver only
    ever forms ``jacobian(x).T @ lam``, with :func:`rmatvec`. Scalar
    constraints are the m=1 case; grouping related constraints into one block
    keeps the per-iteration cost at a few matrix products.
    """

    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    size: int


@dataclass(frozen=True)
class SmoothProblem:
    """Differentiable convex objective with linear equalities and linear and convex inequalities.

    ``equality`` is an (E, f) pair meaning E x = f, with any number of rows (a
    1-D E and a scalar f are one row), or None; an E with no rows is the same
    as None. ``linear_constraints`` is an (A, b) pair meaning A x <= b, with A
    of shape (m, dimension) and b of length m (a 1-D A is one row), or None.
    ``convex_constraints`` are :class:`ConstraintBlock` instances; a problem
    with equality rows may not have any. The objective is only evaluated on
    points that satisfy E x = f to rounding.
    """

    dimension: int
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    equality: tuple[np.ndarray, np.ndarray | float] | None = None
    linear_constraints: tuple[np.ndarray, np.ndarray] | None = None
    convex_constraints: Sequence[ConstraintBlock] = ()
    initial_point: np.ndarray | None = None


@dataclass(frozen=True)
class QuadraticProblem:
    """Convex QP: minimize 0.5 x'Qx + q.x over a box with optional equalities.

    Q must be symmetric positive semidefinite (validated up to numerical
    noise). ``box`` is a (lower, upper) pair of per-variable bounds, either of
    which may be None for unbounded; ``equality`` is an (E, f) pair meaning
    E x = f, with any number of rows (a 1-D E and a scalar f are one row);
    ``linear_constraints`` is an (A, b) pair meaning A x <= b. Either may be
    None.

    ``q_factor`` is an optional (delta, V) pair meaning Q ~ diag(delta) + V V',
    with delta positive (a vector, or a scalar for every variable) and V of
    shape (dimension, r). It is structure, like ``equality``: the
    interior-point method then solves each Newton system through the
    diagonal-plus-rank-r model instead of factoring Q's dense block. It only
    steers the steps. The objective, the residuals and the convergence
    certificate use ``q_matrix``, and ``q_matrix`` is validated as without a
    factor, so a poor factor costs iterations, not correctness.
    """

    q_matrix: np.ndarray
    q_vector: np.ndarray
    box: tuple[np.ndarray | None, np.ndarray | None] = (None, None)
    equality: tuple[np.ndarray, np.ndarray | float] | None = None
    linear_constraints: tuple[np.ndarray, np.ndarray] | None = None
    q_factor: tuple[np.ndarray | float, np.ndarray] | None = None


# ---------------------------------------------------------------------------
# products on scipy's BLAS


def _blas_layout(a: np.ndarray) -> tuple[np.ndarray, int] | None:
    """(f, trans) with f Fortran-ordered and ``a`` equal to f.T if trans else f.

    A C-ordered matrix is passed as its transposed view, so dgemv copies
    nothing. None when ``a`` is empty, not float64 or in neither order.
    """
    if a.dtype != np.float64 or a.size == 0:
        return None
    if a.flags.f_contiguous:
        return a, 0
    if a.flags.c_contiguous:
        return a.T, 1
    return None


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x`` on scipy's BLAS (on numpy's for a layout dgemv would copy)."""
    layout = _blas_layout(a)
    if layout is None:
        return a @ x
    f, trans = layout
    return dgemv(1.0, f, x, trans=trans)


def rmatvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``a.T @ v`` on scipy's BLAS (on numpy's for a layout dgemv would copy)."""
    layout = _blas_layout(a)
    if layout is None:
        return a.T @ v
    f, trans = layout
    return dgemv(1.0, f, v, trans=1 - trans)


def dot(u: np.ndarray, v: np.ndarray) -> float:
    """``u @ v`` of two float vectors on scipy's BLAS."""
    return float(ddot(u, v)) if u.size else 0.0


# ---------------------------------------------------------------------------
# problem compilation


def _linear_arrays(rows: tuple | None, n: int) -> tuple[np.ndarray, np.ndarray]:
    """An (A, b) pair as float arrays of shapes (m, n) and (m,); None is m = 0."""
    if rows is None:
        return np.zeros((0, n)), np.zeros(0)
    a = np.atleast_2d(np.asarray(rows[0], dtype=float))
    b = np.atleast_1d(np.asarray(rows[1], dtype=float))
    if b.ndim != 1 or a.shape != (b.size, n):
        raise ValueError(f"linear constraint shapes {a.shape} and {b.shape} do not match dimension {n}")
    return a, b


def _linear_blocks(a: np.ndarray, b: np.ndarray) -> list[ConstraintBlock]:
    if not b.size:
        return []
    return [ConstraintBlock(value=lambda x: matvec(a, x) - b, jacobian=lambda x: a, size=b.size)]


@dataclass
class _Compiled:
    """A problem as the KKT residuals read it."""

    n: int
    objective: Callable
    gradient: Callable
    blocks: list  # inequality ConstraintBlocks
    equality: tuple[np.ndarray, np.ndarray] | None  # (E, f); a QP's may have no rows, a smooth problem's has some
    lo: np.ndarray | None  # variable box, quadratic problems only
    hi: np.ndarray | None
    x0: np.ndarray | None  # smooth problems only


def _compile_smooth(problem: SmoothProblem) -> _Compiled:
    n = problem.dimension
    blocks = _linear_blocks(*_linear_arrays(problem.linear_constraints, n))
    for block in problem.convex_constraints:
        if not isinstance(block, ConstraintBlock):
            raise TypeError("convex constraints must be ConstraintBlock instances")
        blocks.append(block)
    x0 = np.zeros(n) if problem.initial_point is None else np.asarray(problem.initial_point, dtype=float).copy()
    if x0.shape != (n,):
        raise ValueError("initial_point dimension mismatch")
    e, f = _linear_arrays(problem.equality, n)
    return _Compiled(n, problem.objective, problem.gradient, blocks, (e, f) if f.size else None, None, None, x0)


def _slack_columns(q: np.ndarray, a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slack columns of a QP and the row of A each one uses.

    Column j qualifies when Q has no off-diagonal entry in its row or column,
    E is zero in it and A has exactly one nonzero in it, in a row that no
    earlier qualifying column uses (see the interior-point comment below).
    """
    free = ~np.any(e != 0, axis=0) & (np.count_nonzero(a, axis=0) == 1)
    if not free.any():
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    coupled = q != 0
    np.fill_diagonal(coupled, False)
    cols = np.flatnonzero(free & ~coupled.any(axis=0) & ~coupled.any(axis=1))
    rows, first = np.unique(np.argmax(a[:, cols] != 0, axis=0), return_index=True)
    return cols[first], rows


def _validate_psd(q: np.ndarray, slack: np.ndarray, keep: np.ndarray) -> None:
    """Reject a Q that is not symmetric or not PSD up to a relative jitter of 1e-10.

    Slack columns have no off-diagonal entries, so Q is block-diagonal in
    (kept, slack) order: Q_RR is checked by Cholesky (on scipy's LAPACK, in
    place on one copy) and each slack diagonal entry against the jitter,
    which is the same test on the whole matrix.
    """
    scale = max(float(np.abs(q).max()), 1.0)
    if not np.allclose(q, q.T, atol=1e-10 * scale):
        raise ValueError("Q must be symmetric")
    jitter = 1e-10 * scale
    if np.any(np.diag(q)[slack] + jitter <= 0):
        raise ValueError("Q must be positive semidefinite")
    shifted = q[np.ix_(keep, keep)] if slack.size else q.copy()
    shifted[np.diag_indices(keep.size)] += jitter
    # the transposed view is Fortran-ordered, so dpotrf factors it in place
    if keep.size and dpotrf(shifted.T, lower=1, clean=0, overwrite_a=1)[1] != 0:
        raise ValueError("Q must be positive semidefinite")


def _q_factor(problem: QuadraticProblem, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The problem's (delta, V) as arrays of shapes (n,) and (n, r), or None."""
    if problem.q_factor is None:
        return None
    delta = np.broadcast_to(np.asarray(problem.q_factor[0], dtype=float), (n,))
    v = np.asarray(problem.q_factor[1], dtype=float)
    if v.ndim != 2 or v.shape[0] != n:
        raise ValueError(f"q_factor V of shape {v.shape} does not have {n} rows")
    # written so that NaN fails too
    if not (np.all((delta > 0) & (delta < np.inf)) and np.isfinite(v).all()):
        raise ValueError("q_factor needs a positive finite delta and a finite V")
    return delta, v


@dataclass
class _CompiledQP:
    """A QP as arrays: box lo <= x <= hi and rows a x <= b, with E x = f in ``comp.equality``.

    ``slack`` are the slack columns, ``slack_rows`` the row of A each one
    uses and ``keep`` the other columns, ascending. ``factor`` is the
    problem's (delta, V), or None.
    """

    comp: _Compiled
    q: np.ndarray
    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    slack: np.ndarray
    slack_rows: np.ndarray
    keep: np.ndarray
    factor: tuple[np.ndarray, np.ndarray] | None


def _compile_qp(problem: QuadraticProblem) -> _CompiledQP:
    q = np.asarray(problem.q_matrix, dtype=float)
    c = np.asarray(problem.q_vector, dtype=float)
    n = c.size
    if q.shape != (n, n):
        raise ValueError("Q and q dimensions disagree")
    lo, hi = problem.box
    lo = np.full(n, -np.inf) if lo is None else np.broadcast_to(np.asarray(lo, dtype=float), (n,))
    hi = np.full(n, np.inf) if hi is None else np.broadcast_to(np.asarray(hi, dtype=float), (n,))
    a, b = _linear_arrays(problem.linear_constraints, n)
    equality = _linear_arrays(problem.equality, n)
    factor = _q_factor(problem, n)
    if factor is None:
        slack, slack_rows = _slack_columns(q, a, equality[0])
    else:  # the factored Newton system keeps every column
        slack, slack_rows = np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    keep = np.setdiff1d(np.arange(n), slack)
    _validate_psd(q, slack, keep)

    def objective(x: np.ndarray) -> float:
        return 0.5 * dot(x, matvec(q, x)) + dot(c, x)

    def gradient(x: np.ndarray) -> np.ndarray:
        return matvec(q, x) + c

    comp = _Compiled(n, objective, gradient, _linear_blocks(a, b), equality, lo, hi, None)
    return _CompiledQP(comp, q, c, a, b, slack, slack_rows, keep, factor)


def _inequality_gradient(comp: _Compiled, x: np.ndarray, lam: list) -> np.ndarray:
    """The gradient of the objective plus J'lam summed over the inequality blocks."""
    grad = comp.gradient(x).astype(float)
    for block, lam_b in zip(comp.blocks, lam):
        if lam_b.size:
            grad = grad + rmatvec(block.jacobian(x), lam_b)
    return grad


def _residuals(comp: _Compiled, x: np.ndarray, lam: list, mu: np.ndarray | None) -> KKTResiduals:
    grad = _inequality_gradient(comp, x, lam)
    max_violation = 0.0
    max_comp = 0.0
    for block, lam_b in zip(comp.blocks, lam):
        g = block.value(x)
        if lam_b.size:
            max_comp = max(max_comp, float(np.max(np.abs(lam_b * g))))
        if g.size:
            max_violation = max(max_violation, float(np.max(np.maximum(g, 0.0))))
    if comp.equality is not None:
        e, f = comp.equality
        grad = grad + rmatvec(e, mu)
        max_violation = max(max_violation, float(np.max(np.abs(matvec(e, x) - f), initial=0.0)))
    if comp.lo is not None:
        stationarity = float(np.max(np.abs(x - np.clip(x - grad, comp.lo, comp.hi)))) if x.size else 0.0
    else:
        stationarity = float(np.linalg.norm(grad))
    return KKTResiduals(stationarity, max_violation, max_comp)


# ---------------------------------------------------------------------------
# augmented-Lagrangian core (smooth problems)


def _solve_al(comp: _Compiled, settings: SolverSettings) -> SolverResult:
    x = comp.x0.copy()
    lam = [np.zeros(block.size) for block in comp.blocks]
    rho = _RHO_INIT
    used = 0
    scale0 = float(np.linalg.norm(comp.gradient(x))) + 1.0
    gtol = min(1e-2 * scale0, 1.0)
    gtol_floor = max(settings.kkt_tolerance * 5e-2, 1e-12)
    prev_violation = np.inf
    constrained = bool(comp.blocks)
    if not constrained:
        gtol = gtol_floor
    stalled = 0

    def al_value_grad(x: np.ndarray):
        value = comp.objective(x)
        grad = comp.gradient(x).astype(float)
        for block, lam_b in zip(comp.blocks, lam):
            g = block.value(x)
            t = np.maximum(0.0, lam_b + rho * g)
            value += (dot(t, t) - dot(lam_b, lam_b)) / (2.0 * rho)
            if t.any():
                grad = grad + rmatvec(block.jacobian(x), t)
        return value, grad

    for outer in range(200):
        budget = settings.max_iterations - used
        if budget <= 0:
            break
        x_before = x.copy()
        res = _scipy_minimize(
            al_value_grad,
            x,
            jac=True,
            method="L-BFGS-B",
            options={
                "maxiter": budget,
                "maxfun": 20 * budget,
                # relative-progress cutoff at the floating-point floor: the
                # gradient test is the real stop
                "ftol": 1e-16,
                "gtol": max(gtol, gtol_floor),
                "maxcor": 20,
            },
        )
        x = res.x
        used += max(int(res.nit), 1)
        if not constrained:
            kkt = _residuals(comp, x, lam, None)
            status = "converged" if kkt.within(settings) else "max_iter"
            return SolverResult(x, comp.objective(x), status, kkt, used, _named_multipliers(lam))

        violation = 0.0
        for i, block in enumerate(comp.blocks):
            g = block.value(x)
            lam[i] = np.maximum(0.0, lam[i] + rho * g)
            if g.size:
                violation = max(violation, float(np.max(np.maximum(g, 0.0))))

        kkt = _residuals(comp, x, lam, None)
        _log.debug(
            "al outer=%d rho=%.1e viol=%.2e stat=%.2e comp=%.2e",
            outer, rho, kkt.max_violation, kkt.stationarity_norm, kkt.max_comp_slack,
        )
        if kkt.within(settings):
            return SolverResult(x, comp.objective(x), "converged", kkt, used, _named_multipliers(lam))
        # multiplier updates alone contract the violation once rho is large
        # enough; grow rho only when that contraction stalls, since extreme
        # penalties make the multiplier estimates noise-dominated
        if violation > settings.feas_tol and violation > 0.7 * prev_violation:
            rho = min(rho * _RHO_GROWTH, _RHO_MAX)
        prev_violation = violation
        gtol = max(gtol * 0.2, gtol_floor)
        # a problem is declared infeasible only when the penalty weight is
        # exhausted and the violation is macroscopic, not merely above the
        # (possibly very tight) feasibility tolerance
        if rho >= _RHO_MAX and kkt.max_violation > max(1e3 * settings.feas_tol, 1e-6):
            return SolverResult(x, comp.objective(x), "infeasible", kkt, used, _named_multipliers(lam))
        # quasi-Newton at its floating-point floor and multipliers stable:
        # further outer iterations cannot improve the iterate
        if gtol <= gtol_floor and np.array_equal(x, x_before) and violation <= settings.feas_tol:
            stalled += 1
            if stalled >= 3:
                break
        else:
            stalled = 0

    kkt = _residuals(comp, x, lam, None)
    status = "converged" if kkt.within(settings) else "max_iter"
    return SolverResult(x, comp.objective(x), status, kkt, used, _named_multipliers(lam))


def _named_multipliers(lam: list, mu: np.ndarray | None = None) -> dict:
    out = {"inequality": [l.copy() for l in lam]}
    if mu is not None:
        out["equality"] = mu.copy()
    return out


# ---------------------------------------------------------------------------
# equality elimination (smooth problems)
#
# With the SVD E = U S V' and r the numerical rank of E, the points of
# E x = f are x = x_p + N phi, where x_p = V_r S_r^-1 U_r' f is the
# least-norm solution and N = V[:, r:] is an orthonormal basis of null(E)
# (Nocedal & Wright, Numerical Optimization, sec. 15.3). The augmented
# Lagrangian runs on phi, with the objective f(x_p + N phi), its gradient
# N' grad f and the linear rows (A N, b - A x_p). At the returned x the
# equality multiplier is the least-squares one,
# mu = -(E E')^+ E (grad f + J'lam) = -U_r S_r^-1 V_r' (...).
# The full Lagrangian gradient is then N N' (grad f + J'lam), whose norm is
# the reduced stationarity because N is orthonormal, so the residuals of the
# full problem certify the result.


def _solve_eliminated(problem: SmoothProblem, comp: _Compiled, settings: SolverSettings) -> SolverResult:
    e, f = comp.equality
    u, s, vt = np.linalg.svd(e)
    rank = int(np.count_nonzero(s > s[0] * max(e.shape) * np.finfo(float).eps))
    u_r, s_r, v_r, basis = u[:, :rank], s[:rank], vt[:rank].T, vt[rank:].T
    x_p = v_r @ ((u_r.T @ f) / s_r)
    _log.debug("equality rows=%d rank=%d: solving over a %d-dimensional null space", f.size, rank, basis.shape[1])
    if float(np.max(np.abs(e @ x_p - f))) > settings.feas_tol:
        # x_p is the least-squares point: no point meets E x = f
        lam = [np.zeros(block.size) for block in comp.blocks]
        mu = np.zeros(f.size)
        kkt = _residuals(comp, x_p, lam, mu)
        return SolverResult(x_p, comp.objective(x_p), "infeasible", kkt, 0, _named_multipliers(lam, mu))

    def lift(phi: np.ndarray) -> np.ndarray:
        return x_p + basis @ phi

    a, b = _linear_arrays(problem.linear_constraints, comp.n)
    reduced = _Compiled(
        basis.shape[1],
        lambda phi: comp.objective(lift(phi)),
        lambda phi: basis.T @ comp.gradient(lift(phi)),
        _linear_blocks(a @ basis, b - a @ x_p),
        None,
        None,
        None,
        basis.T @ (comp.x0 - x_p),
    )
    result = _solve_al(reduced, settings)
    x = lift(result.point)
    lam = result.multipliers["inequality"]
    mu = -(u_r @ ((v_r.T @ _inequality_gradient(comp, x, lam)) / s_r))
    kkt = _residuals(comp, x, lam, mu)
    status = result.status
    if status != "infeasible":
        status = "converged" if kkt.within(settings) else "max_iter"
    return SolverResult(x, comp.objective(x), status, kkt, result.iterations, _named_multipliers(lam, mu))


# ---------------------------------------------------------------------------
# primal-dual interior-point core (quadratic problems)
#
# All inequalities are written as G x + s = h with slacks s >= 0 and
# multipliers z >= 0: the rows of G are -I on the finite lower bounds, +I on
# the finite upper bounds and the rows of A, in that order. Each iteration
# solves the Newton system of the perturbed KKT conditions
#
#     Q dx + G'dz + E'dy = -r_d        G dx + ds = -r_p
#     E dx              = -r_e        Z ds + S dz = -r_c
#
# by eliminating ds and dz, which leaves H = Q + G'(Z/S)G with the few
# equality rows E handled through the Schur complement E H^-1 E'.
#
# H is then reduced once more. A slack column j (found by _slack_columns) has
# no off-diagonal entry in Q, none in E and one nonzero a_rj in A, in a row
# r = r(j) of its own. With box weight b_j (the Z/S entries of its bound
# rows) and row weight d_r, its block of H is the scalar
#
#     h_j = Q_jj + b_j + d_r a_rj^2,
#
# and its only coupling is d_r a_rj times row r of A on the kept columns R.
# Eliminating every slack column leaves
#
#     H_R = Q_RR + box_R + A_R' diag(w) A_R,   w_r = d_r (Q_jj + b_j) / h_j
#
# on the paired rows and w_r = d_r elsewhere (this form of the Schur
# complement d_r - d_r^2 a_rj^2 / h_j does not cancel). E touches only R, so
# [H_R E_R'; E_R 0] is solved as before and the slack steps follow by
# back-substitution. Without slack columns R is every column and this is the
# plain system, computed in the same order. An exact-hinge SVM in (theta, xi)
# factors a d x d matrix instead of a (d + n) x (d + n) one.
#
# With a factor Q ~ diag(delta) + V V' (r columns) slack columns are not
# sought, and the Newton matrix is read as
#
#     H = B + A' diag(w) A,   B = D + V V',   D = diag(delta + box weights).
#
# With S = D^-1/2 V, B is solved by Sherman-Morrison-Woodbury,
#
#     B^-1 = D^-1/2 (I - S (I + S'S)^-1 S') D^-1/2,
#
# through the r x r core I + S'S, formed with dsyrk. D is positive because
# delta is, so the core's eigenvalues are at least 1. The m rows of A and
# the rows of E enter together, as the rows C = [A; E] of one bordered
# system whose Schur complement is C B^-1 C' + diag(1/w, 0). Each iteration
# then costs O(n r^2) instead of a dense O(n^3) Cholesky (Fine & Scheinberg,
# JMLR 2, 2001; Ferris & Munson, SIAM J. Optim. 13, 2002). Putting the rows
# of A into the low-rank part instead, next to V, is the same matrix, but
# once a row binds its weight w reaches 1e10 and more and the steps lose
# their accuracy; the bordered form keeps such a row like an equality row.
# Even so, the range-space solve above loses digits as the weights spread,
# so every solve takes one step of iterative refinement against the model
# H. Only the steps use the model: r_d and the residuals are evaluated with
# Q itself.


def _cholesky(matrix: np.ndarray):
    """Cholesky factor of a symmetric PSD matrix, with a small diagonal shift if singular."""
    scale = max(float(np.max(np.abs(np.diag(matrix)), initial=0.0)), 1.0)
    shift = 0.0
    for _ in range(8):
        try:
            return cho_factor(matrix + shift * np.eye(matrix.shape[0]) if shift else matrix, lower=True)
        except np.linalg.LinAlgError:
            shift = 100.0 * shift if shift else 1e-12 * scale
    raise np.linalg.LinAlgError("interior-point system is not positive semidefinite")


class _Inequalities:
    """The map x -> G x and its transpose for the box rows and the rows of A,
    and the blocks of Q, A and E on the kept and the slack columns."""

    def __init__(self, qp: _CompiledQP):
        self.lower = np.flatnonzero(np.isfinite(qp.comp.lo))
        self.upper = np.flatnonzero(np.isfinite(qp.comp.hi))
        self.a = qp.a
        self.h = np.concatenate([-qp.comp.lo[self.lower], qp.comp.hi[self.upper], qp.b])
        self.split = (self.lower.size, self.lower.size + self.upper.size)

        e = qp.comp.equality[0]
        self.n, self.keep, self.slack, self.rows = qp.comp.n, qp.keep, qp.slack, qp.slack_rows
        self.coef = qp.a[self.rows, self.slack]  # a_rj
        self.q_slack = np.diag(qp.q)[self.slack]
        self.factor = qp.factor  # (delta, V) or None; with a factor there are no slack columns
        if self.slack.size:
            self.q_keep, self.a_keep, self.e_keep = qp.q[np.ix_(qp.keep, qp.keep)], qp.a[:, qp.keep], e[:, qp.keep]
        else:  # the arrays themselves, so the products are those of the plain system
            self.q_keep, self.a_keep, self.e_keep = qp.q, qp.a, e
        self.a_paired = self.a_keep[self.rows]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([-x[self.lower], x[self.upper], matvec(self.a, x)])

    def transpose(self, v: np.ndarray) -> np.ndarray:
        v_lo, v_hi, v_a = np.split(v, self.split)
        out = rmatvec(self.a, v_a)
        out[self.lower] -= v_lo
        out[self.upper] += v_hi
        return out


class _NewtonSystem:
    """One factorisation of [H E'; E 0], H = Q + G' diag(d) G, solved for several right-hand sides.

    The slack columns are eliminated first, as the comment above describes,
    so only H_R and the Schur complement of the E rows are factored.
    """

    def __init__(self, g: _Inequalities, d: np.ndarray):
        self.g = g
        d_lo, d_hi, d_a = np.split(d, g.split)
        lo, hi = np.zeros(g.n), np.zeros(g.n)
        lo[g.lower] = d_lo
        hi[g.upper] = d_hi
        d_paired = d_a[g.rows]
        own = g.q_slack + lo[g.slack] + hi[g.slack]  # Q_jj + b_j
        self.h = own + d_paired * g.coef**2
        self.coupling = d_paired * g.coef
        w = d_a.copy()
        w[g.rows] = d_paired * own / self.h
        reduced = (g.a_keep.T * w) @ g.a_keep
        # lower then upper weights, one at a time: a two-sided column gets
        # the sums of the plain system
        diagonal = np.diag_indices(g.keep.size)
        reduced[diagonal] += lo[g.keep]
        reduced[diagonal] += hi[g.keep]
        self.factor = _cholesky(g.q_keep + reduced)
        self.e = g.e_keep
        if self.e.shape[0]:
            self.h_inv_et = cho_solve(self.factor, self.e.T)
            self.schur = _cholesky(dgemm(1.0, self.e.T, self.h_inv_et, trans_a=1))  # E H^-1 E'

    def solve(self, rhs: np.ndarray, r_e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(dx, dy) with H dx + E'dy = rhs and E dx = -r_e."""
        g = self.g
        t = rhs[g.slack] / self.h
        u = cho_solve(self.factor, rhs[g.keep] - rmatvec(g.a_paired, self.coupling * t))
        dy = np.zeros(0)
        if self.e.shape[0]:
            dy = cho_solve(self.schur, matvec(self.e, u) + r_e)
            u = u - matvec(self.h_inv_et, dy)
        dx = np.empty(g.n)
        dx[g.keep] = u
        dx[g.slack] = t - self.coupling / self.h * matvec(g.a_paired, u)
        return dx, dy


class _FactoredNewtonSystem:
    """The Newton system of a QP that carries a factor of Q, as the comment above describes.

    B = D + V V' is solved by Woodbury through the r x r core, and the rows
    of A and E together through one Schur complement C B^-1 C' + diag(1/w, 0)
    with C = [A; E]. Each solve takes one step of iterative refinement on
    the model system.
    """

    def __init__(self, g: _Inequalities, d: np.ndarray):
        d_lo, d_hi, self.w = np.split(d, g.split)
        self.diagonal = g.factor[0].copy()  # D
        self.diagonal[g.lower] += d_lo
        self.diagonal[g.upper] += d_hi
        self.v, self.a, self.e = g.factor[1], g.a, g.e_keep
        self.root = 1.0 / np.sqrt(self.diagonal)  # D^-1/2
        self.scaled = np.multiply(self.v, self.root[:, None], out=np.empty(self.v.shape, order="F"))  # S
        core = dsyrk(1.0, self.scaled, trans=1, lower=1) if self.v.shape[1] else np.zeros((0, 0))
        core[np.diag_indices(core.shape[0])] += 1.0
        self.core = _cholesky(core)
        self.rows = np.vstack([self.a, self.e])  # C
        if self.rows.shape[0]:
            self.b_inv_ct = np.column_stack([self._solve_b(row) for row in self.rows])
            schur = dgemm(1.0, self.rows.T, self.b_inv_ct, trans_a=1)
            schur[np.diag_indices(self.w.size)] += 1.0 / self.w
            self.schur = _cholesky(schur)

    def _solve_b(self, b: np.ndarray) -> np.ndarray:
        """B^-1 b = D^-1/2 (I - S (I + S'S)^-1 S') D^-1/2 b."""
        t = self.root * b
        return self.root * (t - matvec(self.scaled, cho_solve(self.core, rmatvec(self.scaled, t))))

    def _solve_once(self, rhs: np.ndarray, r_e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = self._solve_b(rhs)
        if not self.rows.shape[0]:
            return u, np.zeros(0)
        shift = matvec(self.rows, u)
        shift[self.w.size :] += r_e
        multipliers = cho_solve(self.schur, shift)  # (W A dx, dy)
        return u - matvec(self.b_inv_ct, multipliers), multipliers[self.w.size :]

    def solve(self, rhs: np.ndarray, r_e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(dx, dy) with H dx + E'dy = rhs and E dx = -r_e, H = B + A' diag(w) A."""
        dx, dy = self._solve_once(rhs, r_e)
        # refinement: a row whose weight w has grown large leaves the
        # range-space solve above inaccurate, and one correction by the
        # residual of the model system restores the step
        h_dx = self.diagonal * dx + matvec(self.v, rmatvec(self.v, dx)) + rmatvec(self.a, self.w * matvec(self.a, dx))
        ddx, ddy = self._solve_once(rhs - h_dx - rmatvec(self.e, dy), r_e + matvec(self.e, dx))
        return dx + ddx, dy + ddy


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest t with v + t dv >= 0 (infinite when no entry decreases)."""
    falling = dv < 0
    return float(np.min(-v[falling] / dv[falling])) if np.any(falling) else np.inf


def _shift_positive(v: np.ndarray) -> np.ndarray:
    """``v`` if it is strictly positive, else ``v`` shifted so its minimum is 1."""
    return v if v.size == 0 or v.min() > 0 else v + (1.0 - v.min())


def _solve_ipm(qp: _CompiledQP, settings: SolverSettings) -> SolverResult:
    comp = qp.comp
    g = _Inequalities(qp)
    e, f = comp.equality
    n_ineq = g.h.size

    # start: the least-squares point of CVXOPT's coneqp, i.e. the Newton
    # system with unit slack weights, then slacks and multipliers shifted
    # to be strictly positive
    newton_system = _NewtonSystem if qp.factor is None else _FactoredNewtonSystem
    start = newton_system(g, np.ones(n_ineq))
    x, y = start.solve(-qp.c + g.transpose(g.h), -f)
    s = _shift_positive(g.h - g.apply(x))
    z = _shift_positive(g.apply(x) - g.h)
    start_size = 1.0 + max(float(np.max(z, initial=0.0)), float(np.max(np.abs(y), initial=0.0)))
    if qp.factor is not None:
        delta, v = qp.factor
        flat = v.ravel()
        residual = float(np.trace(qp.q)) - float(delta.sum()) - dot(flat, flat)
        _log.debug("q_factor rank=%d residual trace=%.3e", v.shape[1], residual)

    status = "max_iter"
    previous_primal = np.inf
    iteration = 0
    while True:
        r_d = matvec(qp.q, x) + qp.c + g.transpose(z) + rmatvec(e, y)
        r_p = g.apply(x) + s - g.h
        r_e = matvec(e, x) - f
        mu_gap = dot(s, z) / n_ineq if n_ineq else 0.0

        point = np.clip(x, comp.lo, comp.hi)
        lam = [z[z.size - qp.b.size :]] if qp.b.size else []
        kkt = _residuals(comp, point, lam, y)
        _log.debug(
            "ipm iter=%d mu=%.2e viol=%.2e stat=%.2e comp=%.2e",
            iteration, mu_gap, kkt.max_violation, kkt.stationarity_norm, kkt.max_comp_slack,
        )
        if kkt.within(settings):
            status = "converged"
            break
        # an infeasible problem shows as a primal residual that stops
        # shrinking while the multipliers run off along a certificate ray
        primal = max(float(np.max(np.abs(r_p), initial=0.0)), float(np.max(np.abs(r_e), initial=0.0)))
        multiplier_size = max(float(np.max(z, initial=0.0)), float(np.max(np.abs(y), initial=0.0)))
        if primal > settings.feas_tol and primal > 0.9 * previous_primal and multiplier_size > 1e8 * start_size:
            status = "infeasible"
            break
        previous_primal = primal
        if iteration >= settings.max_iterations:
            break
        iteration += 1

        system = newton_system(g, z / s)

        def direction(r_c: np.ndarray):
            dx, dy = system.solve(-r_d + g.transpose((r_c - z * r_p) / s), r_e)
            ds = -r_p - g.apply(dx)
            return dx, ds, (-r_c - z * ds) / s, dy

        # predictor: the pure Newton (affine-scaling) step
        _, ds_aff, dz_aff, _ = direction(s * z)
        step = min(1.0, _max_step(s, ds_aff), _max_step(z, dz_aff))
        sigma = (dot(s + step * ds_aff, z + step * dz_aff) / n_ineq / mu_gap) ** 3 if n_ineq else 0.0
        # corrector: centring plus the second-order term of the predictor
        dx, ds, dz, dy = direction(s * z + ds_aff * dz_aff - sigma * mu_gap)
        step = min(1.0, _STEP_TO_BOUNDARY * min(_max_step(s, ds), _max_step(z, dz)))
        x, s, z, y = x + step * dx, s + step * ds, z + step * dz, y + step * dy

    return SolverResult(point, comp.objective(point), status, kkt, iteration, _named_multipliers(lam, y))


# ---------------------------------------------------------------------------
# public entry points


def minimize_smooth(problem: SmoothProblem, settings: SolverSettings | None = None) -> SolverResult:
    """Minimize a smooth convex objective under the problem's constraints.

    Deterministic given identical inputs. ``status == "converged"`` certifies
    that all KKT residuals of the problem as stated, equalities included, are
    inside the configured tolerances. ``"infeasible"`` means that no point
    meets E x = f to the feasibility tolerance, or that the inequalities
    stayed violated at the largest penalty weight. A problem without equality
    rows goes to the augmented-Lagrangian loop as it is; a problem with
    equality rows and convex constraint blocks raises ValueError.
    """
    settings = settings or SolverSettings()
    comp = _compile_smooth(problem)
    if comp.equality is None:
        return _solve_al(comp, settings)
    if problem.convex_constraints:
        raise ValueError("minimize_smooth does not take equality rows together with convex constraint blocks")
    return _solve_eliminated(problem, comp, settings)


def solve_qp(problem: QuadraticProblem, settings: SolverSettings | None = None) -> SolverResult:
    """KKT-certified solve of a convex box/equality/inequality QP.

    Deterministic given identical inputs. The returned point lies in the box;
    ``status`` is ``"converged"`` when the KKT residuals are inside the
    configured tolerances, ``"infeasible"`` when the primal residual stalls
    while the multipliers diverge, and ``"max_iter"`` when the iteration
    budget ran out first.
    """
    settings = settings or SolverSettings()
    return _solve_ipm(_compile_qp(problem), settings)


def kkt_residuals(problem, point, multipliers) -> KKTResiduals:
    """Evaluate KKT residuals of (point, multipliers) for a given problem.

    ``multipliers`` maps "inequality" to the multipliers ordered as the rows
    of A first, then the convex constraint blocks, either as one flat vector
    or as one vector per block (the layout of ``SolverResult.multipliers``),
    and "equality" to a vector with one entry per row of E (zeros when
    absent). Inequality multipliers must be non-negative.
    Stationarity is the norm of the Lagrangian gradient (projected onto the
    box for quadratic problems); the violation and complementary-slackness
    entries are worst-case over all constraints.
    """
    if isinstance(problem, SmoothProblem):
        comp = _compile_smooth(problem)
    elif isinstance(problem, QuadraticProblem):
        comp = _compile_qp(problem).comp
    else:
        raise TypeError("problem must be SmoothProblem or QuadraticProblem")
    x = np.asarray(point, dtype=float)
    parts = [np.ravel(np.asarray(p, dtype=float)) for p in multipliers.get("inequality", [])]
    flat = np.concatenate(parts) if parts else np.zeros(0)
    if np.any(flat < 0):
        raise ValueError("inequality multipliers must be non-negative")
    total = sum(block.size for block in comp.blocks)
    if flat.size != total:
        raise ValueError(f"expected {total} inequality multipliers, got {flat.size}")
    lam = []
    pos = 0
    for block in comp.blocks:
        lam.append(flat[pos : pos + block.size])
        pos += block.size
    mu = None
    if comp.equality is not None:
        rows = comp.equality[1].size
        mu = np.atleast_1d(np.asarray(multipliers.get("equality", np.zeros(rows)), dtype=float))
        if mu.shape != (rows,):
            raise ValueError(f"expected {rows} equality multipliers, got {mu.size}")
    return _residuals(comp, x, lam, mu)
