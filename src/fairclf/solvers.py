"""Generic constrained convex solvers with KKT diagnostics.

Two entry points, each with its own method:

* :func:`minimize_smooth` - smooth convex objective under linear equalities
  E x = f and linear inequality constraints A x <= b, the one constraint
  form. The equalities are eliminated exactly: with x_p a point of
  E x = f and N an orthonormal basis of the null space of E, both from one
  SVD of E, the solve runs over phi in x = x_p + N phi. An
  augmented-Lagrangian loop then handles the inequalities, updating
  multipliers and the penalty weight, and minimizes each subproblem by
  damped semismooth Newton steps on the augmented-Lagrangian function,
  whose generalized Hessian takes only the active rows (Li, Sun & Toh,
  SIAM J. Optim. 28, 2018; Nocedal & Wright, Numerical Optimization,
  ch. 17). The problem therefore supplies the Hessian of its objective.
  Without inequalities the solve is one damped Newton run. A step reuses
  its subproblem's factored Newton matrix while the gradient keeps
  contracting, so the Hessians are asked for only where the matrix is
  formed again; where the objective is the whole subproblem, the reused
  factor's steps are corrected by BFGS pairs.
* :func:`solve_qp` - convex quadratic objective under a variable box and
  linear equalities E x = f, with Q given only by its factor
  Q = diag(delta) + V V' (a kernel dual's low-rank Gram, or the exact-hinge
  SVM dual, whose Q is V V'). A primal-dual interior-point method
  (Mehrotra's predictor-corrector) solves one Newton system per iteration.
  The Newton matrix is diagonal plus low rank and is solved by
  Sherman-Morrison-Woodbury through one small Cholesky (Fine & Scheinberg
  2001; Ferris & Munson 2002), and every product with Q, in the objective,
  the residuals and the certificate, is delta * x + V (V' x), in O(n r). No
  n x n matrix is formed.

Linear constraints are handed over as matrices, one row per constraint. The
caller decides which bounds are equalities and puts their rows in E, and
:func:`minimize_smooth` takes every row of A as an inequality.
:func:`solve_qp` takes the box and E only (the standard form of Wright,
Primal-Dual Interior-Point Methods, 1997): a row a . x <= b is posed as
a . x - s = 0 on a slack variable s <= b. E may repeat a row or have rows
that depend on others: both solvers reduce it by its numerical rank.

Both check their iterates with the same residual routine: stationarity,
worst primal violation and worst complementary-slackness product. A run only
claims convergence when all three are inside tolerance. Each
augmented-Lagrangian outer iteration and each interior-point iteration is
logged at DEBUG level on this module's logger. Both factor their Newton
matrices by one Cholesky routine, which raises a diagonal shift until the
matrix factors.

numpy and scipy each link their own BLAS, each with its own thread pool
whose threads spin for a while after each call, so a loop that alternates
between the two pools makes them fight over the cores. Each solver keeps its
products with n-row operands on one pool. :func:`minimize_smooth` forms them
with numpy, the pool that the callers' own products (covariances, decision
values, scoring) use too; only its d x d Newton factor is scipy's LAPACK.
:func:`solve_qp` needs LAPACK's Cholesky and triangular solves for its
Woodbury core at every iteration, which numpy does not have, so its
products go through its private helpers :func:`_matvec`, :func:`_rmatvec`
and :func:`_dot` on scipy's BLAS. No other module names them or a BLAS
routine: the rest of the package, the fits' set-up included, uses numpy's.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Literal, Sequence

import numpy as np

__all__ = [
    "ConstraintBlock",
    "KKTResiduals",
    "QuadraticProblem",
    "SmoothProblem",
    "SolverResult",
    "SolverSettings",
    "kkt_residuals",
    "minimize_smooth",
    "solve_qp",
    "weighted_gram",
]

_log = logging.getLogger(__name__)

_RHO_INIT = 10.0
_RHO_GROWTH = 10.0
_RHO_MAX = 1e12

# Newton steps on the augmented Lagrangian: the Newton matrix gets
# _REGULARIZATION * min(||gradient||, 1) on its diagonal, so that a step
# exists where the active rows do not span; a step is halved until the
# function falls by _ARMIJO of the first-order prediction, at most
# _MAX_HALVINGS times; a change within _ROUNDING of the function's size is
# taken as no change. A subproblem's factored Newton matrix serves its next
# step too while each step shrinks the gradient's largest entry to
# _CONTRACTION of its size or below: with BFGS corrections, the census
# unconstrained and c=0 fits take 7 + 5 steps on 3 + 1 factors at 0.25,
# 6 + 4 on 4 + 2 at 0.1 and 9 + 5 on 2 + 1 at 0.5
_REGULARIZATION = 1e-3
_ARMIJO = 1e-4
_CONTRACTION = 0.25
_MAX_HALVINGS = 60
_ROUNDING = 64 * np.finfo(float).eps
# interior-point Newton steps solve B = D + V V' with _PROXIMAL added to D,
# a fixed primal proximal term (Altman & Gondzio, Optim. Methods Softw. 11,
# 1999; Friedlander & Orban, Math. Prog. Comp. 4, 2012). Where delta = 0, a
# variable that ends strictly inside its box has a weight z/s, and so a D,
# that tends to zero; the Woodbury solve divides by sqrt(D) and its steps
# lose every digit. The term keeps them, the refinement step against the
# true H corrects the perturbed solve, and the residuals and the certificate
# read the true Q, so the term changes the path, not the problem certified
_PROXIMAL = 1e-10

_STEP_TO_BOUNDARY = 0.995
# the interior-point start reads each variable on the scale of its box's
# finite width, capped here (see _solve_ipm)
_START_SCALE_CAP = 1e3


@dataclass(frozen=True)
class SolverSettings:
    """Stopping controls; ``max_iterations`` caps total inner iterations.

    An inner iteration is one Newton step (one solve with the Newton matrix,
    with the line search that follows it) in :func:`minimize_smooth` and one
    interior-point iteration (one factorisation) in :func:`solve_qp`. A
    Newton step may reuse the factor of an earlier step of its subproblem,
    so the count is of steps, not of factorisations.
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
    """A convex inequality block g(x) <= 0 with m rows: a name that no solver takes.

    The solvers take linear rows only, and a :class:`SmoothProblem` with a
    non-empty ``convex_constraints`` raises ValueError. The name and the
    field are kept because the benchmark's instrumentation
    (``bench/instrument.py``) imports the one and replaces the other; they
    go with its block branches.
    """


@dataclass(frozen=True)
class SmoothProblem:
    """Differentiable convex objective with linear equalities and linear inequalities.

    ``equality`` is an (E, f) pair meaning E x = f, with any number of rows (a
    1-D E and a scalar f are one row), or None; an E with no rows is the same
    as None. ``linear_constraints`` is an (A, b) pair meaning A x <= b, with A
    of shape (m, dimension) and b of length m (a 1-D A is one row), or None.
    ``convex_constraints`` must stay empty: the solvers raise ValueError on
    any entry (see :class:`ConstraintBlock`). The objective is only
    evaluated on points that satisfy E x = f to rounding.

    ``hessian`` maps x to the objective's symmetric (dimension, dimension)
    Hessian, or a generalized Hessian where the gradient has kinks.
    :func:`minimize_smooth` needs it;
    :func:`kkt_residuals` does not read it. Value and gradient are asked for
    at the same point in turn, and the Hessian, when asked for, at the point
    of the gradient just read, so an objective can share one product between
    them. The Hessian is asked for only where the Newton matrix is formed
    again, not at every step.
    """

    dimension: int
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray] | None = None
    equality: tuple[np.ndarray, np.ndarray | float] | None = None
    linear_constraints: tuple[np.ndarray, np.ndarray] | None = None
    convex_constraints: Sequence[ConstraintBlock] = ()
    initial_point: np.ndarray | None = None


@dataclass(frozen=True, kw_only=True)
class QuadraticProblem:
    """Convex QP: minimize 0.5 x'Qx + q.x over a box and linear equalities.

    Q is given only by ``q_factor``, a (delta, V) pair that *is*
    Q = diag(delta) + V V', with delta non-negative and finite (a vector, or
    a scalar for every variable) and V a finite array of shape
    (dimension, r); r may be 0. Q is PSD by construction and is never
    formed: the objective, the residuals and the convergence certificate
    read it through delta * x + V (V' x), and each Newton system is solved
    through the diagonal-plus-rank-r form by Woodbury. delta may be zero
    only on a variable with a finite bound; a zero delta anywhere else
    raises ValueError. A dense PSD Q is posed by the factor of its
    eigendecomposition.

    ``box`` is a (lower, upper) pair of per-variable bounds, either of which
    may be None for unbounded; ``equality`` is an (E, f) pair meaning
    E x = f, with any number of rows (a 1-D E and a scalar f are one row), or
    None. These are the only constraints: a linear inequality a . x <= b is
    posed as the equality row a . x - s = 0 on a slack variable s with the
    upper bound b and delta = 0.
    """

    q_vector: np.ndarray
    q_factor: tuple[np.ndarray | float, np.ndarray]
    box: tuple[np.ndarray | None, np.ndarray | None] = (None, None)
    equality: tuple[np.ndarray, np.ndarray | float] | None = None


# ---------------------------------------------------------------------------
# solve_qp's products on scipy's BLAS, the smooth path's Gram on numpy's, and
# the shifted Cholesky on scipy's LAPACK


def _linalg_extension(name: str):
    """scipy's compiled module ``scipy.linalg.<name>``, without running scipy.linalg's package import.

    That import clones the numpy namespace and so loads numpy.f2py,
    numpy.testing and numpy.ma, most of a cold start; the extension needs
    none of it. The module is registered under its real name, so
    scipy.linalg.blas and .lapack, imported before or after, share it.
    """
    full_name = f"scipy.linalg.{name}"
    if full_name in sys.modules:
        return sys.modules[full_name]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("fairclf.solvers needs scipy, which is not installed")
    directory = Path(scipy_spec.origin).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / (name + suffix)
        if path.is_file():
            spec = importlib.util.spec_from_file_location(full_name, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[full_name] = module
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"{full_name}: no compiled module {name}.* in {directory}")


_fblas, _flapack = _linalg_extension("_fblas"), _linalg_extension("_flapack")
ddot, dgemm, dgemv, dsyrk = _fblas.ddot, _fblas.dgemm, _fblas.dgemv, _fblas.dsyrk
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs


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


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x`` on scipy's BLAS (on numpy's for a layout dgemv would copy)."""
    layout = _blas_layout(a)
    if layout is None:
        return a @ x
    f, trans = layout
    return dgemv(1.0, f, x, trans=trans)


def _rmatvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``a.T @ v`` on scipy's BLAS (on numpy's for a layout dgemv would copy)."""
    layout = _blas_layout(a)
    if layout is None:
        return a.T @ v
    f, trans = layout
    return dgemv(1.0, f, v, trans=1 - trans)


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """``u @ v`` of two float vectors on scipy's BLAS."""
    return float(ddot(u, v)) if u.size else 0.0


# entries of the scaled rows in one product: on 2 CPUs the 30,153 x 104
# census Gram took 14-15 ms at the fastest in blocks of 2**16 to 2**18
# entries, 15-17 ms in blocks of 2**15 and with all rows at once, which
# copies X
_GRAM_BLOCK_ENTRIES = 2**16


def weighted_gram(a: np.ndarray, weights, out: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Add a[rows]' diag(weights) a[rows] to ``out`` in place, on numpy's BLAS, and return ``out``.

    ``weights`` is a non-negative scalar or one entry per selected row;
    ``rows`` (all rows when None) are row indices. The rows are scaled by
    the square roots of their weights into one buffer of at most
    ``_GRAM_BLOCK_ENTRIES`` entries at a time, and numpy forms each block's
    B'B (by syrk, mirrored into a symmetric matrix), so no copy of ``a`` is
    made. ``out`` must be a square float64 array.
    """
    count = a.shape[0] if rows is None else rows.size
    if count == 0:
        return out
    root = np.sqrt(weights)
    step = max(1, _GRAM_BLOCK_ENTRIES // max(a.shape[1], 1))
    buffer = np.empty((min(step, count), a.shape[1]))
    for start in range(0, count, step):
        stop = min(start + step, count)
        block = buffer[: stop - start]
        scale = root if np.ndim(root) == 0 else root[start:stop, None]
        if rows is None:
            np.multiply(a[start:stop], scale, out=block)
        else:
            np.take(a, rows[start:stop], axis=0, out=block)
            block *= scale
        out += block.T @ block
    return out


def _cholesky(matrix: np.ndarray, lower: bool, shift: float = 0.0) -> Callable[[np.ndarray], np.ndarray]:
    """Solve (matrix + s I) x = rhs from a Cholesky factor of the triangle of ``matrix`` that ``lower`` names.

    The shift s starts at ``shift`` and, while the matrix does not factor,
    rises to max(100 s, 1e-12 scale), with scale the largest diagonal entry
    and at least 1, for at most 8 tries; then np.linalg.LinAlgError is
    raised. ``matrix`` keeps the last shift on its diagonal. The factor and
    its solves are scipy's LAPACK. Returns the solve, rhs -> x, which raises
    np.linalg.LinAlgError on a right-hand side that is not finite.
    """
    diagonal = np.diag_indices(matrix.shape[0])
    base = matrix[diagonal].copy()
    scale = max(float(np.max(np.abs(base), initial=0.0)), 1.0)
    for _ in range(8):
        matrix[diagonal] = base + shift
        factor, info = dpotrf(matrix, lower=lower, clean=0)
        if info == 0:
            break
        shift = max(100.0 * shift, 1e-12 * scale)
    else:
        raise np.linalg.LinAlgError("Newton matrix is not positive semidefinite")

    def solve(rhs: np.ndarray) -> np.ndarray:
        if not np.isfinite(rhs).all():
            raise np.linalg.LinAlgError("Newton system with a right-hand side that is not finite")
        return dpotrs(factor, rhs, lower=lower)[0] if rhs.size else rhs  # LAPACK takes no empty system

    return solve


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


@dataclass
class _Compiled:
    """A smooth problem as the KKT residuals and the augmented-Lagrangian loop read it."""

    n: int
    objective: Callable
    gradient: Callable
    hessian: Callable
    rows: tuple[np.ndarray, np.ndarray]  # (A, b) of A x <= b, possibly with no rows
    equality: tuple[np.ndarray, np.ndarray] | None  # (E, f) with at least one row
    x0: np.ndarray


def _compile_smooth(problem: SmoothProblem) -> _Compiled:
    n = problem.dimension
    if len(problem.convex_constraints):
        raise ValueError("the solvers take linear constraint rows only, not convex_constraints")
    x0 = np.zeros(n) if problem.initial_point is None else np.asarray(problem.initial_point, dtype=float).copy()
    if x0.shape != (n,):
        raise ValueError("initial_point dimension mismatch")
    rows = _linear_arrays(problem.linear_constraints, n)
    e, f = _linear_arrays(problem.equality, n)
    return _Compiled(
        n,
        problem.objective,
        problem.gradient,
        problem.hessian,
        rows,
        (e, f) if f.size else None,
        x0,
    )


def _q_factor(problem: QuadraticProblem, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The problem's (delta, V) as arrays of shapes (n,) and (n, r).

    delta may be zero on a variable with a finite bound: the Newton matrix's
    diagonal there is the bound's weight z/s, positive at every iterate.
    """
    n = lo.size
    delta = np.broadcast_to(np.asarray(problem.q_factor[0], dtype=float), (n,))
    v = np.asarray(problem.q_factor[1], dtype=float)
    if v.ndim != 2 or v.shape[0] != n:
        raise ValueError(f"q_factor V of shape {v.shape} does not have {n} rows")
    # written so that NaN fails too
    if not (np.all((delta >= 0) & (delta < np.inf)) and np.isfinite(v).all()):
        raise ValueError("q_factor needs a non-negative finite delta and a finite V")
    if np.any((delta == 0) & ~(np.isfinite(lo) | np.isfinite(hi))):
        raise ValueError("q_factor delta is zero on a variable without a finite bound")
    return delta, v


@dataclass
class _CompiledQP:
    """A QP as arrays: minimize 0.5 x'Qx + c.x over lo <= x <= hi and E x = f.

    Q is diag(delta) + V V' and is read only through that factor. E may have
    no rows.
    """

    c: np.ndarray
    delta: np.ndarray
    v: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    e: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        # the finite bounds as G x <= h, as the interior-point comment writes
        # them; bounds(x) is G x and bounds_transpose(v) is G'v
        self.lower = np.flatnonzero(np.isfinite(self.lo))
        self.upper = np.flatnonzero(np.isfinite(self.hi))
        self.h = np.concatenate([-self.lo[self.lower], self.hi[self.upper]])

    def bounds(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([-x[self.lower], x[self.upper]])

    def bounds_transpose(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros(self.c.size)
        out[self.lower] -= v[: self.lower.size]
        out[self.upper] += v[self.lower.size :]
        return out

    def q_times(self, x: np.ndarray) -> np.ndarray:
        return self.delta * x + _matvec(self.v, _rmatvec(self.v, x))

    def objective(self, x: np.ndarray) -> float:
        return 0.5 * _dot(x, self.q_times(x)) + _dot(self.c, x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.q_times(x) + self.c

    def residuals(self, x: np.ndarray, y: np.ndarray) -> KKTResiduals:
        """Box-projected stationarity of Q x + c + E'y, and the worst of |E x - f| and of the box's violation; there is no comp-slack."""
        grad = self.gradient(x) + _rmatvec(self.e, y)
        stationarity = float(np.max(np.abs(x - np.clip(x - grad, self.lo, self.hi)))) if x.size else 0.0
        equality = float(np.max(np.abs(_matvec(self.e, x) - self.f), initial=0.0))
        box = float(np.max(np.maximum(self.lo - x, x - self.hi), initial=0.0))
        return KKTResiduals(stationarity, max(equality, box), 0.0)


def _compile_qp(problem: QuadraticProblem) -> _CompiledQP:
    c = np.asarray(problem.q_vector, dtype=float)
    n = c.size
    lo, hi = problem.box
    lo = np.full(n, -np.inf) if lo is None else np.broadcast_to(np.asarray(lo, dtype=float), (n,))
    hi = np.full(n, np.inf) if hi is None else np.broadcast_to(np.asarray(hi, dtype=float), (n,))
    return _CompiledQP(c, *_q_factor(problem, lo, hi), lo, hi, *_linear_arrays(problem.equality, n))


def _inequality_gradient(comp: _Compiled, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The gradient of the objective plus A'lam, read on the rows with lam != 0."""
    grad = comp.gradient(x).astype(float)
    active = np.flatnonzero(lam)
    if active.size:
        grad = grad + lam[active] @ comp.rows[0][active]
    return grad


def _residuals(
    comp: _Compiled, x: np.ndarray, lam: np.ndarray, mu: np.ndarray | None, r: np.ndarray | None = None
) -> KKTResiduals:
    """The KKT residuals at (x, lam, mu); ``r`` is A x - b at x when the caller has it, else it is formed here."""
    grad = _inequality_gradient(comp, x, lam)
    a, b = comp.rows
    if r is None:
        r = a @ x - b
    max_violation = float(np.max(r, initial=0.0))
    max_comp = float(np.max(np.abs(lam * r), initial=0.0))
    if comp.equality is not None:
        e, f = comp.equality
        grad = grad + e.T @ mu
        max_violation = max(max_violation, float(np.max(np.abs(e @ x - f), initial=0.0)))
    return KKTResiduals(float(np.linalg.norm(grad)), max_violation, max_comp)


# ---------------------------------------------------------------------------
# augmented-Lagrangian core (smooth problems)
#
# For multipliers lam >= 0 and a penalty weight rho, the augmented Lagrangian
# of minimizing f(x) subject to A x - b <= 0 is
#
#     L(x) = f(x) + (||t(x)||^2 - ||lam||^2) / (2 rho),   t(x) = max(0, lam + rho (A x - b)),
#
# with gradient grad f + A't. The gradient has kinks where a row enters or
# leaves the active set S = {i : t_i > 0}, and its generalized Hessian is
#
#     grad^2 f + rho A_S' A_S
#
# (Li, Sun & Toh, SIAM J. Optim. 28, 2018). Each subproblem is minimized by
# Newton steps with that matrix plus _REGULARIZATION * min(||grad L||, 1) on
# its diagonal, so that a step exists where the active rows do not span (an
# epigraph LP has no curvature of its own), each followed by Armijo
# backtracking on L. Only differences of L are formed, and the penalty's is
# (t_new - t)'(t_new + t) / (2 rho), which does not cancel at large rho.
# Near the optimum the decrease of L falls below the rounding of its value,
# so a change within _ROUNDING of the function's size passes; a step that
# passed only so and did not shrink the gradient ends the subproblem. The
# rows' A x - b is formed once per outer iteration, at the subproblem's end
# point, and serves the multiplier update, the residuals and the next
# subproblem's start; within a subproblem a line-search trial reads it as
# r + alpha A dx, so each step costs one product with every row, A dx. A't
# and rho A_S'A_S are formed from the active rows S alone, gathered by
# index: a row with t_i = 0 adds nothing to either, and a fine-grained fit
# has one margin row per training point, of which a few hundred at most are
# active. Every product is numpy's; the Newton matrix is factored on
# scipy's LAPACK.
#
# A step may reuse the factor of an earlier step of the same subproblem, a
# chord step (Kelley, Solving Nonlinear Equations with Newton's Method,
# SIAM 2003, ch. 1-2; Doikov, Chayti & Jaggi, ICML 2023). The matrix is
# formed and factored again at the current point when the subproblem has no
# factor yet, when the active rows have changed,
# when the last step was halved, when the last step shrank the gradient's
# largest entry by less than _CONTRACTION, or when the reused factor gives
# no descent direction. The factor dies with its subproblem, since the next
# one changes lam or rho. The gradient, the line search and the residuals
# read the true problem at every step, so only the path changes.
#
# Where L is the objective alone (no linear rows: an unconstrained fit, or a
# fit on pinned faces after equality elimination), a reused
# factor's direction is corrected by the BFGS pairs (s, y) of the steps
# taken since that factor was formed, s the step and y the change of the
# gradient along it, applied by the two-loop recursion around the factor's
# solve (Nocedal & Wright, ch. 6-7). The factored matrix is the initial
# Hessian of the recursion, so the first step after a factor is the Newton
# step and each later one a BFGS step from it: the chord steps converge
# superlinearly instead of linearly, which keeps the contraction above
# _CONTRACTION for longer and so needs fewer factors. A pair enters only
# when s'y > 0, which keeps the corrected matrix positive definite, and the
# pairs are dropped with their factor. With rows the active set moves the
# gradient's kinks between steps and a pair would mix two matrices, so
# those subproblems take plain chord steps.


def _bfgs_direction(solve: Callable[[np.ndarray], np.ndarray], pairs: list, q: np.ndarray) -> np.ndarray:
    """H q for the inverse of the factored matrix updated by the BFGS ``pairs``, by the two-loop recursion.

    ``solve`` applies the inverse of the factored matrix, the recursion's
    initial matrix, to one vector; ``pairs`` are (s, y, 1 / s'y), oldest
    first. With no pairs this is ``solve(q)``.
    """
    scales = []
    for s, y, inverse in reversed(pairs):
        scales.append(inverse * float(s @ q))
        q = q - scales[-1] * y
    h_q = solve(q)
    for (s, y, inverse), scale in zip(pairs, reversed(scales)):
        h_q = h_q + (scale - inverse * float(y @ h_q)) * s
    return h_q


def _newton_al(
    comp: _Compiled,
    x: np.ndarray,
    lam: np.ndarray,
    rho: float,
    gtol: float,
    budget: int,
    r: np.ndarray | None = None,
) -> tuple[np.ndarray, int, int, int, int]:
    """Minimize L at fixed (lam, rho) from x, as the comment above describes: (x, steps, halvings, factors, corrected).

    ``r`` is A x - b at x, formed here when not given. Stops once the
    largest entry of the gradient of L is at most ``gtol``, after
    ``budget`` steps, or once no step lowers L beyond its rounding.
    ``factors`` counts the Newton matrices factored; the other steps reused
    one, and ``corrected`` of them corrected its direction by BFGS pairs.
    """
    a, b = comp.rows
    quasi_newton = not b.size  # L is the objective alone
    if r is None:
        r = a @ x - b
    f = comp.objective(x)
    t = np.maximum(0.0, lam + rho * r)
    steps = halvings = factors = corrected = 0
    previous = np.inf
    rounding_only = False
    solve = pattern = None  # the subproblem's factored Newton matrix and the active rows it was formed on
    pairs = []  # the BFGS pairs (s, y, 1 / s'y) of the steps taken since the factor was formed
    while True:
        # the rows with t > 0: A't and rho A_S'A_S read only these
        active = np.flatnonzero(t)
        grad = np.array(comp.gradient(x), dtype=float)
        if active.size:
            grad += t[active] @ a[active]
        size = float(np.max(np.abs(grad), initial=0.0))
        # written so that a NaN gradient stops too
        if not size > gtol or steps >= budget or (rounding_only and size >= previous):
            return x, steps, halvings, factors, corrected

        fresh = (
            solve is None
            or not np.array_equal(active, pattern)
            or alpha < 1.0
            or size > _CONTRACTION * previous
        )
        previous = size
        if not fresh:
            if quasi_newton:
                y = grad - grad_before
                sy = float(step @ y)
                if sy > 0.0:
                    pairs.append((step, y, 1.0 / sy))
            dx = _bfgs_direction(solve, pairs, -grad)
            slope = float(grad @ dx)
            fresh = not slope < 0.0  # the reused factor no longer gives a descent direction
        if fresh:
            h = np.array(comp.hessian(x), dtype=float, order="F")
            h = weighted_gram(a, rho, h, active)
            solve = _cholesky(h, lower=False, shift=_REGULARIZATION * min(math.sqrt(grad @ grad), 1.0))
            pattern = active
            pairs = []
            factors += 1
            dx = solve(-grad)
            slope = float(grad @ dx)
        if not slope < 0.0:  # rounding has taken over the step
            return x, steps, halvings, factors, corrected

        a_dx = a @ dx
        tolerance = _ROUNDING * (abs(f) + float(t @ t) / (2.0 * rho))
        alpha = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            x_new = x + alpha * dx
            r_new = r + alpha * a_dx
            f_new = comp.objective(x_new)
            t_new = np.maximum(0.0, lam + rho * r_new)
            penalty = float((t_new - t) @ (t_new + t))
            change = f_new - f + penalty / (2.0 * rho)
            if change <= _ARMIJO * alpha * slope + tolerance:
                break
            alpha *= 0.5
            halvings += 1
        else:
            return x, steps, halvings, factors, corrected
        steps += 1
        corrected += bool(pairs)  # a fresh factor dropped them, so they served this step
        rounding_only = change > _ARMIJO * alpha * slope
        step, grad_before = x_new - x, grad
        x, r, f, t = x_new, r_new, f_new, t_new


def _solve_al(comp: _Compiled, settings: SolverSettings) -> SolverResult:
    a, b = comp.rows
    x = comp.x0.copy()
    r = a @ x - b  # formed again once per outer iteration, at the subproblem's end point
    lam = np.zeros(b.size)
    rho = _RHO_INIT
    used = 0
    scale0 = float(np.linalg.norm(comp.gradient(x))) + 1.0
    gtol = min(1e-2 * scale0, 1.0)
    gtol_floor = max(settings.kkt_tolerance * 5e-2, 1e-12)
    prev_violation = np.inf
    constrained = bool(b.size)
    if not constrained:
        gtol = gtol_floor
    stalled = 0

    def finish(status: str | None, kkt: KKTResiduals | None = None) -> SolverResult:
        """The result at x, with its residuals when not given; a None status is read from them."""
        if kkt is None:
            kkt = _residuals(comp, x, lam, None, r)
        if status is None:
            status = "converged" if kkt.within(settings) else "max_iter"
        return SolverResult(x, comp.objective(x), status, kkt, used, _named_multipliers(lam))

    for outer in range(200):
        budget = settings.max_iterations - used
        if budget <= 0:
            break
        x_before = x
        x, steps, halvings, factors, corrected = _newton_al(comp, x, lam, rho, max(gtol, gtol_floor), budget, r)
        used += max(steps, 1)
        if not constrained:
            _log.debug("newton steps=%d halvings=%d factors=%d corrected=%d", steps, halvings, factors, corrected)
            return finish(None)

        r = a @ x - b
        lam = np.maximum(0.0, lam + rho * r)
        kkt = _residuals(comp, x, lam, None, r)
        violation = kkt.max_violation
        _log.debug(
            "al outer=%d rho=%.1e newton=%d halvings=%d factors=%d corrected=%d viol=%.2e stat=%.2e comp=%.2e",
            outer, rho, steps, halvings, factors, corrected,
            kkt.max_violation, kkt.stationarity_norm, kkt.max_comp_slack,
        )
        if kkt.within(settings):
            return finish("converged", kkt)
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
            return finish("infeasible", kkt)
        # Newton at the floating-point floor and multipliers stable: further
        # outer iterations cannot improve the iterate
        if gtol <= gtol_floor and np.array_equal(x, x_before) and violation <= settings.feas_tol:
            stalled += 1
            if stalled >= 3:
                break
        else:
            stalled = 0

    return finish(None)


def _named_multipliers(lam: np.ndarray, mu: np.ndarray | None = None) -> dict:
    """The ``SolverResult.multipliers`` layout: "inequality" a list with the rows' vector, or empty without rows."""
    out = {"inequality": [lam.copy()] if lam.size else []}
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
# N' grad f, its Hessian N' H N and the linear rows (A N, b - A x_p),
# every product in the loop on numpy's BLAS. At the returned x the
# equality multiplier is the least-squares one,
# mu = -(E E')^+ E (grad f + A'lam) = -U_r S_r^-1 V_r' (...).
# The full Lagrangian gradient is then N N' (grad f + A'lam), whose norm is
# the reduced stationarity because N is orthonormal, so the residuals of the
# full problem certify the result.


def _null_space_svd(e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(U_r, s_r, V_r, N) from one SVD E = U S V': the leading r singular triples and N = V[:, r:].

    r is the numerical rank of E, the number of singular values above
    s_0 max(shape) eps, with s_0 the largest; N is then an orthonormal basis
    of the null space of E. An E with no rows has r = 0 and N = I.
    """
    u, s, vt = np.linalg.svd(e)
    rank = int(np.count_nonzero(s > np.max(s, initial=0.0) * max(e.shape) * np.finfo(float).eps))
    return u[:, :rank], s[:rank], vt[:rank].T, vt[rank:].T


def _solve_eliminated(comp: _Compiled, settings: SolverSettings) -> SolverResult:
    e, f = comp.equality
    u_r, s_r, v_r, basis = _null_space_svd(e)
    x_p = v_r @ ((u_r.T @ f) / s_r)
    _log.debug("equality rows=%d rank=%d: solving over a %d-dimensional null space", f.size, s_r.size, basis.shape[1])
    if float(np.max(np.abs(e @ x_p - f))) > settings.feas_tol:
        # x_p is the least-squares point: no point meets E x = f
        lam = np.zeros(comp.rows[1].size)
        mu = np.zeros(f.size)
        kkt = _residuals(comp, x_p, lam, mu)
        return SolverResult(x_p, comp.objective(x_p), "infeasible", kkt, 0, _named_multipliers(lam, mu))

    def lift(phi: np.ndarray) -> np.ndarray:
        return x_p + basis @ phi

    def reduced_hessian(phi: np.ndarray) -> np.ndarray:
        return basis.T @ (comp.hessian(lift(phi)) @ basis)

    a, b = comp.rows
    reduced = _Compiled(
        basis.shape[1],
        lambda phi: comp.objective(lift(phi)),
        lambda phi: basis.T @ comp.gradient(lift(phi)),
        reduced_hessian,
        (a @ basis, b - a @ x_p),
        None,
        basis.T @ (comp.x0 - x_p),
    )
    result = _solve_al(reduced, settings)
    x = lift(result.point)
    lam = result.multipliers["inequality"][0] if b.size else np.zeros(0)
    mu = -(u_r @ ((v_r.T @ _inequality_gradient(comp, x, lam)) / s_r))
    kkt = _residuals(comp, x, lam, mu)
    status = result.status
    if status != "infeasible":
        status = "converged" if kkt.within(settings) else "max_iter"
    return SolverResult(x, comp.objective(x), status, kkt, result.iterations, _named_multipliers(lam, mu))


# ---------------------------------------------------------------------------
# primal-dual interior-point core (quadratic problems)
#
# The finite bounds of the box are written as G x + s = h with slacks s >= 0
# and multipliers z >= 0: the rows of G are -I on the finite lower bounds
# and +I on the finite upper bounds. Each iteration solves the Newton system
# of the perturbed KKT conditions
#
#     Q dx + G'dz + E'dy = -r_d        G dx + ds = -r_p
#     E dx              = -r_e        Z ds + S dz = -r_c
#
# by eliminating ds and dz. G'(Z/S)G is diagonal, so with
# Q = diag(delta) + V V' (r columns) that leaves the Newton matrix
#
#     H = D + V V',   D = diag(delta + box weights),
#
# bordered by the few rows of E. With S = D^-1/2 V, H is solved by
# Sherman-Morrison-Woodbury,
#
#     H^-1 = D^-1/2 (I - S (I + S'S)^-1 S') D^-1/2,
#
# through the r x r core I + S'S, formed with dsyrk, and the rows of E
# through the Schur complement E H^-1 E'. The solve reads D plus _PROXIMAL,
# so a weight z/s that tends to zero leaves the solve accurate, and the
# core's eigenvalues are at least 1. Each iteration costs O(n r^2) instead
# of a dense O(n^3) Cholesky (Fine & Scheinberg, JMLR 2, 2001; Ferris &
# Munson, SIAM J. Optim. 13, 2002). The range-space solve loses digits as
# the box weights spread, so every solve takes one step of iterative
# refinement against H with the true D. The factor is Q itself, so r_d, the
# residuals and the certificate read it too, through delta * x + V (V' x).


class _NewtonSystem:
    """The Newton system of a QP, as the comment above describes.

    H = D + V V' is solved by Woodbury through the r x r core, with
    ``_PROXIMAL`` added to D, and the rows of E through the Schur complement
    E H^-1 E'. Each solve takes one step of iterative refinement on the
    model system with the true D.
    """

    def __init__(self, qp: _CompiledQP, weights: np.ndarray):
        self.diagonal = qp.delta.copy()  # D
        self.diagonal[qp.lower] += weights[: qp.lower.size]
        self.diagonal[qp.upper] += weights[qp.lower.size :]
        self.v, self.e = qp.v, qp.e
        self.root = 1.0 / np.sqrt(self.diagonal + _PROXIMAL)  # (D + _PROXIMAL)^-1/2
        self.scaled = np.multiply(self.v, self.root[:, None], out=np.empty(self.v.shape, order="F"))  # S
        # dsyrk rejects an S without rows or columns; S'S is then zero
        core = dsyrk(1.0, self.scaled, trans=1, lower=1) if self.scaled.size else np.zeros((self.v.shape[1],) * 2)
        core[np.diag_indices(core.shape[0])] += 1.0
        self.core = _cholesky(core, lower=True)
        if self.e.shape[0]:
            self.h_inv_et = np.column_stack([self._solve_h(row) for row in self.e])
            self.schur = _cholesky(dgemm(1.0, self.e.T, self.h_inv_et, trans_a=1), lower=True)

    def _solve_h(self, b: np.ndarray) -> np.ndarray:
        """H^-1 b = D^-1/2 (I - S (I + S'S)^-1 S') D^-1/2 b, with D + _PROXIMAL for D."""
        t = self.root * b
        return self.root * (t - _matvec(self.scaled, self.core(_rmatvec(self.scaled, t))))

    def _solve_once(self, rhs: np.ndarray, r_e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = self._solve_h(rhs)
        if not self.e.shape[0]:
            return u, np.zeros(0)
        dy = self.schur(_matvec(self.e, u) + r_e)
        return u - _matvec(self.h_inv_et, dy), dy

    def solve(self, rhs: np.ndarray, r_e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(dx, dy) with H dx + E'dy = rhs and E dx = -r_e."""
        dx, dy = self._solve_once(rhs, r_e)
        # refinement: box weights that have spread over many orders of
        # magnitude leave the range-space solve above inaccurate, and one
        # correction by the residual of the model system restores the step
        h_dx = self.diagonal * dx + _matvec(self.v, _rmatvec(self.v, dx))
        ddx, ddy = self._solve_once(rhs - h_dx - _rmatvec(self.e, dy), r_e + _matvec(self.e, dx))
        return dx + ddx, dy + ddy


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest t with v + t dv >= 0 (infinite when no entry decreases)."""
    falling = dv < 0
    return float(np.min(-v[falling] / dv[falling])) if np.any(falling) else np.inf


def _shift_positive(v: np.ndarray) -> np.ndarray:
    """``v`` if it is strictly positive, else ``v`` shifted so its minimum is 1."""
    return v if v.size == 0 or v.min() > 0 else v + (1.0 - v.min())


def _solve_ipm(qp: _CompiledQP, settings: SolverSettings) -> SolverResult:
    e, f, h = qp.e, qp.f, qp.h
    n_ineq = h.size

    # start: CVXOPT's coneqp start of the problem in x / sigma, where sigma_i
    # is the finite width of variable i's box clipped to [1, _START_SCALE_CAP]
    # (1 where a side is infinite). coneqp takes the least-squares point of
    # the Newton system with unit slack weights and shifts slacks and
    # multipliers to at least 1, so it assumes variables of unit scale. In x,
    # the bound rows weigh 1 / sigma^2, the right-hand side is
    # -c + G'(h / sigma^2), s = sigma shift((h - G x) / sigma) and
    # z = shift((G x - h) / sigma) / sigma.
    # - The scale: the kernel dual at C = 100 has alpha in [0, 100] and a
    #   mean-scaled gradient of about 1/n. From the unit start (mu0 = 2.8e3)
    #   the 600-row C10 fit at c = 0 cut mu only about 3x an iteration over
    #   iterations 7-17, and the fits at c = inf, 0 and 0.05 took 20, 23 and
    #   25 iterations; from this start (mu0 = 2.4) they take 14 each, and at
    #   2,000 rows 16 instead of 22, 27 and 27.
    # - The cap: sigma = max(width, 1) starts too far out for C >= 1e4. The
    #   C10 fits took 20-23 iterations uncapped at C = 1e4 and 12-16 capped;
    #   at C = 1e6, 40-52 uncapped, 27-38 from the unit start, 16-20 capped.
    # A box no wider than 1 has sigma = 1: the unit start, bit for bit.
    width = np.where(np.isfinite(qp.lo) & np.isfinite(qp.hi), qp.hi - qp.lo, 1.0)
    sigma = np.clip(width, 1.0, _START_SCALE_CAP)
    row_sigma = np.concatenate([sigma[qp.lower], sigma[qp.upper]])
    x, y = _NewtonSystem(qp, 1.0 / row_sigma**2).solve(-qp.c + qp.bounds_transpose(h / row_sigma**2), -f)
    gap = (h - qp.bounds(x)) / row_sigma
    s = row_sigma * _shift_positive(gap)
    z = _shift_positive(-gap) / row_sigma
    start_size = 1.0 + max(float(np.max(z, initial=0.0)), float(np.max(np.abs(y), initial=0.0)))
    start = f" bound_rows={n_ineq} sigma_max={float(np.max(row_sigma, initial=1.0)):.3g}"

    status = "max_iter"
    previous_primal = np.inf
    iteration = 0
    while True:
        r_d = qp.gradient(x) + qp.bounds_transpose(z) + _rmatvec(e, y)
        r_p = qp.bounds(x) + s - h
        r_e = _matvec(e, x) - f
        mu_gap = _dot(s, z) / n_ineq if n_ineq else 0.0

        point = np.clip(x, qp.lo, qp.hi)
        kkt = qp.residuals(point, y)
        # the start's record, iter=0, also gives the start's scale; its mu is mu0
        _log.debug(
            "ipm iter=%d mu=%.2e viol=%.2e stat=%.2e comp=%.2e%s",
            iteration, mu_gap, kkt.max_violation, kkt.stationarity_norm, kkt.max_comp_slack,
            "" if iteration else start,
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

        system = _NewtonSystem(qp, z / s)

        def direction(r_c: np.ndarray):
            dx, dy = system.solve(-r_d + qp.bounds_transpose((r_c - z * r_p) / s), r_e)
            ds = -r_p - qp.bounds(dx)
            return dx, ds, (-r_c - z * ds) / s, dy

        # predictor: the pure Newton (affine-scaling) step
        _, ds_aff, dz_aff, _ = direction(s * z)
        step = min(1.0, _max_step(s, ds_aff), _max_step(z, dz_aff))
        sigma = (_dot(s + step * ds_aff, z + step * dz_aff) / n_ineq / mu_gap) ** 3 if n_ineq else 0.0
        # corrector: centring plus the second-order term of the predictor
        dx, ds, dz, dy = direction(s * z + ds_aff * dz_aff - sigma * mu_gap)
        step = min(1.0, _STEP_TO_BOUNDARY * min(_max_step(s, ds), _max_step(z, dz)))
        x, s, z, y = x + step * dx, s + step * ds, z + step * dz, y + step * dy

    return SolverResult(point, qp.objective(point), status, kkt, iteration, _named_multipliers(np.zeros(0), y))


# ---------------------------------------------------------------------------
# public entry points


def minimize_smooth(problem: SmoothProblem, settings: SolverSettings | None = None) -> SolverResult:
    """Minimize a smooth convex objective under the problem's constraints.

    Deterministic given identical inputs. ``status == "converged"`` certifies
    that all KKT residuals of the problem as stated, equalities included, are
    inside the configured tolerances. ``"infeasible"`` means that no point
    meets E x = f to the feasibility tolerance, or that the inequalities
    stayed violated at the largest penalty weight. A problem without equality
    rows goes to the augmented-Lagrangian loop as it is. The problem must
    supply the Hessian of its objective; one without it, or with a
    non-empty ``convex_constraints``, raises ValueError.
    """
    settings = settings or SolverSettings()
    comp = _compile_smooth(problem)
    if comp.hessian is None:
        raise ValueError("minimize_smooth needs the Hessian of the objective")
    if comp.equality is None:
        return _solve_al(comp, settings)
    return _solve_eliminated(comp, settings)


def solve_qp(problem: QuadraticProblem, settings: SolverSettings | None = None) -> SolverResult:
    """KKT-certified solve of a convex QP over a box and linear equalities.

    Deterministic given identical inputs. The returned point lies in the box;
    ``status`` is ``"converged"`` when the KKT residuals are inside the
    configured tolerances, ``"infeasible"`` when the primal residual stalls
    while the multipliers diverge, and ``"max_iter"`` when the iteration
    budget ran out first. Its ``multipliers`` are those of the rows of E.
    """
    settings = settings or SolverSettings()
    return _solve_ipm(_compile_qp(problem), settings)


def _equality_multipliers(multipliers: dict, rows: int) -> np.ndarray:
    """The "equality" entry of ``multipliers`` as a vector of ``rows`` entries (zeros when absent)."""
    mu = np.atleast_1d(np.asarray(multipliers.get("equality", np.zeros(rows)), dtype=float))
    if mu.shape != (rows,):
        raise ValueError(f"expected {rows} equality multipliers, got {mu.size}")
    return mu


def kkt_residuals(problem, point, multipliers) -> KKTResiduals:
    """Evaluate KKT residuals of (point, multipliers) for a given problem.

    ``multipliers`` maps "equality" to one entry per row of E (zeros when
    absent) and "inequality" to the multipliers of a ``SmoothProblem``'s rows
    of A, as one flat vector or a list of vectors that concatenate to it
    (``SolverResult.multipliers`` holds a list of one); they must be
    non-negative. A ``SmoothProblem`` with a non-empty
    ``convex_constraints`` raises ValueError. A ``QuadraticProblem`` has
    only its box, so a non-empty "inequality" entry raises ValueError.
    Stationarity is the norm of the
    Lagrangian gradient (projected onto the box for quadratic problems); the
    violation and complementary-slackness entries are worst-case over all
    constraints.
    """
    x = np.asarray(point, dtype=float)
    parts = [np.ravel(np.asarray(p, dtype=float)) for p in multipliers.get("inequality", [])]
    if isinstance(problem, QuadraticProblem):
        if parts:
            raise ValueError("a QuadraticProblem takes no inequality multipliers: its only bounds are the box")
        qp = _compile_qp(problem)
        return qp.residuals(x, _equality_multipliers(multipliers, qp.f.size))
    if not isinstance(problem, SmoothProblem):
        raise TypeError("problem must be SmoothProblem or QuadraticProblem")
    comp = _compile_smooth(problem)
    flat = np.concatenate(parts) if parts else np.zeros(0)
    if np.any(flat < 0):
        raise ValueError("inequality multipliers must be non-negative")
    if flat.size != comp.rows[1].size:
        raise ValueError(f"expected {comp.rows[1].size} inequality multipliers, got {flat.size}")
    mu = None if comp.equality is None else _equality_multipliers(multipliers, comp.equality[1].size)
    return _residuals(comp, x, flat, mu)
