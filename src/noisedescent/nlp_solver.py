"""Smooth constrained NLP solver with feasibility/optimality reporting.

Handles min f(w) subject to equality constraints, two-sided inequality
constraints lo <= c(w) <= hi, and variable bounds.  The algorithm is a
shifted-penalty augmented Lagrangian outer loop; each outer iteration
minimizes the bound-constrained subproblem with a two-metric projected
Newton method, a Cholesky solve on the free variables of the exact
merit Hessian or, where that is indefinite, of its damped convexified
model.  Near feasibility an active-set Newton polish on the KKT system
(`_polish`) certifies the optimum.  `solve` therefore requires the problem's exact
Lagrangian Hessian and builds the dense Jacobians; `kkt_residuals` needs
only the gradient and the product J^T lam, which a problem may sum
without forming J (`NlpProblem.jacobian_transpose_product`).  Linear
algebra is dense, which is comfortable at the problem sizes this package
targets.

Two-sided rows are treated uniformly through the shifted projection
t = clip(c + lam/rho, lo, hi), which reduces to the classical multiplier
update for equalities (lo = hi = 0) and prunes inactive multipliers
automatically; every clip here is `_clip`, np.clip's bits without its
Python-level overhead.  Callers set only the five `SolverOptions`; every
other number of the algorithm is a module constant.

The line search backtracks by halving the step from 1, and evaluates
its trial points in batches of `_TRIAL_BATCH`: the value callbacks take
a stack of points and evaluate it in one call, and the batch is then
scanned in order with the Armijo test, so the accepted step is the one
one-at-a-time backtracking finds.  A trial point outside the model's
domain raises `DomainError`; a batch that raises is evaluated again one
point at a time, where such a point is a rejected step.  The accepted
trial's objective and scaled rows come back with it, and the Newton
iteration's next `value_grad` reuses them instead of scoring the point
again: `NlpProblem`'s stacked contract makes them the one-point values,
bit for bit.

Every point claimed optimal is certified by `kkt_residuals`, the same
function tests use to recheck solver output independently.  All error
measures are computed on scaled rows and scaled variables, using the
scaling vectors declared by the problem.

SciPy loads on the first factorisation, not with this module.  The
module-level `cho_factor` and `cho_solve` call LAPACK's `dpotrf` and
`dpotrs` from `scipy.linalg.lapack`, imported when called, as
`scipy.linalg.cho_factor(a, lower=True, check_finite=False)` and
`cho_solve` call them, so they have those functions' bits without their
per-call checks; `lu_factor` and `lu_solve`, made by `_scipy_linalg`,
import `scipy.linalg` when called and pass their arguments on unchanged.
Most uses of the package never factorise a matrix (`evaluate`, Leq
scoring, model builds, `kkt_residuals`), and importing `scipy.linalg`
costs 0.30 s on a 2-core host (`python -X importtime`): with it, a fresh
`import noisedescent, noisedescent.cli` takes 0.45 s and leaves the
process at 58 MB resident; without it, 0.15 s and 34 MB.  The solver
looks the four up by name on every call, so a wrapper set on the module
(as the benchmark's tracer sets one to count factorisations) sees each
call.  `LinAlgError` is numpy's, the class `scipy.linalg` raises and
`cho_factor` raises where its matrix is not positive definite.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.linalg import LinAlgError

from .errors import DomainError, SettingError

_COMPLEMENTARITY_CAP = 10.0  # slack distances are capped here in the residual
_MULTIPLIER_CAP = 1e12
_ARMIJO_SIGMA = 1e-4  # sufficient-decrease parameter of the line search
_MAX_LINE_SEARCH = 40  # trial steps alpha = 1, 1/2, ... of one line search
# Line-search trial points evaluated per stacked call.  The accepted index
# k (alpha = 2**-k) of the N=12 reference solves has median 8: 201 of
# `noise`'s 400 searches and 413 of `fuel`'s 650 accept k >= 8, and 39 and
# 145 accept k >= 16, so a batch of 16 saves most second calls.  At N=100
# a stacked merit call takes about 1.0 ms for 8 points and 1.4 ms for 16
# (one BLAS thread), so a search accepted within its first 8 trials costs
# about 0.45 ms more; no benchmark workload measures that case.
_TRIAL_BATCH = 16
_PENALTY_FACTOR = 10.0  # rho grows by this factor when feasibility lags
_PENALTY_MAX = 1e10     # and stops here; a stall there is "infeasible"
_POLISH_ROUNDS = 3    # active-set detections of one polish
_POLISH_STEPS = 15    # Newton steps per detection
_POLISH_REG = 1e-11   # diagonal regularisation of the polish's KKT matrix


def _scipy_linalg(name: str) -> Callable:
    """A function that imports `scipy.linalg` when called and passes its
    arguments on to the function `name` there (see the module docstring)."""
    def call(*args, **kwargs):
        from scipy import linalg
        return getattr(linalg, name)(*args, **kwargs)
    call.__name__ = call.__qualname__ = name
    return call


lu_factor, lu_solve = map(_scipy_linalg, ("lu_factor", "lu_solve"))


def cho_factor(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """(c, True): the lower Cholesky factor of a symmetric float64 matrix
    in the lower triangle of c, as `scipy.linalg.cho_factor(a, lower=True,
    check_finite=False)` returns it, from LAPACK `dpotrf`.  Raises
    LinAlgError where `a` is not positive definite."""
    from scipy.linalg.lapack import dpotrf
    c, info = dpotrf(a, lower=1, clean=0)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"dpotrf: illegal value in argument {-info}")
    return c, True


def cho_solve(factor: tuple[np.ndarray, bool], b: np.ndarray) -> np.ndarray:
    """x with a x = b, from `cho_factor(a)`, through LAPACK `dpotrs`."""
    from scipy.linalg.lapack import dpotrs
    x, info = dpotrs(factor[0], b, lower=int(factor[1]))
    if info != 0:
        raise ValueError(f"dpotrs: illegal value in argument {-info}")
    return x


def _clip(x, lo, hi):
    """np.clip(x, lo, hi), bit for bit (signed zeros and NaN included),
    without its Python-level argument handling."""
    return np.minimum(np.maximum(x, lo), hi)


@dataclass
class NlpProblem:
    """Callback bundle describing one NLP.

    Jacobians are dense (rows, n_vars) arrays; only `solve` needs them.
    `jacobian_transpose_product(w, eq_mult, ineq_mult)` returns
    J_eq^T eq_mult + J_in^T ineq_mult, (n_vars,), with physical-row
    multipliers as `lagrangian_hessian` takes them; it is all that
    `kkt_residuals` and the solver's stationarity measure read of the
    Jacobians.  Left out, it is filled in from the two dense Jacobian
    callbacks.  Row and variable scalings make the reported
    feasibility/optimality errors meaningful across mixed units;
    callbacks always receive unscaled (physical) vectors.

    `objective`, `equalities` and `inequalities` take one point (n_vars,)
    or a stack of points (K, n_vars).  For a stack they return (K,) and
    (K, rows), row k being the value at point k to the last bit, as the
    line search relies on.  The derivative callbacks and
    `lagrangian_hessian` take one point only.

    `meta` is the builder's own; the solver never reads it.  `assemble`
    keeps its transcription there, under "transcription".
    """

    n_vars: int
    objective: Callable[[np.ndarray], float]
    objective_gradient: Callable[[np.ndarray], np.ndarray]
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    n_eq: int = 0
    equalities: Optional[Callable[[np.ndarray], np.ndarray]] = None
    equalities_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    n_ineq: int = 0
    inequalities: Optional[Callable[[np.ndarray], np.ndarray]] = None
    inequalities_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    ineq_lower: Optional[np.ndarray] = None
    ineq_upper: Optional[np.ndarray] = None
    x_scale: Optional[np.ndarray] = None
    eq_scale: Optional[np.ndarray] = None
    ineq_scale: Optional[np.ndarray] = None
    f_scale: float = 1.0
    # exact dense Hessian of sigma_f*f + eq_mult.c_eq + ineq_mult.c_ineq
    # (physical variables and unscaled rows), required by `solve`.
    # Called as (w, sigma_f, eq_mult, ineq_mult, convexify=False).  With
    # convexify=True it must return a symmetric positive-semidefinite
    # model of the same Hessian: `solve` passes zero equality multipliers
    # and nonnegative inequality multipliers there and uses the result
    # where the exact merit Hessian is indefinite.  It must return a new
    # array on every call, never one it keeps: `solve` scales the result
    # in place.
    lagrangian_hessian: Optional[Callable] = None
    jacobian_transpose_product: Optional[Callable] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.n_vars
        if self.lower is None:
            self.lower = np.full(n, -np.inf)
        if self.upper is None:
            self.upper = np.full(n, np.inf)
        if self.x_scale is None:
            self.x_scale = np.ones(n)
        if self.eq_scale is None:
            self.eq_scale = np.ones(self.n_eq)
        if self.ineq_scale is None:
            self.ineq_scale = np.ones(self.n_ineq)
        if self.n_ineq and (self.ineq_lower is None or self.ineq_upper is None):
            raise ValueError("inequality bounds required when n_ineq > 0")
        for name in ("lower", "upper", "x_scale", "eq_scale", "ineq_scale",
                     "ineq_lower", "ineq_upper"):
            v = getattr(self, name)
            if v is not None:
                setattr(self, name, np.asarray(v, dtype=float))
        if np.any(self.x_scale <= 0):
            raise ValueError("x_scale must be strictly positive")
        if self.jacobian_transpose_product is None:
            self.jacobian_transpose_product = _dense_transpose_product(self)


def _dense_transpose_product(p: NlpProblem) -> Callable:
    """J_eq^T eq_mult + J_in^T ineq_mult through the dense Jacobian callbacks.

    The closure holds the callbacks, not the problem, so it makes no
    reference cycle."""
    n_vars, n_eq, n_ineq = p.n_vars, p.n_eq, p.n_ineq
    eq_jac, in_jac = p.equalities_jacobian, p.inequalities_jacobian

    def product(w, eq_mult, ineq_mult):
        g = np.zeros(n_vars)
        if n_eq:
            g += eq_jac(w).T @ eq_mult
        if n_ineq:
            g += in_jac(w).T @ ineq_mult
        return g
    return product


@dataclass(frozen=True)
class SolverOptions:
    """The solver's five settings, checked once (the class is frozen).

    `max_outer` penalty iterations of at most `inner_maxiter` Newton steps
    each are the whole budget; tests and the `[solver]` config section set
    both.  A certified point reaches `feasibility_tol` and
    `optimality_tol` (see `kkt_residuals`): `--tol-feas`, `--tol-opt`, the
    config and the continuation ladder's coarse rungs set them.
    `initial_penalty` is the first penalty parameter; the config and the
    ladder, which starts a finer rung at the last one's (at most 1e3), set it.
    """

    max_outer: int = 60
    inner_maxiter: int = 50
    feasibility_tol: float = 1e-6
    optimality_tol: float = 1e-6
    initial_penalty: float = 10.0

    def __post_init__(self):
        for name in ("feasibility_tol", "optimality_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise SettingError(f"{name} must be finite and strictly positive", name)
        for name in ("max_outer", "inner_maxiter"):
            if not getattr(self, name) >= 1:
                raise SettingError(f"{name} must be at least 1", name)
        if not (math.isfinite(self.initial_penalty) and self.initial_penalty > 0):
            raise SettingError("initial_penalty must be finite and strictly positive",
                               "initial_penalty")


@dataclass
class IterationRecord:
    outer: int
    objective: float
    feasibility: float
    optimality: float
    penalty: float
    inner_iterations: int
    step_norm: float
    # why the record's step stopped: converged | maxiter | linesearch for
    # a penalty subproblem, polish | warm-polish for a certifying polish
    stop: str

    def format(self) -> str:
        return (f"iter={self.outer} objective={self.objective:.10e} "
                f"feasibility={self.feasibility:.3e} optimality={self.optimality:.3e} "
                f"penalty={self.penalty:.3e} inner_iters={self.inner_iterations} "
                f"step={self.step_norm:.3e} stop={self.stop}")


@dataclass
class SolveReport:
    status: str                     # optimal | infeasible | iteration-limit | error
    objective: float
    feasibility_error: float
    optimality_error: float
    iterations: int                 # total inner (Newton) iterations
    outer_iterations: int
    wall_time: float                # s
    eq_multipliers: np.ndarray
    ineq_multipliers: np.ndarray
    message: str = ""
    iteration_log: list = field(default_factory=list)
    trial_points: int = 0           # points the line-search merit was evaluated at
    trial_batches: int = 0          # merit calls: stacked, or single in a fallback


class _Rows:
    """Scaled constraint rows lo <= c_hat(w) <= hi, equalities first."""

    def __init__(self, problem: NlpProblem):
        p = problem
        self.p = p
        self.m = p.n_eq + p.n_ineq
        lo = np.concatenate([np.zeros(p.n_eq), p.ineq_lower / p.ineq_scale
                             if p.n_ineq else np.zeros(0)])
        hi = np.concatenate([np.zeros(p.n_eq), p.ineq_upper / p.ineq_scale
                             if p.n_ineq else np.zeros(0)])
        self.lo, self.hi = lo, hi
        self.scale = np.concatenate([p.eq_scale, p.ineq_scale])

    @functools.cached_property
    def scale_outer(self) -> np.ndarray:
        """x_scale_i * x_scale_j: multiplying a Hessian by it gives the
        Hessian in scaled variables.  Built on first use."""
        return np.outer(self.p.x_scale, self.p.x_scale)

    def values(self, w: np.ndarray) -> np.ndarray:
        """Scaled rows at one point (n_vars,), or per point of a stack (K, n_vars)."""
        parts = []
        if self.p.n_eq:
            parts.append(np.asarray(self.p.equalities(w), dtype=float))
        if self.p.n_ineq:
            parts.append(np.asarray(self.p.inequalities(w), dtype=float))
        if not parts:
            return np.zeros(0)
        return np.concatenate(parts, axis=-1) / self.scale

    def jacobian(self, w: np.ndarray) -> np.ndarray:
        """Scaled rows' Jacobian, each part divided straight into place."""
        J = np.empty((self.m, self.p.n_vars))
        n_eq = self.p.n_eq
        if n_eq:
            np.divide(self.p.equalities_jacobian(w), self.scale[:n_eq, None], out=J[:n_eq])
        if self.p.n_ineq:
            np.divide(self.p.inequalities_jacobian(w), self.scale[n_eq:, None],
                      out=J[n_eq:])
        return J

    def physical(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(eq_mult, ineq_mult): scaled-row multipliers as the physical-row
        ones that `lagrangian_hessian` and `jacobian_transpose_product` take."""
        n_eq = self.p.n_eq
        return lam[:n_eq] / self.p.eq_scale, lam[n_eq:] / self.p.ineq_scale

    def violation(self, c_hat: np.ndarray) -> float:
        if self.m == 0:
            return 0.0
        over = np.maximum(c_hat - self.hi, 0.0)
        under = np.maximum(self.lo - c_hat, 0.0)
        return float(np.max(np.maximum(over, under), initial=0.0))


def _complementarity(lam: np.ndarray, c_hat: np.ndarray,
                     lo: np.ndarray, hi: np.ndarray) -> float:
    if lam.size == 0:
        return 0.0
    up_slack = _clip(hi - c_hat, 0.0, _COMPLEMENTARITY_CAP)
    lo_slack = _clip(c_hat - lo, 0.0, _COMPLEMENTARITY_CAP)
    comp = np.maximum(lam, 0.0) * up_slack + np.maximum(-lam, 0.0) * lo_slack
    return float(np.max(comp, initial=0.0))


def _first_order_error(p: NlpProblem, rows: _Rows, w: np.ndarray, y: np.ndarray,
                       lam: np.ndarray, c_hat: np.ndarray) -> float:
    """Projected-gradient stationarity plus inequality complementarity.

    `y` is the scaled iterate w / x_scale as the caller holds it: passing
    it, rather than recomputing it from w, keeps its exact bits.  The
    scaled rows' J^T lam is the problem's `jacobian_transpose_product` at
    the physical-row multipliers lam / row scale, so no Jacobian is built.
    """
    s = p.x_scale
    g = p.objective_gradient(w) / p.f_scale
    if rows.m:
        g = g + p.jacobian_transpose_product(w, *rows.physical(lam))
    projected = y - _clip(y - g * s, p.lower / s, p.upper / s)
    stationarity = float(np.max(np.abs(projected), initial=0.0))
    comp = _complementarity(lam[p.n_eq:], c_hat[p.n_eq:],
                            rows.lo[p.n_eq:], rows.hi[p.n_eq:])
    return stationarity + comp


def _row_multipliers(p: NlpProblem, eq_multipliers, ineq_multipliers) -> np.ndarray:
    """Both vectors as one, equalities first, None as zeros; ValueError on a bad shape."""
    parts = []
    for name, mult, n_rows, kind in (
            ("eq_multipliers", eq_multipliers, p.n_eq, "equality"),
            ("ineq_multipliers", ineq_multipliers, p.n_ineq, "inequality")):
        mult = np.zeros(n_rows) if mult is None else np.asarray(mult, dtype=float)
        if mult.shape != (n_rows,):
            raise ValueError(f"{name} has shape {mult.shape}, expected ({n_rows},): "
                             f"one entry per {kind} row")
        parts.append(mult)
    return np.concatenate(parts)


def kkt_residuals(problem: NlpProblem, w: np.ndarray,
                  eq_multipliers: np.ndarray | None = None,
                  ineq_multipliers: np.ndarray | None = None) -> tuple[float, float]:
    """Scaled (feasibility error, optimality error) at a candidate point.

    Feasibility is the max scaled violation over all constraint rows and
    variable bounds.  Optimality is the infinity norm of the Lagrangian
    gradient projected onto the variable-bound box, plus the
    complementarity residual of the inequality rows.  Multipliers follow
    the scaled-row convention used by `solve` (positive at an active
    upper bound, negative at an active lower bound); each vector must
    have one entry per row of its kind, or ValueError is raised.  Builds
    no Jacobian: see `_first_order_error`.
    """
    p = problem
    w = np.asarray(w, dtype=float)
    rows = _Rows(p)
    lam = _row_multipliers(p, eq_multipliers, ineq_multipliers)
    c_hat = rows.values(w)
    s = p.x_scale
    bound_viol = max(
        float(np.max(np.maximum(p.lower - w, 0.0) / s, initial=0.0)),
        float(np.max(np.maximum(w - p.upper, 0.0) / s, initial=0.0)),
    )
    feasibility = max(rows.violation(c_hat), bound_viol)
    return feasibility, _first_order_error(p, rows, w, w / s, lam, c_hat)


class _Merit:
    """Augmented Lagrangian of the scaled problem for fixed (lam, rho).

    `trials` counts the calls of `value` ("batches") and the points they
    were made at ("points"), a call that raised included.
    """

    def __init__(self, problem: NlpProblem, rows: _Rows,
                 lam: np.ndarray, rho: float, trials: Counter):
        self.p = problem
        self.rows = rows
        self.lam = lam
        self.rho = rho
        self.s = problem.x_scale
        self.trials = trials

    def _shift(self, c: np.ndarray) -> np.ndarray:
        return c - _clip(c + self.lam / self.rho, self.rows.lo, self.rows.hi)

    def value(self, y: np.ndarray):
        """(merit, objective / f_scale, scaled rows) at one point (n,), or
        per point of a stack (K, n).  Each stacked row is reduced by the 1-D
        dot products of one point, so it keeps that point's bits; without
        rows, the merit is the objective and the rows are empty."""
        self.trials["batches"] += 1
        self.trials["points"] += math.prod(y.shape[:-1])
        w = y * self.s
        f = self.p.objective(w) / self.p.f_scale
        if self.rows.m == 0:
            return f, f, np.zeros(y.shape[:-1] + (0,))
        c = self.rows.values(w)
        d = self._shift(c)
        return f + np.vecdot(self.lam, d) + 0.5 * self.rho * np.vecdot(d, d), f, c

    def value_grad(self, y: np.ndarray, scored=None):
        """(phi, gradient, shifted residual d, scaled-row Jacobian or None).

        `scored` is (objective / f_scale, scaled rows) at y when the caller
        has them, as `value` returns them; they are not computed again."""
        w = y * self.s
        f, c = scored or (self.p.objective(w) / self.p.f_scale, None)
        g = self.p.objective_gradient(w) / self.p.f_scale
        if self.rows.m == 0:
            return float(f), g * self.s, np.zeros(0), None
        if c is None:
            c = self.rows.values(w)
        J = self.rows.jacobian(w)
        d = self._shift(c)
        phi = f + self.lam @ d + 0.5 * self.rho * (d @ d)
        grad = (g + J.T @ (self.lam + self.rho * d)) * self.s
        return float(phi), grad, d, J

    def penalty_active(self, d: np.ndarray) -> np.ndarray:
        """Rows whose quadratic penalty is live at the current point."""
        active = np.ones(self.rows.m, dtype=bool)
        ineq = slice(self.p.n_eq, self.rows.m)
        # an inequality row is inactive when its shifted value was clipped
        # into the interior: there d is the constant -lam/rho
        active[ineq] = np.abs(d[ineq] + self.lam[ineq] / self.rho) > 1e-14
        return active

    def newton_models(self, y: np.ndarray, d: np.ndarray,
                      J: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """(exact, modified) dense merit Hessians in scaled variables.

        The exact model carries the full Lagrangian curvature.  The
        modified model floors the objective curvature's spectrum and
        drops the constraint curvature, leaving a positive semidefinite
        matrix plus the Gauss-Newton penalty term: the fallback when the
        exact model is indefinite.  Expensive: callers cache the result
        across inner iterations.
        """
        w = y * self.s
        ss = self.rows.scale_outer
        eq_mult, ineq_mult = self.rows.physical(self.lam + self.rho * d)
        # both are new arrays, so they are scaled and added to in place
        exact = self.p.lagrangian_hessian(
            w, 1.0 / self.p.f_scale, eq_mult, ineq_mult, convexify=False)
        exact *= ss
        modified = self.p.lagrangian_hessian(
            w, 1.0 / self.p.f_scale, np.zeros(self.p.n_eq),
            np.maximum(ineq_mult, 0.0), convexify=True)
        modified *= ss
        if self.rows.m:
            act = self.penalty_active(d)
            if np.any(act):
                Jy = J[act]  # a copy: boolean indexing
                Jy *= self.s
                gn = Jy.T @ Jy
                gn *= self.rho
                exact += gn
                modified += gn
        return exact, modified


def _scored(merit: _Merit, Y):
    """(merit, objective, scaled rows) at each row of Y, from one stacked
    `value` call; after a DomainError, from one call per row, lazily, with
    an infinite merit outside the model's domain."""
    try:
        return zip(*merit.value(Y))
    except DomainError:
        return _one_at_a_time(merit, Y)


def _one_at_a_time(merit: _Merit, Y):
    for y_trial in Y:
        try:
            yield merit.value(y_trial)
        except DomainError:
            yield np.inf, None, None


def _line_search(merit: _Merit, y, f, g, direction, lo, hi):
    """Projected Armijo backtracking from y along direction.

    The trial steps are alpha = 1, 1/2, ... (`_MAX_LINE_SEARCH` of them),
    projected onto [lo, hi].  They are evaluated `_TRIAL_BATCH` at a time
    in one stacked merit call, and each batch is scanned in order: the
    first trial that passes the Armijo test is accepted, and a zero
    projected step that fails it ends the search.  If a batch raises
    `DomainError`, its points are evaluated one at a time, up to the
    accepted one, and a point outside the model's domain counts as a
    rejected step.  So the result is that of one-at-a-time backtracking.
    Returns (alpha, trial point, (objective / f_scale, scaled rows) at the
    trial point) of the accepted step, or None.
    """
    alphas = 0.5 ** np.arange(_MAX_LINE_SEARCH)
    for start in range(0, alphas.size, _TRIAL_BATCH):
        batch = alphas[start:start + _TRIAL_BATCH]
        Y = _clip(y + batch[:, None] * direction, lo, hi)
        for alpha, y_trial, (f_trial, obj, c) in zip(batch, Y, _scored(merit, Y)):
            step = y_trial - y
            decrease = float(g @ step)
            if (f_trial <= f + _ARMIJO_SIGMA * min(decrease, 0.0)
                    and f_trial < f + 1e-16 * abs(f) + 1e-300):
                return float(alpha), y_trial, (obj, c)
            if not np.any(step):
                return None
    return None


def _inner_newton(merit: _Merit, y0, lo, hi, gtol, opts: SolverOptions):
    """Two-metric projected Newton on cached dense Hessian models.

    Free variables take the exact Newton step when the exact model is
    positive definite, else a damped modified-Newton step; active-set
    variables follow the negative gradient; the combined direction is
    globalized by a projected Armijo search.  Models and Cholesky
    factors are cached for a few iterations since their assembly and
    factorization dominate the step cost.  Returns (y, Newton steps
    taken, stop reason: converged | maxiter | linesearch).
    """
    y = _clip(y0, lo, hi)
    f, g, d, J = merit.value_grad(y)
    status = "maxiter"
    models = None
    model_age = 0
    refresh = True
    exact_failed = False
    factor_cache = {}  # (model flavor, free-set key) -> cholesky factor
    for n_iter in range(1, opts.inner_maxiter + 1):
        pg = y - _clip(y - g, lo, hi)  # projected gradient
        pg_norm = float(np.max(np.abs(pg), initial=0.0))
        if pg_norm <= gtol:
            status = "converged"
            n_iter -= 1
            break

        band = min(1e-3, pg_norm)
        active = (((y <= lo + band) & (g > 0.0)) |
                  ((y >= hi - band) & (g < 0.0)))
        free_idx = np.flatnonzero(~active)

        if refresh or models is None or model_age >= 4 or pg_norm <= 10.0 * gtol:
            models = merit.newton_models(y, d, J)
            model_age = 0
            refresh = False
            exact_failed = False
            factor_cache.clear()

        direction = np.zeros_like(y)
        if free_idx.size:
            key = free_idx.tobytes()
            g_free = g[free_idx]
            factor = None
            if not exact_failed:
                factor = factor_cache.get(("exact", key))
                if factor is None:
                    try:
                        factor = factor_cache[("exact", key)] = cho_factor(
                            models[0][np.ix_(free_idx, free_idx)])
                    except LinAlgError:
                        exact_failed = True
            if factor is None:
                factor = factor_cache.get(("modified", key))
                if factor is None:
                    H_gn = models[1][np.ix_(free_idx, free_idx)]
                    diag_mean = max(float(np.trace(H_gn)) / free_idx.size, 1e-12)
                    tau = 1e-8 * diag_mean
                    for _ in range(40):
                        try:
                            factor = factor_cache[("modified", key)] = cho_factor(
                                H_gn + tau * np.eye(free_idx.size))
                            break
                        except LinAlgError:
                            tau *= 100.0
            p = cho_solve(factor, -g_free) if factor is not None else -g_free
            cap = 10.0 * max(1.0, float(np.max(np.abs(y))))
            p_norm = float(np.max(np.abs(p), initial=0.0))
            if p_norm > cap:
                p = p * (cap / p_norm)
            direction[free_idx] = p
        direction[active] = -g[active]

        if float(direction @ g) >= 0.0:
            direction = -pg  # safeguard

        accepted = _line_search(merit, y, f, g, direction, lo, hi)
        if accepted is None:
            status = "linesearch"
            break
        alpha, y, scored = accepted
        model_age += 1
        if alpha < 0.25:
            refresh = True  # model mistrusted: rebuild at the new point
        f, g, d, J = merit.value_grad(y, scored)
    return y, n_iter, status


def _polish(problem: NlpProblem, rows: _Rows, y_lo, y_hi, opts: SolverOptions,
            y: np.ndarray, lam: np.ndarray):
    """Return (y, lam, feas, opt) of a certified point, or None.

    Each of `_POLISH_ROUNDS` rounds (`_polish_round`) freezes the active
    and fixed-variable sets at the current point and runs up to
    `_POLISH_STEPS` globalized Newton steps on the reduced KKT system; if
    the sets were misjudged the next round re-detects them at the best
    point reached.
    """
    for _ in range(_POLISH_ROUNDS):
        out = _polish_round(problem, rows, y_lo, y_hi, opts, y, lam)
        if out is None:
            return None
        y, lam, feas, opt, certified = out
        if certified:
            return y, lam, feas, opt
    return None


def _polish_round(problem: NlpProblem, rows: _Rows, y_lo, y_hi, opts: SolverOptions,
                  y0: np.ndarray, lam0: np.ndarray):
    """One detection round of the active-set Newton polish on the KKT
    system, which certifies optimality once the augmented-Lagrangian
    phase is near-feasible.  Returns (y, lam, feas, opt, certified), or
    None when the round cannot step.

    Inequality rows whose Jacobian has a single nonzero duplicate a
    variable bound; they are absorbed into the variable box and their
    multipliers stay zero (bound activity is measured by gradient
    projection).  The remaining rows (defects, boundary conditions,
    consumption caps, epigraph rows) enter the square KKT system, which
    converges quadratically from the ballpark the outer loop provides.
    Its steps backtrack on the KKT residual norm; as in the line search,
    a trial point outside the model's domain is a rejected step.
    """
    p, s, m = problem, problem.x_scale, rows.m
    y = y0.copy()

    def kkt_parts(y_, lam_):
        """Scaled rows, their Jacobian in scaled variables (None without
        rows) and the scaled Lagrangian gradient."""
        w_ = y_ * s
        c_ = rows.values(w_)
        J_ = rows.jacobian(w_) * s[None, :] if m else None
        g_ = s * (p.objective_gradient(w_) / p.f_scale)
        return c_, J_, (g_ + J_.T @ lam_ if m else g_)

    c, Jy, g_lagr = kkt_parts(y, lam0)
    # bound-duplicate rows tighten the variable box; their
    # multipliers stay zero (bound activity is handled by projection)
    ineq = np.arange(m) >= p.n_eq
    simple = ineq & ((np.abs(Jy) > 0.0).sum(axis=1) == 1) if m else ineq
    eff_lo, eff_hi = y_lo.copy(), y_hi.copy()
    for i in np.flatnonzero(simple):
        j = int(np.argmax(np.abs(Jy[i])))
        a = Jy[i, j]
        off = c[i] - a * y[j]
        b1 = (rows.lo[i] - off) / a
        b2 = (rows.hi[i] - off) / a
        lo_j, hi_j = (b1, b2) if a > 0 else (b2, b1)
        eff_lo[j] = max(eff_lo[j], lo_j)
        eff_hi[j] = min(eff_hi[j], hi_j)

    band = 1e-5
    at_lo = y <= eff_lo + band
    at_hi = y >= eff_hi - band
    fixed = (at_lo & (g_lagr > 0.0)) | (at_hi & (g_lagr < 0.0))
    y[fixed & at_lo] = eff_lo[fixed & at_lo]
    y[fixed & at_hi] = eff_hi[fixed & at_hi]
    free_idx = np.flatnonzero(~fixed)
    if free_idx.size == 0:
        return None

    # the other inequality rows are active at their upper side (tested
    # first) or lower side when near it or when their multiplier points
    # there; an infinite side gives inf - inf, masked out by isfinite
    with np.errstate(invalid="ignore"):
        up = (ineq & ~simple & np.isfinite(rows.hi)
              & ((c >= rows.hi - 1e-5 * (1 + np.abs(rows.hi))) | (lam0 > 0)))
        down = (ineq & ~simple & ~up & np.isfinite(rows.lo)
                & ((c <= rows.lo + 1e-5 * (1 + np.abs(rows.lo))) | (lam0 < 0)))
    act_rows = ~ineq | up | down
    target = np.where(up, rows.hi, rows.lo)  # read on active rows only
    act_idx = np.flatnonzero(act_rows)
    lam = np.where(act_rows, lam0, 0.0)
    one_sided = rows.hi != rows.lo
    nf, na = free_idx.size, act_idx.size

    def residual(y_, lam_):
        c_, J_, gl = kkt_parts(y_, lam_)
        parts = [gl[free_idx]]
        if na:
            parts.append(c_[act_idx] - target[act_idx])
        return np.concatenate(parts), c_, J_, gl

    r, c, Jy, g_lagr = residual(y, lam)
    r_norm = float(np.linalg.norm(r))
    for _ in range(_POLISH_STEPS):
        H = p.lagrangian_hessian(y * s, 1.0 / p.f_scale, *rows.physical(lam))
        H *= rows.scale_outer
        K = np.zeros((nf + na, nf + na))
        K[:nf, :nf] = H[np.ix_(free_idx, free_idx)] + _POLISH_REG * np.eye(nf)
        if na:
            Ja = Jy[np.ix_(act_idx, free_idx)]
            K[:nf, nf:] = Ja.T
            K[nf:, :nf] = Ja
            K[nf:, nf:] = -_POLISH_REG * np.eye(na)
        rhs = np.concatenate([-g_lagr[free_idx],
                              -(c[act_idx] - target[act_idx]) if na else np.zeros(0)])
        try:
            sol = lu_solve(lu_factor(K, check_finite=False), rhs,
                           check_finite=False)
        except (LinAlgError, ValueError):
            return None
        if not np.all(np.isfinite(sol)):
            return None
        dy = sol[:nf]
        dlam = sol[nf:]

        alpha = 1.0
        improved = False
        for _ in range(20):
            y_t = y.copy()
            y_t[free_idx] += alpha * dy
            y_t = _clip(y_t, eff_lo, eff_hi)
            lam_t = lam.copy()
            if na:
                lam_t[act_idx] = lam[act_idx] + alpha * dlam
            try:
                r_t, c_t, Jy_t, gl_t = residual(y_t, lam_t)
            except DomainError:  # outside the model domain: rejected
                alpha *= 0.5
                continue
            r_t_norm = float(np.linalg.norm(r_t))
            if r_t_norm <= (1.0 - 1e-4 * alpha) * r_norm:
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
        y, lam, r_norm = y_t, lam_t, r_t_norm
        c, Jy, g_lagr = c_t, Jy_t, gl_t

        feas, opt = kkt_residuals(p, y * s, lam[:p.n_eq], lam[p.n_eq:])
        # certified unless a one-sided row's multiplier has the wrong sign
        tol = opts.optimality_tol
        if (feas <= opts.feasibility_tol and opt <= tol and not np.any(
                one_sided & ((up & (lam < -tol)) | (down & (lam > tol))))):
            return y, lam, feas, opt, True
    # not certified: hand the best point to the next detection round
    feas, opt = kkt_residuals(p, y * s, lam[:p.n_eq], lam[p.n_eq:])
    return y, lam, feas, opt, False


def solve(problem: NlpProblem, w0: np.ndarray,
          opts: SolverOptions | None = None,
          warm_eq_multipliers: np.ndarray | None = None,
          warm_ineq_multipliers: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Solve the NLP from w0. Returns (solution, report).

    Deterministic: identical (problem, w0, opts) always produce the same
    report.  Warm multipliers (scaled-row convention) let continuation
    schemes resume from a related solve.  On callback failure the report
    carries the diagnostic and status "error"; on stagnating
    infeasibility at the penalty cap the status is "infeasible"; when
    the outer iterations run out the best point found is returned with
    status "iteration-limit".  Raises ValueError when the problem has no
    `lagrangian_hessian`, or when w0 or a warm multiplier vector does
    not have one entry per variable or row.
    """
    opts = opts or SolverOptions()
    p = problem
    if p.lagrangian_hessian is None:
        raise ValueError("solve requires NlpProblem.lagrangian_hessian")
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != (p.n_vars,):
        raise ValueError(f"w0 has shape {w0.shape}, expected ({p.n_vars},)")
    lam = _row_multipliers(p, warm_eq_multipliers, warm_ineq_multipliers)
    t_start = time.perf_counter()
    rows = _Rows(p)
    s = p.x_scale
    y_lo, y_hi = p.lower / s, p.upper / s
    y = _clip(w0 / s, y_lo, y_hi)

    rho = float(opts.initial_penalty)
    # first subproblems stay loose regardless of the starting penalty
    omega = max(min(0.1, 1.0 / rho), min(0.01, 10.0 * opts.optimality_tol))
    eta = max(min(0.5, rho ** -0.1), 0.5 * opts.feasibility_tol)

    def certify(y_at, lam_at, outer, y_prev, tag) -> bool:
        """Newton polish from (y_at, lam_at); on success the polished point,
        logged against y_prev (None logs a zero step), becomes the optimum."""
        nonlocal y, lam, feas, opt, f_val, status
        polished = _polish(p, rows, y_lo, y_hi, opts, y_at, lam_at)
        if polished is None:
            return False
        y, lam, feas, opt = polished
        f_val = float(p.objective(y * s))
        step = 0.0 if y_prev is None else float(np.max(np.abs(y - y_prev), initial=0.0))
        log.append(IterationRecord(outer, f_val, feas, opt, rho, 0, step, tag))
        status = "optimal"
        return True

    status = "iteration-limit"
    message = ""
    total_inner = 0
    log: list[IterationRecord] = []
    best = None  # (priority, y, lam, feas, opt, f)
    feas_history: list[float] = []
    feas = opt = np.inf
    f_val = np.nan
    outer = 0
    last_polish_feas = None
    max_outer = opts.max_outer
    trials: Counter = Counter()

    try:
        if warm_eq_multipliers is not None or warm_ineq_multipliers is not None:
            # a warm-started solve is usually already inside the Newton
            # basin: try to certify before any penalty iterations
            if certify(y, lam, 0, None, "warm-polish"):
                max_outer = 0

        for outer in range(1, max_outer + 1):
            merit = _Merit(p, rows, lam, rho, trials)
            gtol = max(omega, 0.05 * opts.optimality_tol)
            y_prev = y
            y, nit, inner_status = _inner_newton(merit, y, y_lo, y_hi, gtol, opts)
            total_inner += nit

            # feasibility, and optimality at the first-order multiplier estimate
            w = y * s
            c = rows.values(w)
            lam_trial = _clip(lam + rho * merit._shift(c), -_MULTIPLIER_CAP, _MULTIPLIER_CAP)
            feas, opt, f_val = (rows.violation(c), _first_order_error(p, rows, w, y, lam_trial, c),
                                float(p.objective(w)))
            step = float(np.max(np.abs(y - y_prev), initial=0.0))
            log.append(IterationRecord(outer, f_val, feas, opt, rho, nit, step, inner_status))

            priority = (max(feas - opts.feasibility_tol, 0.0), f_val)
            if best is None or priority < best[0]:
                best = (priority, y.copy(), lam_trial.copy(), feas, opt, f_val)

            if feas <= opts.feasibility_tol and opt <= opts.optimality_tol:
                lam = lam_trial
                status = "optimal"
                break

            # near-feasible: try to certify optimality with the Newton
            # polish, which converges quadratically where the penalty
            # subproblems only crawl; attempts are rationed because each
            # costs a handful of dense KKT factorizations
            trigger = max(100.0 * opts.feasibility_tol, 1e-2)
            attempt = feas <= trigger and (
                feas <= 10.0 * opts.feasibility_tol
                or last_polish_feas is None
                or feas < 0.5 * last_polish_feas
                or outer % 3 == 0)
            if attempt:
                last_polish_feas = feas
                if certify(y, lam_trial, outer, y_prev, "polish"):
                    break

            feas_history.append(feas)
            if (rho >= _PENALTY_MAX and feas > 1e3 * opts.feasibility_tol
                    and len(feas_history) >= 4
                    and feas > 0.9 * min(feas_history[-4:-1])):
                lam = lam_trial
                status = "infeasible"
                message = "feasibility stagnated at the penalty cap"
                break

            if feas <= max(eta, opts.feasibility_tol):
                lam = lam_trial
                eta = max(eta / rho ** 0.9, 0.5 * opts.feasibility_tol)
                omega = max(omega / rho, 0.05 * opts.optimality_tol)
            else:
                rho = min(rho * _PENALTY_FACTOR, _PENALTY_MAX)
                eta = max(min(0.5, rho ** -0.1), 0.5 * opts.feasibility_tol)
                omega = max(min(0.1, 1.0 / rho), 0.05 * opts.optimality_tol,
                            0.2 * omega)
    except (ValueError, ArithmeticError, FloatingPointError) as exc:
        status = "error"
        message = f"callback failure: {exc}"
    if status == "iteration-limit":
        message = "outer iteration budget exhausted"

    if status in ("iteration-limit", "infeasible", "error") and best is not None:
        _, y_best, lam_best, feas, opt, f_val = best
        y, lam = y_best, lam_best

    w = y * s
    report = SolveReport(
        status=status,
        objective=float(f_val),
        feasibility_error=float(feas),
        optimality_error=float(opt),
        iterations=total_inner,
        outer_iterations=outer,
        wall_time=time.perf_counter() - t_start,
        eq_multipliers=lam[:p.n_eq].copy(),
        ineq_multipliers=lam[p.n_eq:].copy(),
        message=message,
        iteration_log=log,
        trial_points=trials["points"],
        trial_batches=trials["batches"],
    )
    return w, report

