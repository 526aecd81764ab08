"""Smooth constrained NLP solver with feasibility/optimality reporting.

Handles min f(w) subject to equality constraints, two-sided inequality
constraints lo <= c(w) <= hi, and variable bounds.  The algorithm is a
shifted-penalty augmented Lagrangian outer loop; each outer iteration
minimizes the bound-constrained subproblem with a two-metric projected
Newton method, a Cholesky solve on the free variables of the exact
merit Hessian or, where that is indefinite, of its damped convexified
model.  Near feasibility an active-set Newton polish on the KKT system
certifies the optimum.  `solve` therefore requires the problem's exact
Lagrangian Hessian; `kkt_residuals` needs only first derivatives.
Linear algebra is dense, which is comfortable at the problem sizes this
package targets.

Two-sided rows are treated uniformly through the shifted projection
t = clip(c + lam/rho, lo, hi), which reduces to the classical multiplier
update for equalities (lo = hi = 0) and prunes inactive multipliers
automatically.

The line search backtracks by halving the step from 1, and evaluates
its trial points in batches of `_TRIAL_BATCH`: the value callbacks take
a stack of points and evaluate it in one call, and the batch is then
scanned in order with the Armijo test, so the accepted step is the one
one-at-a-time backtracking finds.  A trial point outside the model's
domain raises `DomainError`; a batch that raises is evaluated again one
point at a time, where such a point is a rejected step.

Every point claimed optimal is certified by `kkt_residuals`, the same
function tests use to recheck solver output independently.  All error
measures are computed on scaled rows and scaled variables, using the
scaling vectors declared by the problem.

SciPy loads on the first factorisation, not with this module: the
module-level `cho_factor`, `cho_solve`, `lu_factor` and `lu_solve` import
`scipy.linalg` when called and pass their arguments on unchanged.  Most
uses of the package never factorise a matrix (`evaluate`, Leq scoring,
model builds, `kkt_residuals`), and importing `scipy.linalg` costs 0.30 s
on a 2-core host (`python -X importtime`): with it, a fresh
`import noisedescent, noisedescent.cli` takes 0.45 s and leaves the
process at 58 MB resident; without it, 0.15 s and 34 MB.  The solver
looks the four up by name on every call, so a wrapper set on the module
(as the benchmark's tracer sets one to count factorisations) sees each
call.  `LinAlgError` is numpy's, the class `scipy.linalg` raises.
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

from .errors import DomainError

_COMPLEMENTARITY_CAP = 10.0  # slack distances are capped here in the residual
_MULTIPLIER_CAP = 1e12
_ARMIJO_SIGMA = 1e-4  # sufficient-decrease parameter of the line search
_TRIAL_BATCH = 8      # line-search trial points evaluated per stacked call


# scipy.linalg loads on the first call (see the module docstring)
def cho_factor(*args, **kwargs):
    from scipy import linalg
    return linalg.cho_factor(*args, **kwargs)


def cho_solve(*args, **kwargs):
    from scipy import linalg
    return linalg.cho_solve(*args, **kwargs)


def lu_factor(*args, **kwargs):
    from scipy import linalg
    return linalg.lu_factor(*args, **kwargs)


def lu_solve(*args, **kwargs):
    from scipy import linalg
    return linalg.lu_solve(*args, **kwargs)


@dataclass
class NlpProblem:
    """Callback bundle describing one NLP.

    Jacobians are dense (rows, n_vars) arrays; `eq_sparsity` and
    `ineq_sparsity` optionally declare a superset of the structural
    nonzeros for introspection.  Row and variable scalings make the
    reported feasibility/optimality errors meaningful across mixed
    units; callbacks always receive unscaled (physical) vectors.

    `objective`, `equalities` and `inequalities` take one point (n_vars,)
    or a stack of points (K, n_vars).  For a stack they return (K,) and
    (K, rows), row k being the value at point k to the last bit, as the
    line search relies on.  The derivative callbacks and
    `lagrangian_hessian` take one point only.
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
    eq_sparsity: Optional[np.ndarray] = None
    ineq_sparsity: Optional[np.ndarray] = None
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


@dataclass
class SolverOptions:
    max_outer: int = 60
    inner_maxiter: int = 50       # Newton steps per subproblem
    max_inner_total: int = 6000    # Newton steps across all subproblems
    feasibility_tol: float = 1e-6
    optimality_tol: float = 1e-6
    initial_penalty: float = 10.0
    penalty_factor: float = 10.0
    penalty_max: float = 1e10
    max_line_search: int = 40
    verbose: bool = False

    def __post_init__(self):
        if self.feasibility_tol <= 0 or self.optimality_tol <= 0:
            raise ValueError("tolerances must be strictly positive")


@dataclass
class IterationRecord:
    outer: int
    objective: float
    feasibility: float
    optimality: float
    penalty: float
    inner_iterations: int
    step_norm: float

    def format(self) -> str:
        return (f"iter={self.outer} objective={self.objective:.10e} "
                f"feasibility={self.feasibility:.3e} optimality={self.optimality:.3e} "
                f"penalty={self.penalty:.3e} inner_iters={self.inner_iterations} "
                f"step={self.step_norm:.3e}")


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
    merit_histories: list = field(default_factory=list)
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
    up_slack = np.clip(hi - c_hat, 0.0, _COMPLEMENTARITY_CAP)
    lo_slack = np.clip(c_hat - lo, 0.0, _COMPLEMENTARITY_CAP)
    comp = np.maximum(lam, 0.0) * up_slack + np.maximum(-lam, 0.0) * lo_slack
    return float(np.max(comp, initial=0.0))


def _first_order_error(p: NlpProblem, rows: _Rows, w: np.ndarray, y: np.ndarray,
                       lam: np.ndarray, c_hat: np.ndarray) -> float:
    """Projected-gradient stationarity plus inequality complementarity.

    `y` is the scaled iterate w / x_scale as the caller holds it: passing
    it, rather than recomputing it from w, keeps its exact bits.
    """
    s = p.x_scale
    g = p.objective_gradient(w) / p.f_scale
    if rows.m:
        g = g + rows.jacobian(w).T @ lam
    projected = y - np.clip(y - g * s, p.lower / s, p.upper / s)
    stationarity = float(np.max(np.abs(projected), initial=0.0))
    comp = _complementarity(lam[p.n_eq:], c_hat[p.n_eq:],
                            rows.lo[p.n_eq:], rows.hi[p.n_eq:])
    return stationarity + comp


def kkt_residuals(problem: NlpProblem, w: np.ndarray,
                  eq_multipliers: np.ndarray | None = None,
                  ineq_multipliers: np.ndarray | None = None) -> tuple[float, float]:
    """Scaled (feasibility error, optimality error) at a candidate point.

    Feasibility is the max scaled violation over all constraint rows and
    variable bounds.  Optimality is the infinity norm of the Lagrangian
    gradient projected onto the variable-bound box, plus the
    complementarity residual of the inequality rows.  Multipliers follow
    the scaled-row convention used by `solve` (positive at an active
    upper bound, negative at an active lower bound).
    """
    p = problem
    w = np.asarray(w, dtype=float)
    rows = _Rows(p)
    if eq_multipliers is None:
        eq_multipliers = np.zeros(p.n_eq)
    if ineq_multipliers is None:
        ineq_multipliers = np.zeros(p.n_ineq)
    lam = np.concatenate([np.asarray(eq_multipliers, dtype=float),
                          np.asarray(ineq_multipliers, dtype=float)])

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
        return c - np.clip(c + self.lam / self.rho, self.rows.lo, self.rows.hi)

    def value(self, y: np.ndarray):
        """Merit at one point (n,), or per point of a stack (K, n).  Each
        stacked row is reduced by the 1-D dot products of one point, so
        it keeps that point's bits."""
        self.trials["batches"] += 1
        self.trials["points"] += math.prod(y.shape[:-1])
        w = y * self.s
        f = self.p.objective(w) / self.p.f_scale
        if self.rows.m == 0:
            return f
        d = self._shift(self.rows.values(w))
        return f + np.vecdot(self.lam, d) + 0.5 * self.rho * np.vecdot(d, d)

    def value_grad(self, y: np.ndarray):
        """(phi, gradient, shifted residual d, scaled-row Jacobian or None)."""
        w = y * self.s
        f = self.p.objective(w) / self.p.f_scale
        g = self.p.objective_gradient(w) / self.p.f_scale
        if self.rows.m == 0:
            return float(f), g * self.s, np.zeros(0), None
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
        zero_eq = np.zeros(self.p.n_eq)
        zero_in = np.zeros(self.p.n_ineq)
        if self.rows.m:
            lam_t = self.lam + self.rho * d
            eq_mult = lam_t[:self.p.n_eq] / self.p.eq_scale
            ineq_mult = lam_t[self.p.n_eq:] / self.p.ineq_scale
        else:
            eq_mult, ineq_mult = zero_eq, zero_in
        # both are new arrays, so they are scaled and added to in place
        exact = self.p.lagrangian_hessian(
            w, 1.0 / self.p.f_scale, eq_mult, ineq_mult, convexify=False)
        exact *= ss
        modified = self.p.lagrangian_hessian(
            w, 1.0 / self.p.f_scale, zero_eq,
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


def _projected_gradient(y, g, lo, hi):
    return y - np.clip(y - g, lo, hi)


def _one_at_a_time(merit: _Merit, Y):
    """Merit at each row of Y in turn, +inf outside the model's domain."""
    for y_trial in Y:
        try:
            yield merit.value(y_trial)
        except DomainError:
            yield np.inf


def _line_search(merit: _Merit, y, f, g, direction, lo, hi, opts: SolverOptions):
    """Projected Armijo backtracking from y along direction.

    The trial steps are alpha = 1, 1/2, ... (opts.max_line_search of them),
    projected onto [lo, hi].  They are evaluated `_TRIAL_BATCH` at a time
    in one stacked merit call, and each batch is scanned in order: the
    first trial that passes the Armijo test is accepted, and a zero
    projected step that fails it ends the search.  If a batch raises
    `DomainError`, its points are evaluated one at a time, up to the
    accepted one, and a point outside the model's domain counts as a
    rejected step.  So the result is that of one-at-a-time backtracking.
    Returns (alpha, trial point) of the accepted step, or None.
    """
    alphas = 0.5 ** np.arange(opts.max_line_search)
    for start in range(0, alphas.size, _TRIAL_BATCH):
        batch = alphas[start:start + _TRIAL_BATCH]
        Y = np.clip(y + batch[:, None] * direction, lo, hi)
        try:
            values = merit.value(Y)
        except DomainError:
            values = _one_at_a_time(merit, Y)
        for alpha, y_trial, f_trial in zip(batch, Y, values):
            step = y_trial - y
            decrease = float(g @ step)
            if (f_trial <= f + _ARMIJO_SIGMA * min(decrease, 0.0)
                    and f_trial < f + 1e-16 * abs(f) + 1e-300):
                return float(alpha), y_trial
            if not np.any(step):
                return None
    return None


def _inner_newton(merit: _Merit, y0, lo, hi, gtol, opts: SolverOptions,
                  merit_log: list):
    """Two-metric projected Newton on cached dense Hessian models.

    Free variables take the exact Newton step when the exact model is
    positive definite, else a damped modified-Newton step; active-set
    variables follow the negative gradient; the combined direction is
    globalized by a projected Armijo search.  Models and Cholesky
    factors are cached for a few iterations since their assembly and
    factorization dominate the step cost.
    """
    y = np.clip(y0, lo, hi)
    f, g, d, J = merit.value_grad(y)
    merit_log.append(f)
    n_iter = 0
    status = "maxiter"
    models = None
    model_age = 0
    refresh = True
    exact_failed = False
    factor_cache = {}  # (model flavor, free-set key) -> cholesky factor
    for n_iter in range(1, opts.inner_maxiter + 1):
        pg = _projected_gradient(y, g, lo, hi)
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
            p = None
            if not exact_failed:
                factor = factor_cache.get(("exact", key))
                if factor is None:
                    try:
                        factor = cho_factor(
                            models[0][np.ix_(free_idx, free_idx)],
                            lower=True, check_finite=False)
                        factor_cache[("exact", key)] = factor
                    except LinAlgError:
                        exact_failed = True
                if factor is not None:
                    p = cho_solve(factor, -g_free, check_finite=False)
            if p is None:
                factor = factor_cache.get(("modified", key))
                if factor is None:
                    H_gn = models[1][np.ix_(free_idx, free_idx)]
                    diag_mean = max(float(np.trace(H_gn)) / free_idx.size, 1e-12)
                    tau = 1e-8 * diag_mean
                    for _ in range(40):
                        try:
                            factor = cho_factor(H_gn + tau * np.eye(free_idx.size),
                                                lower=True, check_finite=False)
                            factor_cache[("modified", key)] = factor
                            break
                        except LinAlgError:
                            tau *= 100.0
                p = (cho_solve(factor, -g_free, check_finite=False)
                     if factor is not None else -g_free)
            cap = 10.0 * max(1.0, float(np.max(np.abs(y))))
            p_norm = float(np.max(np.abs(p), initial=0.0))
            if p_norm > cap:
                p = p * (cap / p_norm)
            direction[free_idx] = p
        direction[active] = -g[active]

        if float(direction @ g) >= 0.0:
            direction = -pg  # safeguard

        accepted = _line_search(merit, y, f, g, direction, lo, hi, opts)
        if accepted is None:
            status = "linesearch"
            break
        alpha, y_trial = accepted
        model_age += 1
        if alpha < 0.25:
            refresh = True  # model mistrusted: rebuild at the new point
        y = y_trial
        f, g, d, J = merit.value_grad(y)
        merit_log.append(f)
    return y, f, g, n_iter, status


class _Polisher:
    """Active-set Newton on the KKT system, used to certify optimality
    once the augmented-Lagrangian phase is near-feasible.

    Inequality rows whose Jacobian has a single nonzero duplicate a
    variable bound; they are absorbed into the variable box and their
    multipliers stay zero (bound activity is measured by gradient
    projection).  The remaining rows (defects, boundary conditions,
    consumption caps, epigraph rows) enter the square KKT system, which
    converges quadratically from the ballpark the outer loop provides.
    Its steps backtrack on the KKT residual norm; as in the line search,
    a trial point outside the model's domain is a rejected step.
    """

    def __init__(self, problem: NlpProblem, rows: _Rows, y_lo, y_hi,
                 opts: SolverOptions):
        self.p = problem
        self.rows = rows
        self.opts = opts
        self.s = problem.x_scale
        self.y_lo, self.y_hi = y_lo, y_hi
        self.reg = 1e-11

    def _hessian(self, w, lam):
        p = self.p
        eq_mult = lam[:p.n_eq] / p.eq_scale if p.n_eq else np.zeros(0)
        ineq_mult = lam[p.n_eq:] / p.ineq_scale if p.n_ineq else np.zeros(0)
        H = p.lagrangian_hessian(w, 1.0 / p.f_scale, eq_mult, ineq_mult)
        H *= self.rows.scale_outer
        return H

    def run(self, y0: np.ndarray, lam0: np.ndarray, max_steps: int = 15,
            rounds: int = 3):
        """Return (y, lam, feas, opt) of a certified point, or None.

        Each round freezes the active and fixed-variable sets at the
        current point and runs globalized Newton on the reduced KKT
        system; if the sets were misjudged the next round re-detects
        them at the best point reached.
        """
        y, lam = y0.copy(), lam0.copy()
        for _ in range(rounds):
            out = self._one_round(y, lam, max_steps)
            if out is None:
                return None
            y, lam, feas, opt, certified = out
            if certified:
                return y, lam, feas, opt
        return None

    def _one_round(self, y0: np.ndarray, lam0: np.ndarray, max_steps: int):
        p, rows, opts = self.p, self.rows, self.opts
        y = y0.copy()
        lam = lam0.copy()
        m = rows.m
        n = y.size

        w = y * self.s
        c = rows.values(w)
        J = rows.jacobian(w)
        Jy = J * self.s[None, :] if m else np.zeros((0, n))

        # bound-duplicate rows tighten the variable box; their
        # multipliers stay zero (bound activity is handled by projection)
        simple = np.zeros(m, dtype=bool)
        eff_lo, eff_hi = self.y_lo.copy(), self.y_hi.copy()
        nnz = (np.abs(Jy) > 0.0).sum(axis=1) if m else np.zeros(0, dtype=int)
        for i in np.flatnonzero((nnz == 1) & (np.arange(m) >= p.n_eq)):
            simple[i] = True
            j = int(np.argmax(np.abs(Jy[i])))
            a = Jy[i, j]
            off = c[i] - a * y[j]
            b1 = (rows.lo[i] - off) / a
            b2 = (rows.hi[i] - off) / a
            lo_j, hi_j = (b1, b2) if a > 0 else (b2, b1)
            eff_lo[j] = max(eff_lo[j], lo_j)
            eff_hi[j] = min(eff_hi[j], hi_j)

        g = self.s * (p.objective_gradient(w) / p.f_scale)
        g_lagr = g + Jy.T @ lam if m else g
        band = 1e-5
        at_lo = y <= eff_lo + band
        at_hi = y >= eff_hi - band
        fixed = (at_lo & (g_lagr > 0.0)) | (at_hi & (g_lagr < 0.0))
        y = y.copy()
        y[fixed & at_lo] = eff_lo[fixed & at_lo]
        y[fixed & at_hi] = eff_hi[fixed & at_hi]
        free_idx = np.flatnonzero(~fixed)
        if free_idx.size == 0:
            return None

        act_rows = np.zeros(m, dtype=bool)
        act_rows[:p.n_eq] = True
        target = np.zeros(m)
        for i in range(p.n_eq, m):
            if simple[i]:
                continue
            if np.isfinite(rows.hi[i]) and (
                    c[i] >= rows.hi[i] - 1e-5 * (1 + abs(rows.hi[i])) or lam[i] > 0):
                act_rows[i] = True
                target[i] = rows.hi[i]
            elif np.isfinite(rows.lo[i]) and (
                    c[i] <= rows.lo[i] + 1e-5 * (1 + abs(rows.lo[i])) or lam[i] < 0):
                act_rows[i] = True
                target[i] = rows.lo[i]
        act_idx = np.flatnonzero(act_rows)
        lam = np.where(act_rows, lam, 0.0)
        nf, na = free_idx.size, act_idx.size

        def residual(y_, lam_):
            w_ = y_ * self.s
            c_ = rows.values(w_)
            J_ = rows.jacobian(w_) * self.s[None, :] if m else None
            g_ = self.s * (p.objective_gradient(w_) / p.f_scale)
            gl = g_ + J_.T @ lam_ if m else g_
            parts = [gl[free_idx]]
            if na:
                parts.append(c_[act_idx] - target[act_idx])
            r = np.concatenate(parts)
            return r, c_, J_, gl

        r, c, Jy, g_lagr = residual(y, lam)
        r_norm = float(np.linalg.norm(r))
        for _ in range(max_steps):
            H = self._hessian(y * self.s, lam)
            K = np.zeros((nf + na, nf + na))
            K[:nf, :nf] = H[np.ix_(free_idx, free_idx)] + self.reg * np.eye(nf)
            if na:
                Ja = Jy[np.ix_(act_idx, free_idx)]
                K[:nf, nf:] = Ja.T
                K[nf:, :nf] = Ja
                K[nf:, nf:] = -self.reg * np.eye(na)
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
                y_t = np.clip(y_t, eff_lo, eff_hi)
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

            feas, opt = kkt_residuals(p, y * self.s, lam[:p.n_eq], lam[p.n_eq:])
            if feas <= opts.feasibility_tol and opt <= opts.optimality_tol:
                # reject sign-inconsistent multipliers on one-sided rows
                ok = True
                for i in act_idx[act_idx >= p.n_eq]:
                    if rows.hi[i] != rows.lo[i]:
                        if target[i] == rows.hi[i] and lam[i] < -opts.optimality_tol:
                            ok = False
                        if target[i] == rows.lo[i] and lam[i] > opts.optimality_tol:
                            ok = False
                if ok:
                    return y, lam, feas, opt, True
        # not certified: hand the best point to the next detection round
        feas, opt = kkt_residuals(p, y * self.s, lam[:p.n_eq], lam[p.n_eq:])
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
    infeasibility at the penalty cap the status is "infeasible"; on
    exhausted budgets the best point found is returned with status
    "iteration-limit".  Raises ValueError when the problem has no
    `lagrangian_hessian`.
    """
    opts = opts or SolverOptions()
    p = problem
    if p.lagrangian_hessian is None:
        raise ValueError("solve requires NlpProblem.lagrangian_hessian")
    t_start = time.perf_counter()
    rows = _Rows(p)
    s = p.x_scale
    y_lo, y_hi = p.lower / s, p.upper / s
    y = np.clip(np.asarray(w0, dtype=float) / s, y_lo, y_hi)

    lam = np.zeros(rows.m)
    if warm_eq_multipliers is not None and p.n_eq:
        lam[:p.n_eq] = np.asarray(warm_eq_multipliers, dtype=float)
    if warm_ineq_multipliers is not None and p.n_ineq:
        lam[p.n_eq:] = np.asarray(warm_ineq_multipliers, dtype=float)
    rho = float(opts.initial_penalty)
    # first subproblems stay loose regardless of the starting penalty
    omega = max(min(0.1, 1.0 / rho), min(0.01, 10.0 * opts.optimality_tol))
    eta = max(min(0.5, rho ** -0.1), 0.5 * opts.feasibility_tol)

    def evaluate(y_vec: np.ndarray):
        """feasibility, optimality with the first-order multiplier estimate."""
        w = y_vec * s
        c = rows.values(w)
        d = c - np.clip(c + lam / rho, rows.lo, rows.hi)
        lam_trial = np.clip(lam + rho * d, -_MULTIPLIER_CAP, _MULTIPLIER_CAP)
        return (rows.violation(c), _first_order_error(p, rows, w, y_vec, lam_trial, c),
                lam_trial, float(p.objective(w)))

    def certify(y_at, lam_at, outer, y_prev, tag) -> bool:
        """Newton polish from (y_at, lam_at); on success the polished point,
        logged against y_prev (None logs a zero step), becomes the optimum."""
        nonlocal y, lam, feas, opt, f_val, status
        polished = _Polisher(p, rows, y_lo, y_hi, opts).run(y_at, lam_at)
        if polished is None:
            return False
        y, lam, feas, opt = polished
        f_val = float(p.objective(y * s))
        step = 0.0 if y_prev is None else float(np.max(np.abs(y - y_prev), initial=0.0))
        log.append(IterationRecord(outer, f_val, feas, opt, rho, 0, step))
        if opts.verbose:
            print(log[-1].format() + f" [{tag}]")
        status = "optimal"
        return True

    status = "iteration-limit"
    message = ""
    total_inner = 0
    log: list[IterationRecord] = []
    merit_histories: list[list[float]] = []
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
            if certify(y, lam.copy(), 0, None, "warm polish"):
                max_outer = 0

        for outer in range(1, max_outer + 1):
            merit = _Merit(p, rows, lam, rho, trials)
            merit_log: list[float] = []
            gtol = max(omega, 0.05 * opts.optimality_tol)
            y_prev = y
            y, _, _, nit, inner_status = _inner_newton(
                merit, y, y_lo, y_hi, gtol, opts, merit_log)
            total_inner += nit
            merit_histories.append(merit_log)

            feas, opt, lam_trial, f_val = evaluate(y)
            step = float(np.max(np.abs(y - y_prev), initial=0.0))
            log.append(IterationRecord(outer, f_val, feas, opt, rho, nit, step))
            if opts.verbose:
                print(log[-1].format() + f" [{inner_status}]")

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
            if (rho >= opts.penalty_max and feas > 1e3 * opts.feasibility_tol
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
                rho = min(rho * opts.penalty_factor, opts.penalty_max)
                eta = max(min(0.5, rho ** -0.1), 0.5 * opts.feasibility_tol)
                omega = max(min(0.1, 1.0 / rho), 0.05 * opts.optimality_tol,
                            0.2 * omega)

            if total_inner >= opts.max_inner_total:
                status = "iteration-limit"
                message = "inner iteration budget exhausted"
                break
    except (ValueError, ArithmeticError, FloatingPointError) as exc:
        status = "error"
        message = f"callback failure: {exc}"

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
        merit_histories=merit_histories,
        trial_points=trials["points"],
        trial_batches=trials["batches"],
    )
    return w, report

