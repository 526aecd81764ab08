"""Solver unit suite: the three reference problems, KKT bookkeeping,
determinism, merit monotonicity, feasibility restoration, the batched
line search, and the factorisations, which the solver looks up by name
and which load SciPy on first use.

Every problem handed to `solve` carries its exact Lagrangian Hessian;
`psd_floor` gives the convexified model the solver asks for when the
exact one is indefinite.  Value callbacks broadcast over a leading axis,
as the stacked-point contract of `NlpProblem` asks.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from noisedescent import nlp_solver
from noisedescent.errors import DomainError
from noisedescent.scenarios import VARIANTS, default_scenario, initial_guess
from noisedescent.transcription import assemble
from noisedescent.nlp_solver import (
    _ARMIJO_SIGMA,
    _TRIAL_BATCH,
    NlpProblem,
    SolverOptions,
    _line_search,
    _Merit,
    _Rows,
    kkt_residuals,
    solve,
)


def psd_floor(H):
    """H with its spectrum floored at zero."""
    vals, vecs = np.linalg.eigh(H)
    return (vecs * np.maximum(vals, 0.0)) @ vecs.T


def constant_hessian(H):
    """Lagrangian Hessian callback of a quadratic objective under linear rows."""
    H = np.asarray(H, dtype=float)

    def hess(w, sigma_f, eq_mult, ineq_mult, convexify=False):
        return sigma_f * H

    return hess


def bound_quadratic():
    """min (w-3)^2 on [0, 2]: optimum pinned at the upper bound."""
    return NlpProblem(
        n_vars=1,
        objective=lambda w: (w[..., 0] - 3.0) ** 2,
        objective_gradient=lambda w: np.array([2.0 * (w[0] - 3.0)]),
        lower=np.array([0.0]),
        upper=np.array([2.0]),
        lagrangian_hessian=constant_hessian([[2.0]]),
    )


def circle_problem():
    """min w1 + w2 on the unit circle: optimum (-sqrt(1/2), -sqrt(1/2))."""

    def hess(w, sigma_f, eq_mult, ineq_mult, convexify=False):
        H = 2.0 * eq_mult[0] * np.eye(2)
        return psd_floor(H) if convexify else H

    return NlpProblem(
        n_vars=2,
        objective=lambda w: w[..., 0] + w[..., 1],
        objective_gradient=lambda w: np.array([1.0, 1.0]),
        n_eq=1,
        equalities=lambda w: w[..., :1] ** 2 + w[..., 1:] ** 2 - 1.0,
        equalities_jacobian=lambda w: np.array([[2.0 * w[0], 2.0 * w[1]]]),
        lagrangian_hessian=hess,
    )


def rosenbrock_line():
    """Rosenbrock restricted to w1 + w2 = 1."""

    def f(w):
        return (1.0 - w[..., 0]) ** 2 + 100.0 * (w[..., 1] - w[..., 0] ** 2) ** 2

    def g(w):
        return np.array([
            -2.0 * (1.0 - w[0]) - 400.0 * w[0] * (w[1] - w[0] ** 2),
            200.0 * (w[1] - w[0] ** 2),
        ])

    def hess(w, sigma_f, eq_mult, ineq_mult, convexify=False):
        H = sigma_f * np.array([
            [2.0 - 400.0 * w[1] + 1200.0 * w[0] ** 2, -400.0 * w[0]],
            [-400.0 * w[0], 200.0],
        ])
        return psd_floor(H) if convexify else H

    return NlpProblem(
        n_vars=2, objective=f, objective_gradient=g,
        n_eq=1,
        equalities=lambda w: w[..., :1] + w[..., 1:] - 1.0,
        equalities_jacobian=lambda w: np.array([[1.0, 1.0]]),
        lagrangian_hessian=hess,
    )


def check_domain(w):
    """The toy model's domain ends at w0 = 5, for any point of a stack."""
    if np.any(w[..., 0] > 5.0):
        raise DomainError("w beyond the model domain")


def exp_minus_linear():
    """min exp(w) - 2w, whose model raises beyond w = 5: optimum ln 2."""

    def f(w):
        check_domain(w)
        return np.exp(w[..., 0]) - 2.0 * w[..., 0]

    def g(w):
        check_domain(w)
        return np.array([np.exp(w[0]) - 2.0])

    def hess(w, sigma_f, eq_mult, ineq_mult, convexify=False):
        return np.array([[sigma_f * np.exp(w[0])]])

    return NlpProblem(n_vars=1, objective=f, objective_gradient=g,
                      lagrangian_hessian=hess)


def grid_refinement_minimum():
    """Brute-force reference for the constrained Rosenbrock: substitute
    w2 = 1 - w1 and refine a 1-d grid."""
    lo, hi = -2.0, 2.0
    x_best = None
    for _ in range(12):
        xs = np.linspace(lo, hi, 2001)
        vals = (1.0 - xs) ** 2 + 100.0 * (1.0 - xs - xs ** 2) ** 2
        i = int(np.argmin(vals))
        x_best = xs[i]
        span = (hi - lo) / 2000.0
        lo, hi = x_best - 2.0 * span, x_best + 2.0 * span
    return np.array([x_best, 1.0 - x_best])


class TestToyProblems:
    def test_bound_active_quadratic(self):
        w, rep = solve(bound_quadratic(), np.array([0.5]))
        assert rep.status == "optimal"
        assert w[0] == pytest.approx(2.0, abs=1e-9)
        assert rep.feasibility_error <= 1e-6
        assert rep.optimality_error <= 1e-6

    def test_linear_on_circle_closed_form(self):
        w, rep = solve(circle_problem(), np.array([-1.0, -0.5]))
        assert rep.status == "optimal"
        assert np.abs(w + np.sqrt(0.5)).max() < 1e-6
        assert rep.feasibility_error <= 1e-6
        assert rep.optimality_error <= 1e-6

    def test_rosenbrock_with_equality_matches_grid_oracle(self):
        w, rep = solve(rosenbrock_line(), np.array([0.5, 0.5]))
        assert rep.status == "optimal"
        assert rep.feasibility_error <= 1e-6
        assert rep.optimality_error <= 1e-6
        ref = grid_refinement_minimum()
        assert np.abs(w - ref).max() < 1e-4

    def test_two_sided_inequality(self):
        # min (w0-4)^2 + w1^2 subject to 1 <= w0 + w1 <= 2
        prob = NlpProblem(
            n_vars=2,
            objective=lambda w: (w[..., 0] - 4.0) ** 2 + w[..., 1] ** 2,
            objective_gradient=lambda w: np.array([2.0 * (w[0] - 4.0), 2.0 * w[1]]),
            n_ineq=1,
            inequalities=lambda w: w[..., :1] + w[..., 1:],
            inequalities_jacobian=lambda w: np.array([[1.0, 1.0]]),
            ineq_lower=np.array([1.0]),
            ineq_upper=np.array([2.0]),
            lagrangian_hessian=constant_hessian(2.0 * np.eye(2)),
        )
        w, rep = solve(prob, np.array([0.0, 0.0]))
        assert rep.status == "optimal"
        # KKT: optimum on the upper edge at (3, -1)... projection of (4, 0)
        assert np.allclose(w, [3.0, -1.0], atol=1e-5)


class TestKktResiduals:
    def test_unconstrained_minimum_is_clean(self):
        prob = NlpProblem(
            n_vars=2,
            objective=lambda w: np.vecdot(w, w),
            objective_gradient=lambda w: 2.0 * w,
        )
        feas, opt = kkt_residuals(prob, np.zeros(2))
        assert feas == 0.0
        assert opt == 0.0

    def test_feasible_point_with_wrong_multipliers(self):
        prob = circle_problem()
        w = np.array([-np.sqrt(0.5), -np.sqrt(0.5)])
        feas, opt = kkt_residuals(prob, w, eq_multipliers=np.array([5.0]))
        assert feas < 1e-12
        assert opt > 0.1

    def test_solver_output_passes_independent_recheck(self):
        for prob, w0 in ((circle_problem(), np.array([-1.0, -0.5])),
                         (rosenbrock_line(), np.array([0.5, 0.5]))):
            w, rep = solve(prob, w0)
            assert rep.status == "optimal"
            feas, opt = kkt_residuals(prob, w, rep.eq_multipliers,
                                      rep.ineq_multipliers)
            assert feas == pytest.approx(rep.feasibility_error, abs=1e-12)
            assert opt == pytest.approx(rep.optimality_error, abs=1e-12)
            assert feas <= 1e-6 and opt <= 1e-6

    def test_scaled_rows_drive_the_metric(self):
        # a huge row scale makes a large violation look small, as declared
        prob = NlpProblem(
            n_vars=1,
            objective=lambda w: w[..., 0] ** 2,
            objective_gradient=lambda w: np.array([2.0 * w[0]]),
            n_eq=1,
            equalities=lambda w: w[..., :1] - 1000.0,
            equalities_jacobian=lambda w: np.array([[1.0]]),
            eq_scale=np.array([1000.0]),
        )
        feas, _ = kkt_residuals(prob, np.array([0.0]))
        assert feas == pytest.approx(1.0)


def stacked_jacobian_reference(problem, w):
    """The scaled rows' Jacobian as np.vstack of the parts over the row scales."""
    parts = [np.asarray(jac(w), dtype=float)
             for rows, jac in ((problem.n_eq, problem.equalities_jacobian),
                               (problem.n_ineq, problem.inequalities_jacobian)) if rows]
    if not parts:
        return np.zeros((0, problem.n_vars))
    return np.vstack(parts) / _Rows(problem).scale[:, None]


def inequality_only_problem():
    """Two scaled inequality rows, one Jacobian entry a negative zero."""
    return NlpProblem(
        n_vars=2,
        objective=lambda w: np.vecdot(w, w),
        objective_gradient=lambda w: 2.0 * w,
        n_ineq=2,
        inequalities=lambda w: np.stack([w[..., 0] + w[..., 1], -w[..., 1]], axis=-1),
        inequalities_jacobian=lambda w: np.array([[1.0, 1.0], [-0.0, -1.0]]),
        ineq_lower=np.array([1.0, -np.inf]),
        ineq_upper=np.array([2.0, 0.0]),
        ineq_scale=np.array([3.0, 7.0]),
    )


class TestStackedJacobian:
    """`_Rows.jacobian` divides each part into one array in place; it must
    keep the bits, signed zeros included, of stacking and then dividing."""

    @pytest.mark.parametrize("case", ["equalities", "inequalities", "unconstrained",
                                      "transcription"])
    def test_matches_vstack_then_divide(self, case):
        if case == "equalities":
            problem = circle_problem()
            problem.eq_scale = np.array([3.0])
            w = np.array([0.3, -0.7])
        elif case == "inequalities":
            problem, w = inequality_only_problem(), np.array([0.3, -0.7])
        elif case == "unconstrained":
            problem, w = bound_quadratic(), np.array([0.5])
        else:
            scn = default_scenario(n_intervals=6)
            problem, w = assemble(scn), initial_guess(scn)
        J = _Rows(problem).jacobian(w)
        reference = stacked_jacobian_reference(problem, w)
        assert J.shape == reference.shape == (problem.n_eq + problem.n_ineq, problem.n_vars)
        assert J.tobytes() == reference.tobytes()
        assert np.array_equal(np.signbit(J), np.signbit(reference))
        if case in ("inequalities", "transcription"):
            assert np.signbit(reference[reference == 0.0]).any()


class TestSolverBehavior:
    def test_deterministic_repeat(self):
        a = solve(rosenbrock_line(), np.array([0.5, 0.5]))
        b = solve(rosenbrock_line(), np.array([0.5, 0.5]))
        assert np.array_equal(a[0], b[0])
        ra, rb = a[1], b[1]
        assert ra.objective == rb.objective
        assert ra.iterations == rb.iterations
        assert ra.feasibility_error == rb.feasibility_error
        assert ra.optimality_error == rb.optimality_error

    def test_merit_non_increasing_within_each_subproblem(self):
        _, rep = solve(circle_problem(), np.array([2.0, 1.0]))
        assert rep.merit_histories
        for hist in rep.merit_histories:
            for a, b in zip(hist, hist[1:]):
                assert b <= a + 1e-8 * max(1.0, abs(a))

    def test_feasibility_restoration_from_infeasible_start(self):
        w, rep = solve(circle_problem(), np.array([4.0, 4.0]))
        assert rep.feasibility_error <= 1e-6
        assert abs(np.hypot(w[0], w[1]) - 1.0) < 1e-5

    def test_iteration_log_is_structured(self):
        _, rep = solve(circle_problem(), np.array([-1.0, -0.5]))
        assert rep.iteration_log
        line = rep.iteration_log[0].format()
        for key in ("iter=", "objective=", "feasibility=", "optimality=", "step="):
            assert key in line

    def test_iteration_limit_status(self):
        opts = SolverOptions(max_outer=1, inner_maxiter=1)
        _, rep = solve(rosenbrock_line(), np.array([-1.5, 2.0]), opts)
        assert rep.status in ("iteration-limit", "optimal")

    def test_callback_error_is_reported(self):
        def bad_obj(w):
            raise ValueError("synthetic failure at node 3")

        prob = NlpProblem(
            n_vars=1,
            objective=bad_obj,
            objective_gradient=lambda w: np.zeros(1),
            lagrangian_hessian=constant_hessian([[0.0]]),
        )
        _, rep = solve(prob, np.array([0.0]))
        assert rep.status == "error"
        assert "node 3" in rep.message

    def test_trial_point_outside_domain_is_a_rejected_step(self):
        # min exp(w) - 2w from w = -3: the first Newton step (capped at 30)
        # lands far past w = 5, where the model raises; backtracking must
        # carry on to the optimum at ln 2
        prob = exp_minus_linear()
        w, rep = solve(prob, np.array([-3.0]))
        assert rep.status == "optimal"
        assert w[0] == pytest.approx(np.log(2.0), abs=1e-6)

    def test_polish_trial_point_outside_domain_is_a_rejected_step(self):
        # w = 0 is the only feasible point of exp(w) = 1.  Seen through the
        # row scale of 100 the start w = -3 is near-feasible with a tiny
        # gradient, so the first subproblem stops at once and the Newton
        # polish runs there.  Its full step of about 19 lands beyond w = 5,
        # where the model raises; backtracking must carry on to w = 0
        def f(w):
            check_domain(w)
            return 1e-3 * w[..., 0]

        def g(w):
            check_domain(w)
            return np.array([1e-3])

        def c(w):
            check_domain(w)
            return np.exp(w[..., :1]) - 1.0

        def jac(w):
            check_domain(w)
            return np.array([[np.exp(w[0])]])

        def hess(w, sigma_f, eq_mult, ineq_mult, convexify=False):
            H = np.array([[eq_mult[0] * np.exp(w[0])]])
            return psd_floor(H) if convexify else H

        prob = NlpProblem(n_vars=1, objective=f, objective_gradient=g,
                          n_eq=1, equalities=c, equalities_jacobian=jac,
                          eq_scale=np.array([100.0]), lagrangian_hessian=hess)
        w, rep = solve(prob, np.array([-3.0]))
        assert rep.status == "optimal"
        assert w[0] == pytest.approx(0.0, abs=1e-6)

    def test_constraint_violation_helper(self):
        assert kkt_residuals(circle_problem(), np.array([2.0, 0.0]))[0] == 3.0

    def test_solve_requires_the_lagrangian_hessian(self):
        prob = NlpProblem(n_vars=1, objective=lambda w: w[..., 0] ** 2,
                          objective_gradient=lambda w: 2.0 * w)
        with pytest.raises(ValueError, match="lagrangian_hessian"):
            solve(prob, np.array([1.0]))

    def test_warm_multipliers_accepted(self):
        prob = circle_problem()
        w1, rep1 = solve(prob, np.array([-1.0, -0.5]))
        w2, rep2 = solve(prob, w1, warm_eq_multipliers=rep1.eq_multipliers)
        assert rep2.status == "optimal"
        assert rep2.iterations <= rep1.iterations

    def test_warm_polish_callback_error_is_reported(self):
        # with warm multipliers the Newton polish runs before any penalty
        # iteration; a callback failure there must end the solve with
        # status "error", not escape it
        def bad_grad(w):
            raise ValueError("synthetic gradient failure in the polish")

        prob = circle_problem()
        prob.objective_gradient = bad_grad
        _, rep = solve(prob, np.array([-0.7, -0.7]), warm_eq_multipliers=np.array([0.7]))
        assert rep.status == "error"
        assert "synthetic gradient failure" in rep.message

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(feasibility_tol=0.0)


def sequential_line_search(merit, y, f, g, direction, lo, hi, max_trials):
    """Reference: projected Armijo backtracking one trial point at a time."""
    alpha = 1.0
    for _ in range(max_trials):
        y_trial = np.clip(y + alpha * direction, lo, hi)
        step = y_trial - y
        decrease = float(g @ step)
        try:
            f_trial = merit.value(y_trial)
        except DomainError:
            f_trial = np.inf
        if (f_trial <= f + _ARMIJO_SIGMA * min(decrease, 0.0)
                and f_trial < f + 1e-16 * abs(f) + 1e-300):
            return alpha, y_trial
        if not np.any(step):
            return None
        alpha *= 0.5
    return None


class TestBatchedLineSearch:
    """The batched search accepts the trial the one-at-a-time search accepts."""

    @staticmethod
    def search(problem, y, direction, lam):
        """(batched result, reference result, trial counts of the batched search)."""
        rows = _Rows(problem)
        y = np.asarray(y, dtype=float)
        lo, hi = problem.lower / problem.x_scale, problem.upper / problem.x_scale
        merit = _Merit(problem, rows, lam, 10.0, Counter())
        f, g, _, _ = merit.value_grad(y)
        direction = direction(g)
        opts = SolverOptions()
        batched = _line_search(merit, y, f, g, direction, lo, hi, opts)
        reference = sequential_line_search(_Merit(problem, rows, lam, 10.0, Counter()),
                                           y, f, g, direction, lo, hi, opts.max_line_search)
        return batched, reference, dict(merit.trials)

    @staticmethod
    def assert_same(batched, reference):
        alpha, y_trial = batched
        assert alpha == reference[0]
        assert y_trial.tobytes() == reference[1].tobytes()

    def test_accepted_trial_in_the_second_batch(self):
        batched, reference, trials = self.search(
            circle_problem(), [2.0, 1.0], lambda g: -10.0 * g, np.array([0.3]))
        self.assert_same(batched, reference)
        assert batched[0] == 0.5 ** 9
        assert trials == {"batches": 2, "points": 2 * _TRIAL_BATCH}

    def test_batch_with_a_point_outside_the_domain(self):
        # alpha = 1 lands on w = 6, past the domain; alpha = 1/2 is accepted
        batched, reference, trials = self.search(
            exp_minus_linear(), [-3.0], lambda g: np.array([9.0]), np.zeros(0))
        self.assert_same(batched, reference)
        assert batched[0] == 0.5
        # the stacked call that raised, then the first two points one at a time
        assert trials == {"batches": 3, "points": _TRIAL_BATCH + 2}

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_transcription_merit_matches_one_at_a_time(self, variant):
        # about 85 rows, so the merit's sums over rows have many terms
        scn = default_scenario(n_intervals=6, variant=variant)
        problem = assemble(scn, fuel_cap=120.0 if variant == "noise_fuel_capped" else None)
        lam = np.random.default_rng(3).normal(size=problem.n_eq + problem.n_ineq) * 0.1
        y = initial_guess(scn) / problem.x_scale
        batched, reference, _ = self.search(problem, y, lambda g: -1e-3 * g, lam)
        self.assert_same(batched, reference)
        # each stacked merit value has the bits of the one-point value; the
        # multiplier term, then the penalty term, dominates the objective
        Y = y + np.outer(0.5 ** np.arange(8), batched[1] - y)
        for lam_rho in ((1e4 * lam, 1e-6), (0.0 * lam, 1e6)):
            merit = _Merit(problem, _Rows(problem), *lam_rho, Counter())
            one_by_one = np.array([merit.value(y_k) for y_k in Y])
            assert merit.value(Y).tobytes() == one_by_one.tobytes()

    def test_zero_projected_step_ends_the_search(self):
        # at the upper bound and pointing out of the box: every trial projects back
        batched, reference, trials = self.search(
            bound_quadratic(), [2.0], lambda g: np.array([1.0]), np.zeros(0))
        assert batched is None and reference is None
        assert trials == {"batches": 1, "points": _TRIAL_BATCH}


FACTORISATIONS = ("cho_factor", "cho_solve", "lu_factor", "lu_solve")


class TestFactorisations:
    def test_looked_up_by_name_on_every_call(self, monkeypatch):
        # the benchmark's tracer counts factorisations through these names;
        # Rosenbrock on its line reaches the polisher, and its first exact
        # merit Hessian is indefinite, so one Cholesky fails
        w_ref, rep_ref = solve(rosenbrock_line(), np.array([0.5, 0.5]))
        calls, failed = Counter(), Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                try:
                    return fn(*args, **kwargs)
                except nlp_solver.LinAlgError:
                    failed[name] += 1
                    raise
            return wrapper

        for name in FACTORISATIONS:
            monkeypatch.setattr(nlp_solver, name, counting(name, getattr(nlp_solver, name)))
        w, rep = solve(rosenbrock_line(), np.array([0.5, 0.5]))

        assert all(calls[name] > 0 for name in FACTORISATIONS), calls
        # the failed Cholesky raised the error the solver catches
        assert failed["cho_factor"] > 0
        assert rep.status == rep_ref.status == "optimal"
        assert w.tobytes() == w_ref.tobytes()
        assert (rep.objective, rep.iterations) == (rep_ref.objective, rep_ref.iterations)


SCIPY_PROBE = """
import json, sys
import numpy as np
import noisedescent, noisedescent.cli
from noisedescent.nlp_solver import NlpProblem, solve
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
problem = NlpProblem(
    n_vars=1, objective=lambda w: (w[..., 0] - 3.0) ** 2,
    objective_gradient=lambda w: np.array([2.0 * (w[0] - 3.0)]),
    lower=np.array([0.0]), upper=np.array([2.0]),
    lagrangian_hessian=lambda w, s, e, i, convexify=False: np.array([[2.0 * s]]))
w, report = solve(problem, np.array([0.5]))
print(json.dumps([loaded, report.status, "scipy.linalg" in sys.modules]))
"""


def test_importing_the_package_loads_no_scipy():
    # SciPy loads on the first factorisation, not with the package
    src = str(Path(nlp_solver.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=120, check=True)
    loaded, status, linalg_after_solve = json.loads(out.stdout.splitlines()[-1])
    assert loaded == []
    assert status == "optimal"
    assert linalg_after_solve
