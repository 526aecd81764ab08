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
    _MAX_LINE_SEARCH,
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


def circle_with_domain():
    """`circle_problem` whose model raises beyond w0 = -3, for any point of a stack."""
    problem = circle_problem()
    objective = problem.objective

    def f(w):
        if np.any(w[..., 0] < -3.0):
            raise DomainError("w beyond the model domain")
        return objective(w)

    problem.objective = f
    return problem


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

    @pytest.mark.parametrize("eq_shift, ineq_shift", [(-1, 1), (1, -1), (1, 0), (0, -1)])
    def test_misaligned_multipliers_are_rejected(self, eq_shift, ineq_shift):
        # the right total, split at the wrong row, is as wrong as a short vector
        scn = default_scenario(n_intervals=4)
        prob = assemble(scn)
        w = initial_guess(scn)
        n_eq, n_ineq = prob.n_eq + eq_shift, prob.n_ineq + ineq_shift
        name, given, expected = (("eq_multipliers", n_eq, prob.n_eq) if eq_shift
                                 else ("ineq_multipliers", n_ineq, prob.n_ineq))
        with pytest.raises(ValueError, match=rf"{name} has shape \({given},\), "
                                             rf"expected \({expected},\)"):
            kkt_residuals(prob, w, np.zeros(n_eq), np.zeros(n_ineq))


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

    def test_merit_non_increasing_within_each_subproblem(self, monkeypatch):
        # the merit at each subproblem's start and at every accepted step
        histories = {}
        value_grad = _Merit.value_grad

        def recorded(merit, y, scored=None):
            out = value_grad(merit, y, scored)
            histories.setdefault(merit, []).append(out[0])  # keeps each merit alive
            return out

        monkeypatch.setattr(_Merit, "value_grad", recorded)
        solve(circle_problem(), np.array([2.0, 1.0]))
        assert histories
        for hist in histories.values():
            for a, b in zip(hist, hist[1:]):
                assert b <= a + 1e-8 * max(1.0, abs(a))

    def test_contradictory_rows_end_infeasible(self):
        # w = 0 and w = 1: at the penalty cap the violation stays at 0.5,
        # so the fourth penalty iteration without progress ends the solve
        problem = NlpProblem(
            n_vars=1,
            objective=lambda w: w[..., 0] ** 2,
            objective_gradient=lambda w: 2.0 * w,
            n_eq=2,
            equalities=lambda w: np.stack([w[..., 0], w[..., 0] - 1.0], axis=-1),
            equalities_jacobian=lambda w: np.array([[1.0], [1.0]]),
            lagrangian_hessian=constant_hessian([[2.0]]),
        )
        _, rep = solve(problem, np.array([3.0]),
                       SolverOptions(initial_penalty=nlp_solver._PENALTY_MAX))
        assert (rep.status, rep.message) == ("infeasible",
                                             "feasibility stagnated at the penalty cap")
        assert rep.outer_iterations == 4
        assert rep.feasibility_error == pytest.approx(0.5, rel=1e-6)

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
        # every line says why its subproblem or polish stopped
        reasons = {"converged", "maxiter", "linesearch", "polish", "warm-polish"}
        for record in rep.iteration_log:
            fields = dict(item.split("=") for item in record.format().split())
            assert fields["stop"] in reasons

    def test_iteration_limit_status(self):
        opts = SolverOptions(max_outer=1, inner_maxiter=1)
        _, rep = solve(rosenbrock_line(), np.array([-1.5, 2.0]), opts)
        assert rep.status == "iteration-limit"
        assert rep.message == "outer iteration budget exhausted"

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

    @pytest.mark.parametrize("w0, warm, name", [
        (3.0, None, "w0"),
        (np.array([-1.0, -0.5, 0.0]), None, "w0"),
        (np.array([-1.0, -0.5]), {"warm_eq_multipliers": 0.7}, "eq_multipliers"),
        (np.array([-1.0, -0.5]), {"warm_eq_multipliers": np.zeros(0)}, "eq_multipliers"),
        (np.array([-1.0, -0.5]), {"warm_ineq_multipliers": np.zeros(1)}, "ineq_multipliers"),
    ], ids=["scalar-w0", "long-w0", "scalar-eq", "short-eq", "long-ineq"])
    def test_start_of_the_wrong_shape_is_rejected(self, w0, warm, name):
        # a scalar would broadcast to a constant start or fill every row
        with pytest.raises(ValueError, match=f"^{name} has shape"):
            solve(circle_problem(), w0, **(warm or {}))

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
        for setting in ({"feasibility_tol": 0.0}, {"optimality_tol": float("nan")},
                        {"initial_penalty": 0.0}, {"initial_penalty": -1.0},
                        {"initial_penalty": float("inf")}, {"initial_penalty": float("nan")},
                        {"max_outer": 0}, {"inner_maxiter": 0}):
            with pytest.raises(ValueError):
                SolverOptions(**setting)


def sequential_line_search(merit, y, f, g, direction, lo, hi, max_trials):
    """Reference: projected Armijo backtracking one trial point at a time."""
    alpha = 1.0
    for _ in range(max_trials):
        y_trial = np.clip(y + alpha * direction, lo, hi)
        step = y_trial - y
        decrease = float(g @ step)
        try:
            f_trial = merit.value(y_trial)[0]
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
        batched = _line_search(merit, y, f, g, direction, lo, hi)
        reference = sequential_line_search(_Merit(problem, rows, lam, 10.0, Counter()),
                                           y, f, g, direction, lo, hi, _MAX_LINE_SEARCH)
        return batched, reference, dict(merit.trials)

    @staticmethod
    def assert_same(batched, reference):
        alpha, y_trial, _ = batched
        assert alpha == reference[0]
        assert y_trial.tobytes() == reference[1].tobytes()

    def test_accepted_trial_in_the_second_batch(self):
        # along -10 g the search accepts alpha = 2**-9; this direction is
        # 2**7 times longer, so it accepts index 16, the second batch's first
        batched, reference, trials = self.search(
            circle_problem(), [2.0, 1.0], lambda g: -1280.0 * g, np.array([0.3]))
        self.assert_same(batched, reference)
        assert batched[0] == 0.5 ** 16 == 0.5 ** _TRIAL_BATCH
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
            one_by_one = np.array([merit.value(y_k)[0] for y_k in Y])
            assert merit.value(Y)[0].tobytes() == one_by_one.tobytes()

    @pytest.mark.parametrize("case", ["stacked", "one-at-a-time"])
    def test_accepted_trial_brings_its_fresh_values(self, case):
        # value_grad reuses the accepted trial's objective and scaled rows
        # in place of scoring the point again; they must be its one-point
        # values, from the stacked call or from the one-at-a-time fallback
        if case == "stacked":
            scn = default_scenario(n_intervals=6)
            problem = assemble(scn)
            lam = np.random.default_rng(4).normal(size=problem.n_eq + problem.n_ineq) * 0.1
            y, direction = initial_guess(scn) / problem.x_scale, lambda g: -1e-3 * g
        else:
            problem = circle_with_domain()
            lam, y, direction = np.array([0.3]), [2.0, 1.0], lambda g: np.array([-9.0, 0.0])
        batched, reference, trials = self.search(problem, y, direction, lam)
        self.assert_same(batched, reference)
        if case == "one-at-a-time":
            # alpha = 1 leaves the domain; the third trial is accepted
            assert (batched[0], trials) == (0.25, {"batches": 4, "points": _TRIAL_BATCH + 3})
        _, y_trial, (objective, rows) = batched
        w = y_trial * problem.x_scale
        assert np.float64(objective).tobytes() == \
            np.float64(problem.objective(w) / problem.f_scale).tobytes()
        assert rows.tobytes() == _Rows(problem).values(w).tobytes()
        merit = _Merit(problem, _Rows(problem), lam, 10.0, Counter())
        reused, fresh = merit.value_grad(y_trial, (objective, rows)), merit.value_grad(y_trial)
        for a, b in zip(reused, fresh):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

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

    def test_cholesky_has_the_bits_of_scipys(self):
        # cho_factor and cho_solve call LAPACK directly, as SciPy's do
        from scipy import linalg
        rng = np.random.default_rng(7)
        for n in (1, 6, 40):
            A = rng.normal(size=(n, n))
            M = A @ A.T + n * np.eye(n)
            idx = np.sort(rng.choice(n, max(1, n // 2), replace=False))
            for H in (M, M[np.ix_(idx, idx)]):
                b = rng.normal(size=H.shape[0])
                c, lower = nlp_solver.cho_factor(H)
                c_ref, lower_ref = linalg.cho_factor(H, lower=True, check_finite=False)
                assert lower is lower_ref is True
                assert (c.shape, c.strides) == (c_ref.shape, c_ref.strides)
                assert c.tobytes() == c_ref.tobytes()
                x = nlp_solver.cho_solve((c, lower), b)
                x_ref = linalg.cho_solve((c_ref, lower_ref), b, check_finite=False)
                assert x.tobytes() == x_ref.tobytes()

    def test_lu_has_the_bits_of_scipys(self):
        # lu_factor and lu_solve call LAPACK directly, as SciPy's do
        from scipy import linalg
        rng = np.random.default_rng(11)
        for n in (1, 6, 40):
            A = rng.normal(size=(n, n))
            idx = np.sort(rng.choice(n, max(1, n // 2), replace=False))
            for K in (A, A[np.ix_(idx, idx)]):
                b = rng.normal(size=K.shape[0])
                lu, piv = nlp_solver.lu_factor(K)
                lu_ref, piv_ref = linalg.lu_factor(K, check_finite=False)
                assert (lu.shape, lu.strides) == (lu_ref.shape, lu_ref.strides)
                assert lu.tobytes() == lu_ref.tobytes()
                assert piv.dtype == piv_ref.dtype and piv.tobytes() == piv_ref.tobytes()
                x = nlp_solver.lu_solve((lu, piv), b)
                x_ref = linalg.lu_solve((lu_ref, piv_ref), b, check_finite=False)
                assert x.tobytes() == x_ref.tobytes()

    def test_singular_lu_solve_is_rejected_by_the_polish(self, monkeypatch):
        # an exactly singular matrix factorises without an error, and its
        # solution is not finite; the polish round then gives up
        singular = np.array([[1.0, 2.0], [2.0, 4.0]])
        x = nlp_solver.lu_solve(nlp_solver.lu_factor(singular), np.array([1.0, 1.0]))
        assert not np.all(np.isfinite(x))

        prob = circle_problem()
        rows = _Rows(prob)
        start = (prob, rows, prob.lower, prob.upper, SolverOptions(),
                 np.array([-0.8, -0.6]), np.array([0.7]))
        assert nlp_solver._polish_round(*start) is not None
        factor = nlp_solver.lu_factor
        monkeypatch.setattr(nlp_solver, "lu_factor", lambda K: factor(np.zeros_like(K)))
        assert nlp_solver._polish_round(*start) is None

    def test_cholesky_of_an_indefinite_matrix_raises_numpys_error(self):
        # the error the solver catches, and the benchmark's tracer counts
        with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
            nlp_solver.cho_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


SCIPY_PROBE = """
import json, sys, threading
import numpy as np
import noisedescent, noisedescent.cli
from noisedescent.nlp_solver import NlpProblem, solve
from noisedescent.scenarios import default_scenario, initial_guess
from noisedescent.transcription import assemble
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
                or m in ("concurrent.futures", "logging"))
threads = [threading.active_count()]
# the N=100 exact Hessian, the largest complex-step stacks of a model build
scn = default_scenario(n_intervals=100)
big = assemble(scn)
big.lagrangian_hessian(initial_guess(scn), 1.0, np.full(big.n_eq, 0.1), np.zeros(big.n_ineq))
threads.append(threading.active_count())
futures_after_hessian = "concurrent.futures" in sys.modules
problem = NlpProblem(
    n_vars=1, objective=lambda w: (w[..., 0] - 3.0) ** 2,
    objective_gradient=lambda w: np.array([2.0 * (w[0] - 3.0)]),
    lower=np.array([0.0]), upper=np.array([2.0]),
    lagrangian_hessian=lambda w, s, e, i, convexify=False: np.array([[2.0 * s]]))
w, report = solve(problem, np.array([0.5]))
threads.append(threading.active_count())
print(json.dumps([loaded, report.status, "scipy.linalg" in sys.modules,
                  "scipy.linalg._flapack" in sys.modules, threads, futures_after_hessian]))
"""


def test_importing_the_package_loads_no_scipy():
    # SciPy's LAPACK module loads on the first factorisation, not with the
    # package, and the scipy.linalg package never loads; concurrent.futures,
    # which loads logging, loads on a sweep's first worker pool.  No thread
    # runs after import, after an N=100 exact Hessian, or after a solve.
    src = str(Path(nlp_solver.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=120, check=True)
    loaded, status, linalg_after_solve, lapack_after_solve, threads, futures_after_hessian = (
        json.loads(out.stdout.splitlines()[-1]))
    assert loaded == []
    assert status == "optimal"
    assert not linalg_after_solve
    assert lapack_after_solve
    assert threads == [1, 1, 1]
    assert not futures_after_hessian
