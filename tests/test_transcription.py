"""Grid, Heun stepping, packing, and NLP assembly checks.

Derivative checks difference the callbacks centrally; defect checks pit
the assembled constraints against plain forward simulation.
"""

import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisedescent import nlp_solver, noise, transcription
from noisedescent.flight_dynamics import IH, IX, IY, AircraftModel
from noisedescent.noise import Observer
from noisedescent.scenarios import VARIANTS, default_scenario, initial_guess
from noisedescent.transcription import (
    _INTERVAL_SCALE,
    _STEP_NONLINEAR,
    Grid,
    VectorLayout,
    assemble,
    heun_step,
    internode_violation,
    simulate,
    trajectory_from_vector,
    _cs_derivative,
    _cs_hessian_blocks,
)

MODEL = AircraftModel()


def small_scenario(n=12, **kw):
    return default_scenario(n_intervals=n, **kw)


def variant_problem(variant, n=6):
    """Small scenario of one variant and its problem: the capped variant gets
    a fuel cap, minimax two observers."""
    scn = small_scenario(n=n)
    if variant != "noise":
        observers = ((Observer(0.0, 0.0), Observer(20000.0, 2500.0))
                     if variant == "minimax" else scn.observers)
        scn = dataclasses.replace(scn, variant=variant, observers=observers)
    cap = 120.0 if variant == "noise_fuel_capped" else None
    return scn, assemble(scn, fuel_cap=cap)


def random_feasible_point(prob, w0, rng, spread=0.01):
    w = w0 + rng.uniform(-1.0, 1.0, w0.shape) * spread * prob.x_scale
    return np.clip(w, prob.lower, prob.upper)


class TestGrid:
    def test_times_are_equidistant(self):
        g = Grid(0.0, 600.0, 100)
        t = g.times()
        assert t[0] == 0.0 and t[-1] == 600.0
        assert np.allclose(np.diff(t), g.h_step)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            Grid(0.0, 10.0, 1)


class TestHeunStep:
    def test_scalar_decay_reference(self):
        # z' = -z, one Heun step of h=0.1 from 1: 1 - h + h^2/2
        got = heun_step(1.0, None, 0.1, lambda z, u: -z)
        assert got == pytest.approx(0.905, rel=1e-15)

    def test_constant_rhs_is_exact(self):
        got = heun_step(2.0, None, 0.25, lambda z, u: 3.0)
        assert got == pytest.approx(2.75, rel=1e-15)

    @pytest.mark.parametrize("h,steps", [(0.2, 5), (0.1, 10), (0.05, 20)])
    def test_order_two_on_linear_decay(self, h, steps):
        z = 1.0
        for _ in range(steps):
            z = heun_step(z, None, h, lambda z, u: -z)
        err = abs(z - math.exp(-1.0))
        assert err < 0.2 * h ** 2

    def test_observed_order_on_linear_decay(self):
        errors = []
        for n in (10, 20, 40):
            z, h = 1.0, 1.0 / n
            for _ in range(n):
                z = heun_step(z, None, h, lambda z, u: -z)
            errors.append(abs(z - math.exp(-1.0)))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_observed_order_on_flight_dynamics(self):
        z0 = np.array([150.0, -0.03, 0.05, 0.0, 0.0, 3000.0])
        controls1 = np.tile([0.05, 0.5, 0.05], (16, 1))
        ref = simulate(z0, np.repeat(controls1, 128, axis=0),
                       Grid(0.0, 160.0, 16 * 128), MODEL).states[-1]
        errors = []
        for mult in (1, 2, 4):
            n = 16 * mult
            traj = simulate(z0, np.repeat(controls1, mult, axis=0),
                            Grid(0.0, 160.0, n), MODEL)
            errors.append(np.linalg.norm((traj.states[-1] - ref) / [100, 1, 1, 1e4, 1e4, 1e3]))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9


class TestLayout:
    @given(n=st.integers(2, 12), epi=st.booleans(), seed=st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_round_trip(self, n, epi, seed):
        rng = np.random.default_rng(seed)
        lay = VectorLayout(n, has_epigraph=epi)
        Z = rng.normal(size=(n + 1, 6)) * 100.0
        U = rng.normal(size=(n, 3))
        theta = float(rng.normal()) if epi else None
        w = lay.pack(Z, U, theta)
        Z2, U2, theta2 = lay.unpack(w)
        assert np.array_equal(Z, Z2)
        assert np.array_equal(U, U2)
        if epi:
            assert theta2 == theta
        assert w.shape == (lay.n_vars,)

    def test_dimension_bookkeeping(self):
        lay = VectorLayout(100)
        assert lay.n_vars == 6 * 101 + 3 * 100
        lay_epi = VectorLayout(100, has_epigraph=True)
        assert lay_epi.n_vars == lay.n_vars + 1
        assert lay_epi.epigraph_index == lay_epi.n_vars - 1

    def test_pack_shape_errors(self):
        lay = VectorLayout(4)
        with pytest.raises(ValueError):
            lay.pack(np.zeros((4, 6)), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            lay.pack(np.zeros((5, 6)), np.zeros((4, 3)), theta=1.0)


class TestAssembly:
    def test_constraint_counts_small_grid(self):
        scn = small_scenario(n=2)
        prob = assemble(scn)
        assert prob.n_eq == 12 + 7
        assert prob.n_ineq == 6 * 3
        assert prob.n_vars == 6 * 3 + 3 * 2

    def test_simulated_trajectory_has_zero_defects(self):
        scn = small_scenario(n=10, tf=120.0)
        grid = scn.grid()
        z0 = np.array([scn.V0, -0.03, 0.08, scn.x0, scn.y0, scn.h0])
        controls = np.tile([0.06, 0.4, 0.0], (10, 1))
        traj = simulate(z0, controls, grid, scn.aircraft)
        w = scn.layout().pack(traj.states, traj.controls)
        prob = assemble(scn)
        defects = prob.equalities(w)[:-7]
        assert np.abs(defects / prob.eq_scale[:-7]).max() < 1e-12

    def test_zero_defects_means_simulation(self):
        # converse direction: any w with zero defects reproduces forward
        # simulation from its own initial state
        scn = small_scenario(n=8, tf=100.0)
        prob = assemble(scn)
        rng = np.random.default_rng(5)
        w = random_feasible_point(prob, initial_guess(scn), rng)
        lay, grid = scn.layout(), scn.grid()
        Z, U, _ = lay.unpack(w)
        sim = simulate(Z[0], U, grid, scn.aircraft)
        w_sim = lay.pack(sim.states, U)
        defects = prob.equalities(w_sim)[:-7]
        assert np.abs(defects / prob.eq_scale[:-7]).max() < 1e-12
        Z2, _, _ = lay.unpack(w_sim)
        assert np.allclose(Z2, sim.states)

    def test_boundary_rows_carry_scenario_values(self):
        scn = small_scenario(n=6)
        prob = assemble(scn)
        lay = scn.layout()
        Z = np.tile([120.0, 0.0, 0.0, 1.0, 2.0, 3.0], (7, 1))
        U = np.tile([0.05, 0.5, 0.0], (6, 1))
        w = lay.pack(Z, U)
        boundary = prob.equalities(w)[-7:]
        want = np.array([1.0 - scn.x0, 2.0 - scn.y0, 3.0 - scn.h0, 120.0 - scn.V0,
                         1.0 - scn.xf, 2.0 - scn.yf, 3.0 - scn.hf])
        assert np.allclose(boundary, want, atol=1e-12)

    def test_infeasible_boundary_rejected_before_solve(self):
        from noisedescent.errors import ScenarioError
        scn = small_scenario(V0=50.0)  # below the speed floor
        with pytest.raises(ScenarioError):
            assemble(scn)

    def test_guess_objective_matches_noise_module(self):
        import noisedescent.noise as noise
        scn = small_scenario(n=10)
        prob = assemble(scn)
        w0 = initial_guess(scn)
        traj = trajectory_from_vector(w0, scn.layout(), scn.grid())
        want = noise.leq(traj, scn.observers[0], scn.engine, scn.atmosphere)
        assert prob.objective(w0) == pytest.approx(want, rel=1e-12)

    def test_guess_is_bound_feasible_with_finite_defects(self):
        scn = small_scenario(n=14)
        prob = assemble(scn)
        w0 = initial_guess(scn)
        assert np.all(w0 >= prob.lower - 1e-12)
        assert np.all(w0 <= prob.upper + 1e-12)
        lay = scn.layout()
        Z, U, _ = lay.unpack(w0)
        assert Z[0, 3] == scn.x0 and Z[0, 4] == scn.y0 and Z[0, 5] == scn.h0
        assert Z[0, 0] == scn.V0
        assert Z[-1, 3] == scn.xf and Z[-1, 4] == scn.yf and Z[-1, 5] == scn.hf
        defects = prob.equalities(w0)
        assert np.all(np.isfinite(defects))
        assert np.abs(defects).max() > 0.0


class TestDerivatives:
    def test_objective_gradient_matches_central_differences(self):
        scn = small_scenario(n=10)
        prob = assemble(scn)
        rng = np.random.default_rng(11)
        w0 = initial_guess(scn)
        worst = 0.0
        for _ in range(3):
            w = random_feasible_point(prob, w0, rng)
            grad = prob.objective_gradient(w)
            fd = np.zeros_like(w)
            for j in range(w.size):
                e = 1e-6 * max(1.0, abs(w[j]))
                wp, wm = w.copy(), w.copy()
                wp[j] += e
                wm[j] -= e
                fd[j] = (prob.objective(wp) - prob.objective(wm)) / (2.0 * e)
            scale = max(np.abs(fd).max(), 1e-10)
            worst = max(worst, np.abs(grad - fd).max() / scale)
        assert worst < 1e-5

    def test_constraint_jacobian_matches_central_differences(self):
        scn = small_scenario(n=8)
        prob = assemble(scn)
        rng = np.random.default_rng(12)
        w = random_feasible_point(prob, initial_guess(scn), rng)
        J = np.vstack([prob.equalities_jacobian(w), prob.inequalities_jacobian(w)])

        def all_rows(w_):
            return np.concatenate([prob.equalities(w_), prob.inequalities(w_)])

        cols = rng.choice(w.size, size=40, replace=False)
        for j in cols:
            e = 1e-6 * max(1.0, abs(w[j]))
            wp, wm = w.copy(), w.copy()
            wp[j] += e
            wm[j] -= e
            fd = (all_rows(wp) - all_rows(wm)) / (2.0 * e)
            scale = max(np.abs(fd).max(), 1.0)
            assert np.abs(J[:, j] - fd).max() / scale < 1e-5

    def test_defect_rows_have_identity_on_next_state(self):
        scn = small_scenario(n=6)
        prob = assemble(scn)
        rng = np.random.default_rng(1)
        w = random_feasible_point(prob, initial_guess(scn), rng)
        J = prob.equalities_jacobian(w)
        lay = scn.layout()
        for k in range(6):
            block = J[6 * k:6 * k + 6,
                      lay.state_index(k + 1, 0):lay.state_index(k + 1, 0) + 6]
            assert np.array_equal(block, np.eye(6))

    def test_one_step_locality(self):
        scn = small_scenario(n=6)
        prob = assemble(scn)
        rng = np.random.default_rng(2)
        w = random_feasible_point(prob, initial_guess(scn), rng)
        J = prob.equalities_jacobian(w)
        lay = scn.layout()
        # defect row block k must not touch nodes beyond k+1
        k = 2
        beyond = lay.state_index(k + 2, 0)
        assert np.abs(J[6 * k:6 * k + 6, beyond:lay.n_state_vars]).max() == 0.0

    def test_sparsity_masks_are_supersets(self):
        scn = small_scenario(n=7)
        prob = assemble(scn)
        rng = np.random.default_rng(3)
        w = random_feasible_point(prob, initial_guess(scn), rng)
        J_eq = prob.equalities_jacobian(w)
        J_in = prob.inequalities_jacobian(w)
        assert np.abs(J_eq[~prob.eq_sparsity]).max() == 0.0
        assert np.abs(J_in[~prob.ineq_sparsity]).max() == 0.0

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_lagrangian_hessian_matches_differenced_gradients(self, variant):
        scn, prob = variant_problem(variant)
        rng = np.random.default_rng(4)
        w = random_feasible_point(prob, initial_guess(scn), rng)
        eqm = rng.normal(size=prob.n_eq) * 0.3
        inm = rng.normal(size=prob.n_ineq) * 0.1
        tr = prob.meta["transcription"]
        inm[tr.n_path:] = rng.uniform(0.2, 0.4, tr.n_extra)

        def lag_grad(w_, eq_mult):
            return (prob.objective_gradient(w_)
                    + prob.equalities_jacobian(w_).T @ eq_mult
                    + prob.inequalities_jacobian(w_).T @ inm)

        # the second pass switches the defect rows off: their curvature
        # would hide errors in the objective and extra-row blocks
        for eq_mult in (eqm, np.zeros(prob.n_eq)):
            H = prob.lagrangian_hessian(w, 1.0, eq_mult, inm)
            for _ in range(4):
                v = rng.normal(size=w.size) * prob.x_scale
                e = 1e-6
                hv_fd = (lag_grad(w + e * v, eq_mult)
                         - lag_grad(w - e * v, eq_mult)) / (2.0 * e)
                hv = H @ v
                assert np.abs(hv - hv_fd).max() / max(np.abs(hv_fd).max(), 1.0) < 1e-5

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_convexified_hessian_is_spd_on_free_space(self, variant):
        scn, prob = variant_problem(variant)
        rng = np.random.default_rng(6)
        w = random_feasible_point(prob, initial_guess(scn), rng)
        inm = np.zeros(prob.n_ineq)
        tr = prob.meta["transcription"]
        inm[tr.n_path:] = rng.uniform(0.2, 0.4, tr.n_extra)
        Hc = prob.lagrangian_hessian(w, 1.0, np.zeros(prob.n_eq), inm, convexify=True)
        s = prob.x_scale
        evals = np.linalg.eigvalsh(Hc * np.outer(s, s))
        assert evals.min() > -1e-8

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_hessians_are_symmetric_bit_for_bit(self, variant):
        # the assembly does not symmetrise H as a whole: every contribution
        # must come out symmetric to the last bit, and the floored blocks of
        # the convexified model are symmetrised where they land
        scn, prob = variant_problem(variant)
        rng = np.random.default_rng(9)
        w = random_feasible_point(prob, initial_guess(scn), rng)
        assert np.abs(prob.equalities(w)[:6 * scn.n_intervals]).max() > 0.0
        eqm = rng.normal(size=prob.n_eq) * 0.3
        inm = np.zeros(prob.n_ineq)
        tr = prob.meta["transcription"]
        inm[tr.n_path:] = rng.uniform(0.2, 0.4, tr.n_extra)
        for convex in (False, True):
            H = prob.lagrangian_hessian(w, 1.0, np.zeros(prob.n_eq) if convex else eqm, inm,
                                        convexify=convex)
            assert np.array_equal(H, H.T)

    def test_step_map_hessian_is_zero_along_x_and_y(self):
        # the defect blocks are built along the step map's nonlinear
        # variables only; over all nine they must come out the same, so an
        # rhs that starts to read x or y fails here
        scn, prob = variant_problem("noise")
        tr = prob.meta["transcription"]
        rng = np.random.default_rng(7)
        Z, U, _ = tr.layout.unpack(random_feasible_point(prob, initial_guess(scn), rng))
        X = np.hstack([Z[:-1], U])
        mu = rng.normal(size=(scn.n_intervals, 6))
        full = _cs_hessian_blocks(tr._step, X, _INTERVAL_SCALE, mu)
        restricted = _cs_hessian_blocks(tr._step, X, _INTERVAL_SCALE, mu, _STEP_NONLINEAR)
        assert full.tobytes() == restricted.tobytes()
        assert not full[:, [IX, IY], :].any() and not full[:, :, [IX, IY]].any()
        assert np.count_nonzero(full[0]) > 40

    def test_step_map_jacobian_matches_the_full_stencil(self):
        # the defect Jacobian is differenced along the nonlinear variables
        # only, its x and y columns written as the identity; a complex step
        # along all nine must give the same bits, signed zeros included
        scn, prob = variant_problem("noise")
        tr = prob.meta["transcription"]
        rng = np.random.default_rng(8)
        w = random_feasible_point(prob, initial_guess(scn), rng)
        Z, U, _ = tr.layout.unpack(w)
        full = _cs_derivative(tr._step, np.hstack([Z[:-1], U]))
        rows = np.arange(6 * scn.n_intervals).reshape(scn.n_intervals, 6)
        J = prob.equalities_jacobian(w)
        assert J[rows[:, :, None], tr.interval_idx[:, None, :]].tobytes() == (-full).tobytes()


class TestMemo:
    """Each objective and extra-row term remembers what it derived at its
    last point; no callback may return what belongs to another point."""

    @staticmethod
    def outputs(prob, w, eq_mult, ineq_mult, convex_first=False):
        """Every callback at w as raw bytes, the Hessians built in either order."""
        hessians = {
            convex: prob.lagrangian_hessian(
                w, 1.0, np.zeros(prob.n_eq) if convex else eq_mult,
                np.maximum(ineq_mult, 0.0) if convex else ineq_mult, convexify=convex)
            for convex in ((True, False) if convex_first else (False, True))
        }
        values = [np.array([prob.objective(w)]), prob.objective_gradient(w),
                  prob.equalities(w), prob.inequalities(w), prob.equalities_jacobian(w),
                  prob.inequalities_jacobian(w), hessians[False], hessians[True]]
        return [v.tobytes() for v in values]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_callbacks_match_a_fresh_problem(self, variant):
        scn, prob = variant_problem(variant)
        rng = np.random.default_rng(8)
        w0 = initial_guess(scn)
        w1 = random_feasible_point(prob, w0, rng)
        w2 = random_feasible_point(prob, w0, rng)
        eqm = rng.normal(size=prob.n_eq) * 0.3
        inm = np.zeros(prob.n_ineq)
        tr = prob.meta["transcription"]
        inm[tr.n_path:] = rng.uniform(0.2, 0.4, tr.n_extra)

        def fresh(w):
            return self.outputs(variant_problem(variant)[1], w, eqm, inm)

        for w, convex_first in ((w1, False), (w2, True), (w1, True), (w2, False)):
            assert self.outputs(prob, w, eqm, inm, convex_first) == fresh(w)
        # a vector changed in place between two calls is a new point
        w = w1.copy()
        self.outputs(prob, w, eqm, inm)
        w[scn.layout().state_index(3, IH)] += 1.0
        assert self.outputs(prob, w, eqm, inm) == fresh(w)
        w[:] = w2
        assert self.outputs(prob, w, eqm, inm, convex_first=True) == fresh(w2)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_hessian_is_a_new_array_on_every_call(self, variant):
        # the solver scales the Hessian in place, so a memo that handed out
        # the matrix it keeps would corrupt the next call at the same point
        scn, prob = variant_problem(variant)
        w = initial_guess(scn)
        eqm = np.random.default_rng(10).normal(size=prob.n_eq) * 0.3
        inm = np.ones(prob.n_ineq)
        for convex in (False, True):
            first = prob.lagrangian_hessian(w, 1.0, eqm, inm, convexify=convex)
            kept = first.copy()
            second = prob.lagrangian_hessian(w, 1.0, eqm, inm, convexify=convex)
            assert not np.shares_memory(first, second)
            first *= 2.0
            first[0, 0] = np.nan
            assert second.tobytes() == kept.tobytes()
            third = prob.lagrangian_hessian(w, 1.0, eqm, inm, convexify=convex)
            assert third.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_filled_memos_make_no_reference_cycle(self, variant):
        # the memos live in closures that must not hold the transcription,
        # or a dropped problem would wait for a garbage-collector pass
        scn, prob = variant_problem(variant)
        w = initial_guess(scn)
        self.outputs(prob, w, np.zeros(prob.n_eq), np.ones(prob.n_ineq))
        ref = weakref.ref(prob.meta["transcription"])
        gc.disable()
        try:
            del prob
            assert ref() is None
        finally:
            gc.enable()


def traced_peak(fn):
    """(fn(), the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAssemblyMemory:
    """The dense N=100 model is built without full-size temporaries.

    Traced allocation peaks of the `noise` variant at a point near the
    initial guess, as multiples of the array each call returns (6.57 MB
    for a Hessian, 8.79 MB for the stacked 1213x906 Jacobian that
    `kkt_residuals` builds).  An assembly that makes a full-size copy to
    symmetrise, to apply the rank-one Leq update and to scale the rows
    peaks at 2.35 (exact Hessian), 2.01 (convexified) and 3.0
    (`kkt_residuals`); this one at 1.89, 1.03 and 1.53.  The bounds sit
    between.  The exact Hessian's remainder is the defect kernel's complex
    working set, not an assembly temporary.
    """

    def test_n100_peaks_stay_near_the_result_size(self):
        scn = small_scenario(n=100)
        prob = assemble(scn)
        rng = np.random.default_rng(11)
        w = random_feasible_point(prob, initial_guess(scn), rng)
        lam_eq = rng.uniform(-0.1, 0.1, prob.n_eq)
        lam_in = np.zeros(prob.n_ineq)
        sigma = 1.0 / prob.f_scale
        # cold memos: the exact Hessian pays for every kernel evaluation
        exact, peak = traced_peak(lambda: prob.lagrangian_hessian(
            w, sigma, lam_eq / prob.eq_scale, lam_in, convexify=False))
        assert peak < 2.1 * exact.nbytes
        convex, peak = traced_peak(lambda: prob.lagrangian_hessian(
            w, sigma, np.zeros(prob.n_eq), lam_in, convexify=True))
        assert peak < 1.5 * convex.nbytes
        _, peak = traced_peak(lambda: nlp_solver.kkt_residuals(prob, w, lam_eq, lam_in))
        assert peak < 2.25 * (prob.n_eq + prob.n_ineq) * prob.n_vars * 8


def count_kernel_calls(monkeypatch) -> list:
    """Record each call of the level and fuel-flow kernels from now on."""
    calls = []
    for owner, name in ((noise, "levels_arrays"), (transcription, "fuel_flow_arrays")):
        def counted(*args, _kernel=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


class TestStackedPoints:
    """The value callbacks take a stack of points: row k has the bits of the
    one-point call at point k, and the one-point memos are left as they were."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_stack_matches_point_by_point_calls(self, variant, monkeypatch):
        scn, prob = variant_problem(variant)
        rng = np.random.default_rng(5)
        w0 = initial_guess(scn)
        W = np.array([random_feasible_point(prob, w0, rng) for _ in range(5)])
        callbacks = (prob.objective, prob.equalities, prob.inequalities)
        def memo_users():
            return np.append(prob.objective(w0), prob.inequalities(w0)).tobytes()

        at_w0 = memo_users()  # every objective and extra-row term now keeps w0
        stacked = [callback(W) for callback in callbacks]
        calls = count_kernel_calls(monkeypatch)
        assert memo_users() == at_w0
        assert calls == []
        for callback, values in zip(callbacks, stacked):
            one_by_one = np.array([callback(w) for w in W])
            assert values.shape == one_by_one.shape
            assert values.tobytes() == one_by_one.tobytes()
        assert calls


class TestQuadratureConsistency:
    def test_objective_stable_under_grid_doubling(self):
        # the same piecewise-constant control simulated on N and 2N grids
        # gives matching equivalent levels within the quadrature budget
        import noisedescent.noise as noise
        n = 1600
        scn = small_scenario(n=n, tf=150.0)
        z0 = np.array([110.0, -0.01, 0.04, 0.0, 0.0, 2500.0])
        controls = np.tile([0.16, 0.55, 0.0], (n, 1))
        coarse = simulate(z0, controls, scn.grid(), scn.aircraft)
        fine = simulate(z0, np.repeat(controls, 2, axis=0),
                        Grid(0.0, scn.tf, 2 * n), scn.aircraft)
        obs = scn.observers[0]
        a = noise.leq(coarse, obs, scn.engine, scn.atmosphere)
        b = noise.leq(fine, obs, scn.engine, scn.atmosphere)
        assert abs(a - b) < 1e-6

    def test_internode_violation_zero_for_interior_trajectory(self):
        # near-trimmed flight stays strictly inside the envelope
        scn = small_scenario(n=10, tf=60.0)
        z0 = np.array([120.0, 0.0, 0.05, 0.0, 0.0, 3400.0])
        controls = np.tile([0.154, 0.69, 0.0], (10, 1))
        traj = simulate(z0, controls, scn.grid(), scn.aircraft)
        v = internode_violation(traj, scn.bounds.lower, scn.bounds.upper,
                                scn.aircraft)
        assert v == 0.0

    def test_internode_violation_detects_excursion(self):
        scn = small_scenario(n=10, tf=60.0)
        # gamma starts right at its upper bound and the pull-up pushes beyond
        z0 = np.array([150.0, scn.bounds.upper[0], 0.0, 0.0, 0.0, 3000.0])
        controls = np.tile([0.2, 1.0, 0.0], (10, 1))
        traj = simulate(z0, controls, scn.grid(), scn.aircraft)
        v = internode_violation(traj, scn.bounds.lower, scn.bounds.upper,
                                scn.aircraft)
        assert v > 0.0


class TestVariants:
    def test_fuel_cap_row_appended(self):
        scn = dataclasses.replace(small_scenario(n=6), variant="noise_fuel_capped")
        prob = assemble(scn, fuel_cap=120.0)
        assert prob.n_ineq == 6 * 7 + 1
        assert prob.ineq_upper[-1] == 120.0
        w0 = initial_guess(dataclasses.replace(scn, variant="noise"))
        import noisedescent.noise as noise
        traj = trajectory_from_vector(w0, VectorLayout(6), scn.grid())
        co = noise.total_consumption(traj, scn.aircraft, scn.atmosphere)
        assert prob.inequalities(w0)[-1] == pytest.approx(co, rel=1e-12)

    def test_cap_needs_value(self):
        from noisedescent.errors import ScenarioError
        scn = dataclasses.replace(small_scenario(n=6), variant="noise_fuel_capped")
        with pytest.raises(ScenarioError):
            assemble(scn)

    def test_minimax_epigraph_rows(self):
        obs = (Observer(0.0, 0.0), Observer(20000.0, 2500.0))
        scn = dataclasses.replace(small_scenario(n=6), variant="minimax",
                                  observers=obs)
        prob = assemble(scn)
        lay = scn.layout()
        assert lay.has_epigraph
        assert prob.n_vars == 6 * 7 + 3 * 6 + 1
        assert prob.n_ineq == 6 * 7 + 2
        w0 = initial_guess(scn)
        rows = prob.inequalities(w0)[-2:]
        import noisedescent.noise as noise
        traj = trajectory_from_vector(w0, lay, scn.grid())
        theta = lay.unpack(w0)[2]
        for i, o in enumerate(obs):
            want = noise.leq(traj, o, scn.engine, scn.atmosphere) - theta
            assert rows[i] == pytest.approx(want, rel=1e-9)
        grad = prob.objective_gradient(w0)
        assert grad[lay.epigraph_index] == 1.0
        assert np.abs(grad[:-1]).max() == 0.0
