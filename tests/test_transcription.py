"""Grid, Heun stepping, packing, and NLP assembly checks.

Derivative checks difference the callbacks centrally; defect checks pit
the assembled constraints against plain forward simulation.
"""

import dataclasses
import gc
import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisedescent import flight_dynamics, nlp_solver, noise, transcription
from noisedescent.errors import NoiseTermError
from noisedescent.flight_dynamics import IH, IX, IY, AircraftModel
from noisedescent.noise import Observer
from noisedescent.scenarios import VARIANTS, default_scenario, initial_guess
from noisedescent.transcription import (
    _INTERVAL_SCALE,
    _STEP_NONLINEAR,
    STATE_SCALE,
    Grid,
    VectorLayout,
    assemble,
    heun_step,
    internode_violation,
    rk_step_arrays,
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


class TestScalarStep:
    """One node steps on Python floats, with the bits of the former routes
    through numpy scalars and 0-d arrays, and matches the stacked step map
    to rounding."""

    @pytest.fixture(scope="class")
    def guess(self):
        scn = small_scenario(n=100)
        Z, U, _ = scn.layout().unpack(initial_guess(scn))
        return scn, Z, U

    @pytest.fixture(scope="class")
    def nodes(self, guess):
        """200 seeded (z, u) pairs near the nodes of the N=100 guess."""
        _, Z, U = guess
        rng = np.random.default_rng(12)
        k = rng.integers(0, U.shape[0], 200)
        return (Z[k] + 0.01 * STATE_SCALE * rng.uniform(-1.0, 1.0, (200, 6)),
                U[k] + 0.01 * rng.uniform(-1.0, 1.0, (200, 3)))

    def test_simulate_passes_python_floats_to_the_kernel(self, guess, monkeypatch):
        scn, Z, U = guess
        seen = {}
        # the kernel, its control trigonometry, and inside the kernel the
        # density and thrust laws, with the number of leading state and
        # control arguments of each
        for owner, name, n_args in ((transcription, "rhs_arrays", 9),
                                    (transcription, "control_trig", 2),
                                    (flight_dynamics, "air_density", 1),
                                    (flight_dynamics, "_thrust", 4)):
            def recording(*args, _fn=getattr(owner, name), _name=name, _n=n_args, **kwargs):
                seen.setdefault(_name, []).extend(args[:_n])
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, recording)

        simulate(Z[0], U, scn.grid(), scn.aircraft, scn.atmosphere)
        # two stages per step share one set of control sines
        assert len(seen["rhs_arrays"]) == 9 * 2 * U.shape[0]
        assert len(seen["control_trig"]) == 2 * U.shape[0]
        # neither a numpy scalar nor a 0-d array reaches the kernel
        assert {name: {type(arg) for arg in args} for name, args in seen.items()} == {
            "rhs_arrays": {float}, "control_trig": {float}, "air_density": {float},
            "_thrust": {float}}

    def test_simulate_rejects_a_z0_that_is_not_one_state(self, guess):
        scn, Z, U = guess
        for z0 in (5.0, Z[0, :5], Z[:2]):
            with pytest.raises(ValueError, match=r"z0 must have shape \(6,\)"):
                simulate(z0, U, scn.grid(), scn.aircraft, scn.atmosphere)

    @pytest.fixture(scope="class")
    def steps(self, guess, nodes):
        """The one-node step of each node, and the (h, model, atm) it used."""
        scn = guess[0]
        args = (scn.grid().h_step, scn.aircraft, scn.atmosphere)
        return np.array([rk_step_arrays(z, u, *args) for z, u in zip(*nodes)]), args

    def test_float_step_has_the_bits_of_the_numpy_scalar_route(self, nodes, steps):
        # the Heun recheck of the benchmark: heun_step over the kernel on
        # numpy scalars, each stage computing its own control sines
        scalar, (h, model, atm) = steps

        def rhs_numpy(z, u):
            return np.array(transcription.rhs_arrays(*z, *u, model, atm))

        numpy = np.array([heun_step(z, u, h, rhs_numpy) for z, u in zip(*nodes)])
        assert scalar.tobytes() == numpy.tobytes()

    def test_scalar_step_has_the_bits_of_the_0d_route(self, nodes, steps):
        scalar, (h, model, atm) = steps

        def rhs_0d(z, u):
            out = transcription.rhs_arrays(*(z[..., i] for i in range(6)),
                                           *(u[..., j] for j in range(3)), model, atm)
            return np.stack(out, axis=-1)

        zero_d = np.array([heun_step(z, u, h, rhs_0d) for z, u in zip(*nodes)])
        assert scalar.tobytes() == zero_d.tobytes()

    def test_scalar_step_matches_the_stacked_step_to_rounding(self, nodes, steps):
        # a scalar ** and an array ** may differ in the last bit, so
        # nodes agree within a few ulp of the value or of its scale
        scalar, args = steps
        stacked = rk_step_arrays(*nodes, *args)
        ulp = np.spacing(np.maximum(np.abs(stacked), STATE_SCALE))
        assert np.all(np.abs(scalar - stacked) <= 4.0 * ulp)


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
        with pytest.raises(ScenarioError):
            small_scenario(V0=50.0)  # below the speed floor

    @pytest.mark.parametrize("overrides, message, keys", [
        ({"variant": "loudest"}, "unknown variant", ()),
        ({"tf": 0.0}, "final time must be positive", ("tf",)),
        ({"observers": ()}, "needs at least one observer", ()),
        ({"fuel_cap_factor": 0.0}, "fuel cap factor must be positive", ("fuel_cap_factor",)),
        ({"stall_speed": 80.0}, "below 1.3", ("V_min", "stall_speed")),
        ({"V0": 200.0}, "outside bounds", ("V0", "V_min", "V_max")),
        ({"h0": -1.0}, "outside the atmosphere", ("h0", "lapse")),
        ({"hf": 1.0 / 22.6e-6}, "outside the atmosphere", ("hf", "lapse")),
    ], ids=["variant", "tf", "observers", "fuel-cap", "speed-floor", "V0", "h0", "hf"])
    def test_each_scenario_rule_is_checked_on_construction(self, overrides, message, keys):
        from noisedescent.errors import ScenarioError
        with pytest.raises(ScenarioError, match=message) as err:
            small_scenario(**overrides)
        assert err.value.keys == keys

    def test_fuel_variant_needs_no_observer(self):
        assert small_scenario(variant="fuel", observers=()).observers == ()

    @pytest.mark.parametrize("name, value", [
        *[(name, math.nan) for name in ("h0", "hf", "x0", "y0", "xf", "yf",
                                        "fuel_cap_factor", "stall_speed")],
        *[(name, math.inf) for name in ("x0", "y0", "xf", "yf", "tf", "fuel_cap_factor")]])
    def test_non_finite_field_rejected_before_solve(self, name, value):
        from noisedescent.errors import ScenarioError
        with pytest.raises(ScenarioError, match=name):
            small_scenario(**{name: value})

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
        for k in range(6):
            block = J[6 * k:6 * k + 6, 6 * (k + 1):6 * (k + 2)]
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
        beyond = 6 * (k + 2)
        assert np.abs(J[6 * k:6 * k + 6, beyond:lay.n_state_vars]).max() == 0.0

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


def random_multipliers(prob, rng):
    """Physical-row multipliers on every defect, boundary, path and extra row."""
    return rng.normal(size=prob.n_eq), rng.normal(size=prob.n_ineq)


def raise_if_called(w):
    raise AssertionError("dense Jacobian built")


class TestJacobianTransposeProduct:
    """`jacobian_transpose_product` is J^T multipliers, summed from the
    transcription's blocks without the dense Jacobian."""

    @pytest.mark.parametrize("n", [12, 100])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_the_dense_product(self, variant, n):
        scn, prob = variant_problem(variant, n)
        rng = np.random.default_rng(n)
        w = random_feasible_point(prob, initial_guess(scn), rng)
        eq_mult, ineq_mult = random_multipliers(prob, rng)
        dense = (prob.equalities_jacobian(w).T @ eq_mult
                 + prob.inequalities_jacobian(w).T @ ineq_mult)
        product = prob.jacobian_transpose_product(w, eq_mult, ineq_mult)
        assert product.shape == (prob.n_vars,)
        assert np.abs(product - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_kkt_residuals_builds_no_jacobian(self, variant):
        scn, prob = variant_problem(variant, 12)
        rng = np.random.default_rng(5)
        w = random_feasible_point(prob, initial_guess(scn), rng)
        lam_eq, lam_in = random_multipliers(prob, rng)
        feas, opt = nlp_solver.kkt_residuals(prob, w, lam_eq, lam_in)
        # the dense formula: the scaled rows' stacked Jacobian times lam
        rows = nlp_solver._Rows(prob)
        lam = np.concatenate([lam_eq, lam_in])
        g = prob.objective_gradient(w) / prob.f_scale + rows.jacobian(w).T @ lam
        s = prob.x_scale
        y = w / s
        stationarity = np.abs(y - np.clip(y - g * s, prob.lower / s, prob.upper / s)).max()
        n_eq = prob.n_eq
        dense_opt = stationarity + nlp_solver._complementarity(
            lam_in, rows.values(w)[n_eq:], rows.lo[n_eq:], rows.hi[n_eq:])

        prob.equalities_jacobian = prob.inequalities_jacobian = raise_if_called
        blind_feas, blind_opt = nlp_solver.kkt_residuals(prob, w, lam_eq, lam_in)
        assert blind_feas == feas
        assert blind_opt == pytest.approx(dense_opt, rel=1e-12)


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
        w[6 * 3 + IH] += 1.0
        assert self.outputs(prob, w, eqm, inm) == fresh(w)
        w[:] = w2
        assert self.outputs(prob, w, eqm, inm, convex_first=True) == fresh(w2)

    @pytest.mark.parametrize("variant", ["noise", "minimax"])
    def test_a_point_of_the_last_stack_takes_its_row(self, variant, monkeypatch):
        # after a stacked call the value at one of its rows comes from the
        # stack: the gradient there runs the level kernel once, for its own
        # stencil, and returns the bytes a fresh problem returns
        scn, prob = variant_problem(variant)
        rng = np.random.default_rng(12)
        w0 = initial_guess(scn)
        W = np.array([random_feasible_point(prob, w0, rng) for _ in range(4)])
        zero = 6 * 3 + IY
        W[1, zero] = 0.0
        stacked = prob.objective(W) if variant == "noise" else prob.inequalities(W)
        calls = count_kernel_calls(monkeypatch)

        def gradient(w):
            return prob.objective_gradient(w) if variant == "noise" \
                else prob.inequalities_jacobian(w)

        def fresh(w):
            other = variant_problem(variant)[1]
            return (other.objective_gradient(w) if variant == "noise"
                    else other.inequalities_jacobian(w)).tobytes()

        n_terms = len(scn.observers) if variant == "minimax" else 1
        row = W[2].copy()
        expected = fresh(row)
        calls.clear()
        assert gradient(row).tobytes() == expected
        assert calls == ["levels_arrays"] * n_terms
        value = prob.objective(row) if variant == "noise" else prob.inequalities(row)
        assert np.asarray(value).tobytes() == np.asarray(stacked[2]).tobytes()
        assert calls == ["levels_arrays"] * n_terms
        # a point in no row is derived afresh: the value, then the gradient
        # stencil, per term; so is one that differs from a row only in the
        # sign of a zero
        signed = W[1].copy()
        signed[zero] = -0.0
        for w in (random_feasible_point(prob, w0, rng), signed):
            expected = fresh(w)
            calls.clear()
            assert gradient(w).tobytes() == expected
            assert calls == ["levels_arrays"] * (2 * n_terms)

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
    initial guess.  The Hessians' are multiples of the 6.57 MB array each
    call returns: an assembly that makes a full-size copy to symmetrise
    and to apply the rank-one Leq update peaks at 2.35 (exact) and 2.01
    (convexified), this one at 1.419 and 1.030 in every run, since every
    stencil runs on the calling thread, and the bounds sit between.  The
    exact Hessian differences the step map before it allocates its
    result, so the defect kernel's complex working set does not add to
    it; allocated first, the result peaked at 1.91.  The stencils gather
    their column groups where the kernel reads them; gathered up front
    for the whole stack, the exact Hessian peaked at 1.53.  `kkt_residuals`
    builds no Jacobian: it sums J^T lam from the defect blocks and peaks
    near 0.6 MB, where the 1213x906 stacked Jacobian alone is 8.79 MB
    (13.4 MB peak).
    """

    def test_assembled_problem_retains_little(self):
        # the problem keeps vectors and index tables, no (rows, n_vars)
        # array: 0.07 MB at N=100, where one dense boolean mask of the
        # 607x906 equality Jacobian alone would be 0.55 MB
        scn = small_scenario(n=100)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            prob = assemble(scn)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert prob.n_vars == 906
        assert retained < 0.25e6

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
        assert peak < 1.5 * exact.nbytes
        convex, peak = traced_peak(lambda: prob.lagrangian_hessian(
            w, sigma, np.zeros(prob.n_eq), lam_in, convexify=True))
        assert peak < 1.5 * convex.nbytes
        _, peak = traced_peak(lambda: nlp_solver.kkt_residuals(prob, w, lam_eq, lam_in))
        assert peak < 1.5e6


def test_n100_exact_hessian_starts_no_thread(monkeypatch):
    # every complex-step stack runs in one piece on the calling thread, the
    # N=100 step stencil's 98 * 100 * 7 values included
    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    scn = small_scenario(n=100)
    prob = assemble(scn)
    rng = np.random.default_rng(100)
    w = random_feasible_point(prob, initial_guess(scn), rng)
    H = prob.lagrangian_hessian(w, 1.0, rng.normal(size=prob.n_eq), np.zeros(prob.n_ineq))
    assert H.shape == (prob.n_vars, prob.n_vars)


def count_kernel_calls(monkeypatch) -> list:
    """Record each call of the level and fuel-flow kernels from now on."""
    calls = []
    for owner, name in ((noise, "levels_arrays"), (transcription, "fuel_flow_arrays")):
        def counted(*args, _kernel=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


class TestFactorReuse:
    """The exact Hessian's step-map and Leq stencils evaluate their kernels'
    column groups once per distinct input and gather them where the kernel
    reads them: sin/cos of single columns and the air at h (step map), and
    the level's (V, h) and (x, y, h) parts (Leq term).  Their blocks must
    have the bits of a per-copy evaluation, in which the kernels compute
    everything themselves.  Each stencil calls its kernel once, at every N:
    N=167 is the last at which the step stencil's per-copy column
    temporaries stay below numpy's elision size, N=226 the Leq stencil's.
    """

    @pytest.mark.parametrize("mode", ["velocity_vector", "track_axis"])
    @pytest.mark.parametrize("n", [12, 100, 167, 226])
    def test_blocks_have_the_bits_of_a_per_copy_evaluation(self, n, mode, monkeypatch):
        scn = small_scenario(n=n, engine=noise.EngineNoiseParams(directivity_mode=mode))
        prob = assemble(scn)
        rng = np.random.default_rng(n)
        w = random_feasible_point(prob, initial_guess(scn), rng)
        stencil = transcription._cs_hessian_blocks
        seen = []

        def counted(fn, calls):
            def kernel(X, **factors):
                calls.append(X.shape)
                return fn(X, **factors)
            return kernel

        def both(fn, X, scale, mult=None, along=None, groups=()):
            grouped_calls, per_copy_calls = [], []
            grouped = stencil(counted(fn, grouped_calls), X, scale, mult, along, groups)
            per_copy = stencil(counted(fn, per_copy_calls), X, scale, mult, along)
            seen.append((bool(groups), len(grouped_calls), len(per_copy_calls),
                         grouped.tobytes() == per_copy.tobytes()))
            return grouped

        monkeypatch.setattr(transcription, "_cs_hessian_blocks", both)
        prob.lagrangian_hessian(w, 1.0, rng.normal(size=prob.n_eq), np.zeros(prob.n_ineq))
        # the step map's stencil, then the Leq term's
        assert seen == [(True, 1, 1, True), (True, 1, 1, True)]

    @pytest.mark.parametrize("mode", ["velocity_vector", "track_axis"])
    def test_a_nonpositive_log_argument_raises_the_per_copy_error(self, mode):
        # Level flight towards the observer at Mach 1 - 5e-7 over cos(theta)
        # at node 7: the motion term's argument 1 - M cos(theta) is positive
        # at the point and in every copy but those whose airspeed is shifted
        # up, where the (V, h) part's flight Mach number makes it negative
        scn = small_scenario(engine=noise.EngineNoiseParams(
            v1=2000.0, v2=250.0, directivity_mode=mode))
        layout, obs = scn.layout(), scn.observers[0]
        Z, U, _ = layout.unpack(initial_guess(scn))
        Z[:, 1:3] = 0.0
        Z[:, IX] = obs.x - 1e5 + 1e3 * np.arange(Z.shape[0])
        Z[:, IY] = obs.y
        Z[:, IH] = 10.0
        cos_theta = noise.directivity_cos_arrays(*Z[7], obs, scn.engine)
        Z[7, 0] = (1.0 - 5e-7) * flight_dynamics.air_at(10.0)[1] / cos_theta
        w = layout.pack(Z, U)
        stencil = transcription._cs_hessian_blocks

        def per_copy(fn, X, scale, mult=None, along=None, groups=()):
            return stencil(fn, X, scale, mult, along)

        errors = []
        for blocks in (stencil, per_copy):
            prob = assemble(scn)
            prob.objective_gradient(w)  # the point itself is in the domain
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(transcription, "_cs_hessian_blocks", blocks)
                with pytest.raises(NoiseTermError) as raised:
                    prob.lagrangian_hessian(w, 1.0, np.zeros(prob.n_eq), np.zeros(prob.n_ineq))
            errors.append(str(raised.value))
        assert errors == ["motion: nonpositive log argument at node 7"] * 2


class TestStackedPoints:
    """The value callbacks take a stack of points: row k has the bits of the
    one-point call at point k, and the one-point memos are left as they
    were.  Each term keeps its last stack, so a one-point call at one of its
    rows takes that row's values and reaches no kernel."""

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
        assert calls == []
        # and a fresh problem, which derives every point, gives the same bits
        fresh = variant_problem(variant)[1]
        for callback, values in zip((fresh.objective, fresh.equalities, fresh.inequalities),
                                    stacked):
            assert values.tobytes() == np.array([callback(w) for w in W]).tobytes()
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
