"""Formula oracles and properties for the atmosphere/forces/dynamics layer.

Expected values are computed by independent straight-line
reimplementations of the formulas (kept deliberately separate from the
package code) or frozen from hand evaluation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisedescent.errors import DomainError, SingularStateError
from noisedescent.flight_dynamics import (
    ISA,
    AircraftModel,
    Atmosphere,
    air_at,
    air_density,
    control_trig,
    drag,
    fuel_flow_arrays,
    rhs_arrays,
    thrust,
)

MODEL = AircraftModel()


def oracle_density(h):
    return 1.225 * (1.0 - 22.6e-6 * h) ** 4.26


def oracle_sound_speed(h):
    return 340.29 * (oracle_density(h) / 1.225) ** (1.0 / 8.52)


def oracle_rhs(z, u, model=MODEL):
    """Independent evaluation of the six equations of motion."""
    V, gamma, chi, x, y, h = z
    alpha, delta_x, mu = u
    rho = oracle_density(h)
    c = oracle_sound_speed(h)
    M = V / c
    T = model.T0 * delta_x * (rho / model.rho0) * (1.0 - M + M * M / 2.0)
    L = 0.5 * rho * model.S * V * V * model.Cz_alpha * alpha
    D = 0.5 * rho * model.S * V * V * (model.Cx0 + model.k_i * model.Cz_alpha ** 2 * alpha ** 2)
    m, g = model.mass, model.g
    return (
        g * ((T * math.cos(alpha) - D) / (m * g) - math.sin(gamma)),
        ((T * math.sin(alpha) + L) * math.cos(mu) - m * g * math.cos(gamma)) / (m * V),
        (T * math.sin(alpha) + L) * math.sin(mu) / (m * V * math.cos(gamma)),
        V * math.cos(gamma) * math.cos(chi),
        V * math.cos(gamma) * math.sin(chi),
        V * math.sin(gamma),
    )


# (V, gamma, chi, x, y, h) and (alpha, delta_x, mu)
states = st.tuples(
    st.floats(60.0, 250.0),
    st.floats(-0.3, 0.3),
    st.floats(-1.0, 1.0),
    st.floats(-1e5, 1e5),
    st.floats(-1e5, 1e5),
    st.floats(0.0, 10000.0),
)
controls = st.tuples(
    st.floats(-0.1, 0.25),
    st.floats(0.0, 1.0),
    st.floats(-0.5, 0.5),
)


def rhs(z, u):
    return np.array(rhs_arrays(*z, *u, MODEL))


class TestAirDensity:
    def test_ground_value(self):
        assert air_density(0.0) == pytest.approx(1.225, abs=0.0)

    def test_at_3500m(self):
        # 1.225*(1 - 22.6e-6*3500)**4.26, evaluated independently
        assert air_density(3500.0) == pytest.approx(0.8623453453886689, rel=1e-12)

    def test_monotone_decreasing(self):
        assert air_density(500.0) > air_density(3500.0)

    @pytest.mark.parametrize("h", [0.0, 500.0, 1000.0, 2000.0, 3500.0])
    def test_matches_oracle(self, h):
        assert air_density(h) == pytest.approx(oracle_density(h), rel=1e-12)

    def test_domain_error_past_model_ceiling(self):
        with pytest.raises(DomainError):
            air_density(1.0 / 22.6e-6 + 1.0)

    def test_random_inputs_against_oracle(self):
        rng = np.random.default_rng(7)
        h = rng.uniform(0.0, 11000.0, size=200)
        assert np.allclose(air_density(h), oracle_density(h), rtol=1e-12)


class TestSpeedOfSound:
    """The speed of sound of `air_at`, the atmosphere the kernels read."""

    def test_sea_level(self):
        assert air_at(0.0)[1] == pytest.approx(ISA.c_isa, rel=1e-15)

    def test_at_3500m(self):
        expected = 340.29 * (oracle_density(3500.0) / 1.225) ** (1.0 / 8.52)
        assert air_at(3500.0)[1] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("h", [0.0, 500.0, 1000.0, 2000.0, 3500.0])
    def test_matches_oracle(self, h):
        assert air_at(h)[1] == pytest.approx(oracle_sound_speed(h), rel=1e-12)

    def test_strictly_decreasing(self):
        h = np.linspace(0.0, 10000.0, 60)
        c = air_at(h)[1]
        assert np.all(np.diff(c) < 0)


class TestThrust:
    def test_static_full_throttle_is_rated_thrust(self):
        assert thrust(0.0, 0.0, 1.0, MODEL) == pytest.approx(MODEL.T0, rel=1e-15)

    def test_mach_04_factor(self):
        c0 = air_at(0.0)[1]
        V = 0.4 * c0
        assert thrust(0.0, V, 1.0, MODEL) == pytest.approx(0.68 * MODEL.T0, rel=1e-12)

    def test_zero_throttle(self):
        assert thrust(2000.0, 100.0, 0.0, MODEL) == 0.0

    def test_rejects_supersonic(self):
        with pytest.raises(DomainError):
            thrust(0.0, 400.0, 1.0, MODEL)

    @given(delta=st.floats(0.0, 1.0), a=st.floats(0.0, 1.0))
    def test_linear_in_throttle(self, delta, a):
        t1 = thrust(1500.0, 120.0, a * delta, MODEL)
        t2 = a * thrust(1500.0, 120.0, delta, MODEL)
        assert t1 == pytest.approx(t2, rel=1e-12, abs=1e-9)


class TestForces:
    def test_zero_alpha_parasite_drag_only(self):
        expected = 0.5 * oracle_density(1000.0) * MODEL.S * 100.0 ** 2 * MODEL.Cx0
        assert drag(1000.0, 100.0, 0.0, MODEL) == pytest.approx(expected, rel=1e-12)

    @given(alpha=st.floats(-0.3, 0.3))
    def test_drag_even_in_alpha(self, alpha):
        assert drag(2000.0, 130.0, alpha, MODEL) == pytest.approx(
            drag(2000.0, 130.0, -alpha, MODEL), rel=1e-14)


class TestDynamics:
    def test_trimmed_level_flight_rates_vanish(self):
        # choose (alpha, delta_x) so that T*cos(a)=D and (T*sin(a)+L) = m*g
        V, h = 130.0, 1500.0
        rho = oracle_density(h)
        qS = 0.5 * rho * MODEL.S * V * V

        alpha = 0.1
        for _ in range(60):  # fixed point for the trim pair
            D = qS * (MODEL.Cx0 + MODEL.k_i * MODEL.Cz_alpha ** 2 * alpha ** 2)
            T = D / math.cos(alpha)
            alpha = (MODEL.mass * MODEL.g - T * math.sin(alpha)) / (qS * MODEL.Cz_alpha)
        delta = T / thrust(h, V, 1.0, MODEL)
        V_dot, gamma_dot, _, _, _, h_dot = rhs((V, 0.0, 0.0, 0.0, 0.0, h), (alpha, delta, 0.0))
        assert V_dot == pytest.approx(0.0, abs=1e-9)
        assert gamma_dot == pytest.approx(0.0, abs=1e-11)
        assert h_dot == 0.0

    def test_level_flight_geometry(self):
        _, _, _, x_dot, y_dot, h_dot = rhs((120.0, 0.0, 0.0, 10.0, -5.0, 800.0),
                                           (0.05, 0.5, 0.0))
        assert x_dot == pytest.approx(120.0, rel=1e-15)
        assert y_dot == 0.0
        assert h_dot == 0.0

    @given(state=states, control=controls)
    @settings(max_examples=150, deadline=None)
    def test_matches_independent_formulas(self, state, control):
        got = rhs(state, control)
        want = np.array(oracle_rhs(state, control))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    @given(state=states, control=controls)
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, state, control):
        assert np.array_equal(rhs(state, control), rhs(state, control))

    @given(state=states)
    @settings(max_examples=100, deadline=None)
    def test_gliding_only_dissipates(self, state):
        # with T=0 and alpha=0: d/dt(V^2/2 + g h) = -D*V/m <= 0
        V, h = state[0], state[5]
        out = rhs(state, (0.0, 0.0, 0.0))
        e_dot = V * out[0] + MODEL.g * out[5]
        D = drag(h, V, 0.0, MODEL)
        assert e_dot == pytest.approx(-D * V / MODEL.mass, rel=1e-9)
        assert e_dot <= 0.0

    def test_singularity_guards(self):
        with pytest.raises(SingularStateError):
            rhs((120.0, math.pi / 2, 0.0, 0.0, 0.0, 100.0), (0.0, 0.5, 0.0))
        with pytest.raises(SingularStateError):
            rhs_arrays(1e-12, 0.0, 0.0, 0.0, 0.0, 100.0, 0.0, 0.5, 0.0, MODEL, ISA)

    @pytest.mark.parametrize("shape, bad", [(None, ()), ((), ()), ((5,), (3,)),
                                            ((3, 5), (2, 3))],
                             ids=["floats", "0-d", "nodes", "stacked-complex"])
    @pytest.mark.parametrize("name, value, error", [
        ("V", 1e-12, SingularStateError),
        ("gamma", math.pi / 2, SingularStateError),
        ("h", 1.0 / ISA.lapse + 1.0, DomainError),
        ("V", 400.0, DomainError),   # M >= 1 in the thrust law
        ("V", math.nan, None),
        ("gamma", math.nan, None),
        ("h", math.nan, None),
    ], ids=["V-zero", "cos-gamma-zero", "h-beyond-density-law", "supersonic",
            "V-nan", "gamma-nan", "h-nan"])
    def test_guards_at_every_shape(self, shape, bad, name, value, error):
        # one bad entry among benign ones; stacked points are complex-step
        # perturbations; Python floats check that the density guard comes
        # before the power, which would turn a negative base complex
        args = dict(V=120.0, gamma=-0.05, chi=0.0, x=0.0, y=0.0, h=1000.0,
                    alpha=0.05, delta_x=0.5, mu=0.0)
        if shape is None:
            cols = {**args, name: value}
        else:
            step = 1e-20j if len(shape) == 2 else 0.0
            cols = {k: np.full(shape, v + step) for k, v in args.items()}
            cols[name][bad] = value
        if error is None:
            with np.errstate(invalid="ignore"):
                out = rhs_arrays(**cols, model=MODEL)
            # V_dot depends on V, gamma and h
            assert np.isnan(np.asarray(out[0])[bad])
        else:
            with pytest.raises(error):
                rhs_arrays(**cols, model=MODEL)


class TestControlTrig:
    """A step's stages share `control_trig`, with the bits of each stage
    computing its own."""

    LOWER = np.array([60.0, -0.3, -1.0, -1e5, -1e5, 0.0, -0.1, 0.0, -0.5])
    UPPER = np.array([250.0, 0.3, 1.0, 1e5, 1e5, 10000.0, 0.25, 1.0, 0.5])

    def points(self, shape, seed):
        rng = np.random.default_rng(seed)
        return self.LOWER + (self.UPPER - self.LOWER) * rng.uniform(size=shape + (9,))

    @pytest.mark.parametrize("complex_step", [False, True], ids=["real", "complex-step"])
    def test_stack(self, complex_step):
        # the shape of the step map's Hessian stencil at N=12
        shape = (7, 14, 12)
        X = self.points(shape, 3)
        if complex_step:
            X = X + 1e-100j * np.random.default_rng(4).normal(size=X.shape)
        cols = [X[..., i] for i in range(9)]
        shared = rhs_arrays(*cols, MODEL, ISA, control_trig(cols[6], cols[8]))
        assert np.array(shared).tobytes() == np.array(rhs_arrays(*cols, MODEL)).tobytes()

    def test_floats_with_shared_trig_match_numpy_scalars(self):
        for p in self.points((200,), 5):
            z = p.tolist()
            shared = rhs_arrays(*z, MODEL, trig=control_trig(z[6], z[8]))
            # iterating an array gives numpy scalars
            assert np.array(shared).tobytes() == np.array(rhs_arrays(*p, MODEL)).tobytes()


class TestFuelFlow:
    def test_zero_throttle_zero_flow(self):
        assert fuel_flow_arrays(100.0, 500.0, 0.0, MODEL) == 0.0

    def test_static_full_throttle(self):
        got = fuel_flow_arrays(0.0, 0.0, 1.0, MODEL)
        assert float(got) == pytest.approx(MODEL.C_SR * MODEL.T0, rel=1e-15)

    @given(delta=st.floats(0.0, 0.5))
    def test_doubling_throttle_doubles_flow(self, delta):
        f1 = fuel_flow_arrays(110.0, 900.0, delta, MODEL)
        f2 = fuel_flow_arrays(110.0, 900.0, 2.0 * delta, MODEL)
        assert f2 == pytest.approx(2.0 * f1, rel=1e-12, abs=1e-12)


class TestValidation:
    def test_aircraft_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            AircraftModel(mass=-1.0)

    def test_atmosphere_density_positive_decreasing_on_domain(self):
        atm = Atmosphere()
        h = np.linspace(0.0, 11000.0, 100)
        rho = air_density(h, atm)
        assert np.all(rho > 0)
        assert np.all(np.diff(rho) < 0)
