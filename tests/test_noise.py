"""Oracles and properties for the jet-noise level and trajectory metrics.

Every formula is cross-checked against an independent straight-line
reimplementation kept inside this file.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisedescent.cli import SWEEP_OBSERVERS
from noisedescent.errors import DomainError, NoiseTermError
from noisedescent.flight_dynamics import ISA, AircraftModel
from noisedescent.noise import (
    TERM_NAMES,
    EngineNoiseParams,
    Observer,
    Trajectory,
    _doppler_factor_cos,
    _level_terms,
    _terms,
    breakdown_rows,
    convection_mach,
    density_exponent_w,
    directivity_cos_arrays,
    effective_jet_speed,
    leq,
    leq_from_levels,
    levels_arrays,
    levels_at,
    range_terms,
    slant_range_arrays,
    speed_height_terms,
    total_consumption,
)

PARAMS = EngineNoiseParams()
MODEL = AircraftModel()


def oracle_level(z, obs: Observer, p: EngineNoiseParams,
                 cos_theta: float | None = None) -> float:
    """Independent term-by-term evaluation of the overall level at the
    node state z = (V, gamma, chi, x, y, h)."""
    V, gamma, chi, x, y, h = z
    rho = 1.225 * (1.0 - 22.6e-6 * h) ** 4.26
    c = 340.29 * (rho / 1.225) ** (1.0 / 8.52)
    R = math.sqrt((x - obs.x) ** 2 + (y - obs.y) ** 2 + h ** 2)
    R = max(R, 1.0)
    if cos_theta is None:
        ex = math.cos(gamma) * math.cos(chi)
        ey = math.cos(gamma) * math.sin(chi)
        ez = math.sin(gamma)
        cos_theta = (ex * (obs.x - x) + ey * (obs.y - y) + ez * (-h)) / R
    ve = p.v1 * (1.0 - V / p.v1) ** (2.0 / 3.0)
    q = (ve / c) ** 3.5
    w = 3.0 * q / (0.6 + q) - 1.0
    mc = 0.62 * (p.v1 - V) / c
    cd = (1.0 + mc * cos_theta) ** 2 + 0.04 * mc ** 2
    M = V / c
    return (141.0
            + 10.0 * math.log10((p.rho1 / rho) ** w)
            + 10.0 * math.log10((ve / c) ** 7.5)
            + 3.0 * math.log10(2.0 * p.s1 / (math.pi * p.d ** 2) + 0.5)
            + 10.0 * math.log10((1.0 - p.v2 / p.v1) ** p.me
                                + 1.2 * (1.0 + p.s2 * p.v2 ** 2 / (p.s1 * p.v1 ** 2)) ** 4
                                / (1.0 + p.s2 / p.s1) ** 3)
            + 10.0 * math.log10(p.s1)
            + p.temp_term_coeff * math.log10(p.tau1 / p.tau2)
            + 10.0 * math.log10((rho / 1.225) ** 2 * (c / 340.29) ** 4)
            - 20.0 * math.log10(R)
            - 15.0 * math.log10(cd)
            - 10.0 * math.log10(1.0 - M * cos_theta))


def level(z, obs: Observer, params: EngineNoiseParams = PARAMS) -> float:
    """levels_arrays at the one node state z = (V, gamma, chi, x, y, h)."""
    return float(levels_arrays(*z, obs, params))


def resting_trajectory(z) -> Trajectory:
    """Two nodes, both at state z: a trajectory breakdown_rows can tabulate."""
    return Trajectory(times=[0.0, 1.0], states=[z, z], controls=np.zeros((1, 3)))


# (V, gamma, chi, x, y, h)
states = st.tuples(
    st.floats(60.0, 200.0),
    st.floats(-0.3, 0.3),
    st.floats(-1.2, 1.2),
    st.floats(-8e4, 8e4),
    st.floats(-2e4, 2e4),
    st.floats(50.0, 10000.0),
)
observers = st.builds(Observer, x=st.floats(-7e4, 7e4), y=st.floats(-1e4, 1e4))


class TestDistance:
    def test_directly_below(self):
        assert slant_range_arrays(500.0, -200.0, 1000.0, Observer(500.0, -200.0)) == 1000.0

    def test_three_four_five(self):
        d = slant_range_arrays(3000.0, 4000.0, 0.01, Observer(0.0, 0.0))
        assert d == pytest.approx(5000.0, rel=1e-9)

    def test_near_field_clamp(self):
        assert slant_range_arrays(0.0, 0.0, 0.25, Observer(0.0, 0.0)) == 1.0

    @given(state=states, obs=observers)
    @settings(max_examples=120, deadline=None)
    def test_matches_euclidean(self, state, obs):
        _, _, _, x, y, h = state
        want = math.sqrt((x - obs.x) ** 2 + (y - obs.y) ** 2 + h ** 2)
        assert slant_range_arrays(x, y, h, obs) == pytest.approx(max(want, 1.0), rel=1e-12)


class TestKinematicPieces:
    def test_effective_speed_static(self):
        assert float(effective_jet_speed(0.0, PARAMS)) == PARAMS.v1

    def test_effective_speed_near_jet_speed(self):
        V = PARAMS.v1 * (1.0 - 0.001)
        want = PARAMS.v1 * 0.001 ** (2.0 / 3.0)
        assert float(effective_jet_speed(V, PARAMS)) == pytest.approx(want, rel=1e-12)

    def test_effective_speed_monotone(self):
        v = np.linspace(0.0, 350.0, 120)
        assert np.all(np.diff(effective_jet_speed(v, PARAMS)) < 0)

    def test_effective_speed_domain(self):
        with pytest.raises(DomainError):
            effective_jet_speed(PARAMS.v1, PARAMS)

    def test_density_exponent_reference(self):
        assert float(density_exponent_w(340.0, 340.0)) == pytest.approx(
            3.0 / 1.6 - 1.0, rel=1e-14)

    def test_density_exponent_limits(self):
        assert float(density_exponent_w(1e-4, 340.0)) == pytest.approx(-1.0, abs=1e-8)
        assert float(density_exponent_w(1e6, 340.0)) == pytest.approx(2.0, abs=1e-8)

    def test_convection_mach_zero(self):
        assert float(convection_mach(250.0, 250.0, 330.0)) == 0.0

    def test_convection_mach_reference(self):
        assert float(convection_mach(400.0, 100.0, 340.0)) == pytest.approx(
            0.62 * 300.0 / 340.0, rel=1e-14)

    @given(dv=st.floats(0.0, 400.0), scale=st.floats(0.1, 3.0))
    def test_convection_mach_linear(self, dv, scale):
        a = float(convection_mach(100.0 + dv, 100.0, 333.0))
        b = float(convection_mach(100.0 + scale * dv, 100.0, 333.0))
        assert b == pytest.approx(scale * a, rel=1e-12, abs=1e-12)

    def test_doppler_right_angle(self):
        mc = 0.4
        assert float(_doppler_factor_cos(mc, math.cos(math.pi / 2))) == pytest.approx(
            1.0 + 0.04 * mc * mc, rel=1e-12)

    def test_doppler_zero_mach(self):
        assert float(_doppler_factor_cos(0.0, math.cos(0.3))) == 1.0

    def test_doppler_reference(self):
        assert float(_doppler_factor_cos(0.5, 1.0)) == pytest.approx(2.26, rel=1e-14)


class TestDirectivity:
    def test_observer_below_is_right_angle(self):
        cos = directivity_cos_arrays(120.0, 0.0, 0.0, 0.0, 0.0, 2000.0, Observer(0.0, 0.0),
                                     PARAMS)
        assert cos == pytest.approx(0.0, abs=1e-12)

    def test_observer_far_ahead_is_zero(self):
        cos = directivity_cos_arrays(120.0, 0.0, 0.0, 0.0, 0.0, 10.0, Observer(1e7, 0.0),
                                     PARAMS)
        assert math.acos(min(float(cos), 1.0)) == pytest.approx(0.0, abs=1e-5)

    @given(state=states, obs=observers)
    @settings(max_examples=100, deadline=None)
    def test_matches_arccos_of_dot(self, state, obs):
        V, gamma, chi, x, y, h = state
        got = math.acos(np.clip(directivity_cos_arrays(*state, obs, PARAMS), -1.0, 1.0))
        dx, dy, dz = obs.x - x, obs.y - y, -h
        r = math.sqrt(dx * dx + dy * dy + dz * dz)
        e = (math.cos(gamma) * math.cos(chi) * dx
             + math.cos(gamma) * math.sin(chi) * dy
             + math.sin(gamma) * dz) / r
        assert got == pytest.approx(math.acos(max(-1.0, min(1.0, e))), abs=1e-9)


class TestLevel:
    def test_sea_level_altitude_term_vanishes(self):
        header, rows = breakdown_rows(resting_trajectory((100.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
                                      Observer(10000.0, 0.0), PARAMS)
        assert rows[0, header.index("altitude")] == pytest.approx(0.0, abs=1e-12)

    def test_doubling_distance_costs_six_db(self):
        speed_height = speed_height_terms(120.0, 1.0, 330.0, PARAMS, ISA)
        t1, t2 = (_terms(speed_height, range_terms(R)[1], 0.3, PARAMS)
                  for R in (5000.0, 10000.0))
        for name in TERM_NAMES:
            if name == "spreading":
                continue
            assert float(t2[name]) == pytest.approx(float(t1[name]), rel=1e-14)
        delta = float(sum(t2[n] for n in TERM_NAMES) - sum(t1[n] for n in TERM_NAMES))
        assert delta == pytest.approx(-20.0 * math.log10(2.0), rel=1e-12)

    def test_strictly_decreasing_in_distance(self):
        speed_height = speed_height_terms(120.0, 1.0, 330.0, PARAMS, ISA)
        R = np.linspace(100.0, 50000.0, 200)
        terms = _terms(speed_height, range_terms(R)[1], -0.2, PARAMS)
        totals = sum(terms[n] for n in TERM_NAMES)
        assert np.all(np.diff(totals) < 0)

    def test_pinned_reference_evaluation(self):
        z = (120.0, -0.05, 0.05, 30000.0, 2500.0, 2000.0)
        obs = Observer(0.0, 0.0)
        assert level(z, obs) == pytest.approx(oracle_level(z, obs, PARAMS), abs=1e-10)

    @given(state=states, obs=observers)
    @settings(max_examples=250, deadline=None)
    def test_matches_oracle_on_random_inputs(self, state, obs):
        assert level(state, obs) == pytest.approx(oracle_level(state, obs, PARAMS), abs=1e-9)

    @given(state=states, obs=observers)
    @settings(max_examples=200, deadline=None)
    def test_term_sum_equals_total(self, state, obs):
        traj = resting_trajectory(state)
        header, rows = breakdown_rows(traj, obs, PARAMS)
        assert header[1:-1] == TERM_NAMES
        assert rows[0, 1:-1].sum() == pytest.approx(rows[0, -1], abs=1e-10)
        assert np.array_equal(rows[:, -1], levels_at(traj, (obs,), PARAMS)[0])

    def test_track_axis_mode_ignores_attitude(self):
        params = EngineNoiseParams(directivity_mode="track_axis",
                                   track_axis=(60000.0, 5000.0))
        obs = Observer(20000.0, 0.0)
        ref = level((130.0, -0.04, 0.06, 25000.0, 2000.0, 1800.0), obs, params)
        for gamma, chi in ((0.1, -0.3), (-0.12, 0.5), (0.0, 0.0)):
            z = (130.0, gamma, chi, 25000.0, 2000.0, 1800.0)
            assert level(z, obs, params) == pytest.approx(ref, rel=1e-14)

    def test_velocity_mode_depends_on_attitude(self):
        obs = Observer(20000.0, 0.0)
        a = (130.0, -0.04, 0.06, 25000.0, 2000.0, 1800.0)
        b = (130.0, 0.1, -0.4, 25000.0, 2000.0, 1800.0)
        assert level(a, obs) != pytest.approx(level(b, obs), abs=1e-6)

    def test_motion_term_domain_error_names_term(self):
        # supersonic convection toward the observer is rejected by the
        # motion term before anything else degenerates
        fast = EngineNoiseParams(v1=2000.0, v2=250.0)
        with pytest.raises(NoiseTermError) as err:
            level((500.0, 0.0, 0.0, 0.0, 0.0, 10.0), Observer(1e6, 0.0), fast)
        assert err.value.term == "motion"

    def test_batched_domain_error_names_the_node(self):
        # rows stack perturbations, columns are nodes: the error names the
        # node column, not the position in the flattened array
        fast = EngineNoiseParams(v1=2000.0, v2=250.0)
        V = np.full((3, 5), 130.0)
        V[2, 3] = 500.0
        zeros = np.zeros((3, 5))
        with pytest.raises(NoiseTermError) as err:
            levels_arrays(V, zeros, zeros, zeros, zeros, zeros + 10.0,
                          Observer(1e6, 0.0), fast)
        assert err.value.term == "motion"
        assert str(err.value).endswith("at node 3")

    @pytest.mark.parametrize("shape, bad", [((), ()), ((5,), (3,)), ((3, 5), (2, 3))],
                             ids=["0-d", "nodes", "stacked-complex"])
    def test_guards_raise_as_before_at_every_shape(self, shape, bad):
        fast = EngineNoiseParams(v1=2000.0, v2=250.0)
        node = f"at node {bad[-1] if bad else 0}"
        # stacked points are complex-step perturbations
        step = 1e-20j if len(shape) == 2 else 0.0

        def args(**values):
            base = dict(V=130.0, gamma=0.0, chi=0.0, x=0.0, y=0.0, h=10.0)
            cols = {k: np.full(shape, v + step) for k, v in base.items()}
            for k, v in values.items():
                cols[k][bad] = v
            return [cols[k] for k in base]

        far_ahead = Observer(1e6, 0.0)
        # a nonpositive log argument names the node column
        with pytest.raises(NoiseTermError) as err:
            levels_arrays(*args(V=500.0), far_ahead, fast)
        assert err.value.term == "motion"
        assert str(err.value).endswith(node)
        # airspeed at the inner jet speed leaves the jet-speed law
        with pytest.raises(DomainError):
            levels_arrays(*args(V=PARAMS.v1), far_ahead, PARAMS)
        # and heights beyond the density law
        with pytest.raises(DomainError):
            levels_arrays(*args(h=1.0 / ISA.lapse + 1.0), far_ahead, PARAMS)
        # NaN compares false and passes every guard
        for name in ("V", "gamma", "h"):
            with np.errstate(invalid="ignore"):
                out = levels_arrays(*args(**{name: math.nan}), far_ahead, fast)
            assert np.isnan(out[bad])

    def test_temp_coefficient_switch(self):
        p10 = EngineNoiseParams(temp_term_coeff=10.0)
        z = (120.0, 0.0, 0.0, 0.0, 0.0, 1000.0)
        obs = Observer(5000.0, 0.0)
        delta = level(z, obs, p10) - level(z, obs)
        assert delta == pytest.approx(9.0 * math.log10(PARAMS.tau1 / PARAMS.tau2),
                                      rel=1e-12)


def circular_trajectory(n=64, radius=8000.0, height=1500.0, V=120.0):
    """Level circle around the origin: constant L_P for the centered observer."""
    omega = V / radius
    t = np.linspace(0.0, 2.0 * math.pi / omega / 4.0, n + 1)  # quarter turn
    phi = omega * t
    states = np.column_stack([
        np.full(n + 1, V),
        np.zeros(n + 1),
        phi + math.pi / 2.0,
        radius * np.cos(phi),
        radius * np.sin(phi),
        np.full(n + 1, height),
    ])
    controls = np.tile([0.05, 0.5, 0.0], (n, 1))
    return Trajectory(times=t, states=states, controls=controls)


def simulated_trajectory(n=100) -> Trajectory:
    """The reference scenario's initial-guess controls flown from its first node."""
    from noisedescent.scenarios import default_scenario, initial_guess
    from noisedescent.transcription import simulate
    scn = default_scenario(n_intervals=n)
    Z, U, _ = scn.layout().unpack(initial_guess(scn))
    return simulate(Z[0], U, scn.grid(), scn.aircraft, scn.atmosphere)


class TestObserverAxis:
    @pytest.mark.parametrize("params", [
        PARAMS,
        EngineNoiseParams(directivity_mode="track_axis", track_axis=(60000.0, 5000.0)),
    ], ids=["velocity_vector", "track_axis"])
    def test_level_matrix_matches_the_per_observer_loop(self, params):
        traj = simulated_trajectory()
        observers = [Observer(x, y) for x, y in SWEEP_OBSERVERS]
        matrix = levels_at(traj, observers, params)
        assert matrix.shape == (12, traj.n_intervals + 1)
        # the kernel on one Observer at a time, as the solver's objective calls it
        loop = [np.real(levels_arrays(*traj.states.T, obs, params)) for obs in observers]
        assert np.array_equal(matrix, np.array(loop))
        assert np.array_equal(matrix, np.array([levels_at(traj, (obs,), params)[0]
                                                for obs in observers]))

    def test_observer_axis_names_the_node(self):
        # the motion term fails only for the observer ahead, at node 3
        fast = EngineNoiseParams(v1=2000.0, v2=250.0)
        states = np.tile([130.0, 0.0, 0.0, 0.0, 0.0, 10.0], (5, 1))
        states[3, 0] = 500.0
        traj = Trajectory(times=np.arange(5.0), states=states, controls=np.zeros((4, 3)))
        with pytest.raises(NoiseTermError) as err:
            levels_at(traj, [Observer(-1e6, 0.0), Observer(1e6, 0.0)], fast)
        assert err.value.term == "motion"
        assert str(err.value).endswith("at node 3")


class TestLeq:
    def test_constant_level_gives_same_leq(self):
        traj = circular_trajectory()
        obs = Observer(0.0, 0.0)
        levels = levels_at(traj, (obs,), PARAMS)[0]
        assert np.ptp(levels) < 1e-9
        assert leq(traj, obs, PARAMS) == pytest.approx(levels[0], abs=1e-9)

    @given(shift=st.floats(-30.0, 30.0))
    @settings(max_examples=60, deadline=None)
    def test_uniform_shift_moves_leq_exactly(self, shift):
        times = np.linspace(0.0, 100.0, 41)
        rng = np.random.default_rng(3)
        levels = 50.0 + 10.0 * rng.standard_normal(41)
        a = leq_from_levels(times, levels)
        b = leq_from_levels(times, levels + shift)
        assert b == pytest.approx(a + shift, rel=1e-12)

    def test_two_segment_closed_form(self):
        # piecewise-constant levels L1 then L2 over equal halves; the
        # trapezoid sees one averaged node at the jump
        L1, L2, T = 60.0, 40.0, 100.0
        n = 10
        times = np.linspace(0.0, T, n + 1)
        levels = np.where(times < T / 2, L1, L2)
        e1, e2 = 10.0 ** (0.1 * L1), 10.0 ** (0.1 * L2)
        h = T / n
        # nodes 0..4 at e1, node 5 at e2... trapezoid weights h except ends
        energy = np.where(times < T / 2, e1, e2)
        integral = np.trapezoid(energy, times)
        want = 10.0 * math.log10(integral / T)
        assert leq_from_levels(times, levels) == pytest.approx(want, rel=1e-14)
        # hand-computed: 4.5 intervals at e1, 5.5 at e2 (jump interval averages)
        hand = 10.0 * math.log10((4.5 * h * e1 + 5.5 * h * e2) / T)
        assert leq_from_levels(times, levels) == pytest.approx(hand, rel=1e-12)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_leq_between_min_and_max_level(self, seed):
        rng = np.random.default_rng(seed)
        times = np.linspace(0.0, 60.0, 31)
        levels = 45.0 + 15.0 * rng.standard_normal(31)
        val = leq_from_levels(times, levels)
        assert levels.min() - 1e-9 <= val <= levels.max() + 1e-9

    def test_observer_permutation_invariance(self):
        traj = circular_trajectory()
        obs_list = [Observer(0.0, 0.0), Observer(5000.0, 1000.0), Observer(-2000.0, 3000.0)]
        fwd = [leq(traj, o, PARAMS) for o in obs_list]
        rev = [leq(traj, o, PARAMS) for o in reversed(obs_list)]
        assert fwd == rev[::-1]


class TestConsumption:
    def test_zero_throttle_burns_nothing(self):
        traj = circular_trajectory()
        z = Trajectory(times=traj.times, states=traj.states,
                       controls=traj.controls * [1.0, 0.0, 1.0])
        assert total_consumption(z, MODEL) == 0.0

    def test_constant_thrust_closed_form(self):
        # level constant-V flight: thrust constant along the path
        n = 20
        times = np.linspace(0.0, 200.0, n + 1)
        states = np.column_stack([
            np.full(n + 1, 120.0), np.zeros(n + 1), np.zeros(n + 1),
            120.0 * times, np.zeros(n + 1), np.full(n + 1, 1000.0)])
        controls = np.tile([0.03, 0.4, 0.0], (n, 1))
        traj = Trajectory(times=times, states=states, controls=controls)
        from noisedescent.flight_dynamics import thrust
        T = float(thrust(1000.0, 120.0, 0.4, MODEL))
        assert total_consumption(traj, MODEL) == pytest.approx(
            MODEL.C_SR * T * 200.0, rel=1e-12)

    def test_refined_grid_agrees(self):
        # generic smooth trajectory: 10x refinement moves the quadrature
        # by well under 0.5%
        from noisedescent.transcription import Grid, simulate
        z0 = np.array([150.0, -0.03, 0.05, 0.0, 0.0, 3000.0])
        grid = Grid(0.0, 300.0, 30)
        controls = np.tile([0.06, 0.45, 0.0], (30, 1))
        coarse = simulate(z0, controls, grid, MODEL)
        fine_grid = Grid(0.0, 300.0, 300)
        fine = simulate(z0, np.repeat(controls, 10, axis=0), fine_grid, MODEL)
        a = total_consumption(coarse, MODEL)
        b = total_consumption(fine, MODEL)
        assert abs(a - b) / b < 0.005


class TestTrajectoryType:
    def test_rejects_non_equidistant(self):
        for times, bad in (([0.0, 1.0, 3.0], 2), ([0.0, 1.0, 1.0, 2.0], 2),
                           ([0.0, -1.0, -2.0], 1), ([0.0, 1.0, 2.0 + 1e-6, 3.0], 2)):
            with pytest.raises(ValueError, match=rf"times\[{bad}\] does not"):
                Trajectory(times=np.array(times), states=np.zeros((len(times), 6)) + 100.0,
                           controls=np.zeros((len(times) - 1, 3)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.linspace(0, 1, 4), states=np.zeros((3, 6)),
                       controls=np.zeros((3, 3)))

    def test_breakdown_rows_align_with_levels(self):
        traj = circular_trajectory(n=8)
        obs = Observer(0.0, 0.0)
        header, rows = breakdown_rows(traj, obs, PARAMS)
        assert header[0] == "t" and header[-1] == "total"
        totals = np.array([r[-1] for r in rows])
        assert np.array_equal(totals, levels_at(traj, (obs,), PARAMS)[0])
        # node by node on scalars the log10 and powers may round differently
        for k, row in enumerate(rows):
            terms = _level_terms(*traj.states[k], obs, PARAMS, ISA)
            assert row[1:-1] == pytest.approx([float(terms[n]) for n in TERM_NAMES],
                                              rel=0.0, abs=1e-12)


class TestParamsValidation:
    def test_jet_speed_ordering_enforced(self):
        with pytest.raises(ValueError):
            EngineNoiseParams(v1=200.0, v2=250.0)

    def test_me_default_follows_area_ratio(self):
        p = EngineNoiseParams(s1=0.4, s2=1.2)
        assert p.me == pytest.approx(1.1 * math.sqrt(1.2 / 0.4), rel=1e-12)

    def test_bad_directivity_mode(self):
        with pytest.raises(ValueError):
            EngineNoiseParams(directivity_mode="sideways")
