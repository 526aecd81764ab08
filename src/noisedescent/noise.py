"""Jet mixing noise at a ground observer and trajectory-level noise/fuel metrics.

The instantaneous overall level combines a semi-empirical coaxial-jet
source level with spherical spreading, an altitude correction and the
kinematic (convection + relative motion) corrections.  The equivalent
continuous level over the descent is the log of the time-averaged
acoustic energy.  Atmospheric absorption, ground effect and frequency
corrections are not modelled.

Functions are complex-step safe for derivative propagation, like the
flight dynamics module.

The level kernel works componentwise over the node axis, which is the
last axis of its inputs.  Leading axes stack points (the complex-step
perturbations of the transcription) or observers: `levels_at` scores a
trajectory at several observers in one kernel call, passing their
coordinates as (n_obs, 1) columns, so the terms that do not depend on
the observer (density, jet speed, convection Mach number) are computed
once.  `leq` is its one-observer case.

The kernel has three parts.  The (V, h) part (`speed_height_terms`)
holds the jet speed, the density exponent, the convection and flight
Mach numbers and the density-ratio, jet-velocity and altitude terms; the
(x, y, h) part (`range_terms`) the slant range and the spreading term;
the per-copy rest (`_terms`) the directivity, the convection and motion
terms and the sum in TERM_NAMES order.  The log arguments are checked in
that order too: density ratio, jet velocity, spreading, convection,
motion.  Like `flight_dynamics.rhs_arrays` next to its `trig`,
`levels_arrays` takes the state trigonometry `path_trig(gamma, chi)` as
`path` (read in velocity_vector mode only), the (V, h) part as
`speed_height` and the (x, y, h) part as `ranges`, and computes each
itself when left out: the transcription's Leq Hessian stencil passes
them in, each computed once per distinct input of its columns and
gathered where the kernel unpacks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, NoiseTermError, SettingError
from .flight_dynamics import (
    ISA,
    AircraftModel,
    Atmosphere,
    _any,
    air_at,
    fuel_flow_arrays,
    path_trig,
)

_NEAR_FIELD_R = 1.0  # m; slant range is clamped here to keep logs finite

DIRECTIVITY_MODES = ("velocity_vector", "track_axis")

TERM_NAMES = (
    "baseline",
    "density_ratio",
    "jet_velocity",
    "nozzle_geometry",
    "coaxial_mixing",
    "nozzle_area",
    "temperature_ratio",
    "altitude",
    "spreading",
    "convection",
    "motion",
)


@dataclass(frozen=True)
class EngineNoiseParams:
    """Coaxial-nozzle jet parameters plus level-model switches.

    Defaults describe a representative two-engine narrow-body turbofan;
    they are not measured data and are meant to be overridden from the
    config file.  ``me`` controls how strongly the outer stream masks
    inner-stream mixing noise; when left unset it defaults to
    1.1*sqrt(s2/s1).
    """

    v1: float = 400.0    # jet gas speed, inner contour, m/s
    v2: float = 250.0    # jet gas speed, outer contour, m/s
    s1: float = 0.35     # nozzle area, inner contour, m^2
    s2: float = 1.10     # nozzle area, outer contour, m^2
    tau1: float = 700.0  # temperature, inner contour, K
    tau2: float = 330.0  # temperature, outer contour, K
    rho1: float = 0.60   # gas density, inner contour, kg/m^3
    d: float = 1.20      # nozzle diameter, m
    me: Optional[float] = None  # interaction exponent; None -> 1.1*sqrt(s2/s1)
    temp_term_coeff: float = 1.0  # coefficient of the log10(tau1/tau2) term
    directivity_mode: str = "velocity_vector"  # or "track_axis"
    track_axis: tuple[float, float] = (1.0, 0.0)  # horizontal axis for track_axis mode

    def __post_init__(self):
        for name in ("v1", "v2", "me", "temp_term_coeff"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise SettingError(f"engine noise parameter {name} must be finite", name)
        if not (self.v1 > self.v2 >= 0.0):
            raise SettingError("jet speeds must satisfy v1 > v2 >= 0", "v1", "v2")
        for name in ("s1", "s2", "tau1", "tau2", "rho1", "d"):
            if not 0 < getattr(self, name) < math.inf:
                raise SettingError(
                    f"engine noise parameter {name} must be finite and strictly positive", name)
        if self.me is None:
            object.__setattr__(self, "me", 1.1 * math.sqrt(self.s2 / self.s1))
        if self.directivity_mode not in DIRECTIVITY_MODES:
            raise ValueError(f"unknown directivity mode {self.directivity_mode!r}")
        ax, ay = self.track_axis
        if not 0 < math.hypot(ax, ay) < math.inf:
            raise SettingError("track_axis must be a finite nonzero horizontal vector",
                               "track_axis")


@dataclass(frozen=True)
class Observer:
    """Ground receiver position (height 0)."""

    x: float  # m
    y: float  # m

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise SettingError("observer coordinates must be finite", "observers")


@dataclass(frozen=True)
class Trajectory:
    """Sampled flight path: equidistant times, node states, interval controls."""

    times: np.ndarray     # (N+1,)
    states: np.ndarray    # (N+1, 6), columns per flight_dynamics order
    controls: np.ndarray  # (N, 3)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        controls = np.asarray(self.controls, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "controls", controls)
        n = times.shape[0] - 1
        if n < 1:
            raise ValueError("trajectory needs at least two grid times")
        if states.shape != (n + 1, 6):
            raise ValueError(f"states must have shape ({n + 1}, 6), got {states.shape}")
        if controls.shape != (n, 3):
            raise ValueError(f"controls must have shape ({n}, 3), got {controls.shape}")
        steps = np.diff(times)
        bad = np.flatnonzero((steps <= 0) | ~np.isclose(steps, steps[0], rtol=1e-9, atol=1e-12))
        if bad.size:
            raise ValueError("grid times must increase in equal steps, "
                             f"and times[{bad[0] + 1}] does not")

    @property
    def n_intervals(self) -> int:
        return self.times.shape[0] - 1

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def node_controls(self) -> np.ndarray:
        """Controls sampled at every node, the last interval's repeated at t_N."""
        return np.vstack([self.controls, self.controls[-1]])


class _ObserverColumns(NamedTuple):
    """Coordinates of several observers as (n_obs, 1) columns; the kernel
    takes them in place of one Observer."""

    x: np.ndarray
    y: np.ndarray


def _check_log_arg(term: str, value) -> None:
    bad = value.real <= 0.0
    if _any(bad):
        # the node axis is the last one; leading axes stack perturbations
        # or observers
        idx = int(np.argwhere(np.atleast_1d(bad))[0][-1])
        raise NoiseTermError(term, f"nonpositive log argument at node {idx}")


def slant_range_arrays(x, y, h, obs: Observer):
    """Source-to-observer distance, clamped to the near-field floor of 1 m."""
    dx = np.asarray(x) - obs.x
    dy = np.asarray(y) - obs.y
    r = np.sqrt(dx * dx + dy * dy + np.asarray(h) ** 2)
    return np.where(np.real(r) < _NEAR_FIELD_R, _NEAR_FIELD_R, r)


def directivity_cos_arrays(V, gamma, chi, x, y, h, obs: Observer,
                           params: EngineNoiseParams, r=None, path=None):
    """cos(theta) between the emission axis and the line to the observer.

    velocity_vector mode uses the instantaneous velocity direction;
    track_axis mode uses a fixed horizontal axis, which removes the
    gamma/chi dependence of the level.  `r` is the slant range and `path`
    is `path_trig(gamma, chi)` when the caller already has them.
    """
    dx = obs.x - np.asarray(x)
    dy = obs.y - np.asarray(y)
    dz = -np.asarray(h)
    if r is None:
        r = slant_range_arrays(x, y, h, obs)
    if params.directivity_mode == "velocity_vector":
        ez, cg, sin_chi, cos_chi = path or path_trig(np.asarray(gamma), np.asarray(chi))
        ex = cg * cos_chi
        ey = cg * sin_chi
    else:
        ax, ay = params.track_axis
        norm = math.hypot(ax, ay)
        ex, ey, ez = ax / norm, ay / norm, 0.0
    return (ex * dx + ey * dy + ez * dz) / r


def effective_jet_speed(V, params: EngineNoiseParams):
    """Effective jet speed v1*(1 - V/v1)**(2/3); jet axis alignment neglected."""
    V = np.asarray(V)
    if _any(V.real >= params.v1):
        raise DomainError(f"airspeed must stay below the inner jet speed {params.v1} m/s")
    return params.v1 * (1.0 - V / params.v1) ** (2.0 / 3.0)


def density_exponent_w(Ve, c):
    """Exponent of the density ratio: 3*(Ve/c)**3.5/(0.6+(Ve/c)**3.5) - 1."""
    q = (np.asarray(Ve) / np.asarray(c)) ** 3.5
    return 3.0 * q / (0.6 + q) - 1.0


def convection_mach(v1, V, c):
    """Eddy convection Mach number 0.62*(v1 - V)/c."""
    return 0.62 * (np.asarray(v1) - np.asarray(V)) / np.asarray(c)


def _doppler_factor_cos(Mc, cos_theta):
    return (1.0 + Mc * cos_theta) ** 2 + 0.04 * Mc * Mc


def speed_height_terms(V, rho, c, params: EngineNoiseParams, atm: Atmosphere):
    """The level's (V, h) part from the airspeed and the air at the flight
    point: the density-ratio, jet-velocity and altitude terms, then the
    convection and flight Mach numbers the per-copy rest reads."""
    p = params
    ve = effective_jet_speed(V, p)
    w = density_exponent_w(ve, c)
    density_ratio = p.rho1 / rho
    _check_log_arg("density_ratio", density_ratio)
    velocity_ratio = ve / c
    _check_log_arg("jet_velocity", velocity_ratio)
    return (10.0 * w * np.log10(density_ratio),
            75.0 * np.log10(velocity_ratio),
            10.0 * np.log10((rho / atm.rho_isa) ** 2 * (c / atm.c_isa) ** 4),
            convection_mach(p.v1, V, c),
            np.asarray(V) / np.asarray(c))


def range_terms(R):
    """The level's (x, y, h) part from the slant range: the range itself,
    which the directivity reads, and the spreading term."""
    _check_log_arg("spreading", R)
    return R, -20.0 * np.log10(R)


def _terms(speed_height, spreading, cos_theta, params: EngineNoiseParams) -> dict:
    """All level terms from the (V, h) part, the spreading term and the
    directivity: the per-copy rest of the kernel."""
    p = params
    density_term, jet_term, altitude_term, mc, m_flight = speed_height
    cd = _doppler_factor_cos(mc, cos_theta)
    _check_log_arg("convection", cd)
    motion_arg = 1.0 - m_flight * cos_theta
    _check_log_arg("motion", motion_arg)
    # both summands are positive: EngineNoiseParams enforces v1 > v2 >= 0
    # and positive nozzle areas
    mixing = (1.0 - p.v2 / p.v1) ** p.me \
        + 1.2 * (1.0 + p.s2 * p.v2 ** 2 / (p.s1 * p.v1 ** 2)) ** 4 \
        / (1.0 + p.s2 / p.s1) ** 3

    return {
        "baseline": 141.0,
        "density_ratio": density_term,
        "jet_velocity": jet_term,
        "nozzle_geometry": 3.0 * math.log10(2.0 * p.s1 / (math.pi * p.d ** 2) + 0.5),
        "coaxial_mixing": 10.0 * math.log10(mixing),
        "nozzle_area": 10.0 * math.log10(p.s1),
        "temperature_ratio": p.temp_term_coeff * math.log10(p.tau1 / p.tau2),
        "altitude": altitude_term,
        "spreading": spreading,
        "convection": -15.0 * np.log10(cd),
        "motion": -10.0 * np.log10(motion_arg),
    }


def _level_terms(V, gamma, chi, x, y, h, obs: Observer, params: EngineNoiseParams,
                 atm: Atmosphere, path=None, speed_height=None, ranges=None) -> dict:
    """All level terms at the observer from the node states.

    `speed_height` is `speed_height_terms` and `ranges` is `range_terms`
    of these states when the caller has them; each is an iterable of
    arrays, unpacked where the kernel reads it.  The engine constants
    (baseline, nozzle geometry, coaxial mixing, nozzle area, temperature
    ratio) are plain floats."""
    if speed_height is None:
        speed_height = speed_height_terms(V, *air_at(h, atm), params, atm)
    if ranges is None:
        ranges = range_terms(slant_range_arrays(x, y, h, obs))
    R, spreading = ranges
    cos_theta = directivity_cos_arrays(V, gamma, chi, x, y, h, obs, params, R, path)
    return _terms(speed_height, spreading, cos_theta, params)


def _sum_terms(terms: dict):
    total = terms["baseline"]
    for name in TERM_NAMES[1:]:
        total = total + terms[name]
    return total


def levels_arrays(V, gamma, chi, x, y, h, obs: Observer, params: EngineNoiseParams,
                  atm: Atmosphere = ISA, path=None, speed_height=None, ranges=None):
    """Overall sound pressure level at the observer, dB, vectorized over nodes.

    `obs` is one Observer, or the (n_obs, 1) coordinate columns of
    several, which add a leading observer axis to the result.  `path` is
    `path_trig(gamma, chi)`, `speed_height` the kernel's (V, h) part and
    `ranges` its (x, y, h) part (`_level_terms`) when the caller has them
    already; each is computed here otherwise.
    """
    return _sum_terms(_level_terms(V, gamma, chi, x, y, h, obs, params, atm,
                                   path, speed_height, ranges))


def levels_at(traj: Trajectory, observers, params: EngineNoiseParams,
              atm: Atmosphere = ISA) -> np.ndarray:
    """L_P at every grid node for each observer, dB, shape (n_obs, N+1).

    One kernel call for all observers; row j equals what the kernel gives
    for observer j alone, bit for bit.
    """
    Z = traj.states
    cols = _ObserverColumns(np.array([o.x for o in observers], dtype=float)[:, None],
                            np.array([o.y for o in observers], dtype=float)[:, None])
    return np.real(levels_arrays(Z[:, 0], Z[:, 1], Z[:, 2], Z[:, 3], Z[:, 4], Z[:, 5],
                                 cols, params, atm))


def leq_from_levels(times, levels):
    """Equivalent continuous level of sampled L_P values, dB.

    Trapezoidal quadrature of 10**(0.1*L_P) over the horizon, divided by
    its length, then back to decibels.  `levels` may hold one row per
    observer, (n_obs, N+1): each row reduces to the bits of its own 1-D
    call.
    """
    times = np.asarray(times)
    energy = 10.0 ** (0.1 * np.asarray(levels))
    integral = np.trapezoid(energy, times)
    return 10.0 * np.log10(integral / (times[-1] - times[0]))


def leq(traj: Trajectory, obs: Observer, params: EngineNoiseParams,
        atm: Atmosphere = ISA) -> float:
    """Equivalent continuous level over the whole trajectory, dB."""
    return float(leq_from_levels(traj.times, levels_at(traj, (obs,), params, atm)[0]))


def total_consumption(traj: Trajectory, model: AircraftModel,
                      atm: Atmosphere = ISA) -> float:
    """Fuel burned over the trajectory, kg (trapezoidal quadrature)."""
    Z = traj.states
    delta = traj.node_controls()[:, 1]
    flows = fuel_flow_arrays(Z[:, 0], Z[:, 5], delta, model, atm)
    return float(np.trapezoid(flows, traj.times))


def breakdown_rows(traj: Trajectory, obs: Observer, params: EngineNoiseParams,
                   atm: Atmosphere = ISA):
    """(header, rows) of the per-node term table, for CSV export.

    `rows` is an array with one row per node and one column per header
    entry: the time, every term of TERM_NAMES and their total, which
    equals the `levels_at` row of `obs` exactly.
    """
    header = ("t",) + TERM_NAMES + ("total",)
    Z = traj.states
    terms = _level_terms(Z[:, 0], Z[:, 1], Z[:, 2], Z[:, 3], Z[:, 4], Z[:, 5],
                         obs, params, atm)
    rows = np.empty((traj.n_intervals + 1, len(header)))
    rows[:, 0] = traj.times
    for i, name in enumerate(TERM_NAMES, start=1):
        rows[:, i] = np.real(terms[name])
    rows[:, -1] = np.real(_sum_terms(terms))
    return header, rows
