"""Point-mass flight dynamics of a transport aircraft in descent.

Closed-form atmosphere, thrust and aerodynamic force models, the
six-state equations of motion and the fuel-flow integrand.  Everything
here is a pure function over immutable inputs.

States and controls are plain arrays in the component orders below, and
every evaluation routine works componentwise on scalars or numpy arrays
of any shape; there is no per-point wrapper.  `rhs_arrays` and
`air_density` keep scalars as scalars: they do not promote their inputs
to arrays, so one node given as Python floats runs on scalars from start
to end, several times faster than on 0-d arrays, with the same bits
(float arithmetic is IEEE arithmetic, a float `**` calls libm `pow` as
`np.float64` does, and `np.sin`/`np.cos` of a float run numpy's loop).

The controls are constant over a Runge-Kutta step, so both stages of a
step share one `control_trig(alpha, mu)`, passed to `rhs_arrays` as the
keyword `trig`.  Next to it, `rhs_arrays` takes the state trigonometry
`path_trig(gamma, chi)` as `path` and the density and speed of sound
`air_at(h)` as `air`, each computed by the kernel itself when left out.
Each of these factors is a function of one input column, so a caller
whose stack repeats few distinct values of that column (a Hessian
stencil) computes them once per distinct value and passes them in by
keyword; the result has the bits of the kernel's own factors.

The routines are complex-step safe: feeding complex inputs propagates
derivative information through every branch, which the transcription
layer uses to build machine-precision Jacobians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SettingError, SingularStateError

# State vector component order: (V, gamma, chi, x, y, h).
IV, IGAMMA, ICHI, IX, IY, IH = range(6)
STATE_NAMES = ("V", "gamma", "chi", "x", "y", "h")

# Control vector component order: (alpha, delta_x, mu).
IALPHA, IDELTA_X, IMU = range(3)
CONTROL_NAMES = ("alpha", "delta_x", "mu")

_SINGULARITY_EPS = 1e-9


def _any(mask) -> bool:
    """Whether any entry of a boolean array or scalar is set.

    The domain guards test ``_any(x.real < c)``: NaN compares false and
    passes, as with ``.any()``.  A scalar mask, the bool of a one-node
    call on floats, is read directly, without a reduction.
    """
    return bool(np.count_nonzero(mask)) if getattr(mask, "ndim", 0) else bool(mask)


@dataclass(frozen=True)
class Atmosphere:
    """Sea-level reference values and the density power law.

    Density decreases as rho_isa * (1 - lapse*h)**exponent, valid for
    h < 1/lapse.  The speed of sound follows the same law with the
    ISA-consistent exponent 1/(2*exponent) so that Mach numbers in the
    propulsion and noise models share one atmosphere.
    """

    rho_isa: float = 1.225    # sea-level density, kg/m^3
    c_isa: float = 340.29     # sea-level speed of sound, m/s
    lapse: float = 22.6e-6    # density lapse coefficient, 1/m
    exponent: float = 4.26    # density power-law exponent

    def __post_init__(self):
        for name in ("rho_isa", "c_isa", "lapse", "exponent"):
            if not 0 < getattr(self, name) < math.inf:
                raise SettingError(
                    f"atmosphere parameter {name} must be finite and strictly positive", name)

    @property
    def max_height(self) -> float:
        """Height at which the density law reaches zero, m."""
        return 1.0 / self.lapse


ISA = Atmosphere()


@dataclass(frozen=True)
class AircraftModel:
    """Mass, aerodynamic and propulsion parameters of one aircraft.

    Defaults are representative of a two-engine narrow-body transport in
    approach configuration; they are placeholders chosen for
    reproducibility, not published data, and every field can be
    overridden from the config file.  Cx0 reflects the high-drag
    (gear/flaps) configuration: with a clean-wing value the fixed-time
    descent cannot dissipate enough energy against the throttle floor
    and the reference scenario has no feasible trajectory.
    """

    mass: float = 60000.0      # kg
    S: float = 122.0           # wing area, m^2
    Cz_alpha: float = 5.0      # lift-curve slope, 1/rad
    Cx0: float = 0.075         # zero-lift drag coefficient, approach config
    k_i: float = 0.05          # induced drag parameter
    T0: float = 234000.0       # full thrust (both engines), N
    C_SR: float = 1.0e-5       # specific fuel consumption, kg/(N*s)
    g: float = 9.8             # m/s^2
    rho0: float = 1.225        # reference density for the thrust law, kg/m^3

    def __post_init__(self):
        for name in ("mass", "S", "Cz_alpha", "Cx0", "k_i", "T0", "C_SR", "g", "rho0"):
            if not 0 < getattr(self, name) < math.inf:
                raise SettingError(
                    f"aircraft parameter {name} must be finite and strictly positive", name)


def air_density(h, atm: Atmosphere = ISA):
    """Density at height h: rho_isa * (1 - lapse*h)**exponent, kg/m^3."""
    base = 1.0 - atm.lapse * h
    if _any(base.real <= 0.0):
        raise DomainError(
            f"height beyond density-law domain (h must stay below {atm.max_height:.0f} m)")
    return atm.rho_isa * base ** atm.exponent


def air_at(h, atm: Atmosphere = ISA):
    """(density, speed of sound) at height h, the atmosphere `rhs_arrays`
    and `noise.levels_arrays` read."""
    rho = air_density(h, atm)
    return rho, _sound_speed(rho, atm)


def _sound_speed(rho, atm: Atmosphere):
    """Speed of sound from the density the power law gives, m/s.

    Closes the density power law consistently: temperature varies as
    rho**(1/exponent) along the law, and c ~ sqrt(temperature), so
    c = c_isa * (rho/rho_isa)**(1/(2*exponent)).
    """
    return atm.c_isa * (rho / atm.rho_isa) ** (1.0 / (2.0 * atm.exponent))


def thrust(h, V, delta_x, model: AircraftModel, atm: Atmosphere = ISA):
    """Available thrust T0 * delta_x * (rho/rho0) * (1 - M + M^2/2), N.

    The Mach factor is a subsonic fit; it grows again past M = 1, so
    supersonic inputs are rejected rather than extrapolated.
    """
    rho = air_density(h, atm)
    return _thrust(rho, _sound_speed(rho, atm), np.asarray(V), delta_x, model)


def _thrust(rho, c, V, delta_x, model: AircraftModel):
    """Thrust from the density and speed of sound at the flight point, N."""
    M = V / c
    if _any(M.real >= 1.0):
        raise DomainError("thrust model is valid for M < 1 only")
    return model.T0 * delta_x * (rho / model.rho0) * (1.0 - M + 0.5 * M * M)


def drag(h, V, alpha, model: AircraftModel, atm: Atmosphere = ISA):
    """Drag 0.5*rho*S*V^2*(Cx0 + k_i*Cz_alpha^2*alpha^2), N."""
    q = 0.5 * air_density(h, atm) * np.asarray(V) ** 2
    cz2 = model.Cz_alpha ** 2
    return q * model.S * (model.Cx0 + model.k_i * cz2 * np.asarray(alpha) ** 2)


def control_trig(alpha, mu):
    """(sin alpha, cos alpha, sin mu, cos mu), the control trigonometry
    `rhs_arrays` reads."""
    return np.sin(alpha), np.cos(alpha), np.sin(mu), np.cos(mu)


def path_trig(gamma, chi):
    """(sin gamma, cos gamma, sin chi, cos chi), the state trigonometry
    `rhs_arrays` and the level kernel read."""
    return np.sin(gamma), np.cos(gamma), np.sin(chi), np.cos(chi)


def rhs_arrays(V, gamma, chi, x, y, h, alpha, delta_x, mu,
               model: AircraftModel, atm: Atmosphere = ISA, trig=None, path=None, air=None):
    """Equations of motion evaluated componentwise on arrays.

    Returns the six derivative arrays (V_dot, gamma_dot, chi_dot,
    x_dot, y_dot, h_dot).  Raises SingularStateError when V or
    cos(gamma) is numerically zero (the chi equation divides by both).
    The atmosphere and forces are evaluated once per call, sharing the
    density between thrust and aerodynamics: this is the innermost loop
    of the transcription machinery.  `trig` is `control_trig(alpha, mu)`,
    `path` is `path_trig(gamma, chi)` and `air` is `air_at(h, atm)` when
    the caller has them already; each is computed here otherwise.
    """
    if _any(V.real < _SINGULARITY_EPS):
        raise SingularStateError("airspeed too close to zero for the equations of motion")
    sin_gamma, cos_gamma, sin_chi, cos_chi = path or path_trig(gamma, chi)
    if _any(abs(cos_gamma.real) < _SINGULARITY_EPS):
        raise SingularStateError("cos(gamma) too close to zero for the yaw equation")

    rho, c = air or air_at(h, atm)
    T = _thrust(rho, c, V, delta_x, model)
    qS = 0.5 * rho * model.S * V * V
    L = qS * model.Cz_alpha * alpha
    D = qS * (model.Cx0 + model.k_i * model.Cz_alpha ** 2 * alpha * alpha)
    m, g = model.mass, model.g
    sin_alpha, cos_alpha, sin_mu, cos_mu = trig or control_trig(alpha, mu)

    normal_force = (T * sin_alpha + L)

    V_dot = (T * cos_alpha - D) / m - g * sin_gamma
    gamma_dot = (normal_force * cos_mu - m * g * cos_gamma) / (m * V)
    chi_dot = normal_force * sin_mu / (m * V * cos_gamma)
    x_dot = V * cos_gamma * cos_chi
    y_dot = V * cos_gamma * sin_chi
    h_dot = V * sin_gamma
    return V_dot, gamma_dot, chi_dot, x_dot, y_dot, h_dot


def fuel_flow_arrays(V, h, delta_x, model: AircraftModel, atm: Atmosphere = ISA):
    """Fuel mass flow C_SR * T(h, V, delta_x), kg/s, on arrays."""
    return model.C_SR * thrust(h, V, delta_x, model, atm)

