"""Problem variants of the descent: noise-minimal, fuel-minimal,
fuel-capped noise, and multi-observer minimax, plus initial-guess
generation and solve orchestration.

`solve_variant` is the one driver: it assembles the scenario's variant
(the fuel-capped one after solving the fuel variant for its cap) and
solves it through the grid-continuation ladder.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import noise, transcription
from .errors import ScenarioError
from .flight_dynamics import AircraftModel, Atmosphere, ISA, air_density, drag, thrust
from .nlp_solver import NlpProblem, SolveReport, SolverOptions, solve
from .noise import EngineNoiseParams, Observer, Trajectory
from .transcription import Grid, VectorLayout, assemble

VARIANTS = ("noise", "fuel", "noise_fuel_capped", "minimax")

# Path-constraint component order (gamma, V, chi, alpha, delta_x, mu).
PATH_COMPONENTS = ("gamma", "V", "chi", "alpha", "delta_x", "mu")

_DEG = math.pi / 180.0


@dataclass(frozen=True)
class PathBounds:
    """Two-sided limits on (gamma, V, chi, alpha, delta_x, mu)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != (6,) or hi.shape != (6,):
            raise ScenarioError("path bounds must have six components")
        if not np.all(lo < hi):
            bad = PATH_COMPONENTS[int(np.argmax(~(lo < hi)))]
            raise ScenarioError(f"lower bound must stay below upper bound ({bad})")

    @classmethod
    def default(cls, stall_speed: float = 70.0) -> "PathBounds":
        """Representative civil-descent envelope; every value overridable."""
        return cls(
            lower=np.array([-8.0 * _DEG, 1.3 * stall_speed, -30.0 * _DEG,
                            -2.0 * _DEG, 0.2, -25.0 * _DEG]),
            upper=np.array([3.0 * _DEG, 180.0, 30.0 * _DEG,
                            12.0 * _DEG, 1.0, 25.0 * _DEG]),
        )

    def component(self, name: str) -> tuple[float, float]:
        i = PATH_COMPONENTS.index(name)
        return float(self.lower[i]), float(self.upper[i])


@dataclass(frozen=True)
class Scenario:
    """Boundary data, bounds, observers and variant selection for one run."""

    x0: float = 0.0
    y0: float = 0.0
    h0: float = 3500.0
    V0: float = 160.0
    xf: float = 60000.0
    yf: float = 5000.0
    hf: float = 500.0
    tf: float = 600.0
    n_intervals: int = 100
    bounds: PathBounds = field(default_factory=PathBounds.default)
    observers: tuple[Observer, ...] = (Observer(0.0, 0.0),)
    variant: str = "noise"
    fuel_cap_factor: float = 1.1
    stall_speed: float = 70.0
    aircraft: AircraftModel = field(default_factory=AircraftModel)
    engine: EngineNoiseParams = field(default_factory=EngineNoiseParams)
    atmosphere: Atmosphere = ISA
    n_starts: int = 1
    seed: int = 0

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ScenarioError(f"unknown variant {self.variant!r}")
        if not self.tf > 0:
            raise ScenarioError("final time must be positive")
        if self.n_intervals < 2:
            raise ScenarioError("need at least 2 grid intervals")
        if self.variant != "fuel" and len(self.observers) == 0:
            raise ScenarioError(f"variant {self.variant!r} needs at least one observer")
        if self.fuel_cap_factor <= 0:
            raise ScenarioError("fuel cap factor must be positive")
        if self.n_starts < 1:
            raise ScenarioError("need at least one start")
        v_lo, v_hi = self.bounds.component("V")
        if v_lo < 1.3 * self.stall_speed - 1e-9:
            raise ScenarioError(
                f"speed floor {v_lo:.1f} m/s is below 1.3*stall speed "
                f"({1.3 * self.stall_speed:.1f} m/s)")
        if not (v_lo <= self.V0 <= v_hi):
            raise ScenarioError(f"initial speed {self.V0} outside bounds [{v_lo}, {v_hi}]")
        for name, val in (("h0", self.h0), ("hf", self.hf)):
            if val < 0 or val >= self.atmosphere.max_height:
                raise ScenarioError(f"{name}={val} outside the atmosphere domain")

    def grid(self) -> Grid:
        return Grid(0.0, self.tf, self.n_intervals)

    def layout(self) -> VectorLayout:
        return VectorLayout(self.n_intervals, has_epigraph=(self.variant == "minimax"))


def default_scenario(**overrides) -> Scenario:
    """The reference scenario, with any field overridden by keyword."""
    return dataclasses.replace(Scenario(), **overrides) if overrides else Scenario()


@dataclass
class VariantResult:
    """Solution of one variant solve, with trajectory-level metrics."""

    variant: str
    trajectory: Trajectory
    report: SolveReport
    w: np.ndarray
    leq_by_observer: tuple[float, ...]
    consumption_kg: float
    theta_db: Optional[float] = None
    internode_violation: float = 0.0


def initial_guess(scn: Scenario, grid: Grid | None = None) -> np.ndarray:
    """Deterministic bound-feasible starting vector.

    Straight-line (x, y, h) between the boundary points, airspeed
    ramped linearly from V0 down to the speed floor, flight-path and
    yaw angles consistent with that path, angle of attack and throttle
    from quasi-static trim at each node, wings level.  Every component
    is clipped into its bounds; defect residuals are expected to be
    nonzero.
    """
    scn.validate()
    grid = grid or scn.grid()
    n = grid.n_intervals
    model, atm, b = scn.aircraft, scn.atmosphere, scn.bounds
    frac = np.linspace(0.0, 1.0, n + 1)

    x = scn.x0 + frac * (scn.xf - scn.x0)
    y = scn.y0 + frac * (scn.yf - scn.y0)
    h = scn.h0 + frac * (scn.hf - scn.h0)
    v_lo, v_hi = b.component("V")
    v_end = min(max(1.3 * scn.stall_speed, v_lo), v_hi)
    V = scn.V0 + frac * (v_end - scn.V0)

    h_rate = (scn.hf - scn.h0) / grid.duration
    gamma = np.arcsin(np.clip(h_rate / V, -1.0, 1.0))
    g_lo, g_hi = b.component("gamma")
    gamma = np.clip(gamma, g_lo, g_hi)
    chi_lo, chi_hi = b.component("chi")
    chi = np.full(n + 1, np.clip(math.atan2(scn.yf - scn.y0, scn.xf - scn.x0),
                                 chi_lo, chi_hi))

    # quasi-static trim: lift balances weight, thrust balances drag,
    # gravity component and the slow deceleration
    rho = air_density(h, atm)
    q = 0.5 * rho * V ** 2 * model.S
    alpha = model.mass * model.g * np.cos(gamma) / (q * model.Cz_alpha)
    a_lo, a_hi = b.component("alpha")
    alpha = np.clip(alpha, a_lo, a_hi)
    v_rate = (V[-1] - V[0]) / grid.duration
    t_req = (model.mass * v_rate
             + drag(h, V, alpha, model, atm)
             + model.mass * model.g * np.sin(gamma))
    t_full = thrust(h, V, np.ones(n + 1), model, atm)
    d_lo, d_hi = b.component("delta_x")
    delta = np.clip(t_req / t_full, d_lo, d_hi)

    Z = np.column_stack([V, gamma, chi, x, y, h])
    U = np.column_stack([alpha[:-1], delta[:-1], np.zeros(n)])

    layout = scn.layout()
    if layout.has_epigraph:
        traj = Trajectory(times=grid.times(), states=Z, controls=U)
        worst = max(noise.leq(traj, obs, scn.engine, atm) for obs in scn.observers)
        return layout.pack(Z, U, theta=worst + 1.0)
    return layout.pack(Z, U)


def _perturbed(w0: np.ndarray, problem: NlpProblem, rng: np.random.Generator) -> np.ndarray:
    span = 0.05 * problem.x_scale
    w = w0 + rng.uniform(-1.0, 1.0, size=w0.shape) * span
    return np.clip(w, problem.lower, problem.upper)


_COARSEST_GRID = 12     # starting resolution of the continuation ladder
_CONTINUATION_TOL = 1e-4  # relaxed tolerances on intermediate grids


def _refine_vector(w, coarse_tr: transcription._Transcription,
                   fine_tr: transcription._Transcription) -> np.ndarray:
    """Interpolate a coarse solution onto a finer grid.

    States are interpolated linearly in time; piecewise-constant controls
    are resampled at interval midpoints; the epigraph value carries over.
    """
    coarse, fine = coarse_tr.grid, fine_tr.grid
    Zc, Uc, theta = coarse_tr.layout.unpack(w)
    tc, tf_ = coarse.times(), fine.times()
    Zf = np.column_stack([np.interp(tf_, tc, Zc[:, j]) for j in range(6)])
    mid = tf_[:-1] + 0.5 * fine.h_step
    idx = np.clip(((mid - coarse.t0) / coarse.h_step).astype(int),
                  0, coarse.n_intervals - 1)
    Uf = Uc[idx]
    return fine_tr.layout.pack(Zf, Uf, theta)


def _continuation_grids(n: int) -> list[int]:
    """Doubling ladder from the coarsest grid up to n."""
    ladder = [n]
    while ladder[0] > 2 * _COARSEST_GRID:
        ladder.insert(0, (ladder[0] + 1) // 2)
    return ladder


def _refine_multipliers(report: SolveReport, coarse_tr: transcription._Transcription,
                        fine_tr: transcription._Transcription):
    """Map scaled-row multipliers onto a refined grid.

    Defect and path multipliers behave like time densities sampled per
    row, so they interpolate in time and shrink with the step ratio;
    boundary and extra (cap/epigraph) rows carry over unchanged.  The row
    counts come from the two transcriptions.
    """
    coarse, fine = coarse_tr.grid, fine_tr.grid
    nc = coarse.n_intervals
    ratio = fine.h_step / coarse.h_step
    lam_eq = report.eq_multipliers
    defect = lam_eq[:6 * nc].reshape(nc, 6)
    mid_c = coarse.times()[:-1] + 0.5 * coarse.h_step
    mid_f = fine.times()[:-1] + 0.5 * fine.h_step
    defect_f = np.column_stack(
        [np.interp(mid_f, mid_c, defect[:, j]) for j in range(6)]) * ratio
    eq_f = np.concatenate([defect_f.ravel(), lam_eq[6 * nc:]])

    lam_in = report.ineq_multipliers
    # one row of path multipliers per node
    path = lam_in[:coarse_tr.n_path].reshape(nc + 1, -1)
    path_f = np.array([np.interp(fine.times(), coarse.times(), col) for col in path.T]) * ratio
    extra = lam_in[coarse_tr.n_path:]
    if fine_tr.n_extra and extra.size != fine_tr.n_extra:
        extra = np.zeros(fine_tr.n_extra)
    in_f = np.concatenate([path_f.T.ravel(), extra])
    return eq_f, in_f


def _solve_problem(problem: NlpProblem, opts: SolverOptions) -> tuple[np.ndarray, SolveReport]:
    """Deterministic solve driver: grid continuation plus optional
    perturbed multi-start; the best feasible result wins.

    The first start climbs the ladder: each coarse rung is assembled and
    solved with relaxed tolerances, and its solution and multipliers,
    refined, warm-start the next rung; the last rung is `problem`.
    Further starts solve `problem` from perturbed initial guesses.
    The returned report is the winning solve's, except that its
    `wall_time` covers every rung and every start.
    """
    t_start = time.perf_counter()
    tr = problem.meta["transcription"]
    scn = tr.scn
    coarse_opts = dataclasses.replace(
        opts, verbose=False,
        feasibility_tol=max(opts.feasibility_tol, _CONTINUATION_TOL),
        optimality_tol=max(opts.optimality_tol, _CONTINUATION_TOL))
    w = report = prev_tr = None
    ladder = _continuation_grids(tr.grid.n_intervals)
    for n_level in ladder:
        if n_level == ladder[-1]:
            prob, level_opts = problem, opts
        else:
            prob = assemble(dataclasses.replace(scn, n_intervals=n_level),
                            fuel_cap=tr.fuel_cap)
            level_opts = coarse_opts
        level_tr = prob.meta["transcription"]
        if prev_tr is None:
            w_start = initial_guess(level_tr.scn, level_tr.grid)
            warm = (None, None)
            rho0 = opts.initial_penalty
        else:
            w_start = np.clip(_refine_vector(w, prev_tr, level_tr), prob.lower, prob.upper)
            warm = _refine_multipliers(report, prev_tr, level_tr)
            # moderate restart penalty: the refined start carries only
            # interpolation defects
            rho0 = float(np.clip(report.iteration_log[-1].penalty,
                                 opts.initial_penalty, 1e3))
        w, report = solve(prob, w_start, dataclasses.replace(level_opts, initial_penalty=rho0),
                          warm_eq_multipliers=warm[0], warm_ineq_multipliers=warm[1])
        prev_tr = level_tr

    def key(rep):
        return (rep.status != "optimal",
                max(rep.feasibility_error - opts.feasibility_tol, 0.0), rep.objective)

    best = (w, report)
    rng = np.random.default_rng(scn.seed)
    w0 = initial_guess(scn, tr.grid) if scn.n_starts > 1 else None
    for _ in range(1, scn.n_starts):
        w, report = solve(problem, _perturbed(w0, problem, rng), opts)
        if key(report) < key(best[1]):
            best = (w, report)
    w, report = best
    return w, dataclasses.replace(report, wall_time=time.perf_counter() - t_start)


def _result_from_solution(problem: NlpProblem, w: np.ndarray,
                          report: SolveReport) -> VariantResult:
    tr = problem.meta["transcription"]
    scn = tr.scn
    traj = transcription.trajectory_from_vector(w, tr.layout, tr.grid)
    levels = tuple(noise.leq(traj, obs, scn.engine, scn.atmosphere)
                   for obs in scn.observers)
    consumption = noise.total_consumption(traj, scn.aircraft, scn.atmosphere)
    theta = tr.layout.unpack(w)[2] if tr.layout.has_epigraph else None
    violation = transcription.internode_violation(
        traj, scn.bounds.lower, scn.bounds.upper, scn.aircraft, scn.atmosphere)
    return VariantResult(
        variant=scn.variant,
        trajectory=traj,
        report=report,
        w=w,
        leq_by_observer=levels,
        consumption_kg=float(consumption),
        theta_db=theta,
        internode_violation=violation,
    )


def solve_variant(scn: Scenario, opts: SolverOptions | None = None) -> VariantResult:
    """Solve the scenario's selected variant end to end.

    The fuel-capped variant first solves the fuel variant of the same
    scenario; its cap is `fuel_cap_factor` times that consumption.
    """
    opts = opts or SolverOptions()
    scn.validate()
    cap = None
    if scn.variant == "noise_fuel_capped":
        fuel = solve_variant(dataclasses.replace(scn, variant="fuel"), opts)
        cap = scn.fuel_cap_factor * fuel.consumption_kg
    problem = assemble(scn, fuel_cap=cap)
    w, report = _solve_problem(problem, opts)
    return _result_from_solution(problem, w, report)
