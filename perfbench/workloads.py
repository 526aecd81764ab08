"""The three benchmark workloads.

Each workload has a set-up (input generation, problem assembly and a
warm-up) that run.py repeats to take its median, and a fixed pass that
run.py repeats until the run's time is up.  A pass reports the seconds
it spent in the program; checks of its outputs happen outside that time,
with the tracer in its "check" phase.

- noise-n12: one cold solve of the reference scenario's noise variant at
  N=12, observer (0, 0), default SolverOptions.  The only solve that ends
  certified today, so both derivative and solver changes show here.
- callbacks-n100: one Newton model build of each of the four variants at
  the paper's grid N=100, at seeded points near the initial guess.  The
  solver logic is idle; the dense 906-column matrices show assembly and
  memory costs.
- evaluate-n100: cli.run_evaluate over seeded control sequences at N=100,
  scored at the 12 sweep observers.  Many small one-node kernel calls plus
  CSV/JSON I/O, with no derivatives and no solver.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import shutil
import time
from pathlib import Path

import numpy as np

import checks
from noisedescent import cli, nlp_solver, scenarios, transcription
from noisedescent.noise import Observer


@dataclasses.dataclass
class PassResult:
    seconds: float
    attempted: int
    failed: int
    probes: list[float] = dataclasses.field(default_factory=list)  # taken inside the pass


@contextlib.contextmanager
def _in_check(tracer):
    """Move the tracer into the check phase for the duration of a check."""
    previous, tracer.phase = tracer.phase, "check"
    try:
        yield
    finally:
        tracer.phase = previous


def _warm_up(problem, w):
    """Call the value and first-derivative callbacks once."""
    for callback in (problem.objective, problem.objective_gradient, problem.equalities,
                     problem.inequalities, problem.equalities_jacobian,
                     problem.inequalities_jacobian):
        callback(w)


class Workload:
    """Inputs from the seed; outputs and problems of the passes run so far."""

    def __init__(self, seed: int, tracer, out_dir: Path, host=None):
        self.seed = seed
        self.tracer = tracer
        self.out_dir = out_dir
        self.host = host    # HostSpeed that probes inside long passes, or None
        self.problems: list[str] = []   # failed checks of operations that succeeded
        self.failures: list[str] = []   # operations that failed

    def final_check(self):
        """Checks made once, after the timed passes."""


# ----- noise-n12 ---------------------------------------------------------


class NoiseN12(Workload):
    """Cold solve_variant of the reference noise problem at N=12.

    The certified solve is fixed: the seed does not change its inputs.
    """

    def setup(self):
        scn = scenarios.default_scenario(n_intervals=12, observers=(Observer(0.0, 0.0),),
                                         variant="noise")
        opts = nlp_solver.SolverOptions()
        problem = transcription.assemble(scn)
        w0 = scenarios.initial_guess(scn)
        _warm_up(problem, w0)
        problem.lagrangian_hessian(w0, 1.0, np.zeros(problem.n_eq), np.zeros(problem.n_ineq),
                                   convexify=False)
        nlp_solver.kkt_residuals(problem, w0)
        self.scn, self.opts = scn, opts

    def run_pass(self) -> PassResult:
        # the solve is long, so the host's speed is also probed from inside it
        probing = (self.host.inside_calls(nlp_solver, "cho_factor") if self.host
                   else contextlib.nullcontext())
        t0 = time.perf_counter()
        try:
            with probing:
                result = scenarios.solve_variant(self.scn, self.opts)
        except ValueError as exc:
            self.failures.append(f"solve raised {exc!r}")
            return self._timed(t0, 1)
        if result.report.status != "optimal":
            self.failures.append(f"solve ended {result.report.status!r}: {result.report.message}")
            return self._timed(t0, 1)
        timed = self._timed(t0, 0)
        with _in_check(self.tracer):
            self.problems += checks.check_solution(self.scn, self.opts, result,
                                                   transcription.assemble(self.scn))
        return timed

    def _timed(self, t0: float, failed: int) -> PassResult:
        """The pass since t0, less the time of the probes taken inside it."""
        seconds = time.perf_counter() - t0
        if not self.host:
            return PassResult(seconds, 1, failed)
        return PassResult(seconds - self.host.inside_s, 1, failed, list(self.host.inside))


# ----- callbacks-n100 ----------------------------------------------------

N_FULL = 100
MINIMAX_OBSERVERS = ((0.0, 0.0), (20000.0, 2500.0), (40000.0, 5000.0))
FUEL_CAP_FACTOR = 1.1    # cap = factor * consumption of the initial guess
POINT_SPREAD = 0.01      # perturbation of the initial guess, in variable scales
EQ_MULT = 0.1            # defect multipliers are uniform in +-EQ_MULT (scaled rows)
CAP_MULT = (0.01, 0.1)   # fuel-cap multiplier range
EPIGRAPH_MULT = (0.2, 0.4)  # per-observer epigraph multiplier range


@dataclasses.dataclass
class Point:
    w: np.ndarray
    lam_eq: np.ndarray    # scaled-row multipliers, as kkt_residuals takes them
    lam_in: np.ndarray
    eq_mult: np.ndarray   # physical-row multipliers, as the Hessian takes them
    ineq_mult: np.ndarray


def variant_scenario(variant: str, n: int):
    observers = MINIMAX_OBSERVERS if variant == "minimax" else ((0.0, 0.0),)
    return scenarios.default_scenario(n_intervals=n, variant=variant,
                                      observers=tuple(Observer(x, y) for x, y in observers))


def guess_consumption(scn, w) -> float:
    Z, U, _ = scn.layout().unpack(w)
    delta = np.append(U[:, 1], U[-1, 1])
    return checks.own_consumption(scn.grid().times(), Z[:, 0], Z[:, 5], delta,
                                  scn.aircraft, scn.atmosphere)


def make_model(variant: str, rng, n: int = N_FULL):
    """Assembled problem and a seeded point with multipliers near the initial guess."""
    scn = variant_scenario(variant, n)
    w0 = scenarios.initial_guess(scn)
    cap = (FUEL_CAP_FACTOR * guess_consumption(scn, w0)
           if variant == "noise_fuel_capped" else None)
    problem = transcription.assemble(scn, fuel_cap=cap)
    w = np.clip(w0 + rng.uniform(-1.0, 1.0, w0.shape) * POINT_SPREAD * problem.x_scale,
                problem.lower, problem.upper)
    lam_eq = rng.uniform(-EQ_MULT, EQ_MULT, problem.n_eq)
    lam_in = np.zeros(problem.n_ineq)
    n_extra = problem.n_ineq - 6 * (n + 1)
    if variant == "noise_fuel_capped":
        lam_in[-1] = rng.uniform(*CAP_MULT)
    elif variant == "minimax":
        lam_in[-n_extra:] = rng.uniform(*EPIGRAPH_MULT, n_extra)
    return problem, Point(w, lam_eq, lam_in, lam_eq / problem.eq_scale,
                          lam_in / problem.ineq_scale)


def model_build(problem, point: Point) -> dict:
    """Every callback the solver makes for one Newton model."""
    w = point.w
    sigma = 1.0 / problem.f_scale
    return {
        "f": np.array([problem.objective(w)]),
        "g": problem.objective_gradient(w),
        "c_eq": problem.equalities(w),
        "c_in": problem.inequalities(w),
        "J_eq": problem.equalities_jacobian(w),
        "J_in": problem.inequalities_jacobian(w),
        "H_exact": problem.lagrangian_hessian(w, sigma, point.eq_mult, point.ineq_mult,
                                              convexify=False),
        "H_convex": problem.lagrangian_hessian(w, sigma, np.zeros(problem.n_eq),
                                               np.maximum(point.ineq_mult, 0.0),
                                               convexify=True),
        "kkt": np.array(nlp_solver.kkt_residuals(problem, w, point.lam_eq, point.lam_in)),
    }


def digest(build: dict) -> str:
    h = hashlib.blake2b()
    for key in sorted(build):
        h.update(key.encode())
        h.update(np.ascontiguousarray(build[key]).tobytes())
    return h.hexdigest()


class CallbacksN100(Workload):
    """One model build per variant at seeded points, N=100."""

    VARIANTS = ("noise", "fuel", "noise_fuel_capped", "minimax")

    def __init__(self, *args):
        super().__init__(*args)
        self.digests: dict[str, str] = {}

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.models = {}
        for variant in self.VARIANTS:
            problem, point = make_model(variant, rng)
            _warm_up(problem, point.w)
            self.models[variant] = (problem, point)

    def run_pass(self) -> PassResult:
        seconds, failed = 0.0, 0
        for variant, (problem, point) in self.models.items():
            t0 = time.perf_counter()
            try:
                build = model_build(problem, point)
            except ValueError as exc:
                seconds += time.perf_counter() - t0
                failed += 1
                self.failures.append(f"{variant}: model build raised {exc!r}")
                continue
            seconds += time.perf_counter() - t0
            key = digest(build)
            del build
            # every build at a point must repeat the one checked in final_check
            if self.digests.setdefault(variant, key) != key:
                self.problems.append(f"{variant}: model build is not deterministic")
        return PassResult(seconds, len(self.models), failed)

    def final_check(self):
        rng = np.random.default_rng(self.seed + 1)
        with _in_check(self.tracer):
            for variant, (problem, point) in self.models.items():
                if variant not in self.digests:
                    continue  # every build failed; already counted
                build = model_build(problem, point)
                if digest(build) != self.digests[variant]:
                    self.problems.append(f"{variant}: checked build differs from the timed ones")
                self.problems += [f"{variant}: {p}" for p in
                                  checks.check_model_build(problem, point, build, rng)]


# ----- evaluate-n100 -----------------------------------------------------

N_SEQUENCES = 8  # control sequences evaluated per pass
# amplitudes of the seeded sine perturbation of (alpha, delta_x, mu) around trim
CONTROL_AMPLITUDE = (0.5 * math.pi / 180.0, 0.05, 3.0 * math.pi / 180.0)
N_HARMONICS = 3


def control_sequences(scn, rng, count):
    """Trim controls of the initial guess plus a seeded sum of sines per channel."""
    Z, U, _ = scn.layout().unpack(scenarios.initial_guess(scn))
    tau = scn.grid().times()[:-1] / scn.tf
    out = []
    for _ in range(count):
        seq = U.copy()
        for j, amp in enumerate(CONTROL_AMPLITUDE):
            coef = rng.uniform(-1.0, 1.0, N_HARMONICS)
            phase = rng.uniform(0.0, 2.0 * math.pi, N_HARMONICS)
            wave = sum(c * np.sin(2.0 * math.pi * (m + 1) * tau + p)
                       for m, (c, p) in enumerate(zip(coef, phase)))
            seq[:, j] += amp * wave / N_HARMONICS
        out.append(seq)
    return Z, out


def write_controls_csv(path: Path, times, states, controls) -> None:
    """Input file in the trajectory.csv layout that read_trajectory_csv takes."""
    node_u = np.vstack([controls, controls[-1]])
    lines = [",".join(cli.TRAJECTORY_HEADER)]
    for k in range(times.size):
        row = [times[k], *states[k], *node_u[k]]
        lines.append(",".join(format(float(v), ".17g") for v in row))
    path.write_text("\n".join(lines) + "\n")


class EvaluateN100(Workload):
    """cli.run_evaluate of seeded control sequences, 12 sweep observers."""

    def setup(self):
        scn = scenarios.default_scenario(
            n_intervals=N_FULL, observers=tuple(Observer(x, y) for x, y in cli.SWEEP_OBSERVERS))
        rng = np.random.default_rng(self.seed)
        Z, sequences = control_sequences(scn, rng, N_SEQUENCES)
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        self.out_dir.mkdir(parents=True)
        times = scn.grid().times()
        self.cases = []
        for i, seq in enumerate(sequences):
            src = self.out_dir / f"controls_{i}.csv"
            write_controls_csv(src, times, Z, seq)
            self.cases.append((src, self.out_dir / f"eval_{i}", seq))
        cli.run_evaluate(scn, self.cases[0][0], self.out_dir / "warmup")
        self.scn, self.z0 = scn, Z[0]

    def run_pass(self) -> PassResult:
        seconds, failed = 0.0, 0
        for src, dst, seq in self.cases:
            t0 = time.perf_counter()
            try:
                cli.run_evaluate(self.scn, src, dst)
            except ValueError as exc:
                seconds += time.perf_counter() - t0
                failed += 1
                self.failures.append(f"{src.name}: evaluate raised {exc!r}")
                continue
            seconds += time.perf_counter() - t0
            with _in_check(self.tracer):
                self.problems += [f"{src.name}: {p}" for p in
                                  checks.check_evaluation(self.scn, dst, self.z0, seq)]
        return PassResult(seconds, len(self.cases), failed)


WORKLOADS = {"noise-n12": NoiseN12, "callbacks-n100": CallbacksN100,
             "evaluate-n100": EvaluateN100}
