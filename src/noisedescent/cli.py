"""Run orchestration and bit-stable result export.

Subcommands: solve, sweep, compare, evaluate.  Every run writes
trajectory.csv (17-significant-digit decimals, byte-stable for a fixed
seed), report.json (config echo, solve report, per-observer levels,
consumption, hash manifest) and iterations.log.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import noise
from .config import _parse_pairs, parse_config
from .errors import ConfigError
from .flight_dynamics import CONTROL_NAMES, STATE_NAMES
from .noise import Observer, Trajectory
from .nlp_solver import SolveReport, SolverOptions
from .scenarios import (
    Scenario,
    VariantResult,
    default_scenario,
    solve_variant,
)
from .transcription import Grid, simulate

TRAJECTORY_HEADER = ("t",) + STATE_NAMES + CONTROL_NAMES

# Table-style observer sweep used by the comparison experiments
SWEEP_OBSERVERS = tuple(
    (x, y) for x in (0.0, 20000.0, 40000.0, 60000.0) for y in (0.0, 2500.0, 5000.0))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trajectory_csv(path: Path, result: VariantResult, scn: Scenario) -> None:
    traj = result.trajectory
    headers = list(TRAJECTORY_HEADER) + [f"L_P_obs{j}" for j in range(len(scn.observers))]
    levels = [noise.levels_along(traj, obs, scn.engine, scn.atmosphere)
              for obs in scn.observers]
    lines = [",".join(headers)]
    controls = traj.node_controls()
    for k in range(traj.n_intervals + 1):
        row = [traj.times[k], *traj.states[k], *controls[k]]
        row += [lv[k] for lv in levels]
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_trajectory_csv(path: Path) -> Trajectory:
    """Trajectory of a file in the trajectory.csv layout.

    Raises ValueError for a file without a data row, without a column of
    TRAJECTORY_HEADER, with a field that is not a number, with rows of
    another length than the header, or whose times are not equidistant.
    """
    lines = Path(path).read_text().strip().splitlines()
    if len(lines) < 2:
        raise ValueError("expected a header line and data rows")
    header = lines[0].split(",")
    try:
        idx = {name: header.index(name) for name in TRAJECTORY_HEADER}
    except ValueError:
        missing = [name for name in TRAJECTORY_HEADER if name not in header]
        raise ValueError(f"no {', '.join(missing)} column") from None
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    data = np.asarray(rows)
    if data.shape[1] != len(header):
        raise ValueError(f"rows of {data.shape[1]} fields under {len(header)} column names")
    times = data[:, idx["t"]]
    states = data[:, [idx[c] for c in STATE_NAMES]]
    controls = data[:-1][:, [idx[c] for c in CONTROL_NAMES]]
    return Trajectory(times=times, states=states, controls=controls)


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _scenario_echo(scn: Scenario) -> dict:
    echo = {
        "boundary": {"x0": scn.x0, "y0": scn.y0, "h0": scn.h0, "V0": scn.V0,
                     "xf": scn.xf, "yf": scn.yf, "hf": scn.hf},
        "tf": scn.tf, "N": scn.n_intervals, "variant": scn.variant,
        "fuel_cap_factor": scn.fuel_cap_factor,
        "stall_speed": scn.stall_speed,
        "observers": [[o.x, o.y] for o in scn.observers],
        "bounds": {"lower": list(scn.bounds.lower), "upper": list(scn.bounds.upper)},
        "aircraft": dataclasses.asdict(scn.aircraft),
        "atmosphere": dataclasses.asdict(scn.atmosphere),
        "seed": scn.seed, "n_starts": scn.n_starts,
    }
    engine = {k: v for k, v in dataclasses.asdict(scn.engine).items()
              if not k.endswith("_hook")}
    echo["engine_noise"] = engine
    return echo


def _report_dict(result: VariantResult, scn: Scenario) -> dict:
    rep = result.report
    return {
        "variant": result.variant,
        "status": rep.status,
        "objective": rep.objective,
        "feasibility_error": rep.feasibility_error,
        "optimality_error": rep.optimality_error,
        "iterations": rep.iterations,
        "outer_iterations": rep.outer_iterations,
        "trial_points": rep.trial_points,
        "trial_batches": rep.trial_batches,
        "wall_time_s": rep.wall_time,
        "message": rep.message,
        "leq_db_by_observer": list(result.leq_by_observer),
        "consumption_kg": result.consumption_kg,
        "theta_db": result.theta_db,
        "internode_violation": result.internode_violation,
        "config": _scenario_echo(scn),
    }


def write_run_outputs(out_dir: Path, result: VariantResult, scn: Scenario,
                      extra: dict | None = None) -> dict:
    """Write trajectory.csv, iterations.log and report.json; verify hashes."""
    out_dir.mkdir(parents=True, exist_ok=True)
    traj_path = out_dir / "trajectory.csv"
    write_trajectory_csv(traj_path, result, scn)
    log_path = out_dir / "iterations.log"
    _atomic_write(log_path, "\n".join(r.format() for r in result.report.iteration_log)
                  + "\n")
    report = _report_dict(result, scn)
    if extra:
        report.update(extra)
    report["manifest"] = {p.name: _sha256(p) for p in (traj_path, log_path)}
    _atomic_write(out_dir / "report.json", json.dumps(report, indent=2) + "\n")
    for name, digest in report["manifest"].items():
        if _sha256(out_dir / name) != digest:
            raise RuntimeError(f"manifest hash mismatch for {name}")
    return report


def _load(args) -> tuple[Scenario, SolverOptions]:
    """Scenario and solver options from the config file and the flags.

    Raises ValueError (ConfigError and ScenarioError included) for any
    rejected input, before anything is written.
    """
    if args.config:
        scn, opts = parse_config(args.config)
    else:
        scn, opts = default_scenario(), SolverOptions()
    overrides = {}
    if args.variant is not None:
        overrides["variant"] = args.variant
    if args.observers is not None:
        overrides["observers"] = tuple(
            Observer(x, y) for x, y in _parse_pairs(args.observers, "--observers", None))
    if args.N is not None:
        overrides["n_intervals"] = args.N
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        scn = dataclasses.replace(scn, **overrides)
    solver_overrides = {}
    if args.tol_feas is not None:
        solver_overrides["feasibility_tol"] = args.tol_feas
    if args.tol_opt is not None:
        solver_overrides["optimality_tol"] = args.tol_opt
    if solver_overrides:
        opts = dataclasses.replace(opts, **solver_overrides)
    scn.validate()
    controls = getattr(args, "controls", None)
    if controls is not None:
        _check_controls(controls)
    return scn, opts


def _check_controls(path: Path) -> None:
    """Reject a controls file that `run_evaluate` cannot fly: one that is
    not a trajectory on an equidistant grid of at least two intervals."""
    if not path.is_file():
        raise ConfigError(f"controls file {str(path)!r} not found")
    try:
        times = read_trajectory_csv(path).times
        Grid(times[0], times[-1], times.size - 1)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def run_solve(scn: Scenario, opts: SolverOptions, out_dir: Path,
              terms_csv: bool = False) -> dict:
    result = solve_variant(scn, opts)
    report = write_run_outputs(out_dir, result, scn)
    if terms_csv:
        for j, obs in enumerate(scn.observers):
            header, rows = noise.breakdown_rows(result.trajectory, obs,
                                                scn.engine, scn.atmosphere)
            lines = [",".join(header)]
            lines += [",".join(_fmt(v) for v in row) for row in rows]
            _atomic_write(out_dir / f"noise_terms_obs{j}.csv", "\n".join(lines) + "\n")
    return report


def _sweep_worker(payload):
    scn, opts, out_dir, x, y = payload
    one = dataclasses.replace(scn, observers=(Observer(x, y),), variant="noise")
    result = solve_variant(one, opts)
    report = write_run_outputs(out_dir, result, one)
    return (x, y, report)


def run_sweep(scn: Scenario, opts: SolverOptions, out_dir: Path,
              observers=None, jobs: int = 1) -> list[dict]:
    """Solve the noise problem for each observer and tabulate against the
    fuel-minimal reference trajectory."""
    out_dir.mkdir(parents=True, exist_ok=True)
    positions = observers or SWEEP_OBSERVERS
    fuel_scn = dataclasses.replace(scn, variant="fuel")
    fuel = solve_variant(fuel_scn, opts)
    write_run_outputs(out_dir / "fuel_reference", fuel, fuel_scn)

    payloads = []
    for i, (x, y) in enumerate(positions):
        payloads.append((scn, opts, out_dir / f"obs_{i:03d}", x, y))
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_worker, payloads))
    else:
        results = [_sweep_worker(p) for p in payloads]

    rows = []
    lines = ["x_obs,y_obs,J_db,max_fe_oe,cpu_s,J1_db,J1_minus_J_db,"
             "pct_co_of_tr,pct_co_of_tr1,status"]
    for (x, y, report) in results:
        j1 = noise.leq(fuel.trajectory, Observer(x, y), scn.engine, scn.atmosphere)
        co_tr = report["consumption_kg"]
        co_tr1 = fuel.consumption_kg
        row = {
            "x_obs": x, "y_obs": y,
            "J_db": report["objective"],
            "max_fe_oe": max(report["feasibility_error"], report["optimality_error"]),
            "cpu_s": report["wall_time_s"],
            "J1_db": j1,
            "J1_minus_J_db": j1 - report["objective"],
            "pct_co_of_tr": 100.0 * (co_tr - co_tr1) / co_tr,
            "pct_co_of_tr1": 100.0 * (co_tr - co_tr1) / co_tr1,
            "status": report["status"],
        }
        rows.append(row)
        lines.append(",".join(
            _fmt(row[k]) if isinstance(row[k], float) else str(row[k])
            for k in ("x_obs", "y_obs", "J_db", "max_fe_oe", "cpu_s", "J1_db",
                      "J1_minus_J_db", "pct_co_of_tr", "pct_co_of_tr1", "status")))
    _atomic_write(out_dir / "summary.csv", "\n".join(lines) + "\n")
    _atomic_write(out_dir / "summary.json", json.dumps(rows, indent=2) + "\n")
    return rows


def run_compare(scn: Scenario, opts: SolverOptions, out_dir: Path) -> dict:
    """Noise-optimal vs fuel-optimal at the scenario's first observer.

    The comparison's "status" maps each solve to its status.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    noise_scn = dataclasses.replace(scn, variant="noise")
    fuel_scn = dataclasses.replace(scn, variant="fuel")
    noise_res = solve_variant(noise_scn, opts)
    fuel_res = solve_variant(fuel_scn, opts)
    obs = scn.observers[0]
    j = noise_res.leq_by_observer[0]
    j1 = noise.leq(fuel_res.trajectory, obs, scn.engine, scn.atmosphere)
    co_tr, co_tr1 = noise_res.consumption_kg, fuel_res.consumption_kg
    comparison = {
        "observer": [obs.x, obs.y],
        "J_db": j,
        "J1_db": j1,
        "J1_minus_J_db": j1 - j,
        "pct_co_of_tr": 100.0 * (co_tr - co_tr1) / co_tr,
        "pct_co_of_tr1": 100.0 * (co_tr - co_tr1) / co_tr1,
        "status": {"noise_optimal": noise_res.report.status,
                   "fuel_reference": fuel_res.report.status},
    }
    write_run_outputs(out_dir / "noise_optimal", noise_res, noise_scn,
                      extra={"comparison": comparison})
    write_run_outputs(out_dir / "fuel_reference", fuel_res, fuel_scn)
    _atomic_write(out_dir / "compare.json", json.dumps(comparison, indent=2) + "\n")
    return comparison


def run_evaluate(scn: Scenario, controls_csv: Path, out_dir: Path) -> dict:
    """Forward-simulate the controls of a trajectory file and report
    noise and fuel metrics without optimizing."""
    out_dir.mkdir(parents=True, exist_ok=True)
    given = read_trajectory_csv(controls_csv)
    grid = Grid(given.times[0], given.times[-1], given.n_intervals)
    traj = simulate(given.states[0], given.controls, grid,
                    scn.aircraft, scn.atmosphere)
    levels = [noise.leq(traj, obs, scn.engine, scn.atmosphere)
              for obs in scn.observers]
    report = {
        "variant": "evaluate",
        "source": str(controls_csv),
        "leq_db_by_observer": levels,
        "consumption_kg": noise.total_consumption(traj, scn.aircraft, scn.atmosphere),
        "final_state": {k: float(v) for k, v in zip(STATE_NAMES, traj.states[-1])},
    }
    fake = VariantResult(variant="evaluate", trajectory=traj,
                         report=SolveReport(
                             status="optimal", objective=float("nan"),
                             feasibility_error=0.0, optimality_error=0.0,
                             iterations=0, outer_iterations=0, wall_time=0.0,
                             eq_multipliers=np.zeros(0),
                             ineq_multipliers=np.zeros(0)),
                         w=np.zeros(0),
                         leq_by_observer=tuple(levels),
                         consumption_kg=report["consumption_kg"])
    write_run_outputs(out_dir, fake, scn, extra=report)
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisedescent",
        description="Noise-minimal descent trajectories by direct transcription")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="scenario config file (defaults to the built-in scenario)")
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory")
        p.add_argument("--variant", choices=("noise", "fuel", "noise_fuel_capped",
                                             "minimax"), default=None)
        p.add_argument("--observers", default=None,
                       help="semicolon-separated x,y pairs, e.g. '0,0;20000,2500'")
        p.add_argument("--N", type=int, default=None, help="grid intervals")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol-feas", type=float, default=None)
        p.add_argument("--tol-opt", type=float, default=None)
        p.add_argument("--jobs", type=int, default=1)

    p_solve = sub.add_parser("solve", help="solve the configured variant")
    common(p_solve)
    p_solve.add_argument("--terms-csv", action="store_true",
                         help="export the per-term level breakdown per observer")

    p_sweep = sub.add_parser("sweep", help="noise solve per observer position")
    common(p_sweep)

    p_cmp = sub.add_parser("compare", help="noise-optimal vs fuel-optimal")
    common(p_cmp)

    p_eval = sub.add_parser("evaluate",
                            help="forward-simulate a control file, no optimization")
    common(p_eval)
    p_eval.add_argument("--controls", type=Path, required=True,
                        help="trajectory.csv whose controls (and first state) to fly")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scn, opts = _load(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "solve":
        report = run_solve(scn, opts, args.out, terms_csv=args.terms_csv)
        print(f"{report['status']}: objective {report['objective']:.6f} "
              f"(feas {report['feasibility_error']:.2e}, "
              f"opt {report['optimality_error']:.2e})")
        return 0 if report["status"] == "optimal" else 1
    if args.command == "sweep":
        observers = [(o.x, o.y) for o in scn.observers] if args.observers else None
        rows = run_sweep(scn, opts, args.out, observers=observers, jobs=args.jobs)
        for row in rows:
            print(f"({row['x_obs']:.0f},{row['y_obs']:.0f}) J={row['J_db']:.2f} dB "
                  f"J1={row['J1_db']:.2f} dB [{row['status']}]")
        return 0 if all(r["status"] == "optimal" for r in rows) else 1
    if args.command == "compare":
        comparison = run_compare(scn, opts, args.out)
        print(json.dumps(comparison, indent=2))
        return 0 if all(s == "optimal" for s in comparison["status"].values()) else 1
    if args.command == "evaluate":
        report = run_evaluate(scn, args.controls, args.out)
        print(json.dumps({k: report[k] for k in
                          ("leq_db_by_observer", "consumption_kg")}, indent=2))
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
