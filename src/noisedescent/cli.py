"""Run orchestration and bit-stable result export.

Subcommands: solve, sweep and evaluate; each accepts only the flags its
run reads.  Every run writes trajectory.csv (17-significant-digit
decimals), report.json (config echo, per-observer levels, consumption,
hash manifest, and for a solve the solve report) and iterations.log.  A
sweep also writes its table, summary.csv and summary.json.
Every JSON file is strict JSON: a non-finite number is written as null.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import noise
from .config import _parse_pairs, parse_config, read_sections
from .errors import ConfigError, SettingError
from .flight_dynamics import CONTROL_NAMES, STATE_NAMES
from .noise import Observer, Trajectory
from .nlp_solver import SolverOptions
from .scenarios import (
    VARIANTS,
    Scenario,
    default_scenario,
    solve_variant,
)
from .transcription import Grid, simulate

TRAJECTORY_HEADER = ("t",) + STATE_NAMES + CONTROL_NAMES

# the flag that sets each setting a SettingError names by its config key
_SETTING_FLAGS = {"observers": "--observers", "N": "--N",
                  "feasibility_tol": "--tol-feas", "optimality_tol": "--tol-opt"}

# Table-style observer sweep used by the comparison experiments
SWEEP_OBSERVERS = tuple(
    (x, y) for x in (0.0, 20000.0, 40000.0, 60000.0) for y in (0.0, 2500.0, 5000.0))


def _csv_text(header, data: np.ndarray) -> str:
    """CSV of a header and a float table, each field as format(v, ".17g")."""
    row = ",".join(["%.17g"] * data.shape[1])
    return "\n".join([",".join(header), *(row % tuple(r) for r in data.tolist())]) + "\n"


def read_trajectory_csv(path: Path) -> Trajectory:
    """Trajectory of a file in the trajectory.csv layout.

    Raises ValueError for a file without a data row, without a column of
    TRAJECTORY_HEADER, with a field that is not a number, or with rows of
    another length than the header; naming the first data row at fault,
    for a non-finite time, state or control; and, through `Trajectory`,
    for times that do not increase in equal steps, naming the first time
    at fault (times[i] is data row i + 1).  The control columns of the
    last row and the columns not in TRAJECTORY_HEADER are not read.
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
    read = data[:, [idx[name] for name in TRAJECTORY_HEADER]]
    read[-1, -len(CONTROL_NAMES):] = 0.0  # the last row's controls are not read
    bad = np.argwhere(~np.isfinite(read.T))
    if bad.size:
        column, row = bad[0]
        raise ValueError(f"non-finite {TRAJECTORY_HEADER[column]} in data row {row + 1}")
    times = data[:, idx["t"]]
    states = data[:, [idx[c] for c in STATE_NAMES]]
    controls = data[:-1][:, [idx[c] for c in CONTROL_NAMES]]
    return Trajectory(times=times, states=states, controls=controls)


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(text.encode())
    tmp.replace(path)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _scenario_echo(scn: Scenario) -> dict:
    return {
        "boundary": {"x0": scn.x0, "y0": scn.y0, "h0": scn.h0, "V0": scn.V0,
                     "xf": scn.xf, "yf": scn.yf, "hf": scn.hf},
        "tf": scn.tf, "N": scn.n_intervals, "variant": scn.variant,
        "fuel_cap_factor": scn.fuel_cap_factor,
        "stall_speed": scn.stall_speed,
        "observers": [[o.x, o.y] for o in scn.observers],
        "bounds": {"lower": list(scn.bounds.lower), "upper": list(scn.bounds.upper)},
        "aircraft": dataclasses.asdict(scn.aircraft),
        "atmosphere": dataclasses.asdict(scn.atmosphere),
        "engine_noise": dataclasses.asdict(scn.engine),
    }


def _json_text(obj) -> str:
    """Strict JSON of obj, indented, with every non-finite float as null."""
    return json.dumps(_finite_json(obj), indent=2, allow_nan=False) + "\n"


def _finite_json(obj):
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_run_outputs(out_dir: Path, traj: Trajectory, scn: Scenario, levels: np.ndarray,
                      report: dict, iteration_log=()) -> dict:
    """Write trajectory.csv, iterations.log and report.json; verify hashes.

    trajectory.csv holds the times, states, node controls and node levels
    at every observer: `levels`, the (n_obs, N+1) matrix of
    `noise.levels_at`.  report.json is `report` plus the manifest of the
    other two files: the sha256 of the bytes meant for each, checked
    against each file once it is written.  The returned dict keeps its
    non-finite floats.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    header = TRAJECTORY_HEADER + tuple(f"L_P_obs{j}" for j in range(len(scn.observers)))
    data = np.column_stack([traj.times, traj.states, traj.node_controls(), levels.T])
    texts = {"trajectory.csv": _csv_text(header, data),
             "iterations.log": "\n".join(r.format() for r in iteration_log) + "\n"}
    report = {**report, "manifest": {n: _sha256(t.encode()) for n, t in texts.items()}}
    for name, text in texts.items():
        _atomic_write(out_dir / name, text)
        if _sha256((out_dir / name).read_bytes()) != report["manifest"][name]:
            raise RuntimeError(f"manifest hash mismatch for {name}")
    _atomic_write(out_dir / "report.json", _json_text(report))
    return report


def _load(args) -> tuple[Scenario, SolverOptions]:
    """Scenario and solver options from the config file and the flags.

    A flag that the subcommand does not take reads as None.  Raises
    ValueError (ConfigError and ScenarioError included) for any rejected
    input, before anything is written; a value that a settings class
    rejects is reported as a ConfigError naming the flag that set it.
    """
    def flag(name):
        return getattr(args, name, None)

    if args.config:
        scn, opts = parse_config(args.config)
    else:
        scn, opts = default_scenario(), SolverOptions()
    overrides = {}
    if flag("variant") is not None:
        overrides["variant"] = args.variant
    if flag("N") is not None:
        overrides["n_intervals"] = args.N
    solver_overrides = {}
    if flag("tol_feas") is not None:
        solver_overrides["feasibility_tol"] = args.tol_feas
    if flag("tol_opt") is not None:
        solver_overrides["optimality_tol"] = args.tol_opt
    try:
        if flag("observers") is not None:
            overrides["observers"] = tuple(
                Observer(x, y) for x, y in _parse_pairs(args.observers, "--observers", None))
        if overrides:
            scn = dataclasses.replace(scn, **overrides)
        if solver_overrides:
            opts = dataclasses.replace(opts, **solver_overrides)
    except SettingError as exc:
        # name the flag that set a key of the rejecting rule
        given = {key: name for key, name in _SETTING_FLAGS.items()
                 if flag(name[2:].replace("-", "_")) is not None}
        name = next((given[key] for key in exc.keys if key in given), None)
        if name is None:
            raise
        raise ConfigError(str(exc), key=name) from None
    if flag("jobs") is not None and args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if flag("controls") is not None and not args.controls.is_file():
        raise ConfigError(f"controls file {str(args.controls)!r} not found")
    return scn, opts


def run_solve(scn: Scenario, opts: SolverOptions, out_dir: Path,
              terms_csv: bool = False) -> dict:
    """Solve the scenario's variant and write it: write_run_outputs with
    the solve report and iteration log, and with `terms_csv` the per-term
    level breakdown at each observer.  Every solve the CLI makes is
    written here."""
    result = solve_variant(scn, opts)
    rep = result.report
    report = {
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
    report = write_run_outputs(out_dir, result.trajectory, scn, result.levels, report,
                               rep.iteration_log)
    if terms_csv:
        for j, obs in enumerate(scn.observers):
            header, rows = noise.breakdown_rows(result.trajectory, obs,
                                                scn.engine, scn.atmosphere)
            _atomic_write(out_dir / f"noise_terms_obs{j}.csv", _csv_text(header, rows))
    return report


def run_sweep(scn: Scenario, opts: SolverOptions, out_dir: Path,
              observers=None, jobs: int = 1) -> list[dict]:
    """Solve the noise problem for each observer position (SWEEP_OBSERVERS
    by default) and tabulate it against the fuel-optimal reference.

    The reference is one fuel solve scored at every position; each row
    carries the status of its noise solve and of the reference.  With
    `jobs` > 1 the noise solves run in that many worker processes.
    """
    observers = tuple(Observer(x, y) for x, y in observers or SWEEP_OBSERVERS)
    fuel = run_solve(dataclasses.replace(scn, variant="fuel", observers=observers),
                     opts, out_dir / "fuel_reference")
    solves = ([dataclasses.replace(scn, observers=(obs,), variant="noise") for obs in observers],
              [opts] * len(observers),
              [out_dir / f"obs_{i:03d}" for i in range(len(observers))])
    if jobs > 1:
        # imported here: it loads `logging` too, which no other run needs
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(run_solve, *solves))
    else:
        reports = list(map(run_solve, *solves))

    rows = []
    keys = ("x_obs", "y_obs", "J_db", "max_fe_oe", "cpu_s", "J1_db", "J1_minus_J_db",
            "pct_co_of_tr", "pct_co_of_tr1", "status", "fuel_status")
    lines = [",".join(keys)]
    co_tr1 = fuel["consumption_kg"]
    for obs, report, j1 in zip(observers, reports, fuel["leq_db_by_observer"]):
        co_tr = report["consumption_kg"]
        row = {
            "x_obs": obs.x, "y_obs": obs.y,
            "J_db": report["objective"],
            "max_fe_oe": max(report["feasibility_error"], report["optimality_error"]),
            "cpu_s": report["wall_time_s"],
            "J1_db": j1,
            "J1_minus_J_db": j1 - report["objective"],
            "pct_co_of_tr": 100.0 * (co_tr - co_tr1) / co_tr,
            "pct_co_of_tr1": 100.0 * (co_tr - co_tr1) / co_tr1,
            "status": report["status"],
            "fuel_status": fuel["status"],
        }
        rows.append(row)
        lines.append(",".join(format(float(row[k]), ".17g") if isinstance(row[k], float)
                              else str(row[k]) for k in keys))
    _atomic_write(out_dir / "summary.csv", "\n".join(lines) + "\n")
    _atomic_write(out_dir / "summary.json", _json_text(rows))
    return rows


def run_evaluate(scn: Scenario, controls_csv: Path, out_dir: Path) -> dict:
    """Forward-simulate the controls of a trajectory file and report
    noise and fuel metrics without optimizing: the report has no solver
    fields, and iterations.log is empty.  The config echo's N and tf are
    those of the grid flown, the controls file's.

    Raises, before anything is written, what `_fly` raises.
    """
    return _report_flight(scn, controls_csv, *_fly(scn, controls_csv), out_dir)


def _fly(scn: Scenario, controls_csv: Path) -> tuple[Grid, Trajectory]:
    """The grid of a trajectory file and the flight of its controls from
    its first state.

    Raises ValueError for a file that `read_trajectory_csv` rejects or a
    grid of fewer than two intervals, and DomainError (a ValueError) or
    ArithmeticError for controls that fly out of the model domain.
    """
    given = read_trajectory_csv(controls_csv)
    grid = Grid(given.times[0], given.times[-1], given.n_intervals)
    return grid, simulate(given.states[0], given.controls, grid,
                          scn.aircraft, scn.atmosphere)


def _report_flight(scn: Scenario, controls_csv: Path, grid: Grid, traj: Trajectory,
                   out_dir: Path) -> dict:
    """Score a flight `_fly` made and write it: `run_evaluate`'s report."""
    levels = noise.levels_at(traj, scn.observers, scn.engine, scn.atmosphere)
    config = _scenario_echo(scn)
    config["N"], config["tf"] = grid.n_intervals, float(grid.tf)
    report = {
        "variant": "evaluate",
        "leq_db_by_observer": noise.leq_from_levels(traj.times, levels).tolist(),
        "consumption_kg": noise.total_consumption(traj, scn.aircraft, scn.atmosphere),
        "config": config,
        "source": str(controls_csv),
        "final_state": {k: float(v) for k, v in zip(STATE_NAMES, traj.states[-1])},
    }
    return write_run_outputs(out_dir, traj, scn, levels, report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisedescent",
        description="Noise-minimal descent trajectories by direct transcription")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--config": dict(type=Path, default=None,
                         help="scenario config file (defaults to the built-in scenario)"),
        "--out": dict(type=Path, default=Path("out"), help="output directory"),
        "--variant": dict(choices=VARIANTS, default=None),
        "--observers": dict(default=None,
                            help="semicolon-separated x,y pairs, e.g. '0,0;20000,2500'"),
        "--N": dict(type=int, default=None, help="grid intervals"),
        "--tol-feas": dict(type=float, default=None),
        "--tol-opt": dict(type=float, default=None),
        "--jobs": dict(type=int, default=1, help="worker processes for the noise solves"),
        "--terms-csv": dict(action="store_true",
                            help="export the per-term level breakdown per observer"),
        "--controls": dict(type=Path, required=True,
                           help="trajectory.csv whose controls (and first state) to fly"),
    }
    for name, help_text, names in (
            ("solve", "solve the configured variant",
             "--config --out --variant --observers --N --tol-feas --tol-opt --terms-csv"),
            ("sweep", "noise solve per observer position against the fuel-optimal one",
             "--config --out --observers --N --tol-feas --tol-opt --jobs"),
            ("evaluate", "forward-simulate a control file, no optimization",
             "--config --out --observers --controls")):
        p = sub.add_parser(name, help=help_text)
        for flag in names.split():
            p.add_argument(flag, **flags[flag])
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
        # the positions of --observers, else of the file's key, else SWEEP_OBSERVERS
        from_file = args.config and "observers" in read_sections(args.config).get("scenario", {})
        observers = [(o.x, o.y) for o in scn.observers] if args.observers or from_file else None
        rows = run_sweep(scn, opts, args.out, observers=observers, jobs=args.jobs)
        for row in rows:
            print(f"({row['x_obs']:.0f},{row['y_obs']:.0f}) J={row['J_db']:.2f} dB "
                  f"J1={row['J1_db']:.2f} dB [{row['status']}, fuel {row['fuel_status']}]")
        return 0 if all(r["status"] == r["fuel_status"] == "optimal" for r in rows) else 1
    if args.command == "evaluate":
        # a controls file that is rejected, or whose flight leaves the model
        # domain (a Python-float `**` raises OverflowError where numpy would
        # return inf); what fails after the flight is not the file's fault
        try:
            flight = _fly(scn, args.controls)
        except (ValueError, ArithmeticError) as exc:
            print(f"error: {args.controls}: {exc}", file=sys.stderr)
            return 2
        report = _report_flight(scn, args.controls, *flight, args.out)
        print(json.dumps({k: report[k] for k in
                          ("leq_db_by_observer", "consumption_kg")}, indent=2))
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
